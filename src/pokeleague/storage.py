"""Append-only match logs and bit-exact replay.

Each game writes one JSONL file, in one write when its MatchLog closes:
at the game's end, or when a forfeit or any other exception unwinds the
game, which then leaves the lines appended before it.  A process killed
without unwinding (SIGKILL, out of memory) leaves the logs of its unfinished
games empty, which read_log rejects (no meta record), as replay rejects a log
that stops before the battle ends (IncompleteLog).

Records carry a "kind" discriminator:
"meta" (seeds, the game's index within its match, teams, config),
"decision" (parsed decision, rationale, metric context, fallback flag,
and errors if there were any), "exchanges" (the model exchanges behind
the decision just before it, written only for a decision that has some,
and for a draft only in its match's first game log), and "events"
(engine events with pre/post state digests).  An exchange logs the full
prompt if it is the decision's first; a repair exchange logs only its
prompt_suffix, the text prompts.repair_prompt added after that first
prompt, so the text sent is the first prompt plus the suffix.  read_log,
the one reader, walks the records once: it checks each record's keys and
the values replay and the metrics read, reads each battle-time action
into an engine.Action (Action.from_dict, the one action reader), and
returns the MatchLogData that replay and the metrics share.
Live play and replay run one turn protocol, play_battle: live play logs the
events records it yields; replay feeds it the logged decisions and checks
every record it yields against the log, so any nondeterminism or
corruption is pinpointed to a turn; a tampered log fails as a
StorageError.  decision_context builds the "context" of each battle-time
decision, which read_log checks; live play logs the decision with it as
decision_line formats them.

Replay reads the events lines last: it encodes each record play_battle
yields as the live writer does and compares that text with the logged
line, so a line written by this encoder is never decoded.  Only when a
line is not that text (the spaced separators of 1.0-1.2, reordered keys,
any edit), or the log has any other fault, does replay decode: it reads
the whole log with read_log, whose error comes first, and replays it
again step by step.  There a step's events equal the logged ones when
their canonical_json encodings would; replay decides that by a value
compare as strict about types as the encoder (true is not 1, 1 is not
1.0, -0.0 is not 0.0; key order is ignored) and encodes both only when
the compare cannot vouch for a match.

Schema 2.0 writes each legal attack of a Battle context as
engine.attack_table's row, [move_index, effectiveness, expected_damage];
2.1 only drops 2.0's meta and decision "ts": no record carries a wall-clock
time.  read_log also reads 1.x logs, turning their attack objects into rows.

Lines are encoded as json.dumps(record, ensure_ascii=False,
separators=(",", ":")) encodes them, with no space after a comma or a
colon, by the stdlib's C encoder built once (make_encoder), as are
canonical_json's digests.  decision_line writes a battle-time decision's
line without the encoder, byte for byte as it would.  read_log decodes each
line with the C scanner json.loads calls, and hands a line that is not one
value with nothing after it to json.loads, so the error text stays the
decoder's own.

Digests cost one encoding per battler object: battlers are immutable and
successive states share the ones a step leaves unchanged, so state_json
keeps each battler's JSON by identity.  A battler a step creates costs
less than one encoding: the fields a battle never changes are encoded
once per value, and only its current_hp and status are formatted.  Each
side's revealed set is formatted once per value.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass
from itertools import dropwhile
from math import isfinite
from pathlib import Path
from typing import Callable, Iterator, Sequence

from .agents import AgentDecision
from .dex import Dex
from .engine import (
    Action, BattlerState, BattleState, IllegalActionError, attack_table, init_battle,
    needs_replacement, resolve_replacements, resolve_turn, split_legal,
)

SCHEMA_VERSION = "2.1"

PHASE_TEAM_SELECT = "TeamSelect"
PHASE_BATTLE = "Battle"
PHASE_FORCED_REPLACE = "ForcedReplace"

EVENTS_INIT = "init"
EVENTS_TURN = "turn"
EVENTS_REPLACE = "replace"


class StorageError(Exception):
    pass


class IncompleteLog(StorageError):
    pass


class DigestMismatch(StorageError):
    def __init__(self, turn: int, detail: str = ""):
        self.turn = turn
        super().__init__(f"replay diverged at turn {turn}" + (f": {detail}" if detail else ""))


def make_encoder(enc: json.JSONEncoder) -> Callable[[object], str]:
    """enc.encode as one C encoder built once; enc.encode itself where there is
    no C encoder.  The text is enc.encode's, byte for byte, except that the
    built encoder leaves out the cycle check: a cyclic value, which nothing
    here encodes, raises RecursionError where enc.encode raises ValueError."""
    c_make_encoder = json.encoder.c_make_encoder  # looked up here, so a test can take it away
    if c_make_encoder is None:
        return enc.encode
    quote = (json.encoder.encode_basestring_ascii if enc.ensure_ascii
             else json.encoder.encode_basestring)
    encode = c_make_encoder(None, enc.default, quote, None, enc.key_separator,
                            enc.item_separator, enc.sort_keys, enc.skipkeys, enc.allow_nan)
    return lambda obj: "".join(encode(obj, 0))


_CANONICAL = make_encoder(json.JSONEncoder(sort_keys=True, separators=(",", ":"),
                                           ensure_ascii=False))
# json.dumps(record, ensure_ascii=False, separators=(",", ":")), encoder built once.
_LOG_ENCODER = make_encoder(json.JSONEncoder(separators=(",", ":"), ensure_ascii=False))
# The quoting both encoders apply to a str, ensure_ascii=False's.
_QUOTE = json.encoder.encode_basestring


def canonical_json(obj: object) -> str:
    """Stable serialization used for digests and byte-equality checks."""
    return _CANONICAL(obj)


def _optional(value: object) -> str:
    """canonical_json(value), with None, an exact int and an exact str formatted directly."""
    if value is None:
        return "null"
    kind = type(value)
    return str(value) if kind is int else _QUOTE(value) if kind is str else _CANONICAL(value)


# id(battler) -> (battler, its canonical JSON).  Battlers are immutable and
# each entry holds its battler, so no other object can take that id while
# the entry lives; match threads share it, as each entry is written whole.
# Cleared whole once it reaches the cap: a match makes a few dozen battlers.
_BATTLER_JSON: dict[int, tuple[BattlerState, str]] = {}
_BATTLER_JSON_CAP = 256

# (species, types, moves, level, max_hp, stats items) -> the canonical JSON of
# the fields a battle never changes, as the two pieces that follow the
# battler's current_hp and its status.  Keyed by value, so every battler a
# match makes from one species shares an entry; shared and capped like
# _BATTLER_JSON, and a match needs one entry per species it drafts.
_FIXED_JSON: dict[tuple, tuple[str, str]] = {}
_FIXED_JSON_CAP = 256
_INT_ONLY = {int}

# frozenset(side.revealed) -> its team indices in order, as the items of a
# JSON array.  A team of six has 63 non-empty sets; shared and capped like
# _BATTLER_JSON.
_REVEALED_JSON: dict[frozenset, str] = {}
_REVEALED_JSON_CAP = 128


def _battler_json(b: BattlerState) -> str:
    entry = _BATTLER_JSON.get(id(b))
    if entry is not None:
        return entry[1]
    if len(_BATTLER_JSON) >= _BATTLER_JSON_CAP:
        _BATTLER_JSON.clear()
    encoded = _encode_battler(b)
    _BATTLER_JSON[id(b)] = (b, encoded)
    return encoded


def _encode_battler(b: BattlerState) -> str:
    """canonical_json(b.to_dict()), byte for byte, formatting only current_hp and status.

    The keys are written in their sorted order.  A value key is as strict
    as the encoder only where equal values encode alike: a name equals only
    a string, but 1 == 1.0 == True, so a battler whose level, max_hp,
    current_hp or stats are not all exact ints is encoded whole, and the
    current_hp of one that is needs no type check of its own.
    """
    if {type(b.level), type(b.max_hp), type(b.current_hp),
            *map(type, b.stats.values())} != _INT_ONLY:
        return _CANONICAL(b.to_dict())
    key = (b.species, b.types, b.moves, b.level, b.max_hp, tuple(b.stats.items()))
    fixed = _FIXED_JSON.get(key)
    if fixed is None:
        if len(_FIXED_JSON) >= _FIXED_JSON_CAP:
            _FIXED_JSON.clear()
        fixed = _FIXED_JSON[key] = (
            f',"level":{b.level},"max_hp":{b.max_hp},'
            f'"moves":{_CANONICAL(list(b.moves))},'
            f'"species":{_CANONICAL(b.species)},'
            f'"stats":{_CANONICAL(dict(b.stats))},"status":',
            f',"types":{_CANONICAL(list(b.types))}}}')
    status = ("null" if b.status is None else f'{{"kind":{_optional(b.status.kind)},'
              f'"turns_left":{_optional(b.status.turns_left)}}}')
    return f'{{"current_hp":{b.current_hp}{fixed[0]}{status}{fixed[1]}'


def state_json(state: BattleState) -> str:
    """canonical_json(state.to_dict()), byte for byte, without building the dicts.

    Keys are written in their sorted order.  Each battler object is
    encoded once (_battler_json) and each revealed set's items once per
    value (_REVEALED_JSON), so only the side and battle scalars are
    formatted per call.
    """
    sides = []
    for side in state.sides:
        key = frozenset(side.revealed)
        revealed = _REVEALED_JSON.get(key)
        if revealed is None:
            if len(_REVEALED_JSON) >= _REVEALED_JSON_CAP:
                _REVEALED_JSON.clear()
            revealed = _REVEALED_JSON[key] = ",".join(map(str, sorted(side.revealed)))
        sides.append(f'{{"active_index":{side.active_index},"revealed":[{revealed}],'
                     f'"team":[{",".join(map(_battler_json, side.team))}]}}')
    return (f'{{"end_reason":{_optional(state.end_reason)},'
            f'"rng_position":{state.rng_position},"rng_seed":{state.rng_seed},'
            f'"sides":[{",".join(sides)}],'
            f'"turn_limit":{state.turn_limit},"turn_number":{state.turn_number},'
            f'"weather":{{"kind":{_optional(state.weather)},'
            f'"remaining":{_optional(state.weather_remaining)}}},'
            f'"winner":{_optional(state.winner)}}}')


def state_digest(state: BattleState) -> str:
    """64-bit digest of the canonical state serialization.

    The serialization is state_json(state), which must equal
    canonical_json(state.to_dict()) byte for byte: digest values are part
    of the log format.
    """
    return hashlib.sha256(state_json(state).encode("utf-8")).hexdigest()[:16]


class MatchLog:
    """One writer per game log: JSON objects, one per line.

    The file is created when the log is made, so an unusable path fails
    before the game starts.  append encodes its records to UTF-8 at once,
    so a record the encoder rejects raises there and adds none of that
    call's lines.  The lines are kept, and close writes them all in one
    write and closes the file, which is closed even if the write fails.
    A with block closes the log also when an exception unwinds it (a
    forfeit, an agent's error, an interrupt), so the file then holds every
    line appended before it.  A process killed without unwinding (SIGKILL,
    out of memory) leaves its open logs empty.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._handle = open(self.path, "wb")
        self._lines: list[bytes] = []

    def append(self, *records: dict | str) -> None:
        """Each record is a dict, or its line as decision_line formats it."""
        if self._handle is None:
            raise StorageError(f"log {self.path} is closed")
        self._lines.append("".join([
            (record if type(record) is str else _LOG_ENCODER(record)) + "\n"
            for record in records]).encode("utf-8"))

    def close(self) -> None:
        handle, self._handle = self._handle, None
        if handle is not None:
            lines, self._lines = self._lines, []
            try:
                handle.write(b"".join(lines))
            finally:
                handle.close()

    def __enter__(self) -> "MatchLog":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


# ---------------------------------------------------------------------------
# record builders
# ---------------------------------------------------------------------------

def meta_record(
    *,
    match_id: str,
    tournament_id: str,
    game_index: int,
    seed: int,
    turn_limit: int,
    dex_fingerprint: str,
    agents: dict[str, str],
    team_names: dict[str, list[str]],
    initial_digest: str,
    config: dict | None = None,
    provider_params: dict | None = None,
) -> dict:
    return {
        "kind": "meta",
        "schema_version": SCHEMA_VERSION,
        "match_id": match_id,
        "tournament_id": tournament_id,
        "game_index": game_index,
        "seed": seed,
        "turn_limit": turn_limit,
        "dex_fingerprint": dex_fingerprint,
        "agents": agents,
        "team_names": team_names,
        "initial_digest": initial_digest,
        "config": config or {},
        "provider_params": provider_params or {},
    }


def decision_record(
    decision: AgentDecision,
    *,
    turn: int,
    agent_id: str,
    side: int,
    phase: str,
    context: dict | None = None,
) -> dict:
    return {
        "kind": "decision",
        "turn": turn,
        "agent_id": agent_id,
        "side": side,
        "phase": phase,
        "decision": ({"team": list(decision.team)} if decision.action is None
                     else {"action": decision.action.to_dict()}),
        "reasoning": decision.reasoning,
        "fallback_used": decision.fallback_used,
        **({"errors": list(decision.errors)} if decision.errors else {}),
        "context": context,
    }


def exchanges_record(decision: AgentDecision) -> tuple[dict, ...]:
    """The records that follow a decision's: its exchanges record, or none if it has none."""
    if not decision.exchanges:
        return ()
    return ({"kind": "exchanges", "exchanges": list(decision.exchanges)},)


def events_record(
    *,
    match_id: str,
    turn: int,
    phase: str,
    events: list[dict],
    pre_digest: str | None,
    post_digest: str,
) -> dict:
    return {
        "kind": "events",
        "match_id": match_id,
        "turn": turn,
        "phase": phase,
        "events": events,
        "pre_digest": pre_digest,
        "post_digest": post_digest,
    }


# ---------------------------------------------------------------------------
# the turn protocol
# ---------------------------------------------------------------------------

def play_battle(
    state: BattleState,
    init_events: list[dict],
    dex: Dex,
    match_id: str,
    choose: Callable[[BattleState, int, str], Action],
) -> Iterator[tuple[dict, BattleState]]:
    """The turn protocol that live play and replay share.

    Yields the init events record, then for each turn the turn record
    and one record per round of forced replacements, each with the state
    after it.  choose(state, side, phase) supplies each side's action,
    battle actions for side 0 then side 1 and replacements in side order.
    Each state is digested once: its digest is the post_digest of its
    record and the pre_digest of the next.
    """
    digest = state_digest(state)
    yield events_record(match_id=match_id, turn=0, phase=EVENTS_INIT, events=init_events,
                        pre_digest=None, post_digest=digest), state
    while not state.ended:
        turn = state.turn_number
        action_a = choose(state, 0, PHASE_BATTLE)
        action_b = choose(state, 1, PHASE_BATTLE)
        pre = digest
        state, events = resolve_turn(state, action_a, action_b, dex)
        digest = state_digest(state)
        yield events_record(match_id=match_id, turn=turn, phase=EVENTS_TURN, events=events,
                            pre_digest=pre, post_digest=digest), state
        while pending := [side for side in (0, 1) if needs_replacement(state, side)]:
            replacements = {side: choose(state, side, PHASE_FORCED_REPLACE) for side in pending}
            pre = digest
            state, events = resolve_replacements(state, replacements, dex)
            digest = state_digest(state)
            yield events_record(match_id=match_id, turn=state.turn_number,
                                phase=EVENTS_REPLACE, events=events,
                                pre_digest=pre, post_digest=digest), state


def _context_parts(dex: Dex, state: BattleState, side: int,
                   legal: Sequence[Action]) -> tuple[int, list[Action], tuple]:
    """What a battle-time decision's context holds: the active battler's HP
    percent, the legal switches and attack_table's rows for the legal attacks."""
    own = state.sides[side].active
    attacks, switches = split_legal(legal)
    indices = tuple([a.index for a in attacks])
    rows = (attack_table(dex, own, state.sides[1 - side].active, state.weather, indices)
            if indices else ())
    return own.hp_percent, switches, rows


def decision_context(dex: Dex, state: BattleState, side: int, legal: Sequence[Action]) -> dict:
    """The "context" record of a battle-time decision made in this state.

    Holds what the metrics read: the active battler's HP percent for
    switch timing, the legal switches, and each legal attack's move index
    with its effectiveness against the opposing active battler and its
    engine.expected_damage, which the attack metrics rank.  The species,
    types and weather are in the meta record, the events and the dex.

    The attacks are engine.attack_table's rows as they are, one
    (move_index, effectiveness, expected_damage) tuple per legal attack,
    memoized in the dex, so GreedyAgent and the context rank a matchup once
    between them; the log writes each as a [move_index, effectiveness,
    expected_damage] array.  Every call returns a new dict and new lists;
    the rows are the memo's immutable tuples.
    """
    hp_percent, switches, rows = _context_parts(dex, state, side, legal)
    return {"own_hp_percent": hp_percent, "switches": [a.index for a in switches],
            "attacks": list(rows)}


# The log encoder's text of a value of each of these exact types.
_SCALAR_JSON: dict[type, Callable[[object], str]] = {
    str: json.encoder.encode_basestring, int: int.__repr__,
    bool: {True: "true", False: "false"}.__getitem__, type(None): lambda value: "null"}


def _scalar_json(value: object) -> str:
    """_LOG_ENCODER(value), formatted directly for an exact str, int, bool or None."""
    return _SCALAR_JSON.get(type(value), _LOG_ENCODER)(value)


# id(rows) -> (rows, their log JSON), for attack_table's rows: the memo's own
# tuples, so each matchup's rows are encoded once.  Each entry holds its
# rows, so no other object can take that id while the entry lives; shared
# and capped like _BATTLER_JSON.
_ROWS_JSON: dict[int, tuple[tuple, str]] = {}
_ROWS_JSON_CAP = 1024


def _rows_json(rows: tuple) -> str:
    entry = _ROWS_JSON.get(id(rows))
    if entry is None:
        if len(_ROWS_JSON) >= _ROWS_JSON_CAP:
            _ROWS_JSON.clear()
        entry = _ROWS_JSON[id(rows)] = (rows, _LOG_ENCODER(rows))
    return entry[1]


def decision_line(dex: Dex, state: BattleState, side: int, legal: Sequence[Action],
                  decision: AgentDecision, *, agent_id: str, phase: str) -> str:
    """The log line of a battle-time decision (its action set) made in this state:
    the encoded decision_record(decision, turn=state.turn_number, agent_id=agent_id,
    side=side, phase=phase, context=decision_context(dex, state, side, legal)),
    byte for byte, without its newline.

    Formatted directly, in about half the time of building the record and
    its context and encoding them: each scalar by _scalar_json, the errors
    by the encoder, and the attack rows by the encoder once per memo tuple
    (_ROWS_JSON).
    """
    hp_percent, switches, rows = _context_parts(dex, state, side, legal)
    action = decision.action
    errors = f',"errors":{_LOG_ENCODER(list(decision.errors))}' if decision.errors else ""
    return (f'{{"kind":"decision","turn":{_scalar_json(state.turn_number)},'
            f'"agent_id":{_scalar_json(agent_id)},"side":{_scalar_json(side)},'
            f'"phase":{_scalar_json(phase)},"decision":{{"action":{{'
            f'"type":{_scalar_json(action.kind)},'
            f'"{action.INDEX_KEYS[action.kind]}":{_scalar_json(action.index)}}}}},'
            f'"reasoning":{_scalar_json(decision.reasoning)},'
            f'"fallback_used":{_scalar_json(decision.fallback_used)}{errors},'
            f'"context":{{"own_hp_percent":{_scalar_json(hp_percent)},'
            f'"switches":[{",".join([_scalar_json(a.index) for a in switches])}],'
            f'"attacks":{_rows_json(rows)}}}}}')


# ---------------------------------------------------------------------------
# reading and replay
# ---------------------------------------------------------------------------

# The keys that replay and the metrics read, which read_log requires of each
# record kind.  Inside a record they also read both sides of the meta agents
# and team_names, a battle-time decision's action and context, and each
# event's kind (a BattleEnded event's winner too): see _lacking_inside.
RECORD_KEYS = {
    "meta": frozenset({"match_id", "seed", "turn_limit", "dex_fingerprint", "agents",
                       "team_names", "initial_digest"}),
    "decision": frozenset({"turn", "agent_id", "side", "phase", "decision", "reasoning",
                           "context"}),
    "events": frozenset({"match_id", "turn", "phase", "events", "pre_digest", "post_digest"}),
}
SIDE_KEYS = ("a", "b")  # the meta agents and team_names keys of sides 0 and 1
# What each item of a Battle context's attacks row holds, in order.
_ATTACK_FIELDS = ("move_index", "effectiveness", "expected_damage")
# The schema majors read_log reads.  A 1.x log writes each context attack as
# an object with the _ATTACK_FIELDS keys; read_log turns it into its row.
_READ_MAJORS = frozenset({"1", "2"})
_NOT_AN_ATTACK = {
    False: "context attack is not a [move_index, effectiveness, expected_damage] row",
    True: "context attack is not an object holding move_index, effectiveness and expected_damage",
}


@dataclass
class MatchLogData:
    """One checked match log, as read_log returns it: battle-time actions are Actions,
    Battle context attacks are [move_index, effectiveness, expected_damage] lists
    at any schema version, and records holds the decision and events records in
    log order."""

    path: Path
    meta: dict
    records: list[dict]
    winner_side: int | None  # of the logged BattleEnded event; None if there is none


def _fault(path: str | Path, decision: dict, what: str) -> StorageError:
    return StorageError(f"{path}: turn {decision['turn']}: side {decision['side']}: {what}")


_NUMBER = (int, float)  # exact types, so a bool is not a number


def _not_finite(number: int | float) -> bool:
    """NaN, an infinity (json.loads reads them from NaN, Infinity or 1e400),
    or an int too large for a float, which the metrics cannot average."""
    try:
        return not isfinite(number)
    except OverflowError:
        return True


def _is_side(value: object) -> bool:
    return type(value) is int and value in (0, 1)  # a bool is not a side


def _lacking_inside(path: str | Path, kind: str, record: dict,
                    log: MatchLogData, legacy: bool) -> frozenset[str]:
    """The keys that a record with every key of its kind lacks inside (see RECORD_KEYS).

    A value that replay or the metrics read, in a type or range they cannot
    use (a NaN or infinite context number among them), raises StorageError.
    On the way it replaces a battle-time decision's action payload by its
    Action, in place, and sets log.winner_side from a BattleEnded event.
    In a legacy (1.x) log it also replaces each Battle context attack object
    by its row, in place, before the rows are checked as a 2.x log's are.
    """
    if kind == "meta":
        for key in ("agents", "team_names"):
            if type(record[key]) is not dict:
                raise StorageError(f"{path}: meta record: {key} is not an object")
        agents, teams = record["agents"], record["team_names"]
        lacking = frozenset(k for k in SIDE_KEYS if k not in agents or k not in teams)
        if lacking:
            return lacking
        for key in ("seed", "turn_limit"):
            if type(record[key]) is not int:
                raise StorageError(f"{path}: meta record: {key} is not an integer")
        for key in SIDE_KEYS:
            if type(agents[key]) is not str:
                raise StorageError(f"{path}: meta record: agents {key!r} is not a string")
            if type(teams[key]) is not list:
                raise StorageError(f"{path}: meta record: team_names {key!r} is not a list")
            if any(type(name) is not str for name in teams[key]):
                raise StorageError(f"{path}: meta record: team_names {key!r} holds a non-string")
        if agents["a"] == agents["b"]:
            raise StorageError(f"{path}: meta record: agent {agents['a']!r} plays both sides")
    elif kind == "decision":
        if not _is_side(record["side"]):
            raise _fault(path, record, "side is not 0 or 1")
        if record["agent_id"] != log.meta["agents"][SIDE_KEYS[record["side"]]]:
            raise _fault(path, record, f"agent {record['agent_id']!r} does not play this side")
        decision = record["decision"]
        if type(decision) is not dict:
            raise _fault(path, record, "decision is not an object")
        if type(record["reasoning"]) is not str:
            raise _fault(path, record, "reasoning is not a string")
        if record["phase"] == PHASE_TEAM_SELECT:
            return frozenset()
        if "action" not in decision:
            return frozenset({"action"})
        try:
            action = decision["action"] = Action.from_dict(decision["action"])
        except ValueError as exc:
            raise _fault(path, record, f"unreadable action: {exc}") from None
        if record["phase"] == PHASE_BATTLE:
            context = record["context"]
            if not (type(context) is dict and type(context.get("attacks")) is list
                    and type(context.get("switches")) is list
                    and type(context.get("own_hp_percent")) in _NUMBER):
                raise _fault(path, record, "context is not an object holding "
                                           "own_hp_percent, switches and attacks")
            if _not_finite(context["own_hp_percent"]):
                raise _fault(path, record, f"context own_hp_percent "
                                           f"{context['own_hp_percent']} is not finite")
            rows = context["attacks"]
            if legacy:  # a 1.x attack is an object: read it as its row, in place
                rows[:] = [[attack.get("move_index"), attack.get("effectiveness"),
                            attack.get("expected_damage")] if type(attack) is dict else None
                           for attack in rows]
            listed = False
            for row in rows:
                if not (type(row) is list and len(row) == 3 and type(row[0]) is int
                        and type(row[1]) in _NUMBER and type(row[2]) in _NUMBER):
                    raise _fault(path, record, _NOT_AN_ATTACK[legacy])
                try:  # an int too large for a float raises OverflowError
                    finite = isfinite(row[1]) and isfinite(row[2])
                except OverflowError:
                    finite = False
                if not finite:
                    n = 1 if _not_finite(row[1]) else 2
                    raise _fault(path, record, f"context attack {row[0]}: "
                                               f"{_ATTACK_FIELDS[n]} {row[n]} is not finite")
                listed = listed or row[0] == action.index
            if action.is_attack and not listed:
                raise _fault(path, record, f"illegal action {action}")
    elif kind == "events":
        if type(record["events"]) is not list:
            raise StorageError(f"{path}: turn {record['turn']}: events is not a list")
        for event in record["events"]:
            if type(event) is not dict:
                raise StorageError(f"{path}: turn {record['turn']}: an event is not an object")
            if "kind" not in event or event["kind"] == "BattleEnded" and "winner" not in event:
                return frozenset({"kind", "winner"}).difference(event)
            if event["kind"] == "BattleEnded":
                if not _is_side(event["winner"]):
                    raise StorageError(f"{path}: turn {record['turn']}: "
                                       f"BattleEnded winner {event['winner']!r} is not 0 or 1")
                log.winner_side = event["winner"]
    return frozenset()


# The C scanner json.loads calls, without the Python frames in front of it:
# _SCAN(text, i) decodes the value starting at i into (value, end).  It raises
# StopIteration where the text ends before a value it expects.
_SCAN = json.JSONDecoder().scan_once


def _decode_line(line: str) -> object:
    """json.loads(line), by the C scanner alone when the line is one value and nothing else."""
    try:
        value, end = _SCAN(line, 0)
    except StopIteration:
        end = -1
    # No value, or data after it: json.loads raises the decoder's own error.
    return value if end == len(line) else json.loads(line)


# The deepest a log line may nest arrays and objects.  The C scanner's own
# limit is the recursion limit less the depth of its caller, so without a cap
# far below that limit, whether a deep line decodes would depend on the caller.
# read_log asks _too_deep of every line that fails to decode, and of a decoded
# one only if it is longer than twice the cap: a whole value takes two
# characters a level, so no shorter one can be too deep.
MAX_NESTING = 500
_STRINGS = re.compile(r'"[^"\\]*(?:\\.[^"\\]*)*"', re.DOTALL)
_NOT_BRACKETS = re.compile(r"[^\[\]{}]+")


def _too_deep(line: str) -> bool:
    """Whether line nests arrays and objects deeper than MAX_NESTING, strings
    skipped; str.count rules out most lines before the exact scan."""
    if line.count("[") + line.count("{") <= MAX_NESTING:
        return False
    depth = 0
    for bracket in _NOT_BRACKETS.sub("", _STRINGS.sub("", line)):
        depth += 1 if bracket in "[{" else -1
        if depth > MAX_NESTING:
            return True
    return False


def _nested_too_deep(path: str | Path, line_no: int) -> StorageError:
    return StorageError(f"{path}:{line_no}: nested deeper than {MAX_NESTING} arrays and objects")


def read_log(path: str | Path) -> MatchLogData:
    """Parse and check a match log, walking its records once.

    A file that is not UTF-8 text, a line that nests arrays and objects
    deeper than MAX_NESTING (whoever the caller) or is not a JSON object
    (or holds an integer too long to decode), a first record that is not
    meta, a schema major version other than 1 or 2, a record that lacks a
    key (RECORD_KEYS), an unreadable battle-time action or a bad value
    (_lacking_inside) raises StorageError.  Each Battle context attack is
    checked as a row of an int move index and two finite numbers, one of
    them the chosen attack's; a 1.x log's attack objects are checked with
    the 1.x texts and returned as rows.  Records of a kind
    not in RECORD_KEYS, such as "exchanges" or a kind that is not a
    string, are skipped: each is decoded as a JSON object, and nothing
    inside it is checked.
    """
    return _read_log(path, events_as_text=False)


# How the log encoder begins every events line it writes.
_EVENTS_LINE = '{"kind":"events",'


def _read_log(path: str | Path, events_as_text: bool) -> MatchLogData:
    """read_log(path); with events_as_text, each line after the first that
    begins as _EVENTS_LINE is neither decoded nor checked, and its text
    stands in log.records for the record, for replay to compare by its bytes."""
    records: list[dict | str] = []
    try:
        with open(path, encoding="utf-8") as handle:
            for line_no, line in enumerate(handle, 1):
                line = line.strip()
                if not line:
                    continue
                if events_as_text and records and line.startswith(_EVENTS_LINE):
                    records.append(line)
                    continue
                try:
                    record = _decode_line(line)
                except (ValueError, RecursionError) as exc:  # or an int of over 4300 digits
                    if _too_deep(line):  # the decoder may have run out of the caller's stack
                        raise _nested_too_deep(path, line_no) from None
                    raise StorageError(f"{path}:{line_no}: invalid JSON: {exc}")
                if len(line) > 2 * MAX_NESTING and _too_deep(line):  # two characters a level
                    raise _nested_too_deep(path, line_no)
                if type(record) is not dict:
                    raise StorageError(f"{path}:{line_no}: a record must be a JSON object")
                records.append(record)
    except UnicodeDecodeError as exc:  # the text decoder reads ahead, so no line is known
        raise StorageError(f"{path}: not UTF-8 text ({exc.reason})") from None
    if not records or records[0].get("kind") != "meta":
        raise StorageError(f"{path}: first record must be meta")
    version = str(records[0].get("schema_version", ""))
    major = version.split(".")[0]
    if major not in _READ_MAJORS:
        raise StorageError(f"{path}: unsupported log schema version {version!r}")
    legacy = major == "1"
    log = MatchLogData(path=Path(path), meta=records[0], records=[], winner_side=None)
    for record in records:
        if type(record) is str:  # an events line, kept as text
            log.records.append(record)
            continue
        kind = record.get("kind")
        if type(kind) is not str or kind not in RECORD_KEYS:  # a list kind is unhashable
            continue
        lacking = RECORD_KEYS[kind].difference(record) or _lacking_inside(
            path, kind, record, log, legacy)
        if lacking:
            raise StorageError(f"{path}: a record lacks the key {min(lacking)!r}")
        if kind != "meta":
            log.records.append(record)
    return log


@dataclass
class ReplayResult:
    winner_side: int
    winner_agent: str
    turns: int


_PLAIN = {str, int, bool, type(None)}  # exact types whose equal values encode alike
_ABSENT = object()


def _same_event(got: object, want: dict) -> bool:
    """True if got surely encodes as the event want does; False if unsure.

    Sure means a dict with want's string keys, each value equal to want's
    and of its exact type: str, int, bool, None or a nonzero float (0.0 ==
    -0.0, but they encode apart).
    """
    if type(got) is not dict or len(got) != len(want):
        return False
    for key, value in got.items():
        other = want.get(key, _ABSENT)
        kind = type(value)
        if type(key) is not str or kind is not type(other) or value != other:
            return False
        if kind not in _PLAIN and (kind is not float or not value):
            return False
    return True


def _same_events(logged: object, expected: list[dict]) -> bool:
    """canonical_json(logged) == canonical_json(expected), encoding neither for a match.

    Engine events are flat dicts of scalars, so a logged list whose events
    each surely match (_same_event) is equal; anything else, a difference
    included, is decided by encoding both.
    """
    if (type(logged) is list and len(logged) == len(expected)
            and all(map(_same_event, logged, expected))):
        return True
    return canonical_json(logged) == canonical_json(expected)


def _check_step(logged: dict, expected: dict) -> None:
    """Raise unless a logged record equals the events record play_battle produced."""
    turn = logged["turn"]
    if (logged["kind"], logged["phase"]) != ("events", expected["phase"]):
        raise StorageError(f"turn {turn}: expected {expected['phase']} events, "
                           f"found {logged['kind']} {logged['phase']!r}")
    if logged["pre_digest"] != expected["pre_digest"]:
        raise DigestMismatch(turn, "pre-state digest")
    if logged["post_digest"] != expected["post_digest"]:
        raise DigestMismatch(turn, "post-state digest")
    if not _same_events(logged["events"], expected["events"]):
        raise DigestMismatch(turn, "event payload")
    if (turn, logged["match_id"]) != (expected["turn"], expected["match_id"]):
        raise DigestMismatch(turn, "turn or match id")


def replay(path: str | Path, dex: Dex, expected_dex_fingerprint: str | None = None) -> ReplayResult:
    """Verify a complete log turn by turn and return the recomputed result.

    The decisions of the log read_log returns drive play_battle.  The
    initial digest must equal the meta record's, checked before the init
    record, and every events record play_battle yields must equal the
    logged one (pre digest, post digest, then event payload;
    DigestMismatch names the turn).  A missing decision or a log that stops
    before the battle ends raises IncompleteLog; a dex fingerprint other
    than the expected one, meta teams that init_battle rejects, a logged
    action that the engine rejects in its state (IllegalActionError, its
    one legality check), or a decision or events record after the end
    raises StorageError, as read_log does for a log it cannot read.

    Each events line the log encoder wrote is checked by its bytes: it must
    be the text the encoder writes for the record play_battle yields, so it
    is not decoded.  A line that is not that text (spaced separators, as
    1.0-1.2 wrote them; reordered keys; any edit), and any other fault,
    sends the log to the decoded replay, which reads it with read_log and
    checks each step with _check_step: its result, or its error, is replay's.
    """
    try:
        return _replay(_read_log(path, events_as_text=True), dex, expected_dex_fingerprint)
    except StorageError:
        return _replay(read_log(path), dex, expected_dex_fingerprint)


def _is_draft(record: dict | str) -> bool:
    return (type(record) is dict and record["kind"] == "decision"
            and record["phase"] == PHASE_TEAM_SELECT)


def _replay(log: MatchLogData, dex: Dex, expected_dex_fingerprint: str | None) -> ReplayResult:
    """replay of a log that read_log or _read_log(path, events_as_text=True) returned.

    An events line kept as text passes if it is the text the log encoder
    writes for the record play_battle yields.  One that is not, or one met
    where a decision or the end is due, raises a StorageError that replay
    does not show: it replays the decoded log instead.
    """
    meta = log.meta
    # The drafts come before the init record.
    logged = dropwhile(_is_draft, log.records)

    def next_logged(turn: int) -> dict | str:
        record = next(logged, None)
        if record is None:
            raise IncompleteLog(f"turn {turn}: log ends before the battle ended")
        return record

    def choose(state: BattleState, side: int, phase: str) -> Action:
        record = next_logged(state.turn_number)
        if (type(record) is str or record["kind"] != "decision"
                or (record["side"], record["phase"]) != (side, phase)):
            what = "battle" if phase == PHASE_BATTLE else "replacement"
            raise IncompleteLog(f"turn {state.turn_number}: missing {what} decisions")
        return record["decision"]["action"]

    if (expected_dex_fingerprint is not None
            and meta["dex_fingerprint"] != expected_dex_fingerprint):
        raise StorageError(f"dex fingerprint mismatch: log has {meta['dex_fingerprint']}, "
                           f"current dex is {expected_dex_fingerprint}")
    teams = meta["team_names"]
    try:
        state, init_events = init_battle(
            dex, teams["a"], teams["b"], meta["seed"], meta["turn_limit"])
    except ValueError as exc:  # e.g. a team that is not 6 species
        raise StorageError(f"meta record: {exc}") from exc
    try:
        for expected, state in play_battle(state, init_events, dex, meta["match_id"], choose):
            if (expected["phase"] == EVENTS_INIT
                    and meta["initial_digest"] != expected["post_digest"]):
                raise DigestMismatch(0, "initial digest")
            logged_step = next_logged(expected["turn"])
            if type(logged_step) is not str:
                _check_step(logged_step, expected)
            elif logged_step != _LOG_ENCODER(expected):
                raise StorageError(f"turn {expected['turn']}: events line differs")
    except IllegalActionError as exc:  # the actions were chosen in the state last yielded
        raise StorageError(f"turn {state.turn_number}: side {exc.side}: "
                           f"illegal action {exc.action}") from None
    extra = next(logged, None)
    if type(extra) is str:
        raise StorageError("events line after the battle ended")
    if extra is not None:
        raise StorageError(f"turn {extra['turn']}: {extra['kind']} record after the battle ended")
    return ReplayResult(winner_side=state.winner, turns=state.turn_number - 1,
                        winner_agent=meta["agents"][SIDE_KEYS[state.winner]])
