"""Append-only match logs and bit-exact replay.

Each match writes one JSONL file.  Records carry a "kind" discriminator:
"meta" (seeds, teams, config), "decision" (prompt, raw response, parsed
decision, rationale), and "events" (engine events with pre/post state
digests).  Replay re-runs the engine over the logged actions and checks
every digest, so any nondeterminism or corruption is pinpointed to a
turn.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Iterator

from .dex import Dex
from .engine import Action, BattleState, init_battle, resolve_replacements, resolve_turn

SCHEMA_VERSION = "1.0"

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


_CANONICAL = json.JSONEncoder(sort_keys=True, separators=(",", ":"), ensure_ascii=False)


def canonical_json(obj: object) -> str:
    """Stable serialization used for digests and byte-equality checks."""
    return _CANONICAL.encode(obj)


def _optional(value: object) -> str:
    """canonical_json(value), with None and int formatted directly."""
    if value is None:
        return "null"
    return str(value) if type(value) is int else _CANONICAL.encode(value)


@lru_cache(maxsize=4096)
def _battler_fragments(
    species: str,
    types: tuple[str, ...],
    level: int,
    max_hp: int,
    moves: tuple[str, ...],
    stat_names: tuple[str, ...],
    stat_values: tuple[int, ...],
) -> tuple[str, str]:
    """The canonical JSON of a battler's fixed fields, split around "status".

    Keys sort as current_hp < level .. stats < status < types, so a
    battler encodes as '{"current_hp":N' + head + status + tail.
    """
    head = _CANONICAL.encode({
        "level": level, "max_hp": max_hp, "moves": list(moves),
        "species": species, "stats": dict(zip(stat_names, stat_values)),
    })
    tail = _CANONICAL.encode({"types": list(types)})
    return "," + head[1:-1] + ',"status":', "," + tail[1:]


def state_json(state: BattleState) -> str:
    """canonical_json(state.to_dict()), byte for byte, without building the dicts.

    Keys are written in their sorted order.  The fixed fields of each
    battler come from a bounded cache keyed by their values, so only HP,
    status and the side and battle scalars are formatted per call.
    """
    sides = []
    for side in state.sides:
        team = []
        for b in side.team:
            stats = b.stats
            head, tail = _battler_fragments(
                b.species, tuple(b.types), b.level, b.max_hp, tuple(b.moves),
                tuple(stats), tuple(stats.values()))
            status = b.status
            status_json = ("null" if status is None else
                           f'{{"kind":{_CANONICAL.encode(status.kind)},'
                           f'"turns_left":{status.turns_left}}}')
            team.append(f'{{"current_hp":{b.current_hp}{head}{status_json}{tail}')
        revealed = ",".join(map(str, sorted(side.revealed)))
        sides.append(f'{{"active_index":{side.active_index},"revealed":[{revealed}],'
                     f'"team":[{",".join(team)}]}}')
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
    """One writer per match: JSON objects, one per line, flushed on append."""

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._handle = open(self.path, "w", encoding="utf-8")

    def append(self, record: dict) -> None:
        if self._handle is None:
            raise StorageError(f"log {self.path} is closed")
        self._handle.write(json.dumps(record, ensure_ascii=False) + "\n")
        self._handle.flush()

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

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
    seed: int,
    turn_limit: int,
    dex_fingerprint: str,
    agents: dict[str, str],
    teams: dict[str, list[int]],
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
        "seed": seed,
        "turn_limit": turn_limit,
        "dex_fingerprint": dex_fingerprint,
        "agents": agents,
        "teams": teams,
        "team_names": team_names,
        "initial_digest": initial_digest,
        "config": config or {},
        "provider_params": provider_params or {},
        "ts": time.time(),
    }


def decision_record(
    *,
    match_id: str,
    turn: int,
    agent_id: str,
    side: int,
    phase: str,
    decision: dict,
    reasoning: str,
    fallback_used: bool = False,
    exchanges: list[dict] | None = None,
    errors: list[str] | None = None,
    context: dict | None = None,
) -> dict:
    return {
        "kind": "decision",
        "match_id": match_id,
        "turn": turn,
        "agent_id": agent_id,
        "side": side,
        "phase": phase,
        "decision": decision,
        "reasoning": reasoning,
        "fallback_used": fallback_used,
        "exchanges": exchanges or [],
        "errors": errors or [],
        "context": context,
        "ts": time.time(),
    }


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
# reading and replay
# ---------------------------------------------------------------------------

def read_log(path: str | Path) -> list[dict]:
    """Parse a match log, rejecting unknown schema major versions."""
    records = []
    with open(path, encoding="utf-8") as handle:
        for line_no, line in enumerate(handle, 1):
            line = line.strip()
            if not line:
                continue
            try:
                records.append(json.loads(line))
            except json.JSONDecodeError as exc:
                raise StorageError(f"{path}:{line_no}: invalid JSON: {exc}")
    if not records or records[0].get("kind") != "meta":
        raise StorageError(f"{path}: first record must be meta")
    version = str(records[0].get("schema_version", ""))
    major = version.split(".")[0]
    if major != SCHEMA_VERSION.split(".")[0]:
        raise StorageError(f"{path}: unsupported log schema version {version!r}")
    return records


@dataclass
class ReplayResult:
    final_state: BattleState
    winner_side: int
    winner_agent: str
    turns: int


def replay_walk(records: list[dict], dex: Dex) -> Iterator[tuple[dict, BattleState]]:
    """Re-run the engine over a log, yielding (record, state before record).

    Digests are verified as the walk progresses; any divergence raises
    DigestMismatch with the offending turn.  Each state is digested once:
    the initial digest is checked against the meta record and the init
    record, and every later pre_digest against the post-state digest
    already verified.  The recomputed event lists must also match the
    logged ones byte for byte.
    """
    meta = records[0]
    state, init_events = init_battle(
        dex,
        meta["team_names"]["a"],
        meta["team_names"]["b"],
        meta["seed"],
        meta["turn_limit"],
    )
    digest = state_digest(state)
    if meta.get("initial_digest") != digest:
        raise DigestMismatch(0, "initial digest")
    pending_actions: dict[int, Action] = {}
    pending_replacements: dict[int, Action] = {}

    for record in records[1:]:
        yield record, state
        kind = record.get("kind")
        if kind == "decision":
            if record["phase"] == PHASE_TEAM_SELECT:
                continue
            action = Action.from_dict(record["decision"]["action"])
            if record["phase"] == PHASE_FORCED_REPLACE:
                pending_replacements[record["side"]] = action
            else:
                pending_actions[record["side"]] = action
        elif kind == "events":
            turn = record["turn"]
            if record["phase"] == EVENTS_INIT:
                recomputed = init_events
            elif record["phase"] == EVENTS_TURN:
                if set(pending_actions) != {0, 1}:
                    raise IncompleteLog(f"turn {turn}: missing battle decisions")
                if record["pre_digest"] != digest:
                    raise DigestMismatch(turn, "pre-state digest")
                state, recomputed = resolve_turn(
                    state, pending_actions[0], pending_actions[1], dex)
                digest = state_digest(state)
                pending_actions = {}
            elif record["phase"] == EVENTS_REPLACE:
                if not pending_replacements:
                    raise IncompleteLog(f"turn {turn}: missing replacement decisions")
                if record["pre_digest"] != digest:
                    raise DigestMismatch(turn, "pre-state digest")
                state, recomputed = resolve_replacements(state, pending_replacements, dex)
                digest = state_digest(state)
                pending_replacements = {}
            else:
                raise StorageError(f"unknown events phase {record['phase']!r}")
            if record["post_digest"] != digest:
                raise DigestMismatch(turn, "post-state digest")
            if canonical_json(record["events"]) != canonical_json(recomputed):
                raise DigestMismatch(turn, "event payload")
    yield {"kind": "end"}, state


def replay(path: str | Path, dex: Dex, expected_dex_fingerprint: str | None = None) -> ReplayResult:
    """Verify a complete log turn by turn and return the recomputed result."""
    records = read_log(path)
    meta = records[0]
    if expected_dex_fingerprint is not None and meta["dex_fingerprint"] != expected_dex_fingerprint:
        raise StorageError(
            f"dex fingerprint mismatch: log has {meta['dex_fingerprint']}, "
            f"current dex is {expected_dex_fingerprint}")
    state: BattleState | None = None
    for _record, walked_state in replay_walk(records, dex):
        state = walked_state
    assert state is not None
    if not state.ended:
        raise IncompleteLog(f"{path}: log ends before BattleEnded")
    winner_side = state.winner
    winner_agent = meta["agents"]["a" if winner_side == 0 else "b"]
    return ReplayResult(
        final_state=state,
        winner_side=winner_side,
        winner_agent=winner_agent,
        turns=state.turn_number - 1,
    )
