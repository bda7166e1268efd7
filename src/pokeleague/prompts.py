"""The prompt protocol: what a model is shown, and how its reply is read.

Prompt rendering, JSON extraction from prose or markdown fences, and the
two decision rules, check_team and check_action, that the league applies
to every agent.  All pure functions of their inputs, with no provider I/O;
golden tests pin the prompts, so a wording change is a deliberate diff.
"""

from __future__ import annotations

import json
from typing import Mapping, Sequence

from .dex import TEAM_SIZE, Dex, MoveDef, Species
from .engine import Action, BattleView

SYSTEM_PREAMBLE = (
    "You are a competitive Pokémon battle assistant. Follow the instructions "
    "and respond with only the requested JSON object."
)


class ParseError(Exception):
    """A model response that cannot be turned into a valid decision, or any
    agent's decision that breaks its rule (check_team or check_action).

    kind names the defect: no_json_found, wrong_arity, index_out_of_range,
    duplicate_index, unknown_action_type or illegal_action.  It is logged
    as the exchange's parse_outcome, or among the errors of a decision the
    league replaced; str() is "kind: detail".
    """

    def __init__(self, kind: str, detail: str):
        self.kind = kind
        self.detail = detail
        super().__init__(f"{kind}: {detail}")


# ---------------------------------------------------------------------------
# prompt rendering
# ---------------------------------------------------------------------------

def _format_stats(stats: Mapping[str, int]) -> str:
    return (f"HP {stats['hp']}, Atk {stats['atk']}, Def {stats['def']}, "
            f"SpA {stats['spa']}, SpD {stats['spd']}, Spe {stats['spe']}")


# id(object) -> (object, its text): the team prompt of a tuple pool, and the
# legal-action text of a move.  Each entry holds its object, so no other
# object can take that id while the entry lives; match threads share them,
# as each entry is written whole.  Cleared whole once they reach their caps.
_TEAM_PROMPTS: dict[int, tuple[tuple, str]] = {}
_MOVE_TEXT: dict[int, tuple[MoveDef, str]] = {}
_TEAM_PROMPTS_CAP, _MOVE_TEXT_CAP = 64, 1024


def build_team_prompt(pool: Sequence[Species]) -> str:
    """Draft instructions, the pool numbered by position, and the JSON shape to return.
    Built once per tuple pool (a league drafts from one); a list may change, so not it."""
    if type(pool) is not tuple:
        return _team_prompt(pool)
    entry = _TEAM_PROMPTS.get(id(pool))
    if entry is None:
        if len(_TEAM_PROMPTS) >= _TEAM_PROMPTS_CAP:
            _TEAM_PROMPTS.clear()
        entry = _TEAM_PROMPTS[id(pool)] = (pool, _team_prompt(pool))
    return entry[1]


def _team_prompt(pool: Sequence[Species]) -> str:
    lines = [
        "Select 6 Pokémon from the list below. Consider type coverage, "
        "weaknesses, and synergy. Provide a brief explanation for your team "
        "composition.",
        "",
    ]
    for index, entry in enumerate(pool):
        types = "/".join(entry.types)
        moves = ", ".join(entry.moves)
        lines.append(f"{index}. {entry.name} ({types}) | "
                     f"{_format_stats(entry.base_stats)} | Moves: {moves}")
    lines += [
        "",
        'Respond with only a JSON object with keys "team" (a list of 6 '
        'distinct indices from the list above) and "reasoning" (a brief '
        'explanation), e.g. {"team": [0, 1, 2, 3, 4, 5], "reasoning": "..."}.',
    ]
    return "\n".join(lines)


def _describe_move(move: MoveDef) -> str:
    entry = _MOVE_TEXT.get(id(move))
    if entry is None:
        detail = f"power {move.power}" if move.is_damaging else "status move"
        accuracy = "never misses" if move.accuracy is None else f"accuracy {move.accuracy}"
        if len(_MOVE_TEXT) >= _MOVE_TEXT_CAP:
            _MOVE_TEXT.clear()
        text = f"{move.name} ({move.move_type}, {detail}, {accuracy})"
        entry = _MOVE_TEXT[id(move)] = (move, text)
    return entry[1]


# What every battle prompt ends with, after its legal actions.
_BATTLE_TRAILER = (
    "\n\nWhat do you do? Choose a move or switch, and explain your reasoning.\n"
    'Respond with only a JSON object with keys "action" and "reasoning". '
    'For an attack use {"action": {"type": "attack", "move_index": N}, '
    '"reasoning": "..."}; for a switch use {"action": {"type": "switch", '
    '"team_index": N}, "reasoning": "..."}.'
)


def build_battle_prompt(view: BattleView, legal: Sequence[Action], dex: Dex,
                        history: Sequence[str] = ()) -> str:
    """Battle state, the legal actions, and the JSON shape to return.
    Battlers' fields are read directly, not through the BattlerState properties."""
    team = view.own_team
    active_index = view.own_active_index
    own = team[active_index]
    opp = view.opponent_active
    lines = [
        f"You are in a battle. Your active Pokémon: {own.species} "
        f"(HP: {100 * own.current_hp // own.max_hp}%, "
        f"Status: {'Healthy' if own.status is None else own.status.kind}).\n"
        f"Opponent's active Pokémon: {opp.species} "
        f"(HP: {opp.hp_percent}%, Status: {'Healthy' if opp.status is None else opp.status}).\n"
        f"Weather: {view.weather or 'None'}. Turn: {view.turn_number}.\n"
        f"Opponent's revealed Pokémon: {', '.join(view.opponent_revealed)}.\n"
        "\n"
        "Your team:"
    ]
    for index, member in enumerate(team):
        state = "fainted" if member.current_hp == 0 else (
            f"HP: {100 * member.current_hp // member.max_hp}%, "
            f"Status: {'Healthy' if member.status is None else member.status.kind}")
        lines.append(f"- {index}: {member.species} ({state})"
                     f"{' [active]' if index == active_index else ''}")
    if history:
        lines += ["", "Previous turns:"]
        lines += [f"- {entry}" for entry in history]
    lines += ["", "Legal actions:"]
    attacks: list[str] = []
    switches: list[str] = []
    for action in legal:  # attacks first, then switches, each in order
        if action.kind == "attack":
            move = dex.moves[own.moves[action.index]]
            attacks.append(f"- move_index {action.index}: {_describe_move(move)}")
        else:
            member = team[action.index]
            switches.append(f"- team_index {action.index}: {member.species} "
                            f"(HP: {100 * member.current_hp // member.max_hp}%)")
    if attacks:
        lines.append("Attacks:")
        lines += attacks
    if switches:
        lines.append("Switches:")
        lines += switches
    return "\n".join(lines) + _BATTLE_TRAILER


def repair_prompt(original: str, error: ParseError) -> str:
    """Original prompt plus the machine error, asking for bare JSON."""
    return (f"{original}\n\nYour previous response was invalid: {error}. "
            "Respond with only the JSON object.")


def history_entry(view: BattleView, action: Action) -> str:
    """One line of the "Previous turns" that build_battle_prompt lists."""
    return (f"Turn {view.turn_number}: {view.own_active.species} chose {action} "
            f"vs {view.opponent_active.species}")


# ---------------------------------------------------------------------------
# response parsing
# ---------------------------------------------------------------------------

# Characters extract_first_json scans, summed over every candidate start:
# a start whose braces never balance scans every character to the end of
# the text, so without a cap the count grows with the square of the
# response length.
MAX_SCAN_CHARS = 1_000_000
# What a candidate that balances but does not decode also counts against
# MAX_SCAN_CHARS: a failed decode costs about as much time as scanning this
# many characters, so a reply made of short malformed candidates cannot
# buy a million decode attempts.
FAILED_DECODE_CHARS = 100

# One scanner for every candidate: the C scanner of a strict=False decoder
# (which tolerates the literal newlines inside strings that models
# frequently emit), called directly.  _SCAN(raw, i) decodes the value
# starting at raw[i] into (value, end).  It raises StopIteration where the
# text ends before a value it expects, and ValueError where it is not JSON.
_SCAN = json.JSONDecoder(strict=False).scan_once


def extract_first_json(raw: str) -> dict:
    """First JSON object found in the text, however it is wrapped.

    Models routinely wrap their JSON in prose or markdown fences.  Each
    "{" starts a candidate, in order: the text from it to the "}" that
    balances it, found by a brace count that skips strings (by quotes and
    backslash escapes).  The first candidate that parses is the answer.
    Each candidate is scanned from its own start, and the scan counts
    against MAX_SCAN_CHARS: to its balancing "}", or to the end of the text
    if its braces never balance.  A candidate that balances but does not
    decode counts FAILED_DECODE_CHARS more.  A scan that reaches the
    remaining budget before the end of the text gives up with a
    no_json_found ParseError.
    """
    start = raw.find("{")
    if start != -1:
        # Most replies: the first candidate parses.  An object that decodes
        # from a start ends at the "}" that balances it, so it is that candidate.
        try:
            obj, end = _SCAN(raw, start)
        except (StopIteration, ValueError, RecursionError):
            pass  # not JSON, too deep, or an int too long
        else:
            if end - start <= MAX_SCAN_CHARS:
                return obj
    budget = MAX_SCAN_CHARS
    while start != -1:
        stop = min(len(raw), start + budget)
        depth, in_string, escaped = 0, False, False
        for pos in range(start, stop):
            char = raw[pos]
            if in_string:
                if escaped:
                    escaped = False
                elif char == "\\":
                    escaped = True
                elif char == '"':
                    in_string = False
            elif char == '"':
                in_string = True
            elif char == "{":
                depth += 1
            elif char == "}":
                depth -= 1
                if depth == 0:
                    # Decoded from a copy of the candidate alone: a decode error
                    # counts the newlines before its position in the text it is
                    # given, so one from the whole reply would cost O(start).
                    candidate = raw[start:pos + 1]
                    try:
                        obj, end = _SCAN(candidate, 0)
                        if end == len(candidate):  # a "{...}" that parses is an object
                            return obj
                    except (StopIteration, ValueError, RecursionError):
                        pass  # not JSON, too deep, or an int too long
                    budget -= FAILED_DECODE_CHARS
                    break
        else:
            if stop < len(raw):
                raise ParseError("no_json_found", f"gave up: the scan budget of "
                                                  f"{MAX_SCAN_CHARS} characters is spent")
        budget -= pos + 1 - start
        start = raw.find("{", start + 1)
    raise ParseError("no_json_found", "no JSON object in response")


def replace_surrogates(text: str) -> str:
    """text with each lone surrogate replaced by U+FFFD, so a log can encode it.
    A model's reply may hold one, raw or as a JSON escape such as \\ud800.
    In a str no surrogate pairs with a neighbour (a decoded pair is one
    character), and UTF-8 encodes every code point but a surrogate."""
    if text.isascii():
        return text
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        return "".join(["\ufffd" if "\ud800" <= c <= "\udfff" else c for c in text])
    return text


def _reasoning_of(obj: dict) -> str:
    reasoning = obj.get("reasoning", "")
    # json.dumps escapes a surrogate, so only a str can carry one.
    return replace_surrogates(reasoning) if isinstance(reasoning, str) else json.dumps(reasoning)


def check_team(team: object, pool_size: int) -> tuple[int, ...]:
    """The team pick rule for every agent: six distinct int indices inside the pool.
    Returns the pick as a tuple; any defect raises a ParseError of its kind."""
    count = len(team) if isinstance(team, (list, tuple)) else 0
    if count != TEAM_SIZE:
        raise ParseError("wrong_arity", f"expected {TEAM_SIZE} team indices, got {count}")
    for position, item in enumerate(team):
        if type(item) is not int or not 0 <= item < pool_size:  # a bool is not an index
            raise ParseError("index_out_of_range", f"index {item!r} is outside the pool")
        if item in team[:position]:
            raise ParseError("duplicate_index", f"index {item} appears more than once")
    return tuple(team)


def check_action(action: object, legal: Sequence[Action]) -> Action:
    """The action rule for every agent: one of the legal actions, as == has it.
    Returns the action; anything else raises an illegal_action ParseError.

    Agents mostly return one of the list's own objects, which an identity
    loop finds without calling Action's generated __eq__ on those before it."""
    for candidate in legal:
        if candidate is action:
            return action
    if action not in legal:
        raise ParseError("illegal_action", f"{action} is not in the legal action set")
    return action


def parse_team_response(raw: str, pool_size: int) -> tuple[tuple[int, ...], str]:
    """Extract a team pick that passes check_team, and its reasoning."""
    obj = extract_first_json(raw)
    return check_team(obj.get("team"), pool_size), _reasoning_of(obj)


def parse_action_response(raw: str, legal: Sequence[Action]) -> tuple[Action, str]:
    """Extract an action (Action.from_dict) that passes check_action, and its reasoning."""
    obj = extract_first_json(raw)
    payload = obj.get("action")
    if not isinstance(payload, dict):
        raise ParseError("unknown_action_type", f"missing or non-object 'action': {payload!r}")
    action_type = payload.get("type")
    if not isinstance(action_type, str) or action_type not in Action.INDEX_KEYS:
        raise ParseError("unknown_action_type", f"unknown action type {action_type!r}")
    try:
        action = Action.from_dict(payload)
    except ValueError as exc:  # an index that is not an int
        raise ParseError("illegal_action", str(exc)) from None
    return check_action(action, legal), _reasoning_of(obj)
