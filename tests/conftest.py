import json
import os
import sys
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import strategies as st

sys.path.insert(0, str(Path(__file__).parent))

from pokeleague.agents import AgentDecision
from pokeleague.dex import WEATHER_NAMES, default_dex_path, dex_fingerprint, load_dex
from pokeleague.engine import (
    StatusState, init_battle, legal_actions, needs_replacement, resolve_replacements,
    resolve_turn,
)

SRC = Path(__file__).resolve().parents[1] / "src"
# Logs written at schema 1.3, whose Battle contexts write each attack as an
# object: a simulate game and a mock entrant's game with repairs and fallbacks.
LOGS_1_3 = Path(__file__).parent / "data" / "logs-1.3"

# A mock entrant's script whose replies are clean, need repairs or never parse,
# so its drafts and actions meet the repair loop and both kinds of fallback.
REPAIRS_SCRIPT = {
    "team": [
        '{"team": [0, 1, 2, 3, 4, 5], "reasoning": "the first six"}',
        '{"team": [6, 6, 7, 8, 9, 10], "reasoning": "a duplicate index"}',
        "I would pick the strongest six.",
        "Still thinking about it.",
        "No team yet.",
        'Final answer: {"team": [11, 12, 13, 14, 15, 16], "reasoning": "bulk"}',
    ],
    "action": [
        '{"action": {"type": "attack", "move_index": 0}, "reasoning": "lead move"}',
        '```json\n{"action": {"type": "attack", "move_index": 1}, "reasoning": "coverage"}\n```',
        '{"action": {"type": "switch", "team_index": 1}, "reasoning": "pivot"}',
        '{"action": {"type": "attack", "move_index": 7}, "reasoning": "no such move"}',
        "Attack with the strongest move!",
        "Hmm.",
        "Let me think.",
        '{"action": {"type": "attack", "move_index": 2}, "reasoning": "third move"}',
    ],
}


def child_env(**changes):
    """The environment for a fresh interpreter that imports pokeleague from this checkout."""
    return {**os.environ, **changes, "PYTHONPATH": os.pathsep.join(
        [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])])}


class FixedTeam:
    """An agent that drafts the given pool indices and battles as agent does."""

    def __init__(self, agent, indices):
        self.agent_id = agent.agent_id
        self.team = tuple(indices)
        self.choose_action = agent.choose_action

    def select_team(self, pool):
        return AgentDecision(team=self.team)


def compact(record):
    """The line the log encoder writes for record."""
    return json.dumps(record, ensure_ascii=False, separators=(",", ":"))


def logged_decisions(path):
    """Each decision record of a log, in order, paired with the exchanges of the
    exchanges record that follows it, or [] if none does."""
    records = [json.loads(line) for line in Path(path).read_text(encoding="utf-8").splitlines()]
    return [(record, following["exchanges"] if following.get("kind") == "exchanges" else [])
            for record, following in zip(records, [*records[1:], {}])
            if record["kind"] == "decision"]


def set_battler(state, side, index=None, **changes):
    """Put a changed copy of one battler (the side's active one by default) in its slot."""
    team = state.sides[side].team
    if index is None:
        index = state.sides[side].active_index
    team[index] = replace(team[index], **changes)


def walk_steps(dex, order, seed, turn_limit, choices):
    """Yield (state, events) for each step of a battle between pool[order[:6]] and
    pool[order[6:12]], starting with the initial state and its init events.

    Each choice picks legal[choice % len(legal)] for the next side to act;
    the walk stops when the battle ends or the choices run out.  Each state
    is yielded before the next one is computed from it.
    """
    names = [dex.pool[i] for i in order[:12]]
    state, events = init_battle(dex, names[:6], names[6:], seed, turn_limit)
    yield state, events
    picks = iter(choices)
    while not state.ended:
        pending = [s for s in (0, 1) if needs_replacement(state, s)]
        chosen = {}
        for side in pending or (0, 1):
            legal = legal_actions(state, side)
            pick = next(picks, None)
            if pick is None:
                return
            chosen[side] = legal[pick % len(legal)]
        if pending:
            state, events = resolve_replacements(state, chosen, dex)
        else:
            state, events = resolve_turn(state, chosen[0], chosen[1], dex)
        yield state, events


def walk_states(dex, order, seed, turn_limit, choices):
    """The states of walk_steps, in order."""
    return (state for state, _ in walk_steps(dex, order, seed, turn_limit, choices))


# Gengar (Hypnosis) leads against Tyranitar (Sand): a full game to AllFainted
# with a sleeping battler and infinite weather, and a 3-turn game to the cap.
GENGAR_VS_TYRANITAR = [4, 1, 2, 3, 5, 6, 17, 0, 8, 9, 10, 11]
FULL_GAME = dict(order=GENGAR_VS_TYRANITAR, seed=0, turn_limit=500,
                 choices=[i % 3 for i in range(400)])
CAPPED_GAME = dict(order=GENGAR_VS_TYRANITAR, seed=0, turn_limit=3, choices=[0] * 10)
ANY_WALK = dict(
    order=st.permutations(range(30)),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    turn_limit=st.integers(min_value=1, max_value=60),
    choices=st.lists(st.integers(min_value=0, max_value=8), max_size=150),
)


def decision_variants(state, side):
    """(state, legal) for a decision of side: state under every weather, as it is,
    with the side's active battler burned, or with the opposing one Ghost-typed,
    and with the legal actions whole and without the first one.  These vary the
    inputs of the scripted-decision memos' keys that a walk alone may not reach."""
    legal = legal_actions(state, side)
    for weather in (None, *WEATHER_NAMES):
        for change in (None, "burn", "retype"):
            variant = state.clone()
            variant.weather = weather
            if change == "burn":
                set_battler(variant, side, status=StatusState("Burn"))
            elif change == "retype":
                set_battler(variant, 1 - side, types=("Ghost",))
            yield variant, legal
            if len(legal) > 1:
                yield variant, legal[1:]


@pytest.fixture(scope="session")
def dex():
    return load_dex(default_dex_path())


@pytest.fixture(scope="session")
def bundled_fingerprint():
    return dex_fingerprint(default_dex_path())


@pytest.fixture(scope="session")
def dex_doc():
    """The raw bundled dex document, for building broken variants."""
    return json.loads(default_dex_path().read_text(encoding="utf-8"))


@pytest.fixture()
def write_dex(tmp_path):
    """Write a (possibly modified) dex document to a temp file."""

    def _write(doc: dict, name: str = "dex.json") -> Path:
        path = tmp_path / name
        path.write_text(json.dumps(doc), encoding="utf-8")
        return path

    return _write
