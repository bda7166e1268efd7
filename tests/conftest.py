import json
import sys
from dataclasses import replace
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from pokeleague.agents import AgentDecision
from pokeleague.dex import default_dex_path, dex_fingerprint, load_dex


class FixedTeam:
    """An agent that drafts the given pool indices and battles as agent does."""

    def __init__(self, agent, indices):
        self.agent_id = agent.agent_id
        self.team = tuple(indices)
        self.choose_action = agent.choose_action

    def select_team(self, pool):
        return AgentDecision(team=self.team)


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
