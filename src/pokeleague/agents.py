"""Decision interface for competitors, plus deterministic scripted baselines.

Scripted agents are pure functions of (seed, inputs): the random
baseline derives each choice from a hash of its seed and the decision
inputs, so identical situations always produce identical decisions and
whole matches replay exactly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Protocol, Sequence

from .dex import TEAM_SIZE, Dex, type_multiplier
from .engine import Action, BattleView, compute_stats, expected_damage
from .rng import SeededStream, stable_hash64


class ConfigError(ValueError):
    """A setting, from a config file or the command line, that cannot be used."""


@dataclass(frozen=True)
class TeamPick:
    """Six distinct pool indices; slot 0 leads the battle."""

    indices: tuple[int, ...]

    def __post_init__(self):
        if len(self.indices) != TEAM_SIZE:
            raise ValueError(f"a team pick needs {TEAM_SIZE} indices, got {len(self.indices)}")
        if len(set(self.indices)) != TEAM_SIZE:
            raise ValueError(f"team pick indices must be distinct: {self.indices}")


@dataclass(frozen=True)
class AgentDecision:
    """One decision, from the agent to its log record.

    A battle action or a team pick, its rationale, the LLM exchanges (as
    the dicts the log writes) and errors behind it, and fallback_used.
    """

    action: Action | None = None
    team: TeamPick | None = None
    reasoning: str = ""
    exchanges: tuple[dict, ...] = ()
    errors: tuple[str, ...] = ()
    fallback_used: bool = False

    def __post_init__(self):
        if (self.action is None) == (self.team is None):
            raise ValueError("exactly one of action/team must be set")


@dataclass(frozen=True)
class PoolEntry:
    """One draftable species as shown to agents."""

    index: int
    name: str
    types: tuple[str, ...]
    base_stats: dict[str, int]
    moves: tuple[str, ...]


@dataclass(frozen=True)
class AgentProfile:
    """Tournament entrant description, as written in config files.

    kind is one of "random", "greedy", "llm", or "mock".  LLM entrants
    reference a named provider config; mock entrants carry a canned
    response script path.
    """

    agent_id: str
    kind: str
    display_name: str = ""
    seed: int = 0
    provider: str = ""
    model: str = ""
    script: str = ""

    def __post_init__(self):
        # type(), not isinstance: a bool is not a seed
        for name, value in vars(self).items():
            expected = int if name == "seed" else str
            if type(value) is not expected:
                raise ConfigError(f"entrant {name} must be {expected.__name__}, got {value!r}")

    @property
    def label(self) -> str:
        return self.display_name or self.agent_id

    @staticmethod
    def from_dict(raw: dict) -> "AgentProfile":
        try:
            return AgentProfile(**raw)
        except TypeError as exc:  # unknown or missing keys, or not an object
            raise ConfigError(f"bad entrant {raw!r}: {exc}") from None


class Agent(Protocol):
    """Anything that can draft a team and pick battle actions."""

    agent_id: str

    def select_team(self, pool: Sequence[PoolEntry]) -> AgentDecision: ...

    def choose_action(self, view: BattleView, legal: Sequence[Action]) -> AgentDecision: ...


def make_pool_view(dex: Dex) -> list[PoolEntry]:
    """The draft pool exactly as agents (and prompts) see it."""
    entries = []
    for i, name in enumerate(dex.pool):
        sp = dex.species[name]
        entries.append(PoolEntry(
            index=i, name=sp.name, types=sp.types,
            base_stats=dict(sp.base_stats), moves=sp.moves))
    return entries


# ---------------------------------------------------------------------------
# fallbacks (applied by the league when an agent cannot produce a decision)
# ---------------------------------------------------------------------------

def fallback_team(pool_size: int) -> TeamPick:
    """First six pool indices."""
    if pool_size < TEAM_SIZE:
        raise ValueError(f"pool of {pool_size} cannot field a team of {TEAM_SIZE}")
    return TeamPick(tuple(range(TEAM_SIZE)))


def fallback_action(legal: Sequence[Action]) -> Action:
    """First legal action in canonical order (attacks, then switches)."""
    if not legal:
        raise ValueError("no legal actions to fall back to")
    return legal[0]


# ---------------------------------------------------------------------------
# baselines
# ---------------------------------------------------------------------------

class RandomAgent:
    """Uniform choice over the legal set, derived from (seed, inputs)."""

    def __init__(self, agent_id: str, seed: int):
        self.agent_id = agent_id
        self.seed = seed

    def _stream_for(self, *inputs: object) -> SeededStream:
        return SeededStream(stable_hash64(self.agent_id, self.seed, *inputs))

    def select_team(self, pool: Sequence[PoolEntry]) -> AgentDecision:
        rng = self._stream_for("team", len(pool), *(e.name for e in pool))
        remaining = list(range(len(pool)))
        picks = []
        for _ in range(TEAM_SIZE):
            picks.append(remaining.pop(rng.choice_index(len(remaining))))
        return AgentDecision(team=TeamPick(tuple(picks)))

    def choose_action(self, view: BattleView, legal: Sequence[Action]) -> AgentDecision:
        key = json.dumps([view.turn_number, view.side, [a.to_dict() for a in legal],
                          [(b.species, b.current_hp) for b in view.own_team],
                          view.opponent_active.species, view.opponent_active.hp_percent],
                         sort_keys=True)
        rng = self._stream_for("action", key)
        return AgentDecision(action=legal[rng.choice_index(len(legal))])


class GreedyAgent:
    """Maximizes immediate expected damage, mirroring type-chart play.

    Drafting: the six highest base-stat totals with all-distinct primary
    types, ties broken by lower pool index.  In battle: the attack with
    the highest damage at roll 100 and no crit; if every attack deals 0
    (all immune), switch to the teammate whose best move multiplier
    against the opposing active is highest.
    """

    def __init__(self, agent_id: str, dex: Dex):
        self.agent_id = agent_id
        self.dex = dex

    def select_team(self, pool: Sequence[PoolEntry]) -> AgentDecision:
        order = sorted(pool, key=lambda e: (-sum(e.base_stats.values()), e.index))
        picks: list[int] = []
        taken_primary: set[str] = set()
        for entry in order:
            if entry.types[0] in taken_primary:
                continue
            picks.append(entry.index)
            taken_primary.add(entry.types[0])
            if len(picks) == TEAM_SIZE:
                break
        # Fewer distinct primaries than team slots: top up by the same order.
        if len(picks) < TEAM_SIZE:
            for entry in order:
                if entry.index not in picks:
                    picks.append(entry.index)
                    if len(picks) == TEAM_SIZE:
                        break
        names = ", ".join(pool[i].name for i in picks)
        return AgentDecision(
            team=TeamPick(tuple(picks)),
            reasoning=f"Highest stat totals with distinct primary types: {names}.")

    def choose_action(self, view: BattleView, legal: Sequence[Action]) -> AgentDecision:
        attacks = [a for a in legal if a.is_attack]
        switches = [a for a in legal if not a.is_attack]
        opponent = compute_stats(self.dex.species[view.opponent_active.species])

        if attacks:
            attacker = view.own_active
            damages = {a.index: expected_damage(attacker, opponent,
                                                self.dex.moves[attacker.moves[a.index]],
                                                self.dex.chart, view.weather)
                       for a in attacks}
            best = max(damages.values())
            if best > 0:
                choice = next(a for a in attacks if damages[a.index] == best)
                move = self.dex.moves[attacker.moves[choice.index]]
                return AgentDecision(
                    action=choice,
                    reasoning=(f"{move.name} deals the most expected damage "
                               f"({best}) to {opponent.species}."))

        if switches:
            def best_multiplier(action: Action) -> float:
                member = view.own_team[action.index]
                mults = [
                    self._type_mult(m, view.opponent_active.types)
                    for m in member.moves if self.dex.moves[m].is_damaging
                ]
                return max(mults, default=0.0)

            choice = max(switches, key=lambda a: (best_multiplier(a), -a.index))
            member = view.own_team[choice.index]
            return AgentDecision(
                action=choice,
                reasoning=f"Switching to {member.species} for a better matchup.")

        return AgentDecision(action=legal[0], reasoning="No damaging option; using the first move.")

    def _type_mult(self, move_name: str, defender_types: Sequence[str]) -> float:
        return type_multiplier(self.dex.chart, self.dex.moves[move_name].move_type, defender_types)
