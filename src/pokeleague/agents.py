"""Decision interface for competitors, plus deterministic scripted baselines.

Scripted agents are pure functions of (seed, inputs): the random
baseline derives each choice from a hash of its seed and the decision
inputs, so identical situations always produce identical decisions and
whole matches replay exactly.

Every decision is an AgentDecision: an engine.Action or a team pick, a
tuple of positions in the draft pool, the dex's own Species in pool
order.  The league holds every agent's pick to one rule,
prompts.check_team, and every action to another, prompts.check_action.

Every config class checks its input with what sits beside ConfigError:
check_setting, read_config_file and build_config.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Protocol, Sequence

from .dex import TEAM_SIZE, Dex, Species, type_multiplier
from .engine import Action, BattleView, attack_table, compute_stats, split_legal
from .rng import SeededStream, first_draw, stable_hash64, text_hash64


class ConfigError(ValueError):
    """A setting, from a config file or the command line, that cannot be used."""


def check_setting(name: str, value: object, kinds: tuple[type, ...], expected: str,
                  in_range: Callable[[Any], object] = lambda value: True) -> None:
    """The rule for every setting: value's exact type is one of kinds (so a bool
    is not a number) and in_range(value) holds, and a string holds no lone
    surrogate, which no log, report or hash can encode as UTF-8; or
    ConfigError says what it must be."""
    if type(value) not in kinds or not in_range(value):
        raise ConfigError(f"{name} must be {expected}, got {value!r}")
    if type(value) is str:
        try:
            value.encode("utf-8")
        except UnicodeEncodeError:
            raise ConfigError(f"{name} must not hold a lone surrogate, got {value!r}") from None


def read_config_file(path: str | Path, what: str) -> object:
    """The JSON value in a config file; ConfigError, naming the file, if it is not JSON."""
    with open(path, encoding="utf-8") as handle:
        try:
            return json.load(handle)
        except (ValueError, RecursionError) as exc:  # not UTF-8, not JSON, or too deep
            raise ConfigError(f"{what} {str(path)!r} is not valid JSON: {exc}") from None


def build_config(cls: type, raw: object, what: str) -> Any:
    """cls(**raw); ConfigError, after what, for unknown or missing keys or a non-object."""
    try:
        return cls(**raw)
    except TypeError as exc:
        raise ConfigError(f"{what}: {exc}") from None


@dataclass(frozen=True)
class AgentDecision:
    """One decision, from the agent to its log record.

    A battle action or a team pick (slot 0 leads), its rationale, the LLM
    exchanges (as the dicts the log writes) and errors behind it, and
    fallback_used.
    """

    action: Action | None = None
    team: tuple[int, ...] | None = None
    reasoning: str = ""
    exchanges: tuple[dict, ...] = ()
    errors: tuple[str, ...] = ()
    fallback_used: bool = False

    def __post_init__(self):
        if (self.action is None) == (self.team is None):
            raise ValueError("exactly one of action/team must be set")


@dataclass(frozen=True)
class AgentProfile:
    """Tournament entrant description, as written in config files.

    kind is one of "random", "greedy", "llm", or "mock" (league.build_agent
    makes each).  LLM entrants reference a named provider config; mock
    entrants carry a canned response script path.
    """

    agent_id: str
    kind: str
    display_name: str = ""
    seed: int = 0
    provider: str = ""
    model: str = ""
    script: str = ""

    def __post_init__(self):
        for name, value in vars(self).items():
            kind = int if name == "seed" else str
            check_setting(f"entrant {name}", value, (kind,), kind.__name__)

    @property
    def label(self) -> str:
        return self.display_name or self.agent_id

    @staticmethod
    def from_dict(raw: dict) -> "AgentProfile":
        return build_config(AgentProfile, raw, f"bad entrant {raw!r}")


class Agent(Protocol):
    """Anything that can draft a team and pick battle actions."""

    agent_id: str

    def select_team(self, pool: Sequence[Species]) -> AgentDecision: ...

    def choose_action(self, view: BattleView, legal: Sequence[Action]) -> AgentDecision: ...


def make_pool_view(dex: Dex) -> tuple[Species, ...]:
    """The draft pool exactly as agents (and prompts) see it: the dex's
    species in pool order, each picked by its position."""
    return tuple([dex.species[name] for name in dex.pool])


# ---------------------------------------------------------------------------
# fallbacks (applied by the league when an agent cannot produce a decision)
# ---------------------------------------------------------------------------

def fallback_team() -> tuple[int, ...]:
    """First six pool indices (a dex pool holds at least six species)."""
    return tuple(range(TEAM_SIZE))


def fallback_action(legal: Sequence[Action]) -> Action:
    """First legal action in canonical order (attacks, then switches)."""
    if not legal:
        raise ValueError("no legal actions to fall back to")
    return legal[0]


# ---------------------------------------------------------------------------
# baselines
# ---------------------------------------------------------------------------

# Each action's text in RandomAgent's decision key: its to_dict() as
# json.dumps(..., sort_keys=True) writes it, for an int index.
_ACTION_KEYS = {"attack": '{"move_index": %d, "type": "attack"}',
                "switch": '{"team_index": %d, "type": "switch"}'}
_QUOTE = json.encoder.encode_basestring_ascii  # json.dumps's string encoder
# The caches below are bounded by the dex: its species, and the legal sets
# of a team of its battlers and their actions.  Each is cleared whole once
# it reaches its cap, like storage's caches; match threads that fill one
# entry at once write equal values.
_CACHE_CAP = 1024


class _QuotedNames(dict):
    """Species name -> its _QUOTE text, quoted on its first lookup."""

    def __missing__(self, name: str) -> str:
        if len(self) >= _CACHE_CAP:
            self.clear()
        text = self[name] = _QUOTE(name)
        return text


_QUOTED = _QuotedNames()
# The ids of a legal list's actions -> (those actions, their text in the
# decision key); and the id of an action -> (that action, the AgentDecision
# that chooses it).  Each entry holds its actions, so no other object can
# take one of their ids while the entry lives.
_LEGAL_TEXTS: dict[tuple[int, ...], tuple[tuple[Action, ...], str]] = {}
_DECISIONS: dict[int, tuple[Action, AgentDecision]] = {}


def _legal_text(legal: Sequence[Action]) -> str:
    # From a list, not tuple(map(...)): a tuple built from an iterator is
    # allocated at a guessed size and shrunk, and the shrunk tuples, once
    # freed, fill free lists that no later such tuple is drawn from (about
    # 1 MB more peak RSS after 30 units of 31 sim matches on Python 3.11).
    key = tuple([id(action) for action in legal])
    entry = _LEGAL_TEXTS.get(key)
    if entry is None:
        if len(_LEGAL_TEXTS) >= _CACHE_CAP:
            _LEGAL_TEXTS.clear()
        entry = _LEGAL_TEXTS[key] = (
            tuple(legal), ", ".join([_ACTION_KEYS[a.kind] % a.index for a in legal]))
    return entry[1]


def _decision_for(action: Action) -> AgentDecision:
    entry = _DECISIONS.get(id(action))
    if entry is None:
        if len(_DECISIONS) >= _CACHE_CAP:
            _DECISIONS.clear()
        entry = _DECISIONS[id(action)] = (action, AgentDecision(action=action))
    return entry[1]


def _key_text(view: BattleView, actions: str) -> str:
    team = ", ".join([f"[{_QUOTED[b.species]}, {b.current_hp}]" for b in view.own_team])
    opponent = view.opponent_active
    return (f"[{view.turn_number}, {view.side}, [{actions}], [{team}], "
            f"{_QUOTED[opponent.species]}, {opponent.hp_percent}]")


def _decision_key(view: BattleView, legal: Sequence[Action]) -> str:
    """json.dumps([turn, side, legal as dicts, (species, current_hp) of each own
    battler, opposing species, its hp_percent], sort_keys=True), formatted directly."""
    return _key_text(view, _legal_text(legal))


class RandomAgent:
    """Uniform choice over the legal set, derived from (seed, inputs).

    A battle choice is legal[first_draw(h) % len(legal)], where h is
    stable_hash64(agent_id, seed, "action", _decision_key(view, legal)):
    one SHA-256 of the agent's fixed prefix plus the key, then draw 0 of
    SeededStream(h).
    """

    def __init__(self, agent_id: str, seed: int):
        self.agent_id = agent_id
        self.seed = seed
        # The joined text of stable_hash64's parts before the decision key;
        # agent_id and seed are fixed for the agent's life.
        self._action_prefix = f"{agent_id}\x1f{seed}\x1faction\x1f"

    def _stream_for(self, *inputs: object) -> SeededStream:
        return SeededStream(stable_hash64(self.agent_id, self.seed, *inputs))

    def select_team(self, pool: Sequence[Species]) -> AgentDecision:
        rng = self._stream_for("team", len(pool), *(e.name for e in pool))
        remaining = list(range(len(pool)))
        picks = []
        for _ in range(TEAM_SIZE):
            picks.append(remaining.pop(rng.choice_index(len(remaining))))
        return AgentDecision(team=tuple(picks))

    def choose_action(self, view: BattleView, legal: Sequence[Action]) -> AgentDecision:
        if not legal:
            raise ValueError("cannot choose from an empty sequence")
        h = text_hash64(self._action_prefix + _key_text(view, _legal_text(legal)))
        return _decision_for(legal[first_draw(h) % len(legal)])


class GreedyAgent:
    """Maximizes immediate expected damage, mirroring type-chart play.

    Drafting: the six highest base-stat totals with all-distinct primary
    types, ties broken by lower pool position.  In battle: the attack with
    the highest damage at roll 100 and no crit; if every attack deals 0
    (all immune), switch to the teammate whose best move multiplier
    against the opposing active is highest.
    """

    def __init__(self, agent_id: str, dex: Dex):
        self.agent_id = agent_id
        self.dex = dex
        # The attack decision of each matchup, or None where every attack deals 0,
        # keyed on what decides it: own moves, types, Atk, SpA and burn, the
        # opposing species, the weather and the legal attacks.  Bounded by the
        # dex's matchups; match threads that fill one entry at once write equal values.
        self._attack_memo: dict[tuple, AgentDecision | None] = {}

    def select_team(self, pool: Sequence[Species]) -> AgentDecision:
        order = sorted(range(len(pool)), key=lambda i: (-sum(pool[i].base_stats.values()), i))
        # The first position of each primary type in that order (reversed, so it is written last).
        first = {pool[i].types[0]: i for i in reversed(order)}
        # A stable sort puts those first and the rest after, which top up a pool
        # with fewer distinct primaries than team slots.
        ranked = sorted(order, key=lambda i: first[pool[i].types[0]] != i)
        picks = ranked[:TEAM_SIZE]
        names = ", ".join(pool[i].name for i in picks)
        return AgentDecision(
            team=tuple(picks),
            reasoning=f"Highest stat totals with distinct primary types: {names}.")

    def choose_action(self, view: BattleView, legal: Sequence[Action]) -> AgentDecision:
        attacks, switches = split_legal(legal)
        if attacks:
            own = view.own_active
            key = (own.moves, own.types, own.stats["atk"], own.stats["spa"],
                   own.status_kind == "Burn", view.opponent_active.species, view.weather,
                   tuple([a.index for a in attacks]))
            try:
                decision = self._attack_memo[key]
            except KeyError:
                decision = self._attack_memo[key] = self._best_attack(view, attacks)
            if decision is not None:
                return decision

        if switches:
            def best_multiplier(action: Action) -> float:
                member = view.own_team[action.index]
                mults = [
                    type_multiplier(self.dex.chart, self.dex.moves[m].move_type,
                                    view.opponent_active.types)
                    for m in member.moves if self.dex.moves[m].is_damaging
                ]
                return max(mults, default=0.0)

            choice = max(switches, key=lambda a: (best_multiplier(a), -a.index))
            member = view.own_team[choice.index]
            return AgentDecision(
                action=choice,
                reasoning=f"Switching to {member.species} for a better matchup.")

        return AgentDecision(action=legal[0], reasoning="No damaging option; using the first move.")

    def _best_attack(self, view: BattleView, attacks: Sequence[Action]) -> AgentDecision | None:
        """The attack with the highest expected damage, first in order on a tie;
        None if every attack deals 0."""
        attacker = view.own_active
        opponent = compute_stats(self.dex.species[view.opponent_active.species])
        rows = attack_table(self.dex, attacker, opponent, view.weather,
                            tuple([a.index for a in attacks]))
        # max keeps the first of equal rows.
        choice, (index, _, best) = max(zip(attacks, rows), key=lambda pair: pair[1][2])
        if best <= 0:
            return None
        move = self.dex.moves[attacker.moves[index]]
        return AgentDecision(
            action=choice,
            reasoning=f"{move.name} deals the most expected damage ({best}) to {opponent.species}.")
