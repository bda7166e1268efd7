"""Single-elimination tournament orchestration.

Pairings follow config order; per-match seeds are stable hashes of
(master_seed, match id) so reordering or parallelising matches can never
change an individual match's randomness.  Every decision and engine
event is logged through the storage module, and with scripted entrants
the whole tournament is reproducible bit for bit.

A failed or rule-breaking agent call becomes a logged fallback decision
carrying the call's exchanges and errors.  Under disqualify_on_failure the
first side to fall back forfeits; in a battle, its game log ends there.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path
from typing import Sequence

from . import storage
from .analytics import text_table
from .agents import (
    Agent, AgentDecision, AgentProfile, ConfigError, GreedyAgent, RandomAgent, check_setting,
    fallback_action, fallback_team, make_pool_view, read_config_file,
)
from .dex import Dex
from .engine import Action, BattleState, DEFAULT_TURN_LIMIT, init_battle, legal_actions, view_for
# Not called here (storage.play_battle is); benchmarks/tracing.py wraps league.<name>.
from .engine import resolve_replacements, resolve_turn  # noqa: F401
from .gateway import PROVIDER_OPENAI, AgentFailure, LlmAgent, ProviderConfig, ScriptCompleter
from .prompts import ParseError, check_action, check_team
from .rng import stable_hash64

END_FORFEIT = "Forfeit"

PLACEMENT_LABELS = {1: "Runner-up", 2: "Semi-finalist", 3: "Quarter-finalist"}


@dataclass
class LeagueConfig:
    """Knobs shared by simulations and tournaments."""

    turn_limit: int = DEFAULT_TURN_LIMIT
    best_of: int = 1
    disqualify_on_failure: bool = False
    draft_per_match: bool = True
    include_history: bool = False
    jobs: int = 1

    def __post_init__(self):
        for name in ("turn_limit", "best_of", "jobs"):
            check_setting(name, getattr(self, name), (int,), "a positive integer", lambda v: v >= 1)
        # A match ends when one side holds a majority of its games.
        check_setting("best_of", self.best_of, (int,), "a positive odd integer", lambda v: v % 2)
        for name in ("disqualify_on_failure", "draft_per_match", "include_history"):
            check_setting(name, getattr(self, name), (bool,), "true or false")

    def to_dict(self) -> dict:
        return dict(vars(self))  # asdict(self): every field is a scalar


@dataclass
class TournamentConfig:
    entrants: list[AgentProfile]
    master_seed: int = 0
    dex_path: str | None = None
    pool: list[str] | None = None
    league: LeagueConfig = field(default_factory=LeagueConfig)
    providers: dict[str, ProviderConfig] = field(default_factory=dict)
    output_dir: str = "out"
    tournament_id: str = ""

    def __post_init__(self):
        check_setting("master_seed", self.master_seed, (int,), "an integer")
        check_setting("dex_path", self.dex_path, (str, type(None)), "a string or null")
        check_setting("pool", self.pool, (list, type(None)), "a list of species names or null",
                      lambda pool: pool is None or all(type(name) is str for name in pool))
        check_setting("output_dir", self.output_dir, (str,), "a string")
        check_setting("tournament_id", self.tournament_id, (str,), "a string")

    @staticmethod
    def from_file(path: str | Path) -> "TournamentConfig":
        return TournamentConfig.from_dict(read_config_file(path, "config"))

    @staticmethod
    def from_dict(raw: dict) -> "TournamentConfig":
        if not isinstance(raw, dict):
            raise ConfigError(f"a tournament config must be an object, got {type(raw).__name__}")
        league_keys = LeagueConfig().to_dict().keys()
        # League settings are top-level keys; a nested "league" object is unknown.
        known = league_keys | {f.name for f in fields(TournamentConfig)} - {"league"}
        unknown = raw.keys() - known
        if unknown:
            raise ConfigError(f"unknown config keys: {', '.join(sorted(unknown))}")
        providers, entrants = raw.get("providers", {}), raw.get("entrants", [])
        if not isinstance(providers, dict) or not isinstance(entrants, list):
            raise ConfigError("providers must be an object and entrants a list")
        scalars = ("master_seed", "dex_path", "pool", "output_dir", "tournament_id")
        return TournamentConfig(
            entrants=[AgentProfile.from_dict(e) for e in entrants],
            league=LeagueConfig(**{k: raw[k] for k in league_keys if k in raw}),
            providers={name: ProviderConfig.from_dict(cfg) for name, cfg in providers.items()},
            **{k: raw[k] for k in scalars if k in raw})


def build_agent(profile: AgentProfile, dex: Dex, config: TournamentConfig) -> Agent:
    """The agent of an entrant, for every kind; the one place that makes agents."""
    if profile.kind == "random":
        return RandomAgent(profile.agent_id, profile.seed)
    if profile.kind == "greedy":
        return GreedyAgent(profile.agent_id, dex)
    if profile.kind == "mock":
        if not Path(profile.script).is_file():
            raise ConfigError(
                f"mock entrant {profile.agent_id!r}: no script file {profile.script!r}")
        try:
            completer = ScriptCompleter.from_file(profile.script)
        except ConfigError as exc:
            raise ConfigError(f"mock entrant {profile.agent_id!r}: {exc}") from None
        # An LLM agent wired to its canned-response script instead of a provider.
        mock = ProviderConfig(provider=PROVIDER_OPENAI, endpoint="mock://script", model="mock",
                              api_key_env="POKELEAGUE_MOCK_KEY")
        return LlmAgent(profile.agent_id, mock, dex, completer=completer)
    if profile.kind == "llm":
        if profile.provider not in config.providers:
            raise ConfigError(f"entrant {profile.agent_id!r} references unknown provider "
                              f"{profile.provider!r}")
        provider = config.providers[profile.provider]
        if not os.environ.get(provider.api_key_env):  # fail before any match, not on each call
            raise ConfigError(f"llm entrant {profile.agent_id!r}: environment variable "
                              f"{provider.api_key_env} is not set")
        if profile.model:
            provider = replace(provider, model=profile.model)
        return LlmAgent(profile.agent_id, provider, dex,
                        include_history=config.league.include_history)
    raise ConfigError(f"unknown agent kind {profile.kind!r}")


# ---------------------------------------------------------------------------
# match execution
# ---------------------------------------------------------------------------

@dataclass
class GameSummary:
    game_index: int
    winner_side: int
    turn_count: int
    end_reason: str
    log_file: str


@dataclass
class MatchResult:
    match_id: str
    agent_a: str
    agent_b: str
    teams: dict[str, list[int]]
    winner: str
    loser: str
    winner_side: int
    turn_count: int
    end_reason: str
    seed: int
    games: list[GameSummary]
    log_files: list[str]

    def to_dict(self) -> dict:
        """asdict(self), copying only the fields that are not scalars."""
        return {**vars(self), "teams": {side: list(team) for side, team in self.teams.items()},
                "games": [dict(vars(game)) for game in self.games],
                "log_files": list(self.log_files)}


class _Forfeit(Exception):
    """A side failed under disqualify_on_failure and loses the match."""

    def __init__(self, side: int):
        self.side = side


class MatchRunner:
    """Runs one match (team selection, games, logging) between two agents."""

    def __init__(
        self,
        dex: Dex,
        config: LeagueConfig,
        log_dir: str | Path,
        dex_fingerprint: str = "",
        tournament_id: str = "",
    ):
        self.dex = dex
        self.config = config
        self.log_dir = Path(log_dir)
        self.dex_fingerprint = dex_fingerprint
        self.tournament_id = tournament_id
        # What every draft picks from: one tuple, so the team prompt is built once.
        self._pool = make_pool_view(dex)
        # draft_per_match=False: each agent's first draft, without its exchanges.
        self._cached_teams: dict[str, AgentDecision] = {}

    # -- asking an agent -----------------------------------------------------

    def _ask(self, call, check, fallback) -> AgentDecision:
        """One agent call, for a draft or a battle action.

        check(decision) raises the ParseError of the decision's rule
        (prompts.check_team or prompts.check_action) if it breaks it.  If
        the agent fails or breaks the rule, the decision is fallback() with
        the exchanges and errors behind the failure (a breach adds its own)
        and fallback_used set; under disqualify_on_failure the caller makes
        that side forfeit.
        """
        try:
            decision = call()
        except AgentFailure as failure:
            exchanges, errors = failure.exchanges, failure.errors
        else:
            try:
                check(decision)
            except ParseError as err:
                exchanges, errors = decision.exchanges, (*decision.errors, str(err))
            else:
                return decision
        # replace(fallback(), exchanges=..., errors=..., fallback_used=True), built
        # without the frozen __init__: fallback() holds exactly one of action/team.
        decision = object.__new__(AgentDecision)
        decision.__dict__.update(
            vars(fallback()), exchanges=exchanges, errors=errors, fallback_used=True)
        return decision

    # -- one game --------------------------------------------------------

    def _run_game(
        self,
        match_id: str,
        game_index: int,
        agents: dict[int, Agent],
        drafts: list[tuple[dict, ...]],
        seed: int,
        log_name: str,
    ) -> GameSummary:
        team_names = [[self.dex.pool[i] for i in draft[0]["decision"]["team"]] for draft in drafts]
        state, init_events = init_battle(
            self.dex, team_names[0], team_names[1], seed, self.config.turn_limit)

        # Sampling parameters of LLM-backed sides, recorded for reproducibility.
        provider_params = {}
        for side, key in enumerate(storage.SIDE_KEYS):
            provider = getattr(agents[side], "config", None)
            if isinstance(provider, ProviderConfig):
                provider_params[key] = provider.to_dict()

        with storage.MatchLog(self.log_dir / log_name) as log:
            def choose(state: BattleState, side: int, phase: str) -> Action:
                agent = agents[side]
                view = view_for(state, side)
                legal = legal_actions(state, side)
                decision = self._ask(
                    lambda: agent.choose_action(view, legal),
                    lambda d: check_action(d.action, legal),
                    lambda: AgentDecision(action=fallback_action(legal)))
                for own in legal:
                    if own is decision.action:
                        break
                else:  # equal to a legal action by ==, as Action("attack", True) is attack 1:
                    # play and log the list's own, whose index is an int
                    decision = replace(decision, action=legal[legal.index(decision.action)])
                log.append(storage.decision_line(self.dex, state, side, legal, decision,
                                                 agent_id=agent.agent_id, phase=phase),
                           *storage.exchanges_record(decision))
                if decision.fallback_used and self.config.disqualify_on_failure:
                    raise _Forfeit(side)  # the game log ends with this decision
                return decision.action

            steps = storage.play_battle(state, init_events, self.dex, match_id, choose)
            init_record, _ = next(steps)
            log.append(storage.meta_record(
                match_id=match_id,
                tournament_id=self.tournament_id,
                game_index=game_index,
                seed=seed,
                turn_limit=self.config.turn_limit,
                dex_fingerprint=self.dex_fingerprint,
                agents=dict(zip(storage.SIDE_KEYS, (agents[0].agent_id, agents[1].agent_id))),
                team_names=dict(zip(storage.SIDE_KEYS, team_names)),
                initial_digest=init_record["post_digest"],
                config={k: v for k, v in self.config.to_dict().items() if k != "jobs"},
                provider_params=provider_params,
            ))
            for draft in drafts:  # a draft's exchanges go only into the match's first game log
                log.append(*(draft if game_index == 0 else draft[:1]))
            log.append(init_record)
            for record, state in steps:
                log.append(record)

        return GameSummary(
            game_index=game_index, winner_side=state.winner,
            turn_count=state.turn_number - 1, end_reason=state.end_reason,
            log_file=log_name)

    # -- the full match ----------------------------------------------------

    def run_match(
        self,
        agent_a: Agent,
        agent_b: Agent,
        seed: int,
        match_id: str = "m0",
    ) -> MatchResult:
        if agent_a.agent_id == agent_b.agent_id:
            raise ConfigError("a match needs two distinct agents")
        agents = {0: agent_a, 1: agent_b}
        pool = self._pool

        # Both sides draft even if one forfeits; the first side that fails loses.
        forfeit_side: int | None = None
        drafts: list[tuple[dict, ...]] = []  # per side: the decision record, then its exchanges
        for side, agent in agents.items():
            decision = self._cached_teams.get(agent.agent_id)
            if decision is None:
                decision = self._ask(
                    lambda: agent.select_team(pool), lambda d: check_team(d.team, len(pool)),
                    lambda: AgentDecision(team=fallback_team()))
                if decision.fallback_used and self.config.disqualify_on_failure:
                    forfeit_side = side if forfeit_side is None else forfeit_side
                elif not self.config.draft_per_match:
                    self._cached_teams[agent.agent_id] = replace(
                        decision, exchanges=(), errors=())
            drafts.append((storage.decision_record(
                decision, turn=0, agent_id=agent.agent_id, side=side,
                phase=storage.PHASE_TEAM_SELECT), *storage.exchanges_record(decision)))

        games: list[GameSummary] = []
        wins = [0, 0]
        while forfeit_side is None and max(wins) <= self.config.best_of // 2:
            game_index = len(games)
            log_name = (f"{match_id}.jsonl" if self.config.best_of == 1
                        else f"{match_id}g{game_index}.jsonl")
            game_seed = (seed if self.config.best_of == 1
                         else stable_hash64(seed, "game", game_index) % 2**63)
            try:
                games.append(self._run_game(
                    match_id, game_index, agents, drafts, game_seed, log_name))
            except _Forfeit as forfeit:
                forfeit_side = forfeit.side
            else:
                wins[games[-1].winner_side] += 1

        if forfeit_side is None:
            winner_side, end_reason = games[-1].winner_side, games[-1].end_reason
        else:
            winner_side, end_reason = 1 - forfeit_side, END_FORFEIT
        return MatchResult(
            match_id=match_id, agent_a=agent_a.agent_id, agent_b=agent_b.agent_id,
            teams={key: draft[0]["decision"]["team"]
                   for key, draft in zip(storage.SIDE_KEYS, drafts)},
            winner=agents[winner_side].agent_id, loser=agents[1 - winner_side].agent_id,
            winner_side=winner_side,
            turn_count=sum(g.turn_count for g in games),
            end_reason=end_reason, seed=seed,
            games=games, log_files=[g.log_file for g in games])


# ---------------------------------------------------------------------------
# tournament
# ---------------------------------------------------------------------------

@dataclass
class StandingEntry:
    agent_id: str
    display_name: str
    wins: int
    losses: int
    record: str = field(init=False)
    placement: str

    def __post_init__(self):
        self.record = f"{self.wins}-{self.losses}"


@dataclass
class TournamentResult:
    tournament_id: str
    entrants: list[str]
    rounds: list[list[MatchResult]]
    standings: list[StandingEntry]
    champion: str
    master_seed: int

    def to_dict(self) -> dict:
        return asdict(self)

    def standings_table(self) -> str:
        return text_table([("Agent", "Record", "Final Standing")] + [
            (s.display_name or s.agent_id, s.record, s.placement) for s in self.standings])


def placement_label(rounds_from_final: int) -> str:
    """Exit-round label: final loser is Runner-up, one earlier Semi-finalist, ..."""
    return PLACEMENT_LABELS.get(rounds_from_final + 1, f"Round of {2 ** (rounds_from_final + 1)}")


def run_tournament(
    entrants: Sequence[AgentProfile],
    dex: Dex,
    config: TournamentConfig,
    master_seed: int,
    *,
    log_dir: str | Path | None = None,
    dex_fingerprint: str = "",
) -> TournamentResult:
    """Play out the whole bracket and compute standings.

    Entrant count must be a power of two.  Matches inside one round may
    run in parallel (config.league.jobs); results join in bracket order
    before the next round starts.
    """
    count = len(entrants)
    if count < 2 or count & (count - 1) != 0:
        raise ConfigError(f"entrant count must be a power of two >= 2, got {count}")
    ids = [e.agent_id for e in entrants]
    if len(set(ids)) != count:
        raise ConfigError("entrant agent_ids must be unique")

    tournament_id = config.tournament_id or f"t{master_seed}"
    if log_dir is None:
        log_dir = Path(config.output_dir) / "logs" / tournament_id
    runner = MatchRunner(dex, config.league, log_dir, dex_fingerprint, tournament_id)
    agents = {e.agent_id: build_agent(e, dex, config) for e in entrants}
    profiles = {e.agent_id: e for e in entrants}

    total_rounds = count.bit_length() - 1
    exit_round: dict[str, int] = {}
    rounds: list[list[MatchResult]] = []
    current = list(ids)

    for round_index in range(total_rounds):
        pairs = [(current[i], current[i + 1]) for i in range(0, len(current), 2)]
        match_ids = [f"r{round_index}m{i}" for i in range(len(pairs))]

        def play(pair_id):
            (id_a, id_b), match_id = pair_id
            seed = stable_hash64(master_seed, match_id) % 2**63
            return runner.run_match(agents[id_a], agents[id_b], seed, match_id)

        work = list(zip(pairs, match_ids))
        if config.league.jobs > 1:
            from concurrent.futures import ThreadPoolExecutor  # only threaded rounds load it

            with ThreadPoolExecutor(max_workers=config.league.jobs) as pool:
                results = list(pool.map(play, work))
        else:
            results = [play(item) for item in work]

        rounds.append(results)
        next_round = []
        for result in results:
            exit_round[result.loser] = round_index
            next_round.append(result.winner)
        current = next_round

    # Single elimination: a loser won every round before its exit round,
    # and the champion won them all.
    champion = current[0]
    standings = [StandingEntry(
        agent_id=champion, display_name=profiles[champion].label,
        wins=total_rounds, losses=0, placement="Champion")]
    others = sorted((a for a in ids if a != champion), key=lambda a: (-exit_round[a], ids.index(a)))
    for agent_id in others:
        rounds_from_final = total_rounds - 1 - exit_round[agent_id]
        standings.append(StandingEntry(
            agent_id=agent_id, display_name=profiles[agent_id].label,
            wins=exit_round[agent_id], losses=1,
            placement=placement_label(rounds_from_final)))
    return TournamentResult(
        tournament_id=tournament_id, entrants=list(ids), rounds=rounds,
        standings=standings, champion=champion, master_seed=master_seed)


def write_tournament_outputs(result: TournamentResult, out_dir: str | Path) -> tuple[Path, Path]:
    """Write bracket JSON and standings table; returns their paths."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    bracket_path = out / "bracket.json"
    standings_path = out / "standings.txt"
    bracket_path.write_text(
        json.dumps(result.to_dict(), indent=2, ensure_ascii=False) + "\n", encoding="utf-8")
    standings_path.write_text(result.standings_table() + "\n", encoding="utf-8")
    return bracket_path, standings_path

