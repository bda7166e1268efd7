"""Single-elimination tournament orchestration.

Pairings follow config order; per-match seeds are stable hashes of
(master_seed, match id) so reordering or parallelising matches can never
change an individual match's randomness.  Every decision and engine
event is logged through the storage module, and with scripted entrants
the whole tournament is reproducible bit for bit.
"""

from __future__ import annotations

import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import Sequence

from . import storage
from .agents import (
    Agent, AgentDecision, AgentProfile, GreedyAgent, RandomAgent, TeamPick,
    fallback_action, fallback_team, make_pool_view,
)
from .dex import Dex, load_dex, type_multiplier
from .engine import (
    Action, BattleState, DEFAULT_TURN_LIMIT, expected_damage, init_battle, legal_actions,
    view_for,
)
# Not called here (storage.play_battle is); benchmarks/tracing.py wraps league.<name>.
from .engine import resolve_replacements, resolve_turn  # noqa: F401
from .gateway import AgentFailure, LlmAgent, ProviderConfig, make_mock_agent
from .rng import stable_hash64

END_FORFEIT = "Forfeit"

PLACEMENT_LABELS = {1: "Runner-up", 2: "Semi-finalist", 3: "Quarter-finalist"}


class ConfigError(Exception):
    pass


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
        # A match ends when one side holds a majority of its games.
        if type(self.best_of) is not int or self.best_of < 1 or self.best_of % 2 == 0:
            raise ConfigError(f"best_of must be a positive odd integer, got {self.best_of!r}")

    def to_dict(self) -> dict:
        return asdict(self)


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

    @staticmethod
    def from_file(path: str | Path) -> "TournamentConfig":
        with open(path, encoding="utf-8") as handle:
            raw = json.load(handle)
        return TournamentConfig.from_dict(raw)

    @staticmethod
    def from_dict(raw: dict) -> "TournamentConfig":
        league_keys = LeagueConfig().to_dict().keys()
        league = LeagueConfig(**{k: raw[k] for k in league_keys if k in raw})
        providers = {
            name: ProviderConfig.from_dict(cfg)
            for name, cfg in raw.get("providers", {}).items()
        }
        return TournamentConfig(
            entrants=[AgentProfile.from_dict(e) for e in raw.get("entrants", [])],
            master_seed=raw.get("master_seed", 0),
            dex_path=raw.get("dex_path"),
            pool=raw.get("pool"),
            league=league,
            providers=providers,
            output_dir=raw.get("output_dir", "out"),
            tournament_id=raw.get("tournament_id", ""),
        )


def build_agent(profile: AgentProfile, dex: Dex, config: TournamentConfig) -> Agent:
    if profile.kind == "random":
        return RandomAgent(profile.agent_id, profile.seed)
    if profile.kind == "greedy":
        return GreedyAgent(profile.agent_id, dex)
    if profile.kind == "mock":
        if not profile.script:
            raise ConfigError(f"mock entrant {profile.agent_id!r} needs a script path")
        return make_mock_agent(profile.agent_id, profile.script, dex)
    if profile.kind == "llm":
        if profile.provider not in config.providers:
            raise ConfigError(f"entrant {profile.agent_id!r} references unknown provider "
                              f"{profile.provider!r}")
        provider = config.providers[profile.provider]
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

    def to_dict(self) -> dict:
        return asdict(self)


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
        return asdict(self)


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
        # draft_per_match=False: each agent's first draft and whether it fell back.
        self._cached_teams: dict[str, tuple[AgentDecision, bool]] = {}

    # -- asking an agent -----------------------------------------------------

    def _ask(self, agent: Agent, side: int, call, fallback) -> tuple[AgentDecision, bool, list, list]:
        """One agent call, for a draft or a battle action.

        Returns (decision, fallback_used, exchanges, errors), the last two
        from the LLM decision trace (none for scripted agents).  If the
        agent fails, the decision is fallback(), or under
        disqualify_on_failure the side forfeits the match.
        """
        try:
            decision = call()
        except AgentFailure as failure:
            if self.config.disqualify_on_failure:
                raise _Forfeit(side)
            decision, used, trace = fallback(), True, failure.trace
        else:
            used, trace = False, getattr(agent, "last_trace", None)
        if trace is None:
            return decision, used, [], []
        return decision, used, [e.to_dict() for e in trace.exchanges], list(trace.errors)

    # -- per-decision metric context -----------------------------------------

    def _decision_context(self, state: BattleState, side: int, legal: Sequence[Action]) -> dict:
        own = state.sides[side].active
        opponent = state.sides[1 - side].active
        attacks = []
        for action in legal:
            if not action.is_attack:
                continue
            move = self.dex.moves[own.moves[action.index]]
            attacks.append({
                "move_index": action.index, "move": move.name, "type": move.move_type,
                "effectiveness": type_multiplier(self.dex.chart, move.move_type, opponent.types),
                "expected_damage": expected_damage(
                    own, opponent, move, self.dex.chart, state.weather),
            })
        return {
            "own_species": own.species,
            "own_hp_percent": own.hp_percent,
            "opponent_species": opponent.species,
            "opponent_types": list(opponent.types),
            "weather": state.weather,
            "attacks": attacks,
            "switches": [a.index for a in legal if not a.is_attack],
        }

    # -- one game --------------------------------------------------------

    def _run_game(
        self,
        match_id: str,
        game_index: int,
        agents: dict[int, Agent],
        drafts: list[dict],
        seed: int,
        log_name: str,
    ) -> GameSummary:
        teams = [draft["decision"]["team"] for draft in drafts]
        team_names = [[self.dex.pool[i] for i in team] for team in teams]
        state, init_events = init_battle(
            self.dex, team_names[0], team_names[1], seed, self.config.turn_limit)

        # Sampling parameters of LLM-backed sides, recorded for reproducibility.
        provider_params = {}
        for side in (0, 1):
            provider = getattr(agents[side], "config", None)
            if isinstance(provider, ProviderConfig):
                provider_params["a" if side == 0 else "b"] = provider.to_dict()

        with storage.MatchLog(self.log_dir / log_name) as log:
            def choose(state: BattleState, side: int, phase: str) -> Action:
                agent = agents[side]
                view = view_for(state, side)
                legal = legal_actions(state, side)
                decision, fallback, exchanges, errors = self._ask(
                    agent, side, lambda: agent.choose_action(view, legal),
                    lambda: AgentDecision(action=fallback_action(legal)))
                if decision.action not in legal:
                    raise RuntimeError(
                        f"agent {agent.agent_id} returned illegal action {decision.action} "
                        "(harness bug: agents must be validated upstream)")
                log.append(storage.decision_record(
                    match_id=match_id, turn=state.turn_number, agent_id=agent.agent_id,
                    side=side, phase=phase, decision={"action": decision.action.to_dict()},
                    reasoning=decision.reasoning, fallback_used=fallback,
                    exchanges=exchanges, errors=errors,
                    context=self._decision_context(state, side, legal)))
                return decision.action

            steps = storage.play_battle(state, init_events, self.dex, match_id, choose)
            init_record, _ = next(steps)
            log.append(storage.meta_record(
                match_id=match_id,
                tournament_id=self.tournament_id,
                seed=seed,
                turn_limit=self.config.turn_limit,
                dex_fingerprint=self.dex_fingerprint,
                agents={"a": agents[0].agent_id, "b": agents[1].agent_id},
                teams={"a": teams[0], "b": teams[1]},
                team_names={"a": team_names[0], "b": team_names[1]},
                initial_digest=init_record["post_digest"],
                config=self.config.to_dict(),
                provider_params=provider_params,
            ))
            for record in (*drafts, init_record):
                log.append(record)
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
        teams_override: tuple[TeamPick, TeamPick] | None = None,
    ) -> MatchResult:
        if agent_a.agent_id == agent_b.agent_id:
            raise ConfigError("a match needs two distinct agents")
        agents = {0: agent_a, 1: agent_b}
        pool_view = make_pool_view(self.dex)

        def team_fallback() -> AgentDecision:
            return AgentDecision(team=fallback_team(len(pool_view)))

        # Both sides draft even if one forfeits; the first side that fails loses.
        forfeit_side: int | None = None
        drafts: list[dict] = []
        for side, agent in agents.items():
            if teams_override is not None:
                asked = AgentDecision(team=teams_override[side]), False, [], []
            elif agent.agent_id in self._cached_teams:
                asked = *self._cached_teams[agent.agent_id], [], []
            else:
                try:
                    asked = self._ask(
                        agent, side, lambda: agent.select_team(pool_view), team_fallback)
                except _Forfeit:
                    forfeit_side = side if forfeit_side is None else forfeit_side
                    asked = team_fallback(), True, [], []
                else:
                    if not self.config.draft_per_match:
                        self._cached_teams[agent.agent_id] = asked[:2]
            decision, fallback, exchanges, errors = asked
            drafts.append(storage.decision_record(
                match_id=match_id, turn=0, agent_id=agent.agent_id,
                side=side, phase=storage.PHASE_TEAM_SELECT,
                decision={"team": list(decision.team.indices)},
                reasoning=decision.reasoning, fallback_used=fallback,
                exchanges=exchanges, errors=errors))

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
            teams={"a": drafts[0]["decision"]["team"], "b": drafts[1]["decision"]["team"]},
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
    placement: str

    @property
    def record(self) -> str:
        return f"{self.wins}-{self.losses}"

    def to_dict(self) -> dict:
        return {
            "agent_id": self.agent_id, "display_name": self.display_name,
            "wins": self.wins, "losses": self.losses, "record": self.record,
            "placement": self.placement,
        }


@dataclass
class TournamentResult:
    tournament_id: str
    entrants: list[str]
    rounds: list[list[MatchResult]]
    standings: list[StandingEntry]
    champion: str
    master_seed: int

    def to_dict(self) -> dict:
        return {
            "tournament_id": self.tournament_id,
            "entrants": self.entrants,
            "rounds": [[m.to_dict() for m in rnd] for rnd in self.rounds],
            "standings": [s.to_dict() for s in self.standings],
            "champion": self.champion,
            "master_seed": self.master_seed,
        }

    def standings_table(self) -> str:
        rows = [("Agent", "Record", "Final Standing")]
        rows += [(s.display_name or s.agent_id, s.record, s.placement) for s in self.standings]
        widths = [max(len(r[c]) for r in rows) for c in range(3)]
        lines = []
        for i, row in enumerate(rows):
            lines.append("  ".join(cell.ljust(widths[c]) for c, cell in enumerate(row)).rstrip())
            if i == 0:
                lines.append("  ".join("-" * w for w in widths))
        return "\n".join(lines)


def placement_label(rounds_from_final: int) -> str:
    """Exit-round label: final loser is Runner-up, one earlier Semi-finalist, ..."""
    label = PLACEMENT_LABELS.get(rounds_from_final + 1)
    if label is not None:
        return label
    return f"Round of {2 ** (rounds_from_final + 1)}"


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
    wins = {agent_id: 0 for agent_id in ids}
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
            with ThreadPoolExecutor(max_workers=config.league.jobs) as pool:
                results = list(pool.map(play, work))
        else:
            results = [play(item) for item in work]

        rounds.append(results)
        next_round = []
        for result in results:
            wins[result.winner] += 1
            exit_round[result.loser] = round_index
            next_round.append(result.winner)
        current = next_round

    champion = current[0]
    standings = [StandingEntry(
        agent_id=champion, display_name=profiles[champion].label,
        wins=wins[champion], losses=0, placement="Champion")]
    others = sorted(
        (a for a in ids if a != champion),
        key=lambda a: (-exit_round[a], -wins[a], ids.index(a)))
    for agent_id in others:
        rounds_from_final = total_rounds - 1 - exit_round[agent_id]
        standings.append(StandingEntry(
            agent_id=agent_id, display_name=profiles[agent_id].label,
            wins=wins[agent_id], losses=1,
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


def load_tournament_dex(config: TournamentConfig) -> tuple[Dex, str]:
    """Resolve the dex (and its fingerprint) for a tournament config."""
    from .dex import default_dex_path, dex_fingerprint

    path = Path(config.dex_path) if config.dex_path else default_dex_path()
    dex = load_dex(path)
    if config.pool:
        dex = dex.with_pool(config.pool)
    return dex, dex_fingerprint(path)
