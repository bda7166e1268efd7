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
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Sequence

from . import storage
from .agents import (
    Agent, AgentDecision, AgentProfile, GreedyAgent, RandomAgent, TeamPick,
    fallback_action, fallback_team, make_pool_view,
)
from .dex import Dex, load_dex, type_multiplier
from .engine import (
    Action, BattleState, DEFAULT_TURN_LIMIT, compute_damage, init_battle,
    legal_actions, needs_replacement, resolve_replacements, resolve_turn, view_for,
)
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

    def to_dict(self) -> dict:
        return {
            "turn_limit": self.turn_limit, "best_of": self.best_of,
            "disqualify_on_failure": self.disqualify_on_failure,
            "draft_per_match": self.draft_per_match,
            "include_history": self.include_history, "jobs": self.jobs,
        }


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
        return {
            "game_index": self.game_index, "winner_side": self.winner_side,
            "turn_count": self.turn_count, "end_reason": self.end_reason,
            "log_file": self.log_file,
        }


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
        return {
            "match_id": self.match_id, "agent_a": self.agent_a, "agent_b": self.agent_b,
            "teams": self.teams, "winner": self.winner, "loser": self.loser,
            "winner_side": self.winner_side, "turn_count": self.turn_count,
            "end_reason": self.end_reason, "seed": self.seed,
            "games": [g.to_dict() for g in self.games], "log_files": self.log_files,
        }


class _Forfeit(Exception):
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
        self._cached_teams: dict[str, tuple[TeamPick, str, bool]] = {}

    # -- team selection -----------------------------------------------------

    def _draft(self, agent: Agent, pool_view) -> tuple[TeamPick, str, bool, list, list]:
        """Returns (team, reasoning, fallback_used, exchanges, errors)."""
        try:
            decision = agent.select_team(pool_view)
        except AgentFailure as failure:
            if self.config.disqualify_on_failure:
                raise
            team = fallback_team(len(pool_view))
            return (team, "", True,
                    [e.to_dict() for e in failure.trace.exchanges], failure.trace.errors)
        trace = getattr(agent, "last_trace", None)
        exchanges = [e.to_dict() for e in trace.exchanges] if trace else []
        errors = list(trace.errors) if trace else []
        return decision.team, decision.reasoning, False, exchanges, errors

    def _team_for(self, agent: Agent, pool_view) -> tuple[TeamPick, str, bool, list, list]:
        if not self.config.draft_per_match and agent.agent_id in self._cached_teams:
            team, reasoning, fallback = self._cached_teams[agent.agent_id]
            return team, reasoning, fallback, [], []
        result = self._draft(agent, pool_view)
        if not self.config.draft_per_match:
            self._cached_teams[agent.agent_id] = (result[0], result[1], result[2])
        return result

    # -- per-decision metric context -----------------------------------------

    def _decision_context(self, state: BattleState, side: int, legal: Sequence[Action]) -> dict:
        own = state.sides[side].active
        opponent = state.sides[1 - side].active
        attacks = []
        for action in legal:
            if not action.is_attack:
                continue
            move = self.dex.moves[own.moves[action.index]]
            effectiveness = type_multiplier(self.dex.chart, move.move_type, opponent.types)
            if move.is_damaging:
                expected = compute_damage(
                    own, opponent, move, self.dex.chart,
                    weather=state.weather, crit=False, roll=100).damage
            else:
                expected = 0
            attacks.append({
                "move_index": action.index, "move": move.name,
                "type": move.move_type, "effectiveness": effectiveness,
                "expected_damage": expected,
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

    # -- action selection ----------------------------------------------------

    def _decide_action(self, agent: Agent, side: int, view, legal) -> tuple[AgentDecision, bool, list, list]:
        try:
            decision = agent.choose_action(view, legal)
        except AgentFailure as failure:
            if self.config.disqualify_on_failure:
                raise _Forfeit(side)
            return (AgentDecision(action=fallback_action(legal)), True,
                    [e.to_dict() for e in failure.trace.exchanges], failure.trace.errors)
        if decision.action not in legal:
            raise RuntimeError(
                f"agent {agent.agent_id} returned illegal action {decision.action} "
                "(harness bug: agents must be validated upstream)")
        trace = getattr(agent, "last_trace", None)
        exchanges = [e.to_dict() for e in trace.exchanges] if trace else []
        errors = list(trace.errors) if trace else []
        return decision, False, exchanges, errors

    # -- one game --------------------------------------------------------

    def _run_game(
        self,
        match_id: str,
        game_index: int,
        agents: dict[int, Agent],
        teams: dict[int, TeamPick],
        draft_info: dict[int, tuple[str, bool, list, list]],
        seed: int,
        log_name: str,
    ) -> GameSummary:
        team_names = {
            side: [self.dex.pool[i] for i in teams[side].indices] for side in (0, 1)
        }
        state, init_events = init_battle(
            self.dex, team_names[0], team_names[1], seed, self.config.turn_limit)
        # Each state is digested once; its digest is the next step's pre_digest.
        digest = storage.state_digest(state)
        log_path = self.log_dir / log_name

        # Sampling parameters of LLM-backed sides, recorded for reproducibility.
        provider_params = {}
        for side in (0, 1):
            provider = getattr(agents[side], "config", None)
            if isinstance(provider, ProviderConfig):
                provider_params["a" if side == 0 else "b"] = provider.to_dict()

        with storage.MatchLog(log_path) as log:
            log.append(storage.meta_record(
                match_id=match_id,
                tournament_id=self.tournament_id,
                seed=seed,
                turn_limit=self.config.turn_limit,
                dex_fingerprint=self.dex_fingerprint,
                agents={"a": agents[0].agent_id, "b": agents[1].agent_id},
                teams={"a": list(teams[0].indices), "b": list(teams[1].indices)},
                team_names={"a": team_names[0], "b": team_names[1]},
                initial_digest=digest,
                config=self.config.to_dict(),
                provider_params=provider_params,
            ))
            for side in (0, 1):
                reasoning, fallback, exchanges, errors = draft_info[side]
                log.append(storage.decision_record(
                    match_id=match_id, turn=0, agent_id=agents[side].agent_id,
                    side=side, phase=storage.PHASE_TEAM_SELECT,
                    decision={"team": list(teams[side].indices)},
                    reasoning=reasoning, fallback_used=fallback,
                    exchanges=exchanges, errors=errors))
            log.append(storage.events_record(
                match_id=match_id, turn=0, phase=storage.EVENTS_INIT,
                events=init_events, pre_digest=None, post_digest=digest))

            while not state.ended:
                turn = state.turn_number
                actions: dict[int, Action] = {}
                for side in (0, 1):
                    view = view_for(state, side)
                    legal = legal_actions(state, side)
                    decision, fallback, exchanges, errors = self._decide_action(
                        agents[side], side, view, legal)
                    actions[side] = decision.action
                    log.append(storage.decision_record(
                        match_id=match_id, turn=turn, agent_id=agents[side].agent_id,
                        side=side, phase=storage.PHASE_BATTLE,
                        decision={"action": decision.action.to_dict()},
                        reasoning=decision.reasoning, fallback_used=fallback,
                        exchanges=exchanges, errors=errors,
                        context=self._decision_context(state, side, legal)))
                pre = digest
                state, events = resolve_turn(state, actions[0], actions[1], self.dex)
                digest = storage.state_digest(state)
                log.append(storage.events_record(
                    match_id=match_id, turn=turn, phase=storage.EVENTS_TURN,
                    events=events, pre_digest=pre, post_digest=digest))

                while not state.ended and any(needs_replacement(state, s) for s in (0, 1)):
                    replacements: dict[int, Action] = {}
                    for side in (0, 1):
                        if not needs_replacement(state, side):
                            continue
                        view = view_for(state, side)
                        legal = legal_actions(state, side)
                        decision, fallback, exchanges, errors = self._decide_action(
                            agents[side], side, view, legal)
                        replacements[side] = decision.action
                        log.append(storage.decision_record(
                            match_id=match_id, turn=state.turn_number,
                            agent_id=agents[side].agent_id, side=side,
                            phase=storage.PHASE_FORCED_REPLACE,
                            decision={"action": decision.action.to_dict()},
                            reasoning=decision.reasoning, fallback_used=fallback,
                            exchanges=exchanges, errors=errors,
                            context=self._decision_context(state, side, legal)))
                    pre = digest
                    state, events = resolve_replacements(state, replacements, self.dex)
                    digest = storage.state_digest(state)
                    log.append(storage.events_record(
                        match_id=match_id, turn=state.turn_number,
                        phase=storage.EVENTS_REPLACE, events=events,
                        pre_digest=pre, post_digest=digest))

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

        teams: dict[int, TeamPick] = {}
        draft_info: dict[int, tuple[str, bool, list, list]] = {}
        forfeit_side: int | None = None
        if teams_override is not None:
            teams = {0: teams_override[0], 1: teams_override[1]}
            draft_info = {0: ("", False, [], []), 1: ("", False, [], [])}
        else:
            for side in (0, 1):
                try:
                    team, reasoning, fallback, exchanges, errors = self._team_for(
                        agents[side], pool_view)
                except AgentFailure:
                    forfeit_side = side if forfeit_side is None else forfeit_side
                    teams[side] = fallback_team(len(pool_view))
                    draft_info[side] = ("", True, [], [])
                    continue
                teams[side] = team
                draft_info[side] = (reasoning, fallback, exchanges, errors)

        if forfeit_side is not None:
            winner_side = 1 - forfeit_side
            return MatchResult(
                match_id=match_id, agent_a=agent_a.agent_id, agent_b=agent_b.agent_id,
                teams={"a": list(teams[0].indices), "b": list(teams[1].indices)},
                winner=agents[winner_side].agent_id, loser=agents[forfeit_side].agent_id,
                winner_side=winner_side, turn_count=0, end_reason=END_FORFEIT,
                seed=seed, games=[], log_files=[])

        games: list[GameSummary] = []
        wins = {0: 0, 1: 0}
        needed = self.config.best_of // 2 + 1
        forfeit_loser: int | None = None
        for game_index in range(self.config.best_of):
            log_name = (f"{match_id}.jsonl" if self.config.best_of == 1
                        else f"{match_id}g{game_index}.jsonl")
            game_seed = (seed if self.config.best_of == 1
                         else stable_hash64(seed, "game", game_index) % 2**63)
            try:
                summary = self._run_game(
                    match_id, game_index, agents, teams, draft_info, game_seed, log_name)
            except _Forfeit as forfeit:
                # disqualify_on_failure: the failing side loses the match outright
                forfeit_loser = forfeit.side
                break
            games.append(summary)
            wins[summary.winner_side] += 1
            if wins[summary.winner_side] >= needed:
                break

        if forfeit_loser is not None:
            winner_side = 1 - forfeit_loser
            end_reason = END_FORFEIT
        else:
            winner_side = 0 if wins[0] > wins[1] else 1
            end_reason = games[-1].end_reason
        return MatchResult(
            match_id=match_id, agent_a=agent_a.agent_id, agent_b=agent_b.agent_id,
            teams={"a": list(teams[0].indices), "b": list(teams[1].indices)},
            winner=agents[winner_side].agent_id, loser=agents[1 - winner_side].agent_id,
            winner_side=winner_side,
            turn_count=sum(g.turn_count for g in games),
            end_reason=end_reason, seed=seed,
            games=games, log_files=[g.log_file for g in games])


def run_match(
    agent_a: Agent,
    agent_b: Agent,
    dex: Dex,
    config: LeagueConfig,
    seed: int,
    *,
    log_dir: str | Path = "logs",
    match_id: str = "m0",
    dex_fingerprint: str = "",
    teams_override: tuple[TeamPick, TeamPick] | None = None,
) -> MatchResult:
    """Convenience wrapper around MatchRunner for one-off matches."""
    runner = MatchRunner(dex, config, log_dir, dex_fingerprint)
    return runner.run_match(agent_a, agent_b, seed, match_id, teams_override)


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
