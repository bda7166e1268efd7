"""Match orchestration and the single-elimination bracket."""

import json

import pytest

from pokeleague.agents import AgentDecision, AgentProfile, GreedyAgent, RandomAgent
from pokeleague.dex import TEAM_SIZE, open_dex
from pokeleague.engine import Action, IllegalActionError
from pokeleague.gateway import (
    AgentFailure, LlmAgent, ProviderConfig, RawExchange, ScriptCompleter,
)
from pokeleague.league import (
    END_FORFEIT, ConfigError, LeagueConfig, MatchRunner, TournamentConfig,
    placement_label, run_tournament, write_tournament_outputs,
)
from pokeleague.rng import stable_hash64
from pokeleague.storage import (
    PHASE_BATTLE, PHASE_FORCED_REPLACE, canonical_json, read_log, replay,
)

from conftest import FixedTeam


def scripted_entrants(count):
    profiles = [AgentProfile(agent_id="greedy-0", kind="greedy", display_name="Greedy 0")]
    for i in range(1, count):
        profiles.append(AgentProfile(
            agent_id=f"random-{i}", kind="random", seed=100 + i,
            display_name=f"Random {i}"))
    return profiles


def garbage_llm_agent(dex, agent_id="broken", prompts=None):
    """An LLM agent whose model never produces usable JSON; prompts collects what it is sent."""
    config = ProviderConfig(
        provider="openai_compatible", endpoint="mock://x", model="m",
        api_key_env="POKELEAGUE_TEST_KEY", max_repair_attempts=2)

    def completer(prompt, kind):
        if prompts is not None:
            prompts.append(prompt)
        return RawExchange(prompt=prompt, response_text="I refuse to answer in JSON.",
                           latency_ms=0.0, attempt=1)
    return LlmAgent(agent_id, config, dex, completer=completer)


# ---------------------------------------------------------------------------
# matches
# ---------------------------------------------------------------------------

def test_match_is_deterministic(dex, bundled_fingerprint, tmp_path):
    results = []
    for run in ("first", "second"):
        runner = MatchRunner(dex, LeagueConfig(), tmp_path / run, bundled_fingerprint)
        result = runner.run_match(
            GreedyAgent("greedy", dex), RandomAgent("random", 7), seed=42, match_id="m0")
        results.append(canonical_json(result.to_dict()))
    assert results[0] == results[1]


def test_match_rejects_same_agent_id(dex, tmp_path):
    runner = MatchRunner(dex, LeagueConfig(), tmp_path)
    agent = RandomAgent("dup", 1)
    with pytest.raises(ConfigError):
        runner.run_match(agent, agent, seed=1)


def test_fallback_team_when_llm_never_valid(dex, tmp_path):
    runner = MatchRunner(dex, LeagueConfig(), tmp_path)
    broken = garbage_llm_agent(dex)
    result = runner.run_match(broken, GreedyAgent("greedy", dex), seed=5, match_id="m0")
    assert result.teams["a"] == [0, 1, 2, 3, 4, 5]  # first six pool indices
    assert result.end_reason != "Forfeit"  # match proceeded on fallbacks
    records = read_log(tmp_path / "m0.jsonl")
    draft = next(r for r in records
                 if r["kind"] == "decision" and r["phase"] == "TeamSelect" and r["side"] == 0)
    assert draft["fallback_used"] is True
    assert draft["errors"]
    battle_decisions = [r for r in records
                        if r["kind"] == "decision" and r["phase"] == "Battle" and r["side"] == 0]
    assert battle_decisions and all(d["fallback_used"] for d in battle_decisions)


def test_fallback_records_carry_the_failed_exchanges(dex, tmp_path):
    runner = MatchRunner(dex, LeagueConfig(draft_per_match=False), tmp_path)
    broken, greedy = garbage_llm_agent(dex), GreedyAgent("greedy", dex)
    for match_id in ("m0", "m1"):
        runner.run_match(broken, greedy, seed=5, match_id=match_id)
    first, cached = (
        [r for r in read_log(tmp_path / f"{m}.jsonl") if r["kind"] == "decision"]
        for m in ("m0", "m1"))
    for record in first:
        if record["agent_id"] == "broken":  # 1 + max_repair_attempts failed exchanges
            assert record["fallback_used"] is True
            assert [e["parse_outcome"] for e in record["exchanges"]] == ["no_json_found"] * 3
            assert [e.split(":")[0] for e in record["errors"]] == ["no_json_found"] * 3
        else:
            assert (record["fallback_used"], record["exchanges"], record["errors"]) == (
                False, [], [])
    # The cached draft keeps its fallback flag but logs no exchanges.
    draft = next(r for r in cached if r["phase"] == "TeamSelect" and r["side"] == 0)
    assert (draft["fallback_used"], draft["exchanges"], draft["errors"]) == (True, [], [])


def test_disqualify_on_failure_forfeits(dex, tmp_path):
    config = LeagueConfig(disqualify_on_failure=True)
    runner = MatchRunner(dex, config, tmp_path)
    broken = garbage_llm_agent(dex)
    result = runner.run_match(broken, GreedyAgent("greedy", dex), seed=5, match_id="m0")
    assert result.end_reason == "Forfeit"
    assert result.winner == "greedy"
    assert result.loser == "broken"


class FailingInGame(GreedyAgent):
    """Greedy, except that from turn 3 of its `game`-th game (1-based) it fails."""

    def __init__(self, agent_id, dex, game):
        super().__init__(agent_id, dex)
        self.game = game
        self.games_started = 0

    def choose_action(self, view, legal):
        if view.turn_number == 1:
            self.games_started += 1
        if self.games_started == self.game and view.turn_number >= 3:
            raise AgentFailure(errors=("model unavailable",))
        return super().choose_action(view, legal)


@pytest.mark.parametrize("best_of,game,completed", [(1, 1, []), (3, 2, ["m0g0.jsonl"])])
def test_mid_game_failure_forfeits_the_match(dex, tmp_path, best_of, game, completed):
    runner = MatchRunner(dex, LeagueConfig(best_of=best_of, disqualify_on_failure=True), tmp_path)
    result = runner.run_match(
        FailingInGame("failing", dex, game), RandomAgent("random", 0), seed=0, match_id="m0")
    assert (result.winner, result.loser, result.winner_side) == ("random", "failing", 1)
    assert result.end_reason == END_FORFEIT
    assert [g.log_file for g in result.games] == result.log_files == completed
    assert result.turn_count == sum(g.turn_count for g in result.games)
    for summary in result.games:  # completed games are whole, replayable logs
        assert summary.turn_count > 0
        assert replay(tmp_path / summary.log_file, dex).turns == summary.turn_count


class IllegalIn(GreedyAgent):
    """Greedy, except that in a decision of `phase` it picks a switch to no team slot."""

    def __init__(self, agent_id, dex, phase):
        super().__init__(agent_id, dex)
        self.phase = phase

    def choose_action(self, view, legal):
        phase = PHASE_FORCED_REPLACE if view.forced_replacement else PHASE_BATTLE
        if phase == self.phase:
            return AgentDecision(action=Action.switch(TEAM_SIZE))
        return super().choose_action(view, legal)


@pytest.mark.parametrize("phase", [PHASE_BATTLE, PHASE_FORCED_REPLACE])
def test_an_action_outside_the_legal_set_is_rejected_by_the_engine(dex, tmp_path, phase):
    runner = MatchRunner(dex, LeagueConfig(), tmp_path)
    with pytest.raises(IllegalActionError) as excinfo:
        runner.run_match(IllegalIn("illegal", dex, phase), RandomAgent("random", 0), seed=0)
    assert (excinfo.value.side, excinfo.value.action) == (0, Action.switch(TEAM_SIZE))
    decisions = [r for r in read_log(tmp_path / "m0.jsonl")
                 if r["kind"] == "decision" and r["agent_id"] == "illegal"]
    assert (decisions[-1]["phase"], decisions[-1]["decision"]["action"]) == (
        phase, Action.switch(TEAM_SIZE).to_dict())


def test_draft_failure_on_both_sides_forfeits_side_a(dex, tmp_path):
    runner = MatchRunner(dex, LeagueConfig(disqualify_on_failure=True), tmp_path)
    prompts_a, prompts_b = [], []
    broken_a = garbage_llm_agent(dex, "broken-a", prompts_a)
    broken_b = garbage_llm_agent(dex, "broken-b", prompts_b)
    result = runner.run_match(broken_a, broken_b, seed=5, match_id="m0")
    assert (result.winner, result.loser, result.winner_side) == ("broken-b", "broken-a", 1)
    assert result.end_reason == END_FORFEIT
    assert result.games == [] and result.log_files == [] and result.turn_count == 0
    assert result.teams == {"a": [0, 1, 2, 3, 4, 5], "b": [0, 1, 2, 3, 4, 5]}
    # both sides were asked to draft: 1 + max_repair_attempts prompts each
    assert len(prompts_a) == len(prompts_b) == 3
    assert not list(tmp_path.glob("*.jsonl"))


def test_history_covers_one_game(dex, tmp_path):
    prompts = []
    script = ScriptCompleter({
        "team": ['{"team": [0, 1, 2, 3, 4, 5]}'],
        "action": ['{"action": {"type": "attack", "move_index": 0}}'],
    })

    def completer(prompt, kind):
        prompts.append((kind, prompt))
        return script(prompt, kind)

    config = ProviderConfig(provider="openai_compatible", endpoint="mock://x", model="m",
                            api_key_env="K", max_repair_attempts=0)
    llm = LlmAgent("llm", config, dex, completer=completer, include_history=True)
    runner = MatchRunner(dex, LeagueConfig(include_history=True), tmp_path)
    runner.run_match(llm, GreedyAgent("g1", dex), seed=1, match_id="m0")
    runner.run_match(GreedyAgent("g2", dex), llm, seed=2, match_id="m1")
    drafts = [i for i, (kind, _) in enumerate(prompts) if kind == "team"]
    assert len(drafts) == 2
    first_match = [p for kind, p in prompts[:drafts[1]] if kind == "action"]
    assert any("Previous turns:" in p for p in first_match)
    first_of_second = next(p for kind, p in prompts[drafts[1]:] if kind == "action")
    assert "Turn: 1." in first_of_second
    assert "Previous turns:" not in first_of_second


@pytest.mark.parametrize("best_of", [0, 2, -1, "3", 3.0, True])
def test_best_of_must_be_a_positive_odd_int(best_of):
    with pytest.raises(ConfigError):
        LeagueConfig(best_of=best_of)


@pytest.mark.parametrize("settings", [
    {"turn_limit": 0}, {"turn_limit": "500"}, {"turn_limit": 500.0}, {"turn_limit": True},
    {"jobs": 0}, {"jobs": "2"}, {"jobs": -1},
    {"disqualify_on_failure": 1}, {"draft_per_match": "false"}, {"include_history": None},
])
def test_league_settings_are_type_checked(settings):
    with pytest.raises(ConfigError):
        LeagueConfig(**settings)


def test_turn_cap_produces_tiebreak_result(dex, tmp_path):
    runner = MatchRunner(dex, LeagueConfig(turn_limit=2), tmp_path)
    result = runner.run_match(
        GreedyAgent("g1", dex), GreedyAgent("g2", dex), seed=3, match_id="m0")
    # Mirrored greedy teams rarely finish in 2 turns; expect the cap
    assert result.end_reason == "TurnCapTieBreak"
    assert result.turn_count == 2


def test_teams_override_mirrors(dex, tmp_path):
    runner = MatchRunner(dex, LeagueConfig(), tmp_path)
    mirror = (0, 1, 2, 3, 4, 5)
    result = runner.run_match(
        FixedTeam(GreedyAgent("g", dex), mirror), FixedTeam(RandomAgent("r", 2), mirror),
        seed=9, match_id="m0")
    assert result.teams["a"] == result.teams["b"] == [0, 1, 2, 3, 4, 5]


def test_match_log_replays_to_same_winner(dex, bundled_fingerprint, tmp_path):
    runner = MatchRunner(dex, LeagueConfig(), tmp_path, bundled_fingerprint)
    result = runner.run_match(
        GreedyAgent("greedy", dex), RandomAgent("random", 3), seed=11, match_id="m0")
    outcome = replay(tmp_path / "m0.jsonl", dex, expected_dex_fingerprint=bundled_fingerprint)
    assert outcome.winner_agent == result.winner


def test_best_of_three(dex, tmp_path):
    runner = MatchRunner(dex, LeagueConfig(best_of=3), tmp_path)
    result = runner.run_match(
        GreedyAgent("g", dex), RandomAgent("r", 4), seed=21, match_id="m0")
    assert 2 <= len(result.games) <= 3
    winner_side_wins = sum(1 for g in result.games if g.winner_side == result.winner_side)
    assert winner_side_wins == 2
    assert result.log_files == [g.log_file for g in result.games]


def test_draft_once_per_tournament_caches_team(dex, tmp_path):
    config = LeagueConfig(draft_per_match=False)
    runner = MatchRunner(dex, config, tmp_path)

    class CountingGreedy(GreedyAgent):
        calls = 0

        def select_team(self, pool):
            CountingGreedy.calls += 1
            return super().select_team(pool)

    agent = CountingGreedy("counting", dex)
    runner.run_match(agent, RandomAgent("r", 1), seed=1, match_id="m0")
    runner.run_match(agent, RandomAgent("r2", 2), seed=2, match_id="m1")
    assert CountingGreedy.calls == 1


# ---------------------------------------------------------------------------
# tournament
# ---------------------------------------------------------------------------

def make_tournament_config(tmp_path, count=8, **league_overrides):
    return TournamentConfig(
        entrants=scripted_entrants(count),
        master_seed=42,
        league=LeagueConfig(**league_overrides),
        output_dir=str(tmp_path / "out"))


def test_eight_entrants_bracket_shape(dex, tmp_path):
    config = make_tournament_config(tmp_path)
    result = run_tournament(config.entrants, dex, config, 42,
                            log_dir=tmp_path / "logs")
    assert [len(r) for r in result.rounds] == [4, 2, 1]
    assert sum(len(r) for r in result.rounds) == 7

    standings = {s.agent_id: s for s in result.standings}
    champion = standings[result.champion]
    assert champion.record == "3-0"
    assert champion.placement == "Champion"
    zero_loss = [s for s in result.standings if s.losses == 0]
    assert zero_loss == [champion]
    assert sum(s.wins for s in result.standings) == 7
    labels = sorted(s.placement for s in result.standings)
    assert labels.count("Quarter-finalist") == 4
    assert labels.count("Semi-finalist") == 2
    assert labels.count("Runner-up") == 1
    for entry in result.standings:
        if entry.placement == "Quarter-finalist":
            assert entry.record == "0-1"
        if entry.placement == "Semi-finalist":
            assert entry.record == "1-1"
        if entry.placement == "Runner-up":
            assert entry.record == "2-1"


def test_two_entrants_minimal_bracket(dex, tmp_path):
    config = make_tournament_config(tmp_path, count=2)
    result = run_tournament(config.entrants, dex, config, 7, log_dir=tmp_path / "logs")
    assert [len(r) for r in result.rounds] == [1]
    loser = next(s for s in result.standings if s.agent_id != result.champion)
    assert loser.placement == "Runner-up"


@pytest.mark.parametrize("count", [0, 1, 3, 6, 12])
def test_non_power_of_two_rejected(dex, tmp_path, count):
    config = make_tournament_config(tmp_path, count=max(count, 1))
    entrants = scripted_entrants(count) if count else []
    with pytest.raises(ConfigError):
        run_tournament(entrants, dex, config, 1, log_dir=tmp_path / "logs")


def test_duplicate_agent_ids_rejected(dex, tmp_path):
    config = make_tournament_config(tmp_path, count=2)
    entrants = [AgentProfile(agent_id="same", kind="greedy"),
                AgentProfile(agent_id="same", kind="random")]
    with pytest.raises(ConfigError):
        run_tournament(entrants, dex, config, 1, log_dir=tmp_path / "logs")


def test_tournament_is_reproducible(dex, tmp_path):
    snapshots = []
    for run in ("first", "second"):
        config = make_tournament_config(tmp_path / run)
        result = run_tournament(config.entrants, dex, config, 42,
                                log_dir=tmp_path / run / "logs")
        snapshots.append(canonical_json(result.to_dict()))
    assert snapshots[0] == snapshots[1]


def test_parallel_rounds_match_serial(dex, tmp_path):
    serial_config = make_tournament_config(tmp_path / "serial", jobs=1)
    serial = run_tournament(serial_config.entrants, dex, serial_config, 42,
                            log_dir=tmp_path / "serial/logs")
    parallel_config = make_tournament_config(tmp_path / "parallel", jobs=4)
    parallel = run_tournament(parallel_config.entrants, dex, parallel_config, 42,
                              log_dir=tmp_path / "parallel/logs")
    assert canonical_json(serial.to_dict()) == canonical_json(parallel.to_dict())


def test_per_match_seeds_stable_under_reordering():
    # Seeds hang off (master_seed, match_id) only
    assert stable_hash64(42, "r0m0") == stable_hash64(42, "r0m0")
    assert stable_hash64(42, "r0m0") != stable_hash64(42, "r0m1")
    assert stable_hash64(42, "r0m0") != stable_hash64(43, "r0m0")


def test_every_tournament_log_replays(dex, bundled_fingerprint, tmp_path):
    config = make_tournament_config(tmp_path)
    log_dir = tmp_path / "logs"
    result = run_tournament(config.entrants, dex, config, 13,
                            log_dir=log_dir, dex_fingerprint=bundled_fingerprint)
    by_id = {m.match_id: m for rnd in result.rounds for m in rnd}
    logs = sorted(log_dir.glob("*.jsonl"))
    assert len(logs) == 7
    for path in logs:
        outcome = replay(path, dex, expected_dex_fingerprint=bundled_fingerprint)
        assert outcome.winner_agent == by_id[path.stem].winner


def test_write_tournament_outputs(dex, tmp_path):
    config = make_tournament_config(tmp_path, count=4)
    result = run_tournament(config.entrants, dex, config, 5, log_dir=tmp_path / "logs")
    bracket_path, standings_path = write_tournament_outputs(result, tmp_path / "out")
    bracket = json.loads(bracket_path.read_text(encoding="utf-8"))
    assert bracket["champion"] == result.champion
    table = standings_path.read_text(encoding="utf-8")
    assert "Champion" in table
    assert "Record" in table


def test_placement_labels():
    assert placement_label(0) == "Runner-up"
    assert placement_label(1) == "Semi-finalist"
    assert placement_label(2) == "Quarter-finalist"
    assert placement_label(3) == "Round of 16"
    assert placement_label(4) == "Round of 32"


def test_pool_override_restricts_draft(dex, bundled_fingerprint, tmp_path):
    config = TournamentConfig(
        entrants=scripted_entrants(2),
        pool=["Jolteon", "Snorlax", "Swampert", "Gengar", "Metagross", "Salamence"],
        output_dir=str(tmp_path))
    overridden, fingerprint = open_dex(config.dex_path, config.pool)
    assert overridden.pool == tuple(config.pool)
    assert fingerprint == bundled_fingerprint
    runner = MatchRunner(overridden, LeagueConfig(), tmp_path)
    result = runner.run_match(
        GreedyAgent("g", overridden), RandomAgent("r", 1), seed=1, match_id="m0")
    assert sorted(result.teams["a"]) == [0, 1, 2, 3, 4, 5]


def test_llm_provider_params_recorded_in_meta(dex, tmp_path):
    from pokeleague.gateway import ScriptCompleter

    config = ProviderConfig(
        provider="openai_compatible", endpoint="mock://x", model="test-model",
        api_key_env="K", temperature=0.7, max_tokens=1024)
    completer = ScriptCompleter({
        "team": ['{"team": [0, 1, 2, 3, 4, 5]}'],
        "action": ['{"action": {"type": "attack", "move_index": 0}}',
                   '{"action": {"type": "switch", "team_index": 1}}',
                   '{"action": {"type": "switch", "team_index": 2}}',
                   '{"action": {"type": "switch", "team_index": 3}}',
                   '{"action": {"type": "switch", "team_index": 4}}',
                   '{"action": {"type": "switch", "team_index": 5}}'],
    })
    llm = LlmAgent("scripted-llm", config, dex, completer=completer)
    runner = MatchRunner(dex, LeagueConfig(), tmp_path)
    runner.run_match(llm, GreedyAgent("greedy", dex), seed=2, match_id="m0")
    meta = read_log(tmp_path / "m0.jsonl")[0]
    assert meta["provider_params"]["a"]["model"] == "test-model"
    assert meta["provider_params"]["a"]["temperature"] == 0.7
    assert meta["provider_params"]["a"]["max_tokens"] == 1024
    assert "b" not in meta["provider_params"]  # scripted side has no provider


def test_tournament_config_from_dict(tmp_path):
    raw = {
        "entrants": [
            {"agent_id": "g", "kind": "greedy", "display_name": "Greedy"},
            {"agent_id": "m", "kind": "mock", "script": "script.json"},
        ],
        "master_seed": 9,
        "best_of": 3,
        "turn_limit": 123,
        "providers": {
            "openai": {
                "provider": "openai_compatible",
                "endpoint": "https://api.example/v1/chat/completions",
                "model": "gpt-x", "api_key_env": "OPENAI_API_KEY",
            },
        },
        "output_dir": str(tmp_path),
    }
    config = TournamentConfig.from_dict(raw)
    assert config.master_seed == 9
    assert config.league.best_of == 3
    assert config.league.turn_limit == 123
    assert config.providers["openai"].model == "gpt-x"
    assert config.entrants[1].script == "script.json"


def test_provider_failure_falls_back_in_tournament(dex, tmp_path, monkeypatch):
    from pokeleague import gateway

    def unavailable(config, prompt, **kwargs):
        raise gateway.ProviderError(503, "service unavailable")

    monkeypatch.setattr(gateway, "complete", unavailable)
    config = TournamentConfig.from_dict({
        "entrants": [{"agent_id": "llm", "kind": "llm", "provider": "p"},
                     {"agent_id": "greedy", "kind": "greedy"}],
        "providers": {"p": {"provider": "openai_compatible", "endpoint": "https://x.test",
                            "model": "m", "api_key_env": "POKELEAGUE_TEST_KEY"}},
    })
    result = run_tournament(config.entrants, dex, config, master_seed=4, log_dir=tmp_path)
    assert result.champion == "greedy"
    llm_decisions = [r for r in read_log(tmp_path / "r0m0.jsonl")
                     if r["kind"] == "decision" and r["agent_id"] == "llm"]
    assert {r["phase"] for r in llm_decisions} >= {"TeamSelect", "Battle"}
    assert all(r["fallback_used"] for r in llm_decisions)
    assert all("ProviderError" in r["errors"][-1] and "503" in r["errors"][-1]
               for r in llm_decisions)
