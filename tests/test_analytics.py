"""Metrics: win rate, move efficiency, switch metrics, pick frequency.

Every per-agent metric is read from its row of build_report.
"""

import json
from pathlib import Path

import pytest

from pokeleague import storage
from pokeleague.agents import GreedyAgent, RandomAgent
from pokeleague.analytics import (
    MatchLogData, NoLogs, build_report, jaccard_matrix, load_log_dir, pick_frequency,
    team_diversity, write_report,
)
from pokeleague.engine import Action, init_battle, legal_actions
from pokeleague.gateway import LlmAgent, ProviderConfig, ScriptCompleter
from pokeleague.league import LeagueConfig, MatchRunner
from pokeleague.storage import (
    PHASE_BATTLE, PHASE_TEAM_SELECT, decision_context, play_battle, read_log, replay,
)

# Team rosters as reported for the eight tournament entrants; the fixture
# counts below are derived by direct counting over these lists.
EIGHT_TEAMS = {
    "gpt-4.1": ["Mewtwo", "Metagross", "Salamence", "Swampert", "Gengar", "Zapdos"],
    "o4-mini": ["Kyogre", "Groudon", "Rayquaza", "Lugia", "Magnezone", "Ho-Oh"],
    "o3": ["Swampert", "Zapdos", "Metagross", "Blissey", "Gengar", "Salamence"],
    "claude-3-5-sonnet": ["Mewtwo", "Dragonite", "Gengar", "Zapdos", "Tyranitar", "Swampert"],
    "claude-3-7-sonnet": ["Tyranitar", "Swampert", "Zapdos", "Blaziken", "Metagross", "Celebi"],
    "claude-sonnet-4": ["Mewtwo", "Tyranitar", "Swampert", "Skarmory", "Gengar", "Blaziken"],
    "gemini-2.5-pro": ["Metagross", "Swampert", "Salamence", "Raikou", "Skarmory", "Blissey"],
    "gemini-2.5-flash": ["Swampert", "Venusaur", "Dragonite", "Metagross", "Jolteon", "Gengar"],
}


def synthetic_log(agent_a="a", agent_b="b", winner_side=0, decisions=None):
    return MatchLogData(
        path=Path("synthetic.jsonl"),
        meta={
            "agents": {"a": agent_a, "b": agent_b},
            "team_names": {"a": ["Jolteon"] * 6, "b": ["Snorlax"] * 6},
        },
        records=decisions or [],
        winner_side=winner_side,
    )


def battle_decision(agent_id, action, context, turn=1, phase="Battle"):
    return {
        "kind": "decision", "turn": turn, "agent_id": agent_id,
        "side": 0, "phase": phase, "decision": {"action": Action.from_dict(action)},
        "reasoning": "", "fallback_used": False, "exchanges": [], "errors": [],
        "context": context,
    }


def agent_row(decisions, agent_id="a"):
    """The agent's report row over one synthetic log holding the decisions."""
    return build_report([synthetic_log(decisions=decisions)]).agents[agent_id]


def attack_context(effectiveness, expected, all_damages=None, own_hp=100):
    """A Battle context as read_log returns it: move 0 with the given values, then
    moves 1, 2, ... at 1.0 effectiveness with all_damages, as attack rows."""
    attacks = [[0, effectiveness, expected]]
    attacks += [[i, 1.0, dmg] for i, dmg in enumerate(all_damages or [], start=1)]
    return {"own_hp_percent": own_hp, "switches": [1, 2], "attacks": attacks}


# ---------------------------------------------------------------------------
# win rate
# ---------------------------------------------------------------------------

def test_win_rate_examples():
    def win_rate(logs, agent_id):
        return build_report(logs).agents[agent_id].win_rate

    undefeated = [synthetic_log(winner_side=0) for _ in range(3)]
    assert win_rate(undefeated, "a") == 1.0
    assert win_rate([synthetic_log(winner_side=1)], "a") == 0.0
    split = [synthetic_log(winner_side=0), synthetic_log(winner_side=1)]
    assert win_rate(split, "a") == 0.5
    assert sorted(build_report(split).agents) == ["a", "b"]


# ---------------------------------------------------------------------------
# move efficiency
# ---------------------------------------------------------------------------

def test_move_efficiency_seven_of_ten():
    decisions = []
    for i in range(10):
        effectiveness = 2.0 if i < 7 else 1.0
        decisions.append(battle_decision(
            "a", {"type": "attack", "move_index": 0},
            attack_context(effectiveness, expected=50), turn=i + 1))
    row = agent_row(decisions)
    assert row.effective_move_rate == 0.7
    assert row.optimal_move_rate == 1.0


def test_all_immune_attack_counts_against_both_rates():
    # Chose move 0 with 0 damage while another attack dealt damage
    decisions = [battle_decision(
        "a", {"type": "attack", "move_index": 0},
        attack_context(0.0, expected=0, all_damages=[42]))]
    row = agent_row(decisions)
    assert row.effective_move_rate == 0.0
    assert row.optimal_move_rate == 0.0


def test_tied_argmax_counts_as_optimal():
    decisions = [battle_decision(
        "a", {"type": "attack", "move_index": 0},
        attack_context(1.0, expected=42, all_damages=[42, 10]))]
    assert agent_row(decisions).optimal_move_rate == 1.0


def test_no_attack_decisions_leave_both_attack_rates_none():
    row = agent_row([battle_decision(
        "a", {"type": "switch", "team_index": 1}, attack_context(1.0, 1))])
    assert row.attack_decisions == 0
    assert row.effective_move_rate is None
    assert row.optimal_move_rate is None


@pytest.mark.parametrize("metric, action", [
    ("move_efficiency", {"type": "attack", "move_index": 0}),
    ("switch_metrics", {"type": "switch", "team_index": 1}),
], ids=["move_efficiency", "switch_metrics"])
def test_agent_in_no_log_raises_no_matches(metric, action):
    """An agent in no log has no matches, so the report gives it no row:
    neither the attack tally nor the switch tally invents one."""
    log = synthetic_log(decisions=[battle_decision("a", action, attack_context(1.0, 10))])
    report = build_report([log])
    assert sorted(report.agents) == ["a", "b"]
    assert "nobody" not in report.agents


# ---------------------------------------------------------------------------
# switch metrics
# ---------------------------------------------------------------------------

def test_switch_metrics_zero_switches():
    decisions = [battle_decision("a", {"type": "attack", "move_index": 0},
                                 attack_context(1.0, 10), turn=t) for t in range(1, 6)]
    row = agent_row(decisions)
    assert row.switch_rate == 0.0
    assert row.mean_hp_percent_at_voluntary_switch is None


def test_switch_metrics_rate_and_timing():
    decisions = []
    for t in range(1, 19):
        decisions.append(battle_decision(
            "a", {"type": "attack", "move_index": 0}, attack_context(1.0, 10), turn=t))
    decisions.append(battle_decision(
        "a", {"type": "switch", "team_index": 1}, attack_context(1.0, 10, own_hp=30), turn=19))
    decisions.append(battle_decision(
        "a", {"type": "switch", "team_index": 2}, attack_context(1.0, 10, own_hp=50), turn=20))
    row = agent_row(decisions)
    assert row.switch_rate == pytest.approx(0.1)
    assert row.mean_hp_percent_at_voluntary_switch == pytest.approx(40.0)


def test_forced_replacements_are_not_voluntary():
    decisions = [
        battle_decision("a", {"type": "attack", "move_index": 0},
                        attack_context(1.0, 10), turn=1),
        battle_decision("a", {"type": "switch", "team_index": 1},
                        attack_context(1.0, 10, own_hp=0), turn=1, phase="ForcedReplace"),
    ]
    row = agent_row(decisions)
    assert row.voluntary_switches == 0
    assert row.switch_rate == 0.0


# ---------------------------------------------------------------------------
# pick frequency and diversity
# ---------------------------------------------------------------------------

def test_pick_frequency_eight_team_fixture():
    counts = pick_frequency(list(EIGHT_TEAMS.values()))
    assert counts["Metagross"] == 5
    # Direct count over the eight listed teams yields 7 for Swampert (the
    # figure caption's 6/8 disagrees with its own team lists; we assert the
    # count derived from the lists).
    assert counts["Swampert"] == 7
    assert counts["Gengar"] == 5
    assert counts["Zapdos"] == 4
    assert counts.get("Lapras", 0) == 0


def test_pick_frequency_counts_membership_not_multiplicity():
    counts = pick_frequency([["Jolteon", "Jolteon", "Snorlax"]])
    assert counts["Jolteon"] == 1


def test_pick_frequency_sums_to_slot_count_when_no_duplicates():
    teams = list(EIGHT_TEAMS.values())
    counts = pick_frequency(teams)
    assert sum(counts.values()) == 6 * len(teams)


def test_team_diversity():
    assert team_diversity([["A", "B", "C", "D", "E", "F"]]) == 1.0
    assert team_diversity([["A"] * 6]) == pytest.approx(1 / 6)
    two_teams = [["A", "B", "C", "D", "E", "F"], ["A", "B", "C", "D", "E", "F"]]
    assert team_diversity(two_teams) == 0.5


def test_jaccard_matrix_diagonal_and_symmetry():
    ids, matrix = jaccard_matrix({k: v for k, v in list(EIGHT_TEAMS.items())[:3]})
    n = len(ids)
    for i in range(n):
        assert matrix[i][i] == 1.0
        for j in range(n):
            assert matrix[i][j] == matrix[j][i]
            assert 0.0 <= matrix[i][j] <= 1.0


# ---------------------------------------------------------------------------
# real logs: greedy optimality and replay consistency
# ---------------------------------------------------------------------------

def decisions_with_states(path, dex):
    """Each battle-time decision record of a log, with the state it was made in.

    storage.replay checks the log first, so a log that does not replay fails here.
    """
    replay(path, dex)
    log = read_log(path)
    records = [log.meta, *log.records]
    meta = records[0]
    state, init_events = init_battle(dex, meta["team_names"]["a"], meta["team_names"]["b"],
                                     meta["seed"], meta["turn_limit"])
    logged = iter([r for r in records
                   if r["kind"] == "decision" and r["phase"] != PHASE_TEAM_SELECT])
    made = []

    def choose(state, side, phase):
        record = next(logged)
        made.append((record, state))
        return record["decision"]["action"]

    for _ in play_battle(state, init_events, dex, meta["match_id"], choose):
        pass
    return made


def replayed_log(path, dex):
    """The log's battle decisions, with contexts rebuilt from the replayed states.

    Each battle decision gets the decision_context of the state the replay
    reached, not the context in the log, so reporting on it cross-checks
    the direct route end to end.
    """
    decisions = [
        {**record, "context": decision_context(
            dex, state, record["side"], legal_actions(state, record["side"]))}
        for record, state in decisions_with_states(path, dex)
        if record["phase"] == PHASE_BATTLE]
    return MatchLogData(path=Path(path), meta=read_log(path).meta, records=decisions,
                        winner_side=None)


def attack_fields(log):
    """Each agent's attack count and rates in the report on the one log."""
    return {agent_id: (row.attack_decisions, row.effective_move_rate, row.optimal_move_rate)
            for agent_id, row in build_report([log]).agents.items()}


@pytest.fixture(scope="module")
def greedy_match_logs(dex, tmp_path_factory):
    log_dir = tmp_path_factory.mktemp("greedy_logs")
    runner = MatchRunner(dex, LeagueConfig(), log_dir, "fp")
    greedy = GreedyAgent("greedy", dex)
    for i in range(4):
        runner.run_match(greedy, RandomAgent("random", 50 + i), seed=300 + i,
                         match_id=f"m{i}")
    return log_dir


@pytest.fixture(scope="module")
def mock_llm_match_logs(dex, tmp_path_factory):
    """Logs of a mock LLM whose replies need repairs and end in fallbacks."""
    log_dir = tmp_path_factory.mktemp("mock_llm_logs")
    provider = ProviderConfig(provider="openai_compatible", endpoint="mock://x", model="m",
                              api_key_env="K", max_repair_attempts=1)
    script = {
        "team": ['{"team": [0, 1, 2, 3, 4, 5]}'],
        "action": ['{"action": {"type": "attack", "move_index": 1}}', "no JSON here",
                   "still none", '{"action": {"type": "switch", "team_index": 2}}'],
    }
    runner = MatchRunner(dex, LeagueConfig(), log_dir, "fp")
    for i in range(2):
        llm = LlmAgent("llm", provider, dex, completer=ScriptCompleter(script))
        runner.run_match(llm, GreedyAgent("greedy", dex), seed=400 + i, match_id=f"m{i}")
    return log_dir


@pytest.mark.parametrize("fixture", ["greedy_match_logs", "mock_llm_match_logs"])
def test_logged_context_is_decision_context_of_replayed_state(dex, request, fixture):
    log_dir = request.getfixturevalue(fixture)
    checked = []
    for path in sorted(Path(log_dir).glob("*.jsonl")):
        for record, state in decisions_with_states(path, dex):
            side = record["side"]
            assert state.turn_number == record["turn"]
            context = decision_context(dex, state, side, legal_actions(state, side))
            assert record["context"] == json.loads(json.dumps(context))  # rows read as lists
            checked.append(record)
    assert {r["phase"] for r in checked} == {"Battle", "ForcedReplace"}
    if fixture == "mock_llm_match_logs":
        assert any(r["fallback_used"] for r in checked)


def test_greedy_logs_have_perfect_optimal_rate(dex, greedy_match_logs):
    logs = load_log_dir(greedy_match_logs)
    assert build_report(logs).agents["greedy"].optimal_move_rate == 1.0


def test_replay_route_matches_direct_route(dex, greedy_match_logs):
    for path in sorted(Path(greedy_match_logs).glob("*.jsonl")):
        direct = attack_fields(read_log(path))
        assert direct["greedy"][0] > 0
        assert direct == attack_fields(replayed_log(path, dex))


def test_replay_route_matches_direct_route_with_fallbacks(dex, mock_llm_match_logs):
    for path in sorted(Path(mock_llm_match_logs).glob("*.jsonl")):
        direct = attack_fields(read_log(path))
        assert sorted(direct) == ["greedy", "llm"]
        assert direct == attack_fields(replayed_log(path, dex))


# ---------------------------------------------------------------------------
# report assembly
# ---------------------------------------------------------------------------

def test_build_report_rates_in_range(dex, greedy_match_logs, tmp_path):
    logs = load_log_dir(greedy_match_logs)
    report = build_report(logs)
    for metrics in report.agents.values():
        assert 0.0 <= metrics.win_rate <= 1.0
        assert 0.0 <= metrics.switch_rate <= 1.0
        assert 0.0 <= metrics.team_diversity <= 1.0
        if metrics.effective_move_rate is not None:
            assert 0.0 <= metrics.effective_move_rate <= 1.0
        if metrics.optimal_move_rate is not None:
            assert 0.0 <= metrics.optimal_move_rate <= 1.0
    assert report.teams_drafted == 8  # 2 teams per match, 4 matches

    paths = write_report(report, tmp_path / "report")
    assert paths["json"].exists()
    assert "Pick frequency" in paths["text"].read_text(encoding="utf-8")
    csv_text = paths["csv"].read_text(encoding="utf-8")
    assert csv_text.startswith("species,teams_containing,teams_total")


def test_metrics_recomputation_is_idempotent(greedy_match_logs):
    logs = load_log_dir(greedy_match_logs)
    first = build_report(logs).to_dict()
    second = build_report(load_log_dir(greedy_match_logs)).to_dict()
    assert first == second


def test_build_report_reads_its_input_once(greedy_match_logs):
    logs = list(load_log_dir(greedy_match_logs))
    assert build_report(iter(logs)).to_dict() == build_report(logs).to_dict()


def test_build_report_over_no_logs_has_no_rows():
    report = build_report([])
    assert (report.agents, report.pick_frequency, report.teams_drafted) == ({}, {}, 0)


def test_load_log_dir_reads_each_log_when_it_is_reached(greedy_match_logs, monkeypatch):
    read = storage.read_log
    calls = []
    monkeypatch.setattr(storage, "read_log", lambda path: calls.append(path) or read(path))
    logs = load_log_dir(greedy_match_logs)
    assert calls == []
    first = next(logs)
    assert calls == [first.path] == sorted(Path(greedy_match_logs).glob("*.jsonl"))[:1]


def test_load_log_dir_empty_raises(tmp_path):
    with pytest.raises(NoLogs):
        load_log_dir(tmp_path)
