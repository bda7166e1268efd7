"""CLI subcommands and their exit-code contract."""

import json

import pytest

from pokeleague.cli import main
from pokeleague.dex import default_dex_path


MOCK_SCRIPT = {
    "team": ['{"team": [0, 1, 2, 3, 4, 5], "reasoning": "lead with the pool order"}'],
    "action": [
        '{"action": {"type": "attack", "move_index": 0}, "reasoning": "press the first move"}',
        '{"action": {"type": "attack", "move_index": 1}, "reasoning": "press the second move"}',
        '{"action": {"type": "switch", "team_index": 1}, "reasoning": "rotate"}',
        '{"action": {"type": "switch", "team_index": 2}, "reasoning": "rotate more"}',
        '{"action": {"type": "switch", "team_index": 3}, "reasoning": "rotate again"}',
        '{"action": {"type": "switch", "team_index": 4}, "reasoning": "rotate again"}',
        '{"action": {"type": "switch", "team_index": 5}, "reasoning": "rotate again"}',
    ],
}


def write_mock_script(tmp_path, name="script.json"):
    path = tmp_path / name
    path.write_text(json.dumps(MOCK_SCRIPT), encoding="utf-8")
    return path


# ---------------------------------------------------------------------------
# dex validate
# ---------------------------------------------------------------------------

def test_dex_validate_bundled_ok(capsys):
    assert main(["dex", "validate", str(default_dex_path())]) == 0
    assert "ok:" in capsys.readouterr().out


def test_dex_validate_missing_file():
    assert main(["dex", "validate", "/nonexistent/dex.json"]) == 2


def test_dex_validate_chart_gap(dex_doc, write_dex, capsys):
    import copy

    doc = copy.deepcopy(dex_doc)
    del doc["chart"]["Steel"]["Ghost"]
    path = write_dex(doc)
    assert main(["dex", "validate", str(path)]) == 1
    err = capsys.readouterr().err
    assert "Steel" in err and "Ghost" in err


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def test_simulate_deterministic_tallies(tmp_path, capsys):
    args = ["simulate", "--agent-a", "greedy", "--agent-b", "random:7",
            "--count", "5", "--seed", "1", "--out"]
    assert main(args + [str(tmp_path / "run1")]) == 0
    first = capsys.readouterr().out.splitlines()[-1]
    assert main(args + [str(tmp_path / "run2")]) == 0
    second = capsys.readouterr().out.splitlines()[-1]
    assert first.split("(")[0] == second.split("(")[0]
    assert len(list((tmp_path / "run1").glob("*.jsonl"))) == 5


def test_simulate_count_zero_is_usage_error(tmp_path):
    assert main(["simulate", "--count", "0", "--out", str(tmp_path)]) == 2


def test_simulate_bad_agent_spec_is_usage_error(tmp_path):
    assert main(["simulate", "--agent-a", "minimax", "--count", "1",
                 "--out", str(tmp_path)]) == 2


def test_simulate_verbose_prints_events(tmp_path, capsys):
    assert main(["simulate", "--count", "1", "--seed", "3", "-v",
                 "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "winner=" in out
    assert "'kind': 'SwitchIn'" in out or '"kind": "SwitchIn"' in out


# ---------------------------------------------------------------------------
# tournament
# ---------------------------------------------------------------------------

def scripted_config(tmp_path, count=8):
    entrants = [{"agent_id": "greedy-0", "kind": "greedy"}]
    entrants += [{"agent_id": f"random-{i}", "kind": "random", "seed": i}
                 for i in range(1, count)]
    return {
        "entrants": entrants,
        "master_seed": 77,
        "output_dir": str(tmp_path / "out"),
    }


def test_tournament_eight_scripted(tmp_path, capsys):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(scripted_config(tmp_path)), encoding="utf-8")
    assert main(["tournament", str(config_path)]) == 0
    out = capsys.readouterr().out
    assert "3-0" in out
    assert "Champion" in out
    assert (tmp_path / "out" / "bracket.json").exists()
    assert (tmp_path / "out" / "standings.txt").exists()
    assert len(list((tmp_path / "out" / "logs").rglob("*.jsonl"))) == 7


def test_tournament_six_entrants_config_error(tmp_path):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(scripted_config(tmp_path, count=6)), encoding="utf-8")
    assert main(["tournament", str(config_path)]) == 2


@pytest.mark.parametrize("overrides", [
    {"providers": {"p": {"provider": "openai_compatible", "endpoint": "https://x.test",
                         "modle": "m", "api_key_env": "K"}}},
    {"best_of": "3"},
    {"best_of": 2},
    {"best_of": 0},
], ids=["misspelled-provider-key", "best-of-string", "best-of-even", "best-of-zero"])
def test_tournament_bad_config_is_usage_error(tmp_path, capsys, overrides):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({**scripted_config(tmp_path, count=4), **overrides}),
                           encoding="utf-8")
    assert main(["tournament", str(config_path)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "out").exists()  # rejected before any match was played


def test_report_win_loss_equals_bracket(tmp_path, capsys):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(scripted_config(tmp_path)), encoding="utf-8")
    assert main(["tournament", str(config_path)]) == 0
    out = tmp_path / "out"
    bracket = json.loads((out / "bracket.json").read_text(encoding="utf-8"))
    assert not any(m["end_reason"] == "Forfeit" for rnd in bracket["rounds"] for m in rnd)
    assert main(["report", str(out / "logs"), "--out", str(tmp_path / "report")]) == 0
    report = json.loads((tmp_path / "report" / "report.json").read_text(encoding="utf-8"))
    assert {a: (m["wins"], m["losses"]) for a, m in report["agents"].items()} == {
        s["agent_id"]: (s["wins"], s["losses"]) for s in bracket["standings"]}


def test_tournament_missing_config(tmp_path):
    assert main(["tournament", str(tmp_path / "missing.json")]) == 2


def test_tournament_with_mock_llm_entrants(tmp_path, capsys):
    script = write_mock_script(tmp_path)
    config = {
        "entrants": [
            {"agent_id": f"mock-{i}", "kind": "mock", "script": str(script)}
            for i in range(4)
        ],
        "master_seed": 5,
        "output_dir": str(tmp_path / "out"),
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")
    assert main(["tournament", str(config_path)]) == 0
    out = capsys.readouterr().out
    assert "Champion" in out


# ---------------------------------------------------------------------------
# replay
# ---------------------------------------------------------------------------

@pytest.fixture()
def simulated_log(tmp_path):
    out = tmp_path / "sim"
    assert main(["simulate", "--count", "1", "--seed", "9", "--out", str(out)]) == 0
    return next(out.glob("*.jsonl"))


def test_replay_fresh_log_ok(simulated_log, capsys):
    assert main(["replay", str(simulated_log)]) == 0
    assert "all digests match" in capsys.readouterr().out


def test_replay_corrupted_log(simulated_log, tmp_path, capsys):
    records = [json.loads(line) for line in simulated_log.read_text().splitlines()]
    for record in records:
        if record["kind"] == "events":
            for event in record["events"]:
                if event["kind"] == "Damage":
                    event["amount"] += 5
                    break
            else:
                continue
            break
    corrupted = tmp_path / "corrupted.jsonl"
    corrupted.write_text("\n".join(json.dumps(r) for r in records), encoding="utf-8")
    assert main(["replay", str(corrupted)]) == 1
    assert "turn" in capsys.readouterr().err


def test_replay_incomplete_log(simulated_log, tmp_path, capsys):
    lines = simulated_log.read_text().splitlines()
    partial = tmp_path / "partial.jsonl"
    partial.write_text("\n".join(lines[:5]), encoding="utf-8")
    assert main(["replay", str(partial)]) == 1


def test_replay_missing_file(tmp_path):
    assert main(["replay", str(tmp_path / "nope.jsonl")]) == 2


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------

def test_report_over_simulated_logs(tmp_path, capsys):
    out = tmp_path / "sim"
    assert main(["simulate", "--count", "3", "--seed", "2", "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["report", str(out)]) == 0
    text = capsys.readouterr().out
    assert "WinRate" in text
    assert (out / "report" / "report.json").exists()
    assert (out / "report" / "pick_frequency.csv").exists()
    report = json.loads((out / "report" / "report.json").read_text(encoding="utf-8"))
    for metrics in report["agents"].values():
        assert 0.0 <= metrics["win_rate"] <= 1.0


def test_report_empty_dir(tmp_path):
    assert main(["report", str(tmp_path)]) == 1


def test_usage_error_exit_code_from_argparse():
    with pytest.raises(SystemExit) as excinfo:
        main(["unknown-subcommand"])
    assert excinfo.value.code == 2
