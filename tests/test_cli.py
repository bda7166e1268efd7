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


POOL_ISSUE = "[invariant_violation] pool: a pool of 5 species cannot field a team of 6"


def test_a_pool_smaller_than_a_team_is_rejected_before_any_match(dex_doc, write_dex, tmp_path,
                                                                  simulated_log, capsys):
    path = write_dex({**dex_doc, "pool": dex_doc["pool"][:5]})
    assert main(["dex", "validate", str(path)]) == 1
    assert capsys.readouterr().err == f"{POOL_ISSUE}\n1 issue(s) found\n"
    assert main(["simulate", "--dex", str(path), "--out", str(tmp_path / "five")]) == 2
    assert not (tmp_path / "five").exists()
    assert main(["replay", str(simulated_log), "--dex", str(path)]) == 2
    config_path = tmp_path / "config.json"
    for overrides in ({"dex_path": str(path)}, {"pool": dex_doc["pool"][:5]}, {"pool": []}):
        config_path.write_text(json.dumps({**scripted_config(tmp_path, count=4), **overrides}),
                               encoding="utf-8")
        assert main(["tournament", str(config_path)]) == 2
        assert not (tmp_path / "out").exists()
    errors = capsys.readouterr().err
    assert errors.count(f"error: 1 dex validation issue(s):\n{POOL_ISSUE}\n") == 4
    assert errors.count("error: 1 dex validation issue(s):\n[invariant_violation] pool: "
                        "a pool of 0 species cannot field a team of 6\n") == 1


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


def test_simulate_random_seed_not_an_integer_is_usage_error(tmp_path, capsys):
    assert main(["simulate", "--agent-b", "random:x", "--out", str(tmp_path / "sim")]) == 2
    assert capsys.readouterr().err.startswith("error: unknown scripted agent spec 'random:x'")
    assert not (tmp_path / "sim").exists()


def test_simulate_turn_cap_zero_is_usage_error(tmp_path, capsys):
    assert main(["simulate", "--turn-cap", "0", "--out", str(tmp_path / "sim")]) == 2
    assert capsys.readouterr().err.startswith("error: turn_limit must be")
    assert not (tmp_path / "sim").exists()


def test_simulate_missing_dex_is_usage_error(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    assert main(["simulate", "--dex", str(missing), "--out", str(tmp_path / "sim")]) == 2
    assert capsys.readouterr().err == f"error: dex file not found: {missing}\n"


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


PROVIDER = {"provider": "openai_compatible", "endpoint": "https://x.test", "model": "m",
            "api_key_env": "K"}
RANDOM_ENTRANTS = [{"agent_id": f"random-{i}", "kind": "random", "seed": i} for i in range(3)]


@pytest.mark.parametrize("overrides", [
    {"providers": {"p": {"provider": "openai_compatible", "endpoint": "https://x.test",
                         "modle": "m", "api_key_env": "K"}}},
    {"best_of": "3"},
    {"best_of": 2},
    {"best_of": 0},
    {"turn_limit": "500"},
    {"turn_limit": 0},
    {"jobs": "2"},
    {"jobs": 0},
    {"disqualify_on_failure": "yes"},
    {"draft_per_match": 1},
    {"include_history": None},
    {"providers": {"p": {**PROVIDER, "max_repair_attempts": "3"}}},
    {"providers": {"p": {**PROVIDER, "max_repair_attempts": -1}}},
    {"providers": {"p": {**PROVIDER, "rate_capacity": "5"}}},
    {"providers": {"p": {**PROVIDER, "rate_capacity": 2, "rate_refill_per_s": 0}}},
    {"providers": {"p": {**PROVIDER, "temperature": True}}},
    {"providers": {"p": {**PROVIDER, "max_tokens": 0}}},
    {"providers": {"p": {**PROVIDER, "model": 4}}},
    {"providers": ["p"]},
    {"best_off": 3, "turn_limt": 5},
    {"entrants": RANDOM_ENTRANTS + [{"agent_id": "random-3", "kind": "random", "sead": 3}]},
    {"entrants": RANDOM_ENTRANTS + [{"agent_id": "random-3"}]},
    {"entrants": RANDOM_ENTRANTS + ["random-3"]},
    {"entrants": {"random-0": "random"}},
    {"entrants": RANDOM_ENTRANTS + [{"agent_id": 3, "kind": "random"}]},
    {"entrants": RANDOM_ENTRANTS + [{"agent_id": "mock-3", "kind": "mock", "script": 7}]},
    {"master_seed": "x"},
    {"master_seed": True},
    {"dex_path": 5},
    {"pool": 5},
    {"pool": ["Pikachu", 3]},
    {"output_dir": 7},
    {"tournament_id": 3},
    {"league": {"best_of": 3}},
], ids=["misspelled-provider-key", "best-of-string", "best-of-even", "best-of-zero",
        "turn-limit-string", "turn-limit-zero", "jobs-string", "jobs-zero",
        "disqualify-string", "draft-per-match-int", "include-history-null",
        "repair-attempts-string", "repair-attempts-negative", "rate-capacity-string",
        "rate-never-refills", "temperature-bool", "max-tokens-zero", "model-int",
        "providers-list", "misspelled-top-level-keys", "misspelled-entrant-key",
        "entrant-without-kind", "string-entrant", "entrants-object", "entrant-id-int",
        "mock-script-int", "master-seed-string", "master-seed-bool", "dex-path-int", "pool-int",
        "pool-item-int", "output-dir-int", "tournament-id-int", "nested-league-object"])
def test_tournament_bad_config_is_usage_error(tmp_path, capsys, overrides):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({**scripted_config(tmp_path, count=4), **overrides}),
                           encoding="utf-8")
    assert main(["tournament", str(config_path)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "out").exists()  # rejected before any match was played


@pytest.mark.parametrize("overrides,message", [
    ({"dex_path": "nope.json"}, "error: dex file not found: nope.json\n"),
    ({"entrants": RANDOM_ENTRANTS + [{"agent_id": "mock-3", "kind": "mock",
                                      "script": "nope.json"}]},
     "error: mock entrant 'mock-3': no script file 'nope.json'\n"),
], ids=["dex-path", "mock-script"])
def test_tournament_missing_file_is_usage_error(tmp_path, capsys, monkeypatch, overrides, message):
    monkeypatch.chdir(tmp_path)  # the missing paths are relative
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({**scripted_config(tmp_path, count=4), **overrides}),
                           encoding="utf-8")
    assert main(["tournament", str(config_path)]) == 2
    assert capsys.readouterr().err == message
    assert not (tmp_path / "out").exists()  # rejected before any match was played


@pytest.mark.parametrize("script", [
    '["not", "an", "object"]', '{"team": [1], "action": [2]}', '{"team": "x"}',
    '{"team": [], "action": ["a", null]}', '{"team": [], "action": [], }',
    json.dumps({"teams": MOCK_SCRIPT["team"], "actions": MOCK_SCRIPT["action"]}),
], ids=["list", "int-responses", "string-responses", "null-response", "invalid-json",
        "misspelled-keys"])
def test_tournament_malformed_mock_script_is_usage_error(tmp_path, capsys, script):
    script_path = tmp_path / "script.json"
    script_path.write_text(script, encoding="utf-8")
    entrants = RANDOM_ENTRANTS + [{"agent_id": "mock-3", "kind": "mock", "script": str(script_path)}]
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({**scripted_config(tmp_path, count=4), "entrants": entrants}),
                           encoding="utf-8")
    assert main(["tournament", str(config_path)]) == 2
    assert capsys.readouterr().err.startswith(
        f"error: mock entrant 'mock-3': script {str(script_path)!r} ")
    assert not (tmp_path / "out").exists()  # rejected before any match was played


def test_tournament_config_not_an_object_is_usage_error(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)  # the default output_dir is relative
    config_path = tmp_path / "config.json"
    config_path.write_text("[]", encoding="utf-8")
    assert main(["tournament", str(config_path)]) == 2
    assert capsys.readouterr().err.startswith("error: a tournament config must be an object")
    assert not (tmp_path / "out").exists()


def test_tournament_config_not_json_names_the_file(tmp_path, capsys):
    config_path = tmp_path / "config.json"
    config_path.write_text('{"entrants": [], }', encoding="utf-8")
    assert main(["tournament", str(config_path)]) == 2
    assert capsys.readouterr().err.startswith(
        f"error: config {str(config_path)!r} is not valid JSON: Expecting property name")


def test_tournament_bad_jobs_flag_is_usage_error(tmp_path, capsys):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(scripted_config(tmp_path, count=4)), encoding="utf-8")
    assert main(["tournament", str(config_path), "--jobs", "0"]) == 2
    assert capsys.readouterr().err.startswith("error: jobs must be")
    assert not (tmp_path / "out").exists()


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


def test_replay_missing_dex_is_usage_error(simulated_log, tmp_path, capsys):
    missing = tmp_path / "nope.json"
    assert main(["replay", str(simulated_log), "--dex", str(missing)]) == 2
    assert capsys.readouterr().err == f"error: dex file not found: {missing}\n"


def tamper_illegal_move(records):
    decision = next(r for r in records if r["kind"] == "decision" and r["phase"] == "Battle")
    decision["decision"]["action"] = {"type": "attack", "move_index": 9}


def tamper_missing_pre_digest(records):
    del next(r for r in records if r["kind"] == "events" and r["phase"] == "turn")["pre_digest"]


@pytest.mark.parametrize("tamper", [tamper_illegal_move, tamper_missing_pre_digest])
def test_replay_tampered_log_is_a_clean_failure(simulated_log, tmp_path, capsys, tamper):
    records = [json.loads(line) for line in simulated_log.read_text().splitlines()]
    tamper(records)
    tampered = tmp_path / "tampered.jsonl"
    tampered.write_text("\n".join(json.dumps(r) for r in records), encoding="utf-8")
    assert main(["replay", str(tampered)]) == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_replay_meta_team_of_five_is_a_clean_failure(simulated_log, tmp_path, capsys):
    records = [json.loads(line) for line in simulated_log.read_text().splitlines()]
    del records[0]["team_names"]["a"][5]
    tampered = tmp_path / "five.jsonl"
    tampered.write_text("\n".join(json.dumps(r) for r in records), encoding="utf-8")
    assert main(["replay", str(tampered)]) == 1
    assert capsys.readouterr().err == (
        "error: meta record: each team must have exactly 6 species\n")


def test_log_starting_with_a_list_is_a_clean_failure(simulated_log, tmp_path, capsys):
    logs = tmp_path / "logs"
    logs.mkdir()
    lines = simulated_log.read_text().splitlines()
    (logs / "list.jsonl").write_text("\n".join(["[1,2]", *lines[1:]]), encoding="utf-8")
    for command in (["replay", str(logs / "list.jsonl")], ["report", str(logs)]):
        assert main(command) == 1
        assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("command", [
    ["dex", "validate", "{dir}"],
    ["simulate", "--dex", "{dir}", "--out", "{out}"],
    ["replay", "{log}", "--dex", "{dir}"],
    ["replay", "{dir}"],
    ["tournament", "{dir}"],
    ["tournament", "{config}"],
    ["dex", "validate", ""],
    ["simulate", "--dex", "", "--out", "{out}"],
], ids=["dex-validate", "simulate-dex", "replay-dex", "replay-log", "tournament-config",
        "tournament-dex-path", "dex-validate-empty-path", "simulate-empty-dex-path"])
def test_a_directory_where_a_file_belongs_is_usage_error(simulated_log, tmp_path, capsys,
                                                          command):
    # An empty path is the current directory, not the bundled dex.
    directory = tmp_path / "dir"
    directory.mkdir()
    config_path = tmp_path / "config.json"
    config_path.write_text(
        json.dumps({**scripted_config(tmp_path, count=4), "dex_path": str(directory)}),
        encoding="utf-8")
    paths = {"dir": directory, "out": tmp_path / "out", "log": simulated_log,
             "config": config_path}
    capsys.readouterr()
    assert main([arg.format(**paths) for arg in command]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "out").exists()  # rejected before any match was played


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


def drop_events_key(records):
    del next(r for r in records if r["kind"] == "events" and r["phase"] == "turn")["events"]
    return "'events'"


def drop_reasoning_key(records):
    del next(r for r in records if r["kind"] == "decision")["reasoning"]
    return "'reasoning'"


def drop_action_key(records):
    del next(r for r in records
             if r["kind"] == "decision" and r["phase"] == "Battle")["decision"]["action"]
    return "'action'"


def drop_agents_key(records):
    del records[0]["agents"]
    return "'agents'"


@pytest.mark.parametrize("tamper", [drop_events_key, drop_reasoning_key, drop_action_key,
                                    drop_agents_key])
def test_report_on_record_without_a_key_is_a_clean_failure(simulated_log, tmp_path, capsys,
                                                           tamper):
    logs = tmp_path / "logs"
    logs.mkdir()
    records = [json.loads(line) for line in simulated_log.read_text().splitlines()]
    key = tamper(records)
    tampered = logs / "tampered.jsonl"
    tampered.write_text("\n".join(json.dumps(r) for r in records), encoding="utf-8")
    assert main(["report", str(logs)]) == 1
    assert capsys.readouterr().err == f"error: {tampered}: a record lacks the key {key}\n"


def test_report_empty_dir(tmp_path):
    assert main(["report", str(tmp_path)]) == 1


def test_usage_error_exit_code_from_argparse():
    with pytest.raises(SystemExit) as excinfo:
        main(["unknown-subcommand"])
    assert excinfo.value.code == 2
