"""CLI subcommands and their exit-code contract."""

import errno
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from pokeleague import storage
from pokeleague.agents import AgentProfile
from pokeleague.cli import main
from pokeleague.dex import default_dex_path, load_dex
from pokeleague.gateway import ProviderConfig

from conftest import LOGS_1_3, REPAIRS_SCRIPT, child_env, compact

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


@pytest.mark.parametrize("holder, key, issue", [
    (lambda doc: doc["moves"][0], "power",
     "[invariant_violation] move 'Thunderbolt': power must be an integer >= 0, got True"),
    (lambda doc: doc["species"][0], "dex_id",
     "[invariant_violation] species 'Venusaur': dex_id must be an integer, got True"),
    (lambda doc: doc["chart"]["Fire"], "Water",
     "[invariant_violation] chart[Fire][Water]: multiplier True not in {0, 0.5, 1, 2}"),
], ids=["move", "species", "chart-cell"])
def test_dex_validate_lists_one_defect_once(dex_doc, write_dex, capsys, holder, key, issue):
    """An entry that fails a value check stays a known name: the species that
    list the move, and the pool slot of the species, add no issue; a chart cell
    with a bad value is still present, so the chart is still total."""
    import copy

    doc = copy.deepcopy(dex_doc)
    holder(doc)[key] = True
    assert main(["dex", "validate", str(write_dex(doc))]) == 1
    assert capsys.readouterr().err.splitlines() == [issue, "1 issue(s) found"]


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
    for overrides in ({"dex_path": str(path)}, {"pool": dex_doc["pool"][:5]}, {"pool": []},
                      {"pool": ["Venusaur"] * 6}):
        config_path.write_text(json.dumps({**scripted_config(tmp_path, count=4), **overrides}),
                               encoding="utf-8")
        assert main(["tournament", str(config_path)]) == 2
        assert not (tmp_path / "out").exists()
    errors = capsys.readouterr().err
    assert errors.count(f"error: 1 dex validation issue(s):\n{POOL_ISSUE}\n") == 4
    assert errors.count("error: 1 dex validation issue(s):\n[invariant_violation] pool: "
                        "a pool of 0 species cannot field a team of 6\n") == 1
    assert errors.count("error: 1 dex validation issue(s):\n[invariant_violation] pool: "
                        "pool entries must be distinct\n") == 1


# Bytes that no JSON file reader can decode: not UTF-8 (a UTF-16 byte order
# mark), or nested past the decoder's recursion limit.
NOT_UTF8 = b'\xff\xfe{"kind": "meta"}\n'
TOO_DEEP = b"[" * 100_000


@pytest.mark.parametrize("raw", [NOT_UTF8, TOO_DEEP], ids=["not-utf-8", "too-deep"])
def test_an_undecodable_dex_is_a_malformed_file(tmp_path, capsys, raw):
    path = tmp_path / "dex.json"
    path.write_bytes(raw)
    assert main(["dex", "validate", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"[malformed_file] {path}: invalid JSON: ")
    assert err.endswith("\n1 issue(s) found\n")
    assert main(["simulate", "--dex", str(path), "--out", str(tmp_path / "sim")]) == 2
    assert capsys.readouterr().err.startswith(
        f"error: 1 dex validation issue(s):\n[malformed_file] {path}: invalid JSON: ")
    assert not (tmp_path / "sim").exists()


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


def test_simulate_writes_the_same_bytes_in_each_run(tmp_path, capsys):
    """No record carries a wall-clock "ts", so a rerun writes byte-identical logs."""
    runs = []
    for run in ("first", "second"):
        assert main(["simulate", "--count", "3", "--seed", "5", "--out", str(tmp_path / run)]) == 0
        runs.append({path.name: path.read_bytes() for path in (tmp_path / run).iterdir()})
    assert len(runs[0]) == 3 and runs[0] == runs[1]
    assert not any("ts" in json.loads(line) for raw in runs[0].values() for line in raw.splitlines())


def test_simulate_count_zero_is_usage_error(tmp_path):
    assert main(["simulate", "--count", "0", "--out", str(tmp_path)]) == 2


def test_simulate_bad_agent_spec_is_usage_error(tmp_path, capsys):
    assert main(["simulate", "--agent-a", "minimax", "--count", "1",
                 "--out", str(tmp_path)]) == 2
    # greedy takes no argument.
    assert main(["simulate", "--agent-a", "greedy:junk", "--out", str(tmp_path / "sim")]) == 2
    assert capsys.readouterr().err.splitlines()[-1].startswith(
        "error: unknown scripted agent spec 'greedy:junk'")
    assert not (tmp_path / "sim").exists()


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


def type_error(cls, raw):
    """What cls(**raw) raises on the running interpreter: 3.13 adds "Did you mean" hints."""
    try:
        cls(**raw)
    except TypeError as exc:
        return str(exc)
    raise AssertionError(f"{cls.__name__}(**{raw!r}) raised no TypeError")


MISSPELLED_PROVIDER = {"provider": "openai_compatible", "endpoint": "https://x.test",
                       "modle": "m", "api_key_env": "K"}
MISSPELLED_ENTRANT = {"agent_id": "random-3", "kind": "random", "sead": 3}


# Each case's whole error line: a change to the setting checks must keep every message.
@pytest.mark.parametrize("overrides, message", [
    ({"providers": {"p": MISSPELLED_PROVIDER}},
     f"bad provider config: {type_error(ProviderConfig, MISSPELLED_PROVIDER)}"),
    ({"best_of": "3"}, "best_of must be a positive integer, got '3'"),
    ({"best_of": 2}, "best_of must be a positive odd integer, got 2"),
    ({"best_of": 0}, "best_of must be a positive integer, got 0"),
    ({"turn_limit": "500"}, "turn_limit must be a positive integer, got '500'"),
    ({"turn_limit": 0}, "turn_limit must be a positive integer, got 0"),
    ({"jobs": "2"}, "jobs must be a positive integer, got '2'"),
    ({"jobs": 0}, "jobs must be a positive integer, got 0"),
    ({"disqualify_on_failure": "yes"}, "disqualify_on_failure must be true or false, got 'yes'"),
    ({"draft_per_match": 1}, "draft_per_match must be true or false, got 1"),
    ({"include_history": None}, "include_history must be true or false, got None"),
    ({"providers": {"p": {**PROVIDER, "max_repair_attempts": "3"}}},
     "max_repair_attempts must be an integer >= 0, got '3'"),
    ({"providers": {"p": {**PROVIDER, "max_repair_attempts": -1}}},
     "max_repair_attempts must be an integer >= 0, got -1"),
    ({"providers": {"p": {**PROVIDER, "rate_capacity": "5"}}},
     "rate_capacity must be an integer >= 0, got '5'"),
    ({"providers": {"p": {**PROVIDER, "rate_capacity": 2, "rate_refill_per_s": 0}}},
     "a rate_capacity > 0 needs a rate_refill_per_s > 0, or the bucket never refills"),
    ({"providers": {"p": {**PROVIDER, "temperature": True}}},
     "temperature must be a number, got True"),
    ({"providers": {"p": {**PROVIDER, "temperature": math.nan}}},
     "temperature must be a number, got nan"),
    ({"providers": {"p": {**PROVIDER, "temperature": math.inf}}},
     "temperature must be a number, got inf"),
    ({"providers": {"p": {**PROVIDER, "temperature": -math.inf}}},
     "temperature must be a number, got -inf"),
    ({"providers": {"p": {**PROVIDER, "timeout_s": math.nan}}},
     "timeout_s must be a number > 0, got nan"),
    ({"providers": {"p": {**PROVIDER, "timeout_s": math.inf}}},
     "timeout_s must be a number > 0, got inf"),
    ({"providers": {"p": {**PROVIDER, "rate_refill_per_s": math.nan}}},
     "rate_refill_per_s must be a number >= 0, got nan"),
    ({"providers": {"p": {**PROVIDER, "rate_refill_per_s": math.inf}}},
     "rate_refill_per_s must be a number >= 0, got inf"),
    ({"providers": {"p": {**PROVIDER, "rate_refill_per_s": -math.inf}}},
     "rate_refill_per_s must be a number >= 0, got -inf"),
    ({"providers": {"p": {**PROVIDER, "max_tokens": 0}}},
     "max_tokens must be an integer >= 1, got 0"),
    ({"providers": {"p": {**PROVIDER, "model": 4}}}, "model must be a string, got 4"),
    ({"providers": ["p"]}, "providers must be an object and entrants a list"),
    ({"best_off": 3, "turn_limt": 5}, "unknown config keys: best_off, turn_limt"),
    ({"entrants": RANDOM_ENTRANTS + [MISSPELLED_ENTRANT]},
     f"bad entrant {MISSPELLED_ENTRANT!r}: {type_error(AgentProfile, MISSPELLED_ENTRANT)}"),
    ({"entrants": RANDOM_ENTRANTS + [{"agent_id": "random-3"}]},
     "bad entrant {'agent_id': 'random-3'}: "
     f"{type_error(AgentProfile, {'agent_id': 'random-3'})}"),
    ({"entrants": RANDOM_ENTRANTS + ["random-3"]},
     f"bad entrant 'random-3': {type_error(AgentProfile, 'random-3')}"),
    ({"entrants": {"random-0": "random"}}, "providers must be an object and entrants a list"),
    ({"entrants": RANDOM_ENTRANTS + [{"agent_id": 3, "kind": "random"}]},
     "entrant agent_id must be str, got 3"),
    ({"entrants": RANDOM_ENTRANTS + [{"agent_id": "mock-3", "kind": "mock", "script": 7}]},
     "entrant script must be str, got 7"),
    ({"entrants": RANDOM_ENTRANTS + [{"agent_id": "random-\ud800", "kind": "random"}]},
     "entrant agent_id must not hold a lone surrogate, got 'random-\\ud800'"),
    ({"entrants": RANDOM_ENTRANTS + [{"agent_id": "random-3", "kind": "random",
                                      "display_name": "R\ud800"}]},
     "entrant display_name must not hold a lone surrogate, got 'R\\ud800'"),
    ({"master_seed": "x"}, "master_seed must be an integer, got 'x'"),
    ({"master_seed": True}, "master_seed must be an integer, got True"),
    ({"dex_path": 5}, "dex_path must be a string or null, got 5"),
    ({"pool": 5}, "pool must be a list of species names or null, got 5"),
    ({"pool": ["Pikachu", 3]}, "pool must be a list of species names or null, got ['Pikachu', 3]"),
    ({"output_dir": 7}, "output_dir must be a string, got 7"),
    ({"tournament_id": 3}, "tournament_id must be a string, got 3"),
    ({"league": {"best_of": 3}}, "unknown config keys: league"),
], ids=["misspelled-provider-key", "best-of-string", "best-of-even", "best-of-zero",
        "turn-limit-string", "turn-limit-zero", "jobs-string", "jobs-zero",
        "disqualify-string", "draft-per-match-int", "include-history-null",
        "repair-attempts-string", "repair-attempts-negative", "rate-capacity-string",
        "rate-never-refills", "temperature-bool", "temperature-nan", "temperature-infinity",
        "temperature-minus-infinity", "timeout-nan", "timeout-infinity", "rate-refill-nan",
        "rate-refill-infinity", "rate-refill-minus-infinity", "max-tokens-zero", "model-int",
        "providers-list", "misspelled-top-level-keys", "misspelled-entrant-key",
        "entrant-without-kind", "string-entrant", "entrants-object", "entrant-id-int",
        "mock-script-int", "entrant-id-lone-surrogate", "display-name-lone-surrogate",
        "master-seed-string", "master-seed-bool", "dex-path-int", "pool-int",
        "pool-item-int", "output-dir-int", "tournament-id-int", "nested-league-object"])
def test_tournament_bad_config_is_usage_error(tmp_path, capsys, overrides, message):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({**scripted_config(tmp_path, count=4), **overrides}),
                           encoding="utf-8")
    assert main(["tournament", str(config_path)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
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
    TOO_DEEP.decode(),
], ids=["list", "int-responses", "string-responses", "null-response", "invalid-json",
        "misspelled-keys", "too-deep"])
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
    text = '{"entrants": [], }'
    config_path = tmp_path / "config.json"
    config_path.write_text(text, encoding="utf-8")
    # The running decoder's own message: 3.13 words this one differently from 3.11.
    with pytest.raises(json.JSONDecodeError) as decoded:
        json.loads(text)
    assert main(["tournament", str(config_path)]) == 2
    assert capsys.readouterr().err == (
        f"error: config {str(config_path)!r} is not valid JSON: {decoded.value}\n")


def test_tournament_config_nested_too_deep_is_usage_error(tmp_path, capsys):
    config_path = tmp_path / "config.json"
    config_path.write_bytes(TOO_DEEP)
    assert main(["tournament", str(config_path)]) == 2
    assert capsys.readouterr().err.startswith(
        f"error: config {str(config_path)!r} is not valid JSON: ")


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


@pytest.mark.parametrize("key", [None, ""], ids=["unset", "empty"])
def test_an_llm_entrant_without_its_key_fails_before_any_match(tmp_path, capsys, monkeypatch,
                                                               key):
    """No request could succeed, so the bracket is a config error (exit 2) that names the
    entrant and the variable, and writes nothing; a mock entrant beside it needs no key."""
    monkeypatch.delenv("POKELEAGUE_UNSET_KEY", raising=False)
    if key is not None:
        monkeypatch.setenv("POKELEAGUE_UNSET_KEY", key)
    config = {
        "entrants": [{"agent_id": "mock", "kind": "mock", "script": str(write_mock_script(tmp_path))},
                     {"agent_id": "llm", "kind": "llm", "provider": "p"}],
        "providers": {"p": {**PROVIDER, "api_key_env": "POKELEAGUE_UNSET_KEY"}},
        "master_seed": 2, "output_dir": str(tmp_path / "out")}
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")
    assert main(["tournament", str(config_path)]) == 2
    assert capsys.readouterr().err == (
        "error: llm entrant 'llm': environment variable POKELEAGUE_UNSET_KEY is not set\n")
    assert not (tmp_path / "out").exists()


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


def keys_reordered(record, kind_first):
    """An events record's line with its keys after "kind" reversed, "kind" first
    (the line begins as the encoder's do) or last; any other record's as written."""
    if record["kind"] != "events":
        return compact(record)
    rest = [(key, value) for key, value in record.items() if key != "kind"][::-1]
    kind = [("kind", record["kind"])]
    return compact(dict(kind + rest if kind_first else rest + kind))


# Lines of the same records that replay does not find byte for byte as it
# encodes them, so it decodes them: json.dumps's default separators (as logs
# 1.0-1.2 wrote them) and events records with their keys reordered.
REWRITES = {
    "spaced": json.dumps,
    "reordered-kind-first": lambda record: keys_reordered(record, kind_first=True),
    "reordered-kind-last": lambda record: keys_reordered(record, kind_first=False),
}


def test_replay_fresh_log_ok(simulated_log, tmp_path, capsys):
    assert main(["replay", str(simulated_log)]) == 0
    out = capsys.readouterr().out
    assert "all digests match" in out
    dex = load_dex(default_dex_path())
    for name, rewrite in REWRITES.items():
        rewritten = tmp_path / f"{name}.jsonl"
        rewritten.write_text("".join(rewrite(json.loads(line)) + "\n"
                                     for line in simulated_log.read_text().splitlines()),
                             encoding="utf-8")
        assert rewritten.read_bytes() != simulated_log.read_bytes()
        assert main(["replay", str(rewritten)]) == 0
        assert capsys.readouterr().out == out
        assert storage.replay(rewritten, dex) == storage.replay(simulated_log, dex)


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


@pytest.mark.parametrize("species", ["Missingno"])
def test_replay_meta_team_outside_the_dex_is_a_clean_failure(simulated_log, tmp_path, capsys,
                                                             species):
    records = [json.loads(line) for line in simulated_log.read_text().splitlines()]
    records[0]["team_names"]["b"][3] = species
    tampered = tmp_path / "outside.jsonl"
    tampered.write_text("\n".join(json.dumps(r) for r in records), encoding="utf-8")
    assert main(["replay", str(tampered)]) == 1
    assert capsys.readouterr().err == f"error: meta record: unknown species {species!r}\n"


def test_log_starting_with_a_list_is_a_clean_failure(simulated_log, tmp_path, capsys):
    logs = tmp_path / "logs"
    logs.mkdir()
    lines = simulated_log.read_text().splitlines()
    (logs / "list.jsonl").write_text("\n".join(["[1,2]", *lines[1:]]), encoding="utf-8")
    for command in (["replay", str(logs / "list.jsonl")], ["report", str(logs)]):
        assert main(command) == 1
        assert capsys.readouterr().err.startswith("error: ")


NESTED_TOO_DEEP = f"{{log}}:2: nested deeper than {storage.MAX_NESTING} arrays and objects\n"


@pytest.mark.parametrize("undecodable, error", [
    (lambda lines: [NOT_UTF8], "{log}: not UTF-8 text (invalid start byte)"),
    (lambda lines: [lines[0], TOO_DEEP + b"\n", *lines[1:]], NESTED_TOO_DEEP),
    (lambda lines: [lines[0], b'{"kind": "exchanges", "x": ' + b"[" * 984 + b"]" * 984 + b"}\n",
                    *lines[1:]], NESTED_TOO_DEEP),
    (lambda lines: [lines[0], b'{"kind": "note", "n": ' + b"9" * 5000 + b"}\n", *lines[1:]],
     "{log}:2: invalid JSON: Exceeds the limit"),
], ids=["not-utf-8", "too-deep", "exchanges-985-deep", "integer-of-5000-digits"])
def test_replay_and_report_reject_an_undecodable_log_alike(simulated_log, tmp_path, capsys,
                                                            undecodable, error):
    logs = tmp_path / "logs"
    logs.mkdir()
    tampered = logs / "tampered.jsonl"
    tampered.write_bytes(b"".join(undecodable(simulated_log.read_bytes().splitlines(True))))
    capsys.readouterr()
    assert main(["replay", str(tampered)]) == 1
    replay_err = capsys.readouterr().err
    assert main(["report", str(logs)]) == 1
    assert capsys.readouterr().err == replay_err
    assert replay_err.startswith("error: " + error.format(log=tampered))


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


@pytest.mark.parametrize("command", [
    ["simulate", "--out", "{file}"],
    ["simulate", "--out", "{file}/logs"],
    ["report", "{logs}", "--out", "{file}"],
    ["report", "{logs}", "--out", "{file}/report"],
    ["tournament", "{config}"],
], ids=["simulate-out-file", "simulate-out-under-file", "report-out-file",
        "report-out-under-file", "tournament-output-dir-under-file"])
def test_an_output_path_at_or_under_a_file_is_usage_error(simulated_log, tmp_path, capsys,
                                                          command):
    afile = tmp_path / "afile"
    afile.write_text("not a directory\n", encoding="utf-8")
    config_path = tmp_path / "config.json"
    config_path.write_text(
        json.dumps({**scripted_config(tmp_path, count=2), "output_dir": str(afile / "out")}),
        encoding="utf-8")
    paths = {"file": afile, "logs": simulated_log.parent, "config": config_path}
    capsys.readouterr()
    assert main([arg.format(**paths) for arg in command]) == 2
    assert capsys.readouterr().err.startswith("error: [Errno ")
    assert afile.read_text(encoding="utf-8") == "not a directory\n"


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


def test_report_fails_on_its_last_log_as_replay_does(tmp_path, capsys):
    logs = tmp_path / "logs"
    assert main(["simulate", "--count", "3", "--seed", "2", "--out", str(logs)]) == 0
    last = sorted(logs.glob("*.jsonl"))[-1]
    records = [json.loads(line) for line in last.read_text().splitlines()]
    del first_record(records, "decision", "Battle")["reasoning"]
    last.write_text("\n".join(json.dumps(r) for r in records), encoding="utf-8")
    capsys.readouterr()
    assert main(["replay", str(last)]) == 1
    replay_err = capsys.readouterr().err
    assert main(["report", str(logs)]) == 1
    assert capsys.readouterr().err == replay_err == (
        f"error: {last}: a record lacks the key 'reasoning'\n")
    assert not (logs / "report").exists()


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


def first_record(records, kind, phase):
    return next(r for r in records if r["kind"] == kind and r["phase"] == phase)


# Where each key that read_log requires lives: in a record of a kind, or in
# a mapping inside one.
KEY_HOLDERS = {
    "meta": lambda records: records[0],
    "decision": lambda records: first_record(records, "decision", "Battle"),
    "events": lambda records: first_record(records, "events", "turn"),
    "action": lambda records: first_record(records, "decision", "Battle")["decision"],
    "agents": lambda records: records[0]["agents"],
    "team_names": lambda records: records[0]["team_names"],
    "event": lambda records: first_record(records, "events", "turn")["events"][0],
    "BattleEnded": lambda records: next(e for r in records if r["kind"] == "events"
                                        for e in r["events"] if e["kind"] == "BattleEnded"),
}
REQUIRED_KEYS = [(kind, key) for kind in ("meta", "decision", "events")
                 for key in sorted(storage.RECORD_KEYS[kind])] + [
    ("action", "action"), ("agents", "b"), ("team_names", "a"), ("event", "kind"),
    ("BattleEnded", "winner")]


@pytest.mark.parametrize("holder, key", REQUIRED_KEYS)
def test_replay_and_report_reject_a_missing_key_alike(simulated_log, tmp_path, capsys,
                                                       holder, key):
    logs = tmp_path / "logs"
    logs.mkdir()
    records = [json.loads(line) for line in simulated_log.read_text().splitlines()]
    del KEY_HOLDERS[holder](records)[key]
    tampered = logs / "tampered.jsonl"
    tampered.write_text("\n".join(json.dumps(r) for r in records), encoding="utf-8")
    capsys.readouterr()
    assert main(["replay", str(tampered)]) == 1
    replay_err = capsys.readouterr().err
    assert main(["report", str(logs)]) == 1
    assert capsys.readouterr().err == replay_err == (
        f"error: {tampered}: a record lacks the key '{key}'\n")


@pytest.mark.parametrize("payload, detail", [
    ({"type": "attack"}, "attack without integer move_index: None"),
    ({"type": "attack", "move_index": "0"}, "attack without integer move_index: '0'"),
    ({"type": "attack", "move_index": 0.9}, "attack without integer move_index: 0.9"),
    ({"type": "attack", "move_index": False}, "attack without integer move_index: False"),
    ({"type": "fly", "move_index": 0}, "unknown action type 'fly'"),
    (3, "not an action object: 3"),
], ids=["no-index", "string-index", "float-index", "bool-index", "unknown-type", "not-an-object"])
def test_replay_and_report_reject_a_malformed_action_alike(simulated_log, tmp_path, capsys,
                                                           payload, detail):
    logs = tmp_path / "logs"
    logs.mkdir()
    records = [json.loads(line) for line in simulated_log.read_text().splitlines()]
    first_record(records, "decision", "Battle")["decision"]["action"] = payload
    tampered = logs / "tampered.jsonl"
    tampered.write_text("\n".join(json.dumps(r) for r in records), encoding="utf-8")
    capsys.readouterr()
    assert main(["replay", str(tampered)]) == 1
    replay_err = capsys.readouterr().err
    assert main(["report", str(logs)]) == 1
    assert capsys.readouterr().err == replay_err == (
        f"error: {tampered}: turn 1: side 0: unreadable action: {detail}\n")


def set_in(holder, key, value):
    """A tamper that sets holder(records)[key] to value (see KEY_HOLDERS)."""
    return lambda records: KEY_HOLDERS[holder](records).__setitem__(key, value)


def drop_attacks(records):
    del KEY_HOLDERS["decision"](records)["context"]["attacks"]


def context_attacks(records):
    return KEY_HOLDERS["decision"](records)["context"]["attacks"]


def agent_of_side_a(value):
    """A tamper that sets the meta agent of side a, and its decisions' agent_id, to value."""
    def tamper(records):
        for record in records:
            if record["kind"] == "decision" and record["side"] == 0:
                record["agent_id"] = value
        records[0]["agents"]["a"] = value
    return tamper


NO_CONTEXT = "context is not an object holding own_hp_percent, switches and attacks"
NO_ATTACK = "context attack is not an object holding move_index, effectiveness and expected_damage"
NO_ROW = "context attack is not a [move_index, effectiveness, expected_damage] row"
# The log each case tampers with: NOW is the simulate log the fixture writes
# (schema 2.0, attacks as rows); AT_1_3 is the 1.3 simulate fixture (attacks
# as objects), which keeps each 1.x attack case with its 1.x text.
NOW = None
AT_1_3 = LOGS_1_3 / "sim0.jsonl"
# json.dumps writes an infinity as Infinity; this string becomes the literal
# 1e400, which json.loads also reads as inf.
AS_1E400 = "<1e400>"


def set_row(item, value):
    """A tamper that sets item of the first attack row to value."""
    return lambda records: context_attacks(records)[0].__setitem__(item, value)


def unlist_attack_0(records):
    """Choose attack 0 and drop its row from the attacks."""
    KEY_HOLDERS["action"](records)["action"] = {"type": "attack", "move_index": 0}
    rows = context_attacks(records)
    rows[:] = [row for row in rows if row[0] != 0]


# A value of a type or range that replay or the metrics cannot use, and the
# error that follows the log's path ({end}: the turn of the BattleEnded event).
@pytest.mark.parametrize("log, tamper, error", [
    pytest.param(NOW, set_in("decision", "agent_id", "nobody"),
                 "turn 1: side 0: agent 'nobody' does not play this side", id="other-agent"),
    pytest.param(NOW, set_in("decision", "side", 7), "turn 1: side 7: side is not 0 or 1",
                 id="side-7"),
    pytest.param(NOW, set_in("decision", "decision", 5),
                 "turn 1: side 0: decision is not an object", id="decision-5"),
    pytest.param(NOW, set_in("decision", "reasoning", 5),
                 "turn 1: side 0: reasoning is not a string", id="reasoning-5"),
    pytest.param(NOW, set_in("decision", "context", None), f"turn 1: side 0: {NO_CONTEXT}",
                 id="null-context"),
    pytest.param(NOW, drop_attacks, f"turn 1: side 0: {NO_CONTEXT}", id="no-attacks"),
    pytest.param(AT_1_3, lambda records: context_attacks(records)[0].pop("expected_damage"),
                 f"turn 1: side 0: {NO_ATTACK}", id="attack-without-damage"),
    pytest.param(AT_1_3, lambda records: context_attacks(records).insert(0, 5),
                 f"turn 1: side 0: {NO_ATTACK}", id="attack-5"),
    pytest.param(AT_1_3, lambda records: context_attacks(records)[0].update(effectiveness=True),
                 f"turn 1: side 0: {NO_ATTACK}", id="bool-effectiveness"),
    pytest.param(NOW, lambda records: KEY_HOLDERS["decision"](records)["context"].update(
                     own_hp_percent=float("nan")),
                 "turn 1: side 0: context own_hp_percent nan is not finite", id="nan-hp"),
    pytest.param(AT_1_3, lambda records: context_attacks(records)[0].update(
                     effectiveness=float("inf")),
                 "turn 1: side 0: context attack 0: effectiveness inf is not finite",
                 id="infinite-effectiveness"),
    pytest.param(AT_1_3, lambda records: context_attacks(records)[0].update(
                     expected_damage=float("-inf")),
                 "turn 1: side 0: context attack 0: expected_damage -inf is not finite",
                 id="negative-infinite-damage"),
    pytest.param(NOW, lambda records: KEY_HOLDERS["decision"](records)["context"].update(
                     own_hp_percent=10**400),
                 f"turn 1: side 0: context own_hp_percent {10**400} is not finite",
                 id="hp-past-any-float"),
    pytest.param(AT_1_3, set_in("action", "action", {"type": "attack", "move_index": 9}),
                 "turn 1: side 0: illegal action attack:9", id="unlisted-attack"),
    pytest.param(NOW, lambda records: context_attacks(records)[0].pop(),
                 f"turn 1: side 0: {NO_ROW}", id="row-of-2"),
    pytest.param(NOW, lambda records: context_attacks(records)[0].append(0),
                 f"turn 1: side 0: {NO_ROW}", id="row-of-4"),
    pytest.param(NOW, lambda records: context_attacks(records).insert(0, 5),
                 f"turn 1: side 0: {NO_ROW}", id="row-5"),
    pytest.param(NOW, lambda records: context_attacks(records).insert(
                     0, {"move_index": 0, "effectiveness": 1.0, "expected_damage": 9}),
                 f"turn 1: side 0: {NO_ROW}", id="row-object"),
    pytest.param(NOW, set_row(0, True), f"turn 1: side 0: {NO_ROW}", id="row-bool-index"),
    pytest.param(NOW, set_row(1, True), f"turn 1: side 0: {NO_ROW}", id="row-bool-effectiveness"),
    pytest.param(NOW, set_row(2, "240"), f"turn 1: side 0: {NO_ROW}", id="row-string-damage"),
    pytest.param(NOW, set_row(0, "0"), f"turn 1: side 0: {NO_ROW}", id="row-string-index"),
    pytest.param(NOW, set_row(1, float("nan")),
                 "turn 1: side 0: context attack 0: effectiveness nan is not finite",
                 id="row-nan-effectiveness"),
    pytest.param(NOW, set_row(2, AS_1E400),
                 "turn 1: side 0: context attack 0: expected_damage inf is not finite",
                 id="row-1e400-damage"),
    pytest.param(NOW, unlist_attack_0, "turn 1: side 0: illegal action attack:0",
                 id="row-unlisted-attack"),
    pytest.param(NOW, set_in("BattleEnded", "winner", 5),
                 "turn {end}: BattleEnded winner 5 is not 0 or 1", id="winner-5"),
    pytest.param(NOW, set_in("agents", "b", "a-greedy"),
                 "meta record: agent 'a-greedy' plays both sides", id="one-agent"),
    pytest.param(NOW, agent_of_side_a(1), "meta record: agents 'a' is not a string",
                 id="agent-int"),
    pytest.param(NOW, agent_of_side_a(["x"]), "meta record: agents 'a' is not a string",
                 id="agent-list"),
    pytest.param(NOW, set_in("meta", "seed", "9"), "meta record: seed is not an integer",
                 id="string-seed"),
    pytest.param(NOW, set_in("meta", "turn_limit", 500.0),
                 "meta record: turn_limit is not an integer", id="float-turn-limit"),
    pytest.param(NOW, set_in("meta", "agents", "ab"), "meta record: agents is not an object",
                 id="agents-string"),
    pytest.param(NOW, set_in("meta", "agents", None), "meta record: agents is not an object",
                 id="agents-null"),
    pytest.param(NOW, set_in("meta", "team_names", "ab"),
                 "meta record: team_names is not an object", id="team-names-string"),
    pytest.param(NOW, set_in("meta", "team_names", None),
                 "meta record: team_names is not an object", id="team-names-null"),
    pytest.param(NOW, set_in("events", "events", 7), "turn 1: events is not a list",
                 id="events-7"),
    pytest.param(NOW, set_in("events", "events", [3]), "turn 1: an event is not an object",
                 id="event-3"),
    pytest.param(NOW, set_in("team_names", "b", 5), "meta record: team_names 'b' is not a list",
                 id="team-5"),
    pytest.param(NOW, set_in("team_names", "a", "abcdef"),
                 "meta record: team_names 'a' is not a list", id="team-string"),
    pytest.param(NOW, lambda records: records[0]["team_names"]["b"].__setitem__(3, None),
                 "meta record: team_names 'b' holds a non-string", id="team-entry-null"),
])
def test_replay_and_report_reject_a_bad_value_alike(simulated_log, tmp_path, capsys,
                                                    log, tamper, error):
    logs = tmp_path / "logs"
    logs.mkdir()
    records = [json.loads(line) for line in (log or simulated_log).read_text().splitlines()]
    end = next(r["turn"] for r in records if r["kind"] == "events"
               and any(e["kind"] == "BattleEnded" for e in r["events"]))
    tamper(records)
    tampered = logs / "tampered.jsonl"
    tampered.write_text("\n".join(json.dumps(r) for r in records).replace(
        json.dumps(AS_1E400), "1e400"), encoding="utf-8")
    capsys.readouterr()
    assert main(["replay", str(tampered)]) == 1
    replay_err = capsys.readouterr().err
    assert main(["report", str(logs)]) == 1
    assert capsys.readouterr().err == replay_err == (
        f"error: {tampered}: {error.format(end=end)}\n")


@pytest.fixture()
def mock_log(tmp_path):
    """The game log of a two-entrant mock-LLM tournament whose replies force repairs."""
    script = tmp_path / "repairs.json"
    script.write_text(json.dumps({"team": ["No team.", *MOCK_SCRIPT["team"]],
                                  "action": ["No JSON here.", *MOCK_SCRIPT["action"]]}),
                      encoding="utf-8")
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "entrants": [{"agent_id": f"mock-{i}", "kind": "mock", "script": str(script)}
                     for i in range(2)],
        "output_dir": str(tmp_path / "out")}), encoding="utf-8")
    assert main(["tournament", str(config)]) == 0
    return next((tmp_path / "out" / "logs").rglob("*.jsonl"))


def exchanges_lines(lines):
    return [i for i, line in enumerate(lines) if json.loads(line)["kind"] == "exchanges"]


def test_replay_and_report_reject_a_truncated_exchanges_line_alike(mock_log, tmp_path, capsys):
    logs = tmp_path / "logs"
    logs.mkdir()
    lines = mock_log.read_text(encoding="utf-8").splitlines()
    index = exchanges_lines(lines)[0]
    lines[index] = lines[index][:len(lines[index]) // 2]
    tampered = logs / "tampered.jsonl"
    tampered.write_text("\n".join(lines), encoding="utf-8")
    capsys.readouterr()
    assert main(["replay", str(tampered)]) == 1
    replay_err = capsys.readouterr().err
    assert main(["report", str(logs)]) == 1
    assert capsys.readouterr().err == replay_err
    assert replay_err.startswith(f"error: {tampered}:{index + 1}: invalid JSON: ")


def test_exchanges_records_are_skipped_unchecked(mock_log, tmp_path, capsys):
    """An exchanges line must be a JSON object; nothing inside it is read."""
    lines = mock_log.read_text(encoding="utf-8").splitlines()
    assert exchanges_lines(lines)
    for index in exchanges_lines(lines):
        lines[index] = '{"kind": "exchanges", "exchanges": 3}'
    logs = tmp_path / "logs"
    logs.mkdir()
    (logs / mock_log.name).write_text("\n".join(lines), encoding="utf-8")
    outputs = []
    for log_dir in (mock_log.parent, logs):
        assert main(["replay", str(log_dir / mock_log.name)]) == 0
        assert main(["report", str(log_dir), "--out", str(log_dir / "report")]) == 0
        outputs.append((capsys.readouterr().out.splitlines()[0],
                        (log_dir / "report" / "report.json").read_bytes()))
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("kind", [["decision"], {"kind": "events"}], ids=["list", "object"])
def test_a_record_whose_kind_is_not_a_string_is_skipped(simulated_log, tmp_path, capsys, kind):
    """Like a record without a kind, it is of no kind read_log checks."""
    lines = simulated_log.read_text(encoding="utf-8").splitlines()
    lines.insert(1, json.dumps({"kind": kind}))
    logs = tmp_path / "logs"
    logs.mkdir()
    (logs / simulated_log.name).write_text("\n".join(lines), encoding="utf-8")
    outputs = []
    for log_dir in (simulated_log.parent, logs):
        assert main(["replay", str(log_dir / simulated_log.name)]) == 0
        assert main(["report", str(log_dir), "--out", str(log_dir / "report")]) == 0
        outputs.append((capsys.readouterr().out.splitlines()[0],
                        (log_dir / "report" / "report.json").read_bytes()))
    assert outputs[0] == outputs[1]


# Logs written at schema 1.0: two simulate games and a mock entrant's game
# with repairs and fallbacks.  Their contexts also hold the species, types,
# weather and each attack's move and type, each decision repeats the match
# id, and the meta record repeats the draft indices as "teams".
LOGS_1_0 = Path(__file__).parent / "data" / "logs-1.0"
# Logs written at schema 1.2, with ", " and ": " separators and no meta
# "game_index": a simulate game and a mock entrant's game with repairs and
# fallbacks.
LOGS_1_2 = Path(__file__).parent / "data" / "logs-1.2"
# LOGS_1_3 (from conftest) holds a 1.3 simulate game and a 1.3 mock
# entrant's game with repairs and fallbacks, each with a meta "game_index".
# Logs written at schema 2.0, each meta and decision record with a wall-clock
# "ts": simulate --count 2 --seed 8 (sim0, sim1) and the three game logs of
# LOGS_2_0_BRACKET, whose mock entrants play REPAIRS_SCRIPT.
LOGS_2_0 = Path(__file__).parent / "data" / "logs-2.0"
LOGS_2_0_BRACKET = {
    "entrants": [{"agent_id": "mock-0", "kind": "mock"},
                 {"agent_id": "random-1", "kind": "random", "seed": 1},
                 {"agent_id": "mock-2", "kind": "mock"},
                 {"agent_id": "greedy-3", "kind": "greedy"}],
    "master_seed": 9, "turn_limit": 20,
}


def log_id(value):
    """A 1.0 log is named by its file name, a later one also by its directory."""
    if isinstance(value, Path):
        return value.name if value.parent == LOGS_1_0 else f"{value.parent.name}/{value.name}"
    return None


@pytest.mark.parametrize("log, outcome", [
    (LOGS_1_0 / "mock-r0m0.jsonl", "winner side 1 (random-1) after 16 turn(s)"),
    (LOGS_1_0 / "sim0.jsonl", "winner side 0 (a-greedy) after 13 turn(s)"),
    (LOGS_1_0 / "sim1.jsonl", "winner side 0 (a-greedy) after 10 turn(s)"),
    (LOGS_1_2 / "mock-r0m0.jsonl", "winner side 0 (mock-0) after 20 turn(s)"),
    (LOGS_1_2 / "sim0.jsonl", "winner side 0 (a-greedy) after 13 turn(s)"),
    (LOGS_1_3 / "mock-r0m0.jsonl", "winner side 0 (mock-0) after 20 turn(s)"),
    (LOGS_1_3 / "sim0.jsonl", "winner side 0 (a-greedy) after 12 turn(s)"),
    (LOGS_2_0 / "r0m0.jsonl", "winner side 0 (mock-0) after 20 turn(s)"),
    (LOGS_2_0 / "r0m1.jsonl", "winner side 1 (greedy-3) after 8 turn(s)"),
    (LOGS_2_0 / "r1m0.jsonl", "winner side 1 (greedy-3) after 8 turn(s)"),
    (LOGS_2_0 / "sim0.jsonl", "winner side 0 (a-greedy) after 14 turn(s)"),
    (LOGS_2_0 / "sim1.jsonl", "winner side 0 (a-greedy) after 13 turn(s)"),
], ids=log_id)
def test_a_1_0_log_replays_as_it_did(capsys, log, outcome):
    meta = storage.read_log(log).meta
    version = {LOGS_1_0: "1.0", LOGS_1_2: "1.2", LOGS_1_3: "1.3", LOGS_2_0: "2.0"}[log.parent]
    assert (meta["schema_version"], "teams" in meta, "game_index" in meta) == (
        version, version == "1.0", version in ("1.3", "2.0"))
    assert main(["replay", str(log)]) == 0
    assert capsys.readouterr().out == f"ok: {outcome}; all digests match\n"


def test_report_over_1_0_logs_is_unchanged(tmp_path, capsys):
    """Nor is it over the 1.2, 1.3 or 2.0 logs: each set gives the bytes it gave when
    written."""
    for logs, expected in {
        LOGS_1_0: {
            "report.json": "a8fb8cf9a6c7e806fd0c0503780ac3e36aad6a2cd392f34ca8040a54e95d0716",
            "report.txt": "4c1ead4fabc5205bd9af9e6920f711f107dc65783af443134108dcaf7a057969",
            "pick_frequency.csv":
                "1bb9592b723caa8d5fcf45f25438a6d5b7fe797e5593b9dc13256dd8ac9f0a5d",
        },
        LOGS_1_2: {
            "report.json": "f164dede3ad46e5ccaeadab583c48087dcac954515a89f47d4e1cd6f5ffefaf4",
            "report.txt": "a2de41a2e44419065049342fc47a3bed5b4e7a9deb74cbeac65c504f6be48525",
            "pick_frequency.csv":
                "6b77f5089705817dbcf6cae35168a7b5ee5a09c948fd717a2070c2140fc80286",
        },
        LOGS_1_3: {
            "report.json": "9046efd48d2c7d949e13e0da606d00eedbaf86c9935982686ff4b5dddf85abab",
            "report.txt": "88bf5798c15c7ea350e9cc4dacbaf31be55df19fd0621bdaac631d5d66fa0652",
            "pick_frequency.csv":
                "6b77f5089705817dbcf6cae35168a7b5ee5a09c948fd717a2070c2140fc80286",
        },
        LOGS_2_0: {
            "report.json": "950b3a56a22906d5b3ca72331c3fd9e1aa56eb507f7f4d5dcbc6e37b1517eb95",
            "report.txt": "a8da53fb54c2febef97d9f8a248d14340cce8ca07c02fe8b58ead4417e5806a3",
            "pick_frequency.csv":
                "9ef81348a7bdb27038c0e236c2fc057db6f8f976a4a050e5f2ee101c79d4e314",
        },
    }.items():
        out = tmp_path / logs.name
        assert main(["report", str(logs), "--out", str(out)]) == 0
        assert {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
                for name in expected} == expected


def test_2_0_logs_read_and_report_as_the_same_runs_written_now(tmp_path, capsys):
    """The LOGS_2_0 runs, made again, write 2.1 logs whose records equal the
    fixture's but for the meta schema_version and the 2.0 ts stamps, and the
    two log sets report to the same bytes."""
    now = tmp_path / "now"
    assert main(["simulate", "--count", "2", "--seed", "8", "--out", str(now)]) == 0
    script = tmp_path / "script.json"
    script.write_text(json.dumps(REPAIRS_SCRIPT), encoding="utf-8")
    entrants = [{**e, "script": str(script)} if e["kind"] == "mock" else e
                for e in LOGS_2_0_BRACKET["entrants"]]
    config = tmp_path / "bracket.json"
    config.write_text(json.dumps({**LOGS_2_0_BRACKET, "entrants": entrants,
                                  "output_dir": str(tmp_path / "bracket")}), encoding="utf-8")
    assert main(["tournament", str(config)]) == 0
    for log in (tmp_path / "bracket" / "logs" / "t9").iterdir():
        log.rename(now / log.name)
    names = sorted(path.name for path in LOGS_2_0.iterdir())
    assert sorted(path.name for path in now.iterdir()) == names
    for name in names:
        then, written = ([json.loads(line) for line in (logs / name).read_bytes().splitlines()]
                         for logs in (LOGS_2_0, now))
        assert (then[0].pop("schema_version"), written[0].pop("schema_version")) == ("2.0", "2.1")
        assert [{k: v for k, v in r.items() if k != "ts"} for r in then] == written
    reports = []
    for logs in (LOGS_2_0, now):
        assert main(["report", str(logs), "--out", str(tmp_path / f"report-{logs.name}")]) == 0
        reports.append({name: (tmp_path / f"report-{logs.name}" / name).read_bytes()
                        for name in ("report.json", "report.txt", "pick_frequency.csv")})
    assert reports[0] == reports[1]


def test_report_skips_a_directory_named_like_a_log(tmp_path, capsys):
    logs = tmp_path / "logs"
    assert main(["simulate", "--count", "2", "--seed", "3", "--out", str(logs)]) == 0
    assert main(["report", str(logs), "--out", str(tmp_path / "without")]) == 0
    (logs / "x.jsonl").mkdir()
    assert main(["report", str(logs), "--out", str(tmp_path / "with")]) == 0
    for name in ("report.json", "report.txt", "pick_frequency.csv"):
        assert (tmp_path / "with" / name).read_bytes() == (
            tmp_path / "without" / name).read_bytes()


@pytest.mark.parametrize("unbuffered", ["1", ""], ids=["unbuffered", "buffered"])
def test_report_into_a_closed_pipe_exits_1_quietly(simulated_log, tmp_path, unbuffered):
    """report | head: a reader that closed stdout early gets exit 1 and no traceback,
    whether print meets the closed pipe or the flush after the command does, and the
    report files are written in full before anything is printed."""
    logs = simulated_log.parent
    assert main(["report", str(logs), "--out", str(tmp_path / "expected")]) == 0
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        child = subprocess.run(
            [sys.executable, "-m", "pokeleague.cli", "report", str(logs),
             "--out", str(tmp_path / "piped")],
            stdout=write_end, stderr=subprocess.PIPE, env=child_env(PYTHONUNBUFFERED=unbuffered),
            timeout=60)
    finally:
        os.close(write_end)
    assert (child.returncode, child.stderr) == (1, b"")
    for name in ("report.json", "report.txt", "pick_frequency.csv"):
        assert ((tmp_path / "piped" / name).read_bytes()
                == (tmp_path / "expected" / name).read_bytes())


def test_report_empty_dir(tmp_path):
    assert main(["report", str(tmp_path)]) == 1


def test_report_on_a_missing_path_is_usage_error(tmp_path, capsys):
    missing = tmp_path / "nowhere"
    assert main(["report", str(missing)]) == 2
    assert capsys.readouterr().err == (
        f"error: [Errno {errno.ENOENT}] No such file or directory: {str(missing)!r}\n")
    assert not missing.exists()


def test_report_on_a_file_is_usage_error(simulated_log, capsys):
    assert main(["report", str(simulated_log)]) == 2
    assert capsys.readouterr().err == (
        f"error: [Errno {errno.ENOTDIR}] Not a directory: {str(simulated_log)!r}\n")


def test_usage_error_exit_code_from_argparse():
    with pytest.raises(SystemExit) as excinfo:
        main(["unknown-subcommand"])
    assert excinfo.value.code == 2
