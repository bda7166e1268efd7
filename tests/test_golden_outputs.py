"""Golden SHA-256 of every output of two fixed-seed tournaments and a simulate batch.

Two 8-entrant brackets of mock-LLM, greedy and random entrants run
through `pokeleague tournament` and `pokeleague report`: best-of-1 with a
draft per match, and best-of-3 with one draft per entrant.  The mock
scripts yield clean replies, repairs and fallbacks; one entrant never
drafts a valid team.  Every log, bracket, standings and report file is
hashed as written.  A `pokeleague simulate` batch of random-vs-random
games, long and with forced replacements on both sides, pins the random
baseline's decisions.  A change that alters any of these bytes changes a
hash here.
"""

import hashlib
import json

import pytest

from pokeleague.cli import main

from conftest import REPAIRS_SCRIPT, logged_decisions

STUBBORN_SCRIPT = {"team": ["I cannot choose."], "action": REPAIRS_SCRIPT["action"]}

ENTRANTS = [
    {"agent_id": "mock-0", "kind": "mock", "display_name": "Mock Zero"},
    {"agent_id": "random-1", "kind": "random", "seed": 1},
    {"agent_id": "greedy-0", "kind": "greedy", "display_name": "Greedy Zero"},
    {"agent_id": "mock-1", "kind": "mock"},
    {"agent_id": "random-2", "kind": "random", "seed": 2},
    {"agent_id": "mock-2", "kind": "mock", "script": "stubborn.json"},
    {"agent_id": "greedy-1", "kind": "greedy"},
    {"agent_id": "random-3", "kind": "random", "seed": 3},
]

GOLDEN = {
    "bo1-draft-per-match": {
        "bracket.json": "8d6d59e6379f63fdf53d84d0898bc6a63d642eabafaef7e3d5360a2b2c331cf3",
        "standings.txt": "c852fdfac325cc72bbd69ada9bb833727d1ea8dabb6fb27928e38cc4ed8eb2e4",
        "report.json": "51e948b9a8f8a5d8689fdfb23aa8e64eed87cb40bab12930efc8abec6430592f",
        "report.txt": "0568ed680d9f8f54abec2628c092738e282cd47d1abbe9c84d12f18077b8f095",
        "pick_frequency.csv": "7644fdd1fc5bf5e35b35dfe391a5da855c7889337a9cff0e9370dacf00f8d57c",
        "logs": "30889077e27746e3a55907d343b479c860fe2015fec877a959f52dd7c2df53a6",
    },
    "bo3-draft-once": {
        "bracket.json": "1f19935bdf94350f5dab40ec5a676d5eff73b764b3e054b10cef166ebd86f36c",
        "standings.txt": "c852fdfac325cc72bbd69ada9bb833727d1ea8dabb6fb27928e38cc4ed8eb2e4",
        "report.json": "c06228175a0d1cc482069fb6dc0d66f039bc3c034e3cc34406e34dc14e500e17",
        "report.txt": "1e7113acd5690f5be7dc90fc2c4ba8a2b2f00b88f1ae57f122b21f64d16db469",
        "pick_frequency.csv": "f9572f53067f9aafebdf6522ea157518a80895abfbf2b8949f87859b3dde26a3",
        "logs": "33775d84d942abc71a461610c1bd3a8db717bd15b961b1d533bb2a5a5e4fb49b",
    },
}

LEAGUES = {
    "bo1-draft-per-match": {"master_seed": 2025, "best_of": 1, "draft_per_match": True},
    "bo3-draft-once": {"master_seed": 7, "best_of": 3, "draft_per_match": False},
}


def tournament_digests(tmp_path, league: dict) -> tuple[dict[str, str], list[tuple]]:
    """Run one tournament and its report; return the digests and every decision record,
    paired with its exchanges (logged_decisions)."""
    for name, script in (("script.json", REPAIRS_SCRIPT), ("stubborn.json", STUBBORN_SCRIPT)):
        (tmp_path / name).write_text(json.dumps(script), encoding="utf-8")
    out = tmp_path / "out"
    entrants = [{**e, "script": str(tmp_path / e.get("script", "script.json"))}
                if e["kind"] == "mock" else e for e in ENTRANTS]
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"entrants": entrants, "output_dir": str(out), **league}),
                      encoding="utf-8")
    assert main(["tournament", str(config)]) == 0
    assert main(["report", str(out / "logs"), "--out", str(tmp_path / "report")]) == 0

    digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
               for name in ("bracket.json", "standings.txt")}
    for name in ("report.json", "report.txt", "pick_frequency.csv"):
        digests[name] = hashlib.sha256((tmp_path / "report" / name).read_bytes()).hexdigest()
    logs = hashlib.sha256()
    decisions = []
    for path in sorted((out / "logs").rglob("*.jsonl")):
        logs.update(path.relative_to(out / "logs").as_posix().encode() + b"\0")
        logs.update(path.read_bytes() + b"\0")
        decisions += logged_decisions(path)
    digests["logs"] = logs.hexdigest()
    return digests, decisions


@pytest.mark.parametrize("name", sorted(LEAGUES))
def test_tournament_outputs_are_byte_identical(tmp_path, capsys, name):
    digests, decisions = tournament_digests(tmp_path, LEAGUES[name])
    capsys.readouterr()
    # The scripts exercise the repair loop and both kinds of fallback.
    mock = [(d, exchanges) for d, exchanges in decisions if d["agent_id"].startswith("mock-")]
    assert any(len(exchanges) > 1 and not d["fallback_used"] for d, exchanges in mock)
    assert any(d["fallback_used"] and d["phase"] == "Battle" for d, _ in mock)
    assert any(d["fallback_used"] and d["phase"] == "TeamSelect" for d, _ in mock)
    assert digests == GOLDEN[name]


# pokeleague simulate --agent-a random:1 --agent-b random:2 --count 3 --seed 0:
# the SHA-256 of each log's name and bytes, in name order.
SIMULATE_RANDOM_LOGS = "20188c2068411581a9ef90eef8b85030287b1ebc7d33db9a5bdcd06f445ead30"


def test_random_vs_random_simulate_logs_are_byte_identical(tmp_path, capsys):
    out = tmp_path / "logs"
    assert main(["simulate", "--agent-a", "random:1", "--agent-b", "random:2", "--count", "3",
                 "--seed", "0", "--out", str(out)]) == 0
    capsys.readouterr()
    logs = hashlib.sha256()
    phases = set()
    for path in sorted(out.rglob("*.jsonl")):
        logs.update(path.relative_to(out).as_posix().encode() + b"\0")
        logs.update(path.read_bytes() + b"\0")
        phases |= {(d["phase"], d["side"]) for d, _ in logged_decisions(path)}
    # Both sides make forced replacements, the path their decisions share with battle turns.
    assert {("ForcedReplace", 0), ("ForcedReplace", 1)} <= phases
    assert logs.hexdigest() == SIMULATE_RANDOM_LOGS
