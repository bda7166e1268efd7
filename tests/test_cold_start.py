"""Each process imports only the code it runs.

Every check starts a fresh interpreter, since this test process has long
since imported everything.  requests loads on the first provider call,
the thread pool on the first round with jobs > 1, and the league (with
the gateway and the prompt protocol) only for simulate and tournament.
replay loads no prompts yet: it checks no logged prompt.
"""

import ast
import json
import subprocess
import sys
from pathlib import Path

import pytest

from pokeleague.cli import main
from pokeleague.dex import default_dex_path

from conftest import SRC, child_env

LAZY = ("concurrent.futures", "pokeleague.gateway", "pokeleague.league", "pokeleague.prompts",
        "requests")


def loaded_after(code: str, cwd: Path) -> list[str]:
    """The LAZY modules in sys.modules after a fresh interpreter runs code."""
    probe = (f"{code}\nimport json, sys\n"
             f"print(json.dumps([m for m in {LAZY!r} if m in sys.modules]))")
    child = subprocess.run([sys.executable, "-c", probe], cwd=cwd, env=child_env(),
                           capture_output=True, text=True, timeout=60)
    assert child.returncode == 0, child.stderr
    return json.loads(child.stdout.splitlines()[-1])


def test_importing_the_cli_loads_no_match_code(tmp_path):
    assert loaded_after("import pokeleague.cli", tmp_path) == []


def test_importing_the_league_loads_neither_requests_nor_the_thread_pool(tmp_path):
    assert loaded_after("import pokeleague.league", tmp_path) == [
        "pokeleague.gateway", "pokeleague.league", "pokeleague.prompts"]


def test_the_prompt_protocol_imports_no_io():
    """prompts imports no threading, os, time or requests, and nothing of the gateway,
    league or storage, wherever in the module.  Read from its source, since a
    sys.modules probe cannot tell: the interpreter loads threading at startup."""
    tree = ast.parse((SRC / "pokeleague" / "prompts.py").read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add("." * node.level + (node.module or ""))
    assert imported == {"__future__", "json", "typing", ".dex", ".engine"}


@pytest.fixture()
def logs(tmp_path):
    out = tmp_path / "logs"
    assert main(["simulate", "--count", "2", "--out", str(out)]) == 0
    return out


@pytest.mark.parametrize("command", [
    ["replay", "{logs}/sim0.jsonl"],
    ["report", "{logs}"],
    ["dex", "validate", "{dex}"],
], ids=["replay", "report", "dex-validate"])
def test_a_command_that_plays_no_match_loads_no_match_code(logs, tmp_path, command):
    argv = [arg.format(logs=logs, dex=default_dex_path()) for arg in command]
    code = f"from pokeleague.cli import main\nassert main({argv!r}) == 0"
    assert loaded_after(code, tmp_path) == []


def test_a_bracket_on_match_threads_loads_the_pool_but_not_requests(tmp_path):
    """The probe's positive control: mock entrants send no HTTP request."""
    script = tmp_path / "script.json"
    script.write_text(json.dumps({
        "team": ['{"team": [0, 1, 2, 3, 4, 5]}'],
        "action": ['{"action": {"type": "attack", "move_index": 0}}']}), encoding="utf-8")
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "entrants": [{"agent_id": f"mock-{i}", "kind": "mock", "script": str(script)}
                     for i in range(4)],
        "output_dir": str(tmp_path / "out")}), encoding="utf-8")
    argv = ["tournament", str(config), "--jobs", "2"]
    code = f"from pokeleague.cli import main\nassert main({argv!r}) == 0"
    assert loaded_after(code, tmp_path) == [
        "concurrent.futures", "pokeleague.gateway", "pokeleague.league", "pokeleague.prompts"]
