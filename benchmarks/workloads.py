"""The benchmark's three workloads and the output checks they share.

Every workload runs in units.  A unit is a fixed piece of work derived
from the workload seed and the unit number: 31 greedy-vs-random matches
(the size of a 32-entrant bracket), one 32-entrant mock-LLM bracket, or
one replay-and-report pass over a corpus written during set-up.  Each
unit's logs are then checked: every log replays digest for digest, the
replayed winner and turn count equal the MatchResult, and a report is
built from the logs.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import socket
import time
from collections.abc import Callable
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

from pokeleague import analytics, league, storage
from pokeleague.agents import AgentProfile, GreedyAgent, RandomAgent
from pokeleague.dex import Dex
from pokeleague.rng import stable_hash64

UNIT_MATCHES = 31
ENTRANTS = 32
CORPUS_MATCHES = 128

# Mock replies cycle per entrant and per decision kind.  They cover clean
# JSON, JSON in fences or prose, an illegal action, a duplicate team
# index and replies with no JSON, so parsing, repair prompts and league
# fallbacks all run.
MOCK_SCRIPT = {
    "team": [
        '{"team": [0, 1, 2, 3, 4, 5], "reasoning": "the first six"}',
        'My draft:\n```json\n{"team": [6, 7, 8, 9, 10, 11], "reasoning": "bulk"}\n```',
        '{"team": [12, 12, 13, 14, 15, 16], "reasoning": "a duplicate index"}',
        "I would pick the strongest six.",
    ],
    "action": [
        '{"action": {"type": "attack", "move_index": 0}, "reasoning": "lead move"}',
        '```json\n{"action": {"type": "attack", "move_index": 1}, '
        '"reasoning": "coverage"}\n```',
        'Switching looks best: {"action": {"type": "switch", "team_index": 1}, '
        '"reasoning": "pivot"} is my answer.',
        '{"action": {"type": "attack", "move_index": 7}, "reasoning": "no such move"}',
        "Attack with the strongest move!",
    ],
}

# Log records carry a wall-clock "ts" whose printed length varies by a
# digit or two.  Byte counts are taken with every stamp counted at this
# fixed width, so that they are a property of the seed alone.
TS_FIELD = re.compile(rb'"ts":\s*(-?[0-9][0-9.eE+-]*)')
TS_WIDTH = 18


@dataclass
class Context:
    seed: int
    work: Path
    dex: Dex
    fingerprint: str


@dataclass
class Played:
    results: list[dict]   # MatchResult dicts, in bracket or play order
    log_dir: Path


Span = tuple[float, float]  # perf_counter at start and end


def no_tick() -> None:
    pass


@dataclass
class Checked:
    replay_spans: list[Span]
    report_span: Span
    report_json: bytes
    failures: list[str]


@contextmanager
def timed_matches(tick: Callable[[], None] = no_tick):
    """Time every MatchRunner.run_match call; yields the list of their spans.

    `tick` runs before each match, outside its span (speed.Speed.tick).
    """
    original = league.MatchRunner.__dict__["run_match"]
    spans: list[Span] = []

    def run_match(*args, **kwargs):
        tick()
        started = time.perf_counter()
        try:
            return original(*args, **kwargs)
        finally:
            spans.append((started, time.perf_counter()))

    league.MatchRunner.run_match = run_match
    try:
        yield spans
    finally:
        league.MatchRunner.run_match = original


@contextmanager
def no_network(attempts: list):
    """Refuse and record every socket connect made while active."""
    saved = socket.socket.connect, socket.socket.connect_ex, socket.create_connection

    def refuse(*args, **kwargs):
        attempts.append(repr(args[1:] or args))
        raise OSError("network access attempted during the benchmark")

    socket.socket.connect = socket.socket.connect_ex = refuse
    socket.create_connection = refuse
    try:
        yield
    finally:
        socket.socket.connect, socket.socket.connect_ex, socket.create_connection = saved


class Workload:
    """Set-up runs in a fresh interpreter; `play` runs one unit in the benchmark."""

    name = ""
    loop = "closed loop, 1 client, 1 process"
    plays = True  # False: the unit replays set-up's corpus instead of playing
    threads = 1   # above 1: unit 0 is played again on this many match threads

    def setup(self, tick: Callable[[], None]) -> dict:
        """Writes the workload's inputs; returns set-up's MatchResults and match spans."""
        return {"results": [], "match_spans": []}

    def adopt(self, payload: dict) -> None:
        """Takes over what `setup` returned in the set-up interpreter."""

    def play(self, unit: int, unit_dir: Path, jobs: int = 1) -> Played:
        raise NotImplementedError


class SimGreedyRandom(Workload):
    """The `pokeleague simulate --agent-a greedy --agent-b random:7` path."""

    name = "sim-greedy-random"

    def __init__(self, ctx: Context):
        self.ctx = ctx
        self.agent_a = GreedyAgent("a-greedy", ctx.dex)
        self.agent_b = RandomAgent("b-random-7", 7)

    def play(self, unit: int, unit_dir: Path, jobs: int = 1) -> Played:
        runner = league.MatchRunner(
            self.ctx.dex, league.LeagueConfig(), unit_dir, self.ctx.fingerprint)
        results = []
        for i in range(unit * UNIT_MATCHES, (unit + 1) * UNIT_MATCHES):
            seed = stable_hash64(self.ctx.seed, "simulate", i) % 2**63
            result = runner.run_match(self.agent_a, self.agent_b, seed, match_id=f"sim{i}")
            results.append(result.to_dict())
        return Played(results, unit_dir)


class TournamentMockLlm(Workload):
    """32-entrant brackets of scripted mock-LLM entrants.

    Timed brackets run their rounds with jobs=1.  Two CPU-bound match
    threads only contend for the interpreter lock, and how long each
    waits for the other to hand it over swings with the host far more
    than single-threaded time does.  The thread path is still run:
    unit 0 is played again with jobs=nproc and must give the same results.
    """

    name = "tournament-mock-llm"

    def __init__(self, ctx: Context):
        self.ctx = ctx
        script = ctx.work / "mock_script.json"
        script.parent.mkdir(parents=True, exist_ok=True)
        script.write_text(json.dumps(MOCK_SCRIPT), encoding="utf-8")
        self.entrants = [AgentProfile(agent_id=f"mock-{i:02d}", kind="mock", script=str(script))
                         for i in range(ENTRANTS)]
        self.threads = len(os.sched_getaffinity(0))
        self.loop = (f"closed loop, 1 client, 1 process; unit 0 is also played on "
                     f"{self.threads} match threads")

    def play(self, unit: int, unit_dir: Path, jobs: int = 1) -> Played:
        master_seed = stable_hash64(self.ctx.seed, "tournament", unit) % 2**63
        config = league.TournamentConfig(
            entrants=self.entrants,
            league=league.LeagueConfig(draft_per_match=True, include_history=True, jobs=jobs))
        result = league.run_tournament(
            self.entrants, self.ctx.dex, config, master_seed,
            log_dir=unit_dir, dex_fingerprint=self.ctx.fingerprint)
        return Played([m.to_dict() for rnd in result.rounds for m in rnd], unit_dir)


class ReplayReport(Workload):
    """Replay and report over a corpus of long RandomAgent-vs-RandomAgent games."""

    name = "replay-report"
    plays = False

    def __init__(self, ctx: Context):
        self.ctx = ctx
        self.corpus = ctx.work / "corpus"
        self.results: list[dict] = []

    def setup(self, tick: Callable[[], None]) -> dict:
        runner = league.MatchRunner(
            self.ctx.dex, league.LeagueConfig(), self.corpus, self.ctx.fingerprint)
        results = []
        with timed_matches(tick) as match_spans:
            for i in range(CORPUS_MATCHES):
                # Fresh agent seeds per match, so the corpus spans many team pairs.
                agent_a = RandomAgent("random-a", stable_hash64(self.ctx.seed, "a", i))
                agent_b = RandomAgent("random-b", stable_hash64(self.ctx.seed, "b", i))
                seed = stable_hash64(self.ctx.seed, "corpus", i) % 2**63
                result = runner.run_match(agent_a, agent_b, seed, match_id=f"corpus{i}")
                results.append(result.to_dict())
        return {"results": results, "match_spans": match_spans}

    def adopt(self, payload: dict) -> None:
        self.results = payload["results"]

    def play(self, unit: int, unit_dir: Path, jobs: int = 1) -> Played:
        return Played(self.results, self.corpus)


WORKLOADS = {cls.name: cls for cls in (SimGreedyRandom, TournamentMockLlm, ReplayReport)}


def check_unit(ctx: Context, played: Played, report_dir: Path,
               tick: Callable[[], None] = no_tick) -> Checked:
    """Replay every log against its MatchResult, then build the report.

    `tick` runs before each replay and before the report, outside their spans.
    """
    replay_spans: list[Span] = []
    failures: list[str] = []
    for result in played.results:
        tick()
        if len(result["log_files"]) != 1:
            failures.append(f"{result['match_id']}: expected one log, "
                            f"got {len(result['log_files'])}")
            continue
        path = played.log_dir / result["log_files"][0]
        started = time.perf_counter()
        try:
            replayed = storage.replay(path, ctx.dex, expected_dex_fingerprint=ctx.fingerprint)
        except storage.StorageError as exc:
            failures.append(f"{path.name}: {exc}")
            continue
        replay_spans.append((started, time.perf_counter()))
        if (replayed.winner_agent, replayed.turns) != (result["winner"], result["turn_count"]):
            failures.append(
                f"{path.name}: replay gives winner {replayed.winner_agent} in "
                f"{replayed.turns} turns, the match gave {result['winner']} in "
                f"{result['turn_count']}")
    tick()
    started = time.perf_counter()
    report = analytics.build_report(analytics.load_log_dir(played.log_dir))
    paths = analytics.write_report(report, report_dir)
    report_span = (started, time.perf_counter())
    return Checked(replay_spans, report_span, paths["json"].read_bytes(), failures)


def log_bytes(played: Played) -> int:
    """Bytes of the unit's logs, with each timestamp at a fixed width."""
    total = 0
    for result in played.results:
        for name in result["log_files"]:
            data = (played.log_dir / name).read_bytes()
            stamps = TS_FIELD.findall(data)
            total += len(data) - sum(map(len, stamps)) + TS_WIDTH * len(stamps)
    return total


def result_digest(results: list[dict], report_json: bytes) -> str:
    """SHA-256 over the canonical MatchResult dicts and report.json."""
    digest = hashlib.sha256()
    digest.update(json.dumps(results, sort_keys=True, separators=(",", ":")).encode("utf-8"))
    digest.update(report_json)
    return digest.hexdigest()
