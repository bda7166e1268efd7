"""Layered benchmark for pokeleague.

Run from the root of a checkout:

    python3 benchmarks/run.py --workload sim-greedy-random --seed 0 --seconds 30 --trace 0

Workloads: sim-greedy-random, tournament-mock-llm, replay-report (see
benchmarks/README.md).  With --trace 0 the run is timed and prints every
end-to-end metric named in BENCHMARK.json, each time scaled for the
host's speed around it (speed.py); with --trace 1 it runs the
workload's first unit alternately without and with the span tracer and
prints the per-layer table and metrics.  Every run checks its outputs.
The last line of output is one JSON object with the keys correct,
attempted, failed and metrics; a failed check prints it with correct
false and exits 1.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path
from typing import NamedTuple

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

# Import pokeleague from this checkout's src/, never from anywhere else.
if not (SRC / "pokeleague" / "__init__.py").is_file():
    raise SystemExit(f"error: no pokeleague sources at {SRC / 'pokeleague'}")
sys.path[:0] = [str(SRC), str(BENCH)]
import pokeleague  # noqa: E402

if Path(pokeleague.__file__).resolve().parent != (SRC / "pokeleague").resolve():
    raise SystemExit(f"error: imported pokeleague from {pokeleague.__file__}, not from {SRC}")

from pokeleague.dex import default_dex_path, dex_fingerprint, load_dex  # noqa: E402
from speed import REFERENCE_S, Speed  # noqa: E402
from tracing import BINDINGS, Tracer, match_share, summarize  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS, Context, check_unit, log_bytes, no_network, result_digest, timed_matches,
)

DEFAULT_SEED = 0
MIN_UNITS = 7    # 7 units of 31 matches leave more than ten samples beyond each p95
SETUPS = 3       # set-up is repeated and its median reported
MIN_TRACED = 2   # traced units, so that their counts can be compared


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-child", type=Path, metavar="WORKDIR", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def make_context(seed: int, work: Path) -> Context:
    path = default_dex_path()
    return Context(seed, work, load_dex(path), dex_fingerprint(path))


def setup_child(args: argparse.Namespace) -> int:
    """Set-up as a user pays it: a fresh interpreter that imports, loads and writes inputs.

    Prints the set-up's payload with its matches' seconds already scaled,
    and the child's own calibrations for the parent to scale set-up by.
    """
    speed = Speed()
    workload = WORKLOADS[args.workload](make_context(args.seed, args.setup_child))
    payload = workload.setup(speed.tick)
    speed.mark()
    payload["match_s"] = [(end - start) * speed.scale(start, end)
                          for start, end in payload.pop("match_spans")]
    payload["kernels"] = speed.kernels
    payload["calibration_s"] = speed.spent
    print(json.dumps(payload))
    return 0


def run_setups(args: argparse.Namespace, work: Path, count: int,
               speed: Speed) -> tuple[list[float], list[dict]]:
    """Runs `count` set-ups; returns their scaled seconds and their payloads.

    A set-up's time leaves out the child's calibrations and is scaled by
    the mean of every kernel time around and inside it.
    """
    command = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed), "--setup-child", str(work)]
    seconds, payloads = [], []
    for _ in range(count):
        before = speed.kernels[-1]
        started = time.perf_counter()
        child = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=150)
        wall = time.perf_counter() - started
        speed.mark()
        if child.returncode != 0:
            raise SystemExit(f"error: set-up failed:\n{child.stderr}")
        payload = json.loads(child.stdout.splitlines()[-1])
        kernels = [before, *payload["kernels"], speed.kernels[-1]]
        seconds.append((wall - payload["calibration_s"]) * REFERENCE_S / statistics.fmean(kernels))
        payloads.append(payload)
    return seconds, payloads


def median(samples: list[float]) -> float:
    """Median, or 0 when every operation of that kind failed."""
    return statistics.median(samples) if samples else 0.0


def p95(samples: list[float]) -> tuple[float, int]:
    """95th percentile and the number of samples beyond it."""
    if len(samples) < 2:
        return 0.0, 0
    cut = statistics.quantiles(samples, n=20)[18]
    return cut, sum(1 for s in samples if s > cut)


class Outcome:
    """What a run measured and which of its checks failed."""

    def __init__(self):
        self.values: dict[str, float] = {}
        self.notes: dict[str, str] = {}
        self.lines: list[str] = []
        self.attempted = 0
        self.failures: list[str] = []

    def check_digest(self, workload, ctx, results: list[dict], report_json: bytes) -> None:
        digest = result_digest(results, report_json)
        expected = json.loads((BENCH / "expected.json").read_text(encoding="utf-8"))
        self.attempted += 1
        self.lines.append(f"unit 0 result sha256: {digest}")
        if ctx.seed == expected["seed"] and digest != expected["sha256"][workload.name]:
            self.failures.append(
                f"unit 0 result sha256 {digest} differs from benchmarks/expected.json "
                f"({expected['sha256'][workload.name]}) at seed {ctx.seed}")

    def check_threads(self, workload, ctx, played, checked) -> None:
        """Play unit 0 again on match threads; results and report must not change."""
        started = time.perf_counter()
        threaded = workload.play(0, ctx.work / "threaded", jobs=workload.threads)
        wall = time.perf_counter() - started
        rechecked = check_unit(ctx, threaded, ctx.work / "threaded-report")
        self.attempted += len(threaded.results) * 2 + 2
        self.failures += rechecked.failures
        self.lines.append(f"unit 0 on {workload.threads} match threads: {wall:.3f} s")
        if (threaded.results, rechecked.report_json) != (played.results, checked.report_json):
            self.failures.append(f"unit 0 on {workload.threads} match threads gave other "
                                 "results than on one")
        shutil.rmtree(ctx.work / "threaded")
        shutil.rmtree(ctx.work / "threaded-report")


def timed_run(workload, ctx, seconds: float, speed: Speed, setup_s: list[float],
              payloads: list[dict]) -> Outcome:
    """Units back to back; every time is scaled for the host's speed around it (speed.py)."""
    out = Outcome()
    for payload in payloads[1:]:
        out.attempted += 1
        if payload["results"] != payloads[0]["results"]:
            out.failures.append("set-up runs with one seed played different matches")
    out.attempted += sum(len(p["results"]) for p in payloads)
    # Rates are taken per unit (per set-up for replay-report's matches) and
    # reported as their median, so a burst of load on the host moves one
    # sample rather than the whole figure.
    match_s = [s for p in payloads for s in p["match_s"]]
    match_rates = [len(p["match_s"]) / sum(p["match_s"]) for p in payloads if p["match_s"]]
    unit_s, replay_s, report_s, replay_rates = [], [], [], []
    nbytes = nlogs = 0
    first_report = b""
    started = time.perf_counter()
    speed.mark()
    unit = 0
    while unit < MIN_UNITS or time.perf_counter() - started < seconds:
        unit_dir = ctx.work / f"unit{unit}"
        report_dir = ctx.work / f"report{unit}"
        spent = [speed.spent]
        played_at = time.perf_counter()
        with timed_matches(speed.tick) as match_spans:
            played = workload.play(unit, unit_dir)
        checked_at = time.perf_counter()
        spent.append(speed.spent)
        checked = check_unit(ctx, played, report_dir, speed.tick)
        done_at = time.perf_counter()
        spent.append(speed.spent)
        speed.mark()

        def scaled(start: float, end: float, calibrating: float = 0.0) -> float:
            return (end - start - calibrating) * speed.scale(start, end)

        if workload.plays:
            match_s += [scaled(*span) for span in match_spans]
            unit_s.append(scaled(played_at, checked_at, spent[1] - spent[0]))
            match_rates.append(len(match_spans) / unit_s[-1])
        else:
            unit_s.append(scaled(checked_at, done_at, spent[2] - spent[1]))
        unit_replay_s = [scaled(*span) for span in checked.replay_spans]
        replay_s += unit_replay_s
        if unit_replay_s:
            replay_rates.append(len(unit_replay_s) / sum(unit_replay_s))
        report_s.append(scaled(*checked.report_span))
        out.attempted += len(match_spans) + len(played.results) + 1
        out.failures += checked.failures
        if unit < MIN_UNITS and (workload.plays or unit == 0):
            nbytes += log_bytes(played)
            nlogs += len(played.results)
        if unit == 0:
            first_report = checked.report_json
            out.check_digest(workload, ctx, played.results, checked.report_json)
            if workload.threads > 1:
                out.check_threads(workload, ctx, played, checked)
                speed.mark()
        elif not workload.plays:
            out.attempted += 1
            if checked.report_json != first_report:
                out.failures.append(f"pass {unit}: report.json differs from pass 0")
        if workload.plays:
            shutil.rmtree(unit_dir)
        shutil.rmtree(report_dir)
        unit += 1

    v, n = out.values, out.notes
    v["setup_s"] = statistics.median(setup_s)
    n["setup_s"] = f"median of {len(setup_s)} set-ups in fresh interpreters"
    v["matches_per_s"] = statistics.median(match_rates)
    n["matches_per_s"] = (f"median of {len(match_rates)} "
                          + ("units" if workload.plays else "set-ups")
                          + f", {len(match_s)} matches")
    v["replays_per_s"] = median(replay_rates)
    n["replays_per_s"] = f"median of {len(replay_rates)} units, {len(replay_s)} replays"
    for what, samples in (("match", match_s), ("replay", replay_s)):
        cut, beyond = p95(samples)
        if beyond < 10:
            out.failures.append(f"{what}_ms_p95 has only {beyond} samples beyond it")
        v[f"{what}_ms_p50"] = median(samples) * 1e3
        n[f"{what}_ms_p50"] = f"n={len(samples)}"
        v[f"{what}_ms_p95"] = cut * 1e3
        n[f"{what}_ms_p95"] = f"n={len(samples)}, {beyond} beyond"
    v["bracket_s"] = statistics.median(unit_s)
    n["bracket_s"] = f"median of {len(unit_s)} units"
    v["report_s"] = statistics.median(report_s)
    n["report_s"] = f"median of {len(report_s)} reports"
    v["log_bytes_per_match"] = nbytes / nlogs
    n["log_bytes_per_match"] = f"{nlogs} logs"
    v["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    n["peak_rss_mb"] = "benchmark process"
    out.lines.insert(0, f"units: {unit} in {time.perf_counter() - started:.1f} s")
    out.lines.insert(1, speed.summary())
    return out


def run_unit(workload, ctx, tracer=None):
    """Play and check unit 0; returns (wall seconds, played, checked)."""
    started = time.perf_counter()
    with tracer or nullcontext():
        played = workload.play(0, ctx.work / "unit0")
        checked = check_unit(ctx, played, ctx.work / "report0")
    return time.perf_counter() - started, played, checked


class TracedUnit(NamedTuple):
    wall: float        # traced unit, seconds
    plain_wall: float  # the untraced run of the same unit just before it
    tracer: object
    summary: dict
    counts: dict       # per span name: (calls, calls that returned, tally)
    written: int       # log bytes the unit wrote


def traced_run(workload, ctx, seconds: float) -> Outcome:
    out = Outcome()
    load_ms = []
    for _ in range(5):
        started = time.perf_counter()
        load_dex(default_dex_path())
        load_ms.append((time.perf_counter() - started) * 1e3)

    reps = []
    started = time.perf_counter()
    while len(reps) < MIN_TRACED or time.perf_counter() - started < seconds:
        plain_wall = None
        for tracer in (None, Tracer()):
            wall, played, checked = run_unit(workload, ctx, tracer)
            out.attempted += len(played.results) * (2 if workload.plays else 1) + 1
            out.failures += checked.failures
            if tracer is None:
                plain_wall = wall
            else:
                summary = summarize(tracer.spans)
                counts = {name: (row["calls"], row["ok"], row["tally"])
                          for name, row in summary.items()}
                written = log_bytes(played) if workload.plays else 0
                reps.append(TracedUnit(wall, plain_wall, tracer, summary, counts, written))
                if len(reps) == 1:
                    out.check_digest(workload, ctx, played.results, checked.report_json)
            if workload.plays:
                shutil.rmtree(ctx.work / "unit0")
            shutil.rmtree(ctx.work / "report0")
    for rep in reps[1:]:
        out.attempted += 1
        if (rep.counts, rep.written) != (reps[0].counts, reps[0].written):
            out.failures.append("traced runs of one unit gave different counts")

    wall, _, tracer, summary, _, nbytes = sorted(reps, key=lambda rep: rep.wall)[len(reps) // 2]
    traced_wall = statistics.median(rep.wall for rep in reps)
    plain_wall = statistics.median(rep.plain_wall for rep in reps)
    trace_path = ROOT / ".bench_out" / f"trace-{workload.name}-seed{ctx.seed}.jsonl.gz"
    tracer.write(trace_path)

    def calls(name: str) -> int:
        return summary.get(name, {}).get("calls", 0)

    spanned = sum(row["self_s"] for row in summary.values())
    width = max(map(len, summary)) + 2
    lines = [f"traced unit: {wall * 1e3:.1f} ms wall (median of {len(reps)} traced units)",
             f"{'span':<{width}}{'calls':>9}{'self_ms':>12}{'share':>9}"]
    for name, row in sorted(summary.items(), key=lambda kv: -kv[1]["self_s"]):
        lines.append(f"{name:<{width}}{row['calls']:>9}{row['self_s'] * 1e3:>12.3f}"
                     f"{row['self_s'] / wall:>9.3f}")
    lines.append(f"{'(unspanned)':<{width}}{'':>9}{(wall - spanned) * 1e3:>12.3f}"
                 f"{(wall - spanned) / wall:>9.3f}")
    lines.append(f"{'total (traced wall)':<{width}}{'':>9}{wall * 1e3:>12.3f}{1:>9.3f}")
    lines.append(f"trace: {trace_path.relative_to(ROOT)}")
    out.lines += lines

    completions = calls("gateway.completion")
    decisions = calls("gateway.choose_action") + calls("gateway.select_team")
    parses = calls("gateway.parse_action_response") + calls("gateway.parse_team_response")
    parsed = sum(summary.get(name, {}).get("ok", 0)
                 for name in ("gateway.parse_action_response", "gateway.parse_team_response"))
    steps = calls("engine.resolve_turn") + calls("engine.resolve_replacements")
    out.values = {
        "dex.load_dex.ms": statistics.median(load_ms),
        "gateway.completions": completions,
        "gateway.repairs": completions - decisions,
        "gateway.parse_success_ratio": parsed / parses if parses else 0.0,
        "gateway.prompt_bytes": summary.get("gateway.completion", {}).get("tally", 0),
        "league.fallbacks": calls("league.fallback_action") + calls("league.fallback_team"),
        "storage.digests_per_turn": calls("storage.state_digest") / steps if steps else 0.0,
        "storage.state_digest.match_share": match_share(tracer.spans, "storage.state_digest"),
        "storage.bytes_written": nbytes,
        "bench.traced_wall_ms": wall * 1e3,
        "bench.unspanned_ms": (wall - spanned) * 1e3,
        "bench.trace_overhead_share": (traced_wall - plain_wall) / plain_wall,
    }
    out.notes = {
        "gateway.repairs": f"completions - {decisions} decisions",
        "gateway.parse_success_ratio": f"{parsed} / {parses} parses",
        "storage.digests_per_turn": f"{calls('storage.state_digest')} digests / "
                                    f"{steps} turns and replacements",
        "bench.trace_overhead_share": f"traced {traced_wall * 1e3:.1f} ms vs "
                                      f"untraced {plain_wall * 1e3:.1f} ms",
    }
    for _, _, name in BINDINGS:
        row = summary.get(name, {"calls": 0, "self_s": 0.0})
        out.values.setdefault(f"{name}.calls", row["calls"])
        out.values.setdefault(f"{name}.self_ms", row["self_s"] * 1e3)
    return out


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if args.workload not in WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}; "
                         f"expected one of {', '.join(WORKLOADS)}")
    if args.setup_child is not None:
        return setup_child(args)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    attempts: list[str] = []
    try:
        speed = Speed()
        setup_s, payloads = run_setups(args, work, 1 if args.trace else SETUPS, speed)
        ctx = make_context(args.seed, work)
        workload = WORKLOADS[args.workload](ctx)
        workload.adopt(payloads[-1])
        with no_network(attempts):
            if args.trace:
                out = traced_run(workload, ctx, args.seconds)
            else:
                out = timed_run(workload, ctx, args.seconds, speed, setup_s, payloads)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    out.failures += [f"network access attempted: {target}" for target in attempts]

    declared = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {entry["name"]: {"value": out.values[entry["name"]], "unit": entry["unit"]}
               for entry in declared}

    print(f"workload {workload.name}  seed {args.seed}  {workload.loop}")
    for line in out.lines:
        print(line)
    print(f"{'metric':<36}{'value':>16}  {'unit':<7} samples")
    for name, metric in metrics.items():
        print(f"{name:<36}{metric['value']:>16.6g}  {metric['unit']:<7} {out.notes.get(name, '')}")
    failed = len(out.failures)
    print(f"{'failed_ops_share':<36}{failed / max(out.attempted, 1):>16.6g}  "
          f"{'share':<7} {failed} failed / {out.attempted} attempted")
    for failure in out.failures:
        print(f"FAILED: {failure}", file=sys.stderr)
    print(json.dumps({"correct": not out.failures, "attempted": out.attempted,
                      "failed": failed, "metrics": metrics}))
    return 1 if out.failures else 0


if __name__ == "__main__":
    sys.exit(main())
