"""Operator entry point.

Subcommands: dex validate | simulate | tournament | replay | report.
Exit codes are a stable contract: 0 success, 1 domain failure (invalid
dex data, a log that fails to replay or read, no logs, a stdout closed
by its reader, as in report | head), 2 usage or config failure (a bad
setting, a dex that fails to load, an input path that is missing or a
directory, an output path that is or lies under a file).  Commands
raise; main maps each error to its exit code in one place.

Only simulate and tournament import league (and through it gateway), so
replay, report and dex validate start without loading the match code.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from dataclasses import replace
from pathlib import Path

from . import analytics, storage
from .agents import AgentProfile, ConfigError
from .dex import DexValidationError, open_dex
from .rng import stable_hash64

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2


def _scripted_profile(spec: str, prefix: str) -> AgentProfile:
    """Agent spec grammar: "greedy", "random", or "random:<seed>"."""
    kind, _, arg = spec.partition(":")
    if spec == "greedy" or kind == "random" and re.fullmatch(r"(-?[0-9]+)?", arg):
        agent_id = f"{prefix}-{spec.replace(':', '-')}"
        return AgentProfile(agent_id=agent_id, kind=kind, seed=int(arg or 0))
    raise ConfigError(f"unknown scripted agent spec {spec!r} (expected greedy or random[:seed])")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_dex_validate(args) -> int:
    try:
        dex, _ = open_dex(args.path)
    except DexValidationError as exc:
        for issue in exc.issues:
            print(issue, file=sys.stderr)
        print(f"{len(exc.issues)} issue(s) found", file=sys.stderr)
        return EXIT_FAILURE
    print(f"ok: {len(dex.types)} types, {len(dex.moves)} moves, "
          f"{len(dex.species)} species, pool of {len(dex.pool)}")
    return EXIT_OK


def cmd_simulate(args) -> int:
    from . import league

    if args.count <= 0:
        raise ConfigError("--count must be positive")
    dex, fingerprint = open_dex(args.dex)
    config = league.TournamentConfig(
        entrants=[_scripted_profile(args.agent_a, "a"), _scripted_profile(args.agent_b, "b")],
        league=league.LeagueConfig(turn_limit=args.turn_cap))
    agent_a, agent_b = (league.build_agent(profile, dex, config) for profile in config.entrants)

    runner = league.MatchRunner(dex, config.league, args.out, fingerprint)
    tallies = {agent_a.agent_id: 0, agent_b.agent_id: 0}
    total_turns = 0
    for i in range(args.count):
        seed = stable_hash64(args.seed, "simulate", i) % 2**63
        result = runner.run_match(agent_a, agent_b, seed, match_id=f"sim{i}")
        tallies[result.winner] += 1
        total_turns += result.turn_count
        if args.verbose:
            print(f"{result.match_id}: winner={result.winner} "
                  f"turns={result.turn_count} reason={result.end_reason}")
            if args.count == 1:
                for record in storage.read_log(Path(args.out) / result.log_files[0]).records:
                    if record["kind"] == "events":
                        for event in record["events"]:
                            print(f"  turn {record['turn']}: {event}")
    mean_turns = total_turns / args.count
    print(f"{agent_a.agent_id} {tallies[agent_a.agent_id]} - "
          f"{tallies[agent_b.agent_id]} {agent_b.agent_id} "
          f"(mean turns {mean_turns:.1f}, logs in {args.out})")
    return EXIT_OK


def cmd_tournament(args) -> int:
    from . import league

    config = league.TournamentConfig.from_file(args.config)
    if args.jobs is not None:
        config.league = replace(config.league, jobs=args.jobs)
    dex, fingerprint = open_dex(config.dex_path, config.pool)
    result = league.run_tournament(
        config.entrants, dex, config, config.master_seed, dex_fingerprint=fingerprint)
    out_dir = Path(config.output_dir)
    bracket_path, standings_path = league.write_tournament_outputs(result, out_dir)
    print(result.standings_table())
    print(f"\nbracket: {bracket_path}\nstandings: {standings_path}\n"
          f"logs: {out_dir / 'logs' / result.tournament_id}")
    return EXIT_OK


def cmd_replay(args) -> int:
    dex, fingerprint = open_dex(args.dex)
    result = storage.replay(args.log, dex, expected_dex_fingerprint=fingerprint)
    print(f"ok: winner side {result.winner_side} ({result.winner_agent}) "
          f"after {result.turns} turn(s); all digests match")
    return EXIT_OK


def cmd_report(args) -> int:
    log_dir = Path(args.logdir)
    report = analytics.build_report(analytics.load_log_dir(log_dir))
    out_dir = Path(args.out) if args.out else log_dir / "report"
    paths = analytics.write_report(report, out_dir)
    print(report.to_text())
    print(f"\nreport files: {paths['json']}, {paths['text']}, {paths['csv']}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pokeleague",
        description="Deterministic battle engine and tournament harness")
    sub = parser.add_subparsers(dest="command", required=True)

    dex_parser = sub.add_parser("dex", help="static data utilities")
    dex_sub = dex_parser.add_subparsers(dest="dex_command", required=True)
    validate = dex_sub.add_parser("validate", help="validate a dex JSON file")
    validate.add_argument("path", help="dex file to check")
    validate.set_defaults(func=cmd_dex_validate)

    simulate = sub.add_parser("simulate", help="run seeded scripted-agent matches")
    simulate.add_argument("--agent-a", default="greedy", help="greedy or random[:seed]")
    simulate.add_argument("--agent-b", default="random", help="greedy or random[:seed]")
    simulate.add_argument("--count", type=int, default=1, help="number of matches")
    simulate.add_argument("--seed", type=int, default=0, help="base seed")
    simulate.add_argument("--dex", help="dex file (default: bundled)")
    simulate.add_argument("--out", default="out/simulate", help="log output directory")
    simulate.add_argument("--turn-cap", type=int, default=500)
    simulate.add_argument("-v", "--verbose", action="store_true")
    simulate.set_defaults(func=cmd_simulate)

    tournament = sub.add_parser("tournament", help="run a bracket from a config file")
    tournament.add_argument("config", help="tournament config JSON")
    tournament.add_argument("--jobs", type=int, default=None,
                            help="cap on concurrent matches within a round")
    tournament.set_defaults(func=cmd_tournament)

    replay = sub.add_parser("replay", help="verify a match log digest-by-digest")
    replay.add_argument("log", help="match log (.jsonl)")
    replay.add_argument("--dex", help="dex file (default: bundled)")
    replay.set_defaults(func=cmd_replay)

    report = sub.add_parser("report", help="compute metrics over a log directory")
    report.add_argument("logdir", help="directory containing match logs")
    report.add_argument("--out", help="report output directory (default: LOGDIR/report)")
    report.set_defaults(func=cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # so a closed stdout fails here, not at interpreter exit
        return code
    except BrokenPipeError:
        # Point fd 1 at devnull, so the shutdown flush of what is left is quiet.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_FAILURE
    except (storage.StorageError, analytics.NoLogs) as exc:
        prefix = "replay diverged" if isinstance(exc, storage.DigestMismatch) else "error"
        print(f"{prefix}: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    except (ConfigError, DexValidationError, FileNotFoundError, IsADirectoryError,
            FileExistsError, NotADirectoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
