"""Span tracing of pokeleague from outside the package.

The tracer replaces each traced function at the binding its caller looks
up: ``league`` and ``storage`` import engine functions by name, so
``pokeleague.league.resolve_turn`` and ``pokeleague.storage.resolve_turn``
are wrapped separately, under one span name.  Methods are wrapped on
their class.  Nothing under ``src/`` knows about the tracer.

Each thread keeps its own parent stack.  Every traced unit runs on one
thread, so the spans' self times add up to the unit's wall time.
"""

from __future__ import annotations

import gzip
import json
import threading
import time
from collections import defaultdict
from pathlib import Path

from pokeleague import agents, analytics, gateway, league, storage

# (owner, attribute, span name).  Each row is one binding a caller looks up.
BINDINGS = [
    (league, "init_battle", "engine.init_battle"),
    (storage, "init_battle", "engine.init_battle"),
    (league, "resolve_turn", "engine.resolve_turn"),
    (storage, "resolve_turn", "engine.resolve_turn"),
    (league, "resolve_replacements", "engine.resolve_replacements"),
    (storage, "resolve_replacements", "engine.resolve_replacements"),
    (league, "view_for", "engine.view_for"),
    (league, "legal_actions", "engine.legal_actions"),
    (agents.GreedyAgent, "choose_action", "agents.choose_action"),
    (agents.RandomAgent, "choose_action", "agents.choose_action"),
    (agents.GreedyAgent, "select_team", "agents.select_team"),
    (agents.RandomAgent, "select_team", "agents.select_team"),
    (gateway.LlmAgent, "choose_action", "gateway.choose_action"),
    (gateway.LlmAgent, "select_team", "gateway.select_team"),
    (gateway, "build_battle_prompt", "gateway.build_battle_prompt"),
    (gateway, "build_team_prompt", "gateway.build_team_prompt"),
    (gateway, "parse_action_response", "gateway.parse_action_response"),
    (gateway, "parse_team_response", "gateway.parse_team_response"),
    (gateway, "repair_prompt", "gateway.repair_prompt"),
    (gateway.ScriptCompleter, "__call__", "gateway.completion"),
    (league, "run_tournament", "league.run_tournament"),
    (league.MatchRunner, "run_match", "league.run_match"),
    (league, "fallback_action", "league.fallback_action"),
    (league, "fallback_team", "league.fallback_team"),
    (storage, "state_digest", "storage.state_digest"),
    (storage.MatchLog, "append", "storage.MatchLog.append"),
    (storage, "read_log", "storage.read_log"),
    (storage, "replay", "storage.replay"),
    (analytics, "load_log_dir", "analytics.load_log_dir"),
    (analytics, "build_report", "analytics.build_report"),
    (analytics, "write_report", "analytics.write_report"),
]


def _run_match_id(args, kwargs):
    # MatchRunner.run_match(self, agent_a, agent_b, seed, match_id="m0", ...)
    return kwargs.get("match_id", args[4] if len(args) > 4 else "m0")


def _replay_id(args, kwargs):
    return Path(args[0]).stem


MATCH_KEYS = {"league.run_match": _run_match_id, "storage.replay": _replay_id}

# Extra tallies taken from a call's arguments: prompt bytes sent to the model.
TALLIES = {"gateway.completion": lambda args: len(args[1].encode("utf-8"))}


SPAN_FIELDS = ("name", "match", "scope", "parent", "thread", "start", "end",
               "self_s", "ok", "tally")


class Tracer:
    """Records spans in memory while installed; see the module docstring.

    A span is a tuple laid out as SPAN_FIELDS: `match` is the match id
    of the enclosing run_match or replay, `scope` which of the two that
    is, `start` and `end` are perf_counter stamps, `self_s` the duration
    less the time of its child spans, `ok` whether the call returned, and
    `tally` the bytes it sent where TALLIES names a measure.
    """

    def __init__(self):
        self.spans: list[tuple] = []
        self._local = threading.local()
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        for owner, attr, name in BINDINGS:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name))
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _wrap(self, fn, name: str):
        local = self._local
        append = self.spans.append
        match_key = MATCH_KEYS.get(name)
        tally = TALLIES.get(name)
        clock, ident = time.perf_counter, threading.get_ident

        def traced(*args, **kwargs):
            try:
                stack = local.stack
            except AttributeError:
                stack = local.stack = []
                local.match = local.scope = "-"
            outer = local.match, local.scope
            if match_key is not None:
                local.match, local.scope = match_key(args, kwargs), name
            frame = [name, 0.0]
            stack.append(frame)
            ok = False
            start = clock()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = clock()
                stack.pop()
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[1] += end - start
                append((name, local.match, local.scope, parent and parent[0], ident(),
                        start, end, end - start - frame[1], ok,
                        tally(args) if tally is not None else 0))
                local.match, local.scope = outer

        traced.__wrapped__ = fn
        return traced

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(dict(zip(SPAN_FIELDS, span))) + "\n")


def summarize(spans: list[tuple]) -> dict[str, dict]:
    """Per span name: calls, calls that returned, self seconds, tally."""
    table: dict[str, dict] = defaultdict(
        lambda: {"calls": 0, "ok": 0, "self_s": 0.0, "tally": 0})
    for name, _, _, _, _, _, _, self_s, ok, tally in spans:
        row = table[name]
        row["calls"] += 1
        row["ok"] += ok
        row["self_s"] += self_s
        row["tally"] += tally
    return dict(table)


def match_share(spans: list[tuple], name: str) -> float:
    """Self time of `name` inside run_match, as a share of run_match time."""
    inside = [(span[0], span[7]) for span in spans if span[2] == "league.run_match"]
    total = sum(self_s for _, self_s in inside)
    return sum(self_s for span_name, self_s in inside if span_name == name) / total \
        if total else 0.0
