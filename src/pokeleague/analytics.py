"""Evaluation metrics and reports computed from match logs.

All metrics are pure functions of the logs, as storage.read_log checks
and returns them: each battle-time decision's action is an engine.Action
there, so the metrics read its is_attack and index, never payload keys,
and each Battle context attack is a [move_index, effectiveness,
expected_damage] row, whatever the log's schema version, so the metrics
read a row's items by position.

Attack quality has one rule: storage.decision_context builds each
decision's context, and build_report, one walk over the logs, tallies the
contexts logged at decision time; load_log_dir streams it a directory's
logs, one in memory at a time.  The tests hold a replay route as an
oracle: it replays the logged decisions through the engine and builds
each context afresh from the replayed state, and the tests assert the two
routes agree.

Rates reported per agent:
  win_rate                  wins / matches
  effective_move_rate       attacks whose move had >= 2x effectiveness
  optimal_move_rate         attacks in the argmax set of expected damage
                            (roll 100, no crit) over the legal attacks
  switch_rate               voluntary switches per battle decision
  mean_hp_percent_at_voluntary_switch
  team_diversity            distinct species used / slots drafted

Reasoning word counts are included as a descriptive statistic only; they
are not a quality score.
"""

from __future__ import annotations

import csv
import io
import json
import os
from collections import Counter
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from . import storage
from .storage import MatchLogData

SUPER_EFFECTIVE_THRESHOLD = 2.0


class NoLogs(Exception):
    pass


def load_log_dir(log_dir: str | Path) -> Iterator[MatchLogData]:
    """Every .jsonl file under log_dir, read lazily with storage.read_log in path order.

    A missing path or a file raises its OSError, and no logs NoLogs, at once.
    """
    os.listdir(log_dir)  # raises for a missing path or a file, naming it
    paths = sorted(p for p in Path(log_dir).rglob("*.jsonl") if p.is_file())
    if not paths:
        raise NoLogs(f"no .jsonl logs under {log_dir}")
    return map(storage.read_log, paths)


# ---------------------------------------------------------------------------
# the report
# ---------------------------------------------------------------------------

def pick_frequency(teams: list[list[str]]) -> dict[str, int]:
    """How many teams contain each species (0/1 per team)."""
    counts = Counter(species for team in teams for species in set(team))
    return dict(sorted(counts.items(), key=lambda kv: (-kv[1], kv[0])))


def team_diversity(teams: list[list[str]]) -> float:
    """Distinct species used / total slots across the drafted teams."""
    slots = sum(map(len, teams))
    return len({s for team in teams for s in team}) / slots if slots else 0.0


def jaccard_matrix(teams_by_agent: dict[str, list[str]]) -> tuple[list[str], list[list[float]]]:
    """Pairwise team-overlap similarity (|A & B| / |A | B|) between agents."""
    ids = sorted(teams_by_agent)
    teams = [set(teams_by_agent[a]) for a in ids]
    return ids, [[len(a & b) / len(a | b) if a | b else 0.0 for b in teams] for a in teams]


@dataclass
class AgentMetrics:
    """One agent's row of the report; the fields are report.json's keys, in order."""

    agent_id: str
    matches: int
    wins: int
    losses: int
    win_rate: float
    attack_decisions: int
    effective_move_rate: float | None
    optimal_move_rate: float | None
    decision_turns: int
    voluntary_switches: int
    switch_rate: float
    mean_hp_percent_at_voluntary_switch: float | None
    teams_drafted: int
    team_diversity: float
    reasoning_word_count_mean: float | None  # descriptive only, not a score


def text_table(rows: list[Sequence[str]]) -> str:
    """Left-aligned columns two spaces apart, with a dashed rule under the header row."""
    widths = [max(len(row[c]) for row in rows) for c in range(len(rows[0]))]
    lines = ["  ".join(cell.ljust(widths[c]) for c, cell in enumerate(row)).rstrip()
             for row in rows]
    lines.insert(1, "  ".join("-" * w for w in widths))
    return "\n".join(lines)


def _cell(value: float | None, digits: int = 3) -> str:
    return "-" if value is None else f"{value:.{digits}f}"


@dataclass
class MetricsReport:
    agents: dict[str, AgentMetrics]
    pick_frequency: dict[str, int]
    teams_drafted: int
    jaccard_agents: list[str] = field(default_factory=list)
    jaccard: list[list[float]] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "agents": {a: asdict(m) for a, m in sorted(self.agents.items())},
            "pick_frequency": self.pick_frequency,
            "teams_drafted": self.teams_drafted,
            "team_jaccard": {"agents": self.jaccard_agents, "matrix": self.jaccard},
            "notes": "reasoning_word_count_mean is descriptive only (not an evaluation score)",
        }

    def to_text(self) -> str:
        rows = [["Agent", "W-L", "WinRate", "EffMove", "OptMove", "SwRate", "SwHP%", "Div"]]
        rows += [[m.agent_id, f"{m.wins}-{m.losses}", _cell(m.win_rate),
                  _cell(m.effective_move_rate), _cell(m.optimal_move_rate),
                  _cell(m.switch_rate), _cell(m.mean_hp_percent_at_voluntary_switch, 1),
                  _cell(m.team_diversity)]
                 for _, m in sorted(self.agents.items())]
        lines = [text_table(rows), "", "Pick frequency (teams containing each species):"]
        lines += [f"  {species}: {count}/{self.teams_drafted}"
                  for species, count in self.pick_frequency.items()]
        return "\n".join(lines)

    def pick_frequency_csv(self) -> str:
        buffer = io.StringIO()
        csv.writer(buffer).writerows([["species", "teams_containing", "teams_total"]] + [
            [species, count, self.teams_drafted] for species, count in self.pick_frequency.items()])
        return buffer.getvalue()


class _Tally:
    """One agent's counts, which build_report adds to as it walks the logs."""

    def __init__(self) -> None:
        self.wins = self.attacks = self.effective = self.optimal = 0
        self.hp_at_switch: list[float] = []
        self.teams: list[list[str]] = []
        self.words: list[int] = []

    def metrics(self, agent_id: str) -> AgentMetrics:
        # Each log adds one team; each Battle-phase decision attacks or switches.
        matches, switches = len(self.teams), len(self.hp_at_switch)
        decisions = self.attacks + switches
        return AgentMetrics(
            agent_id=agent_id, matches=matches, wins=self.wins, losses=matches - self.wins,
            win_rate=self.wins / matches, attack_decisions=self.attacks,
            effective_move_rate=self.effective / self.attacks if self.attacks else None,
            optimal_move_rate=self.optimal / self.attacks if self.attacks else None,
            decision_turns=decisions, voluntary_switches=switches,
            switch_rate=switches / decisions if decisions else 0.0,
            mean_hp_percent_at_voluntary_switch=_mean(self.hp_at_switch),
            teams_drafted=matches, team_diversity=team_diversity(self.teams),
            reasoning_word_count_mean=_mean(self.words))


def _mean(values: list) -> float | None:
    return sum(values) / len(values) if values else None


def build_report(logs: Iterable[MatchLogData]) -> MetricsReport:
    """Aggregate every metric in one walk over the given match logs; no logs, no rows.

    Each Battle-phase decision is either an attack, tallied against the
    attacks of its logged context, or a voluntary switch, timed by the
    context's HP percent; forced replacements count toward neither.
    """
    tallies: dict[str, _Tally] = {}
    for log in logs:
        for side, key in enumerate(storage.SIDE_KEYS):
            agent_id, team = log.meta["agents"][key], log.meta["team_names"][key]
            tally = tallies.setdefault(agent_id, _Tally())
            tally.wins += log.winner_side == side
            tally.teams.append(team)
        for record in log.records:
            if record["kind"] != "decision":
                continue
            tally = tallies[record["agent_id"]]
            if record["reasoning"]:
                tally.words.append(len(record["reasoning"].split()))
            if record["phase"] != storage.PHASE_BATTLE:
                continue
            action, context = record["decision"]["action"], record["context"]
            if not action.is_attack:
                tally.hp_at_switch.append(context["own_hp_percent"])
                continue
            attacks = context["attacks"]  # [move_index, effectiveness, expected_damage] rows
            chosen = next(a for a in attacks if a[0] == action.index)
            tally.attacks += 1
            tally.effective += chosen[1] >= SUPER_EFFECTIVE_THRESHOLD
            tally.optimal += chosen[2] == max(a[2] for a in attacks)
    all_teams = [team for tally in tallies.values() for team in tally.teams]
    jaccard_agents, matrix = jaccard_matrix({a: t.teams[-1] for a, t in tallies.items()})
    return MetricsReport(agents={a: tallies[a].metrics(a) for a in sorted(tallies)},
                         pick_frequency=pick_frequency(all_teams), teams_drafted=len(all_teams),
                         jaccard_agents=jaccard_agents, jaccard=matrix)


def write_report(report: MetricsReport, out_dir: str | Path) -> dict[str, Path]:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {
        "json": out / "report.json",
        "text": out / "report.txt",
        "csv": out / "pick_frequency.csv",
    }
    paths["json"].write_text(
        json.dumps(report.to_dict(), indent=2, ensure_ascii=False) + "\n", encoding="utf-8")
    paths["text"].write_text(report.to_text() + "\n", encoding="utf-8")
    paths["csv"].write_text(report.pick_frequency_csv(), encoding="utf-8")
    return paths
