"""Evaluation metrics and reports computed from match logs.

decision_context is the one builder of the per-decision "context" record
that league logs with every battle-time decision.  All metrics are pure
functions of the logs, as storage.read_log checks and returns them: each
battle-time decision's action is an engine.Action there, so the metrics
read its is_attack and index, never payload keys.

Attack quality shares one rule: decision_context builds each decision's
context and move_efficiency tallies it.  Reports read the contexts logged
at decision time.  The tests hold a replay route as an oracle: it replays
the logged decisions through the engine and builds each context afresh
from the replayed state, and the tests assert the two routes agree.

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
from collections import Counter
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import Sequence

from . import storage
from .dex import Dex, type_multiplier
from .engine import Action, BattleState, expected_damage
from .storage import MatchLogData

SUPER_EFFECTIVE_THRESHOLD = 2.0


class NoMatches(Exception):
    pass


class NoAttackDecisions(Exception):
    pass


class NoLogs(Exception):
    pass


def load_log_dir(log_dir: str | Path) -> list[MatchLogData]:
    """Every .jsonl file under log_dir, read with storage.read_log in path order.

    The metrics read no events and a report holds every log at once, so
    each value drops its records (for 128 long games, about 15 MB).
    """
    paths = sorted(p for p in Path(log_dir).rglob("*.jsonl") if p.is_file())
    if not paths:
        raise NoLogs(f"no .jsonl logs under {log_dir}")
    return [replace(storage.read_log(p), records=[]) for p in paths]


# ---------------------------------------------------------------------------
# the per-decision metric context
# ---------------------------------------------------------------------------

def decision_context(dex: Dex, state: BattleState, side: int, legal: Sequence[Action]) -> dict:
    """The "context" record of a battle-time decision made in this state.

    Lists each legal attack with its effectiveness against the opposing
    active battler and its engine.expected_damage, which the attack
    metrics rank, and the active battler's HP percent for switch timing.
    """
    own = state.sides[side].active
    opponent = state.sides[1 - side].active
    attacks = []
    for action in legal:
        if not action.is_attack:
            continue
        move = dex.moves[own.moves[action.index]]
        attacks.append({
            "move_index": action.index, "move": move.name, "type": move.move_type,
            "effectiveness": type_multiplier(dex.chart, move.move_type, opponent.types),
            "expected_damage": expected_damage(own, opponent, move, dex.chart, state.weather),
        })
    return {
        "own_species": own.species,
        "own_hp_percent": own.hp_percent,
        "opponent_species": opponent.species,
        "opponent_types": list(opponent.types),
        "weather": state.weather,
        "attacks": attacks,
        "switches": [a.index for a in legal if not a.is_attack],
    }


# ---------------------------------------------------------------------------
# individual metrics
# ---------------------------------------------------------------------------

def _involving(logs: list[MatchLogData], agent_id: str) -> list[MatchLogData]:
    """The logs of the agent's matches; NoMatches if there are none."""
    matches = [l for l in logs if agent_id in l.agent_for_side.values()]
    if not matches:
        raise NoMatches(f"no matches for agent {agent_id!r}")
    return matches


def _battle_decisions(logs: list[MatchLogData], agent_id: str) -> list[dict]:
    """The agent's Battle-phase decisions (forced replacements excluded)."""
    return [d for log in _involving(logs, agent_id) for d in log.decisions
            if d["agent_id"] == agent_id and d["phase"] == storage.PHASE_BATTLE]


def move_efficiency(logs: list[MatchLogData], agent_id: str) -> dict[str, float]:
    """Effective and optimal attack rates from the decisions' contexts."""
    attacks = effective = optimal = 0
    for decision in _battle_decisions(logs, agent_id):
        action = decision["decision"]["action"]
        if not action.is_attack:
            continue
        attacks += 1
        context = decision["context"]
        by_index = {a["move_index"]: a for a in context["attacks"]}
        chosen = by_index[action.index]
        if chosen["effectiveness"] >= SUPER_EFFECTIVE_THRESHOLD:
            effective += 1
        best = max(a["expected_damage"] for a in context["attacks"])
        if chosen["expected_damage"] == best:
            optimal += 1
    if not attacks:
        raise NoAttackDecisions(f"no attack decisions for agent {agent_id!r}")
    return {
        "effective_move_rate": effective / attacks,
        "optimal_move_rate": optimal / attacks,
        "attack_decisions": attacks,
    }


def switch_metrics(logs: list[MatchLogData], agent_id: str) -> dict:
    """Voluntary-switch frequency and timing (forced replacements excluded)."""
    decisions = _battle_decisions(logs, agent_id)
    hp_at_switch = [d["context"]["own_hp_percent"] for d in decisions
                    if not d["decision"]["action"].is_attack]
    return {
        "switch_rate": len(hp_at_switch) / len(decisions) if decisions else 0.0,
        "voluntary_switches": len(hp_at_switch),
        "decision_turns": len(decisions),
        "mean_hp_percent_at_voluntary_switch":
            sum(hp_at_switch) / len(hp_at_switch) if hp_at_switch else None,
    }


def pick_frequency(teams: list[list[str]]) -> dict[str, int]:
    """How many teams contain each species (0/1 per team)."""
    counts: Counter[str] = Counter()
    for team in teams:
        for species in set(team):
            counts[species] += 1
    return dict(sorted(counts.items(), key=lambda kv: (-kv[1], kv[0])))


def team_diversity(teams: list[list[str]]) -> float:
    """Distinct species used / total slots across the drafted teams."""
    if not teams:
        return 0.0
    distinct = {s for team in teams for s in team}
    slots = sum(len(team) for team in teams)
    return len(distinct) / slots


def jaccard_matrix(teams_by_agent: dict[str, list[str]]) -> tuple[list[str], list[list[float]]]:
    """Pairwise team-overlap similarity (|A&B| / |A|B|) between agents."""
    ids = sorted(teams_by_agent)
    matrix = []
    for a in ids:
        row = []
        sa = set(teams_by_agent[a])
        for b in ids:
            sb = set(teams_by_agent[b])
            union = sa | sb
            row.append(len(sa & sb) / len(union) if union else 0.0)
        matrix.append(row)
    return ids, matrix


# ---------------------------------------------------------------------------
# full report
# ---------------------------------------------------------------------------

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

    def to_dict(self) -> dict:
        return asdict(self)


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
            "agents": {a: m.to_dict() for a, m in sorted(self.agents.items())},
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
        writer = csv.writer(buffer)
        writer.writerow(["species", "teams_containing", "teams_total"])
        for species, count in self.pick_frequency.items():
            writer.writerow([species, count, self.teams_drafted])
        return buffer.getvalue()


def _word_count(text: str) -> int:
    return len(text.split())


def build_report(logs: list[MatchLogData]) -> MetricsReport:
    """Aggregate every metric over the given match logs."""
    if not logs:
        raise NoLogs("no logs to report on")
    agent_ids = sorted({a for log in logs for a in log.agent_for_side.values()})
    all_teams: list[list[str]] = []
    teams_by_agent: dict[str, list[list[str]]] = {a: [] for a in agent_ids}
    latest_team: dict[str, list[str]] = {}
    reasoning_words: dict[str, list[int]] = {a: [] for a in agent_ids}

    for log in logs:
        for agent_id, team in log.teams_by_agent().items():
            all_teams.append(team)
            teams_by_agent[agent_id].append(team)
            latest_team[agent_id] = team
        for decision in log.decisions:
            if decision["reasoning"]:
                reasoning_words[decision["agent_id"]].append(_word_count(decision["reasoning"]))

    agents: dict[str, AgentMetrics] = {}
    for agent_id in agent_ids:
        involved = _involving(logs, agent_id)
        wins = sum(1 for l in involved if l.winner_agent == agent_id)
        try:
            efficiency = move_efficiency(involved, agent_id)
        except NoAttackDecisions:
            efficiency = {"effective_move_rate": None, "optimal_move_rate": None,
                          "attack_decisions": 0}
        words = reasoning_words[agent_id]
        agents[agent_id] = AgentMetrics(
            agent_id=agent_id, matches=len(involved), wins=wins,
            losses=len(involved) - wins, win_rate=wins / len(involved),
            **efficiency, **switch_metrics(involved, agent_id),
            teams_drafted=len(teams_by_agent[agent_id]),
            team_diversity=team_diversity(teams_by_agent[agent_id]),
            reasoning_word_count_mean=sum(words) / len(words) if words else None)

    jaccard_agents, matrix = jaccard_matrix(latest_team) if latest_team else ([], [])
    return MetricsReport(
        agents=agents,
        pick_frequency=pick_frequency(all_teams),
        teams_drafted=len(all_teams),
        jaccard_agents=jaccard_agents,
        jaccard=matrix,
    )


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
