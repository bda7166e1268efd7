"""Evaluation metrics and reports computed from match logs.

All metrics are pure functions of the logs.  Attack quality has two
routes: the direct route reads the per-decision context that the league
recorded at decision time, and the replay route rebuilds every state
independently of that context, by replaying the logged decisions through
the engine, and recomputes the same numbers; tests assert the two agree.
Both routes rank moves by the same rule, engine.expected_damage.

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
from dataclasses import dataclass, field
from pathlib import Path

from . import storage
from .dex import Dex, type_multiplier
from .engine import expected_damage

SUPER_EFFECTIVE_THRESHOLD = 2.0


class NoMatches(Exception):
    pass


class NoAttackDecisions(Exception):
    pass


class NoLogs(Exception):
    pass


@dataclass
class MatchLogData:
    """One parsed match log."""

    path: Path
    meta: dict
    decisions: list[dict]
    winner_side: int | None

    @property
    def agent_for_side(self) -> dict[int, str]:
        return {0: self.meta["agents"]["a"], 1: self.meta["agents"]["b"]}

    @property
    def winner_agent(self) -> str | None:
        if self.winner_side is None:
            return None
        return self.agent_for_side[self.winner_side]

    def teams_by_agent(self) -> dict[str, list[str]]:
        return {
            self.meta["agents"]["a"]: self.meta["team_names"]["a"],
            self.meta["agents"]["b"]: self.meta["team_names"]["b"],
        }


def load_match_log(path: str | Path) -> MatchLogData:
    records = storage.read_log(path)
    meta = records[0]
    decisions = [r for r in records[1:] if r.get("kind") == "decision"]
    winner_side = None
    for record in records[1:]:
        if record.get("kind") != "events":
            continue
        for event in record["events"]:
            if event["kind"] == "BattleEnded":
                winner_side = event["winner"]
    return MatchLogData(path=Path(path), meta=meta, decisions=decisions,
                        winner_side=winner_side)


def load_log_dir(log_dir: str | Path) -> list[MatchLogData]:
    paths = sorted(Path(log_dir).rglob("*.jsonl"))
    if not paths:
        raise NoLogs(f"no .jsonl logs under {log_dir}")
    return [load_match_log(p) for p in paths]


# ---------------------------------------------------------------------------
# individual metrics
# ---------------------------------------------------------------------------

def win_rate(logs: list[MatchLogData], agent_id: str) -> float:
    """Wins / matches over the logs that involve the agent."""
    matches = [l for l in logs if agent_id in l.agent_for_side.values()]
    if not matches:
        raise NoMatches(f"no matches for agent {agent_id!r}")
    wins = sum(1 for l in matches if l.winner_agent == agent_id)
    return wins / len(matches)


def _attack_decisions(logs: list[MatchLogData], agent_id: str) -> list[dict]:
    out = []
    for log in logs:
        for decision in log.decisions:
            if decision["agent_id"] != agent_id or decision["phase"] != storage.PHASE_BATTLE:
                continue
            action = decision["decision"].get("action")
            if action and action.get("type") == "attack":
                out.append(decision)
    return out


def move_efficiency(logs: list[MatchLogData], agent_id: str) -> dict[str, float]:
    """Effective and optimal attack rates from the logged decision context."""
    attacks = _attack_decisions(logs, agent_id)
    if not attacks:
        raise NoAttackDecisions(f"no attack decisions for agent {agent_id!r}")
    effective = 0
    optimal = 0
    for decision in attacks:
        context = decision["context"]
        chosen_index = decision["decision"]["action"]["move_index"]
        by_index = {a["move_index"]: a for a in context["attacks"]}
        chosen = by_index[chosen_index]
        if chosen["effectiveness"] >= SUPER_EFFECTIVE_THRESHOLD:
            effective += 1
        best = max(a["expected_damage"] for a in context["attacks"])
        if chosen["expected_damage"] == best:
            optimal += 1
    return {
        "effective_move_rate": effective / len(attacks),
        "optimal_move_rate": optimal / len(attacks),
        "attack_decisions": len(attacks),
    }


def switch_metrics(logs: list[MatchLogData], agent_id: str) -> dict:
    """Voluntary-switch frequency and timing (forced replacements excluded)."""
    decision_turns = 0
    voluntary = 0
    hp_at_switch: list[int] = []
    for log in logs:
        for decision in log.decisions:
            if decision["agent_id"] != agent_id:
                continue
            if decision["phase"] != storage.PHASE_BATTLE:
                continue
            decision_turns += 1
            action = decision["decision"].get("action")
            if action and action.get("type") == "switch":
                voluntary += 1
                hp_at_switch.append(decision["context"]["own_hp_percent"])
    rate = voluntary / decision_turns if decision_turns else 0.0
    timing = sum(hp_at_switch) / len(hp_at_switch) if hp_at_switch else None
    return {
        "switch_rate": rate,
        "voluntary_switches": voluntary,
        "decision_turns": decision_turns,
        "mean_hp_percent_at_voluntary_switch": timing,
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
# replay route (independent recomputation of the attack-quality rates)
# ---------------------------------------------------------------------------

def move_efficiency_via_replay(path: str | Path, dex: Dex, agent_id: str) -> dict[str, float]:
    """Recompute effective/optimal rates by replaying the log through the engine.

    Uses reconstructed states, not the logged context, so it cross-checks
    the direct route end to end.
    """
    records = storage.read_log(path)
    meta = records[0]
    side_for_agent = {meta["agents"]["a"]: 0, meta["agents"]["b"]: 1}
    if agent_id not in side_for_agent:
        raise NoMatches(f"agent {agent_id!r} not in log {path}")
    side = side_for_agent[agent_id]

    attacks = 0
    effective = 0
    optimal = 0
    for record, state in storage.replay_walk(records, dex):
        if record.get("kind") != "decision" or record["phase"] != storage.PHASE_BATTLE:
            continue
        if record["side"] != side:
            continue
        action_raw = record["decision"]["action"]
        if action_raw.get("type") != "attack":
            continue
        attacks += 1
        own = state.sides[side].active
        opponent = state.sides[1 - side].active
        chosen_move = dex.moves[own.moves[action_raw["move_index"]]]
        if type_multiplier(dex.chart, chosen_move.move_type, opponent.types) >= SUPER_EFFECTIVE_THRESHOLD:
            effective += 1
        damages = [expected_damage(own, opponent, dex.moves[m], dex.chart, state.weather)
                   for m in own.moves]
        if damages[action_raw["move_index"]] == max(damages):
            optimal += 1
    if not attacks:
        raise NoAttackDecisions(f"no attack decisions for agent {agent_id!r}")
    return {
        "effective_move_rate": effective / attacks,
        "optimal_move_rate": optimal / attacks,
        "attack_decisions": attacks,
    }


# ---------------------------------------------------------------------------
# full report
# ---------------------------------------------------------------------------

@dataclass
class AgentMetrics:
    agent_id: str
    matches: int = 0
    wins: int = 0
    win_rate: float = 0.0
    attack_decisions: int = 0
    effective_move_rate: float | None = None
    optimal_move_rate: float | None = None
    decision_turns: int = 0
    voluntary_switches: int = 0
    switch_rate: float = 0.0
    mean_hp_percent_at_voluntary_switch: float | None = None
    teams_drafted: int = 0
    team_diversity: float = 0.0
    reasoning_word_count_mean: float | None = None  # descriptive only, not a score

    def to_dict(self) -> dict:
        return {
            "agent_id": self.agent_id, "matches": self.matches, "wins": self.wins,
            "losses": self.matches - self.wins, "win_rate": self.win_rate,
            "attack_decisions": self.attack_decisions,
            "effective_move_rate": self.effective_move_rate,
            "optimal_move_rate": self.optimal_move_rate,
            "decision_turns": self.decision_turns,
            "voluntary_switches": self.voluntary_switches,
            "switch_rate": self.switch_rate,
            "mean_hp_percent_at_voluntary_switch": self.mean_hp_percent_at_voluntary_switch,
            "teams_drafted": self.teams_drafted,
            "team_diversity": self.team_diversity,
            "reasoning_word_count_mean": self.reasoning_word_count_mean,
        }


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
        headers = ["Agent", "W-L", "WinRate", "EffMove", "OptMove", "SwRate", "SwHP%", "Div"]
        rows = [headers]
        for agent_id in sorted(self.agents):
            m = self.agents[agent_id]
            rows.append([
                agent_id,
                f"{m.wins}-{m.matches - m.wins}",
                f"{m.win_rate:.3f}",
                "-" if m.effective_move_rate is None else f"{m.effective_move_rate:.3f}",
                "-" if m.optimal_move_rate is None else f"{m.optimal_move_rate:.3f}",
                f"{m.switch_rate:.3f}",
                "-" if m.mean_hp_percent_at_voluntary_switch is None
                else f"{m.mean_hp_percent_at_voluntary_switch:.1f}",
                f"{m.team_diversity:.3f}",
            ])
        widths = [max(len(r[c]) for r in rows) for c in range(len(headers))]
        lines = []
        for i, row in enumerate(rows):
            lines.append("  ".join(cell.ljust(widths[c]) for c, cell in enumerate(row)).rstrip())
            if i == 0:
                lines.append("  ".join("-" * w for w in widths))
        lines.append("")
        lines.append("Pick frequency (teams containing each species):")
        for species, count in self.pick_frequency.items():
            lines.append(f"  {species}: {count}/{self.teams_drafted}")
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
        involved = [l for l in logs if agent_id in l.agent_for_side.values()]
        metrics = AgentMetrics(agent_id=agent_id)
        metrics.matches = len(involved)
        metrics.wins = sum(1 for l in involved if l.winner_agent == agent_id)
        metrics.win_rate = metrics.wins / metrics.matches if metrics.matches else 0.0
        try:
            efficiency = move_efficiency(involved, agent_id)
            metrics.attack_decisions = efficiency["attack_decisions"]
            metrics.effective_move_rate = efficiency["effective_move_rate"]
            metrics.optimal_move_rate = efficiency["optimal_move_rate"]
        except NoAttackDecisions:
            pass
        switches = switch_metrics(involved, agent_id)
        metrics.decision_turns = switches["decision_turns"]
        metrics.voluntary_switches = switches["voluntary_switches"]
        metrics.switch_rate = switches["switch_rate"]
        metrics.mean_hp_percent_at_voluntary_switch = (
            switches["mean_hp_percent_at_voluntary_switch"])
        metrics.teams_drafted = len(teams_by_agent[agent_id])
        metrics.team_diversity = team_diversity(teams_by_agent[agent_id])
        words = reasoning_words[agent_id]
        metrics.reasoning_word_count_mean = sum(words) / len(words) if words else None
        agents[agent_id] = metrics

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
