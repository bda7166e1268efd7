"""Deterministic battle engine and tournament harness for scripted and LLM agents."""

__version__ = "0.1.0"

from .dex import Dex, load_dex, default_dex_path, type_multiplier
from .engine import (
    Action, BattleState, compute_damage, compute_stats, init_battle,
    legal_actions, resolve_turn, view_for,
)
from .agents import AgentDecision, AgentProfile, GreedyAgent, RandomAgent, TeamPick
from .league import LeagueConfig, MatchRunner, TournamentConfig, run_tournament

__all__ = [
    "Action", "AgentDecision", "AgentProfile", "BattleState", "Dex",
    "GreedyAgent", "LeagueConfig", "MatchRunner", "RandomAgent", "TeamPick",
    "TournamentConfig", "compute_damage", "compute_stats", "default_dex_path",
    "init_battle", "legal_actions", "load_dex", "resolve_turn", "run_tournament",
    "type_multiplier", "view_for",
]
