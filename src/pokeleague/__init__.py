"""Deterministic battle engine and tournament harness for scripted and LLM agents."""

__version__ = "0.1.0"
