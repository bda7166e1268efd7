"""Fault injection: LLM entrants whose provider misbehaves on a drawn per-call schedule.

Whatever a model sends or a provider raises, a tournament finishes.  With
disqualify_on_failure off every failed decision is a logged fallback that
carries its errors; with it on, the side that fails first forfeits, and a
battle forfeit's log ends with that fallback.
"""

import json
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from pokeleague import analytics, gateway
from pokeleague.agents import AgentProfile
from pokeleague.gateway import (
    AuthError, ProviderConfig, ProviderError, RateLimited, RequestTimeout,
)
from pokeleague.league import (
    END_FORFEIT, LeagueConfig, TournamentConfig, run_tournament, write_tournament_outputs,
)
from pokeleague.storage import read_log, replay

from conftest import logged_decisions

LLM_IDS = ("llm-0", "llm-1")
ENTRANTS = [
    AgentProfile(agent_id="llm-0", kind="llm", provider="p", model="llm-0"),
    AgentProfile(agent_id="greedy", kind="greedy"),
    AgentProfile(agent_id="llm-1", kind="llm", provider="p", model="llm-1"),
    AgentProfile(agent_id="random", kind="random", seed=3),
]
PROVIDER = ProviderConfig(provider="openai_compatible", endpoint="mock://faults", model="m",
                          api_key_env="POKELEAGUE_TEST_KEY", max_repair_attempts=1)
TRANSPORT_ERRORS = ("AuthError", "RequestTimeout", "RateLimited", "ProviderError")

# The first legal action a battle prompt lists ("- move_index 0: ..." or "- team_index 2: ...").
FIRST_LEGAL = re.compile(r"^- (move|team)_index (\d+):", re.MULTILINE)


def valid_reply(prompt: str, kind: str) -> str:
    if kind == "team":
        return '{"team": [5, 4, 3, 2, 1, 0], "reasoning": "valid"}'
    which, index = FIRST_LEGAL.search(prompt).groups()
    if which == "move":
        return f'{{"action": {{"type": "attack", "move_index": {index}}}, "reasoning": "valid"}}'
    return f'{{"action": {{"type": "switch", "team_index": {index}}}, "reasoning": "valid"}}'


def illegal_reply(prompt: str, kind: str) -> str:
    if kind == "team":
        return '{"team": [0, 0, 0, 0, 0, 0]}'
    return '{"action": {"type": "switch", "team_index": 99}}'


def raiser(error):
    def reply(prompt: str, kind: str) -> str:
        raise error()
    return reply


REPLIES = {
    "valid": valid_reply,
    "garbage": lambda prompt, kind: "I would rather not say.",
    "brace-run": lambda prompt, kind: "{" * 100_000,
    "deep-nesting": lambda prompt, kind: '{"a":' * 3000 + "1" + "}" * 3000,
    "illegal": illegal_reply,
    "auth": raiser(lambda: AuthError("provider rejected credentials (HTTP 401)")),
    "timeout": raiser(lambda: RequestTimeout("read timed out")),
    "rate-limited": raiser(lambda: RateLimited("rate limited (HTTP 429)")),
    "provider": raiser(lambda: ProviderError(503, "unavailable")),
}
# Each LLM entrant's first calls follow its schedule; later calls get valid replies.
SCHEDULES = st.fixed_dictionaries(
    {agent_id: st.lists(st.sampled_from(list(REPLIES)), max_size=8) for agent_id in LLM_IDS})


class ScheduledProvider:
    """Stands in for gateway.complete; the entrant is the config's model."""

    def __init__(self, schedules: dict[str, list[str]]):
        self.schedules = schedules
        self.calls = dict.fromkeys(schedules, 0)

    def __call__(self, config: ProviderConfig, prompt: str) -> dict:
        schedule, n = self.schedules[config.model], self.calls[config.model]
        self.calls[config.model] += 1
        choice = schedule[n] if n < len(schedule) else "valid"
        kind = "team" if prompt.startswith("Select 6") else "action"
        return {"response_text": REPLIES[choice](prompt, kind), "latency_ms": 0.0, "attempt": 1}


def play(dex, schedules, seed, disqualify, out: Path):
    config = TournamentConfig(
        entrants=ENTRANTS, master_seed=seed, providers={"p": PROVIDER}, output_dir=str(out),
        league=LeagueConfig(turn_limit=40, disqualify_on_failure=disqualify))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(gateway, "complete", ScheduledProvider(schedules))
        patch.setenv("POKELEAGUE_TEST_KEY", "test-key")  # build_agent refuses an unset key
        result = run_tournament(ENTRANTS, dex, config, seed)
    return result, out / "logs" / result.tournament_id


def decisions(log_path: Path) -> list[dict]:
    return [r for r in read_log(log_path).records if r["kind"] == "decision"]


def check_decision_record(record: dict, exchanges: list[dict]) -> None:
    """A record's fallback flag and errors agree with the exchanges logged after it."""
    assert record.get("errors") != []  # a decision without errors logs no errors key
    errors = record.get("errors", [])
    if record["agent_id"] not in LLM_IDS:
        assert (exchanges, errors, record["fallback_used"]) == ([], [], False)
        return
    outcomes = [exchange["parse_outcome"] for exchange in exchanges]
    failed = [outcome for outcome in outcomes if outcome != "success"]
    assert [error.split(":")[0] for error in errors[:len(failed)]] == failed
    transport = errors[len(failed):]
    if record["fallback_used"]:
        assert failed == outcomes and errors
        if transport:  # the provider raised: no exchange for that call
            assert len(transport) == 1 and transport[0].split(":")[0] in TRANSPORT_ERRORS
        else:
            assert len(failed) == 1 + PROVIDER.max_repair_attempts
    else:
        assert outcomes[-1:] == ["success"] and not transport


@settings(max_examples=20, deadline=20_000)
@given(schedules=SCHEDULES, seed=st.integers(min_value=0, max_value=2**16))
def test_faulty_llm_entrants_never_break_a_tournament(dex, schedules, seed):
    with tempfile.TemporaryDirectory() as tmp:
        lenient, lenient_logs = play(dex, schedules, seed, False, Path(tmp) / "lenient")
        strict, strict_logs = play(dex, schedules, seed, True, Path(tmp) / "strict")

        # Off: every match is played out; fallbacks are logged with their errors.
        matches = [m for rnd in lenient.rounds for m in rnd]
        assert END_FORFEIT not in {m.end_reason for m in matches}
        for match in matches:
            path = lenient_logs / match.log_files[0]
            for record, exchanges in logged_decisions(path):
                check_decision_record(record, exchanges)
            assert replay(path, dex).winner_agent == match.winner
        bracket_path, _ = write_tournament_outputs(lenient, Path(tmp) / "lenient")
        bracket = json.loads(bracket_path.read_text(encoding="utf-8"))
        report = analytics.build_report(analytics.load_log_dir(lenient_logs))
        assert {a: (m.wins, m.losses) for a, m in report.agents.items()} == {
            s["agent_id"]: (s["wins"], s["losses"]) for s in bracket["standings"]}

        # On: a first-round match ends where the lenient run first fell back, as
        # a forfeit by that side; until then both runs make the same calls.
        for off, on in zip(lenient.rounds[0], strict.rounds[0]):
            fallbacks = [r for r in decisions(lenient_logs / off.log_files[0])
                         if r["fallback_used"]]
            if fallbacks:
                assert (on.end_reason, on.loser) == (END_FORFEIT, fallbacks[0]["agent_id"])
            else:
                assert on.to_dict() == off.to_dict()
        for match in (m for rnd in strict.rounds for m in rnd):
            assert match.end_reason != END_FORFEIT or match.loser in LLM_IDS
            for log_file in match.log_files:  # completed games never fall back
                assert not any(r["fallback_used"] for r in decisions(strict_logs / log_file))
            # A battle forfeit's partial log ends with the loser's fallback and its cause.
            partial = strict_logs / f"{match.match_id}.jsonl"
            if match.end_reason == END_FORFEIT and partial.exists():
                record, exchanges = logged_decisions(partial)[-1]
                assert (record["agent_id"], record["fallback_used"]) == (match.loser, True)
                check_decision_record(record, exchanges)
