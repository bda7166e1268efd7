"""Prompt rendering, response parsing, provider transport, repair loop."""

import json
import time
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from pokeleague.agents import make_pool_view
from pokeleague.engine import Action, init_battle, legal_actions, view_for
from pokeleague.gateway import (
    AgentFailure, AuthError, DuplicateIndex, IllegalAction, IndexOutOfRange,
    LlmAgent, NoJsonFound, ParseError, ProviderConfig, ProviderError, RateLimited,
    RawExchange, ScriptCompleter, TokenBucket, UnknownActionType, WrongArity,
    build_battle_prompt, build_team_prompt, complete, extract_first_json,
    parse_action_response, parse_team_response, render_action_json,
    render_team_json, repair_prompt,
)

GOLDEN = Path(__file__).parent / "golden"

PAPER_TEAM_RESPONSE = """{
  "team": [0, 3, 5, 8, 11, 14],
  "reasoning": "I chose Gyarados for
  Water/Flying coverage, Magnezone for Electric/Steel,
  and Gliscor to counter Electric threats.
  The team balances physical and special attacks,
  while covering common types like Fire,
  Water, and Ground."
}"""

PAPER_ACTION_RESPONSE = """{
  "action":
  { "type": "attack", "move_index": 1 },
  "reasoning":
  "Gyarados is Water/Flying-type
  and weak to Electric.
  Jolteon’s Thunderbolt
  should be super effective.
  Since Jolteon
  outspeeds most threats,
  I’ll go for an
  attack rather than switch."
}"""


def battle_fixture(dex):
    state, _ = init_battle(
        dex,
        ["Jolteon", "Snorlax", "Swampert", "Gengar", "Metagross", "Salamence"],
        ["Gyarados", "Tyranitar", "Blissey", "Zapdos", "Heracross", "Lapras"],
        seed=1)
    state.sides[0].team[0].current_hp = 90   # 72% of 125
    state.sides[1].team[0].current_hp = 93   # 60% of 155
    state.turn_number = 3
    return state


# ---------------------------------------------------------------------------
# prompts
# ---------------------------------------------------------------------------

def test_team_prompt_matches_golden(dex):
    prompt = build_team_prompt(make_pool_view(dex))
    assert prompt == (GOLDEN / "team_prompt.txt").read_text(encoding="utf-8")


def test_team_prompt_numbers_every_pool_entry(dex):
    pool = make_pool_view(dex)
    prompt = build_team_prompt(pool)
    for entry in pool:
        assert f"\n{entry.index}. {entry.name} (" in prompt or prompt.startswith(
            f"{entry.index}. {entry.name} (")
    assert "30." not in prompt
    assert prompt.startswith("Select 6 Pokémon from the list below.")
    assert '"team"' in prompt and '"reasoning"' in prompt


def test_team_prompt_renders_dual_types(dex):
    prompt = build_team_prompt(make_pool_view(dex))
    assert "Swampert (Water/Ground)" in prompt
    assert "Arcanine (Fire)" in prompt


def test_battle_prompt_matches_golden(dex):
    state = battle_fixture(dex)
    prompt = build_battle_prompt(view_for(state, 0), legal_actions(state, 0), dex)
    assert prompt == (GOLDEN / "battle_prompt.txt").read_text(encoding="utf-8")


def test_battle_prompt_has_paper_status_clauses(dex):
    state = battle_fixture(dex)
    prompt = build_battle_prompt(view_for(state, 0), legal_actions(state, 0), dex)
    assert "Your active Pokémon: Jolteon (HP: 72%, Status: Healthy)." in prompt
    assert "Opponent's active Pokémon: Gyarados (HP: 60%, Status: Healthy)." in prompt
    assert prompt.rstrip().endswith('"team_index": N}, "reasoning": "..."}.')
    assert "What do you do? Choose a move or switch, and explain your reasoning." in prompt


def test_forced_replacement_prompt_lists_only_switches(dex):
    state = battle_fixture(dex)
    state.sides[0].team[0].current_hp = 0
    legal = legal_actions(state, 0)
    prompt = build_battle_prompt(view_for(state, 0), legal, dex)
    assert "Attacks:" not in prompt
    assert "Switches:" in prompt
    assert "move_index" not in prompt.split("Legal actions:")[1].split("What do you do?")[0]


def test_prompts_are_pure(dex):
    pool = make_pool_view(dex)
    assert build_team_prompt(pool) == build_team_prompt(pool)
    state = battle_fixture(dex)
    view, legal = view_for(state, 0), legal_actions(state, 0)
    assert build_battle_prompt(view, legal, dex) == build_battle_prompt(view, legal, dex)


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

def test_parse_paper_team_sample():
    team, reasoning = parse_team_response(PAPER_TEAM_RESPONSE, 30)
    assert team.indices == (0, 3, 5, 8, 11, 14)
    assert "I chose Gyarados" in reasoning


def test_parse_fenced_team_defaults_reasoning():
    team, reasoning = parse_team_response('```json {"team":[0,1,2,3,4,5]} ```', 30)
    assert team.indices == (0, 1, 2, 3, 4, 5)
    assert reasoning == ""


@pytest.mark.parametrize("raw,error", [
    ('{"team":[0,0,1,2,3,4]}', DuplicateIndex),
    ('{"team":[0,1,2,3,4]}', WrongArity),
    ('{"team":[0,1,2,3,4,5,6]}', WrongArity),
    ('{"team":[0,1,2,3,4,30]}', IndexOutOfRange),
    ('{"team":[0,1,2,3,4,-1]}', IndexOutOfRange),
    ('{"team":[0,1,2,3,4,"x"]}', IndexOutOfRange),
    ('{"reasoning":"no team"}', WrongArity),
    ("utter nonsense, no braces", NoJsonFound),
])
def test_parse_team_errors(raw, error):
    with pytest.raises(error):
        parse_team_response(raw, 30)


def test_parse_paper_action_sample():
    legal = [Action.attack(i) for i in range(4)]
    action, reasoning = parse_action_response(PAPER_ACTION_RESPONSE, legal)
    assert action == Action.attack(1)
    assert "super effective" in reasoning


def test_parse_action_with_trailing_prose():
    legal = [Action.attack(0)]
    raw = 'Here you go: {"action": {"type": "attack", "move_index": 0}, "reasoning": "hit"} Good luck!'
    action, reasoning = parse_action_response(raw, legal)
    assert action == Action.attack(0)
    assert reasoning == "hit"


def test_parse_action_rejects_illegal_switch():
    legal = [Action.attack(0), Action.switch(2)]
    with pytest.raises(IllegalAction):
        parse_action_response('{"action":{"type":"switch","team_index":5}}', legal)


def test_parse_action_unknown_type():
    legal = [Action.attack(0)]
    with pytest.raises(UnknownActionType):
        parse_action_response('{"action":{"type":"mega_evolve"}}', legal)
    with pytest.raises(UnknownActionType):
        parse_action_response('{"reasoning":"no action key"}', legal)


@pytest.mark.parametrize("raw", ["{" * 100_000, '{"a":' * 20_000],
                         ids=["open-braces", "unclosed-keys"])
def test_extract_first_json_work_is_bounded(raw):
    started = time.perf_counter()
    with pytest.raises(NoJsonFound):
        extract_first_json(raw)
    assert time.perf_counter() - started < 2.0


def test_extract_first_json_deep_nesting_is_a_parse_error():
    with pytest.raises(NoJsonFound):
        extract_first_json('{"a":' * 3000 + "1" + "}" * 3000)
    assert extract_first_json("prose " * 20_000 + '{"a": 1}') == {"a": 1}


@given(st.text(alphabet='{}[]":,\\ a1', max_size=300))
def test_extract_first_json_raises_only_parse_errors(raw):
    try:
        assert isinstance(extract_first_json(raw), dict)
    except ParseError:
        pass


def test_extract_first_json_picks_first_object():
    raw = 'bad { not json } then {"a": 1} and {"b": 2}'
    assert extract_first_json(raw) == {"a": 1}
    with pytest.raises(NoJsonFound):
        extract_first_json("");
    with pytest.raises(NoJsonFound):
        extract_first_json("{ broken")


@given(st.lists(st.sampled_from([
    Action.attack(0), Action.attack(1), Action.attack(2), Action.attack(3),
    Action.switch(1), Action.switch(2), Action.switch(3), Action.switch(4), Action.switch(5),
]), min_size=1, max_size=9, unique=True))
def test_action_roundtrip_over_legal_sets(legal):
    for action in legal:
        parsed, _ = parse_action_response(render_action_json(action, "because"), legal)
        assert parsed == action


def test_team_roundtrip():
    from pokeleague.agents import TeamPick

    pick = TeamPick((3, 1, 4, 0, 5, 9))
    parsed, reasoning = parse_team_response(render_team_json(pick, "r"), 10)
    assert parsed == pick
    assert reasoning == "r"


def test_parsing_is_pure_no_state():
    raw = '{"team":[0,1,2,3,4,5]}'
    assert parse_team_response(raw, 30) == parse_team_response(raw, 30)


# ---------------------------------------------------------------------------
# transport
# ---------------------------------------------------------------------------

def make_config(**overrides):
    defaults = dict(
        provider="openai_compatible",
        endpoint="https://example.test/v1/chat/completions",
        model="test-model", api_key_env="POKELEAGUE_TEST_KEY",
        max_retries=2, backoff_ms=100)
    defaults.update(overrides)
    return ProviderConfig(**defaults)


def openai_payload(text):
    return {"choices": [{"message": {"content": text}}]}


def test_complete_success_first_attempt(monkeypatch):
    monkeypatch.setenv("POKELEAGUE_TEST_KEY", "k")
    calls = []

    def transport(url, headers, body, timeout):
        calls.append((url, headers, body))
        return 200, openai_payload('{"team":[0,1,2,3,4,5]}')

    exchange = complete(make_config(), "prompt text", transport=transport, sleep=lambda s: None)
    assert exchange.attempt == 1
    assert exchange.response_text == '{"team":[0,1,2,3,4,5]}'
    assert len(calls) == 1
    url, headers, body = calls[0]
    assert headers["Authorization"] == "Bearer k"
    assert body["messages"][1]["content"] == "prompt text"
    assert body["messages"][0]["role"] == "system"


def test_complete_retries_429_then_succeeds(monkeypatch):
    monkeypatch.setenv("POKELEAGUE_TEST_KEY", "k")
    sleeps = []
    responses = [(429, "slow down"), (429, "slow down"), (200, openai_payload("ok"))]

    def transport(url, headers, body, timeout):
        return responses.pop(0)

    exchange = complete(make_config(), "p", transport=transport, sleep=sleeps.append)
    assert exchange.attempt == 3
    assert exchange.response_text == "ok"
    assert len(sleeps) == 2
    assert sleeps[1] == sleeps[0] * 2  # exponential backoff


def test_complete_rate_limited_after_retries(monkeypatch):
    monkeypatch.setenv("POKELEAGUE_TEST_KEY", "k")
    calls = []

    def transport(url, headers, body, timeout):
        calls.append(1)
        return 429, "nope"

    with pytest.raises(RateLimited):
        complete(make_config(max_retries=2), "p", transport=transport, sleep=lambda s: None)
    assert len(calls) == 3  # 1 + max_retries


def test_complete_5xx_then_provider_error(monkeypatch):
    monkeypatch.setenv("POKELEAGUE_TEST_KEY", "k")
    with pytest.raises(ProviderError) as excinfo:
        complete(make_config(max_retries=1), "p",
                 transport=lambda *a: (503, "boom"), sleep=lambda s: None)
    assert excinfo.value.status == 503


def test_complete_auth_error_without_key(monkeypatch):
    monkeypatch.delenv("POKELEAGUE_TEST_KEY", raising=False)
    calls = []
    with pytest.raises(AuthError):
        complete(make_config(), "p",
                 transport=lambda *a: calls.append(1) or (200, {}), sleep=lambda s: None)
    assert calls == []  # no network traffic before the key check


def test_complete_401_is_auth_error_no_retry(monkeypatch):
    monkeypatch.setenv("POKELEAGUE_TEST_KEY", "bad")
    calls = []

    def transport(url, headers, body, timeout):
        calls.append(1)
        return 401, "denied"

    with pytest.raises(AuthError):
        complete(make_config(), "p", transport=transport, sleep=lambda s: None)
    assert len(calls) == 1


def test_anthropic_and_gemini_wire_shapes(monkeypatch):
    monkeypatch.setenv("POKELEAGUE_TEST_KEY", "secret")
    seen = {}

    def transport(url, headers, body, timeout):
        seen["url"], seen["headers"], seen["body"] = url, headers, body
        if "anthropic" in url:
            return 200, {"content": [{"text": "claude says hi"}]}
        return 200, {"candidates": [{"content": {"parts": [{"text": "gemini says hi"}]}}]}

    anthropic = make_config(provider="anthropic", endpoint="https://anthropic.test/v1/messages")
    exchange = complete(anthropic, "p", transport=transport, sleep=lambda s: None)
    assert exchange.response_text == "claude says hi"
    assert seen["headers"]["x-api-key"] == "secret"
    assert seen["body"]["system"]
    assert seen["body"]["messages"] == [{"role": "user", "content": "p"}]

    gemini = make_config(provider="gemini", endpoint="https://gemini.test/v1/models/x:generateContent")
    exchange = complete(gemini, "p", transport=transport, sleep=lambda s: None)
    assert exchange.response_text == "gemini says hi"
    assert "key=secret" in seen["url"]
    assert seen["body"]["contents"][0]["parts"][0]["text"] == "p"


def test_provider_config_validation():
    with pytest.raises(ValueError):
        make_config(provider="carrier_pigeon")
    with pytest.raises(ValueError):
        make_config(timeout_s=0)
    with pytest.raises(ValueError):
        make_config(max_retries=-1)


def test_token_bucket_blocks_until_refill():
    clock = {"t": 0.0}
    waits = []

    def sleep(s):
        waits.append(s)
        clock["t"] += s

    bucket = TokenBucket(capacity=2, refill_per_s=1.0, clock=lambda: clock["t"], sleep=sleep)
    bucket.acquire()
    bucket.acquire()
    bucket.acquire()  # empty: must wait ~1s for a token
    assert waits and abs(sum(waits) - 1.0) < 1e-6


# ---------------------------------------------------------------------------
# repair loop
# ---------------------------------------------------------------------------

class RecordingCompleter:
    def __init__(self, responses):
        self.responses = list(responses)
        self.prompts = []

    def __call__(self, prompt, kind):
        self.prompts.append(prompt)
        text = self.responses.pop(0) if self.responses else "garbage"
        return RawExchange(prompt=prompt, response_text=text, latency_ms=0.0, attempt=1)


def make_llm_agent(dex, responses, max_repair_attempts=3):
    config = ProviderConfig(
        provider="openai_compatible", endpoint="mock://x", model="m",
        api_key_env="POKELEAGUE_TEST_KEY", max_repair_attempts=max_repair_attempts)
    completer = RecordingCompleter(responses)
    return LlmAgent("llm-test", config, dex, completer=completer), completer


def test_repair_loop_recovers_after_error(dex):
    state = battle_fixture(dex)
    view, legal = view_for(state, 0), legal_actions(state, 0)
    agent, completer = make_llm_agent(dex, [
        '{"action": {"type": "switch", "team_index": 0}}',  # illegal: active slot
        '{"action": {"type": "attack", "move_index": 0}, "reasoning": "fixed"}',
    ])
    decision = agent.choose_action(view, legal)
    assert decision.action == Action.attack(0)
    assert decision.reasoning == "fixed"
    assert len(completer.prompts) == 2
    assert "Respond with only the JSON object." in completer.prompts[1]
    assert "illegal_action" in completer.prompts[1]
    assert agent.last_trace.exchanges[0].parse_outcome == "illegal_action"
    assert agent.last_trace.exchanges[1].parse_outcome == "success"


def test_repair_loop_bound_then_agent_failure(dex):
    state = battle_fixture(dex)
    view, legal = view_for(state, 0), legal_actions(state, 0)
    agent, completer = make_llm_agent(dex, [], max_repair_attempts=3)
    with pytest.raises(AgentFailure) as excinfo:
        agent.choose_action(view, legal)
    assert len(completer.prompts) == 4  # 1 + max_repair_attempts
    assert len(excinfo.value.trace.exchanges) == 4


def test_total_provider_call_bound(monkeypatch, dex):
    # Every prompt transports fine but parses to garbage, and every transport
    # attempt 429s max_retries times first: calls <= (1+repairs) * (1+retries)
    monkeypatch.setenv("POKELEAGUE_TEST_KEY", "k")
    transport_calls = []
    responses = []

    def transport(url, headers, body, timeout):
        transport_calls.append(1)
        if len(responses) < 2:
            responses.append(1)
            return 429, "slow"
        responses.clear()
        return 200, openai_payload("not json at all")

    config = make_config(max_retries=2, max_repair_attempts=3)
    agent = LlmAgent(
        "llm", config, dex,
        completer=lambda prompt, kind: complete(
            config, prompt, transport=transport, sleep=lambda s: None))
    pool = make_pool_view(dex)
    with pytest.raises(AgentFailure):
        agent.select_team(pool)
    bound = (1 + config.max_repair_attempts) * (1 + config.max_retries)
    assert len(transport_calls) <= bound
    assert len(transport_calls) == 12  # exactly at the bound in this scenario


def test_llm_agent_team_selection(dex):
    pool = make_pool_view(dex)
    agent, _ = make_llm_agent(dex, ['{"team": [9, 8, 7, 6, 5, 4], "reasoning": "meta"}'])
    decision = agent.select_team(pool)
    assert decision.team.indices == (9, 8, 7, 6, 5, 4)
    assert decision.reasoning == "meta"


def test_script_completer_cycles(tmp_path, dex):
    script = {
        "team": ['{"team": [0, 1, 2, 3, 4, 5], "reasoning": "canned"}'],
        "action": [
            '{"action": {"type": "attack", "move_index": 0}, "reasoning": "hit"}',
            '{"action": {"type": "attack", "move_index": 1}, "reasoning": "hit harder"}',
        ],
    }
    path = tmp_path / "script.json"
    path.write_text(json.dumps(script), encoding="utf-8")
    completer = ScriptCompleter.from_file(str(path))
    assert completer("p", "action").response_text.endswith('"hit"}')
    assert completer("p", "action").response_text.endswith('"hit harder"}')
    assert completer("p", "action").response_text.endswith('"hit"}')  # cycles
    assert "canned" in completer("p", "team").response_text


def test_repair_prompt_wording():
    err = NoJsonFound("no JSON object in response")
    text = repair_prompt("ORIGINAL", err)
    assert text.startswith("ORIGINAL")
    assert text.endswith("Respond with only the JSON object.")


def test_history_flag_off_by_default_and_on_when_enabled(dex):
    state = battle_fixture(dex)
    view, legal = view_for(state, 0), legal_actions(state, 0)
    valid = '{"action": {"type": "attack", "move_index": 0}, "reasoning": "go"}'

    config = ProviderConfig(
        provider="openai_compatible", endpoint="mock://x", model="m",
        api_key_env="POKELEAGUE_TEST_KEY")
    stateless = LlmAgent("llm", config, dex,
                         completer=RecordingCompleter([valid, valid]))
    stateless.choose_action(view, legal)
    stateless.choose_action(view, legal)
    assert "Previous turns:" not in stateless.last_trace.exchanges[0].prompt

    remembering = LlmAgent("llm", config, dex,
                           completer=RecordingCompleter([valid, valid]),
                           include_history=True)
    remembering.choose_action(view, legal)
    remembering.choose_action(view, legal)
    second_prompt = remembering.last_trace.exchanges[0].prompt
    assert "Previous turns:" in second_prompt
    assert "Turn 3" in second_prompt


def test_provider_config_roundtrips_every_field():
    config = make_config(rate_capacity=5, rate_refill_per_s=2.5, temperature=0.1)
    assert ProviderConfig.from_dict(config.to_dict()) == config
    assert config.to_dict()["rate_capacity"] == 5
    assert config.to_dict()["rate_refill_per_s"] == 2.5
