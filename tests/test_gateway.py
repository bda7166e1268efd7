"""Prompt rendering and response parsing (pokeleague.prompts); provider transport and
the repair loop (pokeleague.gateway)."""

import http.server
import json
import random
import socket
import threading
import time
from pathlib import Path

import pytest
import requests
from hypothesis import given, strategies as st

from pokeleague import gateway, prompts
from pokeleague.agents import AgentProfile, make_pool_view
from pokeleague.engine import Action, init_battle, legal_actions, view_for
from pokeleague.gateway import (
    AgentFailure, AuthError, LlmAgent, ProviderConfig, ProviderError, RateLimited,
    RequestTimeout, ScriptCompleter, TokenBucket, complete,
)
from pokeleague.league import (
    LeagueConfig, TournamentConfig, run_tournament, write_tournament_outputs,
)
from pokeleague.cli import main
from pokeleague.prompts import (
    ParseError, build_battle_prompt, build_team_prompt, check_action, extract_first_json,
    history_entry, parse_action_response, parse_team_response, repair_prompt,
)
from pokeleague.storage import read_log

from conftest import logged_decisions, set_battler


def render_action_json(action, reasoning=""):
    """The documented response shape for an action."""
    return json.dumps({"action": action.to_dict(), "reasoning": reasoning})


def render_team_json(team, reasoning=""):
    return json.dumps({"team": list(team), "reasoning": reasoning})

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
    set_battler(state, 0, 0, current_hp=90)   # 72% of 125
    set_battler(state, 1, 0, current_hp=93)   # 60% of 155
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
    for position, entry in enumerate(pool):
        assert f"\n{position}. {entry.name} (" in prompt or prompt.startswith(
            f"{position}. {entry.name} (")
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
    set_battler(state, 0, 0, current_hp=0)
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


def test_history_entry_text(dex):
    view = view_for(battle_fixture(dex), 0)
    entry = history_entry(view, Action.attack(1))
    assert entry == "Turn 3: Jolteon chose attack:1 vs Gyarados"
    prompt = build_battle_prompt(view, legal_actions(battle_fixture(dex), 0), dex, (entry,))
    assert "\nPrevious turns:\n- Turn 3: Jolteon chose attack:1 vs Gyarados\n" in prompt


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

def test_parse_paper_team_sample():
    team, reasoning = parse_team_response(PAPER_TEAM_RESPONSE, 30)
    assert team == (0, 3, 5, 8, 11, 14)
    assert "I chose Gyarados" in reasoning


def test_parse_fenced_team_defaults_reasoning():
    team, reasoning = parse_team_response('```json {"team":[0,1,2,3,4,5]} ```', 30)
    assert team == (0, 1, 2, 3, 4, 5)
    assert reasoning == ""


PARSE_ERROR_KINDS = ("no_json_found", "wrong_arity", "index_out_of_range", "duplicate_index",
                     "unknown_action_type", "illegal_action")


def kind_id(value):
    """Test ids show a parse-error kind in CamelCase (duplicate_index -> DuplicateIndex)."""
    return value.title().replace("_", "") if value in PARSE_ERROR_KINDS else None


@pytest.mark.parametrize("raw,kind", [
    ('{"team":[0,0,1,2,3,4]}', "duplicate_index"),
    ('{"team":[0,1,2,3,4]}', "wrong_arity"),
    ('{"team":[0,1,2,3,4,5,6]}', "wrong_arity"),
    ('{"team":[0,1,2,3,4,30]}', "index_out_of_range"),
    ('{"team":[0,1,2,3,4,-1]}', "index_out_of_range"),
    ('{"team":[0,1,2,3,4,"x"]}', "index_out_of_range"),
    ('{"reasoning":"no team"}', "wrong_arity"),
    ("utter nonsense, no braces", "no_json_found"),
], ids=kind_id)
def test_parse_team_errors(raw, kind):
    with pytest.raises(ParseError) as excinfo:
        parse_team_response(raw, 30)
    assert excinfo.value.kind == kind


# Every message a parse error can carry: each is logged in a decision's
# errors and quoted by the repair prompt, so they are part of the log format.
@pytest.mark.parametrize("parser,raw,message", [
    ("team", "prose only", "no_json_found: no JSON object in response"),
    ("team", "{" * 100_000,
     "no_json_found: gave up: the scan budget of 1000000 characters is spent"),
    ("team", '{"team": [0, 1]}', "wrong_arity: expected 6 team indices, got 2"),
    ("team", '{"team": "012345"}', "wrong_arity: expected 6 team indices, got 0"),
    ("team", '{"team": [0, 1, 2, 3, 4, 30]}', "index_out_of_range: index 30 is outside the pool"),
    ("team", '{"team": [0, 1, 2, 3, 4, "x"]}', "index_out_of_range: index 'x' is outside the pool"),
    ("team", '{"team": [0, 1, 2, 3, 4, true]}', "index_out_of_range: index True is outside the pool"),
    ("team", '{"team": [0, 1, 2, 3, 1, 4]}', "duplicate_index: index 1 appears more than once"),
    ("action", '{"action": "attack"}', "unknown_action_type: missing or non-object 'action': 'attack'"),
    ("action", '{"reasoning": "none"}', "unknown_action_type: missing or non-object 'action': None"),
    ("action", '{"action": {"type": "fly"}}', "unknown_action_type: unknown action type 'fly'"),
    ("action", '{"action": {"type": ["attack"]}}',
     "unknown_action_type: unknown action type ['attack']"),
    ("action", '{"action": {"type": "attack", "move_index": "0"}}',
     "illegal_action: attack without integer move_index: '0'"),
    ("action", '{"action": {"type": "switch", "team_index": true}}',
     "illegal_action: switch without integer team_index: True"),
    ("action", '{"action": {"type": "attack", "team_index": 0}}',
     "illegal_action: attack without integer move_index: None"),
    ("action", '{"action": {"type": "switch", "team_index": 5}}',
     "illegal_action: switch:5 is not in the legal action set"),
])
def test_parse_error_messages(parser, raw, message):
    parse = {"team": lambda raw: parse_team_response(raw, 30),
             "action": lambda raw: parse_action_response(raw, [Action.attack(0), Action.switch(2)])}
    with pytest.raises(ParseError) as excinfo:
        parse[parser](raw)
    assert str(excinfo.value) == message
    assert excinfo.value.kind == message.split(":")[0]


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
    with pytest.raises(ParseError, match="^illegal_action: "):
        parse_action_response('{"action":{"type":"switch","team_index":5}}', legal)


def test_parse_action_unknown_type():
    legal = [Action.attack(0)]
    with pytest.raises(ParseError, match="^unknown_action_type: "):
        parse_action_response('{"action":{"type":"mega_evolve"}}', legal)
    with pytest.raises(ParseError, match="^unknown_action_type: "):
        parse_action_response('{"reasoning":"no action key"}', legal)


@pytest.mark.parametrize("raw", ["{" * 100_000, '{"a":' * 20_000],
                         ids=["open-braces", "unclosed-keys"])
def test_extract_first_json_work_is_bounded(raw):
    started = time.perf_counter()
    with pytest.raises(ParseError, match="^no_json_found: "):
        extract_first_json(raw)
    assert time.perf_counter() - started < 2.0


def test_extract_first_json_skips_an_integer_too_long_to_decode():
    too_long = '{"a": ' + "9" * 5000 + "}"  # past the interpreter's 4300-digit limit
    with pytest.raises(ParseError, match="^no_json_found: "):
        extract_first_json(too_long)
    assert extract_first_json(too_long + ' then {"b": 1}') == {"b": 1}


def test_extract_first_json_deep_nesting_is_a_parse_error():
    # Deeper than any supported decoder accepts: 3.13's C scanner decodes about 9,998 levels.
    with pytest.raises(ParseError, match="^no_json_found: "):
        extract_first_json('{"a":' * 20_000 + "1" + "}" * 20_000)
    assert extract_first_json("prose " * 20_000 + '{"a": 1}') == {"a": 1}


@given(st.text(alphabet='{}[]":,\\ a1', max_size=300))
def test_extract_first_json_raises_only_parse_errors(raw):
    try:
        assert isinstance(extract_first_json(raw), dict)
    except ParseError:
        pass


def rescanning_extract(raw, max_scan_chars, failed_decode_chars):
    """extract_first_json without its decode-from-the-first-start fast path: each
    candidate start is scanned afresh and handed to json.loads, and a candidate
    that fails to decode costs failed_decode_chars more.  The reference for
    every parse outcome."""
    budget = max_scan_chars
    start = raw.find("{")
    while start != -1:
        stop = min(len(raw), start + budget)
        depth, in_string, escaped = 0, False, False
        for pos in range(start, stop):
            ch = raw[pos]
            if in_string:
                if escaped:
                    escaped = False
                elif ch == "\\":
                    escaped = True
                elif ch == '"':
                    in_string = False
            elif ch == '"':
                in_string = True
            elif ch == "{":
                depth += 1
            elif ch == "}":
                depth -= 1
                if depth == 0:
                    try:
                        return json.loads(raw[start:pos + 1], strict=False)
                    except (json.JSONDecodeError, RecursionError):
                        budget -= failed_decode_chars
                        break
        else:
            if stop < len(raw):
                raise ParseError("no_json_found", f"gave up: the scan budget of "
                                                  f"{max_scan_chars} characters is spent")
        budget -= pos + 1 - start
        start = raw.find("{", start + 1)
    raise ParseError("no_json_found", "no JSON object in response")


def parse_outcome(extract, *args):
    try:
        return extract(*args)
    except ParseError as err:
        return str(err)


REPLY_PIECES = ['{', '}', '"', '\\', '\\"', '{"a": ', '"}', '1', ', ', ' x ', '[', ']', '\n']


# MAX_SCAN_CHARS -> the FAILED_DECODE_CHARS tried with it: the shipped pair,
# and small budgets that a few scans and failed decodes exhaust.
FAILED_DECODE_CHARS_AT = {1_000_000: prompts.FAILED_DECODE_CHARS, 40: 3, 9: 1, 13: 100}


@pytest.mark.parametrize("max_scan_chars", [1_000_000, 40, 9])
@given(raw=st.text(alphabet='{}[]":,\\ a1', max_size=80)
       | st.lists(st.sampled_from(REPLY_PIECES), max_size=40).map("".join))
def test_one_pass_parse_agrees_with_rescanning_every_start(max_scan_chars, raw):
    """Same object or same ParseError as the rescanning parser, budget exhaustion included."""
    failed_decode_chars = FAILED_DECODE_CHARS_AT[max_scan_chars]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(prompts, "MAX_SCAN_CHARS", max_scan_chars)
        patch.setattr(prompts, "FAILED_DECODE_CHARS", failed_decode_chars)
        assert parse_outcome(extract_first_json, raw) == parse_outcome(
            rescanning_extract, raw, max_scan_chars, failed_decode_chars)


@pytest.mark.parametrize("max_scan_chars", [1_000_000, 40, 13])
def test_one_pass_parse_agrees_on_many_random_replies(max_scan_chars):
    """A seeded sweep wider than the property above: the string-state bookkeeping
    (escapes, quotes) and the fast path's cutoff show only on some replies."""
    failed_decode_chars = FAILED_DECODE_CHARS_AT[max_scan_chars]
    rng = random.Random(max_scan_chars)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(prompts, "MAX_SCAN_CHARS", max_scan_chars)
        patch.setattr(prompts, "FAILED_DECODE_CHARS", failed_decode_chars)
        for _ in range(10_000):
            if rng.random() < 0.5:
                raw = "".join(rng.choices('{}[]":,\\ a1', k=rng.randint(0, 60)))
            else:
                raw = "".join(rng.choices(REPLY_PIECES, k=rng.randint(0, 30)))
            assert parse_outcome(extract_first_json, raw) == parse_outcome(
                rescanning_extract, raw, max_scan_chars, failed_decode_chars), raw


@pytest.mark.parametrize("raw", [
    "{" * 100_000, '{"a":' * 3000 + "1" + "}" * 3000, '{"a":' * 20_000,
    'x {"s": "}{\\"{"} {"a": {"b": [1, {"c": "\\\\"}]}} tail',
    '{"\\"' * 25_000, '{"\\"' * 250_000, '{"' * 500_000, '{"a": "' + "x y " * 500_000,
    '{]' * 500_000, ('{' * 500 + '}' * 500 + 'x') * 1000,
    ('{"a": 1 x}' * 5) * 20_000, '{x}' * 333_333,
], ids=["brace-run", "deep-nesting", "unclosed-keys", "strings-and-escapes",
        "escaped-quotes-100k", "escaped-quotes-1m", "brace-quote-1m", "open-string-2m",
        "brace-bracket-1m", "balanced-blocks", "malformed-objects", "short-malformed"])
def test_one_pass_parse_agrees_on_the_worst_cases(raw):
    """Replies that make the scans cost the most: every start open to the budget's
    end, a long balanced span per start that does not parse, or many short ones;
    the work stays bounded."""
    started = time.perf_counter()
    outcome = parse_outcome(extract_first_json, raw)
    assert time.perf_counter() - started < 2.0
    assert outcome == parse_outcome(rescanning_extract, raw, prompts.MAX_SCAN_CHARS,
                                    prompts.FAILED_DECODE_CHARS)


@pytest.mark.parametrize("piece", ['{"a": 1 x}', "{x}"])
def test_failed_decodes_are_charged_against_the_scan_budget(piece, monkeypatch):
    """A reply of short malformed candidates gives up after the budget buys, in scanned
    characters and FAILED_DECODE_CHARS per failed decode, not after a decode per start."""
    decodes = []
    scan = prompts._SCAN
    monkeypatch.setattr(prompts, "_SCAN", lambda text, i: decodes.append(i) or scan(text, i))
    raw = piece * (prompts.MAX_SCAN_CHARS // len(piece))
    with pytest.raises(ParseError, match="gave up: the scan budget of "):
        extract_first_json(raw)
    # One decode from the first start, then one per candidate while the budget
    # left still reaches that candidate's "}".
    cost = len(piece) + prompts.FAILED_DECODE_CHARS
    assert len(decodes) == 2 + (prompts.MAX_SCAN_CHARS - len(piece)) // cost


def test_extract_first_json_picks_first_object():
    raw = 'bad { not json } then {"a": 1} and {"b": 2}'
    assert extract_first_json(raw) == {"a": 1}
    with pytest.raises(ParseError, match="^no_json_found: "):
        extract_first_json("");
    with pytest.raises(ParseError, match="^no_json_found: "):
        extract_first_json("{ broken")


@given(st.lists(st.sampled_from([
    Action.attack(0), Action.attack(1), Action.attack(2), Action.attack(3),
    Action.switch(1), Action.switch(2), Action.switch(3), Action.switch(4), Action.switch(5),
]), min_size=1, max_size=9, unique=True))
def test_action_roundtrip_over_legal_sets(legal):
    for action in legal:
        parsed, _ = parse_action_response(render_action_json(action, "because"), legal)
        assert parsed == action


def test_check_action_admits_what_equality_admits():
    """The legal list's own object, a freshly built equal Action and an Action
    equal by == (True == 1) pass and come back as given; an Action outside the
    list, a payload dict, None or a string fail with illegal_action."""
    legal = [Action.attack(0), Action.attack(1), Action.switch(2)]
    for action in (*legal, Action("attack", 1), Action("switch", 2), Action("attack", True)):
        assert check_action(action, legal) is action
    for action in (Action.attack(2), Action.switch(1), {"type": "attack", "move_index": 0},
                   None, "attack 0", "attack"):
        with pytest.raises(ParseError) as err:
            check_action(action, legal)
        assert err.value.kind == "illegal_action"


def test_team_roundtrip():
    pick = (3, 1, 4, 0, 5, 9)
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
    assert exchange["attempt"] == 1
    assert exchange["response_text"] == '{"team":[0,1,2,3,4,5]}'
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
    assert exchange["attempt"] == 3
    assert exchange["response_text"] == "ok"
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


@pytest.fixture()
def posted(monkeypatch):
    """Stands in for the thread's session's post: give it what the call returns
    or raises; it records each call's arguments.  Any socket connect fails the test."""
    calls, outcome = [], {}

    def post(url, **kwargs):
        calls.append((url, kwargs))
        if isinstance(outcome["value"], Exception):
            raise outcome["value"]
        return outcome["value"]

    def refuse(*args, **kwargs):
        pytest.fail(f"a socket was opened: {args!r}")

    session = requests.Session()
    monkeypatch.setattr(session, "post", post)
    monkeypatch.setattr(gateway._local, "session", session, raising=False)
    monkeypatch.setattr(socket.socket, "connect", refuse)
    monkeypatch.setattr(socket, "create_connection", refuse)
    return lambda value: outcome.update(value=value) or calls


def response(status, body):
    made = requests.Response()
    made.status_code, made._content, made.encoding = status, body, "utf-8"
    return made


def send():
    return gateway._requests_transport("https://example.test/v1", {"h": "v"}, {"b": 1}, 2.5)


def test_requests_transport_posts_json_and_decodes_a_json_body(posted):
    calls = posted(response(200, b'{"choices": []}'))
    assert send() == (200, {"choices": []})
    assert calls == [("https://example.test/v1",
                      {"headers": {"h": "v"}, "json": {"b": 1}, "timeout": 2.5})]


def test_requests_transport_returns_a_body_that_is_not_json_as_text(posted):
    posted(response(502, b"<html>bad gateway</html>"))
    assert send() == (502, "<html>bad gateway</html>")


def test_requests_transport_maps_a_timeout_to_request_timeout(posted):
    posted(requests.Timeout("read timed out"))
    with pytest.raises(RequestTimeout, match="read timed out"):
        send()


def test_requests_transport_maps_a_connection_error_to_provider_error_0(posted):
    posted(requests.ConnectionError("connection refused"))
    with pytest.raises(ProviderError) as excinfo:
        send()
    assert excinfo.value.status == 0
    assert "connection refused" in excinfo.value.body


def test_provider_calls_reuse_one_connection(monkeypatch):
    """Three completions through the real transport to a loopback server open one
    connection between them."""
    connections = []

    class Handler(http.server.BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"  # keeps the connection open between requests

        def setup(self):
            connections.append(self.client_address)
            super().setup()

        def do_POST(self):
            self.rfile.read(int(self.headers["Content-Length"]))
            body = json.dumps(openai_payload("ok")).encode()
            self.send_response(200)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def log_message(self, *args):
            pass

    monkeypatch.setenv("POKELEAGUE_TEST_KEY", "k")
    monkeypatch.setenv("NO_PROXY", "127.0.0.1")  # or a proxy would see the connections
    server = http.server.ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    try:
        config = make_config(endpoint=f"http://127.0.0.1:{server.server_port}/v1")
        for _ in range(3):
            assert complete(config, "p")["response_text"] == "ok"
    finally:
        session = vars(gateway._local).pop("session", None)  # this thread's
        if session is not None:
            session.close()
        server.shutdown()
        server.server_close()
    assert len(connections) == 1


def test_a_refused_gemini_call_keeps_the_key_out_of_errors_and_logs(monkeypatch, dex, tmp_path):
    """The transport error of a refused connection quotes the URL it tried, so
    the key must not be in it: not in AgentFailure.errors, and not in any file
    a bracket writes."""
    key = "loopback-key-marker-7f3a"
    monkeypatch.setenv("POKELEAGUE_TEST_KEY", key)
    monkeypatch.setenv("NO_PROXY", "127.0.0.1")  # or a proxy would take the connection
    refuser = socket.socket()  # bound and not listening: every connect is refused
    refuser.bind(("127.0.0.1", 0))
    endpoint = (f"http://127.0.0.1:{refuser.getsockname()[1]}"
                "/v1beta/models/m:generateContent")
    provider = make_config(provider="gemini", endpoint=endpoint, max_retries=0)
    try:
        with pytest.raises(AgentFailure) as failure:
            LlmAgent("gemini", provider, dex).select_team(make_pool_view(dex))
        assert failure.value.errors and failure.value.errors[0].startswith("ProviderError: ")
        assert not any(key in error for error in failure.value.errors)

        config = TournamentConfig(
            entrants=[AgentProfile(agent_id="gemini", kind="llm", provider="p"),
                      AgentProfile(agent_id="random", kind="random", seed=1)],
            providers={"p": provider}, output_dir=str(tmp_path / "out"),
            league=LeagueConfig(turn_limit=20))
        result = run_tournament(config.entrants, dex, config, master_seed=2)
        write_tournament_outputs(result, config.output_dir)
    finally:
        refuser.close()
        session = vars(gateway._local).pop("session", None)  # this thread's
        if session is not None:
            session.close()
    log = read_log(next((tmp_path / "out" / "logs").rglob("*.jsonl")))
    llm = [r for r in log.records if r["kind"] == "decision" and r["agent_id"] == "gemini"]
    assert llm and all(r["fallback_used"] and "127.0.0.1" in r["errors"][-1] for r in llm)
    files = [path for path in (tmp_path / "out").rglob("*") if path.is_file()]
    assert len(files) >= 3  # a game log, bracket.json and standings.txt
    assert not [path for path in files if key.encode() in path.read_bytes()]


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
    assert exchange["response_text"] == "claude says hi"
    assert seen["url"] == anthropic.endpoint
    assert seen["headers"]["x-api-key"] == "secret"
    assert seen["body"]["system"]
    assert seen["body"]["messages"] == [{"role": "user", "content": "p"}]

    gemini = make_config(provider="gemini", endpoint="https://gemini.test/v1/models/x:generateContent")
    exchange = complete(gemini, "p", transport=transport, sleep=lambda s: None)
    assert exchange["response_text"] == "gemini says hi"
    assert seen["url"] == gemini.endpoint  # the key travels in a header, never in the URL
    assert seen["headers"]["x-goog-api-key"] == "secret"
    assert seen["body"]["contents"][0]["parts"][0]["text"] == "p"


@pytest.mark.parametrize("provider, payload", [
    ("openai_compatible", {"choices": [{"message": {"content": None}}]}),
    ("anthropic", {"content": [{"text": 7}]}),
    ("gemini", {"candidates": [{"content": {"parts": [{"text": ["a"]}]}}]}),
], ids=["openai-null", "anthropic-int", "gemini-list"])
def test_a_reply_text_that_is_not_a_string_is_a_provider_error(monkeypatch, dex, provider, payload):
    """It fails the decision like any provider error, so the league falls back."""
    monkeypatch.setenv("POKELEAGUE_TEST_KEY", "k")
    monkeypatch.setattr(gateway, "_requests_transport", lambda *args: (200, payload))
    config = make_config(provider=provider)
    with pytest.raises(ProviderError, match="unexpected response shape: text is ") as excinfo:
        complete(config, "p", sleep=lambda s: None)
    assert excinfo.value.status == 200
    with pytest.raises(AgentFailure) as failure:
        LlmAgent("m", config, dex).select_team(make_pool_view(dex))
    assert failure.value.errors == (f"ProviderError: {excinfo.value}",)


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


def test_token_buckets_are_shared_only_by_entries_alike_but_for_model(monkeypatch):
    """An entry with another key variable or other rate settings on the same
    endpoint gets its own bucket; one that differs only by model shares it."""
    monkeypatch.setattr(gateway, "_buckets", {})
    rates = {"rate_capacity": 5, "rate_refill_per_s": 1.0}
    bucket = gateway._bucket_for(make_config(**rates))
    assert bucket is not None
    assert gateway._bucket_for(make_config(**rates, model="other-model")) is bucket
    for other in ({"api_key_env": "POKELEAGUE_OTHER_KEY"}, {"rate_capacity": 9},
                  {"rate_refill_per_s": 4.0}):
        config = make_config(**{**rates, **other})
        own = gateway._bucket_for(config)
        assert own is not bucket
        assert (own.capacity, own.refill_per_s) == (config.rate_capacity, config.rate_refill_per_s)
    assert gateway._bucket_for(make_config()) is None  # rate_capacity 0: no bucket


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
        return {"response_text": text, "latency_ms": 0.0, "attempt": 1}


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
    assert decision.exchanges[0]["parse_outcome"] == "illegal_action"
    assert decision.exchanges[1]["parse_outcome"] == "success"


def test_repair_loop_bound_then_agent_failure(dex):
    state = battle_fixture(dex)
    view, legal = view_for(state, 0), legal_actions(state, 0)
    agent, completer = make_llm_agent(dex, [], max_repair_attempts=3)
    with pytest.raises(AgentFailure) as excinfo:
        agent.choose_action(view, legal)
    assert len(completer.prompts) == 4  # 1 + max_repair_attempts
    assert len(excinfo.value.exchanges) == 4


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
    assert decision.team == (9, 8, 7, 6, 5, 4)
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
    assert completer("p", "action")["response_text"].endswith('"hit"}')
    assert completer("p", "action")["response_text"].endswith('"hit harder"}')
    assert completer("p", "action")["response_text"].endswith('"hit"}')  # cycles
    assert "canned" in completer("p", "team")["response_text"]


def test_repair_prompt_wording():
    err = ParseError("no_json_found", "no JSON object in response")
    assert repair_prompt("ORIGINAL", err) == (
        "ORIGINAL\n\nYour previous response was invalid: no_json_found: no JSON object "
        "in response. Respond with only the JSON object.")


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
    decision = stateless.choose_action(view, legal)
    assert "Previous turns:" not in decision.exchanges[0]["prompt"]

    remembering = LlmAgent("llm", config, dex,
                           completer=RecordingCompleter([valid, valid]),
                           include_history=True)
    remembering.choose_action(view, legal)
    second_prompt = remembering.choose_action(view, legal).exchanges[0]["prompt"]
    assert "Previous turns:" in second_prompt
    assert "Turn 3" in second_prompt


def test_provider_config_roundtrips_every_field():
    config = make_config(rate_capacity=5, rate_refill_per_s=2.5, temperature=0.1)
    assert ProviderConfig.from_dict(config.to_dict()) == config
    assert config.to_dict()["rate_capacity"] == 5
    assert config.to_dict()["rate_refill_per_s"] == 2.5


@pytest.mark.parametrize("text, expected", [
    ("plain", "plain"), ("é \U0001f600 \ud7ff \ue000", "é \U0001f600 \ud7ff \ue000"),
    ("\ud800", "\ufffd"), ("a\udfffb", "a\ufffdb"), ("\ud83d\ude00", "\ufffd\ufffd"),
], ids=["ascii", "no-surrogate", "high", "low", "adjacent-pair"])
def test_replace_surrogates_replaces_each_surrogate_code_point(text, expected):
    assert prompts.replace_surrogates(text) == expected
    expected.encode("utf-8")


SURROGATE_TEAM_REPLY = '{"team": [0, 1, 2, 3, 4, 5], "reasoning": "bad \\ud800 text"}'


@pytest.mark.parametrize("reply", [SURROGATE_TEAM_REPLY,
                                   SURROGATE_TEAM_REPLY.replace("\\ud800", "\ud800")],
                         ids=["json-escape", "raw"])
def test_a_lone_surrogate_in_a_reply_is_logged_as_u_fffd(tmp_path, capsys, reply):
    """A two-entrant mock bracket whose draft reply holds a lone surrogate, as a
    JSON escape or as the character itself, completes and every log replays;
    the reasoning reads U+FFFD where the surrogate was, and so does the logged
    reply text where the reply held the character."""
    script = tmp_path / "script.json"
    script.write_text(json.dumps({"team": [reply], "action": [
        '{"action": {"type": "attack", "move_index": 0}, "reasoning": "hit"}']}), encoding="utf-8")
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "entrants": [{"agent_id": f"mock-{i}", "kind": "mock", "script": str(script)}
                     for i in range(2)],
        "master_seed": 2, "output_dir": str(tmp_path / "out")}), encoding="utf-8")
    assert main(["tournament", str(config)]) == 0
    logs = sorted((tmp_path / "out" / "logs").rglob("*.jsonl"))
    assert logs
    drafts = []
    for path in logs:
        assert main(["replay", str(path)]) == 0
        drafts += [(d, exchanges) for d, exchanges in logged_decisions(path)
                   if d["phase"] == "TeamSelect"]
    assert len(drafts) == 2
    for decision, exchanges in drafts:
        assert decision["reasoning"] == "bad \ufffd text"
        assert [e["response_text"] for e in exchanges] == [reply.replace("\ud800", "\ufffd")]
