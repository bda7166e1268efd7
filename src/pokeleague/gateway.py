"""Bridge between agents and LLM chat providers.

Renders battle views and draft pools into prompts, calls
OpenAI-compatible / Anthropic / Gemini chat endpoints, and parses the
JSON decisions back out of whatever prose or markdown fencing the model
wrapped them in.  Malformed output triggers a bounded repair loop; after
that the league falls back to a canonical decision.

Prompts are pure functions of their inputs and are covered by golden
tests, so any wording change is a deliberate, reviewed diff.
"""

from __future__ import annotations

import json
import os
import threading
import time
from dataclasses import asdict, dataclass
from typing import Callable, Sequence

import requests

from .agents import AgentDecision, ConfigError, PoolEntry, TeamPick
from .dex import TEAM_SIZE, Dex, MoveDef
from .engine import Action, BattleView

SYSTEM_PREAMBLE = (
    "You are a competitive Pokémon battle assistant. Follow the instructions "
    "and respond with only the requested JSON object."
)

PROVIDER_OPENAI = "openai_compatible"
PROVIDER_ANTHROPIC = "anthropic"
PROVIDER_GEMINI = "gemini"
PROVIDERS = (PROVIDER_OPENAI, PROVIDER_ANTHROPIC, PROVIDER_GEMINI)


# ---------------------------------------------------------------------------
# errors
# ---------------------------------------------------------------------------

class ParseError(Exception):
    """A model response that cannot be turned into a valid decision.

    kind names the defect: no_json_found, wrong_arity, index_out_of_range,
    duplicate_index, unknown_action_type or illegal_action.  It is logged
    as the exchange's parse_outcome; str() is "kind: detail".
    """

    def __init__(self, kind: str, detail: str):
        self.kind = kind
        self.detail = detail
        super().__init__(f"{kind}: {detail}")


class GatewayError(Exception):
    """Transport-level failure talking to a provider."""


class AuthError(GatewayError):
    pass


class RequestTimeout(GatewayError):
    pass


class RateLimited(GatewayError):
    pass


class ProviderError(GatewayError):
    def __init__(self, status: int, body: str):
        self.status = status
        self.body = body
        super().__init__(f"provider returned {status}: {body[:200]}")


class AgentFailure(Exception):
    """An LLM agent ran out of repair attempts or transport retries; holds what it gathered."""

    def __init__(self, message: str = "agent could not produce a valid decision", *,
                 exchanges: tuple[dict, ...] = (), errors: tuple[str, ...] = ()):
        self.exchanges = exchanges
        self.errors = errors
        super().__init__(message)


# ---------------------------------------------------------------------------
# configuration and audit records
# ---------------------------------------------------------------------------

@dataclass
class ProviderConfig:
    provider: str
    endpoint: str
    model: str
    api_key_env: str
    temperature: float = 0.7
    max_tokens: int = 1024
    timeout_s: float = 60.0
    max_retries: int = 2
    backoff_ms: int = 250
    max_repair_attempts: int = 3
    rate_capacity: int = 0  # 0 disables the token bucket
    rate_refill_per_s: float = 0.0

    def __post_init__(self):
        for name in ("provider", "endpoint", "model", "api_key_env"):
            self._check(name, str, "a string")
        if self.provider not in PROVIDERS:
            raise ConfigError(f"unknown provider {self.provider!r}, expected one of {PROVIDERS}")
        self._check("temperature", (int, float), "a number")
        self._check("timeout_s", (int, float), "a number > 0", lambda v: v > 0)
        self._check("rate_refill_per_s", (int, float), "a number >= 0", lambda v: v >= 0)
        self._check("max_tokens", int, "an integer >= 1", lambda v: v >= 1)
        for name in ("max_retries", "backoff_ms", "max_repair_attempts", "rate_capacity"):
            self._check(name, int, "an integer >= 0", lambda v: v >= 0)
        if self.rate_capacity > 0 and self.rate_refill_per_s == 0:
            raise ConfigError("a rate_capacity > 0 needs a rate_refill_per_s > 0, "
                              "or the bucket never refills")

    def _check(self, name: str, kinds: type | tuple[type, ...], expected: str,
               in_range=lambda v: True) -> None:
        value = getattr(self, name)
        # bool is an int subclass, but true/false is never a count or a rate
        if isinstance(value, bool) or not isinstance(value, kinds) or not in_range(value):
            raise ConfigError(f"{name} must be {expected}, got {value!r}")

    @staticmethod
    def from_dict(raw: dict) -> "ProviderConfig":
        try:
            return ProviderConfig(**raw)
        except TypeError as exc:  # unknown or missing keys, or a value of the wrong type
            raise ConfigError(f"bad provider config: {exc}") from None

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class RawExchange:
    """One verbatim prompt/response round trip, kept in full for audit."""

    prompt: str
    response_text: str
    latency_ms: float
    attempt: int

    def to_dict(self, parse_outcome: str) -> dict:
        """The exchange as a decision record logs it, with what its parse gave."""
        return {"prompt": self.prompt, "response_text": self.response_text,
                "latency_ms": self.latency_ms, "attempt": self.attempt,
                "parse_outcome": parse_outcome}


# ---------------------------------------------------------------------------
# prompt rendering
# ---------------------------------------------------------------------------

def _format_stats(stats: dict[str, int]) -> str:
    return (f"HP {stats['hp']}, Atk {stats['atk']}, Def {stats['def']}, "
            f"SpA {stats['spa']}, SpD {stats['spd']}, Spe {stats['spe']}")


def build_team_prompt(pool: Sequence[PoolEntry]) -> str:
    """Draft instructions, the numbered pool, and the JSON shape to return."""
    lines = [
        "Select 6 Pokémon from the list below. Consider type coverage, "
        "weaknesses, and synergy. Provide a brief explanation for your team "
        "composition.",
        "",
    ]
    for entry in pool:
        types = "/".join(entry.types)
        moves = ", ".join(entry.moves)
        lines.append(f"{entry.index}. {entry.name} ({types}) | "
                     f"{_format_stats(entry.base_stats)} | Moves: {moves}")
    lines += [
        "",
        'Respond with only a JSON object with keys "team" (a list of 6 '
        'distinct indices from the list above) and "reasoning" (a brief '
        'explanation), e.g. {"team": [0, 1, 2, 3, 4, 5], "reasoning": "..."}.',
    ]
    return "\n".join(lines)


def _status_text(status: str | None) -> str:
    return status if status is not None else "Healthy"


def _describe_move(move: MoveDef) -> str:
    if not move.is_damaging:
        detail = "status move"
    else:
        detail = f"power {move.power}"
    if move.accuracy is None:
        return f"{move.name} ({move.move_type}, {detail}, never misses)"
    return f"{move.name} ({move.move_type}, {detail}, accuracy {move.accuracy})"


def build_battle_prompt(
    view: BattleView,
    legal: Sequence[Action],
    dex: Dex,
    history: Sequence[str] = (),
) -> str:
    """Battle state, the legal actions, and the JSON shape to return."""
    own = view.own_active
    opp = view.opponent_active
    lines = [
        f"You are in a battle. Your active Pokémon: {own.species} "
        f"(HP: {own.hp_percent}%, Status: {_status_text(own.status_kind)}).",
        f"Opponent's active Pokémon: {opp.species} "
        f"(HP: {opp.hp_percent}%, Status: {_status_text(opp.status)}).",
        f"Weather: {view.weather or 'None'}. Turn: {view.turn_number}.",
        "Opponent's revealed Pokémon: " + ", ".join(view.opponent_revealed) + ".",
        "",
        "Your team:",
    ]
    for index, member in enumerate(view.own_team):
        marker = " [active]" if index == view.own_active_index else ""
        state = "fainted" if member.fainted else (
            f"HP: {member.hp_percent}%, Status: {_status_text(member.status_kind)}")
        lines.append(f"- {index}: {member.species} ({state}){marker}")
    if history:
        lines += ["", "Previous turns:"]
        lines += [f"- {entry}" for entry in history]
    attacks = [a for a in legal if a.is_attack]
    switches = [a for a in legal if not a.is_attack]
    lines += ["", "Legal actions:"]
    if attacks:
        lines.append("Attacks:")
        for action in attacks:
            move = dex.moves[own.moves[action.index]]
            lines.append(f"- move_index {action.index}: {_describe_move(move)}")
    if switches:
        lines.append("Switches:")
        for action in switches:
            member = view.own_team[action.index]
            lines.append(f"- team_index {action.index}: {member.species} "
                         f"(HP: {member.hp_percent}%)")
    lines += [
        "",
        "What do you do? Choose a move or switch, and explain your reasoning.",
        'Respond with only a JSON object with keys "action" and "reasoning". '
        'For an attack use {"action": {"type": "attack", "move_index": N}, '
        '"reasoning": "..."}; for a switch use {"action": {"type": "switch", '
        '"team_index": N}, "reasoning": "..."}.',
    ]
    return "\n".join(lines)


def repair_prompt(original: str, error: ParseError) -> str:
    """Original prompt plus the machine error, asking for bare JSON."""
    return (f"{original}\n\nYour previous response was invalid: {error}. "
            "Respond with only the JSON object.")


# ---------------------------------------------------------------------------
# response parsing
# ---------------------------------------------------------------------------

# Characters extract_first_json examines, summed over every candidate start.
# Each unbalanced "{" is scanned to the end of the text, so without a cap
# the work grows with the square of the response length.
MAX_SCAN_CHARS = 1_000_000


def extract_first_json(raw: str) -> dict:
    """First JSON object found in the text, however it is wrapped.

    Models routinely wrap their JSON in prose or markdown fences; this
    scans for balanced top-level braces and accepts the first substring
    that parses.  Literal newlines inside strings are tolerated
    (strict=False) since models frequently emit them.  The scan gives up
    with a no_json_found ParseError after MAX_SCAN_CHARS characters.
    """
    budget = MAX_SCAN_CHARS
    start = raw.find("{")
    while start != -1:
        stop = min(len(raw), start + budget)
        depth = 0
        in_string = False
        escaped = False
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
                    candidate = raw[start:pos + 1]
                    try:
                        obj = json.loads(candidate, strict=False)
                    except (json.JSONDecodeError, RecursionError):  # nested too deep
                        break
                    if isinstance(obj, dict):
                        return obj
                    break
        else:
            if stop < len(raw):
                raise ParseError("no_json_found",
                                 f"gave up after scanning {MAX_SCAN_CHARS} characters")
        budget -= pos + 1 - start
        start = raw.find("{", start + 1)
    raise ParseError("no_json_found", "no JSON object in response")


def _reasoning_of(obj: dict) -> str:
    reasoning = obj.get("reasoning", "")
    return reasoning if isinstance(reasoning, str) else json.dumps(reasoning)


def parse_team_response(raw: str, pool_size: int) -> tuple[TeamPick, str]:
    """Extract a 6-index team pick; any defect raises a ParseError of its kind."""
    obj = extract_first_json(raw)
    team = obj.get("team")
    count = len(team) if isinstance(team, list) else 0
    if count != TEAM_SIZE:
        raise ParseError("wrong_arity", f"expected {TEAM_SIZE} team indices, got {count}")
    indices: list[int] = []
    for item in team:
        if type(item) is not int or not 0 <= item < pool_size:  # a bool is not an index
            raise ParseError("index_out_of_range", f"index {item!r} is outside the pool")
        if item in indices:
            raise ParseError("duplicate_index", f"index {item} appears more than once")
        indices.append(item)
    return TeamPick(tuple(indices)), _reasoning_of(obj)


# The index key of each action type in a response's "action" object.
_INDEX_KEYS = {"attack": "move_index", "switch": "team_index"}


def parse_action_response(raw: str, legal: Sequence[Action]) -> tuple[Action, str]:
    """Extract an action and check it against the legal set."""
    obj = extract_first_json(raw)
    payload = obj.get("action")
    if not isinstance(payload, dict):
        raise ParseError("unknown_action_type", f"missing or non-object 'action': {payload!r}")
    action_type = payload.get("type")
    key = _INDEX_KEYS.get(action_type) if isinstance(action_type, str) else None
    if key is None:
        raise ParseError("unknown_action_type", f"unknown action type {action_type!r}")
    index = payload.get(key)
    if type(index) is not int:  # a bool is not an index
        raise ParseError("illegal_action", f"{action_type} without integer {key}: {index!r}")
    action = Action(action_type, index)
    if action not in legal:
        raise ParseError("illegal_action", f"{action} is not in the legal action set")
    return action, _reasoning_of(obj)


# ---------------------------------------------------------------------------
# provider transport
# ---------------------------------------------------------------------------

class TokenBucket:
    """Simple thread-safe token bucket: capacity tokens, refill per second."""

    def __init__(self, capacity: int, refill_per_s: float, clock=time.monotonic, sleep=time.sleep):
        self.capacity = capacity
        self.refill_per_s = refill_per_s
        self._tokens = float(capacity)
        self._updated = clock()
        self._clock = clock
        self._sleep = sleep
        self._lock = threading.Lock()

    def acquire(self) -> None:
        while True:
            with self._lock:
                now = self._clock()
                self._tokens = min(self.capacity, self._tokens + (now - self._updated) * self.refill_per_s)
                self._updated = now
                if self._tokens >= 1:
                    self._tokens -= 1
                    return
                wait = (1 - self._tokens) / self.refill_per_s
            self._sleep(wait)


_buckets: dict[tuple[str, str], TokenBucket] = {}
_buckets_lock = threading.Lock()


def _bucket_for(config: ProviderConfig) -> TokenBucket | None:
    if config.rate_capacity <= 0:
        return None
    key = (config.provider, config.endpoint)
    with _buckets_lock:
        if key not in _buckets:
            _buckets[key] = TokenBucket(config.rate_capacity, config.rate_refill_per_s)
        return _buckets[key]


def _build_request(config: ProviderConfig, api_key: str, prompt: str) -> tuple[str, dict, dict]:
    if config.provider == PROVIDER_OPENAI:
        url = config.endpoint
        headers = {"Authorization": f"Bearer {api_key}", "Content-Type": "application/json"}
        body = {
            "model": config.model,
            "messages": [
                {"role": "system", "content": SYSTEM_PREAMBLE},
                {"role": "user", "content": prompt},
            ],
            "temperature": config.temperature,
            "max_tokens": config.max_tokens,
        }
    elif config.provider == PROVIDER_ANTHROPIC:
        url = config.endpoint
        headers = {"x-api-key": api_key, "anthropic-version": "2023-06-01",
                   "Content-Type": "application/json"}
        body = {
            "model": config.model,
            "system": SYSTEM_PREAMBLE,
            "messages": [{"role": "user", "content": prompt}],
            "temperature": config.temperature,
            "max_tokens": config.max_tokens,
        }
    else:  # gemini
        url = f"{config.endpoint}?key={api_key}"
        headers = {"Content-Type": "application/json"}
        body = {
            "system_instruction": {"parts": [{"text": SYSTEM_PREAMBLE}]},
            "contents": [{"role": "user", "parts": [{"text": prompt}]}],
            "generationConfig": {
                "temperature": config.temperature,
                "maxOutputTokens": config.max_tokens,
            },
        }
    return url, headers, body


def _extract_text(provider: str, payload: dict) -> str:
    try:
        if provider == PROVIDER_OPENAI:
            return payload["choices"][0]["message"]["content"]
        if provider == PROVIDER_ANTHROPIC:
            return payload["content"][0]["text"]
        return payload["candidates"][0]["content"]["parts"][0]["text"]
    except (KeyError, IndexError, TypeError) as exc:
        raise ProviderError(200, f"unexpected response shape: {exc}")


def _requests_transport(url: str, headers: dict, body: dict, timeout: float) -> tuple[int, object]:
    try:
        response = requests.post(url, headers=headers, json=body, timeout=timeout)
    except requests.Timeout as exc:
        raise RequestTimeout(str(exc))
    except requests.RequestException as exc:
        raise ProviderError(0, str(exc))
    try:
        payload = response.json()
    except ValueError:
        payload = response.text
    return response.status_code, payload


Transport = Callable[[str, dict, dict, float], tuple[int, object]]


def complete(
    config: ProviderConfig,
    prompt: str,
    *,
    transport: Transport | None = None,
    sleep: Callable[[float], None] = time.sleep,
) -> RawExchange:
    """One chat round trip with retries and exponential backoff.

    Retries transport failures, 429s, and 5xx responses up to
    config.max_retries times; 401/403 raise AuthError immediately, as
    does a missing API key (before any network traffic).
    """
    api_key = os.environ.get(config.api_key_env, "")
    if not api_key:
        raise AuthError(f"environment variable {config.api_key_env} is not set")
    bucket = _bucket_for(config)
    send = transport or _requests_transport
    url, headers, body = _build_request(config, api_key, prompt)
    started = time.monotonic()
    last_error: GatewayError | None = None
    for attempt in range(1, config.max_retries + 2):
        if bucket is not None:
            bucket.acquire()
        try:
            status, payload = send(url, headers, body, config.timeout_s)
        except GatewayError as exc:
            last_error = exc
        else:
            if status == 200:
                text = _extract_text(config.provider, payload if isinstance(payload, dict) else {})
                latency = (time.monotonic() - started) * 1000
                return RawExchange(prompt=prompt, response_text=text,
                                   latency_ms=latency, attempt=attempt)
            if status in (401, 403):
                raise AuthError(f"provider rejected credentials (HTTP {status})")
            body_text = payload if isinstance(payload, str) else json.dumps(payload)
            if status == 429:
                last_error = RateLimited(f"rate limited (HTTP 429): {body_text[:200]}")
            elif 500 <= status < 600 or status == 0:
                last_error = ProviderError(status, body_text)
            else:
                raise ProviderError(status, body_text)
        if attempt <= config.max_retries:
            sleep(config.backoff_ms * (2 ** (attempt - 1)) / 1000.0)
    assert last_error is not None
    raise last_error


# ---------------------------------------------------------------------------
# the LLM-backed agent (and its offline stand-in)
# ---------------------------------------------------------------------------

Completer = Callable[[str, str], RawExchange]


class LlmAgent:
    """Agent whose decisions come from a chat provider via the prompt protocol.

    Invalid responses trigger up to max_repair_attempts re-prompts that
    quote the machine error; after that AgentFailure propagates so the
    league can apply its fallback decision.  A decision, and a failure,
    carries every exchange and error behind it.
    """

    def __init__(
        self,
        agent_id: str,
        config: ProviderConfig,
        dex: Dex,
        completer: Completer | None = None,
        include_history: bool = False,
    ):
        self.agent_id = agent_id
        self.config = config
        self.dex = dex
        self.include_history = include_history
        self._completer = completer or self._provider_completer
        self._history: list[str] = []

    def _provider_completer(self, prompt: str, kind: str) -> RawExchange:
        return complete(self.config, prompt)

    def _decide(self, prompt: str, kind: str, parse) -> AgentDecision:
        """Ask, then re-ask with repair prompts; kind ("team" or "action")
        names both the script section and the decision's field."""
        exchanges: list[dict] = []
        errors: list[str] = []
        current = prompt
        for _ in range(1 + self.config.max_repair_attempts):
            try:
                exchange = self._completer(current, kind)
            except GatewayError as err:
                errors.append(f"{type(err).__name__}: {err}")
                raise AgentFailure(f"provider call failed: {err}",
                                   exchanges=tuple(exchanges), errors=tuple(errors)) from err
            try:
                value, reasoning = parse(exchange.response_text)
            except ParseError as err:
                exchanges.append(exchange.to_dict(err.kind))
                errors.append(str(err))
                current = repair_prompt(prompt, err)
                continue
            exchanges.append(exchange.to_dict("success"))
            return AgentDecision(**{kind: value}, reasoning=reasoning,
                                 exchanges=tuple(exchanges), errors=tuple(errors))
        raise AgentFailure(exchanges=tuple(exchanges), errors=tuple(errors))

    def select_team(self, pool: Sequence[PoolEntry]) -> AgentDecision:
        prompt = build_team_prompt(pool)
        return self._decide(prompt, "team", lambda raw: parse_team_response(raw, len(pool)))

    def choose_action(self, view: BattleView, legal: Sequence[Action]) -> AgentDecision:
        if view.turn_number == 1:  # a game's first battle decision: history covers one game
            self._history.clear()
        history = tuple(self._history[-10:]) if self.include_history else ()
        prompt = build_battle_prompt(view, legal, self.dex, history)
        decision = self._decide(prompt, "action", lambda raw: parse_action_response(raw, legal))
        if self.include_history:
            self._history.append(
                f"Turn {view.turn_number}: {view.own_active.species} chose {decision.action} "
                f"vs {view.opponent_active.species}")
        return decision


class ScriptCompleter:
    """Canned responses from a JSON script, cycling per decision kind.

    Script shape: {"team": ["raw response", ...], "action": [...]}.
    Used by mock entrants so end-to-end runs never touch the network.
    """

    def __init__(self, script: dict[str, list[str]]):
        self.script = script
        self._cursor = {"team": 0, "action": 0}

    @staticmethod
    def from_file(path: str) -> "ScriptCompleter":
        """Read a script; ConfigError, naming the file, if it is not of the script shape."""
        with open(path, encoding="utf-8") as handle:
            try:
                script = json.load(handle)
            except ValueError as exc:  # not JSON, or not UTF-8
                raise ConfigError(f"script {path!r} is not valid JSON: {exc}") from None
        if not isinstance(script, dict) or not script.keys() <= {"team", "action"} or not all(
                isinstance(responses, list) and all(isinstance(r, str) for r in responses)
                for responses in script.values()):
            raise ConfigError(f"script {path!r} must be an object whose only keys, team and "
                              "action, each hold a list of strings")
        return ScriptCompleter(script)

    def __call__(self, prompt: str, kind: str) -> RawExchange:
        responses = self.script.get(kind) or ['{}']
        text = responses[self._cursor[kind] % len(responses)]
        self._cursor[kind] += 1
        return RawExchange(prompt=prompt, response_text=text, latency_ms=0.0, attempt=1)


def make_mock_agent(agent_id: str, script_path: str, dex: Dex) -> LlmAgent:
    """LLM agent wired to a canned-response script instead of a provider."""
    config = ProviderConfig(
        provider=PROVIDER_OPENAI, endpoint="mock://script", model="mock",
        api_key_env="POKELEAGUE_MOCK_KEY")
    return LlmAgent(agent_id, config, dex, completer=ScriptCompleter.from_file(script_path))
