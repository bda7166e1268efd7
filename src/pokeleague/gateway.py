"""Bridge between agents and LLM chat providers.

Calls OpenAI-compatible / Anthropic / Gemini chat endpoints with retries
and backoff, and runs LlmAgent, which asks a model through the prompt
protocol of pokeleague.prompts.  Every provider posts to its configured
endpoint with the API key in a header, never in the URL, so no transport
error text can carry it.  A completion is the reply dict
{"response_text", "latency_ms", "attempt"}; LlmAgent logs each one as an
exchange, with its prompt (or a repair's prompt_suffix) first and its
parse_outcome last.  Malformed output triggers a bounded repair loop;
after that the league falls back to a canonical decision.
"""

from __future__ import annotations

import json
import math
import os
import threading
import time
from dataclasses import dataclass
from typing import Callable, Sequence

from .agents import AgentDecision, ConfigError, build_config, check_setting, read_config_file
from .dex import Dex, Species
from .engine import Action, BattleView
# LlmAgent calls these through this module's names: benchmarks/tracing.py wraps them here.
from .prompts import (
    SYSTEM_PREAMBLE, ParseError, build_battle_prompt, build_team_prompt, history_entry,
    parse_action_response, parse_team_response, repair_prompt, replace_surrogates,
)

PROVIDER_OPENAI = "openai_compatible"
PROVIDER_ANTHROPIC = "anthropic"
PROVIDER_GEMINI = "gemini"
PROVIDERS = (PROVIDER_OPENAI, PROVIDER_ANTHROPIC, PROVIDER_GEMINI)


# ---------------------------------------------------------------------------
# errors
# ---------------------------------------------------------------------------

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
# configuration
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
            check_setting(name, getattr(self, name), (str,), "a string")
        if self.provider not in PROVIDERS:
            raise ConfigError(f"unknown provider {self.provider!r}, expected one of {PROVIDERS}")
        # Finite too, as a request body's JSON has no NaN or infinity.  A NaN
        # compares false and a huge int compares exactly, so neither raises.
        number = (int, float)
        check_setting("temperature", self.temperature, number, "a number",
                      lambda v: -math.inf < v < math.inf)
        check_setting("timeout_s", self.timeout_s, number, "a number > 0",
                      lambda v: 0 < v < math.inf)
        check_setting("rate_refill_per_s", self.rate_refill_per_s, number, "a number >= 0",
                      lambda v: 0 <= v < math.inf)
        check_setting("max_tokens", self.max_tokens, (int,), "an integer >= 1", lambda v: v >= 1)
        for name in ("max_retries", "backoff_ms", "max_repair_attempts", "rate_capacity"):
            check_setting(name, getattr(self, name), (int,), "an integer >= 0", lambda v: v >= 0)
        if self.rate_capacity > 0 and self.rate_refill_per_s == 0:
            raise ConfigError("a rate_capacity > 0 needs a rate_refill_per_s > 0, "
                              "or the bucket never refills")

    @staticmethod
    def from_dict(raw: dict) -> "ProviderConfig":
        return build_config(ProviderConfig, raw, "bad provider config")

    def to_dict(self) -> dict:
        return dict(vars(self))  # asdict(self): every field is a scalar


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


_buckets: dict[tuple, TokenBucket] = {}
_buckets_lock = threading.Lock()


def _bucket_for(config: ProviderConfig) -> TokenBucket | None:
    """One bucket per endpoint, key and rate settings: entrants that differ by model share it."""
    if config.rate_capacity <= 0:
        return None
    key = (config.provider, config.endpoint, config.api_key_env,
           config.rate_capacity, config.rate_refill_per_s)
    with _buckets_lock:
        if key not in _buckets:
            _buckets[key] = TokenBucket(config.rate_capacity, config.rate_refill_per_s)
        return _buckets[key]


def _build_request(config: ProviderConfig, api_key: str, prompt: str) -> tuple[dict, dict]:
    """Headers and body; the request goes to config.endpoint."""
    if config.provider == PROVIDER_OPENAI:
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
        headers = {"x-goog-api-key": api_key, "Content-Type": "application/json"}
        body = {
            "system_instruction": {"parts": [{"text": SYSTEM_PREAMBLE}]},
            "contents": [{"role": "user", "parts": [{"text": prompt}]}],
            "generationConfig": {
                "temperature": config.temperature,
                "maxOutputTokens": config.max_tokens,
            },
        }
    return headers, body


def _extract_text(provider: str, payload: dict) -> str:
    try:
        if provider == PROVIDER_OPENAI:
            text = payload["choices"][0]["message"]["content"]
        elif provider == PROVIDER_ANTHROPIC:
            text = payload["content"][0]["text"]
        else:
            text = payload["candidates"][0]["content"]["parts"][0]["text"]
    except (KeyError, IndexError, TypeError) as exc:
        raise ProviderError(200, f"unexpected response shape: {exc}")
    if not isinstance(text, str):  # "content": null, say
        raise ProviderError(200, f"unexpected response shape: text is {type(text).__name__}")
    return text


_local = threading.local()  # .session: the thread's requests.Session, kept for its connections


def _requests_transport(url: str, headers: dict, body: dict, timeout: float) -> tuple[int, object]:
    # Imported on the first provider call, so a process that sends no
    # request (replay, report, scripted or mock brackets) never loads it.
    import requests

    session = getattr(_local, "session", None)
    if session is None:
        session = _local.session = requests.Session()
    try:
        response = session.post(url, headers=headers, json=body, timeout=timeout)
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
) -> dict:
    """One chat round trip with retries and exponential backoff: the reply dict.

    Retries transport failures, 429s, and 5xx responses up to
    config.max_retries times; 401/403 raise AuthError immediately, as
    does a missing API key (before any network traffic).
    """
    api_key = os.environ.get(config.api_key_env, "")
    if not api_key:
        raise AuthError(f"environment variable {config.api_key_env} is not set")
    bucket = _bucket_for(config)
    send = transport or _requests_transport
    headers, body = _build_request(config, api_key, prompt)
    started = time.monotonic()
    last_error: GatewayError | None = None
    for attempt in range(1, config.max_retries + 2):
        if bucket is not None:
            bucket.acquire()
        try:
            status, payload = send(config.endpoint, headers, body, config.timeout_s)
        except GatewayError as exc:
            last_error = exc
        else:
            if status == 200:
                text = _extract_text(config.provider, payload if isinstance(payload, dict) else {})
                latency = (time.monotonic() - started) * 1000
                return {"response_text": text, "latency_ms": latency, "attempt": attempt}
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

Completer = Callable[[str, str], dict]  # (prompt, kind) -> the reply dict complete() returns


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

    def _provider_completer(self, prompt: str, kind: str) -> dict:
        return complete(self.config, prompt)

    def _decide(self, prompt: str, kind: str, parse, rule) -> AgentDecision:
        """Ask, then re-ask with repair prompts; kind ("team" or "action")
        names both the script section and the decision's field, and
        parse(reply text, rule) reads a reply; rule is the pool size or legal set."""
        exchanges: list[dict] = []
        errors: list[str] = []
        current = prompt
        for _ in range(1 + self.config.max_repair_attempts):
            try:
                reply = self._completer(current, kind)
            except GatewayError as err:
                errors.append(f"{type(err).__name__}: {err}")
                raise AgentFailure(f"provider call failed: {err}",
                                   exchanges=tuple(exchanges), errors=tuple(errors)) from err
            # One dict in the logged key order: the first exchange's whole prompt or a
            # repair's prompt_suffix (what repair_prompt added), the reply, parse_outcome.
            exchange = {"prompt_suffix": current[len(prompt):]} if exchanges else {"prompt": prompt}
            exchange.update(reply)
            # A lone surrogate cannot be logged: it is parsed and logged as U+FFFD.
            text = exchange["response_text"] = replace_surrogates(reply["response_text"])
            exchanges.append(exchange)
            try:
                value, reasoning = parse(text, rule)
            except ParseError as err:
                exchange["parse_outcome"] = err.kind
                errors.append(str(err))
                current = repair_prompt(prompt, err)
                continue
            exchange["parse_outcome"] = "success"
            # Built without the frozen __init__, as engine.view_for builds views:
            # value, a parsed team or action, is never None, so exactly one is set.
            decision = object.__new__(AgentDecision)
            decision.__dict__.update({
                "action": None, "team": None, kind: value, "reasoning": reasoning,
                "exchanges": tuple(exchanges), "errors": tuple(errors), "fallback_used": False})
            return decision
        raise AgentFailure(exchanges=tuple(exchanges), errors=tuple(errors))

    def select_team(self, pool: Sequence[Species]) -> AgentDecision:
        prompt = build_team_prompt(pool)
        return self._decide(prompt, "team", parse_team_response, len(pool))

    def choose_action(self, view: BattleView, legal: Sequence[Action]) -> AgentDecision:
        if view.turn_number == 1:  # a game's first battle decision: history covers one game
            self._history.clear()
        history = tuple(self._history[-10:]) if self.include_history else ()
        prompt = build_battle_prompt(view, legal, self.dex, history)
        decision = self._decide(prompt, "action", parse_action_response, legal)
        if self.include_history:
            self._history.append(history_entry(view, decision.action))
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
        script = read_config_file(path, "script")
        if not isinstance(script, dict) or not script.keys() <= {"team", "action"} or not all(
                isinstance(responses, list) and all(isinstance(r, str) for r in responses)
                for responses in script.values()):
            raise ConfigError(f"script {path!r} must be an object whose only keys, team and "
                              "action, each hold a list of strings")
        return ScriptCompleter(script)

    def __call__(self, prompt: str, kind: str) -> dict:
        responses = self.script.get(kind) or ['{}']
        text = responses[self._cursor[kind] % len(responses)]
        self._cursor[kind] += 1
        return {"response_text": text, "latency_ms": 0.0, "attempt": 1}
