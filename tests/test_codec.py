"""The built-once JSON encoders and the line decoder give the stdlib's text and errors."""

import json
import math
import sys
from dataclasses import replace

import pytest
from hypothesis import example, given, settings, strategies as st

from pokeleague import agents, storage
from pokeleague.agents import GreedyAgent, RandomAgent
from pokeleague.engine import legal_actions, view_for
from pokeleague.league import LeagueConfig, MatchRunner
from pokeleague.rng import SeededStream, stable_hash64
from pokeleague.storage import StorageError, make_encoder, read_log

from conftest import ANY_WALK, FULL_GAME, walk_states

# The encoders the package builds once, each with the json.dumps call it stands for.
FORMS = {
    "log": (storage._LOG_ENCODER, dict(separators=(",", ":"), ensure_ascii=False)),
    "canonical": (storage.canonical_json,
                  dict(sort_keys=True, separators=(",", ":"), ensure_ascii=False)),
}

SPECIAL_TEXT = ["é", "名前", "\U0001f600", "\u2028", "\u2029", "\x00", "\x1f", "\x7f",
                '"', "\\", "\ufeff", "\n\t"]
SCALARS = (st.none() | st.booleans() | st.integers()
           | st.sampled_from([10**3999 + 7, -(10**3999), 2**63, -(2**64)])
           | st.floats(allow_nan=True, allow_infinity=True)
           | st.sampled_from([-0.0, 0.0, math.nan, math.inf, -math.inf, 1e-320, 1e308])
           | st.text() | st.sampled_from(SPECIAL_TEXT))
KEYS = st.text(max_size=8) | st.sampled_from(SPECIAL_TEXT)
VALUES = st.recursive(
    SCALARS,
    lambda children: (st.lists(children, max_size=5)
                      | st.lists(children, max_size=3).map(tuple)
                      | st.dictionaries(KEYS, children, max_size=5)),
    max_leaves=25)


@pytest.mark.parametrize("form", FORMS)
@given(value=VALUES)
def test_built_encoders_write_what_json_dumps_writes(form, value):
    encode, options = FORMS[form]
    assert encode(value) == json.dumps(value, **options)


def reference_key(view, legal):
    """RandomAgent's decision key as json.dumps writes it."""
    return json.dumps([view.turn_number, view.side, [a.to_dict() for a in legal],
                       [(b.species, b.current_hp) for b in view.own_team],
                       view.opponent_active.species, view.opponent_active.hp_percent],
                      sort_keys=True)


@settings(max_examples=30, deadline=None)
@example(**FULL_GAME, names=["é", "名前", '"', "\\", "\x00\x1f", "\u2028", "\U0001f600"])
@given(**ANY_WALK, names=st.lists(st.text() | st.sampled_from(SPECIAL_TEXT), min_size=7,
                                  max_size=7))
def test_random_decision_key_is_what_json_dumps_writes(dex, order, seed, turn_limit, choices,
                                                       names):
    """On every view of a legal walk, and on that view with its species renamed
    (non-ASCII text, quotes, backslashes, control characters, U+2028); and the
    agent's choice is drawn from that text."""
    for state in walk_states(dex, order, seed, turn_limit, choices):
        if state.ended:
            continue
        for side in (0, 1):
            view, legal = view_for(state, side), legal_actions(state, side)
            renamed = replace(
                view, own_team=tuple(replace(b, species=name)
                                     for b, name in zip(view.own_team, names)),
                opponent_active=replace(view.opponent_active, species=names[6]))
            for shown in (view, renamed):
                key = reference_key(shown, legal)
                assert agents._decision_key(shown, legal) == key
                rng = SeededStream(stable_hash64("r", 7, "action", key))
                assert (RandomAgent("r", 7).choose_action(shown, legal).action
                        == legal[rng.choice_index(len(legal))])


@pytest.fixture()
def match_log_records(dex, bundled_fingerprint, tmp_path):
    """Every record of a greedy-vs-random match log, as decoded from its lines."""
    MatchRunner(dex, LeagueConfig(), tmp_path, bundled_fingerprint).run_match(
        GreedyAgent("greedy", dex), RandomAgent("random", 7), seed=42, match_id="m0")
    return [json.loads(line) for line in (tmp_path / "m0.jsonl").read_text("utf-8").splitlines()]


@pytest.mark.parametrize("form", FORMS)
def test_without_the_c_encoder_the_bytes_are_the_same(form, monkeypatch, match_log_records):
    encode, options = FORMS[form]
    records = match_log_records + [{"text": "".join(SPECIAL_TEXT), "n": -0.0, "big": 10**3999,
                                    "nan": math.nan, "inf": [math.inf, -math.inf]}]
    before = [encode(record) for record in records]
    monkeypatch.setattr(json.encoder, "c_make_encoder", None)
    fallback = make_encoder(json.JSONEncoder(**options))
    assert [fallback(record) for record in records] == before
    assert [json.dumps(record, **options) for record in records] == before


def test_a_cyclic_value_raises_recursion_error():
    cyclic = []
    cyclic.append(cyclic)
    with pytest.raises(RecursionError):
        storage._LOG_ENCODER({"kind": "meta", "loop": cyclic})


META = json.dumps({"kind": "meta", "schema_version": storage.SCHEMA_VERSION, "match_id": "m",
                   "seed": 1, "turn_limit": 5, "dex_fingerprint": "f",
                   "agents": {"a": "x", "b": "y"}, "team_names": {"a": [], "b": []},
                   "initial_digest": "d"})


@pytest.mark.parametrize("line", [
    "\ufeff" + META, META + " x", META + " " + META, META + "}",
    '{"kind":\x0c"meta"}', '{\x1c"kind": "meta"}', '{"kind": "meta",}',
    '{"a": ' + "9" * 4301 + "}", '{"a": "\x01"}',
    '{"a": [1, 2}', '{"a": ', "NaN x", "nul",
], ids=["bom", "trailing-data", "two-objects", "extra-brace", "x0c-inside", "x1c-inside",
        "trailing-comma", "int-4301-digits", "control-char-in-string",
        "unclosed-array", "cut-short", "constant-then-data", "bad-literal"])
@pytest.mark.parametrize("line_no", [1, 2])
def test_read_log_names_the_line_and_the_decoders_error(tmp_path, line, line_no):
    path = tmp_path / "bad.jsonl"
    path.write_text("\n".join([META] * (line_no - 1) + [line, META]) + "\n", encoding="utf-8")
    with pytest.raises((ValueError, RecursionError)) as decoding:
        json.loads(line.strip())
    with pytest.raises(StorageError) as excinfo:
        read_log(path)
    assert str(excinfo.value) == f"{path}:{line_no}: invalid JSON: {decoding.value}"


@pytest.mark.parametrize("line_no", [1, 2])
def test_read_log_rejects_a_line_nested_past_the_cap(tmp_path, line_no):
    path = tmp_path / "deep.jsonl"
    line = '{"a":' * 100_000 + "1" + "}" * 100_000
    path.write_text("\n".join([META] * (line_no - 1) + [line, META]) + "\n", encoding="utf-8")
    with pytest.raises(StorageError) as excinfo:
        read_log(path)
    assert str(excinfo.value) == (f"{path}:{line_no}: nested deeper than "
                                  f"{storage.MAX_NESTING} arrays and objects")


def call_at_depth(depth, call):
    """call(), made with the Python stack depth frames deep."""
    frame, here = sys._getframe(), 0
    while frame is not None:
        frame, here = frame.f_back, here + 1

    def down(levels):
        return call() if levels <= 0 else down(levels - 1)

    return down(depth - here)


def deep_exchanges(levels, closed=True):
    """An exchanges record line that nests arrays and objects levels deep,
    or that opens as many and closes none."""
    line = '{"kind": "exchanges", "x": ' + "[" * (levels - 1)
    return line + "]" * (levels - 1) + "}" if closed else line


@pytest.mark.parametrize("levels, closed", [
    (storage.MAX_NESTING, True), (storage.MAX_NESTING + 1, True), (985, True),
    (storage.MAX_NESTING + 1, False), (985, False),
], ids=["at-cap", "past-cap", "985", "unclosed-past-cap", "unclosed-985"])
def test_a_deep_line_has_one_verdict_from_any_caller(tmp_path, levels, closed):
    """A line at the cap reads from a caller as deep as the recursion limit less
    the cap and a margin; a deeper one, whole or unclosed, fails with one
    message from any caller."""
    path = tmp_path / "deep.jsonl"
    path.write_text(f"{META}\n{deep_exchanges(levels, closed)}\n", encoding="utf-8")

    def verdict():
        try:
            read_log(path)
        except StorageError as exc:
            return str(exc)
        return "read"

    deepest = sys.getrecursionlimit() - storage.MAX_NESTING - 50
    verdicts = {verdict(), call_at_depth(60, verdict), call_at_depth(deepest, verdict)}
    if levels <= storage.MAX_NESTING:
        assert verdicts == {"read"}
    else:
        assert verdicts == {f"{path}:2: nested deeper than {storage.MAX_NESTING} "
                            "arrays and objects"}


@pytest.mark.parametrize("line", ["[1, 2]", "7", '"meta"', "null"],
                         ids=["bare-array", "number", "string", "null"])
def test_read_log_takes_only_objects(tmp_path, line):
    path = tmp_path / "bad.jsonl"
    path.write_text(f"{META}\n{line}\n", encoding="utf-8")
    with pytest.raises(StorageError) as excinfo:
        read_log(path)
    assert str(excinfo.value) == f"{path}:2: a record must be a JSON object"


def test_read_log_strips_the_whitespace_str_strip_strips(tmp_path):
    path = tmp_path / "padded.jsonl"
    path.write_text(f"\x0c {META}\x1c\u3000\r\n\n\t\n", encoding="utf-8")
    assert read_log(path).meta == json.loads(META)
