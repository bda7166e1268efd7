"""JSONL logging, digests, and replay verification."""

import gc
import hashlib
import json
import math
import os
import random
import tempfile
import warnings
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from pokeleague import storage
from pokeleague.agents import AgentDecision, GreedyAgent, RandomAgent
from pokeleague.analytics import build_report
from pokeleague.cli import main
from pokeleague.dex import STATUS_NAMES, type_multiplier
from pokeleague.engine import (
    Action, BattleAlreadyEnded, IllegalActionError, StatusState, attack_table, compute_damage,
    init_battle, legal_actions, needs_replacement, resolve_replacements, resolve_turn,
    view_for,
)
from pokeleague.league import LeagueConfig, MatchRunner
from pokeleague.storage import (
    RECORD_KEYS, DigestMismatch, IncompleteLog, MatchLog, StorageError, canonical_json,
    decision_context, decision_record, events_record, exchanges_record, meta_record, read_log,
    replay, state_digest, state_json,
)

from conftest import (
    ANY_WALK, CAPPED_GAME, FULL_GAME, LOGS_1_3, FixedTeam, compact, decision_variants,
    set_battler, walk_steps, walk_states,
)


@pytest.fixture()
def match_log(dex, bundled_fingerprint, tmp_path):
    """A complete greedy-vs-random match log on disk."""
    runner = MatchRunner(dex, LeagueConfig(), tmp_path, bundled_fingerprint)
    result = runner.run_match(
        GreedyAgent("greedy", dex), RandomAgent("random", 7), seed=42, match_id="m0")
    return tmp_path / "m0.jsonl", result


def test_append_read_roundtrip(tmp_path):
    path = tmp_path / "log.jsonl"
    record = decision_record(
        AgentDecision(action=Action.attack(1), reasoning="because"),
        turn=3, agent_id="x", side=0, phase="Battle",
        context={"own_hp_percent": 55, "switches": [], "attacks": [[1, 1.0, 9]]})
    with MatchLog(path) as log:
        log.append(meta_record(
            match_id="m", tournament_id="t", game_index=0, seed=1, turn_limit=500,
            dex_fingerprint="f", agents={"a": "x", "b": "y"},
            team_names={"a": [], "b": []}, initial_digest="d"))
        log.append(record)
    log = read_log(path)
    records = [log.meta, *log.records]
    assert len(records) == 2
    expected = json.loads(json.dumps(record))  # structurally identical
    expected["decision"]["action"] = Action.attack(1)  # read into an Action
    assert records[1] == expected


def test_each_record_builder_writes_every_required_key():
    meta = meta_record(
        match_id="m", tournament_id="t", game_index=0, seed=1, turn_limit=500,
        dex_fingerprint="f", agents={"a": "x", "b": "y"}, team_names={"a": [], "b": []},
        initial_digest="d")
    draft = decision_record(AgentDecision(team=tuple(range(6))), turn=0, agent_id="x", side=0,
                            phase="TeamSelect")
    battle = decision_record(AgentDecision(action=Action.attack(0)), turn=1, agent_id="x",
                             side=0, phase="Battle")
    events = events_record(match_id="m", turn=1, phase="turn", events=[], pre_digest="p",
                           post_digest="d")
    records = [meta, draft, battle, events]
    assert {r["kind"] for r in records} == RECORD_KEYS.keys()
    for record in records:
        assert RECORD_KEYS[record["kind"]] <= record.keys()
    assert "action" in battle["decision"]


def test_a_decision_logs_its_exchanges_in_the_next_record_and_errors_only_if_any(tmp_path):
    exchanges = ({"prompt": "p", "response_text": "r", "latency_ms": 0.0, "attempt": 1,
                  "parse_outcome": "success"},)
    plain = AgentDecision(action=Action.attack(0))
    asked = AgentDecision(action=Action.attack(0), exchanges=exchanges, errors=("e: x",))
    records = [decision_record(decision, turn=1, agent_id="x", side=0, phase="Battle",
                               context={"own_hp_percent": 100, "switches": [],
                                        "attacks": [[0, 1.0, 9]]})
               for decision in (plain, asked)]
    assert [("exchanges" in r, r.get("errors")) for r in records] == [
        (False, None), (False, ["e: x"])]
    assert exchanges_record(plain) == ()
    assert exchanges_record(asked) == ({"kind": "exchanges", "exchanges": list(exchanges)},)
    path = tmp_path / "log.jsonl"
    with MatchLog(path) as log:
        log.append(meta_record(
            match_id="m", tournament_id="t", game_index=0, seed=1, turn_limit=500,
            dex_fingerprint="f", agents={"a": "x", "b": "y"},
            team_names={"a": [], "b": []}, initial_digest="d"))
        log.append(records[1], *exchanges_record(asked))  # one line per record
    lines = path.read_text(encoding="utf-8").splitlines()
    assert [json.loads(line)["kind"] for line in lines] == ["meta", "decision", "exchanges"]
    assert [r["kind"] for r in read_log(path).records] == ["decision"]


def test_written_records_hold_only_what_a_reader_reads(match_log):
    """A context holds three keys and each of its attacks is a row of three
    items; no decision repeats the match id and no meta record the draft
    indices; a best-of-1 meta record gives the game index 0; no record
    carries a wall-clock "ts"."""
    log = read_log(match_log[0])
    assert (log.meta["schema_version"], log.meta["game_index"]) == ("2.1", 0)
    assert "teams" not in log.meta
    assert not any("ts" in record for record in [log.meta, *log.records])
    decisions = [r for r in log.records if r["kind"] == "decision"]
    assert not any("match_id" in decision for decision in decisions)
    contexts = [d["context"] for d in decisions if d["phase"] == "Battle"]
    attacks = [attack for context in contexts for attack in context["attacks"]]
    assert contexts and attacks
    assert {frozenset(context) for context in contexts} == {
        frozenset({"own_hp_percent", "switches", "attacks"})}
    assert {(type(attack), *map(type, attack)) for attack in attacks} == {(list, int, float, int)}


def test_every_line_is_its_records_compact_json(match_log):
    lines = match_log[0].read_text(encoding="utf-8").splitlines()
    assert lines == [json.dumps(json.loads(line), ensure_ascii=False, separators=(",", ":"))
                     for line in lines]


def test_one_json_object_per_line(tmp_path):
    path = tmp_path / "log.jsonl"
    with MatchLog(path) as log:
        log.append({"kind": "meta", "schema_version": "1.0"})
        log.append({"kind": "events", "events": []})
    lines = path.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 2
    for line in lines:
        json.loads(line)


def test_append_after_close_raises(tmp_path):
    log = MatchLog(tmp_path / "log.jsonl")
    log.append({"kind": "meta", "schema_version": "1.0"})
    log.close()
    with pytest.raises(StorageError):
        log.append({"kind": "events"})


def test_lines_reach_the_file_when_the_log_closes(tmp_path):
    path = tmp_path / "log.jsonl"
    log = MatchLog(path)
    assert path.read_bytes() == b""  # made, and the directory with it, before any append
    log.append({"kind": "meta", "text": "é"}, {"kind": "events", "events": []})
    log.append({"kind": "events", "events": [1]})
    assert path.read_bytes() == b""
    log.close()
    assert path.read_bytes() == '{"kind":"meta","text":"é"}\n{"kind":"events","events":[]}\n' \
        '{"kind":"events","events":[1]}\n'.encode("utf-8")
    log.close()  # a second close writes nothing more
    assert len(path.read_bytes().splitlines()) == 3


@pytest.mark.skipif(not os.path.exists("/dev/full"),
                    reason="needs /dev/full, a device that is always full")
@pytest.mark.parametrize("size", [10, 100_000])  # kept in the buffer until close; written at once
def test_a_write_that_fails_at_close_still_closes_the_file(size):
    log = MatchLog("/dev/full")
    log.append({"kind": "events", "text": "x" * size})
    handle = log._handle
    with pytest.raises(OSError):
        log.close()
    assert handle.closed
    del handle
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        gc.collect()
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]
    with pytest.raises(StorageError):
        log.append({"kind": "events"})


def test_reader_rejects_unknown_major_version(match_log, tmp_path):
    for version in ("3.0", "0.9", "", "20.0"):
        path = rewrite_log(match_log[0], tmp_path / "other.jsonl",
                           lambda records: records[0].update(schema_version=version))
        with pytest.raises(StorageError, match=f"unsupported log schema version {version!r}"):
            read_log(path)


def test_reader_accepts_same_major_newer_minor(match_log, tmp_path):
    """Majors 1 and 2 read at any minor: a 1.x log (the 1.3 simulate fixture)
    and a 2.x one (a log written now), each with every attack read as a row."""
    for version in ("1.0", "1.3", "1.7", "2.0", "2.7"):
        source = LOGS_1_3 / "sim0.jsonl" if version.startswith("1.") else match_log[0]
        path = rewrite_log(source, tmp_path / "minor.jsonl",
                           lambda records: records[0].update(schema_version=version))
        log = read_log(path)
        assert log.meta["schema_version"] == version
        attacks = [attack for r in log.records
                   if r["kind"] == "decision" and r["phase"] == "Battle"
                   for attack in r["context"]["attacks"]]
        assert attacks and all(type(attack) is list and len(attack) == 3 for attack in attacks)


def test_reader_requires_meta_first(tmp_path):
    path = tmp_path / "log.jsonl"
    with MatchLog(path) as log:
        log.append({"kind": "events", "events": []})
    with pytest.raises(StorageError):
        read_log(path)


def test_canonical_json_is_key_sorted():
    assert canonical_json({"b": 1, "a": 2}) == '{"a":2,"b":1}'


def test_state_digest_sensitive_to_state(dex):
    from pokeleague.engine import init_battle

    team = ["Jolteon", "Snorlax", "Swampert", "Gengar", "Metagross", "Salamence"]
    other = ["Gyarados", "Tyranitar", "Blissey", "Zapdos", "Heracross", "Lapras"]
    state, _ = init_battle(dex, team, other, seed=1)
    digest = state_digest(state)
    assert len(digest) == 16
    assert digest == state_digest(state.clone())
    mutated = state.clone()
    set_battler(mutated, 0, 0, current_hp=mutated.sides[0].team[0].current_hp - 1)
    assert state_digest(mutated) != digest


def test_fixed_walks_cover_digest_edge_cases(dex):
    states = [*walk_states(dex, **FULL_GAME), *walk_states(dex, **CAPPED_GAME)]
    statuses = [b.status for s in states for side in s.sides for b in side.team]
    assert any(status is not None and status.kind == "Sleep" and status.turns_left > 0
               for status in statuses)
    assert any(s.weather is not None and s.weather_remaining is None for s in states)
    assert {s.end_reason for s in states if s.ended} == {"AllFainted", "TurnCapTieBreak"}


@settings(max_examples=40, deadline=None)
@given(**ANY_WALK)
@example(**FULL_GAME)
@example(**CAPPED_GAME)
def test_state_json_matches_canonical_to_dict(dex, order, seed, turn_limit, choices):
    for state in walk_states(dex, order, seed, turn_limit, choices):
        assert state_json(state) == canonical_json(state.to_dict())


@settings(max_examples=40, deadline=None)
@given(**ANY_WALK)
@example(**FULL_GAME)
@example(**CAPPED_GAME)
def test_later_steps_never_change_an_earlier_state(dex, order, seed, turn_limit, choices):
    """Successive states share the battlers a step leaves unchanged; none may change after."""
    states = walk_states(dex, order, seed, turn_limit, choices)
    walk = [(state, state_json(state)) for state in states]
    for state, produced in walk:
        assert state_json(state) == produced
        assert all(0 <= b.current_hp <= b.max_hp for side in state.sides for b in side.team)
    last = walk[-1][0]
    if last.ended:
        assert last.turn_number - 1 <= last.turn_limit  # turns played


def reference_context(dex, state, side, legal):
    """decision_context computed from scratch: no memo, compute_damage for each attack."""
    own, opponent = state.sides[side].active, state.sides[1 - side].active
    attacks = []
    for action in legal:
        if action.is_attack:
            move = dex.moves[own.moves[action.index]]
            attacks.append([
                action.index, type_multiplier(dex.chart, move.move_type, opponent.types),
                (compute_damage(own, opponent, move, dex.chart, weather=state.weather).damage
                 if move.is_damaging else 0)])
    return {"own_hp_percent": own.hp_percent,
            "switches": [a.index for a in legal if not a.is_attack], "attacks": attacks}


def check_memoized_contexts(dex, states):
    """decision_context, memoized, writes the reference's bytes for every decision
    variant of every state; its rows are the memo's tuples, and mutating the dict
    and lists it returns changes no later result.  Returns the number of
    variants checked in a forced replacement."""
    replacements = 0
    for state in states:
        if state.ended:
            continue
        for side in (0, 1):
            for variant, legal in decision_variants(state, side):
                expected = json.dumps(reference_context(dex, variant, side, legal))
                context = decision_context(dex, variant, side, legal)
                assert json.dumps(context) == expected  # as the log writes it: types and order
                assert all(type(row) is tuple for row in context["attacks"])
                context["switches"].append(99)
                context["attacks"][:0] = [(9, -1, -1)]
                context["own_hp_percent"] = -1
                assert json.dumps(decision_context(dex, variant, side, legal)) == expected
                replacements += needs_replacement(variant, side)
    return replacements


def test_memoized_decision_context_equals_the_reference_along_a_full_game(dex):
    fresh = replace(dex, attack_memo={})
    assert check_memoized_contexts(fresh, walk_states(fresh, **FULL_GAME)) > 0
    assert fresh.attack_memo  # the memo was used, and the checks ran against it


@settings(max_examples=20, deadline=None)
@given(**ANY_WALK)
def test_memoized_decision_context_equals_the_reference_along_any_walk(
        dex, order, seed, turn_limit, choices):
    check_memoized_contexts(dex, walk_states(dex, order, seed, turn_limit, choices))


def check_decision_lines(dex, states, decision, agent_id):
    """decision_line writes json.dumps's text of the decision record, with the
    decision_context, of each decision variant of each state; or raises what
    encoding that record raises.  Returns the number of lines checked."""
    checked = 0
    for state in states:
        for side in () if state.ended else (0, 1):
            for variant, legal in decision_variants(state, side):
                phase = "ForcedReplace" if needs_replacement(variant, side) else "Battle"
                record = decision_record(
                    decision, turn=variant.turn_number, agent_id=agent_id, side=side,
                    phase=phase, context=decision_context(dex, variant, side, legal))
                try:
                    expected = json.dumps(record, ensure_ascii=False, separators=(",", ":"))
                except TypeError:
                    with pytest.raises(TypeError):
                        storage.decision_line(dex, variant, side, legal, decision,
                                              agent_id=agent_id, phase=phase)
                else:
                    assert storage.decision_line(dex, variant, side, legal, decision,
                                                 agent_id=agent_id, phase=phase) == expected
                checked += 1
    return checked


ODD_DECISIONS = [
    AgentDecision(action=Action.attack(0)),
    AgentDecision(action=Action("attack", True), reasoning='"q" \\ é \n\x00 \ud800',
                  errors=("e:  ", ""), fallback_used=True),
    AgentDecision(action=Action("switch", 1.0), reasoning="r"),
    AgentDecision(action=Action.switch(2), reasoning=object()),  # not JSON: TypeError
]


@pytest.mark.parametrize("decision", ODD_DECISIONS)
@pytest.mark.parametrize("agent_id", ["random", 'ä "x"\x1f', 7])
def test_a_decision_line_is_the_encoded_record_along_a_full_game(dex, decision, agent_id):
    assert check_decision_lines(dex, walk_states(dex, **FULL_GAME), decision, agent_id) > 0


@settings(max_examples=20, deadline=None)
@given(**ANY_WALK, decision=st.builds(
    AgentDecision,
    action=st.builds(Action, kind=st.sampled_from(["attack", "switch"]),
                     index=st.one_of(st.integers(min_value=-3, max_value=300), st.booleans())),
    reasoning=st.text(max_size=8), errors=st.lists(st.text(max_size=4), max_size=2).map(tuple),
    fallback_used=st.booleans()), agent_id=st.one_of(st.text(max_size=6), st.integers()))
def test_a_decision_line_is_the_encoded_record_along_any_walk(
        dex, order, seed, turn_limit, choices, decision, agent_id):
    check_decision_lines(dex, walk_states(dex, order, seed, turn_limit, choices),
                         decision, agent_id)


def test_rows_json_after_rows_are_freed_and_the_cache_overflows():
    """Each entry keeps its rows, so rows made after others are freed, which may
    reuse their ids, get their own text; past the cap the cache is cleared."""
    for i in range(3 * storage._ROWS_JSON_CAP):
        rows = ((0, float(i % 5), i), (1, 2.0, 0))  # freed once the next one is made
        assert storage._rows_json(rows) == json.dumps(rows, separators=(",", ":"))
        assert len(storage._ROWS_JSON) <= storage._ROWS_JSON_CAP


def check_contexts_read_back(dex, states, path):
    """Log a Battle decision with the decision_context of each decision variant of
    each state, then read the log: each context reads back as the JSON of the one
    decision_context gave, its attacks as lists holding attack_table's rows with
    their exact types.  Returns the rows read back."""
    expected = []
    with MatchLog(path) as log:
        log.append(meta_record(
            match_id="m", tournament_id="t", game_index=0, seed=1, turn_limit=500,
            dex_fingerprint="f", agents={"a": "x", "b": "y"},
            team_names={"a": [], "b": []}, initial_digest="d"))
        for state in states:
            for side in () if state.ended else (0, 1):
                for variant, legal in decision_variants(state, side):
                    if needs_replacement(variant, side):
                        continue
                    context = decision_context(dex, variant, side, legal)
                    indices = tuple(a.index for a in legal if a.is_attack)
                    rows = attack_table(dex, variant.sides[side].active,
                                        variant.sides[1 - side].active, variant.weather,
                                        indices) if indices else ()
                    expected.append((context, rows))
                    log.append(decision_record(
                        AgentDecision(action=legal[-1]), turn=variant.turn_number,
                        agent_id="xy"[side], side=side, phase="Battle", context=context))
    read = [record["context"] for record in read_log(path).records]
    assert len(read) == len(expected)
    for got, (context, rows) in zip(read, expected):
        assert got == json.loads(json.dumps(context))
        assert all(type(row) is list for row in got["attacks"])
        assert [tuple(row) for row in got["attacks"]] == list(rows)
        assert ([[type(item) for item in row] for row in got["attacks"]]
                == [[type(item) for item in row] for row in rows])
    return [row for got in read for row in got["attacks"]]


def test_a_context_reads_back_as_attack_table_rows_along_a_full_game(dex, tmp_path):
    """A 2x effectiveness reads back as the float 2.0 and a status move's expected
    damage as the int 0, as attack_table holds them."""
    rows = check_contexts_read_back(dex, walk_states(dex, **FULL_GAME), tmp_path / "log.jsonl")
    assert any(type(row[1]) is float and row[1] == 2.0 for row in rows)
    assert any(type(row[2]) is int and row[2] == 0 for row in rows)


@settings(max_examples=20, deadline=None)
@given(**ANY_WALK)
@example(**CAPPED_GAME)
def test_a_context_reads_back_as_attack_table_rows_along_any_walk(
        dex, order, seed, turn_limit, choices):
    with tempfile.TemporaryDirectory() as log_dir:
        check_contexts_read_back(dex, walk_states(dex, order, seed, turn_limit, choices),
                                 Path(log_dir) / "log.jsonl")


def test_a_1_3_log_reads_back_as_a_2_0_log_of_its_game(dex, tmp_path, capsys):
    """The 1.3 simulate fixture (simulate --count 1 --seed 6) and the same game
    written now read back alike: every record but the meta, without the
    fixture's ts, is equal, each context as the same rows of the same types; both replay and
    report alike."""
    assert main(["simulate", "--count", "1", "--seed", "6", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    logs = [read_log(LOGS_1_3 / "sim0.jsonl"), read_log(tmp_path / "sim0.jsonl")]
    assert [log.meta["schema_version"] for log in logs] == ["1.3", "2.1"]
    records = [[{k: v for k, v in r.items() if k != "ts"} for r in log.records] for log in logs]
    assert records[0] == records[1]
    contexts = [json.dumps([r.get("context") for r in log.records]) for log in logs]
    assert contexts[0] == contexts[1]  # 2.0 is not 2 in JSON
    rows = [a for r in logs[0].records if r.get("context") for a in r["context"]["attacks"]]
    assert rows and {(type(a), *map(type, a)) for a in rows} == {(list, int, float, int)}
    assert build_report(logs[:1]).to_dict() == build_report(logs[1:]).to_dict()
    assert replay(LOGS_1_3 / "sim0.jsonl", dex) == replay(tmp_path / "sim0.jsonl", dex)


def test_greedy_and_the_context_rank_a_new_matchup_once(dex):
    """GreedyAgent's decision on a new matchup adds one attack-table entry, and
    the decision context of the same state reads it without adding one."""
    fresh = replace(dex, attack_memo={})
    state, _ = init_battle(fresh, fresh.pool[:6], fresh.pool[6:12], 1)
    legal = legal_actions(state, 0)
    GreedyAgent("greedy", fresh).choose_action(view_for(state, 0), legal)
    assert len(fresh.attack_memo) == 1
    decision_context(fresh, state, 0, legal)
    assert len(fresh.attack_memo) == 1


def test_state_json_keys_cached_fragments_by_value(dex):
    state = list(walk_states(dex, **CAPPED_GAME))[-1].clone()
    state_json(state)  # fill the cache with the unmodified battlers
    battler = state.sides[0].team[1]
    set_battler(state, 0, 1, stats={**battler.stats, "atk": battler.stats["atk"] + 1},
                max_hp=battler.max_hp + 1, moves=tuple(reversed(battler.moves)))
    assert state_json(state) == canonical_json(state.to_dict())


# Actions around the legal ones: every kind and index nearby, bools, unknown kinds.
ANY_ACTION = st.builds(
    Action, kind=st.sampled_from(["attack", "switch", "run", ""]),
    index=st.one_of(st.integers(min_value=-3, max_value=9), st.booleans()))
NEAR_ACTIONS = [Action(kind, index) for kind in ("attack", "switch", "Attack")
                for index in (-1, 0, 1, 3, 4, 5, 6, True, False)]


@settings(max_examples=25, deadline=5000)
@given(**ANY_WALK, extra=st.lists(ANY_ACTION, max_size=6))
@example(**FULL_GAME, extra=[])
@example(**CAPPED_GAME, extra=[])
def test_a_step_rejects_every_action_outside_legal_actions(dex, order, seed, turn_limit, choices,
                                                           extra):
    """legal_actions is the one legality rule: on every state of a walk, a step
    takes each action in the list (for a replacement, from a side that owes one)
    and rejects every other, nearby indices, bools and unknown kinds included."""
    for state in walk_states(dex, order, seed, turn_limit, choices):
        if state.ended:
            for side in (0, 1):
                with pytest.raises(BattleAlreadyEnded):
                    resolve_turn(state, Action("attack", 0), Action("attack", 0), dex)
                with pytest.raises(BattleAlreadyEnded):
                    resolve_replacements(state, {side: Action("switch", 1)}, dex)
            continue
        pending = [side for side in (0, 1) if needs_replacement(state, side)]
        for side in (0, 1):
            legal = legal_actions(state, side)
            other = legal_actions(state, 1 - side)[0]
            for action in [*NEAR_ACTIONS, *extra, *legal]:
                def step():
                    if pending:
                        return resolve_replacements(state, {side: action}, dex)
                    return resolve_turn(state, *((action, other) if side == 0 else (other, action)),
                                        dex)
                if action in legal and (not pending or side in pending):
                    step()
                else:
                    with pytest.raises(IllegalActionError):
                        step()


def test_state_json_after_the_battler_cache_overflows(dex):
    cap = storage._BATTLER_JSON_CAP
    walks = []
    seed = 0
    while sum(len({id(b) for s in walk for side in s.sides for b in side.team})
              for walk in walks) <= 2 * cap:
        walks.append(list(walk_states(dex, FULL_GAME["order"], seed, 500, FULL_GAME["choices"])))
        seed += 1
    states = [state for walk in walks for state in walk]
    for _ in range(2):  # the second pass finds entries cleared and refilled
        for state in states:
            assert state_json(state) == canonical_json(state.to_dict())
    assert len(storage._BATTLER_JSON) <= cap
    # More revealed sets than the revealed cache holds: it is cleared whole and refilled.
    revealed_cap = storage._REVEALED_JSON_CAP
    state = states[-1].clone()
    sizes = []
    for _ in range(2):
        for bits in range(1, 3 * revealed_cap):
            state.sides[0].revealed = {i for i in range(bits.bit_length()) if bits >> i & 1}
            assert state_json(state) == canonical_json(state.to_dict())
            sizes.append(len(storage._REVEALED_JSON))
    assert max(sizes) == revealed_cap
    assert min(sizes[revealed_cap:]) <= 2  # side 1's set and the new one


def test_state_json_after_a_battler_is_replaced(dex):
    state = list(walk_states(dex, **CAPPED_GAME))[-1]
    before = state_json(state)
    changed = state.clone()
    set_battler(changed, 1, 2, current_hp=1)
    assert state_json(changed) == canonical_json(changed.to_dict()) != before
    assert state_json(state) == before
    del changed  # its battler's entry keeps the object, so its id stays taken
    again = state.clone()
    set_battler(again, 1, 2, current_hp=2)
    assert state_json(again) == canonical_json(again.to_dict())


STATUS_KINDS = [None, *(StatusState(kind) for kind in STATUS_NAMES), StatusState("Sleep", 3)]


@pytest.mark.parametrize("status", STATUS_KINDS, ids=str)
def test_battler_json_formats_every_status(dex, status):
    battler = replace(list(walk_states(dex, **CAPPED_GAME))[-1].sides[0].team[0], status=status)
    assert storage._battler_json(battler) == canonical_json(battler.to_dict())


def test_battler_json_escapes_names_as_the_encoder_does(dex):
    battler = list(walk_states(dex, **CAPPED_GAME))[-1].sides[1].team[2]
    named = replace(battler, species='Mr. "Mime" \\ é', types=("Psy\"chic", "Fée"),
                    moves=('Ice "Beam"', "Back\\slash", "Écrasement", battler.moves[3]))
    encoded = storage._battler_json(named)
    assert encoded == canonical_json(named.to_dict())
    assert '"species":"Mr. \\"Mime\\" \\\\ é"' in encoded  # ensure_ascii=False


def test_battler_json_keys_numbers_by_type(dex):
    """1 == 1.0 == True, but they encode apart: none may take an int battler's entry."""
    battler = list(walk_states(dex, **CAPPED_GAME))[-1].sides[0].team[3]
    storage._battler_json(battler)  # cache the battler's fixed fields
    stats = dict(battler.stats)
    for changes in ({"level": float(battler.level)}, {"max_hp": float(battler.max_hp)},
                    {"stats": {**stats, "atk": float(stats["atk"])}},
                    {"level": True}, {"stats": {**stats, "spe": -0.0}},
                    {"current_hp": float(battler.current_hp)},
                    {"status": StatusState("Sleep", True)}):
        twin = replace(battler, **changes)
        assert storage._battler_json(twin) == canonical_json(twin.to_dict())


def test_battler_json_after_both_caches_overflow(dex):
    battler = list(walk_states(dex, **CAPPED_GAME))[-1].sides[0].team[0]
    cap = max(storage._BATTLER_JSON_CAP, storage._FIXED_JSON_CAP)
    # Distinct species overflow the fixed-field cache; hp changes, the battler cache.
    battlers = [replace(battler, species=f"{battler.species}{i % (cap + 7)}",
                        current_hp=battler.current_hp - i % 5) for i in range(3 * cap)]
    for _ in range(2):  # the second pass finds entries cleared and refilled
        for b in battlers:
            assert storage._battler_json(b) == canonical_json(b.to_dict())
            assert len(storage._BATTLER_JSON) <= storage._BATTLER_JSON_CAP
            assert len(storage._FIXED_JSON) <= storage._FIXED_JSON_CAP


def mutated_events(events, how, rnd):
    """(logged, expected): copies of events, one or both changed as how names."""
    logged, expected = [dict(e) for e in events], [dict(e) for e in events]
    slots = [(i, key) for i, event in enumerate(logged) for key in event]
    i, key = rnd.choice(slots) if slots else (None, None)
    if how == "bool-int":
        picks = [(i, k) for i, k in slots
                 if type(logged[i][k]) in (bool, int) and logged[i][k] in (0, 1)]
        for i, k in rnd.sample(picks, min(1, len(picks))):
            logged[i][k] = (int if type(logged[i][k]) is bool else bool)(logged[i][k])
    elif how == "int-float":
        picks = [(i, k) for i, k in slots if type(logged[i][k]) in (int, float)]
        for i, k in rnd.sample(picks, min(1, len(picks))):
            value = logged[i][k]
            logged[i][k] = float(value) if type(value) is int else int(value)
    elif how == "zero-sign" and slots:
        expected[i][key] = rnd.choice([0.0, -0.0])
        logged[i][key] = rnd.choice([0.0, -0.0])
    elif how == "nan" and slots:
        logged[i][key] = math.nan
        if rnd.random() < 0.5:
            expected[i][key] = math.nan
    elif how == "drop-key" and slots:
        del logged[i][key]
    elif how == "add-key" and logged:
        logged[rnd.randrange(len(logged))]["extra"] = rnd.choice([0, False, None, "x", 1.5])
    elif how == "reorder-keys" and logged:
        j = rnd.randrange(len(logged))
        logged[j] = dict(reversed(logged[j].items()))
    elif how == "drop-event" and logged:
        del logged[rnd.randrange(len(logged))]
    elif how == "swap-events" and len(logged) > 1:
        j, k = rnd.sample(range(len(logged)), 2)
        logged[j], logged[k] = logged[k], logged[j]
    elif how == "nested" and slots:
        logged[i][key] = rnd.choice([[logged[i][key]], {"v": logged[i][key]}])
        if rnd.random() < 0.5:
            expected[i][key] = json.loads(json.dumps(logged[i][key]))
    elif how == "bool-key" and logged:  # a JSON key is a string; 1 == True all the same
        j = rnd.randrange(len(logged))
        logged[j], expected[j] = {True: key}, {rnd.choice([1, 1.0, True]): key}
    elif how == "not-list":
        logged = rnd.choice([tuple(logged), {"events": logged}, json.dumps(logged), None])
    elif how == "not-dict" and logged:
        j = rnd.randrange(len(logged))
        logged[j] = rnd.choice([list(logged[j].items()), json.dumps(logged[j]), 0])
    return logged, expected


MUTATIONS = ["bool-int", "int-float", "zero-sign", "nan", "drop-key", "add-key", "reorder-keys",
             "drop-event", "swap-events", "nested", "bool-key", "not-list", "not-dict"]


@settings(max_examples=40, deadline=None)
@given(**ANY_WALK, rnd=st.randoms(use_true_random=False))
@example(**FULL_GAME, rnd=random.Random(0))
def test_event_compare_agrees_with_the_encoder(dex, order, seed, turn_limit, choices, rnd):
    """The replay step's value compare answers as comparing canonical_json encodings does."""
    for _, events in walk_steps(dex, order, seed, turn_limit, choices):
        assert storage._same_events([dict(e) for e in events], events)
        for how in MUTATIONS:
            logged, expected = mutated_events(events, how, rnd)
            assert storage._same_events(logged, expected) == (
                canonical_json(logged) == canonical_json(expected)), how


def digest_chain(path):
    """SHA-256 over a log's initial digest and every events pre/post digest."""
    log = read_log(path)
    records = [log.meta, *log.records]
    links = [records[0]["initial_digest"]]
    for record in records:
        if record["kind"] == "events":
            links += [record["pre_digest"] or "-", record["post_digest"]]
    return hashlib.sha256("\n".join(links).encode("utf-8")).hexdigest()


# Digest values are part of the log format: these chains must never change
# without a SCHEMA_VERSION bump.
@pytest.mark.parametrize("pairing, seed, expected", [
    ("greedy-random", 42, "5fd45024506813a96e11cfb1cd341d56aec603c2593663c635ebe72ee776556f"),
    ("random-random", 27, "38b4e4a50c89c0e1c90dbe46bb2c9f5f668f284d493e09f20134f10b96be96e7"),
])
def test_digest_chain_is_pinned(dex, bundled_fingerprint, tmp_path, pairing, seed, expected):
    if pairing == "greedy-random":
        agents = GreedyAgent("greedy", dex), RandomAgent("random", 7)
    else:
        agents = RandomAgent("r1", 1), RandomAgent("r2", 2)
    runner = MatchRunner(dex, LeagueConfig(), tmp_path, bundled_fingerprint)
    runner.run_match(*agents, seed=seed, match_id="m")
    assert digest_chain(tmp_path / "m.jsonl") == expected
    replay(tmp_path / "m.jsonl", dex, expected_dex_fingerprint=bundled_fingerprint)


def test_each_state_is_digested_once(dex, bundled_fingerprint, tmp_path, monkeypatch):
    calls = []
    original = storage.state_digest

    def counting_digest(state):
        calls.append(state)
        return original(state)

    monkeypatch.setattr(storage, "state_digest", counting_digest)
    runner = MatchRunner(dex, LeagueConfig(), tmp_path, bundled_fingerprint)
    runner.run_match(RandomAgent("r1", 1), RandomAgent("r2", 2), seed=27, match_id="m")
    steps = sum(1 for r in read_log(tmp_path / "m.jsonl").records
                if r["kind"] == "events" and r["phase"] in ("turn", "replace"))
    assert len(calls) == 1 + steps
    calls.clear()
    replay(tmp_path / "m.jsonl", dex)
    assert len(calls) == 1 + steps


# ---------------------------------------------------------------------------
# replay
# ---------------------------------------------------------------------------

def test_replay_fixpoint(dex, bundled_fingerprint, match_log):
    path, result = match_log
    outcome = replay(path, dex, expected_dex_fingerprint=bundled_fingerprint)
    assert outcome.winner_agent == result.winner
    assert outcome.turns == result.turn_count


def test_replay_detects_truncation(dex, match_log, tmp_path):
    path, _ = match_log
    lines = path.read_text(encoding="utf-8").splitlines()
    truncated = tmp_path / "truncated.jsonl"
    truncated.write_text("\n".join(lines[:-4]) + "\n", encoding="utf-8")
    with pytest.raises(IncompleteLog):
        replay(truncated, dex)


# A tampered log's lines as json.dumps writes them by default, which replay
# decodes, and as the log encoder does, which replay first compares by their
# bytes with each step's record: either way it gives the decoded verdict.
LINE_STYLES = {"spaced": json.dumps, "compact": compact}


def test_replay_detects_flipped_damage(dex, match_log, tmp_path):
    path, _ = match_log
    records = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
    flipped_turn = None
    for record in records:
        if record["kind"] != "events":
            continue
        for event in record["events"]:
            if event["kind"] == "Damage":
                event["amount"] += 1
                flipped_turn = record["turn"]
                break
        if flipped_turn is not None:
            break
    assert flipped_turn is not None
    for style, dumps in LINE_STYLES.items():
        corrupted = tmp_path / f"corrupted-{style}.jsonl"
        corrupted.write_text(
            "\n".join(dumps(r) for r in records) + "\n", encoding="utf-8")
        with pytest.raises(DigestMismatch) as excinfo:
            replay(corrupted, dex)
        assert excinfo.value.turn == flipped_turn
        assert str(excinfo.value) == f"replay diverged at turn {flipped_turn}: event payload"


def test_replay_detects_tampered_digest(dex, match_log, tmp_path):
    path, _ = match_log
    records = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
    for record in records:
        if record["kind"] == "events" and record["phase"] == "turn":
            record["post_digest"] = "0" * 16
            bad_turn = record["turn"]
            break
    for style, dumps in LINE_STYLES.items():
        tampered = tmp_path / f"tampered-{style}.jsonl"
        tampered.write_text("\n".join(dumps(r) for r in records) + "\n", encoding="utf-8")
        with pytest.raises(DigestMismatch) as excinfo:
            replay(tampered, dex)
        assert excinfo.value.turn == bad_turn
        assert str(excinfo.value) == f"replay diverged at turn {bad_turn}: post-state digest"


def test_replay_reports_what_read_log_rejects_before_a_later_divergence(
        dex, match_log, tmp_path):
    """A post-state digest edit at turn 2 and, on a later line, invalid JSON:
    read_log's error, as replay reads every line before it steps, though
    the edited line comes first and the invalid one is an events line that
    replay would otherwise not need to decode."""
    path, _ = match_log
    lines = path.read_text(encoding="utf-8").splitlines()
    at = next(i for i, line in enumerate(lines)
              if line.startswith('{"kind":"events","match_id":"m0","turn":2,"phase":"turn"'))
    record = json.loads(lines[at])
    record["post_digest"] = "0" * 16
    lines[at] = compact(record)
    last = max(i for i, line in enumerate(lines) if line.startswith('{"kind":"events",'))
    assert last > at
    lines[last] = lines[last][:-1]  # its closing brace
    tampered = tmp_path / "tampered.jsonl"
    tampered.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(StorageError, match=f"tampered.jsonl:{last + 1}: invalid JSON: ") as err:
        replay(tampered, dex)
    assert not isinstance(err.value, DigestMismatch)
    with pytest.raises(StorageError) as read_err:
        read_log(tampered)
    assert str(err.value) == str(read_err.value)


def test_replay_detects_tampered_initial_digest(dex, match_log, tmp_path):
    path, _ = match_log
    records = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
    records[0]["initial_digest"] = "0" * 16
    tampered = tmp_path / "tampered.jsonl"
    tampered.write_text("\n".join(json.dumps(r) for r in records) + "\n", encoding="utf-8")
    with pytest.raises(DigestMismatch) as excinfo:
        replay(tampered, dex)
    assert excinfo.value.turn == 0


@pytest.mark.parametrize("key, retype", [("crit", int), ("effectiveness", int),
                                         ("amount", float)])
def test_replay_tells_a_logged_value_from_an_equal_one_of_another_type(
        dex, match_log, tmp_path, key, retype):
    """false == 0, 1.0 == 1 and 79 == 79.0, but a log holding the other one does not replay."""
    path, _ = match_log
    changed = []

    def change(records):
        record, event = next((r, e) for r in records if r["kind"] == "events"
                             for e in r["events"] if e["kind"] == "Damage"
                             and e["effectiveness"] == 1.0 and e["crit"] is False)
        event[key] = retype(event[key])
        changed.append(record["turn"])

    for style, dumps in LINE_STYLES.items():
        tampered = rewrite_log(path, tmp_path / f"{key}-{style}.jsonl", change, dumps)
        with pytest.raises(DigestMismatch) as excinfo:
            replay(tampered, dex)
        assert (excinfo.value.turn, str(excinfo.value)) == (
            changed[-1], f"replay diverged at turn {changed[-1]}: event payload")


def test_replay_checks_dex_fingerprint(dex, match_log):
    path, _ = match_log
    with pytest.raises(StorageError):
        replay(path, dex, expected_dex_fingerprint="deadbeefdeadbeef")


def test_digest_chain_links_consecutive_records(match_log):
    path, _ = match_log
    records = read_log(path).records
    event_records = [r for r in records if r["kind"] == "events"]
    for previous, current in zip(event_records, event_records[1:]):
        assert previous["post_digest"] == current["pre_digest"] or current["phase"] == "init"


def test_replay_rejects_records_after_the_end(dex, match_log, tmp_path):
    path, _ = match_log
    lines = path.read_text(encoding="utf-8").splitlines()
    last_decision = next(line for line in reversed(lines)
                         if json.loads(line)["kind"] == "decision")
    extended = tmp_path / "extended.jsonl"
    extended.write_text("\n".join(lines + [last_decision]) + "\n", encoding="utf-8")
    with pytest.raises(StorageError, match="after the battle ended"):
        replay(extended, dex)


def test_replay_checks_the_initial_digest_before_reading_on(dex, match_log, tmp_path):
    path, _ = match_log
    lines = path.read_text(encoding="utf-8").splitlines()
    meta = json.loads(lines[0])
    meta["initial_digest"] = "0" * 16
    for kept in (1, 3, len(lines) - 4):  # meta only; the drafts; all but the last turn
        tampered = tmp_path / f"tampered{kept}.jsonl"
        tampered.write_text("\n".join([json.dumps(meta), *lines[1:kept]]) + "\n",
                            encoding="utf-8")
        with pytest.raises(DigestMismatch) as excinfo:
            replay(tampered, dex)
        assert excinfo.value.turn == 0
        assert str(excinfo.value) == "replay diverged at turn 0: initial digest"


def test_replay_rejects_a_draft_after_the_start(dex, match_log, tmp_path):
    path, _ = match_log

    def change(records):
        draft = first_record(records, "decision", "TeamSelect")
        records.insert(records.index(first_record(records, "events", "init")) + 1, dict(draft))

    tampered = rewrite_log(path, tmp_path / "late_draft.jsonl", change)
    with pytest.raises(IncompleteLog, match="turn 1: missing battle decisions"):
        replay(tampered, dex)


def rewrite_log(path, out, change, dumps=json.dumps):
    """Write path's records to out, as dumps writes each, after change(records)
    edits them in place."""
    records = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
    change(records)
    out.write_text("\n".join(dumps(r) for r in records) + "\n", encoding="utf-8")
    return out


def first_record(records, kind, phase):
    return next(r for r in records if r["kind"] == kind and r["phase"] == phase)


def test_replay_rejects_an_illegal_logged_action(dex, match_log, tmp_path):
    path, _ = match_log

    def change(records):
        record = first_record(records, "decision", "Battle")
        record["decision"] = {"action": {"type": "attack", "move_index": 9}}

    tampered = rewrite_log(path, tmp_path / "illegal.jsonl", change)
    with pytest.raises(StorageError, match="turn 1: side 0: illegal action attack:9"):
        replay(tampered, dex)


def switch_into_own_active(records):
    """The first battle decision switches into its side's active slot, 0 (slot 0
    leads), which its context lists as a switch.  Returns replay's error."""
    record = first_record(records, "decision", "Battle")
    record["decision"] = {"action": {"type": "switch", "team_index": 0}}
    record["context"]["switches"].insert(0, 0)
    return "turn 1: side 0: illegal action switch:0"


def replace_with_a_fainted_member(records):
    """A side's second replacement switches into the member its first replaced,
    which fainted and is not active.  Returns replay's error."""
    active, fainted = {0: 0, 1: 0}, {}
    for record in records:
        if record["kind"] != "decision" or record["phase"] == "TeamSelect":
            continue
        side, action = record["side"], record["decision"]["action"]
        if record["phase"] == "ForcedReplace" and side in fainted:
            record["decision"]["action"] = {"type": "switch", "team_index": fainted[side]}
            return f"turn {record['turn']}: side {side}: illegal action switch:{fainted[side]}"
        if record["phase"] == "ForcedReplace":
            fainted[side] = active[side]
        if action["type"] == "switch":
            active[side] = action["team_index"]
    raise AssertionError("no side replaced twice")


@pytest.mark.parametrize("change", [switch_into_own_active, replace_with_a_fainted_member],
                         ids=["battle-switch-into-active", "replace-with-fainted"])
def test_replay_rejects_a_switch_the_engine_rejects(dex, match_log, tmp_path, change):
    path, _ = match_log
    errors = []
    tampered = rewrite_log(path, tmp_path / "illegal.jsonl",
                           lambda records: errors.append(change(records)))
    with pytest.raises(StorageError) as excinfo:
        replay(tampered, dex)
    assert str(excinfo.value) == errors[0]


@pytest.mark.parametrize("action", [{"type": "attack"}, {"type": "fly", "move_index": 0},
                                    {"type": "switch", "team_index": "two"}, 3])
def test_replay_rejects_an_unreadable_logged_action(dex, match_log, tmp_path, action):
    path, _ = match_log

    def change(records):
        first_record(records, "decision", "Battle")["decision"] = {"action": action}

    tampered = rewrite_log(path, tmp_path / "unreadable.jsonl", change)
    with pytest.raises(StorageError, match="turn 1: side 0: unreadable action"):
        replay(tampered, dex)


@pytest.mark.parametrize("field, n", [("effectiveness", 1), ("expected_damage", 2)])
def test_read_log_names_a_context_number_too_large_for_a_float(match_log, tmp_path, field, n):
    path, _ = match_log

    def change(records):
        first_record(records, "decision", "Battle")["context"]["attacks"][0][n] = 10**400

    tampered = rewrite_log(path, tmp_path / "huge.jsonl", change)
    with pytest.raises(StorageError) as excinfo:
        read_log(tampered)
    assert str(excinfo.value).endswith(f"turn 1: side 0: context attack 0: "
                                       f"{field} {10**400} is not finite")


@pytest.mark.parametrize("kind, phase, key", [
    ("events", "turn", "pre_digest"), ("events", "init", "events"),
    ("decision", "Battle", "side"), ("meta", None, "agents"),
])
def test_replay_rejects_a_record_without_a_key(dex, match_log, tmp_path, kind, phase, key):
    path, _ = match_log

    def change(records):
        record = records[0] if kind == "meta" else first_record(records, kind, phase)
        del record[key]

    for style, dumps in LINE_STYLES.items():
        tampered = rewrite_log(path, tmp_path / f"missing-{style}.jsonl", change, dumps)
        with pytest.raises(StorageError, match=f"lacks the key '{key}'"):
            replay(tampered, dex)


@pytest.mark.parametrize("line", ["[1,2]", "7", '"meta"', "null"])
@pytest.mark.parametrize("at", [0, 3])
def test_reader_rejects_a_record_that_is_not_an_object(match_log, tmp_path, line, at):
    path, _ = match_log
    lines = path.read_text(encoding="utf-8").splitlines()
    lines[at] = line
    broken = tmp_path / "broken.jsonl"
    broken.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(StorageError, match=f":{at + 1}: a record must be a JSON object"):
        read_log(broken)


POOL_TEAM = st.lists(st.integers(min_value=0, max_value=29), min_size=6, max_size=6, unique=True)


@settings(max_examples=20, deadline=5000)
@given(teams=st.tuples(POOL_TEAM, POOL_TEAM),
       agent_seeds=st.tuples(st.integers(min_value=0, max_value=2**32),
                             st.integers(min_value=0, max_value=2**32)),
       seed=st.integers(min_value=0, max_value=2**63 - 1),
       turn_limit=st.integers(min_value=1, max_value=80))
def test_every_runner_log_replays_to_its_result(dex, bundled_fingerprint, teams, agent_seeds,
                                                seed, turn_limit):
    """Every log MatchRunner writes replays digest for digest to the MatchResult."""
    with tempfile.TemporaryDirectory() as log_dir:
        runner = MatchRunner(dex, LeagueConfig(turn_limit=turn_limit), log_dir,
                             bundled_fingerprint)
        result = runner.run_match(
            FixedTeam(RandomAgent("r1", agent_seeds[0]), teams[0]),
            FixedTeam(RandomAgent("r2", agent_seeds[1]), teams[1]), seed, match_id="m")
        outcome = replay(Path(log_dir) / result.log_files[0], dex,
                         expected_dex_fingerprint=bundled_fingerprint)
    assert (outcome.winner_agent, outcome.turns) == (result.winner, result.turn_count)
    assert outcome.turns <= turn_limit
