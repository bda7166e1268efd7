"""JSONL logging, digests, and replay verification."""

import hashlib
import json

import pytest
from hypothesis import example, given, settings, strategies as st

from pokeleague import storage
from pokeleague.agents import GreedyAgent, RandomAgent
from pokeleague.engine import (
    init_battle, legal_actions, needs_replacement, resolve_replacements, resolve_turn,
)
from pokeleague.league import LeagueConfig, MatchRunner
from pokeleague.storage import (
    DigestMismatch, IncompleteLog, MatchLog, StorageError, canonical_json,
    decision_record, meta_record, read_log, replay, state_digest, state_json,
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
        match_id="m", turn=3, agent_id="a", side=0, phase="Battle",
        decision={"action": {"type": "attack", "move_index": 1}},
        reasoning="because", context={"own_hp_percent": 55})
    with MatchLog(path) as log:
        log.append(meta_record(
            match_id="m", tournament_id="t", seed=1, turn_limit=500,
            dex_fingerprint="f", agents={"a": "x", "b": "y"},
            teams={"a": [0, 1, 2, 3, 4, 5], "b": [6, 7, 8, 9, 10, 11]},
            team_names={"a": [], "b": []}, initial_digest="d"))
        log.append(record)
    records = read_log(path)
    assert len(records) == 2
    assert records[1] == json.loads(json.dumps(record))  # structurally identical


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


def test_reader_rejects_unknown_major_version(tmp_path):
    path = tmp_path / "log.jsonl"
    with MatchLog(path) as log:
        log.append({"kind": "meta", "schema_version": "2.0"})
    with pytest.raises(StorageError):
        read_log(path)


def test_reader_accepts_same_major_newer_minor(tmp_path):
    path = tmp_path / "log.jsonl"
    with MatchLog(path) as log:
        log.append({"kind": "meta", "schema_version": "1.7"})
    assert read_log(path)[0]["schema_version"] == "1.7"


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
    mutated.sides[0].team[0].current_hp -= 1
    assert state_digest(mutated) != digest


def walk_states(dex, order, seed, turn_limit, choices):
    """States of a battle between pool[order[:6]] and pool[order[6:12]].

    Each choice picks legal[choice % len(legal)] for the next side to act;
    the walk stops when the battle ends or the choices run out.
    """
    names = [dex.pool[i] for i in order[:12]]
    state, _ = init_battle(dex, names[:6], names[6:], seed, turn_limit)
    states = [state]
    picks = iter(choices)
    while not state.ended:
        pending = [s for s in (0, 1) if needs_replacement(state, s)]
        chosen = {}
        for side in pending or (0, 1):
            legal = legal_actions(state, side)
            pick = next(picks, None)
            if pick is None:
                return states
            chosen[side] = legal[pick % len(legal)]
        if pending:
            state, _ = resolve_replacements(state, chosen, dex)
        else:
            state, _ = resolve_turn(state, chosen[0], chosen[1], dex)
        states.append(state)
    return states


# Gengar (Hypnosis) leads against Tyranitar (Sand): a full game to AllFainted
# with a sleeping battler and infinite weather, and a 3-turn game to the cap.
GENGAR_VS_TYRANITAR = [4, 1, 2, 3, 5, 6, 17, 0, 8, 9, 10, 11]
FULL_GAME = dict(order=GENGAR_VS_TYRANITAR, seed=0, turn_limit=500,
                 choices=[i % 3 for i in range(400)])
CAPPED_GAME = dict(order=GENGAR_VS_TYRANITAR, seed=0, turn_limit=3, choices=[0] * 10)


def test_fixed_walks_cover_digest_edge_cases(dex):
    states = walk_states(dex, **FULL_GAME) + walk_states(dex, **CAPPED_GAME)
    statuses = [b.status for s in states for side in s.sides for b in side.team]
    assert any(status is not None and status.kind == "Sleep" and status.turns_left > 0
               for status in statuses)
    assert any(s.weather is not None and s.weather_remaining is None for s in states)
    assert {s.end_reason for s in states if s.ended} == {"AllFainted", "TurnCapTieBreak"}


@settings(max_examples=40, deadline=None)
@given(
    order=st.permutations(range(30)),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    turn_limit=st.integers(min_value=1, max_value=60),
    choices=st.lists(st.integers(min_value=0, max_value=8), max_size=150),
)
@example(**FULL_GAME)
@example(**CAPPED_GAME)
def test_state_json_matches_canonical_to_dict(dex, order, seed, turn_limit, choices):
    for state in walk_states(dex, order, seed, turn_limit, choices):
        assert state_json(state) == canonical_json(state.to_dict())


def test_state_json_keys_cached_fragments_by_value(dex):
    states = walk_states(dex, **CAPPED_GAME)
    state = states[-1].clone()
    state_json(state)  # fill the cache with the unmodified battlers
    battler = state.sides[0].team[1]
    battler.stats["atk"] += 1
    battler.max_hp += 1
    battler.moves = tuple(reversed(battler.moves))
    assert state_json(state) == canonical_json(state.to_dict())


def digest_chain(path):
    """SHA-256 over a log's initial digest and every events pre/post digest."""
    records = read_log(path)
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
    steps = sum(1 for r in read_log(tmp_path / "m.jsonl")
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
    corrupted = tmp_path / "corrupted.jsonl"
    corrupted.write_text(
        "\n".join(json.dumps(r) for r in records) + "\n", encoding="utf-8")
    with pytest.raises(DigestMismatch) as excinfo:
        replay(corrupted, dex)
    assert excinfo.value.turn == flipped_turn


def test_replay_detects_tampered_digest(dex, match_log, tmp_path):
    path, _ = match_log
    records = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
    for record in records:
        if record["kind"] == "events" and record["phase"] == "turn":
            record["post_digest"] = "0" * 16
            bad_turn = record["turn"]
            break
    tampered = tmp_path / "tampered.jsonl"
    tampered.write_text("\n".join(json.dumps(r) for r in records) + "\n", encoding="utf-8")
    with pytest.raises(DigestMismatch) as excinfo:
        replay(tampered, dex)
    assert excinfo.value.turn == bad_turn


def test_replay_detects_tampered_initial_digest(dex, match_log, tmp_path):
    path, _ = match_log
    records = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
    records[0]["initial_digest"] = "0" * 16
    tampered = tmp_path / "tampered.jsonl"
    tampered.write_text("\n".join(json.dumps(r) for r in records) + "\n", encoding="utf-8")
    with pytest.raises(DigestMismatch) as excinfo:
        replay(tampered, dex)
    assert excinfo.value.turn == 0


def test_replay_checks_dex_fingerprint(dex, match_log):
    path, _ = match_log
    with pytest.raises(StorageError):
        replay(path, dex, expected_dex_fingerprint="deadbeefdeadbeef")


def test_digest_chain_links_consecutive_records(match_log):
    path, _ = match_log
    records = read_log(path)
    event_records = [r for r in records if r["kind"] == "events"]
    for previous, current in zip(event_records, event_records[1:]):
        assert previous["post_digest"] == current["pre_digest"] or current["phase"] == "init"
