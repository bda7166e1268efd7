"""LLM decisions from cached prompt text and without extra copies, held to
reference copies of the straightforward code kept here: the battle prompt
against a builder that reads the BattlerState properties and formats every
move, the logged exchanges against a loop that merges each reply into a new
dict, and the fast-built decisions against constructed ones."""

from dataclasses import FrozenInstanceError, replace
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from pokeleague import prompts
from pokeleague.agents import AgentDecision, fallback_action, fallback_team, make_pool_view
from pokeleague.engine import (
    Action, init_battle, legal_actions, needs_replacement, split_legal, view_for,
)
from pokeleague.gateway import (
    AgentFailure, GatewayError, LlmAgent, ProviderConfig, RateLimited, ScriptCompleter,
)
from pokeleague.league import LeagueConfig, MatchRunner
from pokeleague.prompts import (
    ParseError, build_battle_prompt, build_team_prompt, repair_prompt, replace_surrogates,
)

from conftest import ANY_WALK, FULL_GAME, walk_states

GOLDEN = Path(__file__).parent / "golden"

HISTORY = ("Turn 1: Jolteon chose attack:0 vs Gyarados",
           "Turn 2: Jolteon chose switch:3 vs Tyranitar")


# ---------------------------------------------------------------------------
# the battle prompt
# ---------------------------------------------------------------------------

def reference_battle_prompt(view, legal, dex, history=()):
    """The battle prompt as built through the BattlerState properties, with
    every move described afresh and the trailer written line by line."""
    def status_text(status):
        return status if status is not None else "Healthy"

    def describe_move(move):
        detail = f"power {move.power}" if move.is_damaging else "status move"
        accuracy = "never misses" if move.accuracy is None else f"accuracy {move.accuracy}"
        return f"{move.name} ({move.move_type}, {detail}, {accuracy})"

    own = view.own_active
    opp = view.opponent_active
    lines = [
        f"You are in a battle. Your active Pokémon: {own.species} "
        f"(HP: {own.hp_percent}%, Status: {status_text(own.status_kind)}).",
        f"Opponent's active Pokémon: {opp.species} "
        f"(HP: {opp.hp_percent}%, Status: {status_text(opp.status)}).",
        f"Weather: {view.weather or 'None'}. Turn: {view.turn_number}.",
        "Opponent's revealed Pokémon: " + ", ".join(view.opponent_revealed) + ".",
        "",
        "Your team:",
    ]
    for index, member in enumerate(view.own_team):
        marker = " [active]" if index == view.own_active_index else ""
        state = "fainted" if member.fainted else (
            f"HP: {member.hp_percent}%, Status: {status_text(member.status_kind)}")
        lines.append(f"- {index}: {member.species} ({state}){marker}")
    if history:
        lines += ["", "Previous turns:"]
        lines += [f"- {entry}" for entry in history]
    attacks, switches = split_legal(legal)
    lines += ["", "Legal actions:"]
    if attacks:
        lines.append("Attacks:")
        for action in attacks:
            move = dex.moves[own.moves[action.index]]
            lines.append(f"- move_index {action.index}: {describe_move(move)}")
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


@settings(max_examples=40, deadline=None)
@given(**ANY_WALK)
def test_battle_prompt_equals_the_reference_on_every_view_of_a_walk(dex, order, seed,
                                                                    turn_limit, choices):
    phases = set()
    for state in walk_states(dex, order, seed, turn_limit, choices):
        if state.ended:
            continue
        pending = [side for side in (0, 1) if needs_replacement(state, side)]
        for side in (0, 1):
            view, legal = view_for(state, side), legal_actions(state, side)
            # A forced replacement lists only switches; the reversed set checks
            # that attacks still come first, each group in its own order.
            phases.add("ForcedReplace" if side in pending else "Battle")
            for actions in (legal, legal[::-1]):
                for history in ((), HISTORY):
                    assert (build_battle_prompt(view, actions, dex, history)
                            == reference_battle_prompt(view, actions, dex, history))
    assert "Battle" in phases


def test_the_walks_reach_forced_replacements_with_statuses(dex):
    """The walk above meets every kind of view it is to check: a fainted
    teammate, a forced replacement and a battler with a status."""
    seen = set()
    for state in walk_states(dex, **FULL_GAME):
        if state.ended:
            continue
        for side in (0, 1):
            team = state.sides[side].team
            seen.update({"ForcedReplace"} if needs_replacement(state, side) else set())
            seen.update({"status"} if any(b.status is not None for b in team) else set())
            seen.update({"fainted"} if any(b.current_hp == 0 for b in team) else set())
            view, legal = view_for(state, side), legal_actions(state, side)
            assert (build_battle_prompt(view, legal, dex, HISTORY)
                    == reference_battle_prompt(view, legal, dex, HISTORY))
    assert seen == {"ForcedReplace", "status", "fainted"}


@pytest.mark.parametrize("change", [dict(power=7), dict(accuracy=None), dict(accuracy=55)])
def test_dexes_sharing_a_move_name_each_get_their_own_move_text(dex, change):
    state, _ = init_battle(dex, ["Jolteon", "Snorlax", "Swampert", "Gengar", "Metagross",
                                 "Salamence"],
                           ["Gyarados", "Tyranitar", "Blissey", "Zapdos", "Heracross", "Lapras"],
                           seed=1)
    view, legal = view_for(state, 0), legal_actions(state, 0)
    name = view.own_active.moves[0]
    move = dex.moves[name]
    changed = replace(move, **change)
    assert changed != move
    other = replace(dex, moves={**dex.moves, name: changed}, attack_memo={})
    for first, second in ((dex, other), (other, dex), (dex, other)):
        for which in (first, second):
            assert (build_battle_prompt(view, legal, which)
                    == reference_battle_prompt(view, legal, which))
    assert build_battle_prompt(view, legal, dex) != build_battle_prompt(view, legal, other)


# ---------------------------------------------------------------------------
# the team prompt
# ---------------------------------------------------------------------------

def test_repeat_drafts_from_one_runner_build_the_team_prompt_once(dex, tmp_path, monkeypatch):
    built = []
    build = prompts._team_prompt
    monkeypatch.setattr(prompts, "_team_prompt", lambda pool: built.append(pool) or build(pool))
    sent = []
    script = ScriptCompleter({"team": [GOOD["team"]], "action": [GOOD["action"]]})

    def completer(prompt, kind):
        sent.append((kind, prompt))
        return script(prompt, kind)

    runner = MatchRunner(dex, LeagueConfig(turn_limit=2), tmp_path)
    first, second = (LlmAgent(agent_id, mock_config(), dex, completer=completer)
                     for agent_id in ("a", "b"))
    for match in range(3):
        runner.run_match(first, second, seed=match, match_id=f"m{match}")
    drafts = [prompt for kind, prompt in sent if kind == "team"]
    assert len(drafts) == 6 and len(built) == 1
    golden = (GOLDEN / "team_prompt.txt").read_text(encoding="utf-8")
    assert set(drafts) == {golden}


def test_a_pool_of_other_species_gets_its_own_team_prompt(dex):
    pool = make_pool_view(dex)
    stronger = replace(pool[0], base_stats={**pool[0].base_stats, "atk": 250})
    other = replace(dex, species={**dex.species, pool[0].name: stronger})
    smaller = dex.with_pool(list(dex.pool[5:]))
    golden = (GOLDEN / "team_prompt.txt").read_text(encoding="utf-8")
    texts = []
    for which in (dex, other, smaller, dex):
        view = make_pool_view(which)
        assert type(view) is tuple
        texts.append(build_team_prompt(view))
        assert texts[-1] == build_team_prompt(view) == prompts._team_prompt(list(view))
    assert texts[0] == texts[3] == golden
    assert len(set(texts)) == 3
    assert "Atk 250," in texts[1] and "Atk 250," not in golden


def test_a_list_pool_is_built_afresh_each_call(dex):
    pool = list(make_pool_view(dex))
    before = build_team_prompt(pool)
    pool.reverse()
    assert build_team_prompt(pool) == prompts._team_prompt(pool) != before


# ---------------------------------------------------------------------------
# the logged exchanges
# ---------------------------------------------------------------------------

class ReferenceAgent(LlmAgent):
    """LlmAgent whose loop merges each reply into new dicts, and whose decision
    goes through the frozen __init__."""

    def _decide(self, prompt, kind, parse, rule):
        exchanges, errors = [], []
        current = prompt
        for _ in range(1 + self.config.max_repair_attempts):
            try:
                reply = self._completer(current, kind)
            except GatewayError as err:
                errors.append(f"{type(err).__name__}: {err}")
                raise AgentFailure(f"provider call failed: {err}",
                                   exchanges=tuple(exchanges), errors=tuple(errors)) from err
            sent = {"prompt_suffix": current[len(prompt):]} if exchanges else {"prompt": prompt}
            reply = {**reply, "response_text": replace_surrogates(reply["response_text"])}
            try:
                value, reasoning = parse(reply["response_text"], rule)
            except ParseError as err:
                exchanges.append({**sent, **reply, "parse_outcome": err.kind})
                errors.append(str(err))
                current = repair_prompt(prompt, err)
                continue
            exchanges.append({**sent, **reply, "parse_outcome": "success"})
            return AgentDecision(**{kind: value}, reasoning=reasoning,
                                 exchanges=tuple(exchanges), errors=tuple(errors))
        raise AgentFailure(exchanges=tuple(exchanges), errors=tuple(errors))


def mock_config(max_repair_attempts=3):
    return ProviderConfig(provider="openai_compatible", endpoint="mock://x", model="m",
                          api_key_env="POKELEAGUE_TEST_KEY",
                          max_repair_attempts=max_repair_attempts)


class Replies:
    """A completer returning each listed reply dict in turn (a fresh copy each
    time), or raising it if it is an exception; then replies without JSON."""

    def __init__(self, replies):
        self.replies = list(replies)

    def __call__(self, prompt, kind):
        reply = self.replies.pop(0) if self.replies else text("garbage")
        if isinstance(reply, Exception):
            raise reply
        return dict(reply)


def text(response_text, **extra):
    return {"response_text": response_text, "latency_ms": 0.0, "attempt": 1, **extra}


GOOD = {"action": '{"action": {"type": "attack", "move_index": 0}, "reasoning": "hit"}',
        "team": '{"team": [0, 1, 2, 3, 4, 5], "reasoning": "six"}'}
BAD = {"action": '{"action": {"type": "switch", "team_index": 0}}', "team": '{"team": [1, 1]}'}

CASES = {
    "an extra key": [text("no json"), {"usage": {"tokens": 5}, **text("{ nope"), "tail": [1]},
                     text("{}", model="m")],
    "keys of the exchange itself": [{"parse_outcome": "x", "prompt": "p", **text("none")},
                                    {"attempt": 2, "prompt_suffix": "s", **text("{")}],
    "a lone surrogate": [text("bad \ud800 reply"), text('{"reasoning": "\\udc00"}')],
    "repairs that end in success": [text("no json"), text("{}"), "good"],
    "repairs that end in a failure": [text("no json"), "bad", text("{}"), "bad"],
    "a gateway error mid-loop": [text("no json"), "bad", RateLimited("rate limited (HTTP 429)")],
    "success at once": ["good"],
}


def replies_for(case, kind):
    return [text(GOOD[kind], extra=1) if reply == "good" else text(BAD[kind]) if reply == "bad"
            else reply for reply in CASES[case]]


def outcome(agent, kind, battle):
    try:
        if kind == "team":
            return agent.select_team(make_pool_view(agent.dex))
        return agent.choose_action(*battle)
    except AgentFailure as failure:
        return failure


@pytest.mark.parametrize("kind", ["action", "team"])
@pytest.mark.parametrize("case", list(CASES))
def test_decide_logs_the_reference_exchanges_key_for_key(dex, kind, case):
    state, _ = init_battle(dex, list(dex.pool[:6]), list(dex.pool[6:12]), seed=3)
    battle = (view_for(state, 0), legal_actions(state, 0))
    fast = outcome(LlmAgent("a", mock_config(), dex, completer=Replies(replies_for(case, kind))),
                   kind, battle)
    slow = outcome(ReferenceAgent("a", mock_config(), dex,
                                  completer=Replies(replies_for(case, kind))), kind, battle)
    assert type(fast) is type(slow)
    assert [list(e.items()) for e in fast.exchanges] == [list(e.items()) for e in slow.exchanges]
    assert fast.errors == slow.errors
    if isinstance(slow, AgentFailure):
        assert str(fast) == str(slow)
        assert type(fast.__cause__) is type(slow.__cause__)
    else:
        assert fast == slow
        assert list(vars(fast).items()) == list(vars(slow).items())
    assert all("\ud800" not in e["response_text"] and "\udc00" not in e["response_text"]
               for e in fast.exchanges)


# ---------------------------------------------------------------------------
# the fast-built decisions
# ---------------------------------------------------------------------------

def test_a_decided_decision_equals_a_constructed_one_and_is_frozen(dex):
    state, _ = init_battle(dex, list(dex.pool[:6]), list(dex.pool[6:12]), seed=3)
    view, legal = view_for(state, 0), legal_actions(state, 0)
    agent = LlmAgent("a", mock_config(), dex,
                     completer=Replies([text("no json"), text(GOOD["action"])]))
    decision = agent.choose_action(view, legal)
    assert decision == AgentDecision(action=Action.attack(0), reasoning="hit",
                                     exchanges=decision.exchanges, errors=decision.errors)
    assert decision.team is None and decision.fallback_used is False
    assert len(decision.exchanges) == 2 and len(decision.errors) == 1
    team = LlmAgent("b", mock_config(), dex, completer=Replies([text(GOOD["team"])])).select_team(
        make_pool_view(dex))
    assert team == AgentDecision(team=(0, 1, 2, 3, 4, 5), reasoning="six",
                                 exchanges=team.exchanges)
    for made in (decision, team):
        assert type(made) is AgentDecision
        with pytest.raises(FrozenInstanceError):
            made.reasoning = "changed"
        with pytest.raises(FrozenInstanceError):
            made.fallback_used = True


@pytest.mark.parametrize("fails_by", ["AgentFailure", "rule"])
@pytest.mark.parametrize("kind", ["action", "team"])
def test_ask_falls_back_as_replace_would(dex, tmp_path, fails_by, kind):
    state, _ = init_battle(dex, list(dex.pool[:6]), list(dex.pool[6:12]), seed=3)
    legal = legal_actions(state, 0)
    exchanges = ({"prompt": "p", "response_text": "r", "parse_outcome": "no_json_found"},)
    errors = ("no_json_found: no JSON object in response",)
    if kind == "action":
        def fallback():
            return AgentDecision(action=fallback_action(legal))
        broken = AgentDecision(action=Action.attack(9), exchanges=exchanges, errors=errors)

        def check(decision):
            prompts.check_action(decision.action, legal)
    else:
        def fallback():
            return AgentDecision(team=fallback_team())
        broken = AgentDecision(team=(0, 0, 1, 2, 3, 4), exchanges=exchanges, errors=errors)

        def check(decision):
            prompts.check_team(decision.team, len(dex.pool))

    def call():
        if fails_by == "rule":
            return broken
        raise AgentFailure(exchanges=exchanges, errors=errors)

    runner = MatchRunner(dex, LeagueConfig(), tmp_path)
    decision = runner._ask(call, check, fallback)
    if fails_by == "rule":
        with pytest.raises(ParseError) as breach:
            check(broken)
        errors = (*errors, str(breach.value))
    expected = replace(fallback(), exchanges=exchanges, errors=errors, fallback_used=True)
    assert decision == expected
    assert list(vars(decision).items()) == list(vars(expected).items())
    assert type(decision) is AgentDecision
    assert (decision.action is None) != (decision.team is None)
    with pytest.raises(FrozenInstanceError):
        decision.fallback_used = False


@given(st.sampled_from(["action", "team"]), st.lists(st.sampled_from(
    ["no json", "{}", "{", "good", "bad", "bad \ud800"]), min_size=1, max_size=5))
@settings(max_examples=60, deadline=None)
def test_decide_matches_the_reference_on_any_reply_sequence(dex, kind, script):
    state, _ = init_battle(dex, list(dex.pool[:6]), list(dex.pool[6:12]), seed=3)
    battle = (view_for(state, 0), legal_actions(state, 0))
    replies = [text(GOOD[kind] if r == "good" else BAD[kind] if r == "bad" else r)
               for r in script]
    fast = outcome(LlmAgent("a", mock_config(), dex, completer=Replies(replies)), kind, battle)
    slow = outcome(ReferenceAgent("a", mock_config(), dex, completer=Replies(replies)),
                   kind, battle)
    assert type(fast) is type(slow)
    assert [list(e.items()) for e in fast.exchanges] == [list(e.items()) for e in slow.exchanges]
    assert fast.errors == slow.errors
    if not isinstance(slow, AgentFailure):
        assert fast == slow

