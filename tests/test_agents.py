"""Scripted baselines: determinism, argmax properties, fallbacks."""

import json

import pytest
from hypothesis import example, given, settings, strategies as st

from pokeleague.agents import (
    GreedyAgent, RandomAgent, AgentDecision, fallback_action,
    fallback_team, make_pool_view,
)
from pokeleague.engine import (
    Action, compute_damage, compute_stats, init_battle, legal_actions,
    resolve_turn, view_for,
)
from pokeleague.rng import SeededStream, stable_hash64

from conftest import ANY_WALK, FULL_GAME, decision_variants, set_battler, walk_states


def greedy_team_oracle(pool):
    """Independent re-implementation: sort by (-total, position), scan distinct primaries."""
    ranked = sorted(enumerate(pool), key=lambda item: (-sum(item[1].base_stats.values()), item[0]))
    picks, seen = [], set()
    for position, entry in ranked:
        if entry.types[0] not in seen:
            picks.append(position)
            seen.add(entry.types[0])
        if len(picks) == 6:
            break
    return tuple(picks)


def test_greedy_team_matches_oracle(dex):
    pool = make_pool_view(dex)
    decision = GreedyAgent("g", dex).select_team(pool)
    assert decision.team == greedy_team_oracle(pool)
    assert decision.reasoning


def test_the_pool_is_the_dex_species_read_only(dex):
    pool = make_pool_view(dex)
    assert all(entry is dex.species[name] for entry, name in zip(pool, dex.pool, strict=True))
    before = {name: dict(sp.base_stats) for name, sp in dex.species.items()}
    with pytest.raises(TypeError):
        pool[0].base_stats["hp"] = 1
    assert {name: dict(sp.base_stats) for name, sp in dex.species.items()} == before


def test_greedy_team_primaries_distinct(dex):
    pool = make_pool_view(dex)
    team = GreedyAgent("g", dex).select_team(pool).team
    primaries = [pool[i].types[0] for i in team]
    assert len(set(primaries)) == 6


def test_pool_of_exactly_six_is_forced(dex):
    # Six species with distinct primary types force the pick set (order may
    # differ by stat total, but membership is the whole pool).
    small = dex.with_pool(["Jolteon", "Snorlax", "Swampert", "Gengar", "Heracross", "Salamence"])
    pool = make_pool_view(small)
    team = GreedyAgent("g", small).select_team(pool).team
    assert sorted(team) == [0, 1, 2, 3, 4, 5]

    random_team = RandomAgent("r", 3).select_team(pool).team
    assert sorted(random_team) == [0, 1, 2, 3, 4, 5]


def test_random_team_is_deterministic_per_seed(dex):
    pool = make_pool_view(dex)
    first = RandomAgent("r", 7).select_team(pool).team
    second = RandomAgent("r", 7).select_team(pool).team
    assert first == second
    assert len(set(first)) == 6
    other_seed = RandomAgent("r", 8).select_team(pool).team
    assert other_seed != first  # overwhelmingly likely; frozen by determinism


def greedy_action_oracle(dex, view, legal):
    """Exhaustively evaluate the <=9 legal actions the way the spec defines."""
    attacker = view.own_active
    defender = compute_stats(dex.species[view.opponent_active.species])

    def expected(action):
        move = dex.moves[attacker.moves[action.index]]
        if not move.is_damaging:
            return 0
        return compute_damage(attacker, defender, move, dex.chart,
                              weather=view.weather, crit=False, roll=100).damage

    attacks = [a for a in legal if a.is_attack]
    if attacks:
        best = max(expected(a) for a in attacks)
        if best > 0:
            return next(a for a in attacks if expected(a) == best)
    switches = [a for a in legal if not a.is_attack]
    if switches:
        from pokeleague.dex import type_multiplier

        def best_mult(action):
            member = view.own_team[action.index]
            mults = [type_multiplier(dex.chart, dex.moves[m].move_type,
                                     view.opponent_active.types)
                     for m in member.moves if dex.moves[m].is_damaging]
            return max(mults, default=0.0)

        return max(switches, key=lambda a: (best_mult(a), -a.index))
    return legal[0]


def battle_states_for_probing(dex, seeds=range(12)):
    """A spread of mid-battle states produced by greedy-vs-random play."""
    greedy = GreedyAgent("g", dex)
    random_agent = RandomAgent("r", 5)
    pool = make_pool_view(dex)
    team_g = [dex.pool[i] for i in greedy.select_team(pool).team]
    for seed in seeds:
        team_r = [dex.pool[i] for i in RandomAgent("r", seed).select_team(pool).team]
        state, _ = init_battle(dex, team_g, team_r, seed)
        for _ in range(6):
            if state.ended:
                break
            from pokeleague.engine import needs_replacement, resolve_replacements

            pending = [s for s in (0, 1) if needs_replacement(state, s)]
            if pending:
                switches = {}
                for side in pending:
                    agent = greedy if side == 0 else random_agent
                    switches[side] = agent.choose_action(
                        view_for(state, side), legal_actions(state, side)).action
                state, _ = resolve_replacements(state, switches, dex)
                continue
            yield state
            a = greedy.choose_action(view_for(state, 0), legal_actions(state, 0)).action
            b = random_agent.choose_action(view_for(state, 1), legal_actions(state, 1)).action
            state, _ = resolve_turn(state, a, b, dex)


def test_greedy_action_matches_exhaustive_oracle(dex):
    greedy = GreedyAgent("g", dex)
    probed = 0
    for state in battle_states_for_probing(dex):
        view = view_for(state, 0)
        legal = legal_actions(state, 0)
        choice = greedy.choose_action(view, legal).action
        assert choice == greedy_action_oracle(dex, view, legal)
        probed += 1
    assert probed > 30


@settings(max_examples=20, deadline=None)
@given(**ANY_WALK)
@example(**FULL_GAME)
def test_memoized_greedy_decides_as_a_fresh_agent(dex, order, seed, turn_limit, choices):
    """One warm GreedyAgent decides every decision variant of every state of a
    walk as a fresh agent does, with the same action and reasoning."""
    warm = GreedyAgent("g", dex)
    for state in walk_states(dex, order, seed, turn_limit, choices):
        if state.ended:
            continue
        for side in (0, 1):
            for variant, legal in decision_variants(state, side):
                view = view_for(variant, side)
                assert warm.choose_action(view, legal) == GreedyAgent("g", dex).choose_action(
                    view, legal)


def test_greedy_prefers_stab_super_effective(dex):
    # Electric attacker vs Water/Flying: the STAB Electric move wins
    state, _ = init_battle(
        dex,
        ["Jolteon", "Snorlax", "Swampert", "Gengar", "Metagross", "Salamence"],
        ["Gyarados", "Tyranitar", "Blissey", "Zapdos", "Heracross", "Lapras"],
        seed=1)
    greedy = GreedyAgent("g", dex)
    choice = greedy.choose_action(view_for(state, 0), legal_actions(state, 0))
    chosen_move = dex.moves[dex.species["Jolteon"].moves[choice.action.index]]
    assert chosen_move.move_type == "Electric"
    assert chosen_move.name == "Thunder"  # 120 power beats Thunderbolt at roll 100


def test_greedy_switches_when_all_immune(dex):
    # Jolteon's damaging moves are Electric/Normal: Swampert blanks the
    # Electric ones, and we empty Normal by... Swampert isn't immune to Normal.
    # Use Gengar (Ghost) vs a mono-Normal attacker instead.
    state, _ = init_battle(
        dex,
        ["Snorlax", "Jolteon", "Swampert", "Gengar", "Metagross", "Salamence"],
        ["Gengar", "Tyranitar", "Blissey", "Zapdos", "Heracross", "Lapras"],
        seed=1)
    # Snorlax: Body Slam (Normal) blanked by Ghost, but Earthquake/Crunch/Ice Beam hit.
    # Force the all-immune case by restricting the moveset on the battler.
    set_battler(state, 0, 0, moves=("Body Slam", "Body Slam", "Body Slam", "Body Slam"))
    greedy = GreedyAgent("g", dex)
    choice = greedy.choose_action(view_for(state, 0), legal_actions(state, 0))
    assert not choice.action.is_attack
    # Best multiplier teammate vs Ghost/Poison: Gengar's Shadow Ball (2x) and
    # Psychic users (2x vs Poison) tie at 2.0; lower index wins among ties.
    view = view_for(state, 0)
    from pokeleague.dex import type_multiplier

    def best_mult(idx):
        member = view.own_team[idx]
        return max(type_multiplier(dex.chart, dex.moves[m].move_type, ("Ghost", "Poison"))
                   for m in member.moves if dex.moves[m].is_damaging)

    candidates = [a.index for a in legal_actions(state, 0) if not a.is_attack]
    best = max(best_mult(i) for i in candidates)
    expected = min(i for i in candidates if best_mult(i) == best)
    assert choice.action.index == expected


def test_random_forced_replacement_singleton(dex):
    state, _ = init_battle(
        dex,
        ["Jolteon", "Snorlax", "Swampert", "Gengar", "Metagross", "Salamence"],
        ["Gyarados", "Tyranitar", "Blissey", "Zapdos", "Heracross", "Lapras"],
        seed=1)
    set_battler(state, 1, current_hp=0)
    for i in (2, 3, 4, 5):
        set_battler(state, 1, i, current_hp=0)
    legal = legal_actions(state, 1)
    assert legal == [Action.switch(1)]
    decision = RandomAgent("r", 99).choose_action(view_for(state, 1), legal)
    assert decision.action == Action.switch(1)


def reference_random_choice(agent_id, seed, view, legal):
    """RandomAgent's battle choice by its definition: a SeededStream seeded with
    stable_hash64 of the id, the seed, "action" and the decision key as
    json.dumps writes it."""
    key = json.dumps([view.turn_number, view.side, [a.to_dict() for a in legal],
                      [(b.species, b.current_hp) for b in view.own_team],
                      view.opponent_active.species, view.opponent_active.hp_percent],
                     sort_keys=True)
    rng = SeededStream(stable_hash64(agent_id, seed, "action", key))
    return legal[rng.choice_index(len(legal))]


class Decisions:
    """A list of (view, legal) that hypothesis prints briefly in a failure report."""

    def __init__(self, items):
        self.items = items

    def __repr__(self):
        return f"<{len(self.items)} decisions>"


@pytest.fixture(scope="module")
def full_game_decisions(dex):
    """(view, legal) of every decision variant of both sides in FULL_GAME, with
    each legal list also as freshly built equal Actions."""
    decisions = []
    for state in walk_states(dex, **FULL_GAME):
        if state.ended:
            continue
        for side in (0, 1):
            for variant, legal in decision_variants(state, side):
                view = view_for(variant, side)
                decisions += [(view, legal), (view, [Action(a.kind, a.index) for a in legal])]
    return Decisions(decisions)


@settings(max_examples=100, deadline=None)
@example(agent_id="a\x1fb", seed=-1, pick=0)
@example(agent_id='"quoted"\x1faction\x1f', seed=2**64, pick=1)
@example(agent_id="名前 é \U0001f600", seed=-(2**70), pick=2)
@example(agent_id="", seed=2**200 + 1, pick=3)
@given(agent_id=st.text() | st.sampled_from(["\x1f", '"', "\\", "\x1f7\x1faction"]),
       seed=st.integers() | st.sampled_from([-1, 2**63, 2**64, 2**64 + 1, -(2**64) - 1]),
       pick=st.integers(min_value=0, max_value=49))
def test_random_choice_is_the_reference_draw_for_any_id_and_seed(full_game_decisions, agent_id,
                                                                 seed, pick):
    """For ids holding the separator, quotes or non-ASCII text and seeds below 0 or
    above 2**64, every choice equals the reference formula's, and is the legal
    list's own object."""
    agent = RandomAgent(agent_id, seed)
    for view, legal in full_game_decisions.items[pick::50]:
        action = agent.choose_action(view, legal).action
        assert action == reference_random_choice(agent_id, seed, view, legal)
        assert any(action is candidate for candidate in legal)


def test_agents_pure_functions_of_inputs(dex):
    state, _ = init_battle(
        dex,
        ["Jolteon", "Snorlax", "Swampert", "Gengar", "Metagross", "Salamence"],
        ["Gyarados", "Tyranitar", "Blissey", "Zapdos", "Heracross", "Lapras"],
        seed=1)
    view = view_for(state, 0)
    legal = legal_actions(state, 0)
    for agent in (RandomAgent("r", 7), GreedyAgent("g", dex)):
        first = agent.choose_action(view, legal).action
        second = agent.choose_action(view, legal).action
        assert first == second


def test_all_agent_actions_are_legal(dex):
    random_agent = RandomAgent("r", 11)
    greedy = GreedyAgent("g", dex)
    for state in battle_states_for_probing(dex, seeds=range(6)):
        for side, agent in ((0, greedy), (1, random_agent)):
            legal = legal_actions(state, side)
            action = agent.choose_action(view_for(state, side), legal).action
            assert action in legal


def test_fallbacks(dex):
    assert fallback_team() == (0, 1, 2, 3, 4, 5)
    legal = [Action.attack(2), Action.switch(1)]
    assert fallback_action(legal) == Action.attack(2)
    with pytest.raises(ValueError):
        fallback_action([])


def test_team_pick_validation():
    with pytest.raises(ValueError):
        AgentDecision()  # neither action nor team
