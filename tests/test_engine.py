"""Battle engine: stats, damage, turn resolution, views, invariants."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from pokeleague.dex import Species
from pokeleague.engine import (
    Action, BattleAlreadyEnded, BattlerState, IllegalActionError, NotADamagingMove,
    StatusState, compute_damage, compute_stats, init_battle, legal_actions,
    needs_replacement, resolve_replacements, resolve_turn, view_for,
)
from pokeleague.storage import canonical_json


TEAM_A = ["Jolteon", "Snorlax", "Swampert", "Gengar", "Metagross", "Salamence"]
TEAM_B = ["Gyarados", "Tyranitar", "Blissey", "Zapdos", "Heracross", "Lapras"]


def fresh_battle(dex, team_a=None, team_b=None, seed=1, turn_limit=500):
    return init_battle(dex, team_a or TEAM_A, team_b or TEAM_B, seed, turn_limit)


def make_battler(types=("Normal",), atk=100, defense=100, spa=100, spd=100, spe=100,
                 hp=100, moves=("Body Slam",) * 4, species="Testmon", status=None):
    battler = BattlerState(
        species=species, types=tuple(types), max_hp=hp, current_hp=hp,
        stats={"atk": atk, "def": defense, "spa": spa, "spd": spd, "spe": spe},
        moves=tuple(moves), status=status)
    return battler


# ---------------------------------------------------------------------------
# stats
# ---------------------------------------------------------------------------

def test_compute_stats_formula():
    species = Species(
        dex_id=1, name="Statmon", types=("Normal",),
        base_stats={"hp": 100, "atk": 1, "def": 50, "spa": 75, "spd": 99, "spe": 130},
        moves=("Body Slam",) * 4)
    battler = compute_stats(species)
    assert battler.max_hp == 160
    assert battler.current_hp == 160
    assert battler.stats["atk"] == 6
    assert battler.stats["def"] == 55
    assert battler.stats["spe"] == 135


def test_compute_stats_on_bundled_species(dex):
    blissey = compute_stats(dex.species["Blissey"])
    assert blissey.max_hp == 315
    assert blissey.stats["atk"] == 15


# ---------------------------------------------------------------------------
# damage
# ---------------------------------------------------------------------------

def test_damage_worked_example(dex):
    # floor(22*95*120/80)=3135 -> floor(3135/50)+2 = 64 -> STAB 96 -> 2x type 192
    attacker = make_battler(types=("Electric",), spa=120)
    defender = make_battler(types=("Water",), spd=80)
    outcome = compute_damage(attacker, defender, dex.moves["Thunderbolt"], dex.chart, roll=100)
    assert outcome.damage == 192
    assert outcome.effectiveness == 2.0
    assert outcome.stab is True


def test_damage_immunity_is_zero(dex):
    attacker = make_battler(types=("Electric",), spa=200)
    defender = make_battler(types=("Ground",), spd=10)
    outcome = compute_damage(attacker, defender, dex.moves["Thunderbolt"], dex.chart, roll=100)
    assert outcome.damage == 0
    assert outcome.effectiveness == 0.0


def test_minimum_damage_clamp(dex):
    # power-1 move does not exist in data; emulate with the weakest listed move
    attacker = make_battler(types=("Flying",), atk=1)
    defender = make_battler(types=("Normal",), defense=255)
    outcome = compute_damage(attacker, defender, dex.moves["Quick Attack"], dex.chart, roll=85)
    assert outcome.damage >= 1


def test_exact_minimum_clamp_with_fabricated_move(dex):
    from pokeleague.dex import MoveDef

    pea_shooter = MoveDef(name="Pea Shooter", move_type="Normal", category="Physical",
                          power=1, accuracy=100, priority=0)
    attacker = make_battler(types=("Fighting",), atk=1)
    defender = make_battler(types=("Normal",), defense=255)
    outcome = compute_damage(attacker, defender, pea_shooter, dex.chart, roll=85)
    assert outcome.damage == 1


def test_status_move_rejected(dex):
    attacker = make_battler()
    defender = make_battler()
    with pytest.raises(NotADamagingMove):
        compute_damage(attacker, defender, dex.moves["Thunder Wave"], dex.chart)


def test_burn_halves_physical_not_special(dex):
    defender = make_battler(types=("Normal",), defense=80, spd=80)
    healthy = make_battler(types=("Normal",), atk=120, spa=120)
    burned = make_battler(types=("Normal",), atk=120, spa=120, status=StatusState("Burn"))
    physical_healthy = compute_damage(healthy, defender, dex.moves["Body Slam"], dex.chart, roll=100)
    physical_burned = compute_damage(burned, defender, dex.moves["Body Slam"], dex.chart, roll=100)
    assert physical_burned.damage < physical_healthy.damage
    special_healthy = compute_damage(healthy, defender, dex.moves["Tri Attack"], dex.chart, roll=100)
    special_burned = compute_damage(burned, defender, dex.moves["Tri Attack"], dex.chart, roll=100)
    assert special_burned.damage == special_healthy.damage


@pytest.mark.parametrize("weather,move,relation", [
    ("Rain", "Surf", "boost"),
    ("Rain", "Flamethrower", "cut"),
    ("Sun", "Flamethrower", "boost"),
    ("Sun", "Surf", "cut"),
    ("Sand", "Surf", "same"),
    (None, "Surf", "same"),
])
def test_weather_modifiers(dex, weather, move, relation):
    attacker = make_battler(types=("Normal",), spa=120)
    defender = make_battler(types=("Normal",), spd=80)
    base = compute_damage(attacker, defender, dex.moves[move], dex.chart, roll=100).damage
    modified = compute_damage(attacker, defender, dex.moves[move], dex.chart,
                              weather=weather, roll=100).damage
    if relation == "boost":
        assert modified == base * 3 // 2
    elif relation == "cut":
        assert modified == base // 2
    else:
        assert modified == base


def test_crit_doubles(dex):
    attacker = make_battler(types=("Normal",), spa=120)
    defender = make_battler(types=("Normal",), spd=80)
    plain = compute_damage(attacker, defender, dex.moves["Tri Attack"], dex.chart, roll=100).damage
    crit = compute_damage(attacker, defender, dex.moves["Tri Attack"], dex.chart,
                          crit=True, roll=100).damage
    assert crit == plain * 2


@settings(max_examples=60)
@given(
    power_lo=st.integers(min_value=1, max_value=150),
    power_hi=st.integers(min_value=0, max_value=100),
    attack=st.integers(min_value=1, max_value=300),
    defense=st.integers(min_value=1, max_value=300),
    roll=st.integers(min_value=85, max_value=100),
)
def test_damage_monotonic_in_power(power_lo, power_hi, attack, defense, roll):
    from pokeleague.dex import MoveDef, load_dex, default_dex_path

    chart = load_dex(default_dex_path()).chart
    attacker = make_battler(types=("Fire",), spa=attack)
    defender = make_battler(types=("Grass",), spd=defense)

    def dmg(power):
        move = MoveDef(name="m", move_type="Fire", category="Special",
                       power=power, accuracy=100, priority=0)
        return compute_damage(attacker, defender, move, chart, roll=roll).damage

    assert dmg(power_lo + power_hi) >= dmg(power_lo)


@settings(max_examples=60)
@given(
    attack=st.integers(min_value=1, max_value=300),
    bump=st.integers(min_value=0, max_value=200),
    defense=st.integers(min_value=1, max_value=300),
    roll=st.integers(min_value=85, max_value=100),
)
def test_damage_monotonic_in_attack_and_antitonic_in_defense(dex, attack, bump, defense, roll):
    defender = make_battler(types=("Grass",), spd=defense)
    move = dex.moves["Flamethrower"]

    low = compute_damage(make_battler(types=("Fire",), spa=attack), defender, move,
                         dex.chart, roll=roll).damage
    high = compute_damage(make_battler(types=("Fire",), spa=attack + bump), defender, move,
                          dex.chart, roll=roll).damage
    assert high >= low

    attacker = make_battler(types=("Fire",), spa=attack)
    soft = compute_damage(attacker, make_battler(types=("Grass",), spd=defense), move,
                          dex.chart, roll=roll).damage
    hard = compute_damage(attacker, make_battler(types=("Grass",), spd=defense + bump), move,
                          dex.chart, roll=roll).damage
    assert hard <= soft


# ---------------------------------------------------------------------------
# legal actions
# ---------------------------------------------------------------------------

def test_fresh_battle_has_nine_actions(dex):
    state, _ = fresh_battle(dex)
    actions = legal_actions(state, 0)
    assert len(actions) == 9
    assert sum(1 for a in actions if a.is_attack) == 4
    assert actions[0] == Action.attack(0)
    assert actions[4] == Action.switch(1)


def test_forced_replacement_offers_only_switches(dex):
    state, _ = fresh_battle(dex)
    side = state.sides[1]
    side.active.current_hp = 0
    for i in (3, 4, 5):
        side.team[i].current_hp = 0
    actions = legal_actions(state, 1)
    assert actions == [Action.switch(1), Action.switch(2)]
    assert needs_replacement(state, 1)


def test_last_battler_standing_has_only_attacks(dex):
    state, _ = fresh_battle(dex)
    side = state.sides[0]
    for i in range(1, 6):
        side.team[i].current_hp = 0
    actions = legal_actions(state, 0)
    assert actions == [Action.attack(i) for i in range(4)]


def test_legal_actions_after_end_raises(dex):
    state, _ = fresh_battle(dex)
    state.winner = 0
    with pytest.raises(BattleAlreadyEnded):
        legal_actions(state, 0)


# ---------------------------------------------------------------------------
# turn resolution
# ---------------------------------------------------------------------------

def test_double_switch_turn(dex):
    state, _ = fresh_battle(dex)
    nxt, events = resolve_turn(state, Action.switch(1), Action.switch(2), dex)
    kinds = [e["kind"] for e in events]
    assert kinds.count("SwitchIn") == 2
    assert "Damage" not in kinds
    assert nxt.turn_number == state.turn_number + 1
    assert nxt.sides[0].active_index == 1
    assert nxt.sides[1].active_index == 2
    assert state.sides[0].active_index == 0  # input state untouched


def test_switch_order_follows_speed(dex):
    # Jolteon (spe 135) out-speeds Gyarados (spe 86): side 0 switches first
    state, _ = fresh_battle(dex)
    _, events = resolve_turn(state, Action.switch(1), Action.switch(1), dex)
    switch_sides = [e["side"] for e in events if e["kind"] == "SwitchIn"]
    assert switch_sides == [0, 1]


def test_priority_beats_speed(dex):
    # Arcanine (spe 100) Extreme Speed (+1) acts before Jolteon (spe 135) Thunderbolt
    state, _ = fresh_battle(
        dex,
        team_a=["Arcanine", "Snorlax", "Swampert", "Gengar", "Metagross", "Salamence"],
        team_b=["Jolteon", "Tyranitar", "Blissey", "Zapdos", "Heracross", "Lapras"])
    extreme_speed = dex.species["Arcanine"].moves.index("Extreme Speed")
    _, events = resolve_turn(state, Action.attack(extreme_speed), Action.attack(0), dex)
    moves_used = [e for e in events if e["kind"] == "MoveUsed"]
    assert moves_used[0]["species"] == "Arcanine"
    assert moves_used[0]["move"] == "Extreme Speed"


def test_faster_attacker_moves_first_without_priority(dex):
    state, _ = fresh_battle(dex)  # Jolteon 135 vs Gyarados 86
    _, events = resolve_turn(state, Action.attack(0), Action.attack(0), dex)
    moves_used = [e for e in events if e["kind"] == "MoveUsed"]
    assert moves_used[0]["species"] == "Jolteon"


def test_fainted_battler_does_not_act(dex):
    # Thunderbolt one-shots Gyarados (4x weak): only one MoveUsed in the turn
    state, _ = fresh_battle(dex)
    nxt, events = resolve_turn(state, Action.attack(0), Action.attack(0), dex)
    moves_used = [e for e in events if e["kind"] == "MoveUsed"]
    assert len(moves_used) == 1
    assert any(e["kind"] == "Fainted" and e["side"] == 1 for e in events)
    assert needs_replacement(nxt, 1)


def test_resolve_turn_is_deterministic(dex):
    state, _ = fresh_battle(dex, seed=99)
    runs = []
    for _ in range(2):
        nxt, events = resolve_turn(state, Action.attack(1), Action.attack(0), dex)
        runs.append((canonical_json(nxt.to_dict()), canonical_json(events)))
    assert runs[0] == runs[1]


def test_illegal_action_raises(dex):
    state, _ = fresh_battle(dex)
    with pytest.raises(IllegalActionError):
        resolve_turn(state, Action.switch(0), Action.attack(0), dex)  # active slot
    state.sides[0].team[1].current_hp = 0
    with pytest.raises(IllegalActionError):
        resolve_turn(state, Action.switch(1), Action.attack(0), dex)  # fainted slot


def test_auto_weather_on_lead_and_replacement(dex):
    state, events = fresh_battle(
        dex,
        team_a=["Kyogre", "Snorlax", "Swampert", "Gengar", "Metagross", "Salamence"],
        team_b=["Jolteon", "Groudon", "Blissey", "Zapdos", "Heracross", "Lapras"])
    assert state.weather == "Rain"
    assert state.weather_remaining is None
    assert [e["kind"] for e in events] == ["SwitchIn", "WeatherStarted", "SwitchIn"]

    # Groudon replaces the rain with sun on switch-in
    nxt, events = resolve_turn(state, Action.attack(0), Action.switch(1), dex)
    assert nxt.weather == "Sun"
    kinds = [e["kind"] for e in events]
    assert kinds.index("WeatherEnded") < kinds.index("WeatherStarted")


def test_burn_and_poison_chip_at_end_of_turn(dex):
    state, _ = fresh_battle(dex)
    state.sides[0].active.status = StatusState("Burn")
    state.sides[1].active.status = StatusState("Poison")
    nxt, events = resolve_turn(state, Action.switch(1), Action.switch(1), dex)
    chips = [e for e in events if e["kind"] == "StatusDamage"]
    # switched-in actives are unstatused; chip applies to the new actives only
    assert chips == []

    state2, _ = fresh_battle(dex)
    state2.sides[0].active.status = StatusState("Burn")
    nxt2, events2 = resolve_turn(
        state2, Action.attack(2), Action.attack(3), dex)  # low-lethality moves
    chips2 = [e for e in events2 if e["kind"] == "StatusDamage"]
    assert len(chips2) == 1
    jolteon = state2.sides[0].active
    assert chips2[0]["amount"] == jolteon.max_hp // 8
    assert chips2[0]["side"] == 0


def test_sand_chips_only_non_immune(dex):
    # Tyranitar lead sets Sand; Rock/Ground/Steel types take no chip
    state, _ = fresh_battle(
        dex,
        team_a=["Tyranitar", "Snorlax", "Swampert", "Gengar", "Metagross", "Salamence"],
        team_b=["Jolteon", "Gyarados", "Blissey", "Zapdos", "Heracross", "Lapras"])
    assert state.weather == "Sand"
    nxt, events = resolve_turn(state, Action.switch(1), Action.switch(2), dex)
    weather_damage = [e for e in events if e["kind"] == "WeatherDamage"]
    # Snorlax (Normal) and Blissey (Normal) both chip for max_hp // 16
    assert {e["side"] for e in weather_damage} == {0, 1}
    snorlax = nxt.sides[0].team[1]
    assert weather_damage[0]["amount"] == snorlax.max_hp // 16

    # Steel active takes no sand chip
    nxt2, events2 = resolve_turn(state, Action.switch(4), Action.switch(3), dex)
    sides_chipped = {e["side"] for e in events2 if e["kind"] == "WeatherDamage"}
    assert 0 not in sides_chipped  # Metagross immune


def test_finite_weather_counts_down_and_ends(dex):
    state, _ = fresh_battle(dex)
    state.weather = "Rain"
    state.weather_remaining = 2
    mid, events1 = resolve_turn(state, Action.switch(1), Action.switch(2), dex)
    assert mid.weather == "Rain"
    assert mid.weather_remaining == 1
    end, events2 = resolve_turn(mid, Action.switch(0), Action.switch(0), dex)
    assert end.weather is None
    assert end.weather_remaining == 0
    assert any(e["kind"] == "WeatherEnded" for e in events2)


def test_sleep_decrements_and_wakes(dex):
    state, _ = fresh_battle(dex)
    state.sides[0].active.status = StatusState("Sleep", turns_left=2)
    one, ev1 = resolve_turn(state, Action.attack(0), Action.switch(1), dex)
    assert not any(e["kind"] == "MoveUsed" and e["side"] == 0 for e in ev1)
    assert one.sides[0].active.status.turns_left == 1
    two, ev2 = resolve_turn(one, Action.attack(0), Action.switch(0), dex)
    assert not any(e["kind"] == "MoveUsed" and e["side"] == 0 for e in ev2)
    assert two.sides[0].active.status is None  # woke up after the skip
    three, ev3 = resolve_turn(two, Action.attack(0), Action.switch(1), dex)
    assert any(e["kind"] == "MoveUsed" and e["side"] == 0 for e in ev3)


def test_paralysis_skip_rate_and_speed_quartering(dex):
    jolteon = compute_stats(dex.species["Jolteon"])
    assert jolteon.effective_speed() == 135
    jolteon.status = StatusState("Paralysis")
    assert jolteon.effective_speed() == 135 // 4

    skips = 0
    trials = 300
    for seed in range(trials):
        state, _ = fresh_battle(dex, seed=seed)
        state.sides[0].active.status = StatusState("Paralysis")
        _, events = resolve_turn(state, Action.attack(3), Action.switch(1), dex)
        if not any(e["kind"] == "MoveUsed" and e["side"] == 0 for e in events):
            skips += 1
    assert 0.15 <= skips / trials <= 0.35  # 25% full-skip, loose statistical bound


def test_freeze_thaw_rate(dex):
    thaws = 0
    trials = 300
    for seed in range(trials):
        state, _ = fresh_battle(dex, seed=seed)
        state.sides[0].active.status = StatusState("Freeze")
        _, events = resolve_turn(state, Action.attack(3), Action.switch(1), dex)
        if any(e["kind"] == "MoveUsed" and e["side"] == 0 for e in events):
            thaws += 1
    assert 0.10 <= thaws / trials <= 0.30  # 20% thaw chance


def test_immunity_blocks_secondary_status(dex):
    # Thunder Wave (Electric, Paralysis) cannot touch a Ground-type
    state, _ = fresh_battle(
        dex,
        team_a=["Jolteon", "Snorlax", "Swampert", "Gengar", "Metagross", "Salamence"],
        team_b=["Swampert", "Tyranitar", "Blissey", "Zapdos", "Heracross", "Lapras"])
    wave = dex.species["Jolteon"].moves.index("Thunder Wave")
    for seed in range(10):
        state.rng_seed = seed
        # Jolteon out-speeds, so the wave resolves against Swampert itself
        nxt, events = resolve_turn(state, Action.attack(wave), Action.attack(0), dex)
        assert nxt.sides[1].team[0].status is None
        assert not any(e["kind"] == "StatusInflicted" and e["side"] == 1 for e in events)


def test_forced_replacement_flow(dex):
    state, _ = fresh_battle(dex)
    nxt, _ = resolve_turn(state, Action.attack(0), Action.attack(0), dex)  # Gyarados faints
    assert needs_replacement(nxt, 1)
    assert not needs_replacement(nxt, 0)
    replaced, events = resolve_replacements(nxt, {1: Action.switch(1)}, dex)
    assert replaced.sides[1].active_index == 1
    assert replaced.turn_number == nxt.turn_number  # replacements burn no turn
    assert [e["kind"] for e in events][0] == "SwitchIn"
    with pytest.raises(IllegalActionError):
        resolve_replacements(nxt, {0: Action.switch(1)}, dex)


def test_simultaneous_wipe_later_faint_wins(dex):
    state, _ = fresh_battle(
        dex,
        team_a=["Blissey", "Snorlax", "Swampert", "Gengar", "Metagross", "Salamence"],
        team_b=["Blissey", "Tyranitar", "Gyarados", "Zapdos", "Heracross", "Lapras"])
    for side in (0, 1):
        for i in range(1, 6):
            state.sides[side].team[i].current_hp = 0
        state.sides[side].active.current_hp = 1
        state.sides[side].active.status = StatusState("Burn")
    wave = dex.species["Blissey"].moves.index("Thunder Wave")
    nxt, events = resolve_turn(state, Action.attack(wave), Action.attack(wave), dex)
    assert nxt.ended
    faints = [e for e in events if e["kind"] == "Fainted"]
    assert [f["side"] for f in faints] == [0, 1]
    assert nxt.winner == 1  # side 1's last battler dropped later
    assert nxt.end_reason == "AllFainted"


def test_turn_cap_tiebreak(dex):
    state, _ = fresh_battle(
        dex,
        team_a=["Blissey", "Snorlax", "Swampert", "Gengar", "Metagross", "Salamence"],
        team_b=["Blissey", "Tyranitar", "Gyarados", "Zapdos", "Heracross", "Lapras"],
        turn_limit=3)
    state.sides[1].team[5].current_hp -= 50  # side 0 keeps the higher HP fraction
    current = state
    wave = dex.species["Blissey"].moves.index("Thunder Wave")
    for _ in range(3):
        assert not current.ended
        current, events = resolve_turn(current, Action.attack(wave), Action.attack(wave), dex)
    assert current.ended
    assert current.end_reason == "TurnCapTieBreak"
    assert current.winner == 0
    assert any(e["kind"] == "BattleEnded" for e in events)


def test_turn_cap_tiebreak_compares_exact_fractions(dex):
    """1/10 + 2/10 against 3/10 is a tie, though 0.1 + 0.2 > 0.3 in floats."""
    def capped_turn(hp_a, hp_b, seed):
        state, _ = fresh_battle(dex, team_a=["Blissey"] + TEAM_A[1:],
                                team_b=["Blissey"] + TEAM_B[1:], seed=seed, turn_limit=1)
        for side, hps in ((0, hp_a), (1, hp_b)):
            for battler, hp in zip(state.sides[side].team, hps):
                battler.max_hp, battler.current_hp = 100, hp
        wave = dex.species["Blissey"].moves.index("Thunder Wave")
        nxt, _ = resolve_turn(state, Action.attack(wave), Action.attack(wave), dex)
        assert nxt.end_reason == "TurnCapTieBreak"
        return nxt.winner

    seed = next(s for s in range(50) if capped_turn([30] + [0] * 5, [30] + [0] * 5, s) == 1)
    assert capped_turn([10, 20] + [0] * 4, [30] + [0] * 5, seed) == 1


def test_resolve_turn_after_end_raises(dex):
    state, _ = fresh_battle(dex)
    state.winner = 1
    with pytest.raises(BattleAlreadyEnded):
        resolve_turn(state, Action.attack(0), Action.attack(0), dex)


# ---------------------------------------------------------------------------
# randomized battle invariants
# ---------------------------------------------------------------------------

def run_random_battle(dex, seed, max_steps=600):
    """Play random legal actions to the end, checking invariants each step.

    Returns (final state, all events including init)."""
    picker = random.Random(seed)
    state, events = init_battle(dex, TEAM_A, TEAM_B, seed, turn_limit=120)
    all_events = list(events)
    for _ in range(max_steps):
        if state.ended:
            break
        pending = [s for s in (0, 1) if needs_replacement(state, s)]
        if pending:
            switches = {s: picker.choice(legal_actions(state, s)) for s in pending}
            state, events = resolve_replacements(state, switches, dex)
        else:
            choices = {}
            for side in (0, 1):
                legal = legal_actions(state, side)
                assert legal, "legal actions must be non-empty before termination"
                choices[side] = picker.choice(legal)
            state, events = resolve_turn(state, choices[0], choices[1], dex)
        all_events.extend(events)
        for side_state in state.sides:
            for battler in side_state.team:
                assert 0 <= battler.current_hp <= battler.max_hp
    return state, all_events


@pytest.mark.parametrize("seed", range(8))
def test_random_battles_terminate_and_clamp(dex, seed):
    state, _ = run_random_battle(dex, seed)
    assert state.ended
    assert state.winner in (0, 1)


@pytest.mark.parametrize("seed", range(6))
def test_damage_events_conserve_hp_loss(dex, seed):
    state, events = run_random_battle(dex, seed)
    totals = {(s, i): 0 for s in (0, 1) for i in range(6)}
    for event in events:
        if event["kind"] in ("Damage", "StatusDamage", "WeatherDamage"):
            totals[(event["side"], event["team_index"])] += event["amount"]
    for side in (0, 1):
        for i, battler in enumerate(state.sides[side].team):
            assert totals[(side, i)] == battler.max_hp - battler.current_hp


# ---------------------------------------------------------------------------
# views
# ---------------------------------------------------------------------------

def test_view_hp_percent_floor(dex):
    state, _ = fresh_battle(dex)
    opponent = state.sides[1].active
    opponent.max_hp = 160
    opponent.current_hp = 72
    view = view_for(state, 0)
    assert view.opponent_active.hp_percent == 45  # floor(100 * 72 / 160)


def test_view_reveals_only_active_on_turn_one(dex):
    state, _ = fresh_battle(dex)
    view = view_for(state, 0)
    assert view.opponent_revealed == ("Gyarados",)
    assert view.turn_number == 1


def test_view_own_side_fully_visible(dex):
    state, _ = fresh_battle(dex)
    view = view_for(state, 0)
    assert len(view.own_team) == 6
    assert view.own_active.moves == dex.species["Jolteon"].moves
    assert all(m.current_hp == m.max_hp for m in view.own_team)


def test_view_tracks_revealed_switches(dex):
    state, _ = fresh_battle(dex)
    nxt, _ = resolve_turn(state, Action.attack(2), Action.switch(3), dex)
    view = view_for(nxt, 0)
    assert set(view.opponent_revealed) == {"Gyarados", "Zapdos"}
    assert view.opponent_active.species == "Zapdos"


def test_view_flags_forced_replacement(dex):
    state, _ = fresh_battle(dex)
    nxt, _ = resolve_turn(state, Action.attack(0), Action.attack(0), dex)
    assert view_for(nxt, 1).forced_replacement
    assert not view_for(nxt, 0).forced_replacement


def test_opponent_status_visible_without_sleep_turns(dex):
    state, _ = fresh_battle(dex)
    state.sides[1].active.status = StatusState("Sleep", turns_left=3)
    view = view_for(state, 0)
    assert view.opponent_active.status == "Sleep"
    own_view = view_for(state, 1)
    assert own_view.own_active.sleep_turns_left == 3
