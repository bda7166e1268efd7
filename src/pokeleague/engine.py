"""Deterministic turn-based battle state machine.

The engine is a pure function of (state, actions): every random draw
comes from the counter-mode stream whose seed and position live inside
BattleState, so identical inputs always produce identical successor
states and event lists.  Battlers are immutable values: a step copies
the team lists and replaces only the battlers it changes, so successive
states share every other battler.  resolve_turn and resolve_replacements
never mutate their input.

Each value the decision path asks for is computed once:
expected_damage is memoized per type chart on the values that decide it,
legality is checked by one predicate (is_legal) instead of a list, and
legal_actions hands out shared Action values.

Mechanics summary (level 50, no IVs/EVs):
  max_hp = base_hp + 60, other stats = base + 5
  base damage = floor(floor(22 * power * A / D) / 50) + 2
  then floored multipliers in order: STAB 1.5x, type effectiveness,
  weather (1.5x Water-in-Rain / Fire-in-Sun, 0.5x Fire-in-Rain /
  Water-in-Sun), crit 2x (1/16), random roll/100 with roll in 85..100.
  Burn and poison chip floor(max_hp/8) per turn; Sand chips
  floor(max_hp/16) from non-Rock/Ground/Steel.  Paralysis quarters
  speed and fully skips 25% of attempts; Sleep lasts 1-4 turns;
  Freeze thaws 20% per attempt.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from types import MappingProxyType
from typing import Mapping, Sequence

from .dex import TEAM_SIZE, Dex, MoveDef, Species, TypeChart, type_multiplier
from .rng import SeededStream

DEFAULT_TURN_LIMIT = 500
CRIT_DENOMINATOR = 16
MIN_DAMAGE_ROLL = 85
MAX_DAMAGE_ROLL = 100

END_ALL_FAINTED = "AllFainted"
END_TURN_CAP = "TurnCapTieBreak"

# Types immune to sandstorm chip damage.
SAND_IMMUNE_TYPES = frozenset({"Rock", "Ground", "Steel"})

_FRACTIONS = {0.0: (0, 1), 0.25: (1, 4), 0.5: (1, 2), 1.0: (1, 1), 2.0: (2, 1), 4.0: (4, 1)}


class BattleAlreadyEnded(Exception):
    pass


class IllegalActionError(Exception):
    """An action outside the legal set reached the engine: a harness bug."""

    def __init__(self, side: int, action: "Action", reason: str = ""):
        self.side = side
        self.action = action
        super().__init__(f"illegal action for side {side}: {action}" + (f" ({reason})" if reason else ""))


class NotADamagingMove(Exception):
    pass


@dataclass(frozen=True)
class Action:
    """Either Attack(move_index) or Switch(team_index)."""

    kind: str  # "attack" | "switch"
    index: int

    @staticmethod
    def attack(move_index: int) -> "Action":
        return Action("attack", move_index)

    @staticmethod
    def switch(team_index: int) -> "Action":
        return Action("switch", team_index)

    @property
    def is_attack(self) -> bool:
        return self.kind == "attack"

    def to_dict(self) -> dict:
        if self.kind == "attack":
            return {"type": "attack", "move_index": self.index}
        return {"type": "switch", "team_index": self.index}

    @staticmethod
    def from_dict(raw: dict) -> "Action":
        kind = raw.get("type") if isinstance(raw, dict) else None
        if kind == "attack":
            return Action.attack(int(raw["move_index"]))
        if kind == "switch":
            return Action.switch(int(raw["team_index"]))
        raise ValueError(f"not an action payload: {raw!r}")

    def __str__(self) -> str:
        return f"{self.kind}:{self.index}"


# Shared Action values for the usual four moves and six team slots.
_ATTACKS = tuple(map(Action.attack, range(4)))
_SWITCHES = tuple(map(Action.switch, range(TEAM_SIZE)))


@dataclass(frozen=True)
class StatusState:
    kind: str
    turns_left: int = 0  # only Sleep uses this

    def to_dict(self) -> dict:
        return {"kind": self.kind, "turns_left": self.turns_left}


@dataclass(frozen=True)
class BattlerState:
    species: str
    types: tuple[str, ...]
    max_hp: int
    current_hp: int
    stats: Mapping[str, int]  # atk / def / spa / spd / spe
    moves: tuple[str, str, str, str]
    status: StatusState | None = None
    level: int = 50

    @property
    def fainted(self) -> bool:
        return self.current_hp == 0

    @property
    def hp_percent(self) -> int:
        return 100 * self.current_hp // self.max_hp

    @property
    def status_kind(self) -> str | None:
        return None if self.status is None else self.status.kind

    def effective_speed(self) -> int:
        spe = self.stats["spe"]
        if self.status_kind == "Paralysis":
            return spe // 4
        return spe

    def to_dict(self) -> dict:
        return {
            "species": self.species,
            "types": list(self.types),
            "level": self.level,
            "max_hp": self.max_hp,
            "current_hp": self.current_hp,
            "stats": dict(self.stats),
            "moves": list(self.moves),
            "status": None if self.status is None else self.status.to_dict(),
        }


@dataclass
class SideState:
    team: list[BattlerState]
    active_index: int = 0
    revealed: set[int] = field(default_factory=set)

    @property
    def active(self) -> BattlerState:
        return self.team[self.active_index]

    def alive_count(self) -> int:
        return sum(1 for b in self.team if not b.fainted)

    def clone(self) -> "SideState":
        return SideState(
            team=list(self.team),
            active_index=self.active_index,
            revealed=set(self.revealed))

    def to_dict(self) -> dict:
        return {
            "team": [b.to_dict() for b in self.team],
            "active_index": self.active_index,
            "revealed": sorted(self.revealed),
        }


@dataclass
class BattleState:
    sides: list[SideState]
    weather: str | None = None
    weather_remaining: int | None = 0  # None = infinite while weather is set
    turn_number: int = 1
    turn_limit: int = DEFAULT_TURN_LIMIT
    rng_seed: int = 0
    rng_position: int = 0
    winner: int | None = None
    end_reason: str | None = None

    @property
    def ended(self) -> bool:
        return self.winner is not None

    def clone(self) -> "BattleState":
        return BattleState(
            sides=[s.clone() for s in self.sides],
            weather=self.weather, weather_remaining=self.weather_remaining,
            turn_number=self.turn_number, turn_limit=self.turn_limit,
            rng_seed=self.rng_seed, rng_position=self.rng_position,
            winner=self.winner, end_reason=self.end_reason)

    def to_dict(self) -> dict:
        return {
            "sides": [s.to_dict() for s in self.sides],
            "weather": {"kind": self.weather, "remaining": self.weather_remaining},
            "turn_number": self.turn_number,
            "turn_limit": self.turn_limit,
            "rng_seed": self.rng_seed,
            "rng_position": self.rng_position,
            "winner": self.winner,
            "end_reason": self.end_reason,
        }


@dataclass(frozen=True)
class DamageOutcome:
    damage: int
    effectiveness: float
    stab: bool


# ---------------------------------------------------------------------------
# battler construction
# ---------------------------------------------------------------------------

def compute_stats(species: Species) -> BattlerState:
    """Build a full-HP level-50 battler: hp = base + 60, others base + 5."""
    max_hp = species.base_stats["hp"] + 60
    stats = {k: species.base_stats[k] + 5 for k in ("atk", "def", "spa", "spd", "spe")}
    return BattlerState(
        species=species.name, types=species.types, max_hp=max_hp,
        current_hp=max_hp, stats=MappingProxyType(stats), moves=species.moves)


def init_battle(
    dex: Dex,
    team_a: Sequence[str],
    team_b: Sequence[str],
    seed: int,
    turn_limit: int = DEFAULT_TURN_LIMIT,
) -> tuple[BattleState, list[dict]]:
    """Start a battle: slot 0 of each team is sent out (side 0 first).

    Returns the initial state and the send-out events, including any
    auto-weather started by the leads.
    """
    if len(team_a) != TEAM_SIZE or len(team_b) != TEAM_SIZE:
        raise ValueError(f"each team must have exactly {TEAM_SIZE} species")
    sides = []
    for team in (team_a, team_b):
        battlers = [compute_stats(dex.species[name]) for name in team]
        sides.append(SideState(team=battlers, active_index=0, revealed={0}))
    state = BattleState(sides=sides, rng_seed=seed, turn_limit=turn_limit)
    events: list[dict] = []
    for side_id in (0, 1):
        _emit_switch_in(state, dex, side_id, 0, events)
    return state, events


# ---------------------------------------------------------------------------
# legal actions
# ---------------------------------------------------------------------------

def needs_replacement(state: BattleState, side: int) -> bool:
    """True when this side must send in a replacement before the next turn."""
    return not state.ended and state.sides[side].active.fainted


def legal_actions(state: BattleState, side: int) -> list[Action]:
    """All actions the side may submit, in canonical order.

    Attacks come first (by move index), then switches (by team index).
    During forced replacement only switches are legal.
    """
    if state.ended:
        raise BattleAlreadyEnded(f"battle is over (winner: side {state.winner})")
    side_state = state.sides[side]
    active = side_state.active_index
    switches = [_SWITCHES[i] if i < len(_SWITCHES) else Action.switch(i)
                for i, b in enumerate(side_state.team) if i != active and not b.fainted]
    if side_state.active.fainted:
        return switches
    moves = len(side_state.active.moves)
    if moves <= len(_ATTACKS):
        return [*_ATTACKS[:moves], *switches]
    return [*map(Action.attack, range(moves)), *switches]


def is_legal(state: BattleState, side: int, action: Action) -> bool:
    """action in legal_actions(state, side), without building the list."""
    if state.ended:
        raise BattleAlreadyEnded(f"battle is over (winner: side {state.winner})")
    side_state = state.sides[side]
    index = action.index
    # Range membership compares with ==, as the list's does (True == 1).
    if action.kind == "attack":
        return not side_state.active.fainted and index in range(len(side_state.active.moves))
    if action.kind == "switch":
        return (index in range(len(side_state.team)) and index != side_state.active_index
                and not side_state.team[int(index)].fainted)
    return False


# ---------------------------------------------------------------------------
# damage
# ---------------------------------------------------------------------------

def _weather_fraction(move_type: str, weather: str | None) -> tuple[int, int]:
    if weather == "Rain":
        if move_type == "Water":
            return (3, 2)
        if move_type == "Fire":
            return (1, 2)
    elif weather == "Sun":
        if move_type == "Fire":
            return (3, 2)
        if move_type == "Water":
            return (1, 2)
    return (1, 1)


def compute_damage(
    attacker: BattlerState,
    defender: BattlerState,
    move: MoveDef,
    chart: TypeChart,
    *,
    weather: str | None = None,
    crit: bool = False,
    roll: int = MAX_DAMAGE_ROLL,
) -> DamageOutcome:
    """Damage of one hit, with every modifier floored in a fixed order."""
    if not move.is_damaging:
        raise NotADamagingMove(move.name)
    if not MIN_DAMAGE_ROLL <= roll <= MAX_DAMAGE_ROLL:
        raise ValueError(f"roll must be in {MIN_DAMAGE_ROLL}..{MAX_DAMAGE_ROLL}, got {roll}")

    effectiveness = type_multiplier(chart, move.move_type, defender.types)
    stab = move.move_type in attacker.types
    if effectiveness == 0.0:
        return DamageOutcome(damage=0, effectiveness=0.0, stab=stab)

    if move.category == "Physical":
        attack, defense = attacker.stats["atk"], defender.stats["def"]
        if attacker.status_kind == "Burn":
            attack //= 2
    else:
        attack, defense = attacker.stats["spa"], defender.stats["spd"]

    damage = (22 * move.power * attack // defense) // 50 + 2
    if stab:
        damage = damage * 3 // 2
    num, den = _FRACTIONS[effectiveness]
    damage = damage * num // den
    num, den = _weather_fraction(move.move_type, weather)
    damage = damage * num // den
    if crit:
        damage *= 2
    damage = damage * roll // 100
    if damage == 0:
        damage = 1
    return DamageOutcome(damage=damage, effectiveness=effectiveness, stab=stab)


def expected_damage(
    attacker: BattlerState,
    defender: BattlerState,
    move: MoveDef,
    chart: TypeChart,
    weather: str | None,
) -> int:
    """The damage agents and metrics rank moves by: roll 100, no crit, 0 for status moves.

    Memoized in chart.damage_memo, keyed on exactly the values
    compute_damage reads for this move: its power, type and category, the
    attacker's types, attacking stat and burn, the defender's types and
    defending stat, and the weather.
    """
    if not move.is_damaging:
        return 0
    physical = move.category == "Physical"
    key = (move.power, move.move_type, move.category,
           attacker.types, attacker.stats["atk" if physical else "spa"],
           physical and attacker.status_kind == "Burn",
           defender.types, defender.stats["def" if physical else "spd"], weather)
    memo = chart.damage_memo
    damage = memo.get(key)
    if damage is None:
        damage = memo[key] = compute_damage(
            attacker, defender, move, chart, weather=weather).damage
    return damage


# ---------------------------------------------------------------------------
# turn resolution
# ---------------------------------------------------------------------------

def resolve_turn(
    state: BattleState,
    action_a: Action,
    action_b: Action,
    dex: Dex,
) -> tuple[BattleState, list[dict]]:
    """Resolve one full turn and return (successor state, ordered events).

    Order: switches (faster current active first), then attacks by
    priority then effective speed, then end-of-turn chip damage, weather
    countdown, and win/turn-cap checks.  Speed ties are broken by a coin
    flip from the battle's rng stream.  is_legal raises BattleAlreadyEnded
    on an ended battle; an action it rejects raises IllegalActionError.
    """
    actions = {0: action_a, 1: action_b}
    for side, action in actions.items():
        if not is_legal(state, side, action):
            raise IllegalActionError(side, action)

    nxt = state.clone()
    rng = SeededStream(nxt.rng_seed, nxt.rng_position)
    events: list[dict] = []

    # 1: switches, ordered by the outgoing active's speed
    switchers = [s for s in (0, 1) if actions[s].kind == "switch"]
    for side in _speed_order(switchers, rng, lambda side: nxt.sides[side].active.stats["spe"]):
        _emit_switch_in(nxt, dex, side, actions[side].index, events)

    # 2-3: attacks, ordered by priority then effective speed
    attackers = [s for s in (0, 1) if actions[s].kind == "attack"]
    for side in _attack_order(nxt, attackers, actions, dex, rng):
        _execute_attack(nxt, dex, side, actions[side].index, rng, events)

    # 4: end-of-turn chip damage and weather countdown
    _end_of_turn(nxt, rng, events)

    nxt.turn_number += 1
    _check_battle_end(nxt, rng, events)
    nxt.rng_position = rng.position
    return nxt, events


def resolve_replacements(
    state: BattleState,
    switches: dict[int, Action],
    dex: Dex,
) -> tuple[BattleState, list[dict]]:
    """Send in replacements for fainted actives between turns.

    Takes a mapping side -> Switch action for each side that must
    replace.  The turn number does not advance.
    """
    if state.ended:
        raise BattleAlreadyEnded(f"battle is over (winner: side {state.winner})")
    for side, action in switches.items():
        if not needs_replacement(state, side):
            raise IllegalActionError(side, action, "no replacement pending")
        if not is_legal(state, side, action):
            raise IllegalActionError(side, action)

    nxt = state.clone()
    rng = SeededStream(nxt.rng_seed, nxt.rng_position)
    events: list[dict] = []
    # Incoming battler's speed decides who enters first.
    for side in _speed_order(sorted(switches), rng,
                             lambda side: nxt.sides[side].team[switches[side].index].stats["spe"]):
        _emit_switch_in(nxt, dex, side, switches[side].index, events)
    nxt.rng_position = rng.position
    return nxt, events


def _speed_order(sides, rng, speed):
    """Order side ids by descending speed(side), coin-flipping exact ties."""
    if len(sides) < 2:
        return list(sides)
    a, b = sides
    sa, sb = speed(a), speed(b)
    if sa > sb:
        return [a, b]
    if sb > sa:
        return [b, a]
    return [a, b] if rng.coin() == 0 else [b, a]


def _attack_order(state, sides, actions, dex, rng):
    if len(sides) < 2:
        return list(sides)
    a, b = sides

    def prio(side: int) -> int:
        battler = state.sides[side].active
        return dex.moves[battler.moves[actions[side].index]].priority

    pa, pb = prio(a), prio(b)
    if pa != pb:
        return [a, b] if pa > pb else [b, a]
    return _speed_order(sides, rng, lambda side: state.sides[side].active.effective_speed())


def _emit_switch_in(state, dex, side, team_index, events):
    side_state = state.sides[side]
    side_state.active_index = team_index
    side_state.revealed.add(team_index)
    battler = side_state.team[team_index]
    events.append({"kind": "SwitchIn", "side": side, "species": battler.species,
                   "team_index": team_index})
    auto = dex.species[battler.species].auto_weather
    if auto is not None and state.weather != auto:
        if state.weather is not None:
            events.append({"kind": "WeatherEnded", "weather": state.weather})
        state.weather = auto
        state.weather_remaining = None  # lasts until replaced
        events.append({"kind": "WeatherStarted", "weather": auto})


def _replace_active(state, side, **changes) -> BattlerState:
    """Put a changed copy of the side's active battler in its slot and return it."""
    side_state = state.sides[side]
    battler = replace(side_state.active, **changes)
    side_state.team[side_state.active_index] = battler
    return battler


def _execute_attack(state, dex, side, move_index, rng, events):
    attacker = state.sides[side].active
    if attacker.fainted:  # fainted mid-turn: loses its action
        return
    defender_side = 1 - side
    defender = state.sides[defender_side].active
    move = dex.moves[attacker.moves[move_index]]

    # pre-move status gates
    status = attacker.status
    if status is not None:
        if status.kind == "Sleep":
            turns_left = status.turns_left - 1
            _replace_active(state, side,
                            status=StatusState("Sleep", turns_left) if turns_left > 0 else None)
            return
        if status.kind == "Freeze":
            if rng.percent_roll(20):
                attacker = _replace_active(state, side, status=None)
            else:
                return
        elif status.kind == "Paralysis":
            if rng.percent_roll(25):
                return

    events.append({"kind": "MoveUsed", "side": side, "species": attacker.species,
                   "move": move.name})

    if move.accuracy is not None and not rng.percent_roll(move.accuracy):
        events.append({"kind": "Missed", "side": side, "move": move.name})
        return

    effectiveness = type_multiplier(dex.chart, move.move_type, defender.types)

    if move.is_damaging:
        crit = rng.randint(1, CRIT_DENOMINATOR) == 1
        roll = rng.randint(MIN_DAMAGE_ROLL, MAX_DAMAGE_ROLL)
        outcome = compute_damage(
            attacker, defender, move, dex.chart,
            weather=state.weather, crit=crit, roll=roll)
        if outcome.effectiveness == 0.0:
            return
        dealt = min(outcome.damage, defender.current_hp)
        defender = _replace_active(state, defender_side, current_hp=defender.current_hp - dealt)
        events.append({
            "kind": "Damage", "side": defender_side,
            "team_index": state.sides[defender_side].active_index,
            "amount": dealt, "effectiveness": outcome.effectiveness,
            "crit": crit, "stab": outcome.stab,
        })
        if defender.fainted:
            events.append({"kind": "Fainted", "side": defender_side,
                           "team_index": state.sides[defender_side].active_index,
                           "species": defender.species})

    # secondary (or primary, for Status moves) effect
    if move.effect is not None and effectiveness > 0.0 and not defender.fainted:
        if defender.status is None and rng.percent_roll(move.effect.chance_percent):
            turns = rng.randint(1, 4) if move.effect.status == "Sleep" else 0
            _replace_active(state, defender_side, status=StatusState(move.effect.status, turns))
            event = {"kind": "StatusInflicted", "side": defender_side,
                     "team_index": state.sides[defender_side].active_index,
                     "status": move.effect.status}
            if move.effect.status == "Sleep":
                event["turns"] = turns
            events.append(event)


def _chip(state, side, battler, amount, event, events):
    dealt = min(amount, battler.current_hp)
    if dealt <= 0:
        return
    battler = _replace_active(state, side, current_hp=battler.current_hp - dealt)
    event["amount"] = dealt
    events.append(event)
    if battler.fainted:
        events.append({"kind": "Fainted", "side": side,
                       "team_index": state.sides[side].active_index,
                       "species": battler.species})


def _end_of_turn(state, rng, events):
    for side in (0, 1):
        battler = state.sides[side].active
        if battler.fainted or battler.status is None:
            continue
        if battler.status.kind in ("Burn", "Poison"):
            _chip(state, side, battler, battler.max_hp // 8,
                  {"kind": "StatusDamage", "side": side,
                   "team_index": state.sides[side].active_index,
                   "status": battler.status.kind}, events)
    if state.weather == "Sand":
        for side in (0, 1):
            battler = state.sides[side].active
            if battler.fainted or SAND_IMMUNE_TYPES.intersection(battler.types):
                continue
            _chip(state, side, battler, battler.max_hp // 16,
                  {"kind": "WeatherDamage", "side": side,
                   "team_index": state.sides[side].active_index,
                   "weather": "Sand"}, events)
    if state.weather is not None and state.weather_remaining is not None:
        state.weather_remaining -= 1
        if state.weather_remaining <= 0:
            events.append({"kind": "WeatherEnded", "weather": state.weather})
            state.weather = None
            state.weather_remaining = 0


def _check_battle_end(state, rng, events):
    wiped = [s for s in (0, 1) if state.sides[s].alive_count() == 0]
    if wiped:
        if len(wiped) == 2:
            # Both teams were wiped this turn: the side whose final faint
            # came later in event order held out longer and takes the win.
            last_faint = next(e for e in reversed(events) if e["kind"] == "Fainted")
            winner = last_faint["side"]
        else:
            winner = 1 - wiped[0]
        state.winner = winner
        state.end_reason = END_ALL_FAINTED
        events.append({"kind": "BattleEnded", "winner": winner})
        return
    if state.turn_number > state.turn_limit:
        # Sums of HP fractions, compared exactly over a common denominator:
        # float sums can round a tie apart (0.1 + 0.2 > 0.3).
        common = math.lcm(*(b.max_hp for side in state.sides for b in side.team))
        scores = [
            sum(b.current_hp * (common // b.max_hp) for b in state.sides[s].team) for s in (0, 1)
        ]
        if scores[0] > scores[1]:
            winner = 0
        elif scores[1] > scores[0]:
            winner = 1
        else:
            winner = rng.coin()
        state.winner = winner
        state.end_reason = END_TURN_CAP
        events.append({"kind": "BattleEnded", "winner": winner})


# ---------------------------------------------------------------------------
# views
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OpponentView:
    species: str
    types: tuple[str, ...]
    hp_percent: int
    status: str | None


@dataclass(frozen=True)
class BattleView:
    """What one side is allowed to see of the battle: its own battlers as they are."""

    side: int
    turn_number: int
    weather: str | None
    own_team: tuple[BattlerState, ...]
    own_active_index: int
    opponent_active: OpponentView
    opponent_revealed: tuple[str, ...]
    forced_replacement: bool

    @property
    def own_active(self) -> BattlerState:
        return self.own_team[self.own_active_index]


def view_for(state: BattleState, side: int) -> BattleView:
    """Own side fully visible; opponent reduced to active + revealed names."""
    own = state.sides[side]
    opp = state.sides[1 - side]
    opp_active = opp.active
    return BattleView(
        side=side,
        turn_number=state.turn_number,
        weather=state.weather,
        own_team=tuple(own.team),
        own_active_index=own.active_index,
        opponent_active=OpponentView(
            species=opp_active.species, types=opp_active.types,
            hp_percent=opp_active.hp_percent, status=opp_active.status_kind),
        opponent_revealed=tuple(opp.team[i].species for i in sorted(opp.revealed)),
        forced_replacement=own.active.fainted and not state.ended,
    )
