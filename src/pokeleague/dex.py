"""Static game data: species, moves, and the 18x18 type effectiveness chart.

Everything here is loaded from a single JSON document and validated in
full (all problems are collected and reported together, not just the
first one).  A loaded Dex is immutable and safe to share across threads.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from importlib import resources
from pathlib import Path
from typing import Sequence

TYPE_NAMES: tuple[str, ...] = (
    "Normal", "Fire", "Water", "Electric", "Grass", "Ice",
    "Fighting", "Poison", "Ground", "Flying", "Psychic", "Bug",
    "Rock", "Ghost", "Dragon", "Dark", "Steel", "Fairy",
)

CATEGORIES = ("Physical", "Special", "Status")
STATUS_NAMES = ("Burn", "Poison", "Paralysis", "Sleep", "Freeze")
WEATHER_NAMES = ("Rain", "Sun", "Sand")
STAT_KEYS = ("hp", "atk", "def", "spa", "spd", "spe")
LEGAL_CELL_VALUES = (0.0, 0.5, 1.0, 2.0)
TEAM_SIZE = 6  # species per team; a draft pool must hold at least this many

MALFORMED_FILE = "malformed_file"
UNKNOWN_REFERENCE = "unknown_reference"
INVARIANT_VIOLATION = "invariant_violation"


@dataclass(frozen=True)
class DexIssue:
    """One validation problem, naming the entry it belongs to."""

    kind: str
    entry: str
    message: str

    def __str__(self) -> str:
        return f"[{self.kind}] {self.entry}: {self.message}"


class DexValidationError(Exception):
    """Raised by load_dex with the complete list of collected issues."""

    def __init__(self, issues: list[DexIssue]):
        self.issues = issues
        lines = "\n".join(str(i) for i in issues)
        super().__init__(f"{len(issues)} dex validation issue(s):\n{lines}")

    def kinds(self) -> set[str]:
        return {i.kind for i in self.issues}


@dataclass(frozen=True)
class TypeChart:
    """Total 18x18 matrix of single-type damage multipliers.

    damage_memo is engine.expected_damage's memo: its values follow from
    the cells, so it lives and dies with them, and match threads that
    fill one entry at once write equal values.
    """

    cells: dict[tuple[str, str], float]
    damage_memo: dict[tuple, int] = field(default_factory=dict, compare=False, repr=False)

    def cell(self, attacking: str, defending: str) -> float:
        return self.cells[(attacking, defending)]


@dataclass(frozen=True)
class MoveEffect:
    status: str
    chance: float

    @property
    def chance_percent(self) -> int:
        return round(self.chance * 100)


@dataclass(frozen=True)
class MoveDef:
    name: str
    move_type: str
    category: str
    power: int
    accuracy: int | None  # None means the move never misses
    priority: int
    effect: MoveEffect | None = None

    @property
    def is_damaging(self) -> bool:
        return self.power >= 1


@dataclass(frozen=True)
class Species:
    dex_id: int
    name: str
    types: tuple[str, ...]
    base_stats: dict[str, int]
    moves: tuple[str, str, str, str]
    auto_weather: str | None = None


@dataclass(frozen=True)
class Dex:
    """Loaded game data plus the ordered draft pool."""

    types: tuple[str, ...]
    chart: TypeChart
    moves: dict[str, MoveDef]
    species: dict[str, Species]
    pool: tuple[str, ...] = field(default_factory=tuple)

    def with_pool(self, pool: Sequence[str]) -> "Dex":
        """Return a copy drafting from a different ordered species list."""
        issues = [DexIssue(UNKNOWN_REFERENCE, f"pool[{pool.index(n)}]", f"unknown species {n!r}")
                  for n in pool if n not in self.species]
        _check_pool_size(pool, issues)
        if issues:
            raise DexValidationError(issues)
        return replace(self, pool=tuple(pool))


def type_multiplier(chart: TypeChart, attacking: str, defending: Sequence[str]) -> float:
    """Combined multiplier of an attacking type against 1-2 defending types.

    Dual-type defenders multiply their two per-type cells, so the result
    is always one of {0, 0.25, 0.5, 1, 2, 4}.
    """
    if not defending:
        raise ValueError("defending type list must be non-empty")
    result = 1.0
    for d in defending:
        result *= chart.cell(attacking, d)
    return result


def default_dex_path() -> Path:
    """Path of the bundled Gen I-III dex file."""
    return Path(str(resources.files("pokeleague").joinpath("data/gen3_dex.json")))


def load_dex(path: str | Path) -> Dex:
    """Load and fully validate a dex JSON file.

    Validation is total: every unknown reference and invariant violation
    in the file is collected and reported in a single DexValidationError.
    """
    raw = Path(path).read_text(encoding="utf-8")
    try:
        doc = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise DexValidationError([DexIssue(MALFORMED_FILE, str(path), f"invalid JSON: {exc}")])

    issues: list[DexIssue] = []
    if not isinstance(doc, dict):
        raise DexValidationError([DexIssue(MALFORMED_FILE, str(path), "top level must be an object")])
    for key in ("types", "chart", "moves", "species", "pool"):
        if key not in doc:
            issues.append(DexIssue(MALFORMED_FILE, str(path), f"missing top-level key {key!r}"))
    if issues:
        raise DexValidationError(issues)

    types = _parse_types(doc["types"], issues)
    chart = _parse_chart(doc["chart"], types, issues)
    moves = _parse_moves(doc["moves"], types, issues)
    species = _parse_species(doc["species"], types, moves, issues)
    pool = _parse_pool(doc["pool"], species, issues)

    if issues:
        raise DexValidationError(issues)
    return Dex(types=types, chart=chart, moves=moves, species=species, pool=pool)


def _parse_types(raw: object, issues: list[DexIssue]) -> tuple[str, ...]:
    if not isinstance(raw, list) or not all(isinstance(t, str) for t in raw):
        issues.append(DexIssue(MALFORMED_FILE, "types", "must be a list of names"))
        return TYPE_NAMES
    types = tuple(raw)
    if len(set(types)) != 18:
        issues.append(DexIssue(
            INVARIANT_VIOLATION, "types",
            f"expected exactly 18 distinct types, found {len(set(types))}"))
    unknown = [t for t in types if t not in TYPE_NAMES]
    if unknown:
        issues.append(DexIssue(UNKNOWN_REFERENCE, "types", f"non-canonical type names: {unknown}"))
    return types


def _parse_chart(raw: object, types: tuple[str, ...], issues: list[DexIssue]) -> TypeChart:
    cells: dict[tuple[str, str], float] = {}
    if not isinstance(raw, dict):
        issues.append(DexIssue(MALFORMED_FILE, "chart", "must be an object of objects"))
        return TypeChart(cells)
    for attacker, row in raw.items():
        if attacker not in types:
            issues.append(DexIssue(UNKNOWN_REFERENCE, f"chart[{attacker}]", "unknown attacking type"))
            continue
        if not isinstance(row, dict):
            issues.append(DexIssue(MALFORMED_FILE, f"chart[{attacker}]", "row must be an object"))
            continue
        for defender, value in row.items():
            if defender not in types:
                issues.append(DexIssue(
                    UNKNOWN_REFERENCE, f"chart[{attacker}][{defender}]", "unknown defending type"))
                continue
            if not isinstance(value, (int, float)) or float(value) not in LEGAL_CELL_VALUES:
                issues.append(DexIssue(
                    INVARIANT_VIOLATION, f"chart[{attacker}][{defender}]",
                    f"multiplier {value!r} not in {{0, 0.5, 1, 2}}"))
                continue
            cells[(attacker, defender)] = float(value)
    for attacker in types:
        for defender in types:
            if (attacker, defender) not in cells:
                issues.append(DexIssue(
                    INVARIANT_VIOLATION, f"chart[{attacker}][{defender}]",
                    "matrix not total: missing cell"))
    return TypeChart(cells)


def _parse_moves(raw: object, types: tuple[str, ...], issues: list[DexIssue]) -> dict[str, MoveDef]:
    moves: dict[str, MoveDef] = {}
    if not isinstance(raw, list):
        issues.append(DexIssue(MALFORMED_FILE, "moves", "must be a list"))
        return moves
    for i, entry in enumerate(raw):
        label = f"moves[{i}]"
        if not isinstance(entry, dict) or "name" not in entry:
            issues.append(DexIssue(MALFORMED_FILE, label, "move entry must be an object with a name"))
            continue
        name = entry["name"]
        label = f"move {name!r}"
        if name in moves:
            issues.append(DexIssue(INVARIANT_VIOLATION, label, "duplicate move name"))
            continue
        move_type = entry.get("type")
        if move_type not in types:
            issues.append(DexIssue(UNKNOWN_REFERENCE, label, f"unknown move type {move_type!r}"))
            continue
        category = entry.get("category")
        if category not in CATEGORIES:
            issues.append(DexIssue(INVARIANT_VIOLATION, label, f"bad category {category!r}"))
            continue
        power = entry.get("power")
        if not isinstance(power, int) or power < 0:
            issues.append(DexIssue(INVARIANT_VIOLATION, label, f"power must be an integer >= 0, got {power!r}"))
            continue
        if category == "Status" and power != 0:
            issues.append(DexIssue(INVARIANT_VIOLATION, label, "Status moves must have power 0"))
        if category != "Status" and power < 1:
            issues.append(DexIssue(INVARIANT_VIOLATION, label, "damaging moves must have power >= 1"))
        accuracy = entry.get("accuracy")
        if accuracy is not None and (not isinstance(accuracy, int) or not 1 <= accuracy <= 100):
            issues.append(DexIssue(
                INVARIANT_VIOLATION, label, f"accuracy must be 1-100 or null, got {accuracy!r}"))
            accuracy = 100
        priority = entry.get("priority", 0)
        if not isinstance(priority, int) or not -7 <= priority <= 7:
            issues.append(DexIssue(INVARIANT_VIOLATION, label, f"priority out of [-7, 7]: {priority!r}"))
            priority = 0
        effect = None
        raw_effect = entry.get("effect")
        if raw_effect is not None:
            status = raw_effect.get("status") if isinstance(raw_effect, dict) else None
            chance = raw_effect.get("chance") if isinstance(raw_effect, dict) else None
            if status not in STATUS_NAMES:
                issues.append(DexIssue(UNKNOWN_REFERENCE, label, f"unknown status {status!r}"))
            elif not isinstance(chance, (int, float)) or not 0 <= chance <= 1:
                issues.append(DexIssue(INVARIANT_VIOLATION, label, f"effect chance not in [0,1]: {chance!r}"))
            else:
                effect = MoveEffect(status=status, chance=float(chance))
        moves[name] = MoveDef(
            name=name, move_type=move_type, category=category, power=power,
            accuracy=accuracy, priority=priority, effect=effect)
    return moves


def _parse_species(
    raw: object,
    types: tuple[str, ...],
    moves: dict[str, MoveDef],
    issues: list[DexIssue],
) -> dict[str, Species]:
    species: dict[str, Species] = {}
    if not isinstance(raw, list):
        issues.append(DexIssue(MALFORMED_FILE, "species", "must be a list"))
        return species
    for i, entry in enumerate(raw):
        label = f"species[{i}]"
        if not isinstance(entry, dict) or "name" not in entry:
            issues.append(DexIssue(MALFORMED_FILE, label, "species entry must be an object with a name"))
            continue
        name = entry["name"]
        label = f"species {name!r}"
        if name in species:
            issues.append(DexIssue(INVARIANT_VIOLATION, label, "duplicate species name"))
            continue
        ok = True

        dex_id = entry.get("dex_id")
        if not isinstance(dex_id, int):
            issues.append(DexIssue(INVARIANT_VIOLATION, label, f"dex_id must be an integer, got {dex_id!r}"))
            ok = False

        raw_types = entry.get("types")
        if (not isinstance(raw_types, list) or not 1 <= len(raw_types) <= 2):
            issues.append(DexIssue(INVARIANT_VIOLATION, label, f"types must list 1 or 2 names, got {raw_types!r}"))
            ok = False
        else:
            if len(set(raw_types)) != len(raw_types):
                issues.append(DexIssue(INVARIANT_VIOLATION, label, "dual types must be distinct"))
                ok = False
            for t in raw_types:
                if t not in types:
                    issues.append(DexIssue(UNKNOWN_REFERENCE, label, f"unknown type {t!r}"))
                    ok = False

        stats = entry.get("base_stats")
        if not isinstance(stats, dict) or set(stats) != set(STAT_KEYS):
            issues.append(DexIssue(INVARIANT_VIOLATION, label, f"base_stats must have keys {STAT_KEYS}"))
            ok = False
        else:
            for k in STAT_KEYS:
                v = stats[k]
                if not isinstance(v, int) or not 1 <= v <= 255:
                    issues.append(DexIssue(INVARIANT_VIOLATION, label, f"base stat {k}={v!r} out of 1-255"))
                    ok = False

        move_names = entry.get("moves")
        if not isinstance(move_names, list) or len(move_names) != 4:
            issues.append(DexIssue(INVARIANT_VIOLATION, label, f"must list exactly 4 moves, got {move_names!r}"))
            ok = False
        else:
            for m in move_names:
                if m not in moves:
                    issues.append(DexIssue(UNKNOWN_REFERENCE, label, f"unknown move {m!r}"))
                    ok = False

        auto_weather = entry.get("auto_weather")
        if auto_weather is not None and auto_weather not in WEATHER_NAMES:
            issues.append(DexIssue(UNKNOWN_REFERENCE, label, f"unknown weather {auto_weather!r}"))
            ok = False

        if ok:
            species[name] = Species(
                dex_id=dex_id, name=name, types=tuple(raw_types),
                base_stats={k: stats[k] for k in STAT_KEYS},
                moves=tuple(move_names), auto_weather=auto_weather)
    return species


def _parse_pool(raw: object, species: dict[str, Species], issues: list[DexIssue]) -> tuple[str, ...]:
    if not isinstance(raw, list) or not all(isinstance(n, str) for n in raw):
        issues.append(DexIssue(MALFORMED_FILE, "pool", "must be a list of species names"))
        return ()
    for i, name in enumerate(raw):
        if name not in species:
            issues.append(DexIssue(UNKNOWN_REFERENCE, f"pool[{i}]", f"unknown species {name!r}"))
    if len(set(raw)) != len(raw):
        issues.append(DexIssue(INVARIANT_VIOLATION, "pool", "pool entries must be distinct"))
    _check_pool_size(raw, issues)
    return tuple(raw)


def _check_pool_size(pool: Sequence[str], issues: list[DexIssue]) -> None:
    if len(pool) < TEAM_SIZE:
        issues.append(DexIssue(INVARIANT_VIOLATION, "pool",
                               f"a pool of {len(pool)} species cannot field a team of {TEAM_SIZE}"))


def dex_fingerprint(path: str | Path) -> str:
    """Hex digest of the dex file bytes, recorded in logs for replay checks."""
    import hashlib

    return hashlib.sha256(Path(path).read_bytes()).hexdigest()[:16]


def open_dex(path: str | Path | None = None, pool: Sequence[str] | None = None) -> tuple[Dex, str]:
    """The dex at path (the bundled one if None), drafting from pool if given, and its fingerprint.

    A path that is not a file raises FileNotFoundError("dex file not found: <path>").
    """
    dex_path = Path(path) if path is not None else default_dex_path()
    if not dex_path.is_file():
        raise FileNotFoundError(f"dex file not found: {dex_path}")
    dex = load_dex(dex_path)
    if pool is not None:
        dex = dex.with_pool(pool)
    return dex, dex_fingerprint(dex_path)
