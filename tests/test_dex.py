"""Static data loading, validation, and the type chart."""

import copy
import itertools
import json
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from pokeleague.dex import (
    INVARIANT_VIOLATION, MALFORMED_FILE, TYPE_NAMES, UNKNOWN_REFERENCE,
    DexValidationError, default_dex_path, dex_fingerprint, load_dex, open_dex, type_multiplier,
)

from data.chart_oracle import ORACLE_TYPES, oracle_cell


def test_bundled_dex_loads(dex):
    assert len(dex.types) == 18
    assert len(dex.pool) >= 30
    assert set(dex.types) == set(TYPE_NAMES)


def test_bundled_pool_resolves_and_has_four_moves_each(dex):
    for name in dex.pool:
        species = dex.species[name]
        assert len(species.moves) == 4
        for move in species.moves:
            assert move in dex.moves


def test_load_is_deterministic():
    a = load_dex(default_dex_path())
    b = load_dex(default_dex_path())
    assert a == b


def test_full_chart_matches_independent_oracle(dex):
    assert set(ORACLE_TYPES) == set(dex.types)
    for attacking in ORACLE_TYPES:
        for defending in ORACLE_TYPES:
            assert dex.chart.cell(attacking, defending) == oracle_cell(attacking, defending), (
                f"{attacking} -> {defending}")


@pytest.mark.parametrize("attacking,defending,expected", [
    ("Electric", ["Water", "Flying"], 4.0),
    ("Normal", ["Ghost"], 0.0),
    ("Electric", ["Ground"], 0.0),
    ("Fire", ["Normal"], 1.0),
    ("Fighting", ["Rock", "Dark"], 4.0),
    ("Grass", ["Water", "Ground"], 4.0),
    ("Ice", ["Dragon", "Flying"], 4.0),
    ("Electric", ["Water", "Ground"], 0.0),
])
def test_type_multiplier_examples(dex, attacking, defending, expected):
    assert type_multiplier(dex.chart, attacking, defending) == expected


@given(
    attacking=st.sampled_from(TYPE_NAMES),
    d1=st.sampled_from(TYPE_NAMES),
    d2=st.sampled_from(TYPE_NAMES),
)
def test_dual_type_product_and_commutativity(attacking, d1, d2):
    dex = load_dex(default_dex_path())
    if d1 == d2:
        return
    forward = type_multiplier(dex.chart, attacking, [d1, d2])
    backward = type_multiplier(dex.chart, attacking, [d2, d1])
    assert forward == backward
    assert forward == dex.chart.cell(attacking, d1) * dex.chart.cell(attacking, d2)
    assert forward in {0.0, 0.25, 0.5, 1.0, 2.0, 4.0}
    if forward == 0.0:
        assert 0.0 in (dex.chart.cell(attacking, d1), dex.chart.cell(attacking, d2))


def test_multiplier_output_set_is_exactly_the_six_values(dex):
    seen = set()
    for attacking in dex.types:
        for d1, d2 in itertools.combinations(dex.types, 2):
            seen.add(type_multiplier(dex.chart, attacking, [d1, d2]))
        for d in dex.types:
            seen.add(type_multiplier(dex.chart, attacking, [d]))
    assert seen == {0.0, 0.25, 0.5, 1.0, 2.0, 4.0}


def test_empty_defender_list_rejected(dex):
    with pytest.raises(ValueError):
        type_multiplier(dex.chart, "Fire", [])


# -- validation failure modes ----------------------------------------------

def test_unknown_move_reference(dex_doc, write_dex):
    doc = copy.deepcopy(dex_doc)
    doc["species"][0]["moves"][0] = "Thunderbolttt"
    with pytest.raises(DexValidationError) as excinfo:
        load_dex(write_dex(doc))
    assert UNKNOWN_REFERENCE in excinfo.value.kinds()
    assert any("Thunderbolttt" in str(i) for i in excinfo.value.issues)


def test_missing_chart_cell_is_invariant_violation(dex_doc, write_dex):
    doc = copy.deepcopy(dex_doc)
    del doc["chart"]["Steel"]["Ghost"]
    with pytest.raises(DexValidationError) as excinfo:
        load_dex(write_dex(doc))
    assert INVARIANT_VIOLATION in excinfo.value.kinds()
    assert any("Steel" in i.entry and "Ghost" in i.entry for i in excinfo.value.issues)


def test_syntax_error_is_malformed_file(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(DexValidationError) as excinfo:
        load_dex(path)
    assert excinfo.value.kinds() == {MALFORMED_FILE}


@pytest.mark.parametrize("raw", [
    b'{\r\n  "types": [1,\r\n  ]\r\n}', b'{\r"types": x}', '{"types": 1}'.encode("utf-16"),
    b'\xef\xbb\xbf{}', b'{"name": "caf\xe9"}',
], ids=["crlf", "lone-cr", "utf-16", "utf-8-bom", "latin-1"])
def test_a_malformed_file_reports_the_error_of_its_utf_8_text(tmp_path, raw):
    """The text json sees is the file read as UTF-8 text, so each error says
    what json.loads says of read_text's result, position included."""
    path = tmp_path / "dex.json"
    path.write_bytes(raw)
    with pytest.raises(ValueError) as decoding:
        json.loads(path.read_text(encoding="utf-8"))
    with pytest.raises(DexValidationError) as excinfo:
        load_dex(path)
    assert [issue.message for issue in excinfo.value.issues] == [f"invalid JSON: {decoding.value}"]


def test_open_dex_reads_the_file_once(monkeypatch):
    """The fingerprint is of the very bytes the dex was parsed from."""
    opened = []
    real_open = Path.open

    def counting_open(self, *args, **kwargs):
        opened.append(self)
        return real_open(self, *args, **kwargs)

    monkeypatch.setattr(Path, "open", counting_open)
    dex, fingerprint = open_dex()
    assert opened == [default_dex_path()]
    assert fingerprint == dex_fingerprint(default_dex_path())
    assert dex == load_dex(default_dex_path())


def test_status_move_with_power_rejected(dex_doc, write_dex):
    doc = copy.deepcopy(dex_doc)
    for move in doc["moves"]:
        if move["category"] == "Status":
            move["power"] = 50
            break
    with pytest.raises(DexValidationError) as excinfo:
        load_dex(write_dex(doc))
    assert INVARIANT_VIOLATION in excinfo.value.kinds()


def test_errors_are_collected_not_first_failure(dex_doc, write_dex):
    doc = copy.deepcopy(dex_doc)
    doc["species"][0]["moves"][0] = "Nope"
    doc["species"][1]["base_stats"]["atk"] = 0
    del doc["chart"]["Fire"]["Water"]
    with pytest.raises(DexValidationError) as excinfo:
        load_dex(write_dex(doc))
    kinds = excinfo.value.kinds()
    assert UNKNOWN_REFERENCE in kinds
    assert INVARIANT_VIOLATION in kinds
    assert len(excinfo.value.issues) >= 3


def test_bad_cell_value_rejected(dex_doc, write_dex):
    doc = copy.deepcopy(dex_doc)
    doc["chart"]["Fire"]["Water"] = 1.3
    with pytest.raises(DexValidationError) as excinfo:
        load_dex(write_dex(doc))
    assert INVARIANT_VIOLATION in excinfo.value.kinds()


@pytest.mark.parametrize("holder, key, entry", [
    (lambda doc: doc["moves"][0], "power", "move 'Thunderbolt'"),
    (lambda doc: doc["moves"][0], "accuracy", "move 'Thunderbolt'"),
    (lambda doc: doc["moves"][0], "priority", "move 'Thunderbolt'"),
    (lambda doc: doc["moves"][0]["effect"], "chance", "move 'Thunderbolt'"),
    (lambda doc: doc["species"][0], "dex_id", "species 'Venusaur'"),
    (lambda doc: doc["species"][0]["base_stats"], "spe", "species 'Venusaur'"),
    (lambda doc: doc["chart"]["Fire"], "Water", "chart[Fire][Water]"),
], ids=["power", "accuracy", "priority", "chance", "dex-id", "base-stat", "chart-cell"])
def test_a_json_bool_is_not_a_number(dex_doc, write_dex, holder, key, entry):
    doc = copy.deepcopy(dex_doc)
    holder(doc)[key] = True
    with pytest.raises(DexValidationError) as excinfo:
        load_dex(write_dex(doc))
    first = excinfo.value.issues[0]
    assert (first.kind, first.entry) == (INVARIANT_VIOLATION, entry)
    assert "True" in first.message


@pytest.mark.parametrize("section", ["moves", "species"])
def test_an_entry_whose_name_is_not_a_string_is_malformed(dex_doc, write_dex, section):
    doc = copy.deepcopy(dex_doc)
    doc[section][0]["name"] = [doc[section][0]["name"]]
    with pytest.raises(DexValidationError) as excinfo:
        load_dex(write_dex(doc))
    assert (MALFORMED_FILE, f"{section}[0]") in [(i.kind, i.entry) for i in excinfo.value.issues]


def test_dual_types_must_be_distinct(dex_doc, write_dex):
    doc = copy.deepcopy(dex_doc)
    doc["species"][0]["types"] = ["Water", "Water"]
    with pytest.raises(DexValidationError) as excinfo:
        load_dex(write_dex(doc))
    assert INVARIANT_VIOLATION in excinfo.value.kinds()


def test_pool_entries_must_resolve(dex_doc, write_dex):
    doc = copy.deepcopy(dex_doc)
    doc["pool"].append("Missingno")
    with pytest.raises(DexValidationError) as excinfo:
        load_dex(write_dex(doc))
    assert UNKNOWN_REFERENCE in excinfo.value.kinds()


def test_with_pool_override(dex):
    smaller = dex.with_pool(list(dex.pool[:10]))
    assert len(smaller.pool) == 10
    with pytest.raises(DexValidationError):
        dex.with_pool(["NotASpecies"])
    for too_small in ([], list(dex.pool[:5])):
        with pytest.raises(DexValidationError) as excinfo:
            dex.with_pool(too_small)
        assert [(i.kind, i.entry) for i in excinfo.value.issues] == [(INVARIANT_VIOLATION, "pool")]
