"""Property grammar parsing and concrete evaluation."""

import pytest

from hpng.model import compare
from hpng.props import Atom, PropertyError, holds_concrete, parse_property


def test_parse_single_marking_atom(reservoir_model):
    atoms = parse_property("m(pump_ok) >= 1", reservoir_model)
    assert atoms == [Atom("m", "pump_ok", ">=", 1.0)]


def test_parse_conjunction(battery_model):
    atoms = parse_property("m(demand_std) = 1 & x(battery) > 0", battery_model)
    assert [a.kind for a in atoms] == ["m", "x"]
    assert atoms[1] == Atom("x", "battery", ">", 0.0)


def test_parse_tolerates_whitespace():
    atoms = parse_property("  x( tank )<=4.5  ")
    assert atoms == [Atom("x", "tank", "<=", 4.5)]


def test_parse_scientific_notation():
    assert parse_property("x(tank) < 1.5e2")[0].value == 150.0


@pytest.mark.parametrize("bad", [
    "tank >= 1",
    "m(pump_ok) >> 1",
    "m(pump_ok) >= one",
    "x(tank) >= 1 | x(tank) < 0",
    "",
])
def test_parse_rejects_malformed(bad):
    with pytest.raises(PropertyError):
        parse_property(bad)


def test_parse_rejects_fractional_token_count():
    with pytest.raises(PropertyError):
        parse_property("m(pump_ok) >= 0.5")


def test_parse_rejects_an_infinite_token_count(battery_model):
    # 1e400 reads as inf, which is no token count
    with pytest.raises(PropertyError, match="finite integer"):
        parse_property("m(grid_on) >= 1e400", battery_model)


@pytest.mark.parametrize("atom", ["x(battery) < 1e400", "x(battery) >= -1e999"])
def test_parse_rejects_an_infinite_level_threshold(battery_model, atom):
    # every number in a model file is finite, and so is every threshold
    with pytest.raises(PropertyError, match="must be finite"):
        parse_property(atom, battery_model)


def test_parse_rejects_unknown_place(reservoir_model):
    with pytest.raises(PropertyError):
        parse_property("m(nonexistent) >= 1", reservoir_model)
    with pytest.raises(PropertyError):
        parse_property("x(pump_ok) >= 1", reservoir_model)  # wrong sort


def test_parse_without_model_skips_place_check():
    assert parse_property("m(anything) = 0")[0].place == "anything"


@pytest.mark.parametrize("op,left,right,expect", [
    ("<", 1.0, 2.0, True),
    ("<", 2.0, 2.0, False),
    ("<=", 2.0, 2.0, True),
    ("=", 2.0, 2.0, True),
    ("=", 2.0, 2.1, False),
    (">=", 2.0, 2.0, True),
    (">", 2.0, 2.0, False),
    (">", 3.0, 2.0, True),
])
def test_compare_table(op, left, right, expect):
    assert compare(op, left, right) is expect


def test_compare_eps_softens_equality():
    assert compare("=", 1.0, 1.0 + 5e-10, eps=1e-9)
    assert compare(">=", 1.0 - 5e-10, 1.0, eps=1e-9)
    assert not compare(">", 1.0, 1.0, eps=1e-9)


def test_holds_concrete_conjunction(reservoir_model):
    atoms = parse_property("m(pump_ok) >= 1 & x(tank) < 4", reservoir_model)
    assert holds_concrete(reservoir_model, atoms, {"pump_ok": 1, "demand_on": 1},
                          {"tank": 3.0})
    assert not holds_concrete(reservoir_model, atoms, {"pump_ok": 0, "demand_on": 1},
                              {"tank": 3.0})
    assert not holds_concrete(reservoir_model, atoms, {"pump_ok": 1, "demand_on": 1},
                              {"tank": 4.0})


def test_holds_concrete_fluid_eps(reservoir_model):
    atoms = parse_property("x(tank) = 2", reservoir_model)
    assert holds_concrete(reservoir_model, atoms, {}, {"tank": 2.0 + 1e-12})
