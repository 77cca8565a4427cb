"""Concrete-delay simulation: replayable runs, observation, estimation."""

import pytest

from hpng.montecarlo import stream
from hpng.props import parse_property
import hpng.simulate
from hpng.semantics import EventKind, ResourceLimitError
from hpng.simulate import estimate_probability, simulate_run


def test_reservoir_break_at_three(reservoir_model):
    # Fill for three units, drain for two more until demand stops, then sit.
    res = simulate_run(reservoir_model, 10.0,
                       assignment={("pump_break", 0): 3.0}, keep_trace=True)
    assert res.levels["tank"] == pytest.approx(1.0)
    assert res.marking == {"pump_ok": 0, "demand_on": 0}
    assert [(e.time, e.kind, e.target) for e in res.trace] == [
        (3.0, EventKind.GENERAL, "pump_break"),
        (5.0, EventKind.DETERMINISTIC, "demand_stop"),
    ]
    assert res.fired == [("pump_break", 0, 3.0, 3.0)]


def test_reservoir_early_break_hits_bottom(reservoir_model):
    res = simulate_run(reservoir_model, 10.0,
                       assignment={("pump_break", 0): 1.0}, keep_trace=True)
    assert [(e.time, e.kind, e.target) for e in res.trace] == [
        (1.0, EventKind.GENERAL, "pump_break"),
        (2.0, EventKind.BOUNDARY, "tank"),
        (5.0, EventKind.DETERMINISTIC, "demand_stop"),
    ]
    assert res.levels["tank"] == pytest.approx(0.0)


def test_reservoir_no_break_fills_up(reservoir_model):
    res = simulate_run(reservoir_model, 10.0,
                       assignment={("pump_break", 0): 42.0}, keep_trace=True)
    assert [(e.time, e.kind, e.target) for e in res.trace] == [
        (5.0, EventKind.DETERMINISTIC, "demand_stop"),
        (7.5, EventKind.BOUNDARY, "tank"),
    ]
    assert res.levels["tank"] == pytest.approx(10.0)
    assert res.fired == []


def test_trace_off_by_default(reservoir_model):
    res = simulate_run(reservoir_model, 10.0,
                       assignment={("pump_break", 0): 3.0})
    assert res.trace == []


def test_observation_interpolates_levels(reservoir_model):
    res = simulate_run(reservoir_model, 10.0,
                       assignment={("pump_break", 0): 3.0}, observe_at=4.0)
    assert res.observed_levels["tank"] == pytest.approx(2.0)
    assert res.observed_marking == {"pump_ok": 0, "demand_on": 1}


def test_observation_at_zero_and_at_end(reservoir_model):
    start = simulate_run(reservoir_model, 10.0,
                         assignment={("pump_break", 0): 3.0}, observe_at=0.0)
    assert start.observed_levels["tank"] == pytest.approx(0.0)
    assert start.observed_marking == {"pump_ok": 1, "demand_on": 1}
    end = simulate_run(reservoir_model, 10.0,
                       assignment={("pump_break", 0): 3.0}, observe_at=10.0)
    assert end.observed_levels["tank"] == pytest.approx(1.0)


def test_battery_outage_depletes_and_penalizes(battery_model):
    # Grid drops at two; the battery carries the standard demand for
    # 1000/700 time units, then unserved demand accumulates as penalty.
    assignment = {("grid_fail", 0): 2.0, ("to_low", 0): 100.0,
                  ("to_high", 0): 100.0}
    res = simulate_run(battery_model, 8.0, assignment=assignment,
                       keep_trace=True)
    empty_at = 2.0 + 1000.0 / 700.0
    assert res.levels["battery"] == pytest.approx(0.0)
    assert res.levels["penalty"] == pytest.approx(700.0 * (8.0 - empty_at))
    assert res.marking["grid_on"] == 0
    assert res.marking["battery_empty"] == 1
    # Both fluid guards flip when the level pins at zero: the crossing that
    # wins the step is followed by a zero-delay reconcile of the other.
    kinds = [e.kind for e in res.trace]
    assert kinds == [EventKind.GENERAL, EventKind.GUARD_ARC,
                     EventKind.GUARD_ARC, EventKind.IMMEDIATE]
    assert res.trace[1].time == pytest.approx(empty_at)
    assert sum(1 for e in res.trace if e.kind is EventKind.IMMEDIATE) == 1


def test_battery_repair_restores_charging(battery_model):
    # Fail at one, demand drops to low at three, repair completes at nine:
    # the battery drains, sits empty, and recharges from the surplus of two
    # hundred once the grid is back.
    assignment = {("grid_fail", 0): 1.0, ("to_low", 0): 3.0,
                  ("to_high", 0): 100.0, ("grid_fail", 1): 100.0}
    res = simulate_run(battery_model, 12.0, assignment=assignment,
                       keep_trace=True)
    assert res.marking["grid_on"] == 1
    assert res.marking["battery_ok"] == 1
    assert res.marking["demand_low"] == 1
    assert res.levels["battery"] == pytest.approx(200.0 * 3.0)
    # Unserved demand: the standard rate until the switch, the low rate
    # from then until the repair.
    empty_at = 1.0 + 1000.0 / 700.0
    assert res.levels["penalty"] == pytest.approx(
        700.0 * (3.0 - empty_at) + 500.0 * 6.0)
    immediates = [e for e in res.trace if e.kind is EventKind.IMMEDIATE]
    assert [e.target for e in immediates] == ["battery_deplete",
                                              "battery_restore"]
    assert immediates[1].time == pytest.approx(9.0)


def test_sampled_values_recorded(reservoir_model):
    res = simulate_run(reservoir_model, 10.0, rng=stream(5, 0))
    if res.fired:
        tid, idx, value, time = res.fired[0]
        assert tid == "pump_break"
        assert idx == 0
        assert value == pytest.approx(time)  # enabled from the start


def test_estimate_probability_reservoir(reservoir_model):
    atoms = parse_property("m(pump_ok) >= 1", reservoir_model)
    est = estimate_probability(reservoir_model, 10.0, 4.0, atoms,
                               seed=3, runs=2000)
    assert est.runs == 2000
    assert abs(est.p - 0.6) <= 4.0 * est.sigma


def test_estimate_is_deterministic_per_seed(reservoir_model):
    atoms = parse_property("x(tank) >= 4", reservoir_model)
    a = estimate_probability(reservoir_model, 10.0, 4.0, atoms, seed=7, runs=300)
    b = estimate_probability(reservoir_model, 10.0, 4.0, atoms, seed=7, runs=300)
    assert a == b
    c = estimate_probability(reservoir_model, 10.0, 4.0, atoms, seed=8, runs=300)
    assert a.p != c.p


def test_estimate_early_stop(reservoir_model):
    atoms = parse_property("m(pump_ok) >= 1", reservoir_model)
    est = estimate_probability(reservoir_model, 10.0, 4.0, atoms, seed=1,
                               runs=100_000, half_width=0.05)
    assert 100 <= est.runs < 100_000
    assert est.half_width <= 0.05 + 1e-12


def test_estimate_rejects_bad_time(reservoir_model):
    with pytest.raises(ValueError):
        estimate_probability(reservoir_model, 10.0, 11.0, [], runs=10)


def test_step_limit_is_a_resource_cap(reservoir_model, monkeypatch):
    monkeypatch.setattr(hpng.simulate, "MAX_STEPS", 1)
    with pytest.raises(ResourceLimitError):
        simulate_run(reservoir_model, 10.0, assignment={("pump_break", 0): 3.0})


def test_early_stop_never_reports_a_zero_half_width(reservoir_model):
    # The exact value is 0.005.  Seeds whose first hundred runs all miss
    # used to stop there on a Wald interval of 0 +/- 0.
    atoms = parse_property("m(pump_ok) = 0 & x(tank) >= 6.9", reservoir_model)
    for seed in range(10):
        est = estimate_probability(reservoir_model, 10.0, 6.0, atoms, seed=seed,
                                   runs=100_000, half_width=0.01)
        assert est.half_width > 0.0, seed
        assert abs(est.p - 0.005) <= est.half_width, (seed, est)
