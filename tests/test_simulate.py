"""Concrete-delay simulation: replayable runs, observation, estimation."""

import hashlib

import pytest

from hpng.montecarlo import stream
from hpng.props import parse_property
import hpng.simulate
from hpng.semantics import (EventKind, ResourceLimitError, SymState, compile_net, enabling,
                            next_events, pinned)
from hpng.simulate import estimate_probability, simulate_run
from hpng.symbolic import EPS, ZERO, const


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


class _NoDraw:
    """A generator that samples like ``inner`` but fails on a weighted draw."""

    def __init__(self, inner):
        self._inner = inner

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def choice(self, *args, **kwargs):
        raise AssertionError("a tie was resolved by a random draw")


def test_tied_guard_crossings_apply_in_arc_order_without_a_draw(battery_model):
    # battery <= 0 (arc 5) and battery > 0 (arc 6) both flip at the instant
    # the battery empties.  As in the tree, the first crossing wins the
    # tie and the second follows at zero delay; no random draw is made.
    assignment = {("grid_fail", 0): 2.0, ("to_low", 0): 100.0,
                  ("to_high", 0): 100.0}
    res = simulate_run(battery_model, 8.0, assignment=assignment,
                       rng=_NoDraw(stream(0, 0)), keep_trace=True)
    crossings = [(e.time, e.target, e.truth) for e in res.trace
                 if e.kind is EventKind.GUARD_ARC]
    assert [(target, truth) for _, target, truth in crossings] == [
        ("g5", True), ("g6", False)]
    assert crossings[0][0] == crossings[1][0] == pytest.approx(2.0 + 1000.0 / 700.0)


def _tree_events(run):
    """``next_events`` at the run's state, on constant forms, keyed like the simulator's."""
    model = run.net.model
    state = SymState(
        m=tuple(run.m), x=tuple(map(const, run.x)),
        c=tuple(map(const, run.clocks)) + (ZERO,) * len(model.immediate),
        d=run.drift, g=tuple(map(const, run.g)), e=run.enab, gs=tuple(run.gs))
    out = {}
    for ev in next_events(state, [], run.net):
        if ev.kind is not EventKind.GENERAL:
            target = f"g{ev.arc_index}" if ev.kind is EventKind.GUARD_ARC else ev.target
            assert ev.delta.is_constant()
            out[ev.kind, target] = (ev.new_truth, ev.delta.const)
    return out


@pytest.mark.parametrize("name, tau", [("battery", 20.0), ("reservoir", 10.0)])
def test_tree_and_simulator_list_the_same_events(monkeypatch, battery_model,
                                                 reservoir_model, name, tau):
    # Both apply the event rules of semantics, each to its own numbers: at
    # every state a run visits, next_events on constant forms lists the
    # simulator's candidates (general firings aside, whose delay the tree
    # keeps symbolic).
    model = {"battery": battery_model, "reservoir": reservoir_model}[name]
    candidate_events = hpng.simulate._candidate_events
    steps = 0

    def checked(run, values, rng):
        nonlocal steps
        out = candidate_events(run, values, rng)
        sim = {(kind, target): (truth, delay)
               for delay, kind, target, _, _, truth in out
               if kind is not EventKind.GENERAL and delay >= -EPS}
        tree = _tree_events(run)
        assert tree.keys() == sim.keys()
        for key, (truth, delay) in sim.items():
            assert tree[key][0] == truth, key
            assert tree[key][1] == pytest.approx(delay, abs=1e-9), key
        steps += 1
        return out

    monkeypatch.setattr(hpng.simulate, "_candidate_events", checked)
    for n in range(50):
        simulate_run(model, tau, rng=stream(0, n))
    assert steps > 100


def test_firing_without_its_input_tokens_raises_as_in_the_tree(reservoir_model):
    # semantics.fire refuses to fire demand_stop with demand_on empty; the
    # simulator's firing moves tokens by the same rule, so it refuses too
    # instead of leaving a marking of -1.
    net = compile_net(reservoir_model)
    run = hpng.simulate._Run(net=net, time=0.0, m=[0, 0], x=[0.0], clocks=[0.0],
                             g=[0.0], counts=[0], gs=[False, False])
    run.enab = enabling(net, run.m, run.gs)
    hpng.simulate._enter(run, pinned(net, run.x))
    demand_stop = (0.0, EventKind.DETERMINISTIC, "demand_stop", 0, 1.0, None)
    with pytest.raises(RuntimeError, match="disabled transition demand_stop"):
        hpng.simulate._apply(run, demand_stop, {}, [])


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


@pytest.mark.parametrize("runs", [0, -5])
def test_estimate_rejects_fewer_than_one_run(reservoir_model, runs):
    # with no run, hits / n would divide by zero
    with pytest.raises(ValueError, match="runs"):
        estimate_probability(reservoir_model, 10.0, 4.0, [], runs=runs)


@pytest.mark.parametrize("half_width", [-1.0, 0.0, float("nan")])
def test_estimate_rejects_a_half_width_not_positive(reservoir_model, half_width):
    # no Wilson half width is <= 0 or nan, so these used to spend every run
    with pytest.raises(ValueError, match="half width"):
        estimate_probability(reservoir_model, 10.0, 4.0, [], runs=200,
                             half_width=half_width)


@pytest.mark.parametrize("tau", [-2.0, float("inf"), float("nan")])
def test_estimate_rejects_a_horizon_not_finite_and_non_negative(reservoir_model, tau):
    with pytest.raises(ValueError, match="horizon"):
        estimate_probability(reservoir_model, tau, 0.0, [], runs=10)


@pytest.mark.parametrize("tau", [-2.0, float("inf"), float("nan")])
def test_run_rejects_a_horizon_not_finite_and_non_negative(reservoir_model, tau):
    # a negative horizon used to end the run at 0, and nan at the first
    # event past it
    with pytest.raises(ValueError, match="horizon"):
        simulate_run(reservoir_model, tau)


@pytest.mark.parametrize("at", [-1.0, float("nan"), 10.5])
def test_run_rejects_an_observation_outside_the_horizon(reservoir_model, at):
    # -1 used to report a negative tank level, nan and 10.5 no observation
    with pytest.raises(ValueError, match="observation time"):
        simulate_run(reservoir_model, 10.0, observe_at=at)


def test_estimate_counts_the_steps_of_its_runs(battery_model):
    atoms = parse_property("m(grid_on) >= 1", battery_model)
    est = estimate_probability(battery_model, 20.0, 8.0, atoms, seed=3, runs=40)
    traced = sum(len(simulate_run(battery_model, 20.0, rng=stream(3, n), observe_at=8.0,
                                  keep_trace=True).trace) for n in range(40))
    assert est.steps == traced
    assert 0 < est.modes < est.steps


def test_plan_memo_stays_finite_on_an_unbounded_net(counter_model):
    # About a thousand markings but four modes: the memo is keyed on the
    # mode, never on the marking.
    est = estimate_probability(counter_model, 100.0, 100.0, [], runs=1)
    assert 990 <= est.steps <= 1010
    assert est.modes <= 5


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


# ---------------------------------------------------------------------------
# the simulator's answers, bit for bit

def _runs_digest(model, tau, t_prime, seed, runs=50):
    """SHA-256 over the firings, trace and final state of the first runs."""
    h = hashlib.sha256()
    for n in range(runs):
        res = simulate_run(model, tau, rng=stream(seed, n), observe_at=t_prime,
                           keep_trace=True)
        for tid, idx, value, time in res.fired:
            h.update(f"{tid}:{idx}:{value.hex()}:{time.hex()};".encode())
        for ev in res.trace:
            h.update(f"{ev.time.hex()}:{ev.kind.value}:{ev.target}:{ev.truth};".encode())
        for marking, levels in ((res.marking, res.levels),
                                (res.observed_marking, res.observed_levels)):
            h.update(repr(sorted(marking.items())).encode())
            h.update(repr(sorted((k, v.hex()) for k, v in levels.items())).encode())
        h.update(b"|")
    return h.hexdigest()


# (model, tau, t', property, runs, seed): (p, sigma, digest of the first 50 runs)
SIM_PINS = {
    ("battery", 20.0, 8.0, "m(grid_on) >= 1", 300, 0): (
        "0x1.69d0369d0369dp-3", "0x1.68c3daeb8f94cp-6",
        "cbfeff1d1925db3ab4168d86398807f04a2fc6b30d2e4fc9ab68e397cc1b1941"),
    ("battery", 20.0, 8.0, "m(grid_on) >= 1", 300, 29): (
        "0x1.bbbbbbbbbbbbcp-3", "0x1.85b2ccedb438cp-6",
        "c3b13931fb3083dc51e048f95c109a1393f157ff1d468c2f5882bb4e916aabe9"),
    ("battery", 8.0, 8.0, "m(grid_on) >= 1", 150, 0): (
        "0x1.999999999999ap-3", "0x1.0b8cb28fd8cf5p-5",
        "870fce07c01b8524e5dfc8d7af30a11f293ae7d4722da563aa2e3f32bc91fedf"),
    ("battery", 8.0, 8.0, "m(grid_on) >= 1", 150, 29): (
        "0x1.b4e81b4e81b4fp-3", "0x1.1202fc5232880p-5",
        "0a85e232d6efe036ca3d44db77dfc2ede589e9af7cb818688d98cd5857c0d6ad"),
    ("reservoir", 10.0, 6.0, "m(pump_ok) >= 1", 750, 0): (
        "0x1.a06d3a06d3a07p-2", "0x1.25df30c7f2429p-6",
        "f2d151d55e93cc62d233f72af9665803dbe8e11445e67a60c473c5dc15f4e60b"),
    ("reservoir", 10.0, 6.0, "m(pump_ok) >= 1", 750, 29): (
        "0x1.92c5f92c5f92cp-2", "0x1.243e512aba274p-6",
        "ed6d6d00680083f73e896f7dd3b6ac130459050d80021cea4d4d5dead2a6a4f1"),
}


@pytest.mark.parametrize("case", sorted(SIM_PINS))
def test_simulator_answers_are_pinned(case, battery_model, reservoir_model):
    # Speed-ups of the simulator must keep every draw and every float
    # operation in order: the answers are pinned per seed.
    name, tau, t_prime, prop, runs, seed = case
    model = {"battery": battery_model, "reservoir": reservoir_model}[name]
    est = estimate_probability(model, tau, t_prime, parse_property(prop, model),
                               seed=seed, runs=runs)
    p, sigma, digest = SIM_PINS[case]
    assert (est.p.hex(), est.sigma.hex()) == (p, sigma)
    assert _runs_digest(model, tau, t_prime, seed) == digest
