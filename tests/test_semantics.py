"""Symbolic execution semantics: enabling, rate adaptation, event detection."""

import json

import numpy as np
import pytest

import hpng.simulate
from hpng.model import DISCRETE_KINDS, TKind, parse_model
from hpng.montecarlo import stream
from hpng.semantics import (
    Event,
    EventKind,
    SymState,
    compile_net,
    enabling,
    evolve,
    finalize_state,
    fire,
    flat_order,
    guard_key,
    initial_state,
    min_det_events,
    next_events,
    pinned,
    rate_adaptation,
    resolve_conflict,
    set_marking_guards,
    _water_fill,
)
from hpng.symbolic import EPS, ZERO, LinearForm, SymInterval, const, extremal_value, var
from hpng.tree import build_plt


def _doc(**kwargs):
    base = {
        "places": {"discrete": [], "continuous": []},
        "transitions": {},
        "arcs": {"discrete": [], "continuous": [], "guard": []},
    }
    for key, val in kwargs.items():
        if key in ("discrete", "continuous"):
            base["places"][key] = val
        elif key in ("arcs_discrete", "arcs_continuous", "arcs_guard"):
            base["arcs"][key.split("_")[1]] = val
        else:
            base["transitions"][key] = val
    return parse_model(json.dumps(base))


# ---------------------------------------------------------------------------
# indexing

def test_flat_order_groups_by_kind(battery_model):
    order = flat_order(battery_model)
    kinds = [battery_model.t_ref[tid][0] for tid in order]
    expect = []
    for kind in (TKind.DETERMINISTIC, TKind.IMMEDIATE, TKind.GENERAL,
                 TKind.STATIC, TKind.DYNAMIC):
        expect.extend([kind] * len(battery_model.transitions_of(kind)))
    assert kinds == expect
    assert len(order) == len(set(order))


def test_guard_key_is_readable(reservoir_model):
    assert guard_key(reservoir_model, 0) == "pump_ok>=1@inflow"


# ---------------------------------------------------------------------------
# initial state and enabling

def test_reservoir_initial_state(reservoir_model):
    net = compile_net(reservoir_model)
    s = initial_state(net)
    assert s.m == (1, 1)
    assert s.x == (ZERO,)
    assert s.d == (1.0,)  # inflow 2 minus outflow 1
    assert all(s.e)
    assert all(s.gs)
    assert s.c == (ZERO,)
    assert s.g == (ZERO,)


def test_battery_initial_drift_is_zero(battery_model):
    net = compile_net(battery_model)
    s = initial_state(net)
    bat = battery_model.cp_index["battery"]
    assert s.d[bat] == pytest.approx(0.0)  # supply 700 == standard demand 700


def enabled(model, state, tid):
    """Token and guard conditions for one transition in the given state.

    The enabling rule written on the model itself, one transition at a
    time: the reference that ``enabled_row`` on the compiled net is
    checked against.
    """
    kind, _ = model.t_ref[tid]
    for i, arc in enumerate(model.guard_arcs):
        if arc.transition == tid and not state.gs[i]:
            return False
    if kind in DISCRETE_KINDS:
        for arc in model.input_arcs(tid):
            if state.m[model.dp_index[arc.place]] < arc.weight:
                return False
    return True


def test_enabled_checks_tokens_and_guards(reservoir_model):
    net = compile_net(reservoir_model)
    s = initial_state(net)
    assert enabled(reservoir_model, s, "pump_break")
    drained = SymState((0, 1), s.x, s.c, s.d, s.g, s.e, s.gs)
    assert not enabled(reservoir_model, drained, "pump_break")
    no_guard = SymState(s.m, s.x, s.c, s.d, s.g, s.e, (False, True))
    assert not enabled(reservoir_model, no_guard, "inflow")


def _enabled_per_transition(model, m, gs):
    probe = SymState(tuple(m), (), (), (), (), (), tuple(gs))
    return tuple(enabled(model, probe, tid) for tid in flat_order(model))


def test_compiled_enabling_is_enabled_at_every_location(battery_model):
    tree = build_plt(battery_model, 12.0)
    net = compile_net(battery_model)
    for loc in tree.locations:
        st = loc.state
        want = _enabled_per_transition(battery_model, st.m, st.gs)
        assert enabling(net, st.m, st.gs) == want == st.e, loc.id


@pytest.mark.parametrize("name, tau", [("battery", 20.0), ("reservoir", 10.0),
                                       ("counter", 100.0)])
def test_compiled_enabling_is_enabled_at_every_simulator_step(
        name, tau, battery_model, reservoir_model, counter_model, monkeypatch):
    # After an event the simulator re-evaluates only the rows and discrete
    # guards that event can change (CompiledNet.depends).  At every step,
    # what it kept must equal the full rules recomputed from scratch, and
    # its step plan must be the plan of that mode.
    model = {"battery": battery_model, "reservoir": reservoir_model,
             "counter": counter_model}[name]
    candidate_events = hpng.simulate._candidate_events
    reference = compile_net(model)
    markings = set()
    steps = 0

    def checked(run, values, rng):
        nonlocal steps
        steps += 1
        gs = list(run.gs)
        set_marking_guards(reference.discrete_guards, run.m, gs)
        assert run.gs == gs, (run.m, run.gs)
        e = enabling(reference, run.m, run.gs)
        assert run.enab == e == _enabled_per_transition(model, run.m, run.gs), run.m
        drift = reference.drift(e, *pinned(reference, run.x), rate_adaptation)
        assert run.plan.enab == e and run.plan.drift == run.drift == drift
        markings.add(tuple(run.m))
        return candidate_events(run, values, rng)

    monkeypatch.setattr(hpng.simulate, "_candidate_events", checked)
    for n in range(2 if name == "counter" else 50):    # the counter net draws nothing
        hpng.simulate.simulate_run(model, tau, rng=stream(0, n))
    assert steps > 100
    assert len(markings) > 2


@pytest.mark.parametrize("name, tau", [("battery", 20.0), ("reservoir", 10.0)])
def test_kept_pinned_sets_are_pinned_at_every_simulator_step(
        name, tau, battery_model, reservoir_model, monkeypatch):
    # After an event the simulator keeps its mode's pinned sets unless a
    # moving level entered or left a bound.  After every step, the sets
    # its plan was entered with must be the ones pinned recomputes.
    model = {"battery": battery_model, "reservoir": reservoir_model}[name]
    apply = hpng.simulate._apply
    steps = changed = 0

    def checked(run, ev, values, fired):
        nonlocal steps, changed
        before = run.plan.pins
        apply(run, ev, values, fired)
        assert run.plan.pins == pinned(run.net, run.x), (run.time, ev)
        steps += 1
        changed += run.plan.pins != before

    monkeypatch.setattr(hpng.simulate, "_apply", checked)
    for n in range(50):
        hpng.simulate.simulate_run(model, tau, rng=stream(0, n))
    assert steps > 100
    assert 0 < changed < steps


# ---------------------------------------------------------------------------
# rate adaptation

def test_water_fill_proportional_when_uncapped():
    alloc = _water_fill([("a", 2.0, 1.0), ("b", 2.0, 3.0)], budget=1.0)
    assert alloc["a"] == pytest.approx(0.25)
    assert alloc["b"] == pytest.approx(0.75)


def test_water_fill_redistributes_after_cap():
    # b saturates at 0.5; the remaining 1.5 all goes to a.
    alloc = _water_fill([("a", 5.0, 1.0), ("b", 0.5, 3.0)], budget=2.0)
    assert alloc["b"] == pytest.approx(0.5)
    assert alloc["a"] == pytest.approx(1.5)


def test_water_fill_budget_exceeds_caps():
    alloc = _water_fill([("a", 1.0, 1.0), ("b", 1.0, 1.0)], budget=5.0)
    assert alloc == {"a": 1.0, "b": 1.0}


def _drain_doc(shares=(1.0, 1.0), priorities=(0, 0), inflow=1.0):
    return _doc(
        continuous=[{"id": "tank", "level": 0.0}],
        staticContinuous=[
            {"id": "in", "rate": inflow},
            {"id": "out_a", "rate": 2.0, "share": shares[0], "priority": priorities[0]},
            {"id": "out_b", "rate": 2.0, "share": shares[1], "priority": priorities[1]},
        ],
        arcs_continuous=[
            {"from": "in", "to": "tank"},
            {"from": "tank", "to": "out_a"},
            {"from": "tank", "to": "out_b"},
        ],
    )


def test_adaptation_shares_scarce_inflow():
    model = _drain_doc(shares=(1.0, 3.0))
    enab = {t: True for t in flat_order(model)}
    actual, drift = rate_adaptation(model, enab, at_lower={"tank"}, at_upper=set())
    assert actual["out_a"] == pytest.approx(0.25)
    assert actual["out_b"] == pytest.approx(0.75)
    assert drift["tank"] == pytest.approx(0.0)


def test_adaptation_priority_wins_outright():
    model = _drain_doc(priorities=(1, 0))
    enab = {t: True for t in flat_order(model)}
    actual, _ = rate_adaptation(model, enab, at_lower={"tank"}, at_upper=set())
    assert actual["out_a"] == pytest.approx(1.0)
    assert actual["out_b"] == pytest.approx(0.0)


def test_adaptation_no_pin_keeps_nominal():
    model = _drain_doc()
    enab = {t: True for t in flat_order(model)}
    actual, drift = rate_adaptation(model, enab, at_lower=set(), at_upper=set())
    assert actual["out_a"] == pytest.approx(2.0)
    assert drift["tank"] == pytest.approx(-3.0)


def test_adaptation_disabled_transition_has_zero_flow(reservoir_model):
    enab = {t: True for t in flat_order(reservoir_model)}
    enab["inflow"] = False
    actual, drift = rate_adaptation(reservoir_model, enab,
                                    at_lower={"tank"}, at_upper=set())
    assert actual["inflow"] == 0.0
    assert actual["outflow"] == 0.0  # nothing left to drain
    assert drift["tank"] == pytest.approx(0.0)


def test_adaptation_dynamic_rate_tracks_statics(battery_model):
    enab = {t: True for t in flat_order(battery_model)}
    # All three demand markers on would draw 2000 against 700 supply.
    actual, _ = rate_adaptation(battery_model, enab, at_lower=set(), at_upper=set())
    assert actual["charge"] == pytest.approx(0.0)  # max(700 - 2000, 0)
    assert actual["discharge"] == pytest.approx(1300.0)


# ---------------------------------------------------------------------------
# evolve / fire

def test_evolve_moves_levels_and_clocks(reservoir_model):
    net = compile_net(reservoir_model)
    s = initial_state(net)
    delta = const(2.0)
    nxt = evolve(s, delta, net)
    assert nxt.x[0].text([]) == "2"
    assert nxt.c[0].text([]) == "2"
    assert nxt.g[0].text([]) == "2"


def test_evolve_skips_disabled_clocks(reservoir_model):
    net = compile_net(reservoir_model)
    s = initial_state(net)
    stopped = SymState(s.m, s.x, s.c, s.d, s.g,
                       tuple(False for _ in s.e), s.gs)
    nxt = evolve(stopped, const(2.0), net)
    assert nxt.c[0] == ZERO
    assert nxt.g[0] == ZERO


def test_evolve_symbolic_delta(reservoir_model):
    net = compile_net(reservoir_model)
    s = initial_state(net)
    nxt = evolve(s, var(0), net)
    assert nxt.x[0].text(["s0"]) == "s0"


def test_fire_moves_tokens_and_resets_clock(reservoir_model):
    net = compile_net(reservoir_model)
    s = evolve(initial_state(net), const(3.0), net)
    m, c, g = fire(s, "demand_stop", net)
    assert m == (1, 0)
    assert c[0] == ZERO


def test_fire_disabled_raises(reservoir_model):
    net = compile_net(reservoir_model)
    s = initial_state(net)
    drained = SymState((0, 0), s.x, s.c, s.d, s.g, s.e, s.gs)
    with pytest.raises(RuntimeError):
        fire(drained, "demand_stop", net)


def test_fire_general_resets_enabled_time(reservoir_model):
    net = compile_net(reservoir_model)
    s = evolve(initial_state(net), const(3.0), net)
    _, _, g = fire(s, "pump_break", net)
    assert g[0] == ZERO


# ---------------------------------------------------------------------------
# event detection

def test_reservoir_root_events(reservoir_model):
    net = compile_net(reservoir_model)
    s = initial_state(net)
    events = next_events(s, [], net)
    by_kind = {ev.kind: ev for ev in events}
    assert set(by_kind) == {EventKind.DETERMINISTIC, EventKind.GENERAL,
                            EventKind.BOUNDARY}
    assert by_kind[EventKind.DETERMINISTIC].delta.text([]) == "5"
    assert by_kind[EventKind.BOUNDARY].at_upper is True
    assert by_kind[EventKind.BOUNDARY].delta.text([]) == "10"
    assert by_kind[EventKind.GENERAL].delta is None


def test_min_det_drops_dominated_boundary(reservoir_model):
    net = compile_net(reservoir_model)
    s = initial_state(net)
    events = next_events(s, [], net)
    kept = [ev for grp in min_det_events(events, []) for ev in grp]
    assert [ev.kind for ev in kept] == [EventKind.DETERMINISTIC]


def _corners(domain):
    """Each variable at its lower or upper bound, given the earlier ones."""
    points = [[]]
    for iv in domain:
        points = [p + [b.evaluate(p)] for p in points for b in (iv.lower, iv.upper)]
    return points


def _two_step_groups(events, domain):
    """Dominance on every pair's difference form, then coincident grouping.

    An event is dropped when another finishes more than EPS before it over
    the whole domain; each survivor then joins the first group whose first
    member it equals within EPS (a constant difference), or opens one.
    """
    det = [ev for ev in events if ev.kind is not EventKind.GENERAL]
    dominated = [False] * len(det)
    for i in range(len(det)):
        for j in range(i + 1, len(det)):
            diff = det[j].delta - det[i].delta
            if diff.is_constant():
                low = high = diff.const
            else:
                low = extremal_value(diff, domain, "min")
                high = extremal_value(diff, domain, "max")
            dominated[j] = dominated[j] or low > EPS
            dominated[i] = dominated[i] or high < -EPS
    groups = []
    for ev, dom in zip(det, dominated):
        if dom:
            continue
        for grp in groups:
            diff = ev.delta - grp[0].delta
            if diff.is_constant() and abs(diff.const) <= EPS:
                grp.append(ev)
                break
        else:
            groups.append([ev])
    return groups


def test_min_det_events_keeps_what_no_other_event_beats_at_every_corner():
    # An affine form takes its extrema over a triangular domain at the
    # corners, so an event is beaten everywhere iff it is beaten at each.
    # Twins of the integer events sit 0, 0.5 EPS or 2 EPS from them, so
    # some survivors coincide; one sign of 0.5 EPS per domain keeps every
    # corner difference clear of +-EPS, where rounding would decide.
    rng = np.random.default_rng(7)
    dropped = shared = 0
    for _ in range(600):
        n = int(rng.integers(0, 4))
        domain = []
        for k in range(n):
            lower = LinearForm(float(rng.integers(-2, 3)),
                               tuple(float(c) for c in rng.integers(-1, 2, size=k)))
            domain.append(SymInterval(lower, lower + float(rng.integers(0, 4))))
        det = []
        for e in range(int(rng.integers(2, 5))):
            delta = LinearForm(float(rng.integers(0, 5)),
                               tuple(float(c) for c in rng.integers(-2, 3, size=n)))
            det.append(Event(EventKind.DETERMINISTIC, f"t{e}", delta))
        offsets = [0.0, float(rng.choice([-0.5, 0.5])) * EPS, 2 * EPS, -2 * EPS]
        for e in range(int(rng.integers(0, 3))):
            base = det[int(rng.integers(len(det)))].delta
            twin = Event(EventKind.DETERMINISTIC, f"w{e}", base + float(rng.choice(offsets)))
            det.insert(int(rng.integers(len(det) + 1)), twin)
        events = [Event(EventKind.GENERAL, "g", None)] + det
        corners = _corners(domain)

        def beaten(ev):
            return any(all(other.delta.evaluate(p) < ev.delta.evaluate(p) - EPS
                           for p in corners)
                       for other in det if other is not ev)

        want = [ev for ev in det if not beaten(ev)]
        groups = min_det_events(events, domain)
        assert sorted((ev for grp in groups for ev in grp), key=det.index) == want
        assert groups == _two_step_groups(events, domain)
        dropped += len(det) - len(want)
        shared += len(want) - len(groups)
    assert dropped > 1000 and shared > 150


def test_min_det_events_groups_past_a_dropped_twin():
    # t is within EPS of s and d, but d finishes more than EPS before t;
    # s and d are within EPS of each other, so they form one group, and
    # t's coincidence with s opens none.
    s = var(0, 1.0, offset=3.0)
    t = Event(EventKind.DETERMINISTIC, "t", s + 0.5 * EPS)
    d = Event(EventKind.DETERMINISTIC, "d", s - 0.75 * EPS)
    s = Event(EventKind.DETERMINISTIC, "s", s)
    domain = [SymInterval(const(0.0), const(2.0))]
    for order in ([t, s, d], [s, t, d], [d, t, s]):
        groups = min_det_events(order, domain)
        assert groups == _two_step_groups(order, domain)
        assert len(groups) == 1 and t not in groups[0] and len(groups[0]) == 2


def test_guard_crossing_on_symbolic_level():
    model = _doc(
        continuous=[{"id": "tank", "level": 5.0}],
        deterministic=[{"id": "stop", "firingTime": 100.0}],
        staticContinuous=[{"id": "out", "rate": 1.0}],
        arcs_continuous=[{"from": "tank", "to": "out"}],
        arcs_guard=[{"from": "tank", "to": "stop", "op": ">=", "threshold": 2.0}],
    )
    net = compile_net(model)
    s = initial_state(net)
    # Entry level s0 with domain [3, 4]: crossing of threshold 2 happens
    # after s0 - 2 more time units under drift -1.
    shifted = finalize_state(s.m, (var(0),), s.c, s.g, [True], net)
    domain = [SymInterval(const(3.0), const(4.0))]
    events = next_events(shifted, domain, net)
    crossing = [ev for ev in events if ev.kind is EventKind.GUARD_ARC]
    assert len(crossing) == 1
    assert crossing[0].new_truth is False
    assert crossing[0].delta.text(["s0"]) == "-2 + s0"


def test_flat_level_reconciles_stale_guard():
    model = _doc(
        continuous=[{"id": "tank", "level": 0.0}],
        immediate=[{"id": "alarm"}],
        arcs_guard=[{"from": "tank", "to": "alarm", "op": "<=", "threshold": 0.0}],
    )
    net = compile_net(model)
    s = initial_state(net)
    stale = SymState(s.m, s.x, s.c, s.d, s.g, s.e, (False,))
    events = next_events(stale, [], net)
    fixes = [ev for ev in events if ev.kind is EventKind.GUARD_ARC]
    assert len(fixes) == 1
    assert fixes[0].new_truth is True
    assert fixes[0].delta == ZERO


def test_flat_level_consistent_guard_silent():
    model = _doc(
        continuous=[{"id": "tank", "level": 0.0}],
        immediate=[{"id": "alarm"}],
        arcs_guard=[{"from": "tank", "to": "alarm", "op": "<=", "threshold": 0.0}],
    )
    net = compile_net(model)
    s = initial_state(net)
    events = next_events(s, [], net)
    assert not [ev for ev in events if ev.kind is EventKind.GUARD_ARC]


def test_departing_threshold_emits_zero_delay_crossing():
    # Level sits exactly at the threshold and moves up: the strict guard
    # becomes true immediately.
    model = _doc(
        continuous=[{"id": "tank", "level": 2.0}],
        deterministic=[{"id": "stop", "firingTime": 100.0}],
        staticContinuous=[{"id": "feed", "rate": 1.0}],
        arcs_continuous=[{"from": "feed", "to": "tank"}],
        arcs_guard=[{"from": "tank", "to": "stop", "op": ">", "threshold": 2.0}],
    )
    net = compile_net(model)
    s = initial_state(net)
    crossing = [ev for ev in next_events(s, [], net)
                if ev.kind is EventKind.GUARD_ARC]
    assert len(crossing) == 1
    assert crossing[0].new_truth is True
    assert crossing[0].delta == ZERO


def test_pinned_place_suppresses_boundary_event():
    model = _doc(
        continuous=[{"id": "tank", "level": 0.0}],
        staticContinuous=[{"id": "out", "rate": 1.0}],
        arcs_continuous=[{"from": "tank", "to": "out"}],
    )
    net = compile_net(model)
    s = initial_state(net)
    assert s.d == (0.0,)  # adaptation already stalled the drain
    assert next_events(s, [], net) == []


def test_moving_away_from_threshold_no_event():
    model = _doc(
        continuous=[{"id": "tank", "level": 5.0}],
        deterministic=[{"id": "stop", "firingTime": 100.0}],
        staticContinuous=[{"id": "feed", "rate": 1.0}],
        arcs_continuous=[{"from": "feed", "to": "tank"}],
        arcs_guard=[{"from": "tank", "to": "stop", "op": ">=", "threshold": 2.0}],
    )
    net = compile_net(model)
    s = initial_state(net)
    assert not [ev for ev in next_events(s, [], net)
                if ev.kind is EventKind.GUARD_ARC]


# ---------------------------------------------------------------------------
# conflict resolution

def test_resolve_conflict_weights_split():
    model = _doc(
        discrete=[{"id": "p", "tokens": 1}],
        immediate=[{"id": "a", "weight": 1.0}, {"id": "b", "weight": 3.0}],
        arcs_discrete=[{"from": "p", "to": "a"}, {"from": "p", "to": "b"}],
    )
    net = compile_net(model)
    s = initial_state(net)
    events = next_events(s, [], net)
    winners = resolve_conflict(model, events)
    probs = {ev.target: p for ev, p in winners}
    assert probs == {"a": pytest.approx(0.25), "b": pytest.approx(0.75)}


def test_resolve_conflict_priority_preempts_weight():
    model = _doc(
        discrete=[{"id": "p", "tokens": 1}],
        immediate=[{"id": "a", "weight": 1.0, "priority": 2},
                   {"id": "b", "weight": 100.0}],
        arcs_discrete=[{"from": "p", "to": "a"}, {"from": "p", "to": "b"}],
    )
    net = compile_net(model)
    s = initial_state(net)
    winners = resolve_conflict(model, next_events(s, [], net))
    assert [(ev.target, p) for ev, p in winners] == [("a", 1.0)]


def test_resolve_conflict_state_change_beats_firing():
    model = _doc(
        continuous=[{"id": "tank", "level": 9.0, "capacity": 10.0}],
        deterministic=[{"id": "stop", "firingTime": 1.0}],
        staticContinuous=[{"id": "feed", "rate": 1.0}],
        arcs_continuous=[{"from": "feed", "to": "tank"}],
    )
    net = compile_net(model)
    s = initial_state(net)
    events = next_events(s, [], net)
    assert len(events) == 2  # boundary and firing, both at delta 1
    winners = resolve_conflict(model, events)
    assert len(winners) == 1
    assert winners[0][0].kind is EventKind.BOUNDARY
