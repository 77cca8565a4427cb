"""Symbolic execution semantics: enabling, rate adaptation, next events.

A symbolic state mirrors a concrete net state except that fluid levels,
clocks and accumulated enabling times are affine forms over the expired
random firings.  Within one location every comparison a rule needs (level
vs. guard threshold, level vs. boundary) has a uniform answer over the
location's domain, which the event machinery guarantees by splitting.

Rules that do not depend on the symbolic form of a state (guard truths of
discrete places, enabling, which places sit at a bound, and the drift those
give) work on a ``CompiledNet``, the model compiled once into index tables.
The event rules (``guard_crossing``, ``bound_ahead`` and ``winners``) take
a zone, a drift or a candidate list and leave the delay arithmetic to the
caller.  The simulator shares all of these, on floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Optional, Sequence

from .model import DISCRETE_KINDS, HPnGModel, TKind
from .symbolic import (
    EPS,
    ComparisonKind,
    ComparisonOutcome,
    LinearForm,
    SymInterval,
    ZERO,
    compare_remaining_times,
    const,
    extremal_value,
    var,
)


class UnsupportedModelError(RuntimeError):
    """Raised when a model needs machinery beyond the supported fragment."""


class ResourceLimitError(RuntimeError):
    """Raised when a run hits a size cap: tree locations or simulator steps."""


def check_horizon(tau_max: float) -> None:
    """Raise ``ValueError`` unless the horizon tau_max is finite and >= 0."""
    if not (math.isfinite(tau_max) and tau_max >= 0.0):
        raise ValueError(f"horizon {tau_max} is not a finite number >= 0")


class EventKind(Enum):
    GUARD_ARC = "guardArc"
    BOUNDARY = "boundary"
    IMMEDIATE = "immediateFiring"
    DETERMINISTIC = "deterministicFiring"
    GENERAL = "generalFiring"


#: Precedence among coincident events, lowest rank first.  State-change
#: events outrank firings so that enabling updates are visible to the
#: firings they coincide with.  General firings rank with deterministic
#: ones; in the tree their delay is symbolic, so they never tie.
EVENT_RANK: dict[EventKind, int] = {
    EventKind.GUARD_ARC: 0,
    EventKind.BOUNDARY: 1,
    EventKind.IMMEDIATE: 2,
    EventKind.DETERMINISTIC: 3,
    EventKind.GENERAL: 3,
}
_FIRING_RANK = EVENT_RANK[EventKind.IMMEDIATE]


@dataclass(frozen=True)
class Event:
    kind: EventKind
    target: str            # transition id, place id or guard key
    delta: Optional[LinearForm]  # None for general firings (symbolic delay)
    new_truth: Optional[bool] = None  # guard-arc events: truth after crossing
    at_upper: Optional[bool] = None   # boundary events: which bound is hit
    arc_index: Optional[int] = None   # guard-arc events: index into model.guard_arcs

    def describe(self) -> str:
        if self.kind is EventKind.GUARD_ARC:
            return f"guard {self.target} -> {self.new_truth}"
        if self.kind is EventKind.BOUNDARY:
            side = "upper" if self.at_upper else "lower"
            return f"{self.target} reaches {side} bound"
        return f"{self.target} fires"


@dataclass(frozen=True)
class SymState:
    m: tuple[int, ...]                 # tokens per discrete place
    x: tuple[LinearForm, ...]          # fluid level per continuous place
    c: tuple[LinearForm, ...]          # clocks, deterministic then immediate
    d: tuple[float, ...]               # drift per continuous place
    g: tuple[LinearForm, ...]          # enabled time per general transition
    e: tuple[bool, ...]                # enabling per flat transition index
    gs: tuple[bool, ...]               # guard-arc satisfaction per arc index


def flat_order(model: HPnGModel) -> list[str]:
    out = []
    for kind in (TKind.DETERMINISTIC, TKind.IMMEDIATE, TKind.GENERAL,
                 TKind.STATIC, TKind.DYNAMIC):
        out.extend(t.id for t in model.transitions_of(kind))
    return out


def guard_key(model: HPnGModel, arc_index: int) -> str:
    a = model.guard_arcs[arc_index]
    return f"{a.place}{a.op}{a.threshold:g}@{a.transition}"


# ---------------------------------------------------------------------------
# compiled net

@dataclass
class CompiledNet:
    """A model compiled into index tables, with memos of solved drifts and step plans.

    Transition rows follow ``flat_order``; places and guard arcs are
    referred to by their index in the model.  The tables never change.
    ``depends`` says what a firing can change: the discrete guards on the
    places it moves tokens in, and the rows with an input arc from, or a
    guard on, one of those places.  No other row's enabling can change.
    ``drifts`` maps (enabling vector, pinned-lower set, pinned-upper set)
    to the drift per continuous place.  ``plans`` maps a simulator mode,
    that key plus the guard-arc truths, to its step plan
    (``simulate._Plan``).  Those key spaces are finite, while markings and
    levels are not, so nothing is ever keyed on those.  ``build_plt``
    compiles one net per build and ``estimate_probability`` one per
    estimate.
    """

    model: HPnGModel
    order: tuple[str, ...]                        # flat transition order
    index: dict[str, int]                         # transition id -> flat index
    guards: tuple[tuple[int, ...], ...]           # per flat transition: guard arcs
    inputs: tuple[tuple[tuple[int, int], ...], ...]   # per flat transition: (place, weight) taken
    outputs: tuple[tuple[tuple[int, int], ...], ...]  # per flat transition: (place, weight) given
    det_at: tuple[int, ...]                       # flat index per deterministic transition
    imm_at: tuple[int, ...]                       # flat index per immediate transition
    gen_at: tuple[int, ...]                       # flat index per general transition
    discrete_guards: tuple[tuple[int, int, str, float], ...]    # (arc, discrete place, op, threshold)
    continuous_guards: tuple[tuple[int, int, str, float], ...]  # (arc, continuous place, op, threshold)
    places: tuple[tuple[str, float, bool], ...]   # continuous: (id, capacity, capacity finite)
    depends: tuple[tuple[tuple[tuple[int, int, str, float], ...], tuple[int, ...]], ...]
    # per flat transition: the discrete guards and the rows its firing can change
    drifts: dict = field(default_factory=dict)
    plans: dict = field(default_factory=dict)

    def drift(self, e: tuple[bool, ...], at_lower: frozenset, at_upper: frozenset,
              solve) -> tuple[float, ...]:
        """Drift per continuous place, solved by ``solve`` on a memo miss.

        ``solve`` is ``rate_adaptation`` as the caller's module names it,
        so that a wrapper put on that name sees every miss.
        """
        key = (e, at_lower, at_upper)
        d = self.drifts.get(key)
        if d is None:
            _, by_place = solve(self.model, dict(zip(self.order, e)), at_lower, at_upper)
            d = self.drifts[key] = tuple(by_place[pid] for pid, _, _ in self.places)
        return d


def compile_net(model: HPnGModel) -> CompiledNet:
    """Index tables of ``model`` and an empty drift memo."""
    order = tuple(flat_order(model))
    index = {tid: i for i, tid in enumerate(order)}
    guards: list[list[int]] = [[] for _ in order]
    for ai, arc in enumerate(model.guard_arcs):
        guards[index[arc.transition]].append(ai)
    inputs: list[list[tuple[int, int]]] = [[] for _ in order]
    outputs: list[list[tuple[int, int]]] = [[] for _ in order]
    for arc in model.discrete_arcs:
        side = inputs if arc.to_transition else outputs
        side[index[arc.transition]].append((model.dp_index[arc.place], arc.weight))
    discrete_guards, continuous_guards = [], []
    for ai, arc in enumerate(model.guard_arcs):
        if arc.place in model.dp_index:
            discrete_guards.append((ai, model.dp_index[arc.place], arc.op, arc.threshold))
        else:
            continuous_guards.append((ai, model.cp_index[arc.place], arc.op, arc.threshold))
    depends = []
    for fi in range(len(order)):
        moved = {pi for pi, _ in inputs[fi] + outputs[fi]}
        touched = tuple(g for g in discrete_guards if g[1] in moved)
        rows = {index[model.guard_arcs[ai].transition] for ai, _, _, _ in touched}
        rows.update(r for r, arcs in enumerate(inputs) if any(pi in moved for pi, _ in arcs))
        depends.append((touched, tuple(sorted(rows))))
    return CompiledNet(
        model=model,
        order=order,
        index=index,
        guards=tuple(map(tuple, guards)),
        inputs=tuple(map(tuple, inputs)),
        outputs=tuple(map(tuple, outputs)),
        det_at=tuple(index[t.id] for t in model.deterministic),
        imm_at=tuple(index[t.id] for t in model.immediate),
        gen_at=tuple(index[t.id] for t in model.general),
        discrete_guards=tuple(discrete_guards),
        continuous_guards=tuple(continuous_guards),
        places=tuple((p.id, p.capacity, not math.isinf(p.capacity))
                     for p in model.continuous_places),
        depends=tuple(depends),
    )


# ---------------------------------------------------------------------------
# guard truth

def _static_truth(op: str, value: float, threshold: float, eps: float = EPS) -> bool:
    if op == "<":
        return value < threshold - eps
    if op == "<=":
        return value <= threshold + eps
    if op == "=":
        return abs(value - threshold) <= eps
    if op == ">=":
        return value >= threshold - eps
    return value > threshold + eps


_ZONE_TRUTH = {
    "<": {"below": True, "at": False, "above": False},
    "<=": {"below": True, "at": True, "above": False},
    "=": {"below": False, "at": True, "above": False},
    ">=": {"below": False, "at": True, "above": True},
    ">": {"below": False, "at": False, "above": True},
}


def _level_zone(level: LinearForm, threshold: float,
                domain: Sequence[SymInterval]) -> str:
    lo = extremal_value(level - threshold, domain, "min")
    hi = extremal_value(level - threshold, domain, "max")
    if abs(lo) <= EPS and abs(hi) <= EPS:
        return "at"
    # Touching the threshold at a domain edge point still counts as one-sided.
    if lo >= -EPS:
        return "above"
    if hi <= EPS:
        return "below"
    raise UnsupportedModelError(
        f"fluid level straddles guard threshold {threshold} inside one location"
    )


def guard_crossing(op: str, zone: str, drift: float,
                   truth: bool) -> Optional[tuple[bool, bool]]:
    """Next change of a continuous guard's stored truth: (new truth, now?) or None.

    ``zone`` is where the level sits against the threshold; a change that
    is not now happens when the level reaches the threshold.  A flat level
    cannot cross, but its stored truth may be stale: when the level reaches
    the threshold in the same instant the place gets pinned, only one of
    the coincident crossings wins the step, and the rest are caught up now.
    """
    truths = _ZONE_TRUTH[op]
    if abs(drift) <= EPS:
        return (truths[zone], True) if truths[zone] != truth else None
    ahead = "above" if drift > 0 else "below"
    if zone == ahead:
        return None     # moving away from the threshold
    for nz in ((ahead,) if zone == "at" else ("at", ahead)):
        if truths[nz] != truth:
            return truths[nz], zone == "at"
    return None


def enabled(model: HPnGModel, state: SymState, tid: str) -> bool:
    """Token and guard conditions for one transition in the given state."""
    kind, _ = model.t_ref[tid]
    for i, arc in enumerate(model.guard_arcs):
        if arc.transition == tid and not state.gs[i]:
            return False
    if kind in DISCRETE_KINDS:
        for arc in model.input_arcs(tid):
            if state.m[model.dp_index[arc.place]] < arc.weight:
                return False
    return True


def set_marking_guards(net: CompiledNet, m: Sequence[int], gs: list) -> None:
    """Overwrite the truths of the discrete-place guards in ``gs`` from marking m."""
    for ai, pi, op, threshold in net.discrete_guards:
        gs[ai] = _static_truth(op, float(m[pi]), threshold)


def enabled_row(net: CompiledNet, fi: int, m: Sequence[int], gs: Sequence[bool]) -> bool:
    """Token and guard conditions of flat transition fi: the rule of ``enabled``.

    Only discrete transitions have input arcs, so the token test is empty
    for continuous ones.
    """
    for ai in net.guards[fi]:
        if not gs[ai]:
            return False
    for pi, w in net.inputs[fi]:
        if m[pi] < w:
            return False
    return True


def enabling(net: CompiledNet, m: Sequence[int], gs: Sequence[bool]) -> tuple[bool, ...]:
    """Enabling per flat transition, by ``enabled_row`` on every row."""
    return tuple([enabled_row(net, fi, m, gs) for fi in range(len(net.order))])


def pinned(net: CompiledNet, levels: Sequence[Optional[float]]) -> tuple[frozenset, frozenset]:
    """Continuous places at their lower and at their upper bound.

    ``levels`` holds each place's level, or None where it is not constant.
    """
    at_lower, at_upper = [], []
    for (pid, capacity, finite), level in zip(net.places, levels):
        if level is None:
            continue
        if abs(level) <= EPS:
            at_lower.append(pid)
        if finite and abs(level - capacity) <= EPS:
            at_upper.append(pid)
    return frozenset(at_lower), frozenset(at_upper)


def bound_ahead(drift: float, level: Optional[float], capacity: float,
                finite: bool) -> Optional[bool]:
    """The bound a level heads for: True upper, False lower, None neither.

    ``level`` is None where it is not constant.  A level already at that
    bound (the EPS test of ``pinned``) hits nothing.
    """
    if drift < -EPS:
        return None if level is not None and abs(level) <= EPS else False
    if drift > EPS and finite:
        return None if level is not None and abs(level - capacity) <= EPS else True
    return None


# ---------------------------------------------------------------------------
# rate adaptation

def _water_fill(entries: list[tuple[str, float, float]], budget: float) -> dict[str, float]:
    """Distribute budget among (id, cap, share) proportionally, capped."""
    alloc = {tid: 0.0 for tid, _, _ in entries}
    active = [(tid, cap, share) for tid, cap, share in entries if cap > 0]
    while active and budget > 1e-15:
        total_share = sum(s for _, _, s in active)
        want = [(tid, cap, share, budget * share / total_share) for tid, cap, share in active]
        capped = [(tid, cap, share, w) for tid, cap, share, w in want if w >= cap - 1e-15]
        if not capped:
            for tid, _, _, w in want:
                alloc[tid] += w
            break
        for tid, cap, _, _ in capped:
            alloc[tid] += cap
            budget -= cap
        done = {tid for tid, _, _, _ in capped}
        active = [(tid, cap, share) for tid, cap, share in active if tid not in done]
    return alloc


def rate_adaptation(
    model: HPnGModel,
    enab: dict[str, bool],
    at_lower: set[str],
    at_upper: set[str],
    max_passes: int = 100,
) -> tuple[dict[str, float], dict[str, float]]:
    """Actual flow rates and drifts under boundary adaptation.

    Starts every pass from nominal rates (dynamic nominals recomputed from
    the previous pass's actual static rates), then reduces flows at pinned
    places: inflow down to outflow at an upper bound, outflow down to inflow
    at a lower bound, allocating by descending priority and within one
    priority proportionally to share (capped by nominal).  Repeats until the
    rate vector is stable.
    """
    statics = {t.id: (t.rate if enab[t.id] else 0.0) for t in model.static_continuous}
    actual = dict(statics)
    for t in model.dynamic_continuous:
        actual[t.id] = 0.0

    for _ in range(max_passes):
        prev = dict(actual)
        nominal = dict(statics)
        for t in model.dynamic_continuous:
            if enab[t.id]:
                nominal[t.id] = max(
                    t.constant + sum(c * actual[ref] for ref, c in t.terms), 0.0
                )
            else:
                nominal[t.id] = 0.0
        actual = dict(nominal)

        for place in model.continuous_places:
            pinned_lower = place.id in at_lower
            pinned_upper = place.id in at_upper
            if not (pinned_lower or pinned_upper):
                continue
            ins = model.fluid_inputs(place.id)
            outs = model.fluid_outputs(place.id)
            inflow = sum(actual[a.transition] * a.weight for a in ins)
            outflow = sum(actual[a.transition] * a.weight for a in outs)
            if pinned_upper and inflow > outflow + 1e-12:
                _reduce(model, actual, ins, budget=outflow)
            if pinned_lower and outflow > inflow + 1e-12:
                _reduce(model, actual, outs, budget=inflow)

        if all(abs(actual[k] - prev[k]) <= 1e-12 for k in actual):
            break
    else:
        raise UnsupportedModelError("rate adaptation did not converge")

    drift = {}
    for place in model.continuous_places:
        drift[place.id] = sum(actual[a.transition] * a.weight
                              for a in model.fluid_inputs(place.id)) - \
            sum(actual[a.transition] * a.weight for a in model.fluid_outputs(place.id))
    return actual, drift


def _reduce(model: HPnGModel, actual: dict[str, float], arcs, budget: float) -> None:
    by_prio: dict[int, list] = {}
    for a in arcs:
        t = model.transition(a.transition)
        by_prio.setdefault(t.priority, []).append((a, t))
    for prio in sorted(by_prio, reverse=True):
        group = by_prio[prio]
        need = sum(actual[a.transition] * a.weight for a, _ in group)
        if need <= budget + 1e-15:
            budget -= need
            continue
        entries = [(a.transition, actual[a.transition] * a.weight, t.share)
                   for a, t in group]
        alloc = _water_fill(entries, budget)
        for a, _ in group:
            actual[a.transition] = min(actual[a.transition], alloc[a.transition] / a.weight)
        budget = 0.0


# ---------------------------------------------------------------------------
# state construction

def finalize_state(
    model: HPnGModel,
    m: tuple[int, ...],
    x: tuple[LinearForm, ...],
    c: tuple[LinearForm, ...],
    g: tuple[LinearForm, ...],
    gs_cont: Sequence[Optional[bool]],
    net: Optional[CompiledNet] = None,
) -> SymState:
    """Recompute derived fields (guard truths, enabling, drift) after a change.

    ``gs_cont`` gives the truth of every continuous-place guard; entries for
    discrete-place guards are ignored.  The drift comes from ``net``'s memo
    (``build_plt`` passes one net per build); without a net, one is
    compiled for this call.
    """
    if net is None:
        net = compile_net(model)
    gs = [None if t is None else bool(t) for t in gs_cont]
    set_marking_guards(net, m, gs)
    for ai, _, _, _ in net.continuous_guards:
        if gs[ai] is None:
            raise ValueError(f"continuous guard {ai} truth unknown")
    gs_t = tuple(gs)
    e = enabling(net, m, gs_t)
    at_lower, at_upper = pinned(net, [f.const if f.is_constant() else None for f in x])
    d = net.drift(e, at_lower, at_upper, rate_adaptation)
    return SymState(m, x, c, d, g, e, gs_t)


def initial_state(model: HPnGModel, net: Optional[CompiledNet] = None) -> SymState:
    if net is None:
        net = compile_net(model)
    m = tuple(p.tokens for p in model.discrete_places)
    x = tuple(const(p.level) for p in model.continuous_places)
    n_clocks = len(model.deterministic) + len(model.immediate)
    c = tuple(ZERO for _ in range(n_clocks))
    g = tuple(ZERO for _ in model.general)
    gs_cont: list[Optional[bool]] = [None] * len(model.guard_arcs)
    for ai, pi, op, threshold in net.continuous_guards:
        gs_cont[ai] = _static_truth(op, model.continuous_places[pi].level, threshold)
    return finalize_state(model, m, x, c, g, gs_cont, net)


def evolve(model: HPnGModel, state: SymState, delta: LinearForm,
           net: Optional[CompiledNet] = None) -> SymState:
    """Let time pass: levels move with drift, active clocks accumulate."""
    if net is None:
        net = compile_net(model)
    x = tuple(form + delta.scaled(d) for form, d in zip(state.x, state.d))
    clocks = list(state.c)
    for i, fi in enumerate(net.det_at):
        if state.e[fi]:
            clocks[i] = clocks[i] + delta
    g = list(state.g)
    for i, fi in enumerate(net.gen_at):
        if state.e[fi]:
            g[i] = g[i] + delta
    return replace(state, x=x, c=tuple(clocks), g=tuple(g))


def fire(model: HPnGModel, state: SymState, tid: str,
         net: Optional[CompiledNet] = None) -> tuple[tuple[int, ...], list[LinearForm], list[LinearForm]]:
    """Token moves and clock resets caused by one discrete firing."""
    if net is None:
        net = compile_net(model)
    fi = net.index[tid]
    m = list(state.m)
    for pi, w in net.inputs[fi]:
        m[pi] -= w
        if m[pi] < 0:
            raise RuntimeError(f"firing disabled transition {tid}")
    for pi, w in net.outputs[fi]:
        m[pi] += w
    c = list(state.c)
    kind, idx = model.t_ref[tid]
    if kind is TKind.DETERMINISTIC:
        c[idx] = ZERO
    g = list(state.g)
    if kind is TKind.GENERAL:
        g[idx] = ZERO
    return tuple(m), c, g


# ---------------------------------------------------------------------------
# event detection

def next_events(
    model: HPnGModel, state: SymState, domain: Sequence[SymInterval],
    net: Optional[CompiledNet] = None,
) -> list[Event]:
    """All events that can end the current location.

    Guard crossings, boundary reaches, and immediate/deterministic firings
    carry an affine remaining time; enabled general transitions appear as
    symbolic-delay events.  Events whose remaining time is negative over the
    whole domain are dropped.
    """
    if net is None:
        net = compile_net(model)
    events: list[Event] = []

    for t, fi in zip(model.immediate, net.imm_at):
        if state.e[fi]:
            events.append(Event(EventKind.IMMEDIATE, t.id, ZERO))

    for i, (t, fi) in enumerate(zip(model.deterministic, net.det_at)):
        if state.e[fi]:
            delta = const(t.firing_time) - state.c[i]
            if extremal_value(delta, domain, "max") >= -EPS:
                events.append(Event(EventKind.DETERMINISTIC, t.id, delta))

    for t, fi in zip(model.general, net.gen_at):
        if state.e[fi]:
            events.append(Event(EventKind.GENERAL, t.id, None))

    for (pid, capacity, finite), d, level in zip(net.places, state.d, state.x):
        upper = bound_ahead(d, level.const if level.is_constant() else None,
                            capacity, finite)
        if upper is not None:
            delta = ((const(capacity) - level).scaled(1.0 / d) if upper
                     else level.scaled(-1.0 / d))
            events.append(Event(EventKind.BOUNDARY, pid, delta, at_upper=upper))

    for ai, pi, op, threshold in net.continuous_guards:
        level, d = state.x[pi], state.d[pi]
        crossing = guard_crossing(op, _level_zone(level, threshold, domain), d, state.gs[ai])
        if crossing is not None:
            truth, now = crossing
            delta = ZERO if now else (const(threshold) - level).scaled(1.0 / d)
            events.append(Event(EventKind.GUARD_ARC, guard_key(model, ai), delta,
                                new_truth=truth, arc_index=ai))

    return events


def min_det_events(
    model: HPnGModel, events: list[Event], domain: Sequence[SymInterval]
) -> list[Event]:
    """Deterministic-kind events that are minimal somewhere in the domain.

    An event is dropped iff another one finishes strictly earlier over the
    entire domain; overlapping events survive and get their domains cut
    against each other when children are built.

    Each pair is compared once.  The reverse outcome is derived, not
    recomputed (``ComparisonOutcome.reversed``): it has the same index and
    bound with the kind swapped, because IEEE subtraction and negation are
    antisymmetric.  The bound can differ from a recomputed one only in the
    sign of a zero, which no dominance decision sees.
    """
    det = [ev for ev in events if ev.kind is not EventKind.GENERAL]
    dominated = [False] * len(det)
    for i, ev in enumerate(det):
        for j in range(i + 1, len(det)):
            if dominated[i] and dominated[j]:
                continue
            cmp = compare_remaining_times(ev.delta, det[j].delta)
            dominated[j] = dominated[j] or _beaten(cmp, domain)
            dominated[i] = dominated[i] or _beaten(cmp.reversed(), domain)
    return [ev for ev, dom in zip(det, dominated) if not dom]


def _beaten(cmp: ComparisonOutcome, domain: Sequence[SymInterval]) -> bool:
    """Whether the second form of ``cmp`` is strictly later everywhere in the domain."""
    if cmp.kind is ComparisonKind.ALWAYS_BEFORE:
        return True
    if cmp.kind is ComparisonKind.UPPER_BOUND:
        # first <= second iff o[k] <= bound, so second <= first needs
        # o[k] >= bound somewhere in the domain.
        slack = var(cmp.index) - cmp.bound
    elif cmp.kind is ComparisonKind.LOWER_BOUND:
        slack = cmp.bound - var(cmp.index)
    else:
        return False
    return extremal_value(slack, domain, "max") < -EPS


def winners(candidates: Sequence[tuple[EventKind, int, float]]) -> list[tuple[int, float]]:
    """Winner distribution among coincident events, as (index, probability).

    ``candidates`` holds (kind, priority, weight) per event.  The lowest
    ``EVENT_RANK`` wins.  Among state-change events the first one wins
    (the others are re-detected at zero delay); among firings the top
    priority wins and equal priorities split by weight.
    """
    rank = min(EVENT_RANK[kind] for kind, _, _ in candidates)
    tied = [i for i, (kind, _, _) in enumerate(candidates) if EVENT_RANK[kind] == rank]
    if rank < _FIRING_RANK:
        return [(tied[0], 1.0)]
    top = max(candidates[i][1] for i in tied)
    tied = [i for i in tied if candidates[i][1] == top]
    total = sum(candidates[i][2] for i in tied)
    return [(i, candidates[i][2] / total) for i in tied]


def resolve_conflict(model: HPnGModel, events: list[Event]) -> list[tuple[Event, float]]:
    """Winner distribution among events with identical remaining time (``winners``)."""
    candidates = []
    for ev in events:
        if EVENT_RANK[ev.kind] < _FIRING_RANK:
            candidates.append((ev.kind, 0, 1.0))
        else:
            t = model.transition(ev.target)
            candidates.append((ev.kind, t.priority, t.weight))
    return [(events[i], p) for i, p in winners(candidates)]
