"""Symbolic execution semantics: enabling, rate adaptation, next events.

A symbolic state mirrors a concrete net state except that fluid levels,
clocks and accumulated enabling times are affine forms over the expired
random firings.  Within one location every comparison a rule needs (level
vs. guard threshold, level vs. boundary) has a uniform answer over the
location's domain, which the event machinery guarantees by splitting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
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


class EventKind(Enum):
    GUARD_ARC = "guardArc"
    BOUNDARY = "boundary"
    IMMEDIATE = "immediateFiring"
    DETERMINISTIC = "deterministicFiring"
    GENERAL = "generalFiring"


#: Precedence among coincident events, highest first.  State-change events
#: outrank firings so that enabling updates are visible to the firings they
#: coincide with.
EVENT_CLASS_ORDER: tuple[EventKind, ...] = (
    EventKind.GUARD_ARC,
    EventKind.BOUNDARY,
    EventKind.IMMEDIATE,
    EventKind.DETERMINISTIC,
)


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


def flat_index(model: HPnGModel, tid: str) -> int:
    kind, i = model.t_ref[tid]
    offset = 0
    for k in (TKind.DETERMINISTIC, TKind.IMMEDIATE, TKind.GENERAL,
              TKind.STATIC, TKind.DYNAMIC):
        if k is kind:
            return offset + i
        offset += len(model.transitions_of(k))
    raise KeyError(tid)


def guard_key(model: HPnGModel, arc_index: int) -> str:
    a = model.guard_arcs[arc_index]
    return f"{a.place}{a.op}{a.threshold:g}@{a.transition}"


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


def _enabling_vector(model: HPnGModel, m: tuple[int, ...], gs: tuple[bool, ...]) -> tuple[bool, ...]:
    probe = SymState(m, (), (), (), (), (), gs)
    return tuple(enabled(model, probe, tid) for tid in flat_order(model))


def _marking_guard_truths(model: HPnGModel, m: tuple[int, ...],
                          prev: Optional[tuple[bool, ...]]) -> list[Optional[bool]]:
    """Truths for discrete-place guards; continuous ones keep their old value."""
    out: list[Optional[bool]] = []
    for i, arc in enumerate(model.guard_arcs):
        if arc.place in model.dp_index:
            out.append(_static_truth(arc.op, float(m[model.dp_index[arc.place]]),
                                     arc.threshold))
        else:
            out.append(None if prev is None else prev[i])
    return out


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

def _pinned(model: HPnGModel, x: tuple[LinearForm, ...]) -> tuple[set[str], set[str]]:
    at_lower, at_upper = set(), set()
    for place, form in zip(model.continuous_places, x):
        if form.is_constant():
            if abs(form.const) <= EPS:
                at_lower.add(place.id)
            if not math.isinf(place.capacity) and abs(form.const - place.capacity) <= EPS:
                at_upper.add(place.id)
    return at_lower, at_upper


def finalize_state(
    model: HPnGModel,
    m: tuple[int, ...],
    x: tuple[LinearForm, ...],
    c: tuple[LinearForm, ...],
    g: tuple[LinearForm, ...],
    gs_cont: Sequence[Optional[bool]],
    drifts: Optional[dict] = None,
) -> SymState:
    """Recompute derived fields (guard truths, enabling, drift) after a change.

    The drift depends only on the enabling vector and the places pinned at
    a bound.  ``drifts``, when given, memoizes it on that key across calls
    on one model (``build_plt`` passes one dict per build).
    """
    truths = _marking_guard_truths(model, m, None)
    gs = []
    for i, t in enumerate(truths):
        if t is None:
            if gs_cont[i] is None:
                raise ValueError(f"continuous guard {i} truth unknown")
            gs.append(bool(gs_cont[i]))
        else:
            gs.append(t)
    gs_t = tuple(gs)
    e = _enabling_vector(model, m, gs_t)
    at_lower, at_upper = _pinned(model, x)
    key = (e, frozenset(at_lower), frozenset(at_upper))
    d = None if drifts is None else drifts.get(key)
    if d is None:
        _, drift = rate_adaptation(model, dict(zip(flat_order(model), e)), at_lower, at_upper)
        d = tuple(drift[p.id] for p in model.continuous_places)
        if drifts is not None:
            drifts[key] = d
    return SymState(m, x, c, d, g, e, gs_t)


def initial_state(model: HPnGModel) -> SymState:
    m = tuple(p.tokens for p in model.discrete_places)
    x = tuple(const(p.level) for p in model.continuous_places)
    n_clocks = len(model.deterministic) + len(model.immediate)
    c = tuple(ZERO for _ in range(n_clocks))
    g = tuple(ZERO for _ in model.general)
    gs_cont: list[Optional[bool]] = []
    for arc in model.guard_arcs:
        if arc.place in model.cp_index:
            level = model.continuous_places[model.cp_index[arc.place]].level
            gs_cont.append(_static_truth(arc.op, level, arc.threshold))
        else:
            gs_cont.append(None)
    return finalize_state(model, m, x, c, g, gs_cont)


def evolve(model: HPnGModel, state: SymState, delta: LinearForm) -> SymState:
    """Let time pass: levels move with drift, active clocks accumulate."""
    x = tuple(form + delta.scaled(d) for form, d in zip(state.x, state.d))
    clocks = list(state.c)
    for i, t in enumerate(model.deterministic):
        if state.e[flat_index(model, t.id)]:
            clocks[i] = clocks[i] + delta
    g = list(state.g)
    for i, t in enumerate(model.general):
        if state.e[flat_index(model, t.id)]:
            g[i] = g[i] + delta
    return replace(state, x=x, c=tuple(clocks), g=tuple(g))


def fire(model: HPnGModel, state: SymState, tid: str) -> tuple[tuple[int, ...], list[LinearForm], list[LinearForm]]:
    """Token moves and clock resets caused by one discrete firing."""
    m = list(state.m)
    for arc in model.input_arcs(tid):
        m[model.dp_index[arc.place]] -= arc.weight
        if m[model.dp_index[arc.place]] < 0:
            raise RuntimeError(f"firing disabled transition {tid}")
    for arc in model.output_arcs(tid):
        m[model.dp_index[arc.place]] += arc.weight
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
    model: HPnGModel, state: SymState, domain: Sequence[SymInterval]
) -> list[Event]:
    """All events that can end the current location.

    Guard crossings, boundary reaches, and immediate/deterministic firings
    carry an affine remaining time; enabled general transitions appear as
    symbolic-delay events.  Events whose remaining time is negative over the
    whole domain are dropped.
    """
    events: list[Event] = []

    for i, t in enumerate(model.immediate):
        if state.e[flat_index(model, t.id)]:
            events.append(Event(EventKind.IMMEDIATE, t.id, ZERO))

    for i, t in enumerate(model.deterministic):
        if state.e[flat_index(model, t.id)]:
            delta = const(t.firing_time) - state.c[i]
            if extremal_value(delta, domain, "max") >= -EPS:
                events.append(Event(EventKind.DETERMINISTIC, t.id, delta))

    for t in model.general:
        if state.e[flat_index(model, t.id)]:
            events.append(Event(EventKind.GENERAL, t.id, None))

    for pi, place in enumerate(model.continuous_places):
        d = state.d[pi]
        level = state.x[pi]
        if d < -EPS:
            pinned = level.is_constant() and abs(level.const) <= EPS
            if not pinned:
                events.append(Event(EventKind.BOUNDARY, place.id,
                                    level.scaled(-1.0 / d), at_upper=False))
        elif d > EPS and not math.isinf(place.capacity):
            pinned = level.is_constant() and abs(level.const - place.capacity) <= EPS
            if not pinned:
                events.append(Event(EventKind.BOUNDARY, place.id,
                                    (const(place.capacity) - level).scaled(1.0 / d),
                                    at_upper=True))

    for ai, arc in enumerate(model.guard_arcs):
        if arc.place not in model.cp_index:
            continue
        pi = model.cp_index[arc.place]
        d = state.d[pi]
        level = state.x[pi]
        if abs(d) <= EPS:
            # A flat level cannot cross, but its stored truth may be stale:
            # when the level reaches the threshold in the same instant the
            # place gets pinned, only one of the coincident crossings wins
            # the step and the rest must be caught up here at zero delay.
            nz = _level_zone(level, arc.threshold, domain)
            nt = _ZONE_TRUTH[arc.op][nz]
            if nt != state.gs[ai]:
                events.append(Event(EventKind.GUARD_ARC, guard_key(model, ai),
                                    ZERO, new_truth=nt, arc_index=ai))
            continue
        zone = _level_zone(level, arc.threshold, domain)
        order = ("at", "above") if d > 0 else ("at", "below")
        if zone == "above" and d > 0 or zone == "below" and d < 0:
            continue  # moving away from the threshold
        candidates = order if zone != "at" else (order[1],)
        truth = state.gs[ai]
        for nz in candidates:
            nt = _ZONE_TRUTH[arc.op][nz]
            if nt != truth:
                delta = ZERO if zone == "at" else (const(arc.threshold) - level).scaled(1.0 / d)
                events.append(Event(EventKind.GUARD_ARC, guard_key(model, ai), delta,
                                    new_truth=nt, arc_index=ai))
                break

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


def resolve_conflict(model: HPnGModel, events: list[Event]) -> list[tuple[Event, float]]:
    """Winner distribution among events with identical remaining time.

    State-change events outrank firings (only one is applied; followers are
    re-detected at zero delay), immediates beat deterministics, higher
    priority wins outright, and equal priorities split by weight.
    """
    best_class = min(EVENT_CLASS_ORDER.index(ev.kind) for ev in events)
    cls = EVENT_CLASS_ORDER[best_class]
    group = [ev for ev in events if ev.kind is cls]
    if cls in (EventKind.GUARD_ARC, EventKind.BOUNDARY):
        return [(group[0], 1.0)]
    prios = {}
    for ev in group:
        t = model.transition(ev.target)
        prios.setdefault(t.priority, []).append((ev, t.weight))
    top = prios[max(prios)]
    total = sum(w for _, w in top)
    return [(ev, w / total) for ev, w in top]
