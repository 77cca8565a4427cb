"""Discrete-event simulation with concrete delays.

Runs the symbolic execution rules on plain floats, on the compiled net of
the tree build (``semantics.CompiledNet``).  A run moves through *modes*.
A mode is the enabling vector, the guard-arc truths and the places pinned
at their lower and at their upper bound; markings and levels are not part
of it, so a net has finitely many.  A mode fixes the drift, which firings
are candidates and which clocks run, the bound each moving level heads
for, and each continuous guard's next crossing for each zone of its level.
The first step in a mode builds its plan (``_Plan``) from the rules the
tree build uses (the net's drift memo, ``bound_ahead``,
``guard_crossing``) and keeps it in the net's ``plans`` memo.  A step then
does float arithmetic on the plan's rows: one pass for the earliest delay
and the events tied with it, ``winners`` on a tie, then ``_advance`` and
``_apply``.  After an event only the enabling rows and discrete guards it
can change are re-evaluated (``CompiledNet.depends``), by the rule of
``enabling``.  Tied state-change events resolve to the first one; only
tied firings of equal top priority draw, by weight.  Random firings draw
their total enabled time either from the model distributions or from a
caller-fixed assignment, which makes single runs replayable against the
symbolic tree.  Answers are bit-identical per seed whether or not a net is
shared across runs.
"""

from __future__ import annotations

from dataclasses import dataclass
import math
from typing import Optional

import numpy as np

from .model import DistributionSpec, HPnGModel
from .montecarlo import sample, stream
from .props import Atom, holds_concrete
from .semantics import (
    _static_truth,
    CompiledNet,
    EventKind,
    ResourceLimitError,
    bound_ahead,
    check_horizon,
    compile_net,
    enabled_row,
    enabling,
    guard_crossing,
    pinned,
    rate_adaptation,
    set_marking_guards,
    winners,
)
from .symbolic import EPS

MAX_STEPS = 1_000_000


@dataclass(frozen=True)
class SimEvent:
    time: float
    kind: EventKind
    target: str
    truth: Optional[bool] = None   # guard crossings: stored truth afterwards


@dataclass
class SimResult:
    end_time: float
    marking: dict[str, int]
    levels: dict[str, float]
    trace: list[SimEvent]
    fired: list[tuple[str, int, float, float]]  # transition, index, value, time
    observed_marking: Optional[dict[str, int]] = None
    observed_levels: Optional[dict[str, float]] = None
    steps: int = 0          # events applied


@dataclass
class _Run:
    """One run's state, indexed like the model's lists."""

    net: CompiledNet
    time: float
    m: list[int]            # tokens per discrete place
    x: list[float]          # level per continuous place
    clocks: list[float]     # per deterministic transition
    g: list[float]          # enabled time per general transition
    counts: list[int]       # firings so far per general transition
    gs: list[bool]          # guard-arc truths
    enab: tuple[bool, ...] = ()
    drift: tuple[float, ...] = ()
    plan: Optional[_Plan] = None


@dataclass(frozen=True)
class _Plan:
    """What every step in one mode reuses, built once per mode.

    The rows hold only the enabled transitions and the bounds and guard
    crossings the mode's drift can reach, so a step does float arithmetic
    on them and nothing else.
    """

    enab: tuple[bool, ...]
    drift: tuple[float, ...]
    immediate: tuple[tuple, ...]    # each enabled immediate firing's event, at delay 0
    deterministic: tuple[tuple[int, float, str, int, float], ...]  # (clock, firing time, id, priority, weight)
    general: tuple[tuple[int, str, DistributionSpec], ...]         # (clock, id, distribution)
    bounds: tuple[tuple[int, bool, float, float, str], ...]  # (place, upper, capacity, drift or -drift, id)
    guards: tuple[tuple[int, float, float, tuple, tuple, tuple], ...]
    # (place, threshold, drift, then the event at, below and above the
    # threshold: None, or a delay of None for a crossing still ahead)
    moving: tuple[tuple[int, float, float], ...]  # (place, drift, capacity), nonzero drifts only


def _plan(run: _Run, at_lower: frozenset, at_upper: frozenset) -> _Plan:
    """The step plan of the run's mode.

    ``bound_ahead`` tests a level only against the bounds ``pinned`` put in
    the mode, so its answer for the run's levels holds in the whole mode.
    """
    net, enab, gs, x = run.net, run.enab, run.gs, run.x
    model = net.model
    drift = net.drift(enab, at_lower, at_upper, rate_adaptation)
    immediate = tuple((0.0, EventKind.IMMEDIATE, t.id, t.priority, t.weight, None)
                      for t, fi in zip(model.immediate, net.imm_at) if enab[fi])
    deterministic = tuple(
        (i, t.firing_time, t.id, t.priority, t.weight)
        for i, (t, fi) in enumerate(zip(model.deterministic, net.det_at)) if enab[fi])
    general = tuple((i, t.id, t.distribution)
                    for i, (t, fi) in enumerate(zip(model.general, net.gen_at)) if enab[fi])
    bounds = []
    for k, ((pid, capacity, finite), d) in enumerate(zip(net.places, drift)):
        upper = bound_ahead(d, x[k], capacity, finite)
        if upper is not None:
            bounds.append((k, upper, capacity, d if upper else -d, pid))
    guards = []
    for i, pi, op, threshold in net.continuous_guards:
        d = drift[pi]
        by_zone = []
        for zone in ("at", "below", "above"):
            crossing = guard_crossing(op, zone, d, gs[i])
            if crossing is not None:
                truth, now = crossing
                crossing = (0.0 if now else None, EventKind.GUARD_ARC, f"g{i}", 0, 1.0, truth)
            by_zone.append(crossing)
        if any(by_zone):
            guards.append((pi, threshold, d, *by_zone))
    return _Plan(
        enab=enab,
        drift=drift,
        immediate=immediate,
        deterministic=deterministic,
        general=general,
        bounds=tuple(bounds),
        guards=tuple(guards),
        moving=tuple((k, d, capacity) for k, ((_, capacity, _), d)
                     in enumerate(zip(net.places, drift)) if d != 0.0),
    )


def _enter(run: _Run) -> None:
    """Put the run in the plan of its mode, building the plan on first entry."""
    net = run.net
    at_lower, at_upper = pinned(net, run.x)
    key = (run.enab, tuple(run.gs), at_lower, at_upper)
    plan = net.plans.get(key)
    if plan is None:
        plan = net.plans[key] = _plan(run, at_lower, at_upper)
    run.plan = plan
    run.drift = plan.drift


def _reenable(run: _Run, rows: tuple[int, ...]) -> None:
    """Re-evaluate the enabling of ``rows``, the only rows the last event can change."""
    enab = list(run.enab)
    for fi in rows:
        enab[fi] = enabled_row(run.net, fi, run.m, run.gs)
    run.enab = tuple(enab)


def _candidate_events(
    run: _Run, values: dict[tuple[str, int], float], rng
) -> list[tuple[float, EventKind, str, int, float, Optional[bool]]]:
    """Candidates in the run's mode: (delay, kind, target, priority, weight, truth after)."""
    plan = run.plan
    out = list(plan.immediate)
    clocks = run.clocks
    for i, firing_time, tid, priority, weight in plan.deterministic:
        out.append((firing_time - clocks[i], EventKind.DETERMINISTIC,
                    tid, priority, weight, None))
    counts, g = run.counts, run.g
    for i, tid, dist in plan.general:
        key = (tid, counts[i])
        if key not in values:
            values[key] = float(sample(dist, rng, 1)[0])
        out.append((values[key] - g[i], EventKind.GENERAL, tid, 0, 1.0, None))
    x = run.x
    for k, upper, capacity, d, pid in plan.bounds:
        delta = (capacity - x[k]) / d if upper else x[k] / d
        out.append((delta, EventKind.BOUNDARY, pid, 0, 1.0, None))
    for pi, threshold, d, at, below, above in plan.guards:
        lvl = x[pi]
        if abs(lvl - threshold) <= EPS:
            ev = at
        elif lvl < threshold:
            ev = below
        else:
            ev = above
        if ev is not None:
            out.append(ev if ev[0] is not None else ((threshold - lvl) / d, *ev[1:]))
    return out


def _advance(run: _Run, delta: float) -> None:
    plan = run.plan
    run.time += delta
    x = run.x
    for k, d, capacity in plan.moving:
        lvl = x[k] + d * delta
        x[k] = 0.0 if lvl < 0.0 else capacity if lvl > capacity else lvl
    clocks, g = run.clocks, run.g
    for row in plan.deterministic:     # the clocks of enabled transitions run
        clocks[row[0]] += delta
    for row in plan.general:
        g[row[0]] += delta


def _apply(run: _Run, ev: tuple, values: dict, fired: list) -> None:
    """Apply the chosen candidate event ``ev``, then enter the mode it leads to."""
    net = run.net
    _, kind, target, _, _, truth = ev
    if kind is EventKind.BOUNDARY:
        k = net.model.cp_index[target]
        run.x[k] = net.places[k][1] if run.drift[k] > 0 else 0.0
    elif kind is EventKind.GUARD_ARC:
        ai = int(target[1:])
        run.gs[ai] = bool(truth)
        _reenable(run, (net.index[net.model.guard_arcs[ai].transition],))
    else:
        fi = net.index[target]
        m = run.m
        for pi, w in net.inputs[fi]:
            m[pi] -= w
        for pi, w in net.outputs[fi]:
            m[pi] += w
        _, idx = net.model.t_ref[target]
        if kind is EventKind.DETERMINISTIC:
            run.clocks[idx] = 0.0
        elif kind is EventKind.GENERAL:
            count = run.counts[idx]
            fired.append((target, count, values[(target, count)], run.time))
            run.counts[idx] += 1
            run.g[idx] = 0.0
        guards, rows = net.depends[fi]
        for ai, pi, op, threshold in guards:
            run.gs[ai] = _static_truth(op, float(m[pi]), threshold)
        _reenable(run, rows)
    _enter(run)


def _check_observation(observe_at: float, tau_max: float) -> None:
    if not (-EPS <= observe_at <= tau_max + EPS):
        raise ValueError(f"observation time {observe_at} outside [0, {tau_max}]")


def simulate_run(
    model: HPnGModel,
    tau_max: float,
    assignment: Optional[dict[tuple[str, int], float]] = None,
    rng: Optional[np.random.Generator] = None,
    observe_at: Optional[float] = None,
    keep_trace: bool = False,
    net: Optional[CompiledNet] = None,
) -> SimResult:
    """One run up to tau_max.

    ``assignment`` fixes random firing values as total enabled time per
    (transition, firing index); missing entries are sampled from ``rng``.
    ``observe_at`` records marking and levels at that time point.  ``net``
    is the compiled model, shared by the runs of one estimate so they
    share its drift and plan memos; without it the run compiles its own.
    Raises ``ValueError`` unless tau_max is finite and >= 0 and observe_at
    lies in [0, tau_max] (up to EPS).
    """
    check_horizon(tau_max)
    if observe_at is not None:
        _check_observation(observe_at, tau_max)
    if rng is None:
        rng = stream(0, 0)
    if net is None:
        net = compile_net(model)
    values = dict(assignment) if assignment else {}
    run = _Run(
        net=net,
        time=0.0,
        m=[p.tokens for p in model.discrete_places],
        x=[p.level for p in model.continuous_places],
        clocks=[0.0] * len(model.deterministic),
        g=[0.0] * len(model.general),
        counts=[0] * len(model.general),
        gs=[False] * len(model.guard_arcs),
    )
    for i, pi, op, threshold in net.continuous_guards:
        run.gs[i] = _static_truth(op, run.x[pi], threshold)
    set_marking_guards(net, run.m, run.gs)
    run.enab = enabling(net, run.m, run.gs)
    _enter(run)
    place_ids = [pid for pid, _, _ in net.places]
    marking_ids = [p.id for p in model.discrete_places]

    trace: list[SimEvent] = []
    fired: list[tuple[str, int, float, float]] = []
    obs_m: Optional[dict[str, int]] = None
    obs_x: Optional[dict[str, float]] = None

    def observe(now_delta: float) -> None:
        nonlocal obs_m, obs_x
        if observe_at is None or obs_m is not None:
            return
        if run.time + now_delta >= observe_at - EPS:
            dt = observe_at - run.time
            obs_m = dict(zip(marking_ids, run.m))
            obs_x = {pid: lvl + d * dt for pid, lvl, d in zip(place_ids, run.x, run.drift)}

    horizon = tau_max + EPS
    for steps in range(MAX_STEPS):     # steps: the events applied so far
        # the earliest candidates at or after now, and those tied with them
        best, tied = math.inf, []
        for e in _candidate_events(run, values, rng):
            delay = e[0]
            if not -EPS <= delay <= best + EPS:
                continue
            if delay < best:
                best = delay
                if tied:
                    tied = [t for t in tied if t[0] <= delay + EPS]
            tied.append(e)
        if run.time + best > horizon:    # also when there is no candidate
            break
        if len(tied) == 1:
            choice = tied[0]
        else:
            won = winners([(e[1], e[3], e[4]) for e in tied])
            k = 0 if len(won) == 1 else int(rng.choice(len(won), p=[p for _, p in won]))
            choice = tied[won[k][0]]
        delta = max(best, 0.0)
        if observe_at is not None and run.time + delta > observe_at + EPS:
            observe(delta)
        _advance(run, delta)
        _apply(run, choice, values, fired)
        if keep_trace:
            trace.append(SimEvent(run.time, choice[1], choice[2], choice[5]))
    else:
        raise ResourceLimitError(f"simulation exceeded the step limit of {MAX_STEPS}")

    if run.time < tau_max:
        if observe_at is not None and tau_max >= observe_at - EPS:
            observe(tau_max - run.time)
        _advance(run, tau_max - run.time)
    elif observe_at is not None:
        observe(0.0)

    return SimResult(run.time, dict(zip(marking_ids, run.m)), dict(zip(place_ids, run.x)),
                     trace, fired, obs_m, obs_x, steps)


@dataclass
class SimEstimate:
    """A simulated probability with its error.

    ``sigma`` is the plug-in binomial standard error, which is 0 when no
    run or every run hits; ``half_width`` is the half width of the z-scaled
    Wilson score interval, which stays open there.  ``error``, that half
    width divided by z, is the error the command line reports.
    ``steps`` counts the events applied over all runs and ``modes`` the step
    plans built, so 1 - modes / steps is the share of steps that found
    their plan in the memo.
    """

    p: float
    sigma: float
    runs: int
    half_width: float
    z: float
    steps: int
    modes: int

    @property
    def error(self) -> float:
        return self.half_width / self.z


def _wilson_half_width(hits: int, n: int, z: float) -> float:
    """Half the width of the Wilson score interval for ``hits`` out of ``n``.

    Unlike the Wald interval it stays open when no run or every run hits.
    """
    p = hits / n
    z2n = z * z / n
    return z / (1.0 + z2n) * float(np.sqrt(p * (1.0 - p) / n + z2n / (4.0 * n)))


def estimate_probability(
    model: HPnGModel,
    tau_max: float,
    t_prime: float,
    atoms: list[Atom],
    seed: int = 0,
    runs: int = 10_000,
    min_runs: int = 100,
    half_width: Optional[float] = None,
    z: float = 1.96,
) -> SimEstimate:
    """Fraction of runs satisfying the property at t_prime.

    ``sigma`` is the binomial standard error at the observed fraction, and
    ``half_width`` the half width of the z-scaled Wilson score interval.
    Stops early once that half width drops under ``half_width`` (when
    given), but never before ``min_runs`` runs.  Raises ``ValueError``
    unless tau_max is finite and >= 0 and runs >= 1.
    """
    check_horizon(tau_max)
    if runs < 1:
        raise ValueError(f"runs must be at least 1, not {runs}")
    _check_observation(t_prime, tau_max)
    net = compile_net(model)    # shared by every run, with its drift and plan memos
    hits = 0
    n = 0
    steps = 0
    while n < runs:
        rng = stream(seed, n)
        res = simulate_run(model, tau_max, rng=rng, observe_at=t_prime, net=net)
        if holds_concrete(model, atoms, res.observed_marking, res.observed_levels):
            hits += 1
        n += 1
        steps += res.steps
        if (half_width is not None and n >= min_runs
                and _wilson_half_width(hits, n, z) <= half_width):
            break
    p = hits / n
    sigma = float(np.sqrt(max(p * (1 - p), 0.0) / n))
    return SimEstimate(p, sigma, n, _wilson_half_width(hits, n, z), z, steps, len(net.plans))
