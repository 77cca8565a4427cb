"""Discrete-event simulation with concrete delays.

Runs the symbolic execution rules on plain floats.  Guard truths of
discrete places, enabling, the places pinned at a bound and the drift come
from the same compiled net as the tree build (``semantics.CompiledNet``),
and drifts are memoized on the same key: the enabling vector and the
pinned sets.  The event rules are shared with the tree build too:
``guard_crossing``, ``bound_ahead`` and ``winners``; only the delays are
computed here, on floats.  Tied state-change events resolve to the first
one; only tied firings of equal top priority draw, by weight.  Random
firings draw their total enabled time either from the model distributions
or from a caller-fixed assignment, which makes single runs replayable
against the symbolic tree.  Answers are bit-identical per seed whether or
not a net is shared across runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .model import HPnGModel
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


def _refresh(run: _Run) -> None:
    net = run.net
    set_marking_guards(net, run.m, run.gs)
    run.enab = enabling(net, run.m, run.gs)
    at_lower, at_upper = pinned(net, run.x)
    run.drift = net.drift(run.enab, at_lower, at_upper, rate_adaptation)


def _candidate_events(
    run: _Run, values: dict[tuple[str, int], float], rng
) -> list[tuple[float, EventKind, str, int, float, Optional[bool]]]:
    net = run.net
    model = net.model
    enab, drift, x = run.enab, run.drift, run.x
    out = []

    for t, fi in zip(model.immediate, net.imm_at):
        if enab[fi]:
            out.append((0.0, EventKind.IMMEDIATE, t.id, t.priority, t.weight, None))
    for i, (t, fi) in enumerate(zip(model.deterministic, net.det_at)):
        if enab[fi]:
            out.append((t.firing_time - run.clocks[i], EventKind.DETERMINISTIC,
                        t.id, t.priority, t.weight, None))
    for i, (t, fi) in enumerate(zip(model.general, net.gen_at)):
        if enab[fi]:
            key = (t.id, run.counts[i])
            if key not in values:
                values[key] = float(sample(t.distribution, rng, 1)[0])
            out.append((values[key] - run.g[i], EventKind.GENERAL,
                        t.id, 0, 1.0, None))

    for (pid, capacity, finite), d, lvl in zip(net.places, drift, x):
        upper = bound_ahead(d, lvl, capacity, finite)
        if upper is not None:
            delta = (capacity - lvl) / d if upper else lvl / -d
            out.append((delta, EventKind.BOUNDARY, pid, 0, 1.0, None))

    for i, pi, op, threshold in net.continuous_guards:
        lvl, d = x[pi], drift[pi]
        if abs(lvl - threshold) <= EPS:
            zone = "at"
        elif lvl < threshold:
            zone = "below"
        else:
            zone = "above"
        crossing = guard_crossing(op, zone, d, run.gs[i])
        if crossing is not None:
            truth, now = crossing
            delta = 0.0 if now else (threshold - lvl) / d
            out.append((delta, EventKind.GUARD_ARC, f"g{i}", 0, 1.0, truth))
    return out


def _advance(run: _Run, delta: float) -> None:
    net = run.net
    run.time += delta
    x = run.x
    for k, ((_, capacity, finite), d) in enumerate(zip(net.places, run.drift)):
        lvl = x[k] + d * delta
        x[k] = min(max(lvl, 0.0), capacity) if finite else max(lvl, 0.0)
    for i, fi in enumerate(net.det_at):
        if run.enab[fi]:
            run.clocks[i] += delta
    for i, fi in enumerate(net.gen_at):
        if run.enab[fi]:
            run.g[i] += delta


def _apply(run: _Run, ev: SimEvent, values: dict, fired: list) -> None:
    net = run.net
    model = net.model
    if ev.kind in (EventKind.IMMEDIATE, EventKind.DETERMINISTIC, EventKind.GENERAL):
        tid = ev.target
        fi = net.index[tid]
        for pi, w in net.inputs[fi]:
            run.m[pi] -= w
        for pi, w in net.outputs[fi]:
            run.m[pi] += w
        _, idx = model.t_ref[tid]
        if ev.kind is EventKind.DETERMINISTIC:
            run.clocks[idx] = 0.0
        if ev.kind is EventKind.GENERAL:
            count = run.counts[idx]
            fired.append((tid, count, values[(tid, count)], run.time))
            run.counts[idx] += 1
            run.g[idx] = 0.0
    elif ev.kind is EventKind.BOUNDARY:
        k = model.cp_index[ev.target]
        run.x[k] = net.places[k][1] if run.drift[k] > 0 else 0.0
    elif ev.kind is EventKind.GUARD_ARC:
        run.gs[int(ev.target[1:])] = bool(ev.truth)


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
    share its drift memo; without it the run compiles its own.
    """
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
    for i, pi, op, threshold in net.continuous_guards:   # discrete ones: _refresh
        run.gs[i] = _static_truth(op, run.x[pi], threshold)
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

    for _ in range(MAX_STEPS):
        _refresh(run)
        events = _candidate_events(run, values, rng)
        events = [e for e in events if e[0] >= -EPS]
        if not events:
            break
        best = min(e[0] for e in events)
        if run.time + best > tau_max + EPS:
            break
        tied = [e for e in events if e[0] <= best + EPS]
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
        ev = SimEvent(run.time, choice[1], choice[2], choice[5])
        _apply(run, ev, values, fired)
        if keep_trace:
            trace.append(ev)
    else:
        raise ResourceLimitError(f"simulation exceeded the step limit of {MAX_STEPS}")

    _refresh(run)
    if run.time < tau_max:
        if observe_at is not None and tau_max >= observe_at - EPS:
            observe(tau_max - run.time)
        _advance(run, tau_max - run.time)
    elif observe_at is not None:
        observe(0.0)

    return SimResult(run.time, dict(zip(marking_ids, run.m)), dict(zip(place_ids, run.x)),
                     trace, fired, obs_m, obs_x)


@dataclass
class SimEstimate:
    """A simulated probability with its error.

    ``sigma`` is the plug-in binomial standard error, which is 0 when no
    run or every run hits; ``half_width`` is the half width of the z-scaled
    Wilson score interval, which stays open there.  ``error``, that half
    width divided by z, is the error the command line reports.
    """

    p: float
    sigma: float
    runs: int
    half_width: float
    z: float

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
    if not (-EPS <= t_prime <= tau_max + EPS):
        raise ValueError(f"observation time {t_prime} outside [0, {tau_max}]")
    net = compile_net(model)    # shared by every run, with its drift memo
    hits = 0
    n = 0
    while n < runs:
        rng = stream(seed, n)
        res = simulate_run(model, tau_max, rng=rng, observe_at=t_prime, net=net)
        if holds_concrete(model, atoms, res.observed_marking, res.observed_levels):
            hits += 1
        n += 1
        if (half_width is not None and n >= min_runs
                and _wilson_half_width(hits, n, z) <= half_width):
            break
    p = hits / n
    sigma = float(np.sqrt(max(p * (1 - p), 0.0) / n))
    return SimEstimate(p, sigma, n, _wilson_half_width(hits, n, z), z)
