"""Discrete-event simulation with concrete delays.

Mirrors the symbolic execution rules on plain floats: same enabling and
guard conventions, same rate adaptation, same event precedence.  Random
firings draw their total enabled time either from the model distributions
or from a caller-fixed assignment, which makes single runs replayable
against the symbolic tree.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .model import HPnGModel, TKind
from .montecarlo import sample, stream
from .props import Atom, holds_concrete
from .semantics import (
    _ZONE_TRUTH,
    _static_truth,
    EventKind,
    ResourceLimitError,
    rate_adaptation,
)

EPS_SIM = 1e-9
MAX_STEPS = 1_000_000

_CLASS_RANK = {
    EventKind.GUARD_ARC: 0,
    EventKind.BOUNDARY: 1,
    EventKind.IMMEDIATE: 2,
    EventKind.DETERMINISTIC: 3,
    EventKind.GENERAL: 3,
}


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
    model: HPnGModel
    time: float
    m: dict[str, int]
    x: dict[str, float]
    clocks: dict[str, float]
    g: dict[str, float]
    counts: dict[str, int]
    gs: list[bool]
    enab: dict[str, bool] = field(default_factory=dict)
    drift: dict[str, float] = field(default_factory=dict)


def _refresh(run: _Run) -> None:
    model = run.model
    for i, arc in enumerate(model.guard_arcs):
        if arc.place in model.dp_index:
            run.gs[i] = _static_truth(arc.op, float(run.m[arc.place]), arc.threshold)
    enab = {}
    for tid, (kind, _) in model.t_ref.items():
        ok = all(run.gs[i] for i, a in enumerate(model.guard_arcs) if a.transition == tid)
        if ok and kind in (TKind.DETERMINISTIC, TKind.IMMEDIATE, TKind.GENERAL):
            ok = all(run.m[a.place] >= a.weight for a in model.input_arcs(tid))
        enab[tid] = ok
    run.enab = enab
    at_lower = {p.id for p in model.continuous_places if abs(run.x[p.id]) <= EPS_SIM}
    at_upper = {
        p.id for p in model.continuous_places
        if not np.isinf(p.capacity) and abs(run.x[p.id] - p.capacity) <= EPS_SIM
    }
    _, run.drift = rate_adaptation(model, enab, at_lower, at_upper)


def _candidate_events(
    run: _Run, values: dict[tuple[str, int], float], rng
) -> list[tuple[float, EventKind, str, int, float, Optional[bool]]]:
    model = run.model
    out = []

    for t in model.immediate:
        if run.enab[t.id]:
            out.append((0.0, EventKind.IMMEDIATE, t.id, t.priority, t.weight, None))
    for t in model.deterministic:
        if run.enab[t.id]:
            out.append((t.firing_time - run.clocks[t.id], EventKind.DETERMINISTIC,
                        t.id, t.priority, t.weight, None))
    for t in model.general:
        if run.enab[t.id]:
            key = (t.id, run.counts[t.id])
            if key not in values:
                values[key] = float(sample(t.distribution, rng, 1)[0])
            out.append((values[key] - run.g[t.id], EventKind.GENERAL,
                        t.id, 0, 1.0, None))

    for p in model.continuous_places:
        d = run.drift.get(p.id, 0.0)
        lvl = run.x[p.id]
        if d < -EPS_SIM and lvl > EPS_SIM:
            out.append((lvl / -d, EventKind.BOUNDARY, p.id, 0, 1.0, None))
        elif d > EPS_SIM and not np.isinf(p.capacity) and p.capacity - lvl > EPS_SIM:
            out.append(((p.capacity - lvl) / d, EventKind.BOUNDARY, p.id, 0, 1.0, None))

    for i, arc in enumerate(model.guard_arcs):
        if arc.place not in model.cp_index:
            continue
        d = run.drift.get(arc.place, 0.0)
        lvl = run.x[arc.place]
        if abs(lvl - arc.threshold) <= EPS_SIM:
            zone = "at"
        elif lvl < arc.threshold:
            zone = "below"
        else:
            zone = "above"
        if abs(d) <= EPS_SIM:
            # Flat level: no crossing, but reconcile a stale stored truth
            # (the crossing may have coincided with the place pinning).
            nt = _ZONE_TRUTH[arc.op][zone]
            if nt != run.gs[i]:
                out.append((0.0, EventKind.GUARD_ARC, f"g{i}", 0, 1.0, nt))
            continue
        order = ("at", "above") if d > 0 else ("at", "below")
        if (zone == "above" and d > 0) or (zone == "below" and d < 0):
            continue
        candidates = order if zone != "at" else (order[1],)
        for nz in candidates:
            nt = _ZONE_TRUTH[arc.op][nz]
            if nt != run.gs[i]:
                delta = 0.0 if zone == "at" else (arc.threshold - lvl) / d
                out.append((delta, EventKind.GUARD_ARC, f"g{i}", 0, 1.0, nt))
                break
    return out


def _advance(run: _Run, delta: float) -> None:
    model = run.model
    run.time += delta
    for p in model.continuous_places:
        lvl = run.x[p.id] + run.drift.get(p.id, 0.0) * delta
        lo, hi = 0.0, p.capacity
        run.x[p.id] = min(max(lvl, lo), hi) if not np.isinf(hi) else max(lvl, lo)
    for t in model.deterministic:
        if run.enab[t.id]:
            run.clocks[t.id] += delta
    for t in model.general:
        if run.enab[t.id]:
            run.g[t.id] += delta


def _apply(run: _Run, ev: SimEvent, values: dict, fired: list) -> None:
    model = run.model
    if ev.kind in (EventKind.IMMEDIATE, EventKind.DETERMINISTIC, EventKind.GENERAL):
        tid = ev.target
        for a in model.input_arcs(tid):
            run.m[a.place] -= a.weight
        for a in model.output_arcs(tid):
            run.m[a.place] += a.weight
        if ev.kind is EventKind.DETERMINISTIC:
            run.clocks[tid] = 0.0
        if ev.kind is EventKind.GENERAL:
            idx = run.counts[tid]
            fired.append((tid, idx, values[(tid, idx)], run.time))
            run.counts[tid] += 1
            run.g[tid] = 0.0
    elif ev.kind is EventKind.BOUNDARY:
        p = next(pl for pl in model.continuous_places if pl.id == ev.target)
        d = run.drift.get(p.id, 0.0)
        run.x[p.id] = p.capacity if d > 0 else 0.0
    elif ev.kind is EventKind.GUARD_ARC:
        run.gs[int(ev.target[1:])] = bool(ev.truth)


def simulate_run(
    model: HPnGModel,
    tau_max: float,
    assignment: Optional[dict[tuple[str, int], float]] = None,
    rng: Optional[np.random.Generator] = None,
    observe_at: Optional[float] = None,
    keep_trace: bool = False,
) -> SimResult:
    """One run up to tau_max.

    ``assignment`` fixes random firing values as total enabled time per
    (transition, firing index); missing entries are sampled from ``rng``.
    ``observe_at`` records marking and levels at that time point.
    """
    if rng is None:
        rng = stream(0, 0)
    values = dict(assignment) if assignment else {}
    run = _Run(
        model=model,
        time=0.0,
        m={p.id: p.tokens for p in model.discrete_places},
        x={p.id: p.level for p in model.continuous_places},
        clocks={t.id: 0.0 for t in model.deterministic},
        g={t.id: 0.0 for t in model.general},
        counts={t.id: 0 for t in model.general},
        gs=[],
    )
    for arc in model.guard_arcs:
        if arc.place in model.dp_index:
            run.gs.append(_static_truth(arc.op, float(run.m[arc.place]), arc.threshold))
        else:
            run.gs.append(_static_truth(arc.op, run.x[arc.place], arc.threshold))

    trace: list[SimEvent] = []
    fired: list[tuple[str, int, float, float]] = []
    obs_m: Optional[dict[str, int]] = None
    obs_x: Optional[dict[str, float]] = None

    def observe(now_delta: float) -> None:
        nonlocal obs_m, obs_x
        if observe_at is None or obs_m is not None:
            return
        if run.time + now_delta >= observe_at - EPS_SIM:
            dt = observe_at - run.time
            obs_m = dict(run.m)
            obs_x = {
                p.id: run.x[p.id] + run.drift.get(p.id, 0.0) * dt
                for p in model.continuous_places
            }

    for _ in range(MAX_STEPS):
        _refresh(run)
        events = _candidate_events(run, values, rng)
        events = [e for e in events if e[0] >= -EPS_SIM]
        if not events:
            break
        best = min(e[0] for e in events)
        if run.time + best > tau_max + EPS_SIM:
            break
        tied = [e for e in events if e[0] <= best + EPS_SIM]
        rank = min(_CLASS_RANK[e[1]] for e in tied)
        tied = [e for e in tied if _CLASS_RANK[e[1]] == rank]
        top = max(e[3] for e in tied)
        tied = [e for e in tied if e[3] == top]
        if len(tied) == 1:
            choice = tied[0]
        else:
            weights = np.array([e[4] for e in tied])
            choice = tied[int(rng.choice(len(tied), p=weights / weights.sum()))]
        delta = max(best, 0.0)
        if observe_at is not None and run.time + delta > observe_at + EPS_SIM:
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
        if observe_at is not None and tau_max >= observe_at - EPS_SIM:
            observe(tau_max - run.time)
        _advance(run, tau_max - run.time)
    elif observe_at is not None:
        observe(0.0)

    return SimResult(run.time, dict(run.m), dict(run.x), trace, fired, obs_m, obs_x)


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
    given), but never before ``min_runs`` runs.
    """
    if not (-EPS_SIM <= t_prime <= tau_max + EPS_SIM):
        raise ValueError(f"observation time {t_prime} outside [0, {tau_max}]")
    hits = 0
    n = 0
    while n < runs:
        rng = stream(seed, n)
        res = simulate_run(model, tau_max, rng=rng, observe_at=t_prime)
        if holds_concrete(model, atoms, res.observed_marking, res.observed_levels):
            hits += 1
        n += 1
        if (half_width is not None and n >= min_runs
                and _wilson_half_width(hits, n, z) <= half_width):
            break
    p = hits / n
    sigma = float(np.sqrt(max(p * (1 - p), 0.0) / n))
    return SimEstimate(p, sigma, n, _wilson_half_width(hits, n, z), z)
