"""Parametric location tree: symbolic unfolding of a net up to a time bound.

Each location bundles a symbolic state with the entry time (an affine form
over the random-variable values expired so far) and a triangular domain
table for those variables.  Children arise from deterministic-kind events
(firings, boundary hits, guard crossings) and from random firings, whose
value becomes a fresh variable bounded below by the accumulated enabling
time and above by the delay of the deterministic event they preempt.

Only locations that carry probability are built.  A cell in which some
variable's width (upper - lower) is at most EPS everywhere has zero
measure; every firing delay has a density, so neither the cell nor
anything reached through it can carry mass, and the cell is dropped
together with its subtree.  Every cell is cut with ``_apply_bound``,
which leaves each variable room (lower <= upper) wherever the variables
before it can lie, so a domain is exactly the set it describes.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass, field
from typing import Optional

from .model import HPnGModel
from .semantics import (
    CompiledNet,
    Event,
    EventKind,
    ResourceLimitError,
    SymState,
    check_horizon,
    compile_net,
    evolve,
    finalize_state,
    fire,
    initial_state,
    min_det_events,
    next_events,
    resolve_conflict,
)
from .symbolic import (
    EPS,
    LinearForm,
    RvId,
    SymInterval,
    ZERO,
    compare_remaining_times,
    extremal_value,
    var,
)

#: Most locations ``build_plt`` builds before it raises ``ResourceLimitError``.
MAX_LOCATIONS = 1_000_000


@dataclass(frozen=True)
class DetExit:
    """One deterministic way out of a location.

    ``delta`` is the remaining time until the exit, ``cuts`` the parent
    domain restricted to where this exit happens first, with room for every
    variable, so no cut reaches outside the domain.  Kept even when the
    child lies beyond the time bound, because residence in the parent is
    still limited by it.  ``latest`` is the latest time the exit can
    happen, the maximum of ``entry + delta`` over ``cuts``; ``build_plt``
    computes it when it records the exit.
    """

    delta: LinearForm
    cuts: tuple[SymInterval, ...]
    latest: float


@dataclass
class ParametricLocation:
    """One node of the tree: a symbolic state entered at time ``entry``.

    ``earliest`` is the earliest entry time, the minimum of ``entry`` over
    ``domain``; ``_spawn`` computes it to decide whether the location lies
    within the time bound (the root's is 0).  The tree does not change
    after ``build_plt`` returns, so it and ``DetExit.latest`` stay valid.
    """

    id: int
    parent: Optional[int]
    source: Optional[str]
    source_kind: Optional[EventKind]
    p: float
    entry: LinearForm
    earliest: float
    state: SymState
    domain: list[SymInterval]
    rvs: list[RvId]
    children: list[int] = field(default_factory=list)
    det_exits: list[DetExit] = field(default_factory=list)

    def var_names(self) -> list[str]:
        return [rv.label() for rv in self.rvs]


@dataclass
class PLTree:
    model: HPnGModel
    tau_max: float
    locations: list[ParametricLocation]

    @property
    def root(self) -> ParametricLocation:
        return self.locations[0]

    def location(self, lid: int) -> ParametricLocation:
        return self.locations[lid]

    def path(self, lid: int) -> list[int]:
        out = []
        cur: Optional[int] = lid
        while cur is not None:
            out.append(cur)
            cur = self.locations[cur].parent
        return list(reversed(out))

    def accumulated_p(self, lid: int) -> float:
        p = 1.0
        for node in self.path(lid):
            p *= self.locations[node].p
        return p


def pending_rvs(model: HPnGModel, loc: ParametricLocation):
    """Unfired next firings that carry probability mass in this location.

    Yields (rv, distribution, enabling-time form, enabled) per general
    transition, skipping ones that never started accumulating.
    """
    # General transitions sit together in flat order, after the
    # deterministic and immediate ones.
    first = len(model.deterministic) + len(model.immediate)
    for gi, t in enumerate(model.general):
        count = sum(1 for rv in loc.rvs if rv.transition == t.id)
        g_form = loc.state.g[gi]
        is_enabled = loc.state.e[first + gi]
        if not is_enabled and g_form.is_constant() and abs(g_form.const) <= EPS:
            continue
        yield RvId(t.id, count), t.distribution, g_form, is_enabled


# ---------------------------------------------------------------------------
# construction

def _apply_bound(
    piece: list[SymInterval], k: int, form: LinearForm, upper: bool
) -> list[list[SymInterval]]:
    """Intersect a triangular cell with {var_k <= form} (or >= when not upper).

    The result is a list of disjoint triangular cells covering exactly the
    intersection.  When the new bound crosses the cell's existing bound for
    var_k, the cell is split along the crossing hyperplane, which is itself a
    bound on a lower-indexed variable, so the recursion terminates.  Where
    the bound written leaves var_k no room (lower > upper), ``_with_bound``
    cuts that part away, so a cell with room keeps it.
    """
    iv = piece[k]
    if upper and iv.upper is None:
        return _with_bound(piece, k, form, upper)
    cur = iv.upper if upper else iv.lower
    diff = form - cur
    lo = extremal_value(diff, piece, "min")
    hi = extremal_value(diff, piece, "max")
    # diff >= 0 means the new bound sits above the current one.
    slack = lo >= -EPS if upper else hi <= EPS
    tight = hi <= EPS if upper else lo >= -EPS
    if slack:
        return [list(piece)]
    if tight:
        return _with_bound(piece, k, form, upper)
    # Bounds cross inside the cell; split on the sign of diff.
    j = diff.top_index()
    cj = diff.coeff(j)
    root = (diff - var(j, cj)).scaled(-1.0 / cj)
    above = _apply_bound(piece, j, root, upper=False)   # region with var_j >= root
    below = _apply_bound(piece, j, root, upper=True)
    positive, negative = (above, below) if cj > 0 else (below, above)
    out = list(positive if upper else negative)         # new bound is slack here
    for sub in (negative if upper else positive):       # new bound binds here
        out.extend(_with_bound(sub, k, form, upper))
    return out


def _with_bound(
    cell: list[SymInterval], k: int, form: LinearForm, upper: bool
) -> list[list[SymInterval]]:
    """The cell with ``form`` as var_k's upper (or lower) bound, cut to where var_k has room.

    Room is lower <= upper (up to EPS).  lower - upper is a form over
    variables below k, so the cut ``restrict`` makes ends.
    """
    out = list(cell)
    iv = out[k] = SymInterval(cell[k].lower, form) if upper else SymInterval(form, cell[k].upper)
    if iv.upper is None:
        return [out]
    gap = iv.lower - iv.upper
    if extremal_value(gap, out, "max") > EPS:
        return restrict(out, gap)
    return [out]


def restrict(cell: list[SymInterval], con: LinearForm) -> list[list[SymInterval]]:
    """Disjoint triangular cells covering the part of a cell where ``con <= 0``.

    The constraint becomes a bound on its top variable k, applied with
    ``_apply_bound``, which keeps room in every cell it returns.  A
    constraint without a variable keeps the cell whole or empties it.
    """
    k = con.top_index()
    if k is None:
        return [list(cell)] if con.const <= EPS else []
    ck = con.coeff(k)
    bound = (con - var(k, ck)).scaled(-1.0 / ck)
    return _apply_bound(cell, k, bound, upper=ck > 0)


def _nonempty(cuts: list[SymInterval]) -> bool:
    """Whether a triangular cell has positive measure.

    A cell in which some variable's width (upper - lower) is at most EPS
    everywhere has zero measure: it carries no probability, because every
    firing delay has a density.  The widths are affine and the extremum
    walk is exact on a triangular cell, so the test is exact up to EPS.
    """
    for iv in cuts:
        if iv.upper is None:
            continue
        if extremal_value(iv.upper - iv.lower, cuts, "max") <= EPS:
            return False
    return True


def _group_cuts(
    groups: list[list[Event]], gi: int, domain: list[SymInterval]
) -> list[list[SymInterval]]:
    """Cells of the domain where group gi finishes first; may be empty.

    Groups come from ``min_det_events``, so no two representatives are
    parallel: each other group's representative crosses gi's, and the
    domain is cut on that crossing.  A cell that no comparison cut is the
    location's own domain, which was tested for positive measure when the
    location was spawned; only cells that were cut are tested here.
    """
    pieces = [list(domain)]
    rep = groups[gi][0]
    cut = False
    for gj, other in enumerate(groups):
        if gj == gi or not pieces:
            continue
        k, bound, upper = compare_remaining_times(rep.delta, other[0].delta)
        refined: list[list[SymInterval]] = []
        for piece in pieces:
            refined.extend(_apply_bound(piece, k, bound, upper))
        cut = cut or refined != pieces
        pieces = refined
    if not cut:
        return pieces
    return [p for p in pieces if _nonempty(p)]


def _child_state(st: SymState, ev: Event, delta: LinearForm, net: CompiledNet) -> SymState:
    moved = evolve(st, delta, net)
    m, c, g = moved.m, moved.c, moved.g
    if ev.kind in (EventKind.IMMEDIATE, EventKind.DETERMINISTIC, EventKind.GENERAL):
        m, c, g = fire(moved, ev.target, net)
    gs = list(moved.gs)
    if ev.kind is EventKind.GUARD_ARC:
        gs[ev.arc_index] = ev.new_truth
    return finalize_state(m, moved.x, tuple(c), tuple(g), gs, net)


def build_plt(model: HPnGModel, tau_max: float) -> PLTree:
    """Breadth-first unfolding of the symbolic state space up to tau_max.

    An exit or a random firing whose cell has zero measure (some width at
    most EPS over the whole cell, see ``_nonempty``) is dropped together
    with the subtree below it: it carries no probability at any t'.
    Raises ``ValueError`` unless tau_max is finite and >= 0, and
    ``ResourceLimitError`` once the tree would exceed ``MAX_LOCATIONS``.
    """
    check_horizon(tau_max)
    net = compile_net(model)    # tables and drift memo for this build
    root = ParametricLocation(
        id=0, parent=None, source=None, source_kind=None, p=1.0,
        entry=ZERO, earliest=0.0, state=initial_state(net), domain=[], rvs=[],
    )
    locs = [root]
    queue: deque[int] = deque([0])

    while queue:
        lid = queue.popleft()
        loc = locs[lid]
        events = next_events(loc.state, loc.domain, net)
        gens = [ev for ev in events if ev.kind is EventKind.GENERAL]
        groups = min_det_events(events, loc.domain)

        contexts: list[tuple[Optional[LinearForm], list[SymInterval]]] = []
        for gi, grp in enumerate(groups):
            delta = grp[0].delta
            for cuts in _group_cuts(groups, gi, loc.domain):
                contexts.append((delta, cuts))
                latest = extremal_value(loc.entry + delta, cuts, "max")
                loc.det_exits.append(DetExit(delta, tuple(cuts), latest))
                for ev, pw in resolve_conflict(model, grp):
                    _spawn(locs, queue, loc, ev, ev.delta, list(cuts),
                           pw, None, tau_max, net)
        if not groups:
            contexts.append((None, list(loc.domain)))

        for gev in gens:
            gi_idx = model.t_ref[gev.target][1]
            g_form = loc.state.g[gi_idx]
            count = sum(1 for rv in loc.rvs if rv.transition == gev.target)
            for delta_ctx, cuts in contexts:
                n = len(loc.domain)
                if delta_ctx is None:
                    interval = SymInterval(g_form, None)
                else:
                    if extremal_value(delta_ctx, cuts, "max") <= EPS:
                        continue  # no room to preempt: the new cell has zero measure
                    interval = SymInterval(g_form, g_form + delta_ctx)
                fire_delta = var(n) - g_form
                _spawn(locs, queue, loc, gev, fire_delta,
                       list(cuts) + [interval], 1.0,
                       RvId(gev.target, count), tau_max, net)

    return PLTree(model, tau_max, locs)


def _spawn(
    locs: list[ParametricLocation],
    queue: deque,
    parent: ParametricLocation,
    ev: Event,
    delta: LinearForm,
    domain: list[SymInterval],
    p: float,
    new_rv: Optional[RvId],
    tau_max: float,
    net: CompiledNet,
) -> None:
    entry = parent.entry + delta
    earliest = extremal_value(entry, domain, "min")
    if earliest > tau_max + EPS:
        return
    if len(locs) >= MAX_LOCATIONS:
        raise ResourceLimitError(f"location tree exceeds {MAX_LOCATIONS} nodes")
    state = _child_state(parent.state, ev, delta, net)
    child = ParametricLocation(
        id=len(locs), parent=parent.id, source=ev.describe(),
        source_kind=ev.kind, p=p, entry=entry, earliest=earliest, state=state,
        domain=domain, rvs=parent.rvs + [new_rv] if new_rv else list(parent.rvs),
    )
    locs.append(child)
    parent.children.append(child.id)
    queue.append(child.id)


# ---------------------------------------------------------------------------
# export

def tree_to_json(tree: PLTree) -> dict:
    model = tree.model
    out = {"tauMax": tree.tau_max, "locations": []}
    for loc in tree.locations:
        names = loc.var_names()
        out["locations"].append({
            "id": loc.id,
            "parent": loc.parent,
            "source": loc.source,
            "sourceKind": loc.source_kind.value if loc.source_kind else None,
            "p": loc.p,
            "entry": loc.entry.text(names),
            "domain": [
                {"rv": rv.label(), "interval": iv.text(names)}
                for rv, iv in zip(loc.rvs, loc.domain)
            ],
            "marking": {
                pl.id: tok for pl, tok in zip(model.discrete_places, loc.state.m)
            },
            "levels": {
                pl.id: form.text(names)
                for pl, form in zip(model.continuous_places, loc.state.x)
            },
            "drift": {
                pl.id: d for pl, d in zip(model.continuous_places, loc.state.d)
            },
            "children": list(loc.children),
        })
    return out


def tree_to_dot(tree: PLTree) -> str:
    lines = ["digraph plt {", "  node [shape=box, fontname=\"monospace\"];"]
    for loc in tree.locations:
        names = loc.var_names()
        label = [f"L{loc.id}  t={loc.entry.text(names)}"]
        if loc.source:
            label.append(loc.source)
        if loc.p != 1.0:
            label.append(f"p={loc.p:g}")
        levels = ", ".join(
            f"{pl.id}={form.text(names)}"
            for pl, form in zip(tree.model.continuous_places, loc.state.x)
        )
        if levels:
            label.append(levels)
        text = "\\n".join(label).replace('"', "'")
        lines.append(f'  n{loc.id} [label="{text}"];')
        if loc.parent is not None:
            lines.append(f"  n{loc.parent} -> n{loc.id};")
    lines.append("}")
    return "\n".join(lines)


def dump_json(tree: PLTree) -> str:
    return json.dumps(tree_to_json(tree), indent=2)
