"""Transient probabilities of state properties over the location tree.

A location is occupied on the half-open interval [entry, exit): the state
at t' is the state after every event at t', which is the simulator's
observation rule.  So a location can hold probability mass at t' when its
entry is open at t' (``entry_open``) and, where deterministic exits exist,
at least one of them is open at t' (``exit_open``).  The entry is open
when it is a constant at or before t', or when it is not constant and can
lie before t'; a non-constant entry whose earliest value is t' reaches t'
only on a set of measure zero.  An exit is open when it can lie after t'
and its delay is not the constant 0.  The mass is an integral of the joint
density of the expired random firings over the restricted domain, times
survival factors for firings that are still pending.  Three routes compute
that integral; none of them spends anything on a candidate whose entry is
closed at t', or whose deterministic exits all are, which reports (0, 0):

``intervals``
    Triangular cells cut from the domain one bound at a time by the tree's
    ``restrict``; only cells of positive measure are kept, and in each
    every variable has room wherever the earlier ones lie.  The cells are
    cut where the integrand has kinks or sharp peaks, then a sequential
    change of variables takes each onto the unit cube for a tensor
    Gauss-Legendre rule at doubling orders.  Deterministic; its
    error estimate is the gap between the last two orders.  Only a cell
    of more than five dimensions, or one whose orders do not agree within
    ``GL_MAX_POINTS`` points, goes to VEGAS.
``simplex``
    One half-space region per location over its expired firings, clipped
    to where the density can be positive (``location_region_terms``),
    exact vertex enumeration (bound propagation, then batched solves of
    the rows that can be tight; no linear program) and triangulation;
    pending firings enter the density as survival factors, and a location
    with no expired firing is a closed-form survival product.  When every
    firing of the location is uniform, the region is split at its
    survival kinks into pieces on which the density is a polynomial; a
    Grundmann-Moeller rule integrates each simplex of each piece exactly.
    Deterministic; its error estimate bounds the rounding of the rule's
    sum.  Any other family keeps per-simplex sampling.  An empty or
    measure-zero region costs its enumeration and nothing else.
``direct``
    The same region and density sampled through the region's bounding
    box, which is the box of its enumerated vertices.  Samples are tested
    only against the rows that cut the box; a region that fills its box
    is the density integrated over the box.

Each location samples from its own stream, ``stream(cfg.seed, loc.id)``,
made when a sampler first draws: the deterministic rules never pay for it.
"""

from __future__ import annotations

import logging
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Sequence

import numpy as np

from .geometry import (
    EPS_GEOM,
    HPolytope,
    make_polytope,
    probability_over_region_direct,
    probability_over_simplex,
    simplex_rule,
    triangulate,
    vertex_enumeration,
)
from .model import ZONE_TRUTH, HPnGModel, compare
from .montecarlo import (
    FAMILIES, DistributionSpec, McConfig, McResult, cdf, stream, vegas_integrate)
from .montecarlo import pdf as dist_pdf
from .props import Atom
from .semantics import UnsupportedModelError, check_observation
from .symbolic import EPS, LinearForm, SymInterval, const, extremal_value, var
from .tree import DetExit, ParametricLocation, PLTree, _nonempty, pending_rvs, restrict

METHODS = ("intervals", "simplex", "direct")

#: Largest |Q_2n - Q_n| accepted for one cell of the intervals route.
GL_TOL = 1e-6
#: First Gauss-Legendre order tried per axis; it doubles from there.
GL_START_ORDER = 4
#: Most points one order of the rule may use on one sub-cell.  Cells of up
#: to five dimensions fit two orders; beyond that they go to VEGAS.
GL_MAX_POINTS = 2 ** 15
#: chi^2 / dof of VEGAS iterations above which the fallback's log record
#: flags them as inconsistent.
VEGAS_CHI2_DOF_MAX = 2.0

_log = logging.getLogger("hpng")


@dataclass(frozen=True)
class Piece:
    """One triangular cell of a restricted domain."""

    intervals: tuple[SymInterval, ...]
    dists: tuple[DistributionSpec, ...]
    factors: tuple[tuple[DistributionSpec, LinearForm], ...]


@dataclass
class TransientResult:
    t_prime: float
    method: str
    total: float
    sigma: float
    per_location: dict[int, tuple[float, float]]


# ---------------------------------------------------------------------------
# candidates and pending variables

def candidate_locations(tree: PLTree, t_prime: float) -> list[ParametricLocation]:
    """Locations that can be occupied at t_prime, in tree order.

    A location qualifies when its earliest entry (``loc.earliest``) is no
    later than t_prime and, if it has deterministic exits, one of them can
    happen at t_prime or later (``DetExit.latest``).  Both bounds do not
    depend on t_prime; ``build_plt`` computes them once per tree, so a
    query only compares floats.

    The test is closed at both ends.  Besides the locations occupied at
    t_prime on their half-open residence [entry, exit), which is what the
    simulator observes, it keeps those whose entry is closed at t_prime
    (``entry_open``: not constant, with its earliest value at t_prime) and
    those whose exits are all closed at t_prime (``exit_open``); the
    routes report them as (0, 0) without integrating.
    """
    return [
        loc for loc in tree.locations
        if loc.earliest <= t_prime + EPS
        and (not loc.det_exits
             or any(ex.latest >= t_prime - EPS for ex in loc.det_exits))
    ]


def entry_open(loc: ParametricLocation, t_prime: float) -> bool:
    """Whether the location is entered by t_prime on a set of positive measure.

    A constant entry at or before t_prime is open; an entry at t_prime is
    observed after it.  A non-constant entry must be able to lie before
    t_prime: where its earliest value is t_prime, ``entry <= t_prime``
    holds only on the hyperplane ``entry = t_prime``.
    """
    if loc.entry.is_constant():
        return loc.earliest <= t_prime + EPS
    return loc.earliest < t_prime - EPS


def exit_open(ex: DetExit, t_prime: float) -> bool:
    """Whether the location can still be left through ``ex`` after t_prime.

    Residence is half-open, [entry, exit): an exit at or before t_prime
    (``ex.latest <= t_prime + EPS``) has left the location by t_prime, and
    an exit whose delay is the constant 0 leaves it as it is entered.
    """
    return ex.latest > t_prime + EPS and not (ex.delta.is_constant()
                                              and ex.delta.const <= EPS)


def pending_vars(
    model: HPnGModel, loc: ParametricLocation, t_prime: float
) -> list[tuple[DistributionSpec, LinearForm]]:
    """Survival factors (dist, lower) of the firings still pending at t_prime.

    ``lower`` is the value below which the firing would already have
    happened; the factor is 1 - F(lower).
    """
    return [
        (dist, g_form + (const(t_prime) - loc.entry) if is_enabled else g_form)
        for _, dist, g_form, is_enabled in pending_rvs(model, loc)
    ]


def _survival(factors: Sequence[tuple[DistributionSpec, LinearForm]],
              vals: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``w`` times 1 - F(lower) of every factor, at each row of ``vals``.

    ``w`` is multiplied in place: every caller passes a fresh array.
    """
    for dist, lf in factors:
        w *= 1.0 - cdf(dist, lf.evaluate_batch(vals))
    return w


# ---------------------------------------------------------------------------
# triangular cells (intervals route)

def _restricted(cell: Sequence[SymInterval], rows: Sequence[LinearForm]) -> list[list[SymInterval]]:
    """Cells of positive measure covering where every ``row <= 0`` holds in ``cell``.

    Each row is cut in with the tree's ``restrict``, one bound at a time,
    and every variable keeps room in each cell; cells that ``_nonempty``
    finds of zero measure are dropped at the end.
    """
    cells = [list(cell)]
    for row in rows:
        cells = [sub for c in cells for sub in restrict(c, row)]
    return [c for c in cells if _nonempty(c)]


def location_pieces(
    model: HPnGModel,
    loc: ParametricLocation,
    t_prime: float,
    extra_rows: tuple[LinearForm, ...] = (),
) -> list[Piece]:
    """Triangular cells of the restricted domain of one location at t_prime.

    Each exit open at t_prime (``exit_open``) gives its cuts; a location
    whose exits are all closed has no cell.
    """
    dists = tuple(model.transition(rv.transition).distribution for rv in loc.rvs)
    factors = tuple(pending_vars(model, loc, t_prime))
    entry = loc.entry - const(t_prime)
    if loc.det_exits:
        contexts = [(ex.cuts, [entry, const(t_prime) - loc.entry - ex.delta])
                    for ex in loc.det_exits if exit_open(ex, t_prime)]
    else:
        contexts = [(loc.domain, [entry])]
    return [Piece(tuple(cell), dists, factors)
            for cuts, rows in contexts
            for cell in _restricted(cuts, rows + list(extra_rows))]


def _restrict_piece(piece: Piece, constraints: list[LinearForm]) -> list[Piece]:
    """Sub-cells of the piece where every ``constraint <= 0`` holds."""
    return [Piece(tuple(cell), piece.dists, piece.factors)
            for cell in _restricted(piece.intervals, constraints)]


def _split(piece: Piece, form: LinearForm) -> list[Piece]:
    """The piece split along ``form = 0`` where that hyperplane crosses it."""
    if (extremal_value(form, piece.intervals, "min") < -EPS
            and extremal_value(form, piece.intervals, "max") > EPS):
        return _restrict_piece(piece, [form]) + _restrict_piece(piece, [form.scaled(-1.0)])
    return [piece]


def _smooth_cells(piece: Piece) -> list[Piece]:
    """The piece cut into sub-cells on which its integrand is smooth.

    Each bounded variable is clipped to the support of its density, which
    is zero outside it.  The cell is then split, keeping both sides, where
    a bounded variable crosses one of its density's peak cuts, and where
    the argument of a survival factor (a pending firing, or an unbounded
    variable past its lower bound) crosses its support bounds, the kinks
    of its CDF, or its peak cuts (``Family.support`` and ``Family.cuts``).
    Without the peak cuts a density much narrower than its cell can fall
    between the nodes of two successive orders, which then agree on a
    value near zero.  Cuts that miss the cell are skipped, so most cells
    come back whole.
    """
    ivs = piece.intervals
    clips: list[LinearForm] = []
    splits: list[tuple[LinearForm, tuple[float, ...]]] = []
    for i, iv in enumerate(ivs):
        if iv.upper is None:
            continue
        dist = piece.dists[i]
        fam = FAMILIES[dist.family]
        lo, hi = fam.support(*dist.params)
        if extremal_value(iv.lower, ivs, "min") < lo - EPS:
            clips.append(const(lo) - var(i))
        if hi is not None and extremal_value(iv.upper, ivs, "max") > hi + EPS:
            clips.append(var(i) - const(hi))
        splits.append((var(i), fam.cuts(*dist.params)))
    for dist, lf in _survival_factors(piece):
        fam = FAMILIES[dist.family]
        lo, hi = fam.support(*dist.params)
        splits.append((lf, (lo, *fam.cuts(*dist.params)) if hi is None else (lo, hi)))
    cells = _restrict_piece(piece, clips) if clips else [piece]
    for form, points in splits:
        if not points:
            continue
        # a cut that misses the piece misses every sub-cell of it
        low = extremal_value(form, ivs, "min")
        high = extremal_value(form, ivs, "max")
        for p in points:
            if low + EPS < p < high - EPS:
                cells = [sub for cell in cells for sub in _split(cell, form - p)]
    return cells


def _survival_factors(piece: Piece) -> list[tuple[DistributionSpec, LinearForm]]:
    """The piece's pending firings and its unbounded variables, as survival factors."""
    return list(piece.factors) + [
        (piece.dists[i], iv.lower) for i, iv in enumerate(piece.intervals) if iv.upper is None
    ]


def _cube_integrand(piece: Piece):
    """The cell's density integral as a function on the unit cube.

    Each bounded variable is mapped from [0, 1] onto its interval given the
    earlier variables, so the integrand carries the widths as Jacobian;
    unbounded variables and pending firings enter as survival factors.
    No bound refers to an unbounded variable (``integrate_piece`` checks),
    so those keep the value 0 in the point matrix.
    """
    nv = len(piece.intervals)
    survivals = _survival_factors(piece)

    def f(u: np.ndarray) -> np.ndarray:
        vals = np.zeros((len(u), nv))
        w = np.ones(len(u))
        col = 0
        for i, iv in enumerate(piece.intervals):
            if iv.upper is None:
                continue
            lo = iv.lower.evaluate_batch(vals)
            width = np.maximum(iv.upper.evaluate_batch(vals) - lo, 0.0)
            x = lo + u[:, col] * width
            vals[:, i] = x
            w = w * width * dist_pdf(piece.dists[i], x)
            col += 1
        return _survival(survivals, vals, w)

    return f


@lru_cache(maxsize=64)
def _gauss_legendre_rule(n: int, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Tensor Gauss-Legendre nodes (n**dim, dim) and weights on [0, 1]^dim.

    ``scipy.special`` is imported here, once per cached rule, so that only
    the intervals route loads it.
    """
    from scipy.special import roots_legendre

    x, w = roots_legendre(n)
    axes_x = np.meshgrid(*[0.5 * (x + 1.0)] * dim, indexing="ij")
    axes_w = np.meshgrid(*[0.5 * w] * dim, indexing="ij")
    nodes = np.stack([a.ravel() for a in axes_x], axis=1)
    weights = np.prod(np.stack([a.ravel() for a in axes_w], axis=1), axis=1)
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


def _gauss_legendre(f, dim: int) -> tuple[float, float, int, int]:
    """Integrate f over [0, 1]^dim at orders n and 2n, doubling n until they agree.

    Returns (Q_2n, |Q_2n - Q_n|, points used, last order evaluated).  The
    order stops doubling once the gap is within ``GL_TOL`` or once the next
    order would pass ``GL_MAX_POINTS``; the gap tells the two apart.
    """
    q = gap = math.inf
    used = order = 0
    n = GL_START_ORDER
    while n ** dim <= GL_MAX_POINTS:
        nodes, weights = _gauss_legendre_rule(n, dim)
        q2 = float(weights @ f(nodes))
        used += len(weights)
        gap, q, order = abs(q2 - q), q2, n
        if gap <= GL_TOL:
            break
        n *= 2
    return q, gap, used, order


def _vegas_fallback(f, dim: int, order: int, gap: float, cfg: McConfig,
                    rng: np.random.Generator) -> McResult:
    """VEGAS on the unit cube, logged with the iterations' chi^2 / dof.

    A chi^2 / dof above ``VEGAS_CHI2_DOF_MAX`` marks the iterations as
    inconsistent: their spread exceeds what their sigmas allow.  It is
    reported as NaN when undefined (one iteration, or a zero sigma).
    """
    r = vegas_integrate(f, [(0.0, 1.0)] * dim, cfg, rng)
    if r.chi2_dof is None:
        chi2, verdict = math.nan, "unchecked"
    else:
        chi2 = r.chi2_dof
        verdict = "inconsistent" if chi2 > VEGAS_CHI2_DOF_MAX else "consistent"
    _log.debug("intervals: %d-D cell falls back to VEGAS after order %d, "
               "gap %.3g, budget %d points; chi2/dof %.3g over %d iterations (%s)",
               dim, order, gap, cfg.samples * cfg.iterations, chi2, cfg.iterations,
               verdict)
    return r


def integrate_piece(piece: Piece, cfg: McConfig, rng: np.random.Generator) -> McResult:
    """Integral of the joint density over one triangular cell.

    Cells with no bounded variable are a product of survival factors and
    closed form.  Otherwise the cell is cut into sub-cells on which the
    integrand is smooth (``_smooth_cells``) and each sub-cell's unit-cube
    integrand goes through a tensor Gauss-Legendre rule at orders n and
    2n, n = 4, 8, ..., until the two agree within ``GL_TOL``; its value is
    Q_2n and its error estimate the gap |Q_2n - Q_n|, which is not a
    sampling sigma.  The rule draws no random numbers and one order uses
    at most ``GL_MAX_POINTS`` points, whatever ``cfg`` says.

    VEGAS, sized by ``cfg`` and drawing from ``rng``, takes over in two
    cases: the whole cell when its dimension leaves no room for two
    orders, before any point is spent on the rule; and a sub-cell whose
    gap is still open at the last order that fits, while the sub-cells
    that converged keep their values.  Such a sub-cell costs the rule's
    points (under twice ``GL_MAX_POINTS``) on top of VEGAS's.
    The error estimate sums the gaps and adds the VEGAS sigmas in
    quadrature.
    """
    nv = len(piece.intervals)
    bounded = [i for i, iv in enumerate(piece.intervals) if iv.upper is not None]
    free = [i for i, iv in enumerate(piece.intervals) if iv.upper is None]
    for i in free:
        for j in range(i + 1, nv):
            iv = piece.intervals[j]
            if abs(iv.lower.coeff(i)) > EPS or (iv.upper is not None and abs(iv.upper.coeff(i)) > EPS):
                raise UnsupportedModelError(
                    "unbounded variable referenced by later bounds"
                )
        for _, lf in piece.factors:
            if abs(lf.coeff(i)) > EPS:
                raise UnsupportedModelError("unbounded variable referenced by survival factor")

    if not bounded:
        value = float(_survival(_survival_factors(piece), np.zeros((1, nv)), np.ones(1))[0])
        return McResult(value, 0.0, 0, 0)

    dim = len(bounded)
    if (2 * GL_START_ORDER) ** dim > GL_MAX_POINTS:
        return _vegas_fallback(_cube_integrand(piece), dim, 0, math.inf, cfg, rng)
    value = gaps = var = 0.0
    used = skipped = 0
    for cell in _smooth_cells(piece):
        f = _cube_integrand(cell)
        q, gap, points, order = _gauss_legendre(f, dim)
        used += points
        if gap <= GL_TOL:
            value += q
            gaps += gap
            continue
        r = _vegas_fallback(f, dim, order, gap, cfg, rng)
        value += r.value
        var += r.sigma ** 2
        used += r.samples_used
        skipped += r.samples_skipped
    return McResult(value, gaps + math.sqrt(var), used, skipped)


# ---------------------------------------------------------------------------
# half-space regions (simplex and direct routes)

def _vec(form: LinearForm, dim: int) -> np.ndarray:
    v = np.zeros(dim)
    for i, c in enumerate(form.coeffs):
        v[i] = c
    return v


def location_region_terms(
    model: HPnGModel,
    tree: PLTree,
    loc: ParametricLocation,
    t_prime: float,
    extra_rows: tuple[LinearForm, ...] = (),
):
    """Region terms (weight, polytope-or-None, density) of one location: at most one.

    The polytope's dimensions are the expired firings s_i.  Its rows
    (``form <= 0``) are the domain bounds, lo <= s_i <= min(tau, hi) over
    each expired firing's support [lo, hi], lower <= hi of each pending
    firing with a finite hi, entry <= t', t' <= each deterministic exit
    and ``extra_rows``: it is where the density can be positive, for every
    route.  Rows with no variable are dropped when they hold, and when one
    fails the location has no term.  An exit row with no variable fails
    unless the exit is open at t' (``exit_open``): residence is half-open.
    The density is the product of the expired firings' densities and the
    survival 1 - F(lower) of each pending firing, whose lower bound never
    exceeds tau, so no tail beyond the horizon needs a term of its own.  A
    location with no expired firing has no polytope: its weight is the
    closed-form survival product.
    """
    tau = tree.tau_max
    n = len(loc.domain)
    dists = [model.transition(rv.transition).distribution for rv in loc.rvs]
    factors = pending_vars(model, loc, t_prime)
    forms: list[LinearForm] = []
    for i, iv in enumerate(loc.domain):
        forms.append(iv.lower - var(i))
        if iv.upper is not None:
            forms.append(var(i) - iv.upper)
        lo, hi = FAMILIES[dists[i].family].support(*dists[i].params)
        forms += [const(lo) - var(i),                               # lo <= s_i
                  var(i) - (tau if hi is None else min(tau, hi))]   # s_i <= min(tau, hi)
    for dist, lower in factors:                                     # lower <= hi
        hi = FAMILIES[dist.family].support(*dist.params)[1]
        if hi is not None:
            forms.append(lower - hi)
    forms.append(loc.entry - const(t_prime))                        # entry <= t'
    for ex in loc.det_exits:                                        # t' < exit
        form = const(t_prime) - loc.entry - ex.delta
        if not form.is_constant():
            forms.append(form)
        elif not exit_open(ex, t_prime):
            return []
    forms += extra_rows

    rows: list[tuple[np.ndarray, float]] = []
    for form in forms:
        if any(abs(c) > EPS for c in form.coeffs):
            rows.append((_vec(form, n), -form.const))
        elif form.const > EPS_GEOM:
            return []
    if n == 0:
        return [(float(_survival(factors, np.zeros((1, 0)), np.ones(1))[0]), None, None)]

    def density(pts: np.ndarray) -> np.ndarray:
        out = np.ones(len(pts))
        for i, dist in enumerate(dists):
            out *= dist_pdf(dist, pts[:, i])
        return _survival(factors, pts, out)

    return [(1.0, make_polytope(rows, n), density)]


def _region_probability(
    terms, method: str, cfg: McConfig, rng: np.random.Generator
) -> tuple[float, float]:
    total = 0.0
    var = 0.0
    for weight, poly, density in terms:
        if poly is None:
            total += weight
            continue
        if method == "simplex":
            results = [probability_over_simplex(simplex, density, cfg, rng)
                       for simplex in triangulate(vertex_enumeration(poly))]
        else:
            results = [probability_over_region_direct(poly, density, cfg, rng)]
        for r in results:
            total += weight * r.value
            var += (weight * r.sigma) ** 2
    return total, float(np.sqrt(var))


def _cut(poly: HPolytope, rows: list[tuple[np.ndarray, float]]) -> HPolytope:
    """The polytope with the rows (g, c), g x <= c, added after its own."""
    return HPolytope(np.vstack([poly.a] + [g for g, _ in rows]),
                     np.concatenate([poly.b, [c for _, c in rows]]))


def _kink_splits(verts: np.ndarray, factors):
    """(splits, degree) on which a uniform region's density is a polynomial.

    The survival kinks are judged at the region's vertices ``verts``.
    ``splits`` are pairs (g, c) for lower <= a, g x <= c, of each factor
    whose start a lies inside its range: 1 below, affine above, and 0
    nowhere, since the region keeps lower <= b.  ``degree`` counts the
    factors affine on the whole region.  One within ``EPS_GEOM`` of its
    start is taken whole, an error of the order of EPS_GEOM squared.
    """
    splits: list[tuple[np.ndarray, float]] = []
    degree = 0
    for dist, lf in factors:
        g, a = _vec(lf, verts.shape[1]), dist.params[0]
        vals = verts @ g + lf.const
        if vals.max() <= a + EPS_GEOM:
            continue                                # the factor is 1
        if vals.min() < a - EPS_GEOM:
            splits.append((g, a - lf.const))
        else:
            degree += 1
    return splits, degree


def _exact_probability(terms, factors) -> tuple[float, float]:
    """(value, rounding bound) of uniform terms by a Grundmann-Moeller rule.

    Each region is enumerated once and cut into one piece per choice of
    side of each survival split of ``_kink_splits``; the region already
    lies inside the density supports (``location_region_terms``).  A
    piece with k affine factors carries a polynomial of degree k, so the
    rule of degree 2s + 1, s = ceil((k - 1) / 2) = k // 2, is exact on
    each of its simplices.  The density is evaluated once per region, at
    every piece's points.  The rule itself has no error; the bound covers
    the rounding of the weighted sum of m terms, m machine epsilons times
    the sum of their magnitudes.
    """
    total = bound = 0.0
    for weight, poly, density in terms:
        if poly is None:
            total += weight
            continue
        verts = vertex_enumeration(poly)
        if not len(verts):
            continue
        splits, degree = _kink_splits(verts, factors)
        pieces: list[tuple[list, int]] = [([], degree)]
        for g, c in splits:
            pieces = [side for extra, k in pieces
                      for side in ((extra + [(g, c)], k), (extra + [(-g, -c)], k + 1))]
        points, weights = [], []
        for extra, k in pieces:
            simplices = triangulate(vertex_enumeration(_cut(poly, extra)) if extra else verts)
            if simplices:
                pts, wts = simplex_rule(simplices, k // 2)
                points.append(pts)
                weights.append(wts)
        if points:
            values = weight * np.concatenate(weights) * density(np.vstack(points))
            total += float(values.sum())
            bound += len(values) * np.finfo(float).eps * float(np.abs(values).sum())
    return total, bound


# ---------------------------------------------------------------------------
# orchestration

class _LazyStream:
    """``stream(seed, task)``, made when a sampler first draws from it.

    Making the generator sets up a ``SeedSequence`` and a ``Philox``, and
    the deterministic rules never draw.  Every attribute is the
    generator's, so the draws are the same as from ``stream(seed, task)``
    itself.
    """

    __slots__ = ("_key", "_rng")

    def __init__(self, seed: int, task: int):
        self._key = (seed, task)
        self._rng: Optional[np.random.Generator] = None

    def __getattr__(self, name: str):
        if self._rng is None:
            self._rng = stream(*self._key)
        return getattr(self._rng, name)


def _fluid_rows(
    model: HPnGModel, loc: ParametricLocation, t_prime: float, atoms: list[Atom]
) -> Optional[tuple[LinearForm, ...]]:
    """Constraint forms (<= 0) for the fluid atoms, or None when the marking
    part already fails."""
    rows: list[LinearForm] = []
    for a in atoms:
        if a.kind == "m":
            tokens = loc.state.m[model.dp_index[a.place]]
            if not compare(a.op, float(tokens), a.value):
                return None
            continue
        pi = model.cp_index[a.place]
        level = loc.state.x[pi] + (const(t_prime) - loc.entry).scaled(loc.state.d[pi])
        # closed rows: the boundary has measure zero
        if not ZONE_TRUTH[a.op]["above"]:
            rows.append(level - const(a.value))
        if not ZONE_TRUTH[a.op]["below"]:
            rows.append(const(a.value) - level)
    return tuple(rows)


def transient_probability(
    tree: PLTree,
    t_prime: float,
    atoms: Optional[list[Atom]] = None,
    method: str = "intervals",
    cfg: Optional[McConfig] = None,
    threads: Optional[int] = None,
) -> TransientResult:
    """Probability that the property holds at time t_prime.

    With ``atoms=None`` this sums the occupation probabilities of every
    candidate location, which must come to one.  A candidate whose entry
    is closed at t_prime (``entry_open``), or whose deterministic exits are
    all closed (``exit_open``), is reported as (0, 0) and costs nothing
    more.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}")
    check_observation(t_prime, tree.tau_max)
    cfg = cfg or McConfig()
    model = tree.model
    atoms = atoms or []

    work = []
    for loc in candidate_locations(tree, t_prime):
        rows = _fluid_rows(model, loc, t_prime, atoms)
        if rows is None:
            continue
        work.append((loc, rows))

    def compute(item) -> tuple[int, float, float]:
        loc, rows = item
        if not entry_open(loc, t_prime) or (
                loc.det_exits and not any(exit_open(ex, t_prime) for ex in loc.det_exits)):
            return loc.id, 0.0, 0.0
        rng = _LazyStream(cfg.seed, loc.id)
        acc = tree.accumulated_p(loc.id)
        if method == "intervals":
            value = 0.0
            var = 0.0
            for piece in location_pieces(model, loc, t_prime, rows):
                r = integrate_piece(piece, cfg, rng)
                value += r.value
                var += r.sigma ** 2
            return loc.id, acc * value, acc * float(np.sqrt(var))
        terms = location_region_terms(model, tree, loc, t_prime, rows)
        if method == "simplex":
            # the firings behind the region's density, as it uses them
            dists = [model.transition(rv.transition).distribution for rv in loc.rvs]
            factors = pending_vars(model, loc, t_prime)
            if all(d.family == "uniform" for d in dists + [d for d, _ in factors]):
                value, bound = _exact_probability(terms, factors)
                return loc.id, acc * value, acc * bound
        value, sigma = _region_probability(terms, method, cfg, rng)
        return loc.id, acc * value, acc * sigma

    if threads and threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(compute, work))
    else:
        results = [compute(item) for item in work]

    per_location = {lid: (v, s) for lid, v, s in results}
    total = sum(v for _, v, _ in results)
    sigma = float(np.sqrt(sum(s ** 2 for _, _, s in results)))
    return TransientResult(t_prime, method, total, sigma, per_location)
