"""Polytope helpers: H-representation, vertices, triangulation, sampling
and an exact simplex rule.

Regions here are intersections of affine half-spaces {x : A x <= b}.
Vertices are enumerated exactly and without linear programs: an axis box
tightened by bound propagation drops the rows that are slack everywhere
on it, and every n-subset of the rows left is solved in one batch; an
interval takes the same vertices in closed form.  Degenerate
(lower-dimensional) regions count as measure zero and come back empty,
and a region's bounding box is the box of its vertices.  Direct sampling
through that box tests a sample only against the rows that cut the box.
Simplex sampling reuses its buffers across iterations and sorts each
uniform draw with a network of min/max compare-exchanges, which puts the
values ``np.sort`` would in each place.  Both samplers only draw: the
estimate, its sigma and the rule for non-finite values are
``montecarlo._estimate``'s.  ``simplex_rule`` places a Grundmann-Moeller
rule, exact to degree 2s + 1 and cached per (n, s) on the standard
simplex, on each simplex through its vertex matrix; it draws nothing.
``chebyshev_center`` is the one LP left, for callers that want a
region's largest inscribed ball.

scipy is imported inside the functions that call it, so importing this
module loads none of it: qhull on the first ``triangulate`` or
``polytope_volume`` call, and HiGHS on the first ``linprog`` call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

import numpy as np

from .montecarlo import McConfig, McResult, _estimate, mc_integrate

EPS_GEOM = 1e-7
EPS_VOL = 1e-10
#: Distance outside a unit-normal row within which a point still satisfies it.
EPS_VERTEX = 1e-9
#: Most rounds of bound propagation when boxing a region.
PROPAGATION_ROUNDS = 4


@dataclass(frozen=True)
class HPolytope:
    a: np.ndarray
    b: np.ndarray

    @property
    def dim(self) -> int:
        return self.a.shape[1]

    def contains(self, points: np.ndarray, eps: float = EPS_GEOM) -> np.ndarray:
        pts = np.atleast_2d(points)
        return np.all(pts @ self.a.T <= self.b + eps, axis=1)


def make_polytope(rows: list[tuple[np.ndarray, float]], dim: int) -> HPolytope:
    if not rows:
        return HPolytope(np.zeros((0, dim)), np.zeros(0))
    a = np.array([np.asarray(r[0], dtype=float) for r in rows])
    b = np.array([float(r[1]) for r in rows])
    return HPolytope(a, b)


def linprog(*args, **kwargs):
    """``scipy.optimize.linprog``, imported on the first call."""
    from scipy import optimize

    return optimize.linprog(*args, **kwargs)


def chebyshev_center(poly: HPolytope) -> tuple[np.ndarray, float] | None:
    """Point of maximal inscribed-ball radius, or None when infeasible.

    One LP, solved by HiGHS through the module's ``linprog``.
    """
    n = poly.dim
    norms = np.linalg.norm(poly.a, axis=1)
    a_ub = np.hstack([poly.a, norms[:, None]])
    c = np.zeros(n + 1)
    c[-1] = -1.0
    res = linprog(c, A_ub=a_ub, b_ub=poly.b,
                  bounds=[(None, None)] * n + [(0, None)], method="highs")
    if not res.success:
        return None
    return res.x[:n], res.x[n]


def _first_unique(rows: np.ndarray) -> np.ndarray:
    """Indices of the first occurrence of each distinct row, in order."""
    first: dict[bytes, int] = {}
    for i, row in enumerate(rows + 0.0):        # + 0.0 folds -0.0 into 0.0
        first.setdefault(row.tobytes(), i)
    return np.fromiter(first.values(), dtype=np.intp, count=len(first))


def _unit_rows(poly: HPolytope) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """The rows scaled to unit normals, and the indices of the distinct
    ones that have a variable; None when a row with no variable fails."""
    norms = np.linalg.norm(poly.a, axis=1)
    live = norms > EPS_VOL
    if np.any(poly.b[~live] < -EPS_GEOM):
        return None
    scale = np.where(live, norms, 1.0)
    a, b = poly.a / scale[:, None], poly.b / scale
    rows = np.flatnonzero(live)
    rows = rows[_first_unique(np.round(np.hstack([a[rows], b[rows, None]]) / EPS_VOL))]
    return a, b, rows


def _propagate_box(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """An axis box that holds {x : a x <= b}, by bound propagation.

    Each row bounds each of its variables by the least value the row's
    other terms take over the current box.  A bound that no row limits
    stays infinite.
    """
    n = a.shape[1]
    lo, hi = np.full(n, -np.inf), np.full(n, np.inf)
    pos, neg = a > 0.0, a < 0.0
    with np.errstate(invalid="ignore", divide="ignore"):
        for _ in range(PROPAGATION_ROUNDS):
            least = np.where(pos, a * lo, np.where(neg, a * hi, 0.0))
            unbounded = np.isinf(least)
            finite = np.where(unbounded, 0.0, least)
            rest = finite.sum(axis=1)[:, None] - finite
            # the other terms' least value is finite when none of them is -inf
            known = unbounded.sum(axis=1)[:, None] == unbounded
            bound = (b[:, None] - rest) / a
            new_hi = np.minimum(hi, np.where(pos & known, bound, np.inf)
                                .min(axis=0, initial=np.inf))
            new_lo = np.maximum(lo, np.where(neg & known, bound, -np.inf)
                                .max(axis=0, initial=-np.inf))
            if (new_lo == lo).all() and (new_hi == hi).all():
                break
            lo, hi = new_lo, new_hi
    return lo, hi


def _positively_spanning(a: np.ndarray) -> bool:
    """Whether the row normals positively span R^n, i.e. {x : a x <= b} is
    bounded for every b.

    The cone {d : a d <= 0} is trivial exactly when a has rank n and has
    no extreme ray.  Each candidate ray is a line on which n - 1
    independent rows are tight; it is a ray of the cone when no row
    increases along one of the line's two directions.
    """
    n = a.shape[1]
    if len(a) <= n or np.linalg.matrix_rank(a) < n:
        return False
    if n == 1:
        rays = np.ones((1, 1))
    else:
        subsets = a[_subsets(len(a), n - 1)]
        _, sv, vh = np.linalg.svd(subsets)
        rays = vh[sv[:, -1] > EPS_VOL, -1]
    along = rays @ a.T
    return not np.any(np.all(along <= EPS_VERTEX, axis=1)
                      | np.all(along >= -EPS_VERTEX, axis=1))


@lru_cache(maxsize=128)
def _subsets(m: int, k: int) -> np.ndarray:
    """Every k-subset of range(m), one per row."""
    out = np.array(list(combinations(range(m), k)), dtype=np.intp).reshape(-1, k)
    out.flags.writeable = False
    return out


def _subset_vertices(poly: HPolytope, unit_a: np.ndarray, unit_b: np.ndarray,
                     rows: np.ndarray) -> np.ndarray:
    """Points where n of the rows are tight and every row holds; none
    when the region is infeasible, unbounded or too thin on an axis.

    An axis box is tightened by bound propagation, and the rows that are
    strictly slack over the box are dropped: they are tight at no vertex.
    Every n-subset of the rows left is solved in one batch.  When
    propagation leaves a bound infinite, the region is bounded only if
    the row normals positively span R^n, and then every row is kept.
    """
    n = poly.dim
    a, b = unit_a[rows], unit_b[rows]
    lo, hi = _propagate_box(a, b)
    if np.any(hi - lo <= EPS_GEOM):         # infeasible, or too thin on an axis
        return np.zeros((0, n))
    if np.all(np.isfinite(lo)) and np.all(np.isfinite(hi)):
        most = np.where(a > 0.0, a * hi, a * lo).sum(axis=1)
        rows = rows[most >= b - EPS_VERTEX]
    elif not _positively_spanning(a):
        return np.zeros((0, n))
    idx = rows[_subsets(len(rows), n)]
    idx = idx[np.abs(np.linalg.det(unit_a[idx])) > EPS_VOL]
    # solved on the rows as given: their coefficients are often small exact
    # numbers that unit scaling would round
    verts = np.linalg.solve(poly.a[idx], poly.b[idx][..., None])[..., 0]
    return verts[np.all(verts @ a.T <= b + EPS_VERTEX, axis=1)]


def _interval_vertices(poly: HPolytope, unit_a: np.ndarray, unit_b: np.ndarray,
                       rows: np.ndarray) -> np.ndarray:
    """``_subset_vertices`` of a one-dimensional region, in closed form.

    The interval runs from the tightest lower to the tightest upper row,
    where propagation would end.  The rows within ``EPS_VERTEX`` of an end
    are solved as given, by one division each, the one LAPACK makes for a
    1 x 1 system, so the same points come out in the same order, bit for
    bit.
    """
    a, b = unit_a[rows, 0], unit_b[rows]
    bound = b / a
    up = a > 0.0
    lo, hi = bound[~up].max(initial=-np.inf), bound[up].min(initial=np.inf)
    if not (np.isfinite(lo) and np.isfinite(hi)) or hi - lo <= EPS_GEOM:
        return np.zeros((0, 1))
    rows = rows[np.where(up, a * hi, a * lo) >= b - EPS_VERTEX]
    verts = (poly.b[rows] / poly.a[rows, 0])[:, None]
    return verts[np.all(verts * a <= b + EPS_VERTEX, axis=1)]


def vertex_enumeration(poly: HPolytope) -> np.ndarray:
    """Vertices of a bounded region; empty array when it is measure zero.

    The rows are scaled to unit normals and deduplicated, and the points
    where n rows are tight and every row holds are found: in closed form
    for one dimension, by ``_subset_vertices`` for more.  Points within
    ``EPS_GEOM`` of an earlier one are dropped.  A region whose vertices
    do not span n dimensions, or that has none, comes back empty.
    """
    n = poly.dim
    empty = np.zeros((0, n))
    unit = _unit_rows(poly)
    if unit is None:
        return empty
    verts = (_interval_vertices if n == 1 else _subset_vertices)(poly, *unit)
    verts = verts[_first_unique(np.round(verts / EPS_GEOM))]
    if len(verts) <= n:
        return empty
    # measure zero: the vertices' RMS distance from their best-fit hyperplane
    spread = np.linalg.svd(verts - verts.mean(axis=0), compute_uv=False)
    if spread[-1] <= EPS_GEOM * math.sqrt(len(verts)):
        return empty
    return verts


def bounding_box(poly: HPolytope) -> tuple[np.ndarray, np.ndarray] | None:
    """Axis box of a bounded region's vertices; None when it has none."""
    verts = vertex_enumeration(poly)
    if len(verts) == 0:
        return None
    return verts.min(axis=0), verts.max(axis=0)


def simplex_volume(verts: np.ndarray) -> float:
    n = verts.shape[1]
    mat = verts[1:] - verts[0]
    return abs(float(np.linalg.det(mat))) / math.factorial(n)


def triangulate(verts: np.ndarray) -> list[np.ndarray]:
    """Split the convex hull of the vertices into full-dimensional simplices.

    One dimension is split directly; more go through qhull's Delaunay
    triangulation, imported on the first such call.
    """
    n = verts.shape[1]
    if len(verts) < n + 1:
        return []
    if n == 1:
        lo, hi = float(np.min(verts)), float(np.max(verts))
        if hi - lo <= EPS_VOL:
            return []
        return [np.array([[lo], [hi]])]
    from scipy.spatial import Delaunay, QhullError

    try:
        tri = Delaunay(verts)
    except QhullError:
        return []
    out = []
    for idx in tri.simplices:
        s = verts[idx]
        if simplex_volume(s) > EPS_VOL:
            out.append(s)
    return out


def polytope_volume(verts: np.ndarray) -> float:
    """Volume of the convex hull of the vertices; 0 when it is degenerate.

    One dimension is a length; more go through qhull's convex hull,
    imported on the first such call.
    """
    if len(verts) == 0:
        return 0.0
    if verts.shape[1] == 1:
        return float(np.max(verts) - np.min(verts))
    from scipy.spatial import ConvexHull, QhullError

    try:
        return float(ConvexHull(verts).volume)
    except QhullError:
        return 0.0


def _sorted_columns(u: np.ndarray, cols: np.ndarray) -> list[np.ndarray]:
    """The columns of ``u`` (n, d) with each row sorted, as d rows of
    ``cols`` (d + 1, n), which is scratch.

    The columns are copied into contiguous rows and sorted by an odd-even
    transposition network: d rounds of compare-exchanges, each a
    ``minimum`` into the spare row and a ``maximum`` in place.  Min and max
    return the values ``np.sort`` puts in each place, so the sort is exact.
    """
    d = u.shape[1]
    np.copyto(cols[:d], u.T)
    rows = list(cols)
    spare = rows.pop()
    for r in range(d):
        for i in range(r % 2, d - 1, 2):
            np.minimum(rows[i], rows[i + 1], out=spare)
            np.maximum(rows[i], rows[i + 1], out=rows[i + 1])
            rows[i], spare = spare, rows[i]
    return rows


def _unit_simplex_weights(rng: np.random.Generator, u: np.ndarray, cols: np.ndarray,
                          w: np.ndarray) -> None:
    """Fill ``w`` (n, d + 1) with barycentric weights uniform over the
    standard simplex: the gaps between 0, a sorted draw into ``u`` (n, d)
    and 1.  ``cols`` (d + 1, n) is scratch for ``_sorted_columns``.
    """
    rng.random(out=u)                   # the same stream as rng.random((n, d))
    rows = _sorted_columns(u, cols)
    d = len(rows)
    w[:, 0] = rows[0]
    for k in range(1, d):
        np.subtract(rows[k], rows[k - 1], out=w[:, k])
    np.subtract(1.0, rows[d - 1], out=w[:, d])


def sample_unit_simplex(rng: np.random.Generator, dim: int, size: int) -> np.ndarray:
    """Barycentric weights (size, dim+1) uniform over the standard simplex.

    The gaps between 0, a sorted uniform draw of ``dim`` values and 1; the
    draw is ``rng.random((size, dim))``.  ``probability_over_simplex``
    samples through the same kernel into buffers it reuses.
    """
    w = np.empty((size, dim + 1))
    _unit_simplex_weights(rng, np.empty((size, dim)), np.empty((dim + 1, size)), w)
    return w


def probability_over_simplex(
    verts: np.ndarray,
    density,
    cfg: McConfig,
    rng: np.random.Generator,
) -> McResult:
    """Monte Carlo integral of a density over one simplex.

    Each of the iterations draws ``samples // iterations`` points (at least
    2) into buffers allocated once per call, and ``_estimate`` reduces the
    density there; non-finite values count as skipped and as 0.
    """
    vol = simplex_volume(verts) if verts.shape[1] > 1 else float(verts[1, 0] - verts[0, 0])
    if vol <= EPS_VOL:
        return McResult(0.0, 0.0, 0, 0)
    dim = verts.shape[1]
    n = max(cfg.samples // cfg.iterations, 2)
    u, cols, w = np.empty((n, dim)), np.empty((dim + 1, n)), np.empty((n, dim + 1))
    pts = np.empty((n, dim))

    def step() -> np.ndarray:
        _unit_simplex_weights(rng, u, cols, w)
        return np.asarray(density(np.matmul(w, verts, out=pts)), dtype=float)

    return _estimate(step, cfg.iterations, vol, n)


@lru_cache(maxsize=64)
def _grundmann_moller(n: int, s: int) -> tuple[np.ndarray, np.ndarray]:
    """Barycentric points (p, n + 1) and weights (p,) of the Grundmann-Moeller
    rule of degree 2s + 1 on the n-simplex, p = C(n + s + 1, s).

    Grundmann & Moeller, SIAM J. Numer. Anal. 15 (1978), Theorem 4.  With
    d = 2s + 1, level i = 0..s puts the weight
    (-1)^i n! (n + d - 2i)^d / (4^s i! (n + d - i)!) on every point whose
    barycentric coordinates are (2 beta_j + 1) / (n + d - 2i) for a
    composition beta of s - i into n + 1 parts.  The weights sum to 1, so
    a simplex's integral is its volume times the weighted sum; every point
    lies strictly inside.  The weights are exact integer ratios rounded
    once, and the arrays are read-only.
    """
    d = 2 * s + 1
    points, weights = [], []
    for i in range(s + 1):
        den = n + d - 2 * i
        # compositions of s - i into n + 1 parts: the gaps between n bars
        # placed among s - i + n slots
        slots = s - i + n
        beta = np.diff(_subsets(slots, n), axis=1, prepend=-1, append=slots) - 1
        points.append((2 * beta + 1) / den)
        w = (-1) ** i * math.factorial(n) * den ** d \
            / (4 ** s * math.factorial(i) * math.factorial(n + d - i))
        weights.append(np.full(len(beta), w))
    lam, w = np.vstack(points), np.concatenate(weights)
    lam.flags.writeable = False
    w.flags.writeable = False
    return lam, w


def simplex_rule(simplices: list[np.ndarray], s: int) -> tuple[np.ndarray, np.ndarray]:
    """Points (len(simplices) * p, n) and weights of the degree-2s+1
    Grundmann-Moeller rule on each simplex (n + 1 vertex rows, n columns).

    The cached barycentric points are mapped through each vertex matrix
    and the weights scaled by each simplex's volume, so that
    ``weights @ f(points)`` is the integral of f over the simplices,
    exact when f is a polynomial of degree at most 2s + 1 on each.
    """
    verts = np.stack(simplices)
    n = verts.shape[2]
    lam, w = _grundmann_moller(n, s)
    vol = np.abs(np.linalg.det(verts[:, 1:] - verts[:, :1])) / math.factorial(n)
    return (lam @ verts).reshape(-1, n), (vol[:, None] * w).ravel()


def probability_over_region_direct(
    poly: HPolytope, density, cfg: McConfig, rng: np.random.Generator
) -> McResult:
    """Monte Carlo integral over a region via its bounding box.

    A sample counts when it satisfies every row within ``EPS_GEOM``.  Only
    the rows that cut the box are tested: a row whose largest value over
    the box is at most its bound holds at every sample, since the margin
    dwarfs the rounding of a sample's row value.  When no row cuts the
    box, the region is the box and the density is integrated directly.
    """
    box = bounding_box(poly)
    if box is None:
        return McResult(0.0, 0.0, 0, 0)
    lo, hi = box
    cuts = np.where(poly.a > 0.0, poly.a * hi, poly.a * lo).sum(axis=1) > poly.b
    rows = list(zip(poly.a[cuts], poly.b[cuts] + EPS_GEOM))

    def f(pts: np.ndarray) -> np.ndarray:
        inside = np.ones(len(pts), dtype=bool)
        for a, limit in rows:
            inside &= pts @ a <= limit
        out = np.zeros(len(pts))
        if inside.any():
            out[inside] = density(pts[inside])
        return out

    return mc_integrate(f if rows else density, list(zip(lo, hi)), cfg, rng)
