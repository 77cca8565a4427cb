"""Polytope helpers: H-representation, vertices, triangulation, sampling.

Regions here are intersections of affine half-spaces {x : A x <= b}.
Vertex enumeration goes through a Chebyshev-center interior point and the
qhull half-space dual; degenerate (lower-dimensional) regions count as
measure zero and come back empty.  Dimension one is handled analytically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog
from scipy.spatial import ConvexHull, Delaunay, HalfspaceIntersection, QhullError

from .montecarlo import McConfig, McResult, _combine, mc_integrate

EPS_GEOM = 1e-7
EPS_VOL = 1e-10


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


def chebyshev_center(poly: HPolytope) -> tuple[np.ndarray, float] | None:
    """Point of maximal inscribed-ball radius, or None when infeasible."""
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


def bounding_box(poly: HPolytope) -> tuple[np.ndarray, np.ndarray] | None:
    n = poly.dim
    lo, hi = np.empty(n), np.empty(n)
    for i in range(n):
        c = np.zeros(n)
        c[i] = 1.0
        r1 = linprog(c, A_ub=poly.a, b_ub=poly.b, bounds=[(None, None)] * n,
                     method="highs")
        r2 = linprog(-c, A_ub=poly.a, b_ub=poly.b, bounds=[(None, None)] * n,
                     method="highs")
        if not (r1.success and r2.success):
            return None
        lo[i], hi[i] = r1.x[i], r2.x[i]
    return lo, hi


def _vertices_1d(poly: HPolytope) -> np.ndarray:
    lo, hi = -np.inf, np.inf
    for ai, bi in zip(poly.a[:, 0], poly.b):
        if ai > EPS_VOL:
            hi = min(hi, bi / ai)
        elif ai < -EPS_VOL:
            lo = max(lo, bi / ai)
        elif bi < -EPS_GEOM:
            return np.zeros((0, 1))
    if not np.isfinite(lo) or not np.isfinite(hi) or hi - lo <= EPS_GEOM:
        return np.zeros((0, 1))
    return np.array([[lo], [hi]])


def vertex_enumeration(poly: HPolytope) -> np.ndarray:
    """Vertices of a bounded region; empty array when it is measure zero."""
    if poly.dim == 1:
        return _vertices_1d(poly)
    center = chebyshev_center(poly)
    if center is None or center[1] <= EPS_GEOM:
        return np.zeros((0, poly.dim))
    halfspaces = np.hstack([poly.a, -poly.b[:, None]])
    try:
        hs = HalfspaceIntersection(halfspaces, center[0])
    except QhullError:
        return np.zeros((0, poly.dim))
    verts = hs.intersections
    verts = verts[np.all(np.isfinite(verts), axis=1)]
    if len(verts) == 0:
        return verts
    rounded = np.round(verts / EPS_GEOM) * EPS_GEOM
    _, keep = np.unique(rounded, axis=0, return_index=True)
    return verts[np.sort(keep)]


def simplex_volume(verts: np.ndarray) -> float:
    n = verts.shape[1]
    mat = verts[1:] - verts[0]
    return abs(float(np.linalg.det(mat))) / math.factorial(n)


def simplex_edge_matrix(verts: np.ndarray) -> np.ndarray:
    """Columns are edges from the first vertex; |det| equals n! times volume."""
    return (verts[1:] - verts[0]).T


def triangulate(verts: np.ndarray) -> list[np.ndarray]:
    """Split the convex hull of the vertices into full-dimensional simplices."""
    n = verts.shape[1]
    if len(verts) < n + 1:
        return []
    if n == 1:
        lo, hi = float(np.min(verts)), float(np.max(verts))
        if hi - lo <= EPS_VOL:
            return []
        return [np.array([[lo], [hi]])]
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
    if len(verts) == 0:
        return 0.0
    if verts.shape[1] == 1:
        return float(np.max(verts) - np.min(verts))
    try:
        return float(ConvexHull(verts).volume)
    except QhullError:
        return 0.0


def sample_unit_simplex(rng: np.random.Generator, dim: int, size: int) -> np.ndarray:
    """Barycentric weights (size, dim+1) uniform over the standard simplex."""
    u = np.sort(rng.random((size, dim)), axis=1)
    padded = np.hstack([np.zeros((size, 1)), u, np.ones((size, 1))])
    return np.diff(padded, axis=1)


def probability_over_simplex(
    verts: np.ndarray,
    density,
    cfg: McConfig,
    rng: np.random.Generator,
) -> McResult:
    """Monte Carlo integral of a density over one simplex."""
    vol = simplex_volume(verts) if verts.shape[1] > 1 else float(verts[1, 0] - verts[0, 0])
    if vol <= EPS_VOL:
        return McResult(0.0, 0.0, 0, 0)
    dim = verts.shape[1]
    n = max(cfg.samples // cfg.iterations, 2)
    values, sigmas = [], []
    used = skipped = 0
    for _ in range(cfg.iterations):
        w = sample_unit_simplex(rng, dim, n)
        pts = w @ verts
        fx = np.asarray(density(pts), dtype=float)
        good = np.isfinite(fx)
        skipped += int(n - good.sum())
        fx = fx[good]
        used += len(fx)
        if len(fx) == 0:
            continue
        mean = fx.mean()
        values.append(vol * mean)
        sigmas.append(vol / len(fx) * np.sqrt(np.sum((fx - mean) ** 2)))
    if not values:
        return McResult(0.0, 0.0, used, skipped)
    value, sigma = _combine(np.array(values), np.array(sigmas))
    return McResult(value, sigma, used, skipped)


def probability_over_region_direct(
    poly: HPolytope, density, cfg: McConfig, rng: np.random.Generator
) -> McResult:
    """Monte Carlo integral over a region via its bounding box."""
    box = bounding_box(poly)
    if box is None:
        return McResult(0.0, 0.0, 0, 0)
    lo, hi = box
    if np.any(hi - lo <= EPS_VOL):
        return McResult(0.0, 0.0, 0, 0)

    def f(pts: np.ndarray) -> np.ndarray:
        inside = poly.contains(pts)
        out = np.zeros(len(pts))
        if inside.any():
            out[inside] = density(pts[inside])
        return out

    return mc_integrate(f, list(zip(lo, hi)), cfg, rng)
