"""Polytope machinery: vertices, triangulation, volumes, simplex sampling."""

import math
from itertools import combinations_with_replacement

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog
from scipy.spatial import HalfspaceIntersection, QhullError

import hpng.geometry
from hpng import build_plt
from hpng.geometry import (
    EPS_GEOM,
    EPS_VERTEX,
    EPS_VOL,
    HPolytope,
    _sorted_columns,
    bounding_box,
    chebyshev_center,
    make_polytope,
    polytope_volume,
    probability_over_region_direct,
    probability_over_simplex,
    sample_unit_simplex,
    simplex_rule,
    simplex_volume,
    triangulate,
    vertex_enumeration,
)
from hpng.montecarlo import MC_BLOCK, McConfig, McResult, mc_integrate, stream
from hpng.transient import candidate_locations, location_region_terms


def unit_box(dim):
    rows = []
    for i in range(dim):
        e = np.zeros(dim)
        e[i] = 1.0
        rows.append((e.copy(), 1.0))
        rows.append((-e, 0.0))
    return make_polytope(rows, dim)


def cayley_menger_volume(verts):
    """Simplex volume from pairwise distances only."""
    n = len(verts) - 1
    d2 = np.sum((verts[:, None, :] - verts[None, :, :]) ** 2, axis=2)
    b = np.ones((n + 2, n + 2))
    b[0, 0] = 0.0
    b[1:, 1:] = d2
    det = np.linalg.det(b)
    coef = (-1) ** (n + 1) / (2 ** n * math.factorial(n) ** 2)
    return math.sqrt(max(coef * det, 0.0))


# ---------------------------------------------------------------------------
# H-representation basics

def test_contains_vectorized():
    poly = unit_box(2)
    pts = np.array([[0.5, 0.5], [1.5, 0.5], [-0.1, 0.2], [1.0, 1.0]])
    assert list(poly.contains(pts)) == [True, False, False, True]


def test_chebyshev_center_of_box():
    center, radius = chebyshev_center(unit_box(3))
    assert np.allclose(center, 0.5)
    assert radius == pytest.approx(0.5)


def test_chebyshev_center_solves_through_the_module_linprog(monkeypatch):
    # bench/tracing.py counts LPs by rebinding hpng.geometry.linprog
    forward, calls = hpng.geometry.linprog, []

    def counting(*args, **kwargs):
        calls.append(kwargs)
        return forward(*args, **kwargs)

    monkeypatch.setattr(hpng.geometry, "linprog", counting)
    center, radius = chebyshev_center(unit_box(2))
    assert len(calls) == 1
    assert np.allclose(center, 0.5) and radius == pytest.approx(0.5)


def test_chebyshev_center_infeasible():
    poly = make_polytope([(np.array([1.0]), 0.0), (np.array([-1.0]), -1.0)], 1)
    assert chebyshev_center(poly) is None


def test_bounding_box_of_cut_box():
    rows = [(np.array([1.0, 1.0]), 1.0)]
    poly = HPolytope(np.vstack([unit_box(2).a, [r[0] for r in rows]]),
                     np.concatenate([unit_box(2).b, [rows[0][1]]]))
    lo, hi = bounding_box(poly)
    assert np.allclose(lo, 0.0)
    assert np.allclose(hi, 1.0)


def test_bounding_box_unbounded_is_none():
    poly = make_polytope([(np.array([1.0, 0.0]), 1.0)], 2)
    assert bounding_box(poly) is None


def rotated_square():
    """|x + y| <= 1 and |x - y| <= 1: bounded, yet no row bounds an axis alone."""
    rows = [(np.array([sx, sy]), 1.0) for sx in (1.0, -1.0) for sy in (1.0, -1.0)]
    return make_polytope(rows, 2)


def test_rotated_square_has_four_vertices_and_the_unit_box():
    verts = vertex_enumeration(rotated_square())
    expect = {(1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0)}
    assert {tuple(np.round(v, 12) + 0.0) for v in verts} == expect
    lo, hi = bounding_box(rotated_square())
    assert np.allclose(lo, -1.0) and np.allclose(hi, 1.0)


@pytest.mark.parametrize("rows", [
    [],                                                             # the plane
    [(np.array([1.0, 1.0]), 1.0)],                                  # half-plane
    [(np.array([-1.0, 0.0]), 0.0), (np.array([0.0, -1.0]), 0.0)],  # quadrant
    [(np.array([1.0, -1.0]), 0.0), (np.array([-1.0, -1.0]), 0.0),  # cone
     (np.array([0.0, -1.0]), 1.0)],
    [(np.array([0.0, -1.0]), 0.0), (np.array([0.0, 1.0]), 1.0),    # half-strip with
     (np.array([-1.0, 0.0]), 0.0), (np.array([-1.0, -1.0]), -0.5)],  # three vertices
], ids=["plane", "half-plane", "quadrant", "cone", "half-strip"])
def test_unbounded_region_has_no_vertices_and_no_box(rows):
    poly = make_polytope(rows, 2)
    assert vertex_enumeration(poly).shape == (0, 2)
    assert bounding_box(poly) is None


def test_duplicated_and_scaled_rows_give_the_same_vertices():
    base = unit_box(3)
    cut = np.array([1.0, 1.0, 1.0])
    poly = HPolytope(np.vstack([base.a, cut]), np.concatenate([base.b, [2.0]]))
    noisy = HPolytope(np.vstack([poly.a, poly.a, 3.0 * poly.a[:4], 0.5 * cut]),
                      np.concatenate([poly.b, poly.b, 3.0 * poly.b[:4], [1.0]]))
    expect = vertex_enumeration(poly)
    assert len(expect) == 7
    got = vertex_enumeration(noisy)
    assert sorted(map(tuple, np.round(got, 12))) == sorted(map(tuple, np.round(expect, 12)))


def test_infeasible_region_in_several_dimensions_is_empty():
    for dim in (2, 3, 4):
        base = unit_box(dim)
        poly = HPolytope(np.vstack([base.a, np.ones(dim)]),
                         np.concatenate([base.b, [-0.5]]))
        assert vertex_enumeration(poly).shape == (0, dim)
        assert bounding_box(poly) is None


# ---------------------------------------------------------------------------
# vertex enumeration

def test_box_vertices_are_corners():
    for dim in (1, 2, 3):
        verts = vertex_enumeration(unit_box(dim))
        assert len(verts) == 2 ** dim
        expect = {tuple(np.round(v)) for v in verts}
        assert len(expect) == 2 ** dim
        assert all(set(t) <= {0.0, 1.0} for t in expect)


def test_standard_simplex_vertices():
    dim = 3
    rows = [(np.ones(dim), 1.0)]
    for i in range(dim):
        e = np.zeros(dim)
        e[i] = -1.0
        rows.append((e, 0.0))
    verts = vertex_enumeration(make_polytope(rows, dim))
    assert len(verts) == dim + 1
    expect = np.vstack([np.zeros(dim), np.eye(dim)])
    for v in expect:
        assert np.min(np.linalg.norm(verts - v, axis=1)) < 1e-6


def test_degenerate_region_is_empty():
    # Pinched to the hyperplane x0 = 0.5: measure zero.
    rows = [(np.array([1.0, 0.0]), 0.5), (np.array([-1.0, 0.0]), -0.5)]
    poly = HPolytope(np.vstack([unit_box(2).a] + [r[0] for r in rows]),
                     np.concatenate([unit_box(2).b, [r[1] for r in rows]]))
    assert len(vertex_enumeration(poly)) == 0


def test_infeasible_region_is_empty():
    poly = make_polytope([(np.array([1.0]), 0.0), (np.array([-1.0]), -1.0)], 1)
    assert len(vertex_enumeration(poly)) == 0


def test_vertices_satisfy_their_halfspaces():
    rng = np.random.default_rng(7)
    for _ in range(20):
        dim = int(rng.integers(2, 5))
        poly = unit_box(dim)
        extra_a, extra_b = [], []
        for _ in range(3):
            a = rng.normal(size=dim)
            a /= np.linalg.norm(a)
            extra_a.append(a)
            extra_b.append(float(a @ np.full(dim, 0.5) + rng.uniform(0.05, 0.5)))
        poly = HPolytope(np.vstack([poly.a, extra_a]),
                         np.concatenate([poly.b, extra_b]))
        verts = vertex_enumeration(poly)
        if len(verts):
            assert poly.contains(verts, eps=1e-6).all()


# ---------------------------------------------------------------------------
# volumes and triangulation

def test_simplex_volume_matches_cayley_menger():
    rng = np.random.default_rng(3)
    for _ in range(50):
        dim = int(rng.integers(1, 5))
        verts = rng.normal(size=(dim + 1, dim))
        direct = simplex_volume(verts)
        assert direct == pytest.approx(cayley_menger_volume(verts), abs=1e-10)


def test_triangulation_partitions_hull_volume():
    rng = np.random.default_rng(5)
    for _ in range(10):
        dim = int(rng.integers(2, 5))
        verts = rng.normal(size=(dim + 4, dim))
        pieces = triangulate(verts)
        total = sum(simplex_volume(s) for s in pieces)
        assert total == pytest.approx(polytope_volume(verts), rel=1e-8)


def test_triangulate_too_few_points():
    assert triangulate(np.zeros((2, 2))) == []


def test_triangulate_interval():
    pieces = triangulate(np.array([[3.0], [1.0], [2.0]]))
    assert len(pieces) == 1
    assert simplex_volume(pieces[0]) == pytest.approx(2.0)


def test_mc_volume_matches_triangulation():
    rng = np.random.default_rng(11)
    cfg = McConfig(samples=40_000, iterations=4, seed=0)
    for rep in range(5):
        dim = int(rng.integers(2, 4))
        base = unit_box(dim)
        a = rng.normal(size=dim)
        a /= np.linalg.norm(a)
        cut = float(a @ np.full(dim, 0.5) + rng.uniform(0.0, 0.3))
        poly = HPolytope(np.vstack([base.a, [a]]), np.concatenate([base.b, [cut]]))
        verts = vertex_enumeration(poly)
        exact = sum(simplex_volume(s) for s in triangulate(verts))
        res = mc_integrate(lambda p: poly.contains(p).astype(float),
                           [(0.0, 1.0)] * dim, cfg, stream(20, rep))
        assert abs(res.value - exact) <= 3.0 * res.sigma + 1e-3


# ---------------------------------------------------------------------------
# simplex sampling

def test_simplex_weights_are_barycentric():
    rng = np.random.default_rng(6)
    w = sample_unit_simplex(rng, 3, 500)
    assert w.shape == (500, 4)
    assert np.all(w >= -1e-12)
    assert np.allclose(w.sum(axis=1), 1.0)


def test_simplex_sampling_moments():
    # Uniform barycentric weights are Dirichlet(1,..,1): mean 1/(d+1),
    # second moment 2/((d+1)(d+2)).
    rng = np.random.default_rng(8)
    dim = 2
    w = sample_unit_simplex(rng, dim, 200_000)
    assert np.allclose(w.mean(axis=0), 1.0 / (dim + 1), atol=5e-3)
    assert np.allclose((w ** 2).mean(axis=0), 2.0 / ((dim + 1) * (dim + 2)),
                       atol=5e-3)


def test_probability_over_simplex_constant_density():
    verts = np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0]])
    cfg = McConfig(samples=20_000, iterations=4, seed=0)
    res = probability_over_simplex(verts, lambda p: np.ones(len(p)),
                                   cfg, stream(30, 0))
    assert res.value == pytest.approx(2.0, abs=1e-9)


def test_probability_over_simplex_linear_density():
    # Integral of x over the triangle (0,0),(1,0),(0,1) is 1/6.
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    cfg = McConfig(samples=50_000, iterations=4, seed=0)
    res = probability_over_simplex(verts, lambda p: p[:, 0], cfg, stream(31, 0))
    assert abs(res.value - 1.0 / 6.0) <= 3.0 * res.sigma + 1e-4


def test_probability_over_degenerate_simplex_is_zero():
    verts = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])
    cfg = McConfig(samples=1000, iterations=2, seed=0)
    res = probability_over_simplex(verts, lambda p: np.ones(len(p)),
                                   cfg, stream(32, 0))
    assert res.value == 0.0


def test_region_direct_uniform_density():
    cfg = McConfig(samples=30_000, iterations=4, seed=0)
    res = probability_over_region_direct(unit_box(2), lambda p: np.ones(len(p)),
                                         cfg, stream(33, 0))
    assert res.value == pytest.approx(1.0, abs=1e-9)


def test_region_direct_infeasible_is_zero():
    poly = make_polytope([(np.array([1.0]), 0.0), (np.array([-1.0]), -1.0)], 1)
    cfg = McConfig(samples=1000, iterations=2, seed=0)
    res = probability_over_region_direct(poly, lambda p: np.ones(len(p)),
                                         cfg, stream(34, 0))
    assert res.value == 0.0


# ---------------------------------------------------------------------------
# reference: the Chebyshev-centre + qhull enumerator and the LP box


def reference_vertices(poly):
    """Vertices through a Chebyshev-centre LP and the qhull half-space dual."""
    n = poly.dim
    if n == 1:
        lo = max((bi / ai for ai, bi in zip(poly.a[:, 0], poly.b) if ai < 0), default=-np.inf)
        hi = min((bi / ai for ai, bi in zip(poly.a[:, 0], poly.b) if ai > 0), default=np.inf)
        if not (np.isfinite(lo) and np.isfinite(hi)) or hi - lo <= EPS_GEOM:
            return np.zeros((0, 1))
        return np.array([[lo], [hi]])
    center = chebyshev_center(poly)
    if center is None or center[1] <= EPS_GEOM:
        return np.zeros((0, n))
    try:
        hs = HalfspaceIntersection(np.hstack([poly.a, -poly.b[:, None]]), center[0])
    except QhullError:
        return np.zeros((0, n))
    return hs.intersections


def reference_box(poly):
    """Bounding box through 2n LPs."""
    n = poly.dim
    lo, hi = np.empty(n), np.empty(n)
    for i in range(n):
        c = np.zeros(n)
        c[i] = 1.0
        for sign, out in ((1.0, lo), (-1.0, hi)):
            r = linprog(sign * c, A_ub=poly.a, b_ub=poly.b,
                        bounds=[(None, None)] * n, method="highs")
            assert r.success
            out[i] = r.x[i]
    return lo, hi


@pytest.fixture(scope="module")
def region_sample(battery_model, reservoir_tree):
    """Every seventh region of battery tau = 20 at t' = 4, 8, ..., 20, and
    every region of reservoir tau = 10 at t' = 2, 4, ..., 10."""
    battery = build_plt(battery_model, 20.0)
    polys = []
    for tree, times, stride in ((battery, range(4, 21, 4), 7),
                                (reservoir_tree, range(2, 11, 2), 1)):
        found = [poly for t in times for loc in candidate_locations(tree, float(t))
                 for _, poly, _ in location_region_terms(tree.model, tree, loc, float(t))
                 if poly is not None]
        polys += found[::stride]
    return polys


def test_vertices_and_boxes_match_the_lp_reference(region_sample):
    dims = {poly.dim for poly in region_sample}
    assert dims == {1, 2, 3, 4, 5}
    empty = 0
    for poly in region_sample:
        ref = reference_vertices(poly)
        got = vertex_enumeration(poly)
        assert (len(got) == 0) == (len(ref) == 0)
        if len(got) == 0:
            empty += 1
            assert bounding_box(poly) is None
            continue
        assert polytope_volume(got) == pytest.approx(polytope_volume(ref), abs=1e-9)
        lo, hi = bounding_box(poly)
        # a box this thin would have no vertices, so the direct route never sees one
        assert np.all(hi - lo > EPS_VOL)
        ref_lo, ref_hi = reference_box(poly)
        assert np.max(np.abs(lo - ref_lo)) <= 1e-9
        assert np.max(np.abs(hi - ref_hi)) <= 1e-9
    assert 0 < empty < len(region_sample)


# ---------------------------------------------------------------------------
# one-dimensional regions: the closed-form interval is the general path


def _interval(*rows):
    return make_polytope([(np.array([a]), b) for a, b in rows], 1)


def _crafted_intervals():
    polys = [
        # duplicate rows, and rows scaled by 2 and 3
        _interval((1.0, 5.0), (1.0, 5.0), (2.0, 10.0), (-1.0, -2.0), (-3.0, -6.0)),
        _interval((0.5, 2.5), (-2.0, -4.0), (0.5, 2.5), (-1.0, -2.0)),
        # rows with no variable, one that holds and one that fails
        _interval((0.0, 1.0), (1.0, 3.0), (-1.0, 0.0)),
        _interval((0.0, -1.0), (1.0, 3.0), (-1.0, 0.0)),
        # infeasible, and unbounded on either side or both
        _interval((1.0, 1.0), (-1.0, -2.0)),
        _interval((1.0, 5.0)),
        _interval((-1.0, 0.0), (-2.0, 1.0)),
        _interval((1.0, 5.0), (2.0, 3.0)),
        _interval(),
    ]
    # bounds within EPS_VERTEX of the tightest, some straddling a multiple
    # of EPS_GEOM / 2 so that their vertices survive deduplication apart
    for near in (4e-10, -4e-10, 9.9e-10, 1.1e-9):
        for end in (5.0, 5.0 + 0.5 * EPS_GEOM):
            polys.append(_interval((1.0, end), (1.0, end + near), (2.0, 2.0 * end + near),
                                   (-1.0, -2.0), (-1.0, -2.0 + near)))
    # widths around EPS_GEOM and 2 EPS_GEOM, the two emptiness thresholds
    for lo in (0.0, 1.0, -3.0, 7.25):
        for w in (EPS_GEOM, 2.0 * EPS_GEOM, 2.1 * EPS_GEOM, 3.0 * EPS_GEOM):
            hi = lo + w
            for step in range(-3, 4):
                top = hi
                for _ in range(abs(step)):
                    top = np.nextafter(top, np.inf if step > 0 else -np.inf)
                polys.append(_interval((1.0, top), (-1.0, -lo)))
                polys.append(_interval((3.0, 3.0 * top), (-2.0, -2.0 * lo), (1.0, top + 1e-9)))
    rng = np.random.default_rng(5)
    for _ in range(200):
        m = int(rng.integers(1, 8))
        a = rng.choice([-3.0, -2.0, -1.0, -0.5, 0.5, 1.0, 2.0], size=m)
        b = a * rng.choice([0.0, 1.0, 1.0 + EPS_VERTEX, 1.0 + 2e-7, 2.0], size=m)
        b = b + rng.choice([0.0, 3e-10, -7e-10, EPS_GEOM], size=m)
        polys.append(_interval(*zip(a, b)))
    return polys


def test_interval_vertices_are_the_general_paths(region_sample, monkeypatch):
    # One dimension takes its interval in closed form; the general path
    # (propagation, subset solve) must give the same vertices, bit for bit,
    # and so the same emptiness.
    polys = [poly for poly in region_sample if poly.dim == 1] + _crafted_intervals()
    assert sum(poly.dim == 1 for poly in region_sample) >= 10
    closed = [vertex_enumeration(poly) for poly in polys]
    monkeypatch.setattr(hpng.geometry, "_interval_vertices", hpng.geometry._subset_vertices)
    shapes = set()
    for poly, got in zip(polys, closed):
        want = vertex_enumeration(poly)
        assert got.shape == want.shape, (poly.a.ravel(), poly.b)
        assert got.tobytes() == want.tobytes(), (poly.a.ravel(), poly.b)
        shapes.add(len(got))
    assert {0, 2, 3} <= shapes


# ---------------------------------------------------------------------------
# the direct route's kernel against every row, unblocked


def _reference_estimate(draws, vol):
    """The estimator over each iteration's values, allocating every array
    afresh: a non-finite value counts as skipped and as 0 in the mean,
    sigma^2 = vol^2/n^2 * sum (f - mean)^2, and the i.i.d. iterations
    combine by their plain mean with sigma = sqrt(sum sigma_i^2) / m."""
    vals, sigmas, used, skipped = [], [], 0, 0
    for fx in draws:
        ok = np.isfinite(fx)
        n, good = fx.size, int(ok.sum())
        used += good
        skipped += n - good
        fx = np.where(ok, fx, 0.0)
        mean = fx.mean()
        vals.append(vol * mean)
        sigmas.append(math.sqrt((vol * vol / (n * n)) * float(((fx - mean) ** 2).sum())))
    value = float(np.mean(vals))
    sigma = math.sqrt(sum(s * s for s in sigmas)) / len(sigmas)
    return McResult(value, sigma, used, skipped)


def _reference_mc(f, box, cfg, rng):
    """``mc_integrate`` drawing and evaluating each iteration in one call."""
    lo = np.array([b[0] for b in box], dtype=float)
    hi = np.array([b[1] for b in box], dtype=float)
    vol = float(np.prod(hi - lo)) if len(box) else 1.0
    if vol <= 0.0:
        return McResult(0.0, 0.0, 0)
    return _reference_estimate(
        (np.asarray(f(rng.uniform(size=(cfg.samples, len(box))) * (hi - lo) + lo), dtype=float)
         for _ in range(cfg.iterations)), vol)


def _reference_direct(poly, density, cfg, rng):
    """``probability_over_region_direct`` testing every sample against every row."""
    box = bounding_box(poly)
    if box is None:
        return McResult(0.0, 0.0, 0, 0)
    lo, hi = box
    if np.any(hi - lo <= EPS_VOL):
        return McResult(0.0, 0.0, 0, 0)

    def f(pts):
        inside = poly.contains(pts)
        out = np.zeros(len(pts))
        if inside.any():
            out[inside] = density(pts[inside])
        return out

    return _reference_mc(f, list(zip(lo, hi)), cfg, rng)


def _hex(res):
    return (res.value.hex(), res.sigma.hex(), res.samples_used, res.samples_skipped)


@st.composite
def _cut_boxes(draw):
    """A dyadic box, cut by rows that miss it, touch it at a corner or an
    edge (box maximum equal to the bound), or cut it; some duplicated or
    scaled, so every box maximum below is exact."""
    n = draw(st.integers(1, 4))
    lo = np.array(draw(st.lists(st.integers(-4, 4), min_size=n, max_size=n)), dtype=float)
    hi = lo + np.array(draw(st.lists(st.integers(1, 4), min_size=n, max_size=n)))
    rows = []
    for i in range(n):
        e = np.zeros(n)
        e[i] = 1.0
        rows += [(e, hi[i]), (-e, -lo[i])]
    coeff = st.sampled_from([-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0])
    for _ in range(draw(st.integers(0, 4))):
        a = np.array(draw(st.lists(coeff, min_size=n, max_size=n)))
        most = float(np.where(a > 0.0, a * hi, a * lo).sum())
        least = float(np.where(a > 0.0, a * lo, a * hi).sum())
        b = draw(st.sampled_from([most, most + 0.5, most - 0.25, (most + least) / 2,
                                  least + 0.25]))
        rows.append((a, b))
        if draw(st.booleans()):
            scale = draw(st.sampled_from([1.0, 2.0]))
            rows.append((a * scale, b * scale))
    order = draw(st.permutations(range(len(rows))))
    return make_polytope([rows[i] for i in order], n)


@settings(max_examples=80, deadline=None)
@given(poly=_cut_boxes(),
       samples=st.sampled_from([2, 3, 257, MC_BLOCK - 1, MC_BLOCK, MC_BLOCK + 1,
                                2 * MC_BLOCK + 1, 5_000, 9_999]),
       iterations=st.integers(1, 3), seed=st.integers(0, 2 ** 16),
       nan_above=st.sampled_from([None, 0.0, 1.5]))
def test_direct_kernel_is_the_all_rows_reference(poly, samples, iterations, seed, nan_above):
    # Dropping the rows that cannot fail in the box, and evaluating in
    # blocks, changes no value, sigma or sample count.
    c = np.linspace(0.3, 0.9, poly.dim)

    def density(pts):
        out = np.exp(-0.1 * (pts @ c)) * (1.0 + pts[:, 0] ** 2)
        if nan_above is not None:
            out[pts[:, -1] > nan_above] = np.nan
        return out

    cfg = McConfig(samples=samples, iterations=iterations, seed=seed)
    want = _reference_direct(poly, density, cfg, stream(seed, 1))
    got = probability_over_region_direct(poly, density, cfg, stream(seed, 1))
    assert _hex(got) == _hex(want)


# ---------------------------------------------------------------------------
# the simplex route's kernel against allocating every array per iteration


def _reference_simplex(verts, density, cfg, rng):
    """``probability_over_simplex`` sorting with ``np.sort`` and allocating
    every array afresh in each iteration."""
    vol = simplex_volume(verts) if verts.shape[1] > 1 else float(verts[1, 0] - verts[0, 0])
    if vol <= EPS_VOL:
        return McResult(0.0, 0.0, 0, 0)
    dim = verts.shape[1]
    n = max(cfg.samples // cfg.iterations, 2)

    def draws():
        for _ in range(cfg.iterations):
            u = np.sort(rng.random((n, dim)), axis=1)
            w = np.diff(np.hstack([np.zeros((n, 1)), u, np.ones((n, 1))]), axis=1)
            yield np.asarray(density(w @ verts), dtype=float)

    return _reference_estimate(draws(), vol)


@settings(max_examples=80, deadline=None)
@given(dim=st.integers(1, 7), samples=st.sampled_from([2, 3, 5, 7, 999, 4_001, 40_000]),
       iterations=st.integers(1, 5), seed=st.integers(0, 2 ** 16),
       bad=st.sampled_from([None, np.nan, np.inf, -np.inf]), degenerate=st.booleans())
def test_simplex_kernel_is_the_allocating_reference(dim, samples, iterations, seed, bad,
                                                    degenerate):
    # Reused buffers, the sorting network and the in-place zero fill
    # change no value, sigma or sample count; a density that returns nan or inf on
    # some rows, and a simplex of no volume, included.
    rng = np.random.default_rng(seed)
    verts = rng.uniform(-3.0, 5.0, size=(dim + 1, dim))
    if degenerate:
        verts[-1] = verts[0] if dim == 1 else 0.5 * (verts[0] + verts[1])
    c = np.linspace(0.3, 0.9, dim)

    def density(pts):
        out = np.exp(-0.1 * (pts @ c)) * (1.0 + pts[:, 0] ** 2)
        if bad is not None:
            out[pts[:, -1] > np.median(verts[:, -1])] = bad
        return out

    cfg = McConfig(samples=samples, iterations=iterations, seed=seed)
    want = _reference_simplex(verts, density, cfg, stream(seed, 2))
    got = probability_over_simplex(verts, density, cfg, stream(seed, 2))
    assert _hex(got) == _hex(want)
    if degenerate:
        assert _hex(got) == _hex(McResult(0.0, 0.0, 0, 0))


@pytest.mark.parametrize("dim", range(1, 9))
def test_sorting_network_is_np_sort(dim):
    # Every row of random draws, and of rows with ties and zeros, comes
    # out of the network with the bytes np.sort gives; so do the weights
    # of sample_unit_simplex.
    rng = np.random.default_rng(dim)
    draws = rng.random((5_000, dim))
    ties = rng.choice([0.0, 0.25, 0.5, 1.0 - 2.0 ** -53], size=(5_000, dim))
    ties[::7] = 0.0
    ties[1::7] = 0.5
    for u in (draws, ties, np.ascontiguousarray(draws[:1])):
        cols = np.empty((dim + 1, len(u)))
        got = np.stack(_sorted_columns(u, cols), axis=1)
        assert got.tobytes() == np.sort(u, axis=1).tobytes()
    # sample_unit_simplex samples through the same network
    u = np.sort(stream(dim, 0).random((1_001, dim)), axis=1)
    want = np.diff(np.hstack([np.zeros((1_001, 1)), u, np.ones((1_001, 1))]), axis=1)
    assert sample_unit_simplex(stream(dim, 0), dim, 1_001).tobytes() == want.tobytes()


def _dirichlet_moment(alpha, vol):
    """The integral of the barycentric monomial lambda^alpha over an
    n-simplex of volume vol: n! vol alpha! / (n + |alpha|)!."""
    n = len(alpha) - 1
    return (math.factorial(n) * vol * math.prod(math.factorial(a) for a in alpha)
            / math.factorial(n + sum(alpha)))


def _random_simplex(rng, n):
    """The standard n-simplex under a random rotation, axis scales in
    [0.5, 2] and shift: random, and conditioned well enough that solving
    for barycentric coordinates keeps the moments to 1e-12."""
    rotation, _ = np.linalg.qr(rng.normal(size=(n, n)))
    scaled = np.vstack([np.zeros(n), np.diag(rng.uniform(0.5, 2.0, n))])
    return scaled @ rotation + rng.uniform(-1.0, 1.0, n)


def _barycentric(verts, pts):
    lam = np.linalg.solve((verts[1:] - verts[0]).T, (pts - verts[0]).T).T
    return np.hstack([1.0 - lam.sum(axis=1, keepdims=True), lam])


def _rule_moment(verts, s, alpha):
    pts, weights = simplex_rule([verts], s)
    return weights @ np.prod(_barycentric(verts, pts) ** np.asarray(alpha), axis=1)


@pytest.mark.parametrize("s", range(4))
@pytest.mark.parametrize("n", range(1, 7))
def test_simplex_rule_integrates_every_monomial_up_to_its_degree(n, s):
    # Grundmann-Moeller of degree 2s + 1 on a random n-simplex: exact on
    # every barycentric monomial of degree <= 2s + 1, with C(n + s + 1, s)
    # points, and not on lambda_0^(2s + 2).
    verts = _random_simplex(np.random.default_rng(100 * n + s), n)
    vol = simplex_volume(verts) if n > 1 else abs(float(verts[1, 0] - verts[0, 0]))
    pts, weights = simplex_rule([verts], s)
    assert pts.shape == (math.comb(n + s + 1, s), n)
    for degree in range(2 * s + 2):
        for parts in combinations_with_replacement(range(n + 1), degree):
            alpha = np.bincount(np.asarray(parts, dtype=int), minlength=n + 1)
            want = _dirichlet_moment(alpha, vol)
            assert _rule_moment(verts, s, alpha) == pytest.approx(want, rel=1e-12, abs=0.0)
    alpha = [2 * s + 2] + [0] * n
    want = _dirichlet_moment(alpha, vol)
    assert abs(_rule_moment(verts, s, alpha) - want) > 1e-6 * want


def test_simplex_rule_maps_every_simplex():
    # Several simplices at once: the points of each lie inside it and the
    # weights of each sum to its volume.
    rng = np.random.default_rng(7)
    simplices = [_random_simplex(rng, 3) for _ in range(5)]
    pts, weights = simplex_rule(simplices, 2)
    per = math.comb(3 + 2 + 1, 2)
    for k, verts in enumerate(simplices):
        assert (_barycentric(verts, pts[k * per:(k + 1) * per]) > 0.0).all()
        assert weights[k * per:(k + 1) * per].sum() == pytest.approx(simplex_volume(verts),
                                                                      rel=1e-12)
