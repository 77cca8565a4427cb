"""Acceptance gate, one test per criterion.

Covers: the reservoir tree layout, the two battery sweeps against their
reference values, simulator-vs-tree path replay, normalization of the
occupation probabilities, the geometry kernels, Monte Carlo calibration,
and soundness sampling of the restricted domains. Each test prints a
single pass/fail line; the lines are echoed together after the run.
"""

import math
import time

import numpy as np
from scipy.spatial import Delaunay
from scipy.special import ndtr

from conftest import (ACCEPTANCE_LINES, MODELS, assignment_values,
                      battery_variant, sample_assignment, walk_path)
from hpng import build_plt, load_model
from hpng.geometry import (HPolytope, chebyshev_center, polytope_volume,
                           simplex_volume, vertex_enumeration)
from hpng.montecarlo import McConfig, mc_integrate, stream, vegas_integrate
from hpng.props import parse_property
from hpng.semantics import EventKind, guard_key
from hpng.simulate import estimate_probability, simulate_run
from hpng.transient import (METHODS, candidate_locations, location_pieces,
                            transient_probability)
from hpng.tree import pending_rvs
from test_tree import RESERVOIR_ROWS, _rows

GATE_CFG = McConfig(samples=40_000, iterations=5, seed=0)


def report(num: int, ok: bool, detail: str) -> None:
    line = f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}"
    ACCEPTANCE_LINES.append(line)
    print(line)


# ---------------------------------------------------------------------------
# 1. reservoir tree layout


def test_criterion_1_reservoir_tree_layout():
    t0 = time.perf_counter()
    model = load_model(str(MODELS / "reservoir.json"))
    tree = build_plt(model, 10.0)
    elapsed = time.perf_counter() - t0
    match = _rows(tree) == RESERVOIR_ROWS
    ok = match and elapsed < 1.0
    report(1, ok, f"reservoir tree: {len(tree.locations)} locations, "
                  f"layout match={match}, built in {elapsed * 1e3:.0f} ms (< 1 s)")
    assert match
    assert elapsed < 1.0


# ---------------------------------------------------------------------------
# 2. battery repair-time sweep, three methods against the reference values


REPAIR_SWEEP = ((8.0, 0.200), (7.0, 0.295), (5.0, 0.454))


def test_criterion_2_repair_time_sweep():
    fails, details = [], []
    for dat, target in REPAIR_SWEEP:
        t0 = time.perf_counter()
        model = battery_variant(repair_time=dat)
        tree = build_plt(model, 8.0)
        atoms = parse_property("m(grid_on) >= 1", model)
        res = {m: transient_probability(tree, 8.0, atoms, method=m, cfg=GATE_CFG)
               for m in METHODS}
        elapsed = time.perf_counter() - t0
        for m, r in res.items():
            if abs(r.total - target) > 0.005:
                fails.append(f"dat={dat:g} {m}={r.total:.4f} target={target}")
        for i, a in enumerate(METHODS):
            for b in METHODS[i + 1:]:
                gap = abs(res[a].total - res[b].total)
                lim = 3 * math.hypot(res[a].sigma, res[b].sigma) + 1e-9
                if gap > lim:
                    fails.append(f"dat={dat:g} {a}/{b} disagree by {gap:.2e} (limit {lim:.2e})")
        if elapsed > 300.0:
            fails.append(f"dat={dat:g} column took {elapsed:.0f} s (limit 300 s)")
        mean = np.mean([r.total for r in res.values()])
        details.append(f"{dat:g}h->{mean:.3f} in {elapsed:.1f}s")
    ok = not fails
    report(2, ok, "repair-time sweep (3 methods, +/-0.005, pairwise 3 sigma): "
                  + ", ".join(details))
    assert ok, fails


# ---------------------------------------------------------------------------
# 3. battery demand-switch distribution sweep, methods and simulator


SWITCH_SWEEP = (
    ("U(0,10)", {"family": "uniform", "a": 0.0, "b": 10.0}, 0.040),
    ("U(6,10)", {"family": "uniform", "a": 6.0, "b": 10.0}, 0.241),
    ("N(8,1)", {"family": "normal", "mu": 8.0, "sigma": 1.0}, 0.249),
    ("N(7,1)", {"family": "normal", "mu": 7.0, "sigma": 1.0}, 0.023),
    ("N(7,2)", {"family": "normal", "mu": 7.0, "sigma": 2.0}, 0.070),
)


def test_criterion_3_switch_distribution_sweep():
    # Two of the five reference values (U(6,10) and N(7,2)) disagree with the
    # closed-form answer for this model, the product of the two switch
    # survival probabilities at t' = 8. Every engine here agrees with the
    # closed form and with the others, so those two columns fail below; the
    # assertions state the reference values as given rather than smoothing
    # over the difference.
    bad, details = [], []
    for label, fam, target in SWITCH_SWEEP:
        model = battery_variant(repair_time=11.0, switch_family=fam)
        tree = build_plt(model, 8.0)
        atoms = parse_property("m(demand_std) = 1", model)
        col_bad = []
        for m in METHODS:
            r = transient_probability(tree, 8.0, atoms, method=m, cfg=GATE_CFG)
            if abs(r.total - target) > 0.005:
                col_bad.append(f"{m}={r.total:.4f}")
        est = estimate_probability(model, 8.0, 8.0, atoms, seed=1,
                                   runs=40_000, half_width=0.005)
        if abs(est.p - target) > est.half_width + 0.005:
            col_bad.append(f"sim={est.p:.4f}+/-{est.half_width:.4f}")
        details.append(f"{label}:{'ok' if not col_bad else 'off'}")
        if col_bad:
            bad.append(f"{label} target={target}: " + ", ".join(col_bad))
    ok = not bad
    report(3, ok, "switch-distribution sweep (reference +/-0.005, sim CI): "
                  + " ".join(details))
    assert ok, bad


# ---------------------------------------------------------------------------
# 4. simulator path replay against the tree


RANK = {EventKind.GUARD_ARC: 0, EventKind.BOUNDARY: 1, EventKind.IMMEDIATE: 2,
        EventKind.DETERMINISTIC: 3, EventKind.GENERAL: 3}


def _tree_events(tree, asg):
    out = []
    for loc in walk_path(tree, asg)[1:]:
        t = loc.entry.evaluate(assignment_values(loc, asg))
        src, kind = loc.source, loc.source_kind
        if kind is EventKind.GUARD_ARC:
            target = src.split()[1]
        elif kind is EventKind.BOUNDARY:
            target = src.split(" reaches")[0]
        else:
            target = src[: -len(" fires")]
        out.append((t, kind, target))
    return out


def _sim_events(model, res):
    out = []
    for ev in res.trace:
        target = ev.target
        if ev.kind is EventKind.GUARD_ARC:
            target = guard_key(model, int(target[1:]))
        out.append((ev.time, ev.kind, target))
    return out


def _normalize(events, tol=1e-6):
    """Sort events, then order coincident ones by class rank and target."""
    events = sorted(events, key=lambda e: e[0])
    groups, cur, t0 = [], [], None
    for ev in events:
        if cur and ev[0] - t0 > tol:
            groups.append(sorted(cur, key=lambda e: (RANK[e[1]], e[2])))
            cur = []
        if not cur:
            t0 = ev[0]
        cur.append(ev)
    if cur:
        groups.append(sorted(cur, key=lambda e: (RANK[e[1]], e[2])))
    return [ev for g in groups for ev in g]


def _replay_matches(model, tree, asg, tau):
    res = simulate_run(model, tau, assignment=asg, keep_trace=True)
    a = _normalize(_tree_events(tree, asg))
    b = _normalize(_sim_events(model, res))
    if len(a) != len(b):
        return False
    return all(ka is kb and ta == tb and abs(t1 - t2) <= 1e-6
               for (t1, ka, ta), (t2, kb, tb) in zip(a, b))


def test_criterion_4_path_replay(reservoir_model, reservoir_tree,
                                 battery_model, battery_tree):
    rng = np.random.default_rng(4)
    counts = {}
    for name, model, tree in (("reservoir", reservoir_model, reservoir_tree),
                              ("battery", battery_model, battery_tree)):
        good = 0
        for _ in range(1000):
            asg = sample_assignment(model, rng)
            good += _replay_matches(model, tree, asg, tree.tau_max)
        counts[name] = good
    ok = all(v == 1000 for v in counts.values())
    report(4, ok, "path replay vs simulator, event times within 1e-6: "
                  f"reservoir {counts['reservoir']}/1000, battery {counts['battery']}/1000")
    assert ok, counts


# ---------------------------------------------------------------------------
# 5. occupation probabilities sum to one


def test_criterion_5_normalization(reservoir_tree, battery_tree, fast_cfg):
    rng = np.random.default_rng(5)
    bad, worst = [], -np.inf
    for name, tree in (("reservoir", reservoir_tree), ("battery", battery_tree)):
        for t_prime in rng.uniform(0.0, tree.tau_max, size=5):
            for m in METHODS:
                r = transient_probability(tree, float(t_prime), None,
                                          method=m, cfg=fast_cfg)
                excess = abs(r.total - 1.0) - (3 * r.sigma + 1e-3)
                worst = max(worst, excess)
                if excess > 0:
                    bad.append(f"{name} t'={t_prime:.3f} {m} total={r.total:.5f}")
    ok = not bad
    report(5, ok, "normalization, 2 models x 5 times x 3 methods within "
                  f"3 sigma + 1e-3: worst excess {worst:.2e} (<= 0)")
    assert ok, bad


# ---------------------------------------------------------------------------
# 6. geometry kernels


def _random_cut_box(rng, dim):
    """Unit box cut by dim random halfspaces through interior points."""
    rows = []
    for i in range(dim):
        e = np.zeros(dim)
        e[i] = 1.0
        rows.append((-e, 0.0))
        rows.append((e, 1.0))
    for _ in range(dim):
        a = rng.normal(size=dim)
        a /= np.linalg.norm(a)
        p = rng.uniform(0.2, 0.8, size=dim)
        rows.append((a, float(a @ p)))
    return HPolytope(np.array([r[0] for r in rows]),
                     np.array([r[1] for r in rows]))


def test_criterion_6_geometry_suite():
    rng = np.random.default_rng(6)
    vol_bad = rt_bad = made = 0
    while made < 50:
        dim = int(rng.integers(2, 5))
        poly = _random_cut_box(rng, dim)
        cc = chebyshev_center(poly)
        if cc is None or cc[1] < 0.05:
            continue
        made += 1
        verts = vertex_enumeration(poly)
        vol_tri = polytope_volume(verts)
        res = mc_integrate(lambda pts: poly.contains(pts).astype(float),
                           [(0.0, 1.0)] * dim,
                           McConfig(samples=20_000, iterations=2, seed=made))
        if abs(vol_tri - res.value) > 3 * res.sigma + 1e-9:
            vol_bad += 1
        # round trip: H-membership must agree with hull membership of the
        # enumerated vertices on sampled points (skipping the boundary film)
        tri = Delaunay(verts)
        prng = stream(17, made)
        w = prng.dirichlet(np.ones(len(verts)), size=500)
        pts = np.vstack([w @ verts, prng.uniform(-0.1, 1.1, size=(500, dim))])
        slack = poly.b[None, :] - pts @ poly.a.T
        clear = np.min(np.abs(slack), axis=1) > 1e-6
        h_in = np.all(slack >= -1e-9, axis=1)
        v_in = tri.find_simplex(pts) >= 0
        if np.any(clear & (h_in != v_in)):
            rt_bad += 1

    simplex_bad = done = 0
    while done < 100:
        n = int(rng.integers(1, 5))
        verts = rng.random((n + 1, n))
        vol = simplex_volume(verts)
        if vol < 1e-4:
            continue
        done += 1
        det = abs(np.linalg.det(verts[1:] - verts[0]))
        d2 = np.sum((verts[:, None, :] - verts[None, :, :]) ** 2, axis=2)
        bmat = np.ones((n + 2, n + 2))
        bmat[0, 0] = 0.0
        bmat[1:, 1:] = d2
        coef = (-1) ** (n + 1) / (2 ** n * math.factorial(n) ** 2)
        cm = math.sqrt(max(coef * np.linalg.det(bmat), 0.0))
        if abs(det - math.factorial(n) * cm) > 1e-8:
            simplex_bad += 1
    ok = vol_bad == 0 and rt_bad == 0 and simplex_bad == 0
    report(6, ok, f"geometry: 50 polytopes volume vs MC ({vol_bad} off), "
                  f"round-trip containment on 1000 points each ({rt_bad} off), "
                  f"100 simplex determinants vs distance form ({simplex_bad} off)")
    assert ok, (vol_bad, rt_bad, simplex_bad)


# ---------------------------------------------------------------------------
# 7. Monte Carlo calibration and determinism


def test_criterion_7_mc_calibration(reservoir_tree, battery_model, fast_cfg):
    box3 = [(0.0, 1.0)] * 3

    def f_lin(pts):
        return pts.sum(axis=1)

    mc_cover = 0
    for run in range(200):
        r = mc_integrate(f_lin, box3, McConfig(samples=4_000, iterations=2, seed=run))
        mc_cover += abs(r.value - 1.5) <= 3 * r.sigma

    mu, sig = 0.5, 0.1
    slice_int = sig * math.sqrt(2 * math.pi) * (ndtr((1 - mu) / sig) - ndtr(-mu / sig))
    truth = slice_int ** 3

    def f_peak(pts):
        return np.exp(-((pts - mu) ** 2).sum(axis=1) / (2 * sig * sig))

    vegas_cover = 0
    for run in range(200):
        r = vegas_integrate(f_peak, box3, McConfig(samples=4_000, iterations=6, seed=run))
        vegas_cover += r.sigma > 0 and abs(r.value - truth) <= 3 * r.sigma

    a = mc_integrate(f_lin, box3, McConfig(samples=5_000, iterations=3, seed=11))
    b = mc_integrate(f_lin, box3, McConfig(samples=5_000, iterations=3, seed=11))
    det_ok = (a.value, a.sigma) == (b.value, b.sigma)
    va = vegas_integrate(f_peak, box3, McConfig(samples=5_000, iterations=5, seed=12))
    vb = vegas_integrate(f_peak, box3, McConfig(samples=5_000, iterations=5, seed=12))
    det_ok = det_ok and (va.value, va.sigma) == (vb.value, vb.sigma)
    ra = transient_probability(reservoir_tree, 4.0, None, method="direct", cfg=fast_cfg)
    rb = transient_probability(reservoir_tree, 4.0, None, method="direct", cfg=fast_cfg)
    det_ok = det_ok and (ra.total, ra.sigma) == (rb.total, rb.sigma)
    det_ok = det_ok and ra.per_location == rb.per_location
    atoms = parse_property("m(grid_on) >= 1", battery_model)
    ea = estimate_probability(battery_model, 8.0, 8.0, atoms, seed=3, runs=400)
    eb = estimate_probability(battery_model, 8.0, 8.0, atoms, seed=3, runs=400)
    det_ok = det_ok and (ea.p, ea.runs) == (eb.p, eb.runs)

    ok = mc_cover >= 198 and vegas_cover >= 198 and det_ok
    report(7, ok, f"calibration: plain {mc_cover}/200 and adaptive {vegas_cover}/200 "
                  f"runs inside 3 sigma (need >= 198); fixed-seed repeats identical: {det_ok}")
    assert ok, (mc_cover, vegas_cover, det_ok)


# ---------------------------------------------------------------------------
# 8. soundness of the restricted domains


_BIG_GAP = 7.0


def _cell_is_thin(intervals, span, tol=1e-6):
    """Zero-measure residence cells (entry pinned to the exit instant)."""
    vals = np.zeros(len(intervals))
    for i, iv in enumerate(intervals):
        lo = iv.lower.evaluate(vals)
        hi = iv.upper.evaluate(vals) if iv.upper is not None else lo + span
        if hi - lo <= tol:
            return True
        vals[i] = 0.5 * (lo + hi)
    return False


def _sample_cell(intervals, rng, span, eps=1e-7):
    """A point strictly inside a sequential cell, or None if it is too thin."""
    for _ in range(50):
        vals, ok = np.zeros(len(intervals)), True
        for i, iv in enumerate(intervals):
            lo = iv.lower.evaluate(vals)
            hi = (iv.upper.evaluate(vals) if iv.upper is not None
                  else lo + rng.uniform(0.5, span))
            if hi - lo <= 3 * eps:
                ok = False
                break
            v = rng.uniform(lo + eps, hi - eps)
            if min(v - lo, hi - v) < eps:
                ok = False
                break
            vals[i] = v
        if ok:
            return vals
    return None


def _full_assignment(model, tree, loc, vals, t_prime, rng, pend_mode="above"):
    """Assignment extending the cell point: expired values from the cell,
    pending firings above their lower bounds (or flipped below, when probing
    the complement), everything else far beyond the horizon. Returns the
    assignment and whether all pending values stayed above their bounds."""
    asg = {}
    for t in model.general:
        for k in range(6):
            asg[(t.id, k)] = tree.tau_max + _BIG_GAP + k
    for idx, rv in enumerate(loc.rvs):
        asg[(rv.transition, rv.firing)] = float(vals[idx])
    entry_val = loc.entry.evaluate(vals)
    all_above = True
    for rv, dist, g_form, enabled in pending_rvs(model, loc):
        lower = g_form.evaluate(vals) + ((t_prime - entry_val) if enabled else 0.0)
        if pend_mode == "mixed" and lower > 0.1 and rng.random() < 0.5:
            asg[(rv.transition, rv.firing)] = rng.uniform(1e-4, lower - 1e-4)
            all_above = False
        else:
            asg[(rv.transition, rv.firing)] = lower + rng.uniform(0.05, 2.0)
    return asg, all_above


def _in_piece(piece, vals, eps=1e-7):
    """True/False membership, or None when the point grazes a boundary."""
    for i, iv in enumerate(piece.intervals):
        lo = iv.lower.evaluate(vals)
        if vals[i] < lo + eps:
            return None if vals[i] > lo - eps else False
        if iv.upper is not None:
            hi = iv.upper.evaluate(vals)
            if vals[i] > hi - eps:
                return None if vals[i] < hi + eps else False
    return True


def test_criterion_8_restricted_domain_soundness(reservoir_model, reservoir_tree,
                                                 battery_model, battery_tree):
    rng = np.random.default_rng(8)
    n_in, n_sim, n_comp = 10_000, 50, 2_000
    fails, thin, checked, samples = 0, 0, 0, 0
    notes = []
    for model, tree in ((reservoir_model, reservoir_tree),
                        (battery_model, battery_tree)):
        tau = tree.tau_max
        for t_prime in (3.0, 8.0):
            for loc in candidate_locations(tree, t_prime):
                pieces = location_pieces(model, loc, t_prime)
                for piece in pieces:
                    if _cell_is_thin(piece.intervals, tau):
                        thin += 1
                        continue
                    checked += 1
                    for _ in range(n_in):
                        vals = _sample_cell(piece.intervals, rng, tau)
                        if vals is None:
                            continue
                        samples += 1
                        asg, _ = _full_assignment(model, tree, loc, vals, t_prime, rng)
                        got = walk_path(tree, asg, t_cap=t_prime)[-1].id
                        if got != loc.id:
                            fails += 1
                            if len(notes) < 5:
                                notes.append(f"in-cell loc {loc.id} landed in {got}")
                    for _ in range(n_sim):
                        vals = _sample_cell(piece.intervals, rng, tau)
                        if vals is None:
                            continue
                        asg, _ = _full_assignment(model, tree, loc, vals, t_prime, rng)
                        res = simulate_run(model, tau, assignment=asg, observe_at=t_prime)
                        m_exp = {p.id: tok for p, tok in
                                 zip(model.discrete_places, loc.state.m)}
                        entry_val = loc.entry.evaluate(vals)
                        good = res.observed_marking == m_exp
                        for pi, p in enumerate(model.continuous_places):
                            want = (loc.state.x[pi].evaluate(vals)
                                    + loc.state.d[pi] * (t_prime - entry_val))
                            good = good and abs(res.observed_levels[p.id] - want) <= 1e-6
                        if not good:
                            fails += 1
                            if len(notes) < 5:
                                notes.append(f"sim replay differs in loc {loc.id}")
                # complement: points of the potential domain outside every
                # piece (or with a pending firing pulled below its bound)
                # must be occupied elsewhere at t'
                for _ in range(n_comp):
                    vals = _sample_cell(loc.domain, rng, tau)
                    if vals is None:
                        continue
                    asg, above = _full_assignment(model, tree, loc, vals,
                                                  t_prime, rng, "mixed")
                    member, grazed = False, False
                    for piece in pieces:
                        r = _in_piece(piece, vals)
                        if r is None:
                            grazed = True
                            break
                        member = member or r
                    if grazed:
                        continue
                    samples += 1
                    expect = member and above
                    got = walk_path(tree, asg, t_cap=t_prime)[-1].id == loc.id
                    if got != expect:
                        fails += 1
                        if len(notes) < 5:
                            notes.append(f"complement loc {loc.id} expect={expect}")
    ok = fails == 0 and checked > 0
    report(8, ok, f"restricted domains: {checked} cells sampled ({thin} zero-measure "
                  f"skipped), {samples} points replayed, {fails} occupancy violations")
    assert ok, (fails, notes)
