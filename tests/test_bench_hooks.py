"""The benchmark's tracer wraps hpng names by hand; each must still exist."""

import math
from pathlib import Path

import numpy as np

import hpng
import hpng.semantics
import hpng.simulate
import hpng.symbolic
import hpng.transient
import hpng.tree
from hpng.geometry import EPS_VOL, bounding_box, triangulate, vertex_enumeration
from hpng.montecarlo import stream
from hpng.transient import candidate_locations, location_region_terms, pending_vars

from conftest import battery_variant

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import tracing
    return tracing


def test_bench_tracer_installs_and_restores(monkeypatch):
    tracing = _tracing(monkeypatch)
    original = hpng.transient.location_region_terms
    with tracing.install(tracing.Tracer()):
        assert hpng.transient.location_region_terms is not original
    assert hpng.transient.location_region_terms is original


def test_traced_query_goes_through_the_wrapped_names(monkeypatch, reservoir_tree):
    # The per-layer numbers count calls to the wrapped names, so the
    # routes must reach candidate selection and the extremum walk through
    # them and not through names bound elsewhere.
    tracing = _tracing(monkeypatch)
    expected = len(candidate_locations(reservoir_tree, 8.0))
    with tracing.install(tracing.Tracer()) as tracer:
        for mod in (hpng.tree, hpng.semantics, hpng.transient):
            assert mod.extremal_value is not hpng.symbolic.extremal_value, mod
        hpng.transient.transient_probability(reservoir_tree, 8.0)
    assert tracer.aggs["transient.candidate_locations"].calls == 1
    assert tracer.counts["candidates"] == expected
    assert hpng.transient.extremal_value is hpng.symbolic.extremal_value


def test_traced_build_goes_through_the_wrapped_names(monkeypatch, battery_model):
    # The tree build compares pairs and memoizes drifts; the per-layer
    # numbers still need its comparisons, and the memo's misses, to reach
    # the names the tracer wraps.
    tracing = _tracing(monkeypatch)
    with tracing.install(tracing.Tracer()) as tracer:
        hpng.build_plt(battery_model, 12.0)
    locations = tracer.counts["locations"]
    assert locations == 363
    assert tracer.aggs["semantics.min_det_events"].calls == locations
    assert 0 < tracer.aggs["semantics.rate_adaptation"].calls < locations
    # The build's traffic through the kernel, pinned exactly: a cheaper
    # kernel makes the same calls, and a change that prunes calls re-pins
    # these counts on purpose.
    assert tracer.aggs["symbolic.extremal_value"].calls == 4808
    assert tracer.aggs["symbolic.compare_remaining_times"].calls == 146


def test_traced_intervals_query_kernel_traffic(monkeypatch, battery_trees):
    # The intervals route's traffic through the kernel, pinned exactly like
    # the build's: restrict checks room only where a bound is written, and
    # a change that adds or prunes walks re-pins these counts on purpose.
    # Candidates whose entry or whose exits are all closed at t' are
    # counted but never cut, and closed exits give no cells.
    tracing = _tracing(monkeypatch)
    tree = battery_trees[12.0]
    with tracing.install(tracing.Tracer()) as tracer:
        hpng.transient.transient_probability(tree, 12.0, method="intervals")
    assert tracer.counts["candidates"] == 363
    assert tracer.counts["cells"] == 495
    assert tracer.aggs["symbolic.extremal_value"].calls == 11964


def test_traced_estimate_goes_through_the_wrapped_names(monkeypatch, reservoir_model):
    # The simulator's per-layer numbers count runs, property checks, steps
    # and drift solves through the names the tracer wraps.  Drifts are
    # memoized per estimate, so far fewer solves than steps reach
    # rate_adaptation.
    tracing = _tracing(monkeypatch)
    atoms = hpng.parse_property("m(pump_ok) >= 1", reservoir_model)
    runs = 200
    with tracing.install(tracing.Tracer()) as tracer:
        hpng.estimate_probability(reservoir_model, 10.0, 6.0, atoms, seed=0, runs=runs)
    aggs = tracer.aggs
    assert aggs["simulate.estimate_probability"].calls == 1
    assert aggs["simulate.simulate_run"].calls == runs
    assert aggs["props.holds_concrete"].calls == runs
    steps = aggs["simulate.step"].calls
    assert steps >= 1
    assert 0 < aggs["semantics.rate_adaptation"].calls < steps


def test_traced_steps_are_the_applied_events(monkeypatch, battery_model):
    # The bench's simulate.steps counts calls to the wrapped _apply, so the
    # simulator must apply each event of a run's trace through it, once.
    tracing = _tracing(monkeypatch)
    events = 0
    with tracing.install(tracing.Tracer()) as tracer:
        for seed in range(4):
            res = hpng.simulate.simulate_run(battery_model, 20.0, rng=stream(seed, 0),
                                             keep_trace=True)
            events += len(res.trace)
    assert events > 0
    assert tracer.aggs["simulate.step"].calls == events


def test_traced_region_routes_solve_no_lp(monkeypatch, battery_tree):
    # The simplex and direct routes take vertices and boxes from exact
    # enumeration, so no region, empty or not, reaches the LP solver.  At
    # t' = 8 with a fluid row, some regions of locations whose entry and
    # an exit are open still enumerate empty, cut away by the row; a
    # location whose entry or whose exits are all closed builds no region
    # at all.
    tracing = _tracing(monkeypatch)
    cfg = hpng.McConfig(samples=2_000, iterations=2, seed=0)
    atoms = hpng.parse_property("x(battery) >= 1400", battery_tree.model)
    with tracing.install(tracing.Tracer()) as tracer:
        for method in ("simplex", "direct"):
            hpng.transient.transient_probability(battery_tree, 8.0, atoms, method=method,
                                                 cfg=cfg)
    aggs = tracer.aggs
    assert aggs["geometry.vertex_enumeration"].calls > 0
    assert tracer.counts["empty_regions"] > 0
    assert aggs["geometry.probability_over_region_direct"].calls > 0
    assert aggs["geometry.linprog"].calls == 0


def test_traced_direct_queries_sample_through_the_kernel(monkeypatch, reservoir_tree,
                                                        battery_tree):
    # montecarlo.mc_integrate_s must read the direct route's sampling: every
    # region with a box of positive width reaches the wrapped mc_integrate
    # once, whether or not a row cuts its box, and spends its whole budget.
    tracing = _tracing(monkeypatch)
    queries = ((reservoir_tree, 8.0), (battery_tree, 6.0))
    boxed = cut = 0
    for tree, t_prime in queries:
        for loc in candidate_locations(tree, t_prime):
            for _, poly, _ in location_region_terms(tree.model, tree, loc, t_prime):
                box = None if poly is None else bounding_box(poly)
                if box is None or np.any(box[1] - box[0] <= EPS_VOL):
                    continue
                boxed += 1
                most = np.where(poly.a > 0.0, poly.a * box[1], poly.a * box[0]).sum(axis=1)
                cut += bool(np.any(most > poly.b))
    assert 0 < cut < boxed
    cfg = hpng.McConfig(samples=3_000, iterations=2, seed=0)
    with tracing.install(tracing.Tracer()) as tracer:
        for tree, t_prime in queries:
            hpng.transient.transient_probability(tree, t_prime, method="direct", cfg=cfg)
    assert tracer.aggs["montecarlo.mc_integrate"].calls == boxed
    counts = tracer.counts
    assert counts["samples_used"] + counts["samples_skipped"] == \
        boxed * cfg.samples * cfg.iterations


def test_traced_simplex_queries_sample_through_the_kernel(monkeypatch, reservoir_tree,
                                                          battery_tree):
    # geometry.simplex_integrate_s and montecarlo.density_s must read the
    # simplex route's sampling on a location with a normal firing: every
    # triangulated simplex reaches the wrapped probability_over_simplex
    # once, its density reaches the wrapped pdf once per variable and cdf
    # once per pending firing in each iteration, and each simplex spends
    # samples // iterations points per iteration.  A location whose
    # firings are all uniform takes the exact rule instead: on these
    # queries no support or survival kink lies inside its region, so its
    # simplices are those of the whole region, each carries
    # C(n + s + 1, s) points with s = k // 2 for its k pending factors,
    # and its density reaches pdf and cdf once, at every point.  A
    # location with no variable takes the cdf once per pending firing,
    # outside both.
    tracing = _tracing(monkeypatch)
    n72 = battery_variant(8.0, {"family": "normal", "mu": 7.0, "sigma": 2.0})
    queries = ((reservoir_tree, 8.0), (battery_tree, 6.0), (hpng.build_plt(n72, 8.0), 6.0))
    cfg = hpng.McConfig(samples=3_001, iterations=2, seed=0)
    per_iteration = cfg.samples // cfg.iterations
    sampled = pdfs = cdfs = exact = ruled = evals = 0
    for tree, t_prime in queries:
        model = tree.model
        for loc in candidate_locations(tree, t_prime):
            dists = [model.transition(rv.transition).distribution for rv in loc.rvs]
            factors = pending_vars(model, loc, t_prime)
            uniform = all(d.family == "uniform" for d in dists + [d for d, _ in factors])
            for _, poly, _ in location_region_terms(model, tree, loc, t_prime):
                if poly is None:            # a closed-form survival product
                    cdfs += len(factors)
                    evals += len(factors)
                    continue
                verts = vertex_enumeration(poly)
                k = len(triangulate(verts))
                if not uniform:
                    sampled += k
                    pdfs += k * poly.dim * cfg.iterations
                    cdfs += k * len(factors) * cfg.iterations
                    evals += k * cfg.iterations * per_iteration * (poly.dim + len(factors))
                    continue
                if k == 0:
                    continue
                for i, dist in enumerate(dists):
                    a, b = dist.params
                    assert a <= verts[:, i].min() and verts[:, i].max() <= b
                for dist, lf in factors:
                    lower = verts @ [lf.coeff(i) for i in range(poly.dim)] + lf.const
                    assert dist.params[0] <= lower.min() and lower.max() <= dist.params[1]
                s = len(factors) // 2
                exact += 1
                ruled += k
                pdfs += poly.dim
                cdfs += len(factors)
                evals += k * math.comb(poly.dim + s + 1, s) * (poly.dim + len(factors))
    assert sampled > 0 and exact > 0 and cdfs > 0
    with tracing.install(tracing.Tracer()) as tracer:
        for tree, t_prime in queries:
            hpng.transient.transient_probability(tree, t_prime, method="simplex", cfg=cfg)
    aggs, counts = tracer.aggs, tracer.counts
    assert aggs["geometry.probability_over_simplex"].calls == sampled
    assert counts["simplices"] == sampled + ruled
    assert aggs["montecarlo.pdf"].calls == pdfs
    assert aggs["montecarlo.cdf"].calls == cdfs
    assert counts["samples_used"] + counts["samples_skipped"] == \
        sampled * per_iteration * cfg.iterations
    assert counts["density_evals"] == evals
