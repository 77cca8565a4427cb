"""Transient probability computation across the three integration routes."""

import dataclasses
import json
import logging
import math

import numpy as np
import pytest
from scipy.special import ndtr

import hpng.transient
from hpng.geometry import EPS_GEOM, vertex_enumeration
from hpng.model import DistributionSpec, load_model, parse_model
from hpng.montecarlo import FAMILIES, McConfig, stream, vegas_integrate
from hpng.props import parse_property
from hpng.simulate import estimate_probability
from hpng.symbolic import EPS, SymInterval, const, extremal_value, var
from hpng.transient import (
    METHODS,
    Piece,
    _cube_integrand,
    _fluid_rows,
    candidate_locations,
    integrate_piece,
    location_pieces,
    location_region_terms,
    pending_vars,
    transient_probability,
)
from hpng.tree import _nonempty, build_plt

from conftest import MODELS, battery_doc, battery_variant, chain_net, race_net


# Occupation probabilities of the reservoir tree, straightforward to check
# by hand: the break time is uniform on [0, 10].
RESERVOIR_T4 = {0: 0.6, 2: 0.2, 6: 0.2}
RESERVOIR_T8 = {3: 0.2, 4: 0.25, 5: 0.25, 7: 0.05, 8: 0.25}


def _close(result, expect, scale=1.0):
    assert abs(result.total - expect) <= 3.0 * result.sigma + 1e-3 * scale


# ---------------------------------------------------------------------------
# candidates and pending survival

def test_candidates_at_4(reservoir_tree):
    ids = {loc.id for loc in candidate_locations(reservoir_tree, 4.0)}
    assert ids == {0, 2, 6}


def test_candidates_at_8(reservoir_tree):
    ids = {loc.id for loc in candidate_locations(reservoir_tree, 8.0)}
    assert ids == {3, 4, 5, 7, 8}


def _scan_extrema(tree):
    """The extrema a per-query scan takes from the forms: entry minimum
    over the domain and each exit's maximum over its cuts, per location."""
    return [
        (extremal_value(loc.entry, loc.domain, "min"),
         [extremal_value(loc.entry + ex.delta, list(ex.cuts), "max")
          for ex in loc.det_exits])
        for loc in tree.locations
    ]


def _scan(tree, extrema, t_prime):
    """Candidate ids by the per-query scan's comparisons (the oracle)."""
    out = []
    for loc, (entry_min, exit_max) in zip(tree.locations, extrema):
        if entry_min > t_prime + EPS:
            continue
        if exit_max and not any(m >= t_prime - EPS for m in exit_max):
            continue
        out.append(loc.id)
    return out


@pytest.mark.parametrize("model_file, tau", [("battery.json", 12.0),
                                             ("reservoir.json", 10.0)])
def test_candidates_match_per_query_scan(model_file, tau):
    # The stored bounds must select exactly what recomputing them per
    # query would, also at t' on and 2 EPS either side of every bound.
    tree = build_plt(load_model(str(MODELS / model_file)), tau)
    extrema = _scan_extrema(tree)
    bounds = {loc.earliest for loc in tree.locations}
    bounds |= {ex.latest for loc in tree.locations for ex in loc.det_exits}
    times = {0.0, tau}
    for b in bounds:
        if math.isfinite(b):
            times |= {b, b - 2 * EPS, b + 2 * EPS}
    for t_prime in sorted(times):
        got = [loc.id for loc in candidate_locations(tree, t_prime)]
        assert got == _scan(tree, extrema, t_prime), t_prime


def test_pending_var_shifts_with_time(reservoir_model, reservoir_tree):
    pend = pending_vars(reservoir_model, reservoir_tree.root, 4.0)
    assert len(pend) == 1
    dist, lower = pend[0]
    assert dist.family == "uniform"
    assert lower.text([]) == "4"


def test_root_piece_is_pure_survival(reservoir_model, reservoir_tree):
    pieces = location_pieces(reservoir_model, reservoir_tree.root, 4.0)
    assert len(pieces) == 1
    assert pieces[0].intervals == ()
    res = integrate_piece(pieces[0], McConfig(samples=10, iterations=1, seed=0),
                          stream(0, 0))
    assert res.value == pytest.approx(0.6)
    assert res.sigma == 0.0


def test_one_region_over_expired_firings(battery_model, battery_tree):
    # Pending firings are survival factors, not dimensions, and no tail
    # beyond the horizon gets a region of its own.
    regions = 0
    for loc in candidate_locations(battery_tree, 8.0):
        terms = location_region_terms(battery_model, battery_tree, loc, 8.0)
        assert len(terms) <= 1
        for _, poly, _ in terms:
            if poly is not None:
                assert poly.dim == len(loc.domain)
                regions += 1
    assert regions > 0


@pytest.mark.parametrize("method", ["simplex", "direct"])
def test_root_region_is_closed_form(reservoir_tree, method):
    # At t' = 4 the root has no expired firing: its mass is the survival
    # 1 - F(4) of the pending U(0, 10) break time, with no polytope.
    res = transient_probability(reservoir_tree, 4.0, method=method,
                                cfg=McConfig(samples=100, iterations=2, seed=0))
    assert res.per_location[0] == (0.6, 0.0)


def test_regions_lie_inside_the_density_supports(battery_trees):
    # Every region is clipped to where its density can be positive: each
    # vertex inside each expired firing's support, and each pending
    # uniform firing's lower bound at most the end of its support, above
    # which its survival factor is 0.  Battery tau = 20 at t' = 12 and 16
    # reaches past the U(0, 10) supports, and U(6, 10) switches at
    # tau = 12, t' = 8 start inside the box 0 <= s_i <= tau.
    queries = ((battery_trees[20.0], 12.0), (battery_trees[20.0], 16.0),
               (build_plt(battery_variant(switch_family=U610), 12.0), 8.0))
    regions = 0
    for tree, t_prime in queries:
        model = tree.model
        for loc in candidate_locations(tree, t_prime):
            for _, poly, _ in location_region_terms(model, tree, loc, t_prime):
                verts = np.zeros((0, 0)) if poly is None else vertex_enumeration(poly)
                if len(verts) == 0:
                    continue
                regions += 1
                for i, rv in enumerate(loc.rvs):
                    dist = model.transition(rv.transition).distribution
                    lo, hi = FAMILIES[dist.family].support(*dist.params)
                    assert verts[:, i].min() >= lo - EPS_GEOM, (t_prime, loc.id, i)
                    if hi is not None:
                        assert verts[:, i].max() <= hi + EPS_GEOM, (t_prime, loc.id, i)
                for dist, lf in pending_vars(model, loc, t_prime):
                    if dist.family == "uniform":
                        lower = verts @ [lf.coeff(i) for i in range(poly.dim)] + lf.const
                        assert lower.max() <= dist.params[1] + EPS_GEOM, (t_prime, loc.id)
    assert regions > 0


# ---------------------------------------------------------------------------
# frozen totals

@pytest.mark.parametrize("method", METHODS)
def test_reservoir_occupation_t4(reservoir_tree, fast_cfg, method):
    res = transient_probability(reservoir_tree, 4.0, method=method, cfg=fast_cfg)
    assert res.total == pytest.approx(1.0, abs=3.0 * res.sigma + 1e-3)
    for lid, expect in RESERVOIR_T4.items():
        value, sigma = res.per_location[lid]
        assert abs(value - expect) <= 3.0 * sigma + 1e-3


@pytest.mark.parametrize("method", METHODS)
def test_reservoir_occupation_t8(reservoir_tree, fast_cfg, method):
    res = transient_probability(reservoir_tree, 8.0, method=method, cfg=fast_cfg)
    assert set(res.per_location) == set(RESERVOIR_T8)
    assert res.total == pytest.approx(1.0, abs=3.0 * res.sigma + 1e-3)
    for lid, expect in RESERVOIR_T8.items():
        value, sigma = res.per_location[lid]
        assert abs(value - expect) <= 3.0 * sigma + 1e-3


@pytest.mark.parametrize("method", METHODS)
def test_fluid_atom_probability(reservoir_model, reservoir_tree, fast_cfg, method):
    atoms = parse_property("x(tank) >= 4", reservoir_model)
    res = transient_probability(reservoir_tree, 4.0, atoms, method=method,
                                cfg=fast_cfg)
    _close(res, 0.6)


def _reference_fluid_rows(level, op, value):
    """The rows of one fluid atom as the operator branches wrote them."""
    if op in ("<", "<="):
        return [level - const(value)]
    if op in (">", ">="):
        return [const(value) - level]
    return [level - const(value), const(value) - level]


@pytest.mark.parametrize("op", ["<", "<=", "=", ">=", ">"])
def test_fluid_rows_follow_the_operator(reservoir_model, reservoir_tree, op):
    # "=" gives two rows, the upper bound on the level first
    atoms = parse_property(f"m(pump_ok) >= 1 & x(tank) {op} 3", reservoir_model)
    pi = reservoir_model.cp_index["tank"]
    seen = 0
    for loc in candidate_locations(reservoir_tree, 6.0):
        rows = _fluid_rows(reservoir_model, loc, 6.0, atoms)
        if loc.state.m[reservoir_model.dp_index["pump_ok"]] < 1:
            assert rows is None
            continue
        level = loc.state.x[pi] + (const(6.0) - loc.entry).scaled(loc.state.d[pi])
        assert list(rows) == _reference_fluid_rows(level, op, 3.0)
        seen += 1
    assert seen > 0


@pytest.mark.parametrize("method", METHODS)
def test_marking_atom_probability(reservoir_model, reservoir_tree, fast_cfg, method):
    atoms = parse_property("m(demand_on) >= 1", reservoir_model)
    res = transient_probability(reservoir_tree, 4.0, atoms, method=method,
                                cfg=fast_cfg)
    # Demand stops only at time five, so the marking is certain at four.
    _close(res, 1.0)


def test_battery_grid_marking(battery_tree, fast_cfg):
    atoms = parse_property("m(grid_on) >= 1", battery_tree.model)
    res = transient_probability(battery_tree, 8.0, atoms, cfg=fast_cfg)
    # On only when the failure arrives after eight: one fifth.
    _close(res, 0.2)


def test_total_probability_at_zero(reservoir_tree, fast_cfg):
    res = transient_probability(reservoir_tree, 0.0, cfg=fast_cfg)
    assert res.total == pytest.approx(1.0, abs=3.0 * res.sigma + 1e-3)
    value, _ = res.per_location[0]
    assert value == pytest.approx(1.0, abs=1e-9)


# ---------------------------------------------------------------------------
# heavier-tailed break-time distribution

def _folded_reservoir():
    doc = json.loads((MODELS / "reservoir.json").read_text())
    doc["transitions"]["general"][0]["distribution"] = {
        "family": "foldedNormal", "mu": 14.0, "sigma": 4.0,
    }
    return build_plt(parse_model(json.dumps(doc)), 10.0)


@pytest.mark.parametrize("method", METHODS)
def test_folded_normal_tail_location(fast_cfg, method):
    tree = _folded_reservoir()

    def fcdf(x):
        return ndtr((x - 14.0) / 4.0) + ndtr((x + 14.0) / 4.0) - 1.0

    expect = fcdf(8.0) - fcdf(7.5)  # break between full tank and t'
    res = transient_probability(tree, 8.0, method=method, cfg=fast_cfg)
    value, sigma = res.per_location[7]
    assert abs(value - expect) <= 3.0 * sigma + 1e-3
    assert res.total == pytest.approx(1.0, abs=3.0 * res.sigma + 2e-3)


# ---------------------------------------------------------------------------
# interface checks

def test_unknown_method_rejected(reservoir_tree):
    with pytest.raises(ValueError):
        transient_probability(reservoir_tree, 4.0, method="magic")


def test_time_outside_horizon_rejected(reservoir_tree):
    for t_prime in (11.0, -1.0, float("nan")):
        with pytest.raises(ValueError, match="observation time"):
            transient_probability(reservoir_tree, t_prime)


def test_threaded_run_matches_serial(reservoir_tree, fast_cfg):
    serial = transient_probability(reservoir_tree, 8.0, cfg=fast_cfg)
    threaded = transient_probability(reservoir_tree, 8.0, cfg=fast_cfg, threads=4)
    assert threaded.total == serial.total
    assert threaded.per_location == serial.per_location


# ---------------------------------------------------------------------------
# Gauss-Legendre cubature on the intervals route

GATE_CFG = McConfig(samples=40_000, iterations=5, seed=0)


def _cells(model, tree, t_prime):
    for loc in candidate_locations(tree, t_prime):
        for piece in location_pieces(model, loc, t_prime):
            yield loc, piece


def _dim(piece):
    return sum(iv.upper is not None for iv in piece.intervals)


def test_late_cells_have_measure_and_room(battery_model, battery_trees):
    # Battery tau = 20, t' = 16, a late t' whose domains are cut by many
    # rows: every cell has positive measure, and each variable has room
    # wherever the variables before it can lie, so the extremum walk is
    # exact on it and no cell of zero measure reaches integration.
    tree = battery_trees[20.0]
    for _, piece in _cells(battery_model, tree, 16.0):
        cell = list(piece.intervals)
        assert _nonempty(cell)
        for iv in cell:
            if iv.upper is not None:
                assert extremal_value(iv.lower - iv.upper, cell, "max") <= EPS
    res = transient_probability(tree, 16.0, cfg=McConfig(samples=4_000, iterations=2, seed=0))
    assert res.total == pytest.approx(1.0, abs=1e-12)


def _reservoir_with_break(dist):
    doc = json.loads((MODELS / "reservoir.json").read_text())
    doc["transitions"]["general"][0]["distribution"] = dist
    return build_plt(parse_model(json.dumps(doc)), 10.0)


def test_support_split_is_exact():
    # pump_break ~ U(6, 10): the cell [5, 7.5] of location 4 is cut at 6.
    tree = _reservoir_with_break({"family": "uniform", "a": 6.0, "b": 10.0})
    res = transient_probability(tree, 8.0, cfg=GATE_CFG)
    assert res.total == pytest.approx(1.0, abs=1e-9)
    assert res.sigma <= 1e-9
    for lid, expect in {3: 0.5, 4: 0.375, 7: 0.125}.items():
        value, sigma = res.per_location[lid]
        assert value == pytest.approx(expect, abs=1e-9)
        assert sigma <= 1e-9


ON_0_10 = (SymInterval(const(0.0), const(10.0)),)
U_0_10 = DistributionSpec("uniform", (0.0, 10.0))


@pytest.mark.parametrize("piece, expect", [
    # a density far narrower than its cell, peak between the nodes of orders 4 and 8
    (Piece(ON_0_10, (DistributionSpec("normal", (5.0, 0.05)),), ()), 1.0),
    (Piece(ON_0_10, (DistributionSpec("foldedNormal", (5.0, 0.05)),), ()), 1.0),
    (Piece(ON_0_10, (DistributionSpec("exponential", (100.0,)),), ()), 1.0),
    # survival factors whose step or decay falls between those nodes
    (Piece(ON_0_10, (U_0_10,), ((DistributionSpec("normal", (5.3, 0.01)), var(0)),)), 0.53),
    (Piece(ON_0_10, (U_0_10,), ((DistributionSpec("uniform", (5.2, 5.4)), var(0)),)), 0.53),
    (Piece(ON_0_10, (U_0_10,), ((DistributionSpec("exponential", (100.0,)), var(0)),)), 0.001),
    (Piece(ON_0_10 + (SymInterval(var(0), None),),
           (U_0_10, DistributionSpec("normal", (5.3, 0.01))), ()), 0.53),
], ids=["normal", "foldedNormal", "exponential",
        "normal-factor", "uniform-factor", "exponential-factor", "unbounded-variable"])
def test_sharp_integrand_is_not_missed(piece, expect):
    res = integrate_piece(piece, GATE_CFG, stream(0, 0))
    assert res.value == pytest.approx(expect, abs=1e-6)
    assert res.sigma <= 1e-6


def test_narrow_break_time_matches_closed_form():
    # N(6.25, 0.01) puts the break between demand stop (5) and a full tank
    # (7.5): location 4 holds all the mass at t' = 8.
    tree = _reservoir_with_break({"family": "normal", "mu": 6.25, "sigma": 0.01})
    res = transient_probability(tree, 8.0, cfg=GATE_CFG)
    assert res.per_location[4][0] == pytest.approx(1.0, abs=1e-6)
    assert res.total == pytest.approx(1.0, abs=1e-6)
    assert res.sigma <= 1e-6


def test_rule_does_not_depend_on_sampler_budget(battery_model, battery_trees, monkeypatch):
    # The rule's points per order are capped by GL_MAX_POINTS, not by
    # samples x iterations: a tiny sampler budget changes nothing.  At
    # tau = 12, t' = 10 the battery has live cells of one, two and three
    # bounded dimensions.
    sizes = []

    def sizing_pdf(dist, x):
        sizes.append(np.size(x))
        return dist_pdf(dist, x)

    def no_vegas(*args, **kwargs):
        raise AssertionError("unexpected VEGAS fallback")

    dist_pdf = hpng.transient.dist_pdf
    monkeypatch.setattr(hpng.transient, "dist_pdf", sizing_pdf)
    monkeypatch.setattr(hpng.transient, "vegas_integrate", no_vegas)
    tiny = McConfig(samples=8, iterations=1, seed=0)
    dims = set()
    for _, piece in _cells(battery_model, battery_trees[12.0], 10.0):
        if _dim(piece):
            dims.add(_dim(piece))
        assert integrate_piece(piece, tiny, None) == integrate_piece(piece, GATE_CFG, None)
    assert dims == {1, 2, 3}
    assert 0 < max(sizes) <= hpng.transient.GL_MAX_POINTS


def _battery_2d_cell(battery_model, battery_tree):
    return next((loc, piece) for loc, piece in _cells(battery_model, battery_tree, 8.0)
                if _dim(piece) == 2 and integrate_piece(piece, GATE_CFG, None).value > 1e-3)


def test_cell_without_room_for_two_orders_goes_to_vegas(battery_model, battery_tree,
                                                        monkeypatch):
    loc, piece = _battery_2d_cell(battery_model, battery_tree)
    truth = integrate_piece(piece, GATE_CFG, None).value
    calls = []

    def counting_vegas(*args, **kwargs):
        calls.append(args[2])
        return vegas_integrate(*args, **kwargs)

    monkeypatch.setattr(hpng.transient, "vegas_integrate", counting_vegas)
    monkeypatch.setattr(hpng.transient, "GL_MAX_POINTS", 8 ** 2 - 1)
    cfg = McConfig(samples=2_000, iterations=4, seed=0)
    res = integrate_piece(piece, cfg, stream(0, loc.id))
    assert calls == [cfg]
    # the whole cell went to VEGAS before the rule spent a point
    assert res.samples_used + res.samples_skipped == cfg.samples * cfg.iterations
    assert res.sigma > 0
    assert abs(res.value - truth) <= 3 * res.sigma


def test_unconverged_sub_cell_alone_goes_to_vegas(monkeypatch):
    # The normal factor splits the cell; the first sub-cell is made to
    # miss its tolerance and only it is integrated by VEGAS.
    piece = Piece(ON_0_10, (U_0_10,), ((DistributionSpec("normal", (5.3, 0.01)), var(0)),))
    cells = hpng.transient._smooth_cells(piece)
    assert len(cells) > 2
    rule = hpng.transient._gauss_legendre
    seen, boxes = [], []

    def first_fails(f, dim):
        q, gap, used, order = rule(f, dim)
        seen.append(q)
        return (q, np.inf, used, order) if len(seen) == 1 else (q, gap, used, order)

    def counting_vegas(f, box, cfg, rng):
        boxes.append(box)
        return vegas_integrate(f, box, cfg, rng)

    monkeypatch.setattr(hpng.transient, "_gauss_legendre", first_fails)
    monkeypatch.setattr(hpng.transient, "vegas_integrate", counting_vegas)
    cfg = McConfig(samples=2_000, iterations=4, seed=0)
    res = integrate_piece(piece, cfg, stream(0, 0))
    assert len(seen) == len(cells)
    assert boxes == [[(0.0, 1.0)]]
    assert res.value == pytest.approx(0.53, abs=3 * res.sigma + 1e-6)
    assert res.samples_used > cfg.samples * cfg.iterations - res.samples_skipped


def test_fallback_is_logged(battery_model, battery_tree, monkeypatch, caplog):
    loc, piece = _battery_2d_cell(battery_model, battery_tree)
    cfg = McConfig(samples=8, iterations=1, seed=0)
    with caplog.at_level(logging.DEBUG, logger="hpng"):
        integrate_piece(piece, cfg, stream(0, loc.id))
        assert caplog.records == []
        monkeypatch.setattr(hpng.transient, "GL_MAX_POINTS", 8 ** 2 - 1)
        integrate_piece(piece, cfg, stream(0, loc.id))
    [record] = caplog.records
    assert record.name == "hpng" and record.levelno == logging.DEBUG
    assert record.args[:4] == (2, 0, np.inf, 8)  # dimension, order, gap, VEGAS budget
    assert "VEGAS" in record.getMessage()
    # One iteration leaves chi^2 / dof undefined.
    assert math.isnan(record.args[4]) and record.args[5:] == (1, "unchecked")


def test_fallback_record_reports_chi2_dof(battery_model, battery_tree, monkeypatch, caplog):
    loc, piece = _battery_2d_cell(battery_model, battery_tree)
    cfg = McConfig(samples=2_000, iterations=4, seed=0)
    plain = integrate_piece(piece, cfg, stream(0, loc.id))
    monkeypatch.setattr(hpng.transient, "GL_MAX_POINTS", 8 ** 2 - 1)
    want = vegas_integrate(_cube_integrand(piece), [(0.0, 1.0)] * 2, cfg, stream(0, loc.id))
    with caplog.at_level(logging.DEBUG, logger="hpng"):
        res = integrate_piece(piece, cfg, stream(0, loc.id))
    [record] = caplog.records
    # The record only reports: the answer is VEGAS's, whose chi^2 / dof it shows.
    assert res == want and res.value != plain.value
    assert record.args[4:] == (want.chi2_dof, 4, "consistent")
    assert want.chi2_dof <= hpng.transient.VEGAS_CHI2_DOF_MAX
    assert "chi2/dof" in record.getMessage()


def test_fallback_record_flags_inconsistent_iterations(battery_model, battery_tree,
                                                       monkeypatch, caplog):
    loc, piece = _battery_2d_cell(battery_model, battery_tree)
    cfg = McConfig(samples=2_000, iterations=4, seed=0)

    def disagreeing(f, box, cfg, rng):
        res = vegas_integrate(f, box, cfg, rng)
        res.chi2_dof = 2.5
        return res

    monkeypatch.setattr(hpng.transient, "GL_MAX_POINTS", 8 ** 2 - 1)
    monkeypatch.setattr(hpng.transient, "vegas_integrate", disagreeing)
    with caplog.at_level(logging.DEBUG, logger="hpng"):
        integrate_piece(piece, cfg, stream(0, loc.id))
    [record] = caplog.records
    assert record.args[4:] == (2.5, 4, "inconsistent")
    assert "(inconsistent)" in record.getMessage()


def test_cubature_agrees_with_vegas_on_every_battery_cell(battery_model, battery_trees):
    # Every bounded cell of the battery at tau = 12 and t' = 6, 8 and 10.
    checked = 0
    for t_prime in (6.0, 8.0, 10.0):
        for loc, piece in _cells(battery_model, battery_trees[12.0], t_prime):
            if not _dim(piece):
                continue
            gl = integrate_piece(piece, GATE_CFG, None)
            mc = vegas_integrate(_cube_integrand(piece), [(0.0, 1.0)] * _dim(piece),
                                 GATE_CFG, stream(0, loc.id))
            # the floor covers cells whose VEGAS sigma is pure rounding
            assert abs(gl.value - mc.value) <= 3 * mc.sigma + 1e-12
            checked += 1
    assert checked > 100


# ---------------------------------------------------------------------------
# exact simplex rule on uniform regions

U010 = {"family": "uniform", "a": 0.0, "b": 10.0}
U610 = {"family": "uniform", "a": 6.0, "b": 10.0}


def _late_failure_battery():
    """The battery with grid_fail ~ U(2, 10) and a repair of 4: at t' = 10
    the second failure's survival starts (lower bound 2) inside regions
    where the first failure's density is positive."""
    doc = battery_doc()
    for t in doc["transitions"]["general"]:
        if t["id"] == "grid_fail":
            t["distribution"] = {"family": "uniform", "a": 2.0, "b": 10.0}
    for t in doc["transitions"]["deterministic"]:
        if t["id"] == "grid_repair":
            t["firingTime"] = 4.0
    return parse_model(json.dumps(doc))


#: (model variant, tau, t', property): the benchmark's uniform queries, then
#: a later t' whose regions cross the U(0, 10) supports and a survival
#: that starts inside its regions.
UNIFORM_QUERIES = (
    ("repair 8", 8.0, 8.0, "m(grid_on) >= 1"),
    ("repair 5", 8.0, 8.0, "m(grid_on) >= 1"),
    ("switch U(0,10)", 8.0, 8.0, "m(demand_std) = 1"),
    ("switch U(6,10)", 8.0, 8.0, "m(demand_std) = 1"),
    ("bundled", 20.0, 4.0, ""),
    ("bundled", 20.0, 4.0, "m(grid_on) >= 1"),
    ("bundled", 20.0, 8.0, ""),
    ("bundled", 20.0, 8.0, "m(grid_on) >= 1"),
    ("bundled", 20.0, 12.0, ""),
    ("late failure", 10.0, 10.0, ""),
)
UNIFORM_VARIANTS = {
    "repair 8": lambda: battery_variant(8.0),
    "repair 5": lambda: battery_variant(5.0),
    "switch U(0,10)": lambda: battery_variant(11.0, U010),
    "switch U(6,10)": lambda: battery_variant(11.0, U610),
    "late failure": _late_failure_battery,
}


def _kinks_inside(model, tree, loc, t_prime, rows):
    """(support kinks, survival kinks) strictly inside the location's region."""
    supports = survivals = 0
    dists = [model.transition(rv.transition).distribution for rv in loc.rvs]
    factors = pending_vars(model, loc, t_prime)
    for _, poly, _ in location_region_terms(model, tree, loc, t_prime, rows):
        verts = np.zeros((0, 0)) if poly is None else vertex_enumeration(poly)
        if len(verts) == 0:
            continue
        for i, dist in enumerate(dists):
            supports += sum(verts[:, i].min() < p < verts[:, i].max() for p in dist.params)
        for dist, lf in factors:
            lower = verts @ [lf.coeff(i) for i in range(poly.dim)] + lf.const
            survivals += sum(lower.min() < p < lower.max() for p in dist.params)
    return supports, survivals


def test_exact_simplex_matches_intervals_per_location(battery_trees):
    # On regions whose firings are all uniform the simplex route is a
    # second deterministic route: every location's value within 1e-12 of
    # the intervals route, the same locations, and an error estimate that
    # is a rounding bound.  Some regions must be cut at a support and at a
    # survival kink, or a route that skipped the cut could pass.
    trees = {("bundled", 20.0): battery_trees[20.0]}
    supports = survivals = 0
    for variant, tau, t_prime, prop in UNIFORM_QUERIES:
        if (variant, tau) not in trees:
            trees[variant, tau] = build_plt(UNIFORM_VARIANTS[variant](), tau)
        tree = trees[variant, tau]
        model = tree.model
        atoms = parse_property(prop, model) if prop else None
        want = transient_probability(tree, t_prime, atoms, method="intervals")
        got = transient_probability(tree, t_prime, atoms, method="simplex",
                                    cfg=McConfig(40_000, 5))
        assert got.per_location.keys() == want.per_location.keys()
        for lid, (value, bound) in got.per_location.items():
            assert abs(value - want.per_location[lid][0]) <= 1e-12, (tau, t_prime, prop, lid)
            assert 0.0 <= bound <= 1e-12
        for loc in candidate_locations(tree, t_prime):
            rows = _fluid_rows(model, loc, t_prime, atoms or [])
            if rows is not None:
                s, v = _kinks_inside(model, tree, loc, t_prime, rows)
                supports += s
                survivals += v
    assert supports > 0 and survivals > 0


def test_cuts_judge_survival_kinks_on_the_supported_region(monkeypatch):
    # With U(6, 10) switches at tau = 12, t' = 8, no survival kink lies
    # inside a region clipped to the supports, so nothing splits; judged
    # at the vertices of the box 0 <= s_i <= tau, nine regions split.  The
    # values stay those of the intervals route.
    tree = build_plt(battery_variant(switch_family=U610), 12.0)
    kinks = hpng.transient._kink_splits
    splits = []

    def counted(*args):
        out = kinks(*args)
        splits.append(len(out[0]))
        return out

    monkeypatch.setattr(hpng.transient, "_kink_splits", counted)
    got = transient_probability(tree, 8.0, method="simplex", cfg=McConfig(4_000, 2))
    want = transient_probability(tree, 8.0, method="intervals")
    assert splits and sum(splits) == 0
    assert got.per_location.keys() == want.per_location.keys()
    for lid, (value, _) in got.per_location.items():
        assert abs(value - want.per_location[lid][0]) <= 1e-16, lid


# ---------------------------------------------------------------------------
# closed-form nets: chain(k) and race(k)

def _net_query(net, method, cfg=None):
    tree = build_plt(net.model, net.tau)
    return transient_probability(tree, net.t_prime, parse_property(net.prop, net.model),
                                 method=method, cfg=cfg)


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("method", ["intervals", "simplex"])
def test_chain_deterministic_routes_are_irwin_hall(method, k):
    # k sequential U(0, 2) firings: both deterministic routes are exact.
    net = chain_net(k)
    res = _net_query(net, method)
    assert abs(res.total - net.exact) <= 1e-12, (res.total, net.exact)
    assert res.sigma <= 1e-12


@pytest.mark.parametrize("k", [4, 6, 8])
def test_chain_direct_samples_only_where_the_density_lives(k):
    # The k-D region of chain(k) is clipped to s_i <= 2, not boxed at
    # tau = 0.8k + 0.5: sampling its box keeps sigma small and the answer
    # within 3 sigma of the Irwin-Hall value.
    net = chain_net(k)
    res = _net_query(net, "direct", McConfig(20_000, 5, seed=0))
    assert res.sigma <= 0.005, res.sigma
    assert abs(res.total - net.exact) <= 3.0 * res.sigma, (res.total, res.sigma, net.exact)


def test_race_direct_is_unbiased():
    # race(6): 720 locations, each a 6-D region that few samples hit.
    # Weighting the i.i.d. iterations by 1 / sigma_i^2 read 10.8 sigma low.
    net = race_net(6)
    res = _net_query(net, "direct", McConfig(20_000, 5, seed=0))
    assert abs(res.total - net.exact) <= 3.0 * res.sigma, (res.total, res.sigma, net.exact)


# ---------------------------------------------------------------------------
# half-open residence [entry, exit)

def _chain_model():
    """``d`` fires at 5 and moves a token from ``a`` to ``b``, from where the
    immediate ``i`` moves it on to ``c`` at once; beside them a U(0, 10)
    general transition takes the token of ``g``."""
    return parse_model(json.dumps({
        "places": {"discrete": [{"id": "a", "tokens": 1}, {"id": "b", "tokens": 0},
                                {"id": "c", "tokens": 0}, {"id": "g", "tokens": 1}]},
        "transitions": {"deterministic": [{"id": "d", "firingTime": 5.0}],
                        "immediate": [{"id": "i"}],
                        "general": [{"id": "u", "distribution": U010}]},
        "arcs": {"discrete": [{"from": "a", "to": "d"}, {"from": "d", "to": "b"},
                              {"from": "b", "to": "i"}, {"from": "i", "to": "c"},
                              {"from": "g", "to": "u"}]},
    }))


@pytest.mark.parametrize("method", METHODS)
def test_event_at_t_prime_is_observed_after_it(reservoir_model, reservoir_tree, method):
    # demand_stop fires at exactly 5: the state at t' = 5 is the one after
    # it, as the simulator observes it, and no location is counted twice.
    cfg = McConfig(samples=2_000, iterations=2, seed=0)
    res = transient_probability(reservoir_tree, 5.0, method=method, cfg=cfg)
    assert res.total == pytest.approx(1.0, abs=1e-12)
    atoms = parse_property("m(demand_on) >= 1", reservoir_model)
    res = transient_probability(reservoir_tree, 5.0, atoms, method=method, cfg=cfg)
    sim = estimate_probability(reservoir_model, 10.0, 5.0, atoms, seed=0, runs=500)
    assert res.total == sim.p == 0.0


@pytest.mark.parametrize("method", METHODS)
def test_zero_delay_location_holds_no_mass(method):
    # At t' = 5 the token has passed through b into c: neither a, left at
    # 5, nor b, left as it is entered, is occupied, whichever route asks.
    model = _chain_model()
    tree = build_plt(model, 10.0)
    cfg = McConfig(samples=2_000, iterations=2, seed=0)
    res = transient_probability(tree, 5.0, method=method, cfg=cfg)
    assert res.total == pytest.approx(1.0, abs=1e-12)
    for place, want in (("a", 0.0), ("b", 0.0), ("c", 1.0)):
        atoms = parse_property(f"m({place}) >= 1", model)
        res = transient_probability(tree, 5.0, atoms, method=method, cfg=cfg)
        sim = estimate_probability(model, 10.0, 5.0, atoms, seed=0, runs=200)
        assert res.total == pytest.approx(want, abs=1e-12), place
        assert sim.p == want, place


def _zero_residence(loc):
    return bool(loc.det_exits) and all(
        ex.delta.is_constant() and abs(ex.delta.const) <= EPS for ex in loc.det_exits)


def _record_reach(monkeypatch) -> list:
    """The ids of the locations that reach cells, a region or a stream,
    in the order they reach them."""
    reached = []

    def recorded(fn, lid):
        def wrapper(*args, **kwargs):
            reached.append(lid(*args))
            return fn(*args, **kwargs)
        return wrapper

    for name, lid in (("location_pieces", lambda model, loc, *rest: loc.id),
                      ("location_region_terms", lambda model, tree, loc, *rest: loc.id),
                      ("stream", lambda seed, task: task)):
        monkeypatch.setattr(hpng.transient, name,
                            recorded(getattr(hpng.transient, name), lid))
    return reached


@pytest.mark.parametrize("method", METHODS)
def test_zero_residence_candidates_cost_nothing(monkeypatch, battery_trees, method):
    # Battery tau = 20: a location whose every exit is the constant 0 is
    # reported as (0, 0), and neither cells, nor a region, nor a stream
    # is made for it.
    tree = battery_trees[20.0]
    reached = _record_reach(monkeypatch)
    cfg = McConfig(samples=200, iterations=2, seed=0)
    for t_prime in (4.0, 8.0, 12.0, 16.0):
        zero = {loc.id for loc in candidate_locations(tree, t_prime) if _zero_residence(loc)}
        assert zero, t_prime
        reached.clear()
        res = transient_probability(tree, t_prime, method=method, cfg=cfg)
        assert reached and not zero & set(reached), t_prime
        for lid in zero:
            assert res.per_location[lid] == (0.0, 0.0)


def test_entry_rule_opens_only_on_positive_measure(battery_tree):
    # A constant entry at t' is observed after it; a non-constant entry
    # whose earliest value is t' reaches t' only on a hyperplane.
    loc = next(loc for loc in battery_tree.locations if loc.rvs)
    entry_open = hpng.transient.entry_open
    for entry, earliest, want in ((const(8.0), 8.0, True),
                                  (const(8.0 + 1e-3), 8.0 + 1e-3, False),
                                  (var(0) + const(6.0), 8.0, False),
                                  (var(0) + const(6.0), 8.0 - 1e-3, True)):
        probe = dataclasses.replace(loc, entry=entry, earliest=earliest)
        assert entry_open(probe, 8.0) is want, (entry, earliest)


#: Battery tau = 20 totals at each t', per route, with ``McConfig(200, 2)``.
#: The candidates entered at t' on a set of measure zero hold no mass, so
#: these are the same, bit for bit, whether or not a route integrates them.
MEASURE_ZERO_ENTRY_TOTALS = {
    "intervals": {8.0: "0x1.0000000000000p+0", 11.0: "0x1.0000000000000p+0",
                  16.0: "0x1.0000000000001p+0", 19.0: "0x1.ffffffffffffap-1"},
    "simplex": {8.0: "0x1.0000000000000p+0", 11.0: "0x1.0000000000001p+0",
                16.0: "0x1.0000000000001p+0", 19.0: "0x1.ffffffffffffbp-1"},
    "direct": {8.0: "0x1.00838a2f67c9dp+0", 11.0: "0x1.f60af13d6049fp-1",
               16.0: "0x1.f49e05d81f394p-1", 19.0: "0x1.f54c72a4934bbp-1"},
}


@pytest.mark.parametrize("method", METHODS)
def test_measure_zero_entry_candidates_cost_nothing(monkeypatch, battery_trees, method):
    # Battery tau = 20: a candidate whose entry is not constant and whose
    # earliest entry is t' is entered by t' only on a set of measure zero.
    # It is reported as (0, 0), neither cells, nor a region, nor a stream
    # is made for it, and the total is what it was when each cost work.
    tree = battery_trees[20.0]
    reached = _record_reach(monkeypatch)
    cfg = McConfig(samples=200, iterations=2, seed=0)
    for t_prime, want in MEASURE_ZERO_ENTRY_TOTALS[method].items():
        closed = {loc.id for loc in candidate_locations(tree, t_prime)
                  if not loc.entry.is_constant() and loc.earliest >= t_prime - EPS}
        assert closed, t_prime
        reached.clear()
        res = transient_probability(tree, t_prime, method=method, cfg=cfg)
        assert reached and not closed & set(reached), t_prime
        for lid in closed:
            assert res.per_location[lid] == (0.0, 0.0)
        assert res.total.hex() == want, t_prime


@pytest.mark.parametrize("method", ["simplex", "intervals"])
def test_deterministic_rules_make_no_stream(monkeypatch, battery_tree, method):
    # An all-uniform simplex query and an intervals query without a VEGAS
    # cell never draw, so no location makes its generator.
    calls = {"stream": 0, "vegas_integrate": 0}

    def counted(name):
        fn = getattr(hpng.transient, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(hpng.transient, name, counted(name))
    res = transient_probability(battery_tree, 8.0, method=method, cfg=GATE_CFG)
    assert res.total == pytest.approx(1.0, abs=1e-12)
    assert calls == {"stream": 0, "vegas_integrate": 0}
