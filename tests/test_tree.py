"""Location tree construction: structure, domains, invariants, export."""

import hashlib
import json

import numpy as np
import pytest

import hpng.tree
from hpng.montecarlo import McConfig
from hpng.props import parse_property
from hpng.semantics import EventKind, ResourceLimitError
from hpng.symbolic import (
    EPS,
    SymInterval,
    const,
    extremal_value,
    var,
)
from hpng.transient import _gauss_legendre_rule, transient_probability
from hpng.tree import (
    _apply_bound,
    build_plt,
    dump_json,
    pending_rvs,
    tree_to_dot,
    tree_to_json,
)

from conftest import assignment_values, battery_variant, sample_assignment


def _rows(tree):
    out = []
    for loc in tree.locations:
        names = loc.var_names()
        out.append((
            loc.parent,
            loc.source,
            loc.entry.text(names),
            tuple(iv.text(names) for iv in loc.domain),
        ))
    return out


RESERVOIR_ROWS = [
    (None, None, "0", ()),
    (0, "demand_stop fires", "5", ()),
    (0, "pump_break fires", "spump_break_0", ("[0, 5]",)),
    (1, "tank reaches upper bound", "7.5", ()),
    (1, "pump_break fires", "spump_break_0", ("[5, 7.5]",)),
    (2, "demand_stop fires", "5", ("[2.5, 5]",)),
    (2, "tank reaches lower bound", "2*spump_break_0", ("[0, 2.5]",)),
    (3, "pump_break fires", "spump_break_0", ("[7.5, inf]",)),
    (6, "demand_stop fires", "5", ("[0, 2.5]",)),
]


def test_reservoir_tree_structure(reservoir_tree):
    assert _rows(reservoir_tree) == RESERVOIR_ROWS


def test_reservoir_levels_and_drift(reservoir_tree):
    by_id = reservoir_tree.locations
    levels = [loc.state.x[0].text(loc.var_names()) for loc in by_id]
    assert levels == ["0", "5", "spump_break_0", "10", "-5 + 2*spump_break_0",
                      "-5 + 2*spump_break_0", "0", "10", "0"]
    assert [loc.state.d[0] for loc in by_id] == [1.0, 2.0, -1.0, 0.0, 0.0,
                                                 0.0, 0.0, 0.0, 0.0]


def test_battery_root_children(battery_tree):
    root = battery_tree.root
    kinds = {battery_tree.location(c).source_kind for c in root.children}
    assert len(root.children) == 3
    assert kinds == {EventKind.GENERAL}


def test_battery_tree_size(battery_tree):
    assert len(battery_tree.locations) == 81


def test_all_probabilities_positive(battery_tree, reservoir_tree):
    for tree in (battery_tree, reservoir_tree):
        assert all(0.0 < loc.p <= 1.0 for loc in tree.locations)


def test_domains_are_triangular(battery_tree, reservoir_tree):
    # The bound for variable k may only mention variables 0..k-1.
    for tree in (battery_tree, reservoir_tree):
        for loc in tree.locations:
            for k, iv in enumerate(loc.domain):
                forms = [iv.lower] + ([iv.upper] if iv.upper is not None else [])
                for form in forms:
                    assert all(c == 0.0 for c in form.coeffs[k:])


def test_new_variable_lower_bound_is_enabled_time(battery_tree, reservoir_tree):
    # A random firing introduces its value as a fresh variable bounded below
    # by the time the transition had been enabled in the parent.
    for tree in (battery_tree, reservoir_tree):
        model = tree.model
        for loc in tree.locations:
            if loc.source_kind is not EventKind.GENERAL:
                continue
            parent = tree.location(loc.parent)
            gi = model.t_ref[loc.source.split()[0]][1]
            assert loc.domain[-1].lower == parent.state.g[gi]


def test_entry_times_within_bound(battery_tree, reservoir_tree):
    for tree in (battery_tree, reservoir_tree):
        for loc in tree.locations:
            lo = extremal_value(loc.entry, loc.domain, "min")
            assert lo <= tree.tau_max + 1e-9


def test_children_lists_consistent(battery_tree):
    for loc in battery_tree.locations:
        for cid in loc.children:
            assert battery_tree.location(cid).parent == loc.id


def test_path_and_accumulated_p(reservoir_tree):
    assert reservoir_tree.path(8) == [0, 2, 6, 8]
    assert reservoir_tree.accumulated_p(8) == pytest.approx(1.0)


def test_pending_rvs_reservoir(reservoir_model, reservoir_tree):
    root_pending = list(pending_rvs(reservoir_model, reservoir_tree.root))
    assert len(root_pending) == 1
    rv, dist, g_form, is_enabled = root_pending[0]
    assert (rv.transition, rv.firing) == ("pump_break", 0)
    assert rv.label() == "spump_break_0"
    assert dist.family == "uniform"
    assert g_form.text([]) == "0"
    assert is_enabled

    # After the pump broke its transition is disabled with a reset clock, so
    # no further firing carries mass.
    assert list(pending_rvs(reservoir_model, reservoir_tree.location(2))) == []

    # Location 1: demand stopped at 5, the pump clock kept running.
    stopped = list(pending_rvs(reservoir_model, reservoir_tree.location(1)))
    assert len(stopped) == 1
    assert stopped[0][2].text([]) == "5"


def test_det_exit_cuts_partition_domain(reservoir_tree, battery_tree):
    rng = np.random.default_rng(17)
    for tree in (reservoir_tree, battery_tree):
        model = tree.model
        for loc in tree.locations:
            if len(loc.det_exits) < 2 or not loc.rvs:
                continue
            hits = 0
            for _ in range(200):
                assignment = sample_assignment(model, rng)
                values = assignment_values(loc, assignment)
                if not all(iv.contains(v, values, eps=0.0)
                           for iv, v in zip(loc.domain, values)):
                    continue
                inside = sum(
                    all(iv.contains(v, values, eps=0.0)
                        for iv, v in zip(exit.cuts, values))
                    for exit in loc.det_exits
                )
                assert inside == 1
                hits += 1
            assert hits > 0


def test_max_locations_cap(monkeypatch, reservoir_model):
    monkeypatch.setattr(hpng.tree, "MAX_LOCATIONS", 3)
    with pytest.raises(ResourceLimitError):
        build_plt(reservoir_model, 10.0)


@pytest.mark.parametrize("tau", [-2.0, float("inf"), float("nan")])
def test_build_rejects_a_horizon_not_finite_and_non_negative(monkeypatch, battery_model, tau):
    # nan and inf would unfold up to the location cap, kept small here
    monkeypatch.setattr(hpng.tree, "MAX_LOCATIONS", 100)
    with pytest.raises(ValueError, match="horizon"):
        build_plt(battery_model, tau)


def test_zero_horizon_is_accepted(reservoir_model):
    assert build_plt(reservoir_model, 0.0).tau_max == 0.0


# ---------------------------------------------------------------------------
# zero-measure pruning and the bits of the tree

@pytest.mark.parametrize("model, tau", [("battery", 12.0), ("battery", 20.0),
                                        ("reservoir", 10.0)])
def test_every_cell_has_room(battery_trees, reservoir_tree, model, tau):
    # Every domain and exit cut has lower <= upper (up to EPS) for each
    # bounded variable wherever the variables before it can lie, so
    # earliest entries, latest exits and the measure tests see the cell
    # itself and not a superset.
    tree = reservoir_tree if model == "reservoir" else battery_trees[tau]
    cells = [loc.domain for loc in tree.locations]
    cells += [list(ex.cuts) for loc in tree.locations for ex in loc.det_exits]
    for cell in cells:
        for iv in cell:
            if iv.upper is not None:
                assert extremal_value(iv.lower - iv.upper, cell, "max") <= EPS


def _volume(loc):
    """Domain volume.

    Every variable of a domain has room (see ``test_every_cell_has_room``),
    so no width is negative.  The Jacobian of the unit-cube map of the
    domain is then a product of affine widths, of degree below n in each
    coordinate, so a Gauss-Legendre rule of n // 2 + 1 points per axis is
    exact.  An unbounded variable gets width 1: only a width of zero
    matters here.
    """
    n = len(loc.domain)
    if n == 0:
        return 1.0
    nodes, weights = _gauss_legendre_rule(n // 2 + 1, n)
    vals = np.zeros((len(nodes), n))
    w = np.ones(len(nodes))
    for k, iv in enumerate(loc.domain):
        lo = iv.lower.evaluate_batch(vals)
        width = 1.0 if iv.upper is None else np.maximum(iv.upper.evaluate_batch(vals) - lo, 0.0)
        vals[:, k] = lo + nodes[:, k] * width
        w = w * width
    return float(weights @ w)


@pytest.mark.parametrize("tau, size", [(12.0, 363), (20.0, 2107)])
def test_every_location_carries_volume(battery_trees, tau, size):
    # Before zero-measure cells were pruned these trees had 554 and 4,062
    # locations, of which 183 and 1,952 had a domain of zero volume.
    tree = battery_trees[tau]
    assert len(tree.locations) == size
    thin = [loc.id for loc in tree.locations if _volume(loc) < 1e-6]
    assert thin == []


def _grid_on(t_prime, repair=8.0):
    c = max(0.0, t_prime - repair)
    return max(0.0, 1.0 - t_prime / 10.0) + 0.1 * (c - c * c / 20.0)


# Intervals answers of the unpruned trees, which the pruned ones must keep.
GRID_ON_HEX = {4.0: "0x1.3333333333333p-1", 8.0: "0x1.9999999999998p-3",
               12.0: "0x1.47ae147ae1478p-2", 16.0: "0x1.eb851eb851ebap-2"}


@pytest.mark.parametrize("tau", [12.0, 20.0])
def test_pruned_tree_keeps_the_answers(battery_trees, tau):
    tree = battery_trees[tau]
    atoms = parse_property("m(grid_on) >= 1", tree.model)
    cfg = McConfig(samples=4_000, iterations=2, seed=0)
    for t_prime, want in GRID_ON_HEX.items():
        if t_prime > tau:
            continue
        got = transient_probability(tree, t_prime, atoms, method="intervals")
        assert got.total.hex() == want, t_prime
        for method in ("simplex", "direct"):
            res = transient_probability(tree, t_prime, atoms, method=method, cfg=cfg)
            assert abs(res.total - _grid_on(t_prime)) <= 3.0 * res.sigma, (method, t_prime)


def _tree_digest(tree):
    """SHA-256 over ``float.hex`` of every float the tree stores."""
    h = hashlib.sha256()

    def put(*xs):
        h.update(",".join(float(x).hex() for x in xs).encode() + b";")

    def form(f):
        put(f.const, *f.coeffs)

    def cells(ivs):
        for iv in ivs:
            form(iv.lower)
            if iv.upper is None:
                h.update(b"inf;")
            else:
                form(iv.upper)

    for loc in tree.locations:
        h.update(f"L{loc.id}:{loc.parent}:".encode())
        put(loc.p, loc.earliest)
        form(loc.entry)
        cells(loc.domain)
        for f in loc.state.x + loc.state.c + loc.state.g:
            form(f)
        put(*loc.state.d)
        for ex in loc.det_exits:
            h.update(b"exit;")
            form(ex.delta)
            cells(ex.cuts)
            put(ex.latest)
    return h.hexdigest()


def test_tree_floats_are_pinned(battery_trees, reservoir_tree):
    # Speed-ups of the build must not move a single bit of the tree;
    # ``tree_to_json`` prints with ``:g`` and cannot show that.
    assert _tree_digest(reservoir_tree) == RESERVOIR_T10_DIGEST
    assert _tree_digest(battery_trees[20.0]) == BATTERY_T20_DIGEST


RESERVOIR_T10_DIGEST = "bc42979959d1aa141641c143d1982470b4317d70a81aa48751d06303d09c69b5"
BATTERY_T20_DIGEST = "b003b8e3dd133c1b168ff94339f89e32eb5eebb503e20766052089aa9c05ee75"


def test_more_battery_trees_are_pinned(battery_trees):
    # The next horizon down, and two battery variants of the benchmark's
    # tau = 8 sweep: grid repair after 5, and after 11 with U(0,10) switches.
    assert _tree_digest(battery_trees[12.0]) == BATTERY_T12_DIGEST
    assert _tree_digest(build_plt(battery_variant(repair_time=5.0), 8.0)) == \
        BATTERY_T8_REPAIR5_DIGEST
    switch = {"family": "uniform", "a": 0.0, "b": 10.0}
    assert _tree_digest(build_plt(battery_variant(11.0, switch), 8.0)) == \
        BATTERY_T8_REPAIR11_U010_DIGEST


BATTERY_T12_DIGEST = "acb3715cbb22ab0f84acb2ddc4d0e2ad6ec66dee687f61c227ede176bbac5e0b"
BATTERY_T8_REPAIR5_DIGEST = "f56f652aded05eda7b75b6239238188480ec296fe05f26a791bd9f52198ddab6"
BATTERY_T8_REPAIR11_U010_DIGEST = \
    "6fd77a87063d9ba2bdd933d0bb0fe43f4d480bbfebd318dd2759ac3d06938d19"


def _answer_digest(res):
    """SHA-256 over ``float.hex`` of every location's value and error."""
    h = hashlib.sha256()
    for lid in sorted(res.per_location):
        value, sigma = res.per_location[lid]
        h.update(f"{lid}:{value.hex()}:{sigma.hex()};".encode())
    return h.hexdigest()


def test_intervals_cells_are_pinned(battery_trees):
    # The intervals route cuts its cells with restrict, on the same kernel
    # as the build: every location's value and error, bit for bit, at a
    # late t' where cutting carries most of the route's time.
    res = transient_probability(battery_trees[20.0], 16.0, method="intervals")
    assert len(res.per_location) == 984
    assert _answer_digest(res) == INTERVALS_T20_AT16_DIGEST


def test_direct_answers_are_pinned(battery_trees):
    # The direct route's sampling kernel, bit for bit: the benchmark's
    # repair-5 sweep query at the gate's budget, and a deeper tree.
    repair5 = battery_variant(repair_time=5.0)
    atoms = parse_property("m(grid_on) >= 1", repair5)
    res = transient_probability(build_plt(repair5, 8.0), 8.0, atoms, method="direct",
                                cfg=McConfig(40_000, 5))
    assert len(res.per_location) == 29
    assert _answer_digest(res) == DIRECT_T8_R5_DIGEST
    tree = battery_trees[20.0]
    atoms = parse_property("m(grid_on) >= 1", tree.model)
    res = transient_probability(tree, 8.0, atoms, method="direct", cfg=McConfig(20_000, 5))
    assert len(res.per_location) == 25
    assert _answer_digest(res) == DIRECT_T20_AT8_DIGEST


def test_simplex_answers_are_pinned(battery_trees):
    # The simplex route, bit for bit: the benchmark's repair-5 sweep query
    # and a deeper tree whose regions triangulate into 2-D simplices, both
    # all uniform and so integrated by the exact rule, and the N(7,2)-switch
    # query at the gate's budget, whose normal densities and survival
    # factors keep the sampling kernel.
    repair5 = battery_variant(repair_time=5.0)
    atoms = parse_property("m(grid_on) >= 1", repair5)
    res = transient_probability(build_plt(repair5, 8.0), 8.0, atoms, method="simplex",
                                cfg=McConfig(40_000, 5))
    assert len(res.per_location) == 29
    assert _answer_digest(res) == SIMPLEX_T8_R5_DIGEST
    n72 = battery_variant(11.0, {"family": "normal", "mu": 7.0, "sigma": 2.0})
    atoms = parse_property("m(demand_std) = 1", n72)
    res = transient_probability(build_plt(n72, 8.0), 8.0, atoms, method="simplex",
                                cfg=McConfig(40_000, 5))
    assert len(res.per_location) == 5
    assert _answer_digest(res) == SIMPLEX_T8_N72_DIGEST
    res = transient_probability(battery_trees[20.0], 8.0, method="simplex",
                                cfg=McConfig(4_000, 2))
    assert len(res.per_location) == 81
    assert _answer_digest(res) == SIMPLEX_T20_AT8_DIGEST


INTERVALS_T20_AT16_DIGEST = "b2d931aebb63d05059f51248acae4e46cd23ca8de56e965c3a8711c89ec7d6a2"
SIMPLEX_T8_R5_DIGEST = "20106104c8d75e963d89695c39c8825559212ee2d1f1e2de0f20feec97b1af69"
SIMPLEX_T8_N72_DIGEST = "8516cc7326f3665885f26c806b45dfcacb22428835079902ac611b89d0fa0042"
SIMPLEX_T20_AT8_DIGEST = "56101c4ffd0541ba16e84743c3f056b54905508cb46c96193740f4b3fc0b093a"
DIRECT_T8_R5_DIGEST = "fd007c088487d2e6ec54ef935b68a833e89a279d8b7ef2647e470cfcb63f0f33"
DIRECT_T20_AT8_DIGEST = "e4c9d3d8a92cedc2f190893717ac9329d7ad3d52583bc7bc09eb81213ce1e7cc"


# ---------------------------------------------------------------------------
# domain cutting

def _box(bounds):
    return [SymInterval(const(lo), const(hi)) for lo, hi in bounds]


def test_apply_bound_slack_keeps_piece():
    piece = _box([(0.0, 10.0), (0.0, 5.0)])
    out = _apply_bound(piece, 1, const(7.0), upper=True)
    assert len(out) == 1
    assert out[0][1].upper.text([]) == "5"


def test_apply_bound_tight_replaces():
    piece = _box([(0.0, 10.0), (0.0, 5.0)])
    out = _apply_bound(piece, 1, const(3.0), upper=True)
    assert len(out) == 1
    assert out[0][1].upper.text([]) == "3"


def test_apply_bound_crossing_splits():
    # New upper bound s0 on variable 1 crosses the fixed upper bound 5
    # inside s0's range, so the cell splits at s0 = 5.
    piece = _box([(0.0, 10.0), (0.0, 5.0)])
    out = _apply_bound(piece, 1, var(0), upper=True)
    assert len(out) == 2
    texts = sorted((cell[0].text(["s0"]), cell[1].text(["s0"])) for cell in out)
    assert texts == [("[0, 5]", "[0, s0]"), ("[5, 10]", "[0, 5]")]


def test_apply_bound_lower_tight_replaces():
    # The new lower bound s0 sits at or above the existing 0 everywhere, so
    # it replaces it; [s0, 5] has no room for s0 > 5, which is cut away.
    piece = _box([(0.0, 10.0), (0.0, 5.0)])
    out = _apply_bound(piece, 1, var(0), upper=False)
    assert len(out) == 1
    assert [iv.text(["s0"]) for iv in out[0]] == ["[0, 5]", "[s0, 5]"]


def test_apply_bound_lower_crossing_splits():
    piece = _box([(0.0, 10.0), (3.0, 5.0)])
    out = _apply_bound(piece, 1, var(0), upper=False)
    assert len(out) == 2
    texts = sorted((cell[0].text(["s0"]), cell[1].text(["s0"])) for cell in out)
    assert texts == [("[0, 3]", "[3, 5]"), ("[3, 5]", "[s0, 5]")]


def test_apply_bound_on_unbounded_interval():
    piece = [SymInterval(const(0.0), None)]
    out = _apply_bound(piece, 0, const(4.0), upper=True)
    assert len(out) == 1
    assert out[0][0].text([]) == "[0, 4]"


# ---------------------------------------------------------------------------
# export

def test_tree_json_shape(reservoir_tree):
    doc = tree_to_json(reservoir_tree)
    assert doc["tauMax"] == 10.0
    assert len(doc["locations"]) == 9
    root = doc["locations"][0]
    assert root["parent"] is None
    assert root["levels"] == {"tank": "0"}
    assert root["children"] == [1, 2]
    leaf = doc["locations"][7]
    assert leaf["domain"] == [{"rv": "spump_break_0",
                               "interval": "[7.5, inf]"}]
    json.loads(dump_json(reservoir_tree))  # serializable end to end


def test_tree_dot_lists_all_nodes(reservoir_tree):
    dot = tree_to_dot(reservoir_tree)
    for loc in reservoir_tree.locations:
        assert f"n{loc.id} " in dot
    assert dot.count("->") == 8
