import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hpng.semantics
import hpng.transient
import hpng.tree
from hpng.model import load_model
from hpng.props import parse_property
from hpng.symbolic import (
    EPS,
    ZERO,
    ComparisonKind,
    LinearForm,
    RvId,
    SymInterval,
    compare_remaining_times,
    const,
    extremal_value,
    var,
)

from conftest import MODELS


def test_trailing_zero_coefficients_are_stripped():
    f = LinearForm(1.0, (2.0, 0.0, 0.0))
    assert f.coeffs == (2.0,)
    assert f.top_index() == 0


def test_algebra_add_sub_scale():
    f = const(3.0) + var(1, 2.0)
    g = f - var(0, 1.0)
    assert g.evaluate([4.0, 5.0]) == pytest.approx(3.0 + 10.0 - 4.0)
    assert g.scaled(-2.0).evaluate([4.0, 5.0]) == pytest.approx(-18.0)
    assert (f + 1.5).const == pytest.approx(4.5)


def test_substitute_only_lower_variables():
    f = var(2, 3.0, offset=1.0)          # 1 + 3*o2
    rep = var(0, 0.5, offset=2.0)        # 2 + 0.5*o0
    g = f.substitute(2, rep)
    assert g.evaluate([4.0, 0.0, 0.0]) == pytest.approx(1.0 + 3.0 * (2.0 + 2.0))
    with pytest.raises(ValueError):
        var(1).substitute(1, var(1))     # replacement may not reference o1


def test_evaluate_batch_ignores_extra_columns():
    f = var(1, 2.0, offset=1.0)
    pts = np.array([[0.0, 1.0, 9.0], [0.0, 2.0, -4.0]])
    np.testing.assert_allclose(f.evaluate_batch(pts), [3.0, 5.0])


def test_text_uses_names():
    f = var(0, 2.0) + const(-5.0)
    assert f.text(["s0"]) == "-5 + 2*s0"
    assert ZERO.text([]) == "0"


def test_rvid_label():
    assert RvId("pump", 2).label() == "spump_2"


def test_interval_contains_and_width():
    iv = SymInterval(const(1.0), var(0, 1.0))
    assert iv.contains(2.0, [3.0])
    assert not iv.contains(3.5, [3.0])


def _grid_extremum(form, domain, sense, steps=7):
    """Brute-force oracle: evaluate on a dense grid swept in firing order."""
    best = -math.inf if sense == "max" else math.inf
    n = len(domain)

    def rec(vals):
        nonlocal best
        k = len(vals)
        if k == n:
            v = form.evaluate(vals)
            best = max(best, v) if sense == "max" else min(best, v)
            return
        lo = domain[k].lower.evaluate(vals)
        hi = domain[k].upper.evaluate(vals)
        for x in np.linspace(lo, hi, steps):
            rec(vals + [float(x)])

    rec([])
    return best


def _random_triangular_domain(rng, n):
    domain = []
    for k in range(n):
        lo = LinearForm(float(rng.uniform(0, 2)),
                        tuple(float(rng.uniform(-0.5, 0.5)) for _ in range(k)))
        width = LinearForm(float(rng.uniform(0.5, 2.0)),
                           tuple(float(rng.uniform(0, 0.3)) for _ in range(k)))
        domain.append(SymInterval(lo, lo + width))
    return domain


def test_extremal_value_matches_grid_search_oracle():
    rng = np.random.default_rng(7)
    for _ in range(40):
        n = int(rng.integers(1, 4))
        domain = _random_triangular_domain(rng, n)
        form = LinearForm(float(rng.uniform(-2, 2)),
                          tuple(float(rng.uniform(-1.5, 1.5)) for _ in range(n)))
        for sense in ("min", "max"):
            exact = extremal_value(form, domain, sense)
            approx = _grid_extremum(form, domain, sense)
            # The grid oracle only probes interval endpoints approximately
            # in the dependent directions, so compare with a loose margin.
            if sense == "max":
                assert exact >= approx - 1e-6
            else:
                assert exact <= approx + 1e-6
            # Extrema of affine forms over these cells sit at corner chains,
            # which the recursive endpoint sweep does visit exactly.
            corner = _grid_extremum(form, domain, sense, steps=2)
            assert exact == pytest.approx(corner, abs=1e-9)


def test_extremal_value_unbounded_and_errors():
    dom = [SymInterval(const(0.0), None)]
    assert extremal_value(var(0), dom, "max") == math.inf
    assert extremal_value(var(0), dom, "min") == 0.0
    assert extremal_value(var(0, -1.0), dom, "min") == -math.inf
    with pytest.raises(ValueError):
        extremal_value(var(0), dom, "biggest")
    with pytest.raises(ValueError):
        extremal_value(var(3), dom, "max")


@pytest.mark.parametrize("bad", [var(1), var(2)])
def test_extremal_value_rejects_a_bound_on_its_own_or_a_higher_variable(bad):
    dom = [SymInterval(const(0.0), const(1.0)), SymInterval(bad, const(3.0))]
    with pytest.raises(ValueError):
        extremal_value(var(1), dom, "min")


def _substitution_walk(form, domain, sense, eps=EPS):
    """extremal_value as a walk of LinearForm substitutions (the reference)."""
    if sense not in ("min", "max"):
        raise ValueError("sense must be 'min' or 'max'")
    want_max = sense == "max"
    cur = form
    for k in range(len(domain) - 1, -1, -1):
        c = cur.coeff(k)
        if abs(c) <= eps:
            if k < len(cur.coeffs):
                cur = cur.substitute(k, ZERO)
            continue
        iv = domain[k]
        if (c > 0) == want_max:
            if iv.upper is None:
                return math.inf if c > 0 else -math.inf
            cur = cur.substitute(k, iv.upper)
        else:
            cur = cur.substitute(k, iv.lower)
    if cur.top_index(eps) is not None:
        raise ValueError("form references variables outside the domain")
    return cur.const


def _recorded_extremum_calls(monkeypatch):
    """Every (form, domain, sense) a battery tau = 8 build, the bounds a
    t' = 8 candidate scan compares, and an intervals query at t' = 8 use."""
    calls = []

    def record(form, domain, sense, eps=EPS):
        calls.append((form, list(domain), sense))
        return extremal_value(form, domain, sense, eps)

    for mod in (hpng.tree, hpng.semantics, hpng.transient):
        monkeypatch.setattr(mod, "extremal_value", record)
    model = load_model(str(MODELS / "battery.json"))
    tree = hpng.tree.build_plt(model, 8.0)
    for loc in tree.locations:
        calls.append((loc.entry, loc.domain, "min"))
        calls += [(loc.entry + ex.delta, list(ex.cuts), "max") for ex in loc.det_exits]
    atoms = parse_property("m(grid_on) >= 1", model)
    hpng.transient.transient_probability(tree, 8.0, atoms)
    return calls


def test_extremal_value_is_the_substitution_walk_bit_for_bit(monkeypatch):
    calls = _recorded_extremum_calls(monkeypatch)
    assert len(calls) > 1000
    assert any(math.isinf(_substitution_walk(*c)) for c in calls)
    # Trailing coefficients within EPS are dropped after each substitution,
    # so the o0 term below must not add 1e-10 to the 2.0 it receives.
    tiny = LinearForm(0.0, (1e-10, 1.0))
    dom = [SymInterval(const(1.0), const(2.0)), SymInterval(var(0, 2.0), const(5.0))]
    calls += [(tiny, dom, "min"), (tiny, dom, "max"), (tiny.scaled(-1.0), dom, "min")]
    for form, domain, sense in calls:
        want = _substitution_walk(form, domain, sense)
        got = extremal_value(form, domain, sense)
        assert got.hex() == want.hex(), (form, domain, sense)


coeff = st.floats(min_value=-3, max_value=3, allow_nan=False, width=32)


@settings(max_examples=200, deadline=None)
@given(
    a0=coeff, a1=coeff, a2=coeff,
    b0=coeff, b1=coeff, b2=coeff,
    o0=st.floats(min_value=0, max_value=5, width=32),
    o1=st.floats(min_value=0, max_value=5, width=32),
)
def test_compare_remaining_times_pointwise(a0, a1, a2, b0, b1, b2, o0, o1):
    """The reported outcome must agree with direct evaluation anywhere."""
    dtc = LinearForm(a0, (a1, a2))
    dtstar = LinearForm(b0, (b1, b2))
    out = compare_remaining_times(dtc, dtstar)
    vals = [o0, o1]
    before = dtc.evaluate(vals) <= dtstar.evaluate(vals)
    margin = abs(dtc.evaluate(vals) - dtstar.evaluate(vals))
    if out.kind is ComparisonKind.EQUAL:
        assert margin <= 1e-5
    elif out.kind is ComparisonKind.ALWAYS_BEFORE:
        assert before or margin <= 1e-5
    elif out.kind is ComparisonKind.NEVER_BEFORE:
        assert not before or margin <= 1e-5
    else:
        assert out.bound.top_index() is None or out.bound.top_index() < out.index
        edge = abs(vals[out.index] - out.bound.evaluate(vals))
        if out.kind is ComparisonKind.UPPER_BOUND:
            implied = vals[out.index] <= out.bound.evaluate(vals)
        else:
            implied = vals[out.index] >= out.bound.evaluate(vals)
        assert implied == before or edge <= 1e-5


def test_compare_identical_forms_is_equal():
    f = var(0, 2.0, offset=1.0)
    assert compare_remaining_times(f, f + 0.0).kind is ComparisonKind.EQUAL
    assert compare_remaining_times(f, f + 1.0).kind is ComparisonKind.ALWAYS_BEFORE
    assert compare_remaining_times(f + 1.0, f).kind is ComparisonKind.NEVER_BEFORE


signed = st.sampled_from([0.0, -0.0, 1.0, -2.5, 1e-10, 3.0]) | coeff


@settings(max_examples=300, deadline=None)
@given(a=st.lists(signed, max_size=4), b=st.lists(signed, max_size=4))
def test_subtraction_is_adding_the_negation_bit_for_bit(a, b):
    # Signed zeros included: a coefficient past the end of the shorter
    # form must come out as adding the zero-padded negation leaves it.
    x = LinearForm(a[0] if a else 0.0, tuple(a[1:]))
    y = LinearForm(b[0] if b else 0.0, tuple(b[1:]))
    got, want = x - y, x + y.scaled(-1.0)
    assert [v.hex() for v in (got.const, *got.coeffs)] == \
        [v.hex() for v in (want.const, *want.coeffs)]
    # Adding a number keeps the coefficients, which need no stripping.
    for other in (2.5, -0.0, 3):
        for got in (x + other, x - other):
            assert type(got.const) is float
            assert got.coeffs == x.coeffs == LinearForm(0.0, x.coeffs).coeffs


@settings(max_examples=300, deadline=None)
@given(a=st.lists(signed, min_size=1, max_size=4), b=st.lists(signed, min_size=1, max_size=4))
def test_reversed_comparison_is_the_recomputed_one(a, b):
    x = LinearForm(a[0], tuple(a[1:]))
    y = LinearForm(b[0], tuple(b[1:]))
    derived = compare_remaining_times(x, y).reversed()
    explicit = compare_remaining_times(y, x)
    assert (derived.kind, derived.index) == (explicit.kind, explicit.index)
    if explicit.bound is not None:
        # Equal up to the sign of a zero.
        assert [v.hex() if v else 0 for v in (derived.bound.const, *derived.bound.coeffs)] == \
            [v.hex() if v else 0 for v in (explicit.bound.const, *explicit.bound.coeffs)]
