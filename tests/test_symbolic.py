import math
from dataclasses import FrozenInstanceError, dataclass

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


def _substitution_walk(form, domain, sense):
    """extremal_value as a walk of LinearForm substitutions (the reference)."""
    if sense not in ("min", "max"):
        raise ValueError("sense must be 'min' or 'max'")
    want_max = sense == "max"
    cur = form
    for k in range(len(domain) - 1, -1, -1):
        c = cur.coeff(k)
        if abs(c) <= EPS:
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
    if cur.top_index() is not None:
        raise ValueError("form references variables outside the domain")
    return cur.const


def _recorded_extremum_calls(monkeypatch):
    """Every (form, domain, sense) a battery tau = 8 build, the bounds a
    t' = 8 candidate scan compares, and an intervals query at t' = 8 use."""
    calls = []

    def record(form, domain, sense):
        calls.append((form, list(domain), sense))
        return extremal_value(form, domain, sense)

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
    """The reported bound must agree with direct evaluation anywhere."""
    dtc = LinearForm(a0, (a1, a2))
    dtstar = LinearForm(b0, (b1, b2))
    if (dtstar - dtc).is_constant():
        with pytest.raises(ValueError, match="parallel"):
            compare_remaining_times(dtc, dtstar)
        return
    k, bound, upper = compare_remaining_times(dtc, dtstar)
    vals = [o0, o1]
    before = dtc.evaluate(vals) <= dtstar.evaluate(vals)
    assert bound.top_index() is None or bound.top_index() < k
    edge = abs(vals[k] - bound.evaluate(vals))
    if upper:
        implied = vals[k] <= bound.evaluate(vals)
    else:
        implied = vals[k] >= bound.evaluate(vals)
    assert implied == before or edge <= 1e-5


def test_compare_parallel_forms_raises():
    # Parallel forms never cross, whether equal, within EPS or apart.
    f = var(1, 2.0, offset=1.0)
    for x, y in ((f, f + 0.0), (f, f + 1.0), (f + 1.0, f), (f, f + 0.5 * EPS),
                 (f, LinearForm(1.0, (0.5 * EPS, 2.0 - 0.5 * EPS)))):
        with pytest.raises(ValueError, match="parallel"):
            compare_remaining_times(x, y)
    assert compare_remaining_times(f, LinearForm(1.0, (2 * EPS, 2.0)))[:1] == (0,)


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


# ---------------------------------------------------------------------------
# the slotted kernel against the frozen-dataclass algebra it replaced

def _ref_strip(coeffs):
    out = [float(c) for c in coeffs]
    while out and abs(out[-1]) <= EPS:
        out.pop()
    return tuple(out)


@dataclass(frozen=True)
class _RefForm:
    """The frozen-dataclass form and algebra, kept as the bit-for-bit reference."""

    const: float
    coeffs: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "const", float(self.const))
        object.__setattr__(self, "coeffs", _ref_strip(self.coeffs))

    def __add__(self, other):
        n = max(len(self.coeffs), len(other.coeffs))
        a = list(self.coeffs) + [0.0] * (n - len(self.coeffs))
        b = list(other.coeffs) + [0.0] * (n - len(other.coeffs))
        return _RefForm(self.const + other.const, tuple(x + y for x, y in zip(a, b)))

    def __sub__(self, other):
        return self + other.scaled(-1.0)

    def scaled(self, factor):
        return _RefForm(self.const * factor, tuple(c * factor for c in self.coeffs))


def _hex(form):
    return [v.hex() for v in (form.const, *form.coeffs)]


# Signed zeros, values within a few ulps of EPS either side, and plain values.
near_eps = st.sampled_from([0.0, -0.0, EPS, -EPS, 0.5 * EPS, -0.7 * EPS,
                            math.nextafter(EPS, 1.0), math.nextafter(-EPS, -1.0),
                            math.nextafter(EPS, 0.0), 1.0 + EPS, 1.0])
value = near_eps | st.floats(min_value=-4, max_value=4, allow_nan=False)
factor = near_eps | st.sampled_from([1e-9, -1e-9, 2e-9, 0.5e-9]) | coeff


@settings(max_examples=500, deadline=None)
@given(a=st.lists(value, min_size=1, max_size=6), b=st.lists(value, min_size=1, max_size=6),
       f=factor)
def test_algebra_is_the_dataclass_reference_bit_for_bit(a, b, f):
    x, y = LinearForm(a[0], a[1:]), LinearForm(b[0], b[1:])
    rx, ry = _RefForm(a[0], tuple(a[1:])), _RefForm(b[0], tuple(b[1:]))
    assert _hex(x) == _hex(rx) and _hex(y) == _hex(ry)
    assert _hex(x + y) == _hex(rx + ry)
    assert _hex(x - y) == _hex(rx - ry)
    assert _hex(x.scaled(f)) == _hex(rx.scaled(f))
    # the fused step of evolve: the scaled form is stripped before the sum
    assert _hex(x.plus_scaled(y, f)) == _hex(rx + ry.scaled(f))
    assert (x == LinearForm(a[0], a[1:])) and hash(x) == hash(rx)
    assert repr(x) == repr(rx).replace("_RefForm", "LinearForm")


def test_form_fields_cannot_be_assigned():
    f = var(1, 2.0, offset=1.0)
    for name, new in (("const", 2.0), ("coeffs", ())):
        with pytest.raises(FrozenInstanceError):
            setattr(f, name, new)
        with pytest.raises(FrozenInstanceError):
            delattr(f, name)
    assert not hasattr(f, "__dict__")       # slotted
    assert (f.const, f.coeffs) == (1.0, (0.0, 2.0))


def _compare_by_forms(dtc, dtstar):
    """compare_remaining_times through a difference form and a second copy of it."""
    diff = dtstar - dtc
    k = diff.top_index()
    if k is None:
        return None
    denom = dtc.coeff(k) - dtstar.coeff(k)
    num = [dtstar.coeff(z) - dtc.coeff(z) for z in range(k)]
    bound = LinearForm((dtstar.const - dtc.const) / denom, tuple(c / denom for c in num))
    return k, _hex(bound), denom > 0


@settings(max_examples=500, deadline=None)
@given(a=st.lists(value, min_size=1, max_size=6), b=st.lists(value, min_size=1, max_size=6))
def test_comparison_is_the_form_built_one_bit_for_bit(a, b):
    x, y = LinearForm(a[0], a[1:]), LinearForm(b[0], b[1:])
    want = _compare_by_forms(x, y)
    if want is None:
        with pytest.raises(ValueError, match="parallel"):
            compare_remaining_times(x, y)
        return
    k, bound, upper = compare_remaining_times(x, y)
    assert (k, _hex(bound), upper) == want


def _domain_from(rng, n, unbounded=0.2):
    """A triangular domain of n variables whose bounds carry signed zeros and EPS-sized terms."""
    def form(k):
        cs = rng.choice([0.0, -0.0, 0.5 * EPS, -2 * EPS, 0.3, -0.4, 1.0], size=k)
        return LinearForm(float(rng.uniform(-1, 2)), tuple(float(c) for c in cs))
    domain = []
    for k in range(n):
        lower = form(k)
        upper = None if rng.random() < unbounded else lower + form(k) + 1.0
        domain.append(SymInterval(lower, upper))
    return domain


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 5))
def test_extremal_value_is_the_substitution_walk_on_random_domains(seed, n):
    rng = np.random.default_rng(seed)
    domain = _domain_from(rng, n)
    cs = rng.choice([0.0, -0.0, 0.9 * EPS, -EPS, 1.5 * EPS, 0.7, -1.3, 2.0],
                    size=int(rng.integers(0, n + 2)))
    form = LinearForm(float(rng.choice([0.0, -0.0, 1.5])), tuple(float(c) for c in cs))
    for sense in ("min", "max"):
        try:
            want = _substitution_walk(form, domain, sense).hex()
        except ValueError:
            with pytest.raises(ValueError):
                extremal_value(form, domain, sense)
            continue
        assert extremal_value(form, domain, sense).hex() == want
