import math

import numpy as np
import pytest
from scipy.integrate import quad

from hpng.geometry import probability_over_simplex
from hpng.montecarlo import (
    FAMILIES,
    DistributionSpec,
    McConfig,
    _chi2_dof,
    _combine,
    cdf,
    mc_integrate,
    pdf,
    sample,
    stream,
    vegas_integrate,
)

DISTS = [
    DistributionSpec("uniform", (1.0, 4.0)),
    DistributionSpec("normal", (3.0, 1.5)),
    DistributionSpec("normal", (0.5, 2.0)),      # heavy truncation at zero
    DistributionSpec("normal", (30.0, 2.0)),     # a window cut on both sides of the peak
    DistributionSpec("foldedNormal", (14.0, 4.0)),
    DistributionSpec("foldedNormal", (2.0, 2.0)),
    DistributionSpec("exponential", (0.7,)),
]


@pytest.mark.parametrize("dist", DISTS, ids=lambda d: f"{d.family}{d.params}")
def test_cdf_is_integral_of_pdf(dist):
    for a, b in [(0.0, 1.0), (0.5, 3.5), (2.0, 9.0)]:
        want, err = quad(lambda x: float(pdf(dist, np.array([x]))[0]), a, b,
                         limit=200)
        got = float(cdf(dist, np.array([b]))[0] - cdf(dist, np.array([a]))[0])
        assert got == pytest.approx(want, abs=max(1e-8, 10 * err))


@pytest.mark.parametrize("dist", DISTS, ids=lambda d: f"{d.family}{d.params}")
def test_cdf_limits_and_support(dist):
    x = np.array([-1.0, 0.0, 1e6])
    c = cdf(dist, x)
    assert c[0] == 0.0
    assert c[1] == pytest.approx(0.0, abs=1e-12)
    assert c[2] == pytest.approx(1.0, abs=1e-9)
    assert pdf(dist, np.array([-0.5]))[0] == 0.0
    xs = np.linspace(0, 30, 400)
    assert np.all(np.diff(cdf(dist, xs)) >= -1e-12)


@pytest.mark.parametrize("dist", DISTS, ids=lambda d: f"{d.family}{d.params}")
def test_samples_match_cdf(dist):
    rng = stream(42, 0)
    xs = np.asarray(sample(dist, rng, 40_000), dtype=float)
    assert xs.min() >= 0.0
    for q in (0.25, 0.5, 0.9):
        emp = np.quantile(xs, q)
        assert float(cdf(dist, np.array([emp]))[0]) == pytest.approx(q, abs=0.02)


def test_dists_cover_every_family():
    assert {d.family for d in DISTS} == set(FAMILIES)


@pytest.mark.parametrize("dist", DISTS, ids=lambda d: f"{d.family}{d.params}")
def test_support_and_cuts_hold_the_mass(dist):
    # the support, and the span from its lower end to the last cut point,
    # each hold all but 1e-8 of the mass; so does the window between the
    # outer peak cuts when there is one below the peak as well
    family = FAMILIES[dist.family]
    lo, hi = family.support(*dist.params)
    cuts = family.cuts(*dist.params)
    assert all(c > lo and (hi is None or c < hi) for c in cuts)
    top = np.inf if hi is None else hi
    assert float(np.diff(cdf(dist, np.array([lo, top])))[0]) >= 1.0 - 1e-8
    last = max(cuts, default=top)
    assert float(np.diff(cdf(dist, np.array([lo, last])))[0]) >= 1.0 - 1e-8
    if len(cuts) == 3:
        assert float(np.diff(cdf(dist, np.array([cuts[0], cuts[-1]])))[0]) >= 1.0 - 1e-8


def _masked_uniform_pdf(a, b, x):
    """The uniform density through a support mask and a scatter."""
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    pos = x >= 0
    out[pos & (x >= a) & (x <= b)] = 1.0 / (b - a)
    return out


def _masked_uniform_cdf(a, b, x):
    """The uniform CDF through a support mask, a gather and a scatter."""
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    pos = x >= 0
    out[pos] = np.clip((x[pos] - a) / (b - a), 0.0, 1.0)
    return out


@pytest.mark.parametrize("a, b", [(0.0, 10.0), (6.0, 10.0), (0.0, 1e-3)])
def test_uniform_density_is_the_masked_form(a, b):
    # The mask-free uniform pdf and survival 1 - F give the masked forms'
    # bytes at signed zeros, both support ends and their neighbouring
    # floats, infinities, nan and negative values; for 0-d inputs and
    # strided column views too.
    dist = DistributionSpec("uniform", (a, b))
    ends = [v for e in (a, b) for v in (np.nextafter(e, -np.inf), e, np.nextafter(e, np.inf))]
    xs = np.array([-0.0, 0.0, *ends, np.inf, -np.inf, np.nan, -1.0, -5e-324, 0.5 * (a + b),
                   2.0 * b])
    wide = np.stack([xs, -xs, xs[::-1]], axis=1)
    inputs = [xs, wide, wide[:, 1], wide[::2, 2]] + [np.float64(x) for x in xs] + list(xs)
    for x in inputs:
        got, want = pdf(dist, x), _masked_uniform_pdf(a, b, x)
        assert isinstance(got, np.ndarray) and got.shape == want.shape
        assert got.tobytes() == want.tobytes(), x
        got, want = cdf(dist, x), _masked_uniform_cdf(a, b, x)
        assert isinstance(got, np.ndarray) and got.shape == want.shape
        assert (1.0 - got).tobytes() == (1.0 - want).tobytes(), x
        # F itself enters only as 1 - F.  Its bytes match too, except that
        # at x = -0.0 with a = 0 the sign of the zero is the one fmax or
        # clip keep, which 1 - F cannot see.
        signed = np.signbit(x) & (np.asarray(x) == 0.0) & (a == 0.0)
        assert np.array_equal(got, want, equal_nan=True)
        assert np.where(signed, 0.0, got).tobytes() == np.where(signed, 0.0, want).tobytes()


def test_stream_reproducible_and_task_independent():
    a = stream(5, 1).uniform(size=8)
    b = stream(5, 1).uniform(size=8)
    c = stream(5, 2).uniform(size=8)
    np.testing.assert_array_equal(a, b)
    assert not np.allclose(a, c)


def test_mcconfig_validation():
    with pytest.raises(ValueError):
        McConfig(samples=0)
    with pytest.raises(ValueError):
        McConfig(iterations=0)
    with pytest.raises(ValueError, match="seed"):
        McConfig(seed=-1)


def test_combine_is_inverse_variance_weighted():
    v, s = _combine([1.0, 3.0], [1.0, 1.0])
    assert v == pytest.approx(2.0)
    assert s == pytest.approx(np.sqrt(0.5))
    v, s = _combine([1.0, 3.0], [1e-6, 1.0])
    assert v == pytest.approx(1.0, abs=1e-4)


def test_combine_zero_sigma_iteration_does_not_win():
    # One iteration that hit no mass must not wipe out the others.
    v, s = _combine([0.0, 0.5, 0.52], [0.0, 0.01, 0.01])
    assert v == pytest.approx(np.mean([0.0, 0.5, 0.52]))
    assert s == pytest.approx(np.std([0.0, 0.5, 0.52], ddof=1) / np.sqrt(3))
    assert _combine([0.4, 0.4], [0.0, 0.0]) == (0.4, 0.0)


def test_iid_samplers_take_the_plain_mean_of_their_iterations():
    # The box and simplex samplers draw i.i.d. iterations of one estimator:
    # m iterations read as the plain mean of m one-iteration calls on the
    # same stream, with sigma = sqrt(sum sigma_i^2) / m.  Weighting them by
    # 1 / sigma_i^2 would favour the iterations that hit the spike least.
    def spike(pts):
        return np.where(np.all(pts < 0.2, axis=1), 25.0, 0.0) * (1.0 + pts[:, 0])

    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    # 500 points per iteration: the box sampler's samples are per
    # iteration, the simplex sampler's are split among the iterations
    samplers = ((lambda cfg, rng: mc_integrate(spike, [(0.0, 1.0)] * 2, cfg, rng), 500),
                (lambda cfg, rng: probability_over_simplex(verts, spike, cfg, rng), 2_000))
    for run, samples in samplers:
        rng = stream(3, 0)
        singles = [run(McConfig(500, 1), rng) for _ in range(4)]
        got = run(McConfig(samples, 4), stream(3, 0))
        assert len({r.sigma for r in singles}) == 4 and min(r.sigma for r in singles) > 0
        assert got.value == float(np.mean([r.value for r in singles]))
        assert got.sigma == math.sqrt(sum(r.sigma ** 2 for r in singles)) / 4
        assert got.chi2_dof == _chi2_dof([r.value for r in singles],
                                         [r.sigma for r in singles], got.value)


def test_chi2_dof_of_iterations():
    # Two iterations 2 sigma apart around their mean: chi^2 = 1 + 1, one dof.
    assert _chi2_dof([1.0, 3.0], [1.0, 1.0], 2.0) == pytest.approx(2.0)
    assert type(_chi2_dof(np.array([1.0, 3.0]), [1.0, 1.0], 2.0)) is float
    assert _chi2_dof([1.0, 1.0, 1.0], [0.5, 0.5, 0.5], 1.0) == 0.0
    assert _chi2_dof([1.0], [0.1], 1.0) is None          # no degree of freedom
    assert _chi2_dof([1.0, 2.0], [0.0, 0.1], 1.0) is None  # a zero sigma


def test_vegas_reports_chi2_dof():
    cfg = McConfig(samples=4_000, iterations=5, seed=0)
    res = vegas_integrate(lambda p: 1.0 + p[:, 0], [(0.0, 1.0)], cfg, stream(4, 0))
    assert res.chi2_dof is not None and 0.0 < res.chi2_dof < 5.0
    single = McConfig(samples=4_000, iterations=1, seed=0)
    assert vegas_integrate(lambda p: 1.0 + p[:, 0], [(0.0, 1.0)], single,
                           stream(4, 0)).chi2_dof is None


UNIT_SIMPLEX_1D = np.array([[0.0], [1.0]])


@pytest.mark.parametrize("estimator", ["plain", "vegas", "simplex"])
def test_non_finite_samples_count_as_zero(estimator):
    # f = 1 on [0, 1] with NaN above 0.75.  Every estimator counts a NaN as
    # skipped and as 0 in the mean, so all three give 0.75 with an error
    # bar; dropping the NaNs would give 1 with a sigma of 0.
    drawn = nans = 0

    def f(pts):
        nonlocal drawn, nans
        out = np.ones(len(pts))
        out[pts[:, 0] > 0.75] = np.nan
        drawn += len(out)
        nans += int(np.isnan(out).sum())
        return out

    cfg = McConfig(4_000, 3)
    if estimator == "simplex":
        res = probability_over_simplex(UNIT_SIMPLEX_1D, f, cfg, stream(0, 0))
    else:
        integrate = mc_integrate if estimator == "plain" else vegas_integrate
        res = integrate(f, [(0.0, 1.0)], cfg, stream(0, 0))
    assert res.sigma > 0.0
    assert abs(res.value - 0.75) <= 3 * res.sigma
    assert res.samples_skipped == nans > 0
    assert res.samples_used + res.samples_skipped == drawn


@pytest.mark.parametrize("iterations", [1, 2, 3])
def test_plain_and_simplex_report_chi2_dof(iterations):
    cfg = McConfig(samples=3_000, iterations=iterations, seed=0)
    f = lambda p: 1.0 + p[:, 0]
    for res in (mc_integrate(f, [(0.0, 1.0)], cfg, stream(4, 0)),
                probability_over_simplex(UNIT_SIMPLEX_1D, f, cfg, stream(4, 0))):
        if iterations == 1:
            assert res.chi2_dof is None
        else:
            assert type(res.chi2_dof) is float and 0.0 <= res.chi2_dof < 10.0


def test_mc_integrate_triangle_area():
    cfg = McConfig(samples=50_000, iterations=4, seed=0)
    box = [(0.0, 1.0), (0.0, 1.0)]

    def f(pts):
        return (pts.sum(axis=1) <= 1.0).astype(float)

    res = mc_integrate(f, box, cfg, stream(0, 0))
    assert res.value == pytest.approx(0.5, abs=5 * res.sigma)
    assert 0 < res.sigma < 0.01


def test_mc_integrate_draws_the_uniform_points():
    # The box sampler scales its draws in place, one column at a time; the
    # points are exactly those of uniform(size=...) * (hi - lo) + lo on the
    # same stream, iteration after iteration.
    cfg = McConfig(samples=10_000, iterations=2, seed=0)
    box = [(1.0, 4.0), (-2.5, 0.7), (0.3, 0.31)]
    seen = []

    def f(pts):
        seen.append(pts.copy())
        return np.ones(len(pts))

    mc_integrate(f, box, cfg, stream(4, 2))
    lo, hi = np.array(box).T
    want = stream(4, 2).uniform(size=(cfg.iterations * cfg.samples, len(box)))
    assert np.array_equal(np.vstack(seen), want * (hi - lo) + lo)


def test_vegas_beats_plain_mc_on_peaked_integrand():
    cfg = McConfig(samples=20_000, iterations=5, seed=3)
    box = [(0.0, 1.0), (0.0, 1.0)]

    def f(pts):
        d = pts - 0.3
        return np.exp(-0.5 * (d * d).sum(axis=1) / 0.01**2)

    truth = (0.01 * np.sqrt(2 * np.pi)) ** 2  # both tails well inside the box
    plain = mc_integrate(f, box, cfg, stream(1, 0))
    adaptive = vegas_integrate(f, box, cfg, stream(1, 0))
    assert adaptive.value == pytest.approx(truth, rel=0.05)
    assert adaptive.sigma < plain.sigma


def test_vegas_exact_on_constant():
    cfg = McConfig(samples=2_000, iterations=3, seed=0)
    box = [(1.0, 4.0)]
    res = vegas_integrate(lambda p: np.ones(len(p)), box, cfg, stream(2, 0))
    assert res.value == pytest.approx(3.0, abs=1e-9)


def test_integration_deterministic_for_fixed_seed():
    cfg = McConfig(samples=5_000, iterations=3, seed=9)
    box = [(0.0, 1.0)] * 3

    def f(pts):
        return pts[:, 0] * pts[:, 1] + pts[:, 2]

    r1 = vegas_integrate(f, box, cfg, stream(9, 4))
    r2 = vegas_integrate(f, box, cfg, stream(9, 4))
    assert r1.value == r2.value and r1.sigma == r2.sigma


def test_coverage_of_error_estimate():
    """+-3 sigma should cover the target in almost every repetition."""
    box = [(0.0, 1.0), (0.0, 1.0)]
    cfg = McConfig(samples=4_000, iterations=3, seed=0)

    def f(pts):
        return (pts[:, 0] ** 2 + pts[:, 1] <= 1.0).astype(float)

    truth = quad(lambda x: min(1.0, 1.0 - x * x), 0, 1)[0]
    hits = 0
    for rep in range(60):
        res = mc_integrate(f, box, cfg, stream(100, rep))
        if abs(res.value - truth) <= 3 * res.sigma:
            hits += 1
    assert hits >= 57
