"""Monte Carlo integration and firing-time distributions.

One Monte Carlo estimator, ``_iterations``, behind three samplers: a
plain one and a VEGAS-style one over an axis-aligned box here, and one
over a simplex in ``geometry``.  A sampler only draws an iteration's
values; the estimator counts a non-finite value as skipped and as 0 in the
mean, and takes sigma^2 = V^2/N^2 * sum (f_i - <f>)^2 per iteration.  The
i.i.d. samplers take their iterations' plain mean, VEGAS an inverse-variance
one; each reports their chi^2 / dof.  The samplers draw into buffers that
every iteration of a call reuses, and the plain one calls the integrand on row blocks of at most
``MC_BLOCK``.  Streams are counter-based (numpy Philox keyed through
SeedSequence), so task k of seed s always sees the same numbers no matter
how many workers run.

Each firing-delay family is one entry of ``FAMILIES``.  The normal ones
import ``scipy.special`` when they run; uniform and exponential load none.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

_SQRT2PI = math.sqrt(2.0 * math.pi)
#: Bins per axis of the VEGAS grid.
GRID_BINS = 64


# ---------------------------------------------------------------------------
# distributions

#: Half-width, in standard deviations, of the window cut around the peak
#: of a normal or folded normal density (about 1e-9 of the mass outside).
PEAK_SIGMAS = 6.0
#: Means after which an exponential density is cut (e**-21: about 1e-9).
EXP_MEANS = 21.0


class Family(NamedTuple):
    """One firing-delay family: everything that depends on which it is."""

    names: tuple[str, ...]          # the parameters' keys in the file, in params order
    holds: Callable[..., bool]      # the rule the parameters meet,
    rule: str                       # and its wording
    pdf: Callable[..., np.ndarray]  # pdf(x, *params), and so cdf
    cdf: Callable[..., np.ndarray]
    sample: Callable                # sample(rng, size, *params)
    support: Callable               # (lo, hi) where the density lives; hi None: unbounded
    cuts: Callable                  # where its mass concentrates: PEAK_SIGMAS, EXP_MEANS


def _on_support(f):
    """``f`` on the entries x >= 0, and 0 elsewhere (nan included)."""
    def masked(x, *params):
        out = np.zeros_like(x)
        pos = x >= 0
        out[pos] = f(x[pos], *params)
        return out
    return masked


def _uniform_cdf(x, a, b):
    # (x - a) / (b - a) clamped to [0, 1] in one buffer; fmax sends nan to
    # 0, as the support test x >= 0 does
    out = np.subtract(x, a, out=np.empty_like(x))
    out /= b - a
    np.fmax(out, 0.0, out=out)
    return np.fmin(out, 1.0, out=out)


def _ndtr(z):
    """The standard normal CDF; the normal families alone load scipy for it."""
    from scipy.special import ndtr

    return ndtr(z)


def _gauss(z):
    return np.exp(-0.5 * z * z)


def _normal_cdf(x, mu, sg):
    base = _ndtr(-mu / sg)
    return (_ndtr((x - mu) / sg) - base) / (1.0 - base)


def _normal_sample(rng, size, mu, sg):
    # Inverse-CDF through the truncation so no rejection loop is needed.
    from scipy.special import ndtri

    base = _ndtr(-mu / sg)
    u = rng.uniform(0.0, 1.0, size)
    return mu + sg * ndtri(base + u * (1.0 - base))


def _unbounded(*params):
    return 0.0, None


def _peak_window(peak, sg):
    return tuple(p for p in (peak - PEAK_SIGMAS * sg, peak, peak + PEAK_SIGMAS * sg)
                 if p > 0.0)


#: The normal families' parameter names, rule and its wording.
_MU_SIGMA = (("mu", "sigma"), lambda mu, sg: sg > 0, "(mu, sigma) with sigma > 0")

#: The delay families by their name in the model file.  Only this table
#: says what a family name means; everything else looks its family up here.
FAMILIES = {
    "uniform": Family(
        ("a", "b"), lambda a, b: 0 <= a < b, "0 <= a < b",
        # 0 <= a, so x >= a implies x >= 0
        lambda x, a, b: np.where((x >= a) & (x <= b), 1.0 / (b - a), 0.0),
        _uniform_cdf,
        lambda rng, size, a, b: rng.uniform(a, b, size),
        lambda a, b: (a, b),
        lambda a, b: ()),
    # truncated at 0 and renormalized, so the support really is [0, inf)
    "normal": Family(
        *_MU_SIGMA,
        _on_support(lambda x, mu, sg:
                    _gauss((x - mu) / sg) / (sg * _SQRT2PI) / (1.0 - _ndtr(-mu / sg))),
        _on_support(_normal_cdf), _normal_sample, _unbounded, _peak_window),
    "foldedNormal": Family(
        *_MU_SIGMA,
        _on_support(lambda x, mu, sg:
                    (_gauss((x - mu) / sg) + _gauss((x + mu) / sg)) / (sg * _SQRT2PI)),
        _on_support(lambda x, mu, sg: _ndtr((x - mu) / sg) - _ndtr((-x - mu) / sg)),
        lambda rng, size, mu, sg: np.abs(rng.normal(mu, sg, size)),
        _unbounded, lambda mu, sg: _peak_window(abs(mu), sg)),
    "exponential": Family(
        ("rate",), lambda lam: lam > 0, "rate > 0",
        _on_support(lambda x, lam: lam * np.exp(-lam * x)),
        _on_support(lambda x, lam: 1.0 - np.exp(-lam * x)),
        lambda rng, size, lam: rng.exponential(1.0 / lam, size),
        _unbounded, lambda lam: (EXP_MEANS / lam,)),
}


@dataclass(frozen=True)
class DistributionSpec:
    family: str  # a key of FAMILIES
    params: tuple[float, ...]

    def __post_init__(self):
        fam, p = FAMILIES.get(self.family), self.params
        if fam is None or len(p) != len(fam.names) or not all(map(math.isfinite, p)) \
                or not fam.holds(*p):
            from .model import ModelError   # model imports this module

            raise ModelError(f"{self.family} needs {fam.rule}, got {p}" if fam
                             else f"unknown distribution family {self.family!r}")


def pdf(dist: DistributionSpec, x: np.ndarray) -> np.ndarray:
    """Density of a firing-time distribution; zero for x < 0 by support."""
    return FAMILIES[dist.family].pdf(np.asarray(x, dtype=float), *dist.params)


def cdf(dist: DistributionSpec, x: np.ndarray) -> np.ndarray:
    return FAMILIES[dist.family].cdf(np.asarray(x, dtype=float), *dist.params)


def sample(dist: DistributionSpec, rng: np.random.Generator, size=None) -> np.ndarray | float:
    return FAMILIES[dist.family].sample(rng, size, *dist.params)


# ---------------------------------------------------------------------------
# configuration and streams

@dataclass(frozen=True)
class McConfig:
    samples: int = 100_000
    iterations: int = 5
    seed: int = 0

    def __post_init__(self):
        if self.samples < 2 or self.iterations < 1:
            raise ValueError("McConfig out of range")
        if self.seed < 0:       # SeedSequence takes no negative entropy
            raise ValueError(f"seed must be >= 0, not {self.seed}")


def stream(seed: int, task: int = 0) -> np.random.Generator:
    """Reproducible counter-based generator for (seed, task)."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, task))))


@dataclass
class McResult:
    value: float
    sigma: float
    samples_used: int
    samples_skipped: int = 0
    # chi^2 per degree of freedom of the iterations around their combined
    # value; None when it is undefined (see ``_chi2_dof``).
    chi2_dof: Optional[float] = None


def _combine(values: list[float], sigmas: list[float]) -> tuple[float, float]:
    """Inverse-variance combination of per-iteration estimates (VEGAS).

    Iterations count as exact only when every one has sigma 0.  A zero
    sigma next to non-zero ones (an iteration whose samples all missed the
    mass, say) would take all the weight, so then the plain mean of every
    iteration is returned with the standard error of that mean.
    """
    if all(s <= 0.0 for s in sigmas):
        return float(np.mean(values)), 0.0
    if any(s <= 0.0 for s in sigmas):
        v = np.asarray(values, dtype=float)
        return float(v.mean()), float(v.std(ddof=1) / math.sqrt(len(v)))
    w = np.array([1.0 / s**2 for s in sigmas])
    return float(np.dot(w, values) / w.sum()), float(1.0 / math.sqrt(w.sum()))


def _chi2_dof(values: list[float], sigmas: list[float], mean: float) -> Optional[float]:
    """chi^2 / dof of per-iteration estimates around their combined value.

    chi^2 = sum (I_i - I)^2 / sigma_i^2 over m iterations, with m - 1
    degrees of freedom (Lepage, J. Comput. Phys. 27, 1978).  Consistent
    iterations give about 1; well above 1 means the iterations disagree by
    more than their sigmas allow, so the combined sigma understates the
    error.  None with fewer than two iterations or a zero sigma.
    """
    if len(values) < 2 or any(s <= 0.0 for s in sigmas):
        return None
    chi2 = sum((v - mean) ** 2 / (s * s) for v, s in zip(values, sigmas))
    return float(chi2 / (len(values) - 1))


def _iterations(step: Callable[[], np.ndarray], iterations: int, vol: float,
                size: int) -> tuple[list[float], list[float], int]:
    """Per-iteration estimates, sigmas and skipped count over volume ``vol``.

    Each of the iterations calls ``step`` for ``size`` values whose mean,
    times ``vol``, estimates the integral.  A non-finite value counts as
    skipped and as 0 in the mean; it is zeroed in ``step``'s array in
    place, so ``step`` returns an array the estimator may overwrite.  An
    iteration estimates vol * mean with sigma^2 = vol^2/N^2 * sum
    (f_i - mean)^2.
    """
    dev, ok = np.empty(size), np.empty(size, dtype=bool)
    scale = vol * vol / (size * size)
    vals, sigmas, skipped = [], [], 0
    for _ in range(iterations):
        fx = step()
        bad = size - int(np.count_nonzero(np.isfinite(fx, out=ok)))
        if bad:
            skipped += bad
            fx[~ok] = 0.0
        mean = fx.mean()
        vals.append(vol * mean)
        np.subtract(fx, mean, out=dev)
        sigmas.append(math.sqrt(scale * float(np.square(dev, out=dev).sum())))
    return vals, sigmas, skipped


def _estimate(step: Callable[[], np.ndarray], iterations: int, vol: float,
              size: int) -> McResult:
    """The plain mean of i.i.d. ``_iterations`` of equal size, with
    sigma = sqrt(sum sigma_i^2) / m and their ``_chi2_dof``.

    Weighting them by 1 / sigma_i^2 is biased where few samples hit the
    mass: an iteration that reads low also reads a small sigma.
    """
    vals, sigmas, skipped = _iterations(step, iterations, vol, size)
    value = float(np.mean(vals))
    sigma = math.sqrt(sum(s * s for s in sigmas)) / iterations
    return McResult(value, sigma, iterations * size - skipped, skipped,
                    _chi2_dof(vals, sigmas, value))


# ---------------------------------------------------------------------------
# plain Monte Carlo

#: Most sample rows ``mc_integrate`` passes to the integrand in one call.
#: Smaller blocks pay the integrand's per-call numpy overhead more often;
#: larger ones make temporaries that are mapped and unmapped every call.
MC_BLOCK = 8192


def _scale_columns(x: np.ndarray, width: np.ndarray, lo: np.ndarray) -> None:
    """``x * width + lo`` in place, one column at a time.

    Broadcasting over the rows would run numpy's inner loop over only the
    few columns of each row; a column loop runs it over every row.  The
    floats are the same.
    """
    for j in range(x.shape[1]):
        col = x[:, j]
        col *= width[j]
        col += lo[j]


def mc_integrate(
    f: Callable[[np.ndarray], np.ndarray],
    box: Sequence[tuple[float, float]],
    cfg: McConfig,
    rng: Optional[np.random.Generator] = None,
) -> McResult:
    """Estimate the integral of f over an axis-aligned box.

    f maps an (N, n) sample matrix to N values; non-finite values count as
    skipped and as 0 (``_estimate``).  Every iteration draws its points
    into one buffer that all iterations reuse, and f sees them in row
    blocks of at most ``MC_BLOCK`` rows, as equal as they come, so f must
    act on each row alone.
    """
    lo = np.array([b[0] for b in box], dtype=float)
    hi = np.array([b[1] for b in box], dtype=float)
    width = hi - lo
    vol = float(np.prod(width)) if len(box) else 1.0
    if vol <= 0.0:
        return McResult(0.0, 0.0, 0)
    rng = rng if rng is not None else stream(cfg.seed)

    x = np.empty((cfg.samples, len(box)))
    fx = np.empty(cfg.samples)
    # Equal blocks leave no one-row tail: numpy computes a one-row x @ c
    # as a vector dot, which rounds differently from the other rows.
    blocks = -(-cfg.samples // MC_BLOCK)
    edges = [k * cfg.samples // blocks for k in range(blocks + 1)]

    def step() -> np.ndarray:
        # the same stream and arithmetic as uniform(size=...) * (hi - lo) + lo
        rng.random(out=x)
        _scale_columns(x, width, lo)
        for start, stop in zip(edges, edges[1:]):
            fx[start:stop] = f(x[start:stop])
        return fx

    return _estimate(step, cfg.iterations, vol, cfg.samples)


# ---------------------------------------------------------------------------
# VEGAS

class _Grid:
    """Per-axis adaptive grid mapping [0,1) onto the box via ``GRID_BINS`` bin edges."""

    def __init__(self, dim: int):
        self.edges = np.tile(np.linspace(0.0, 1.0, GRID_BINS + 1), (dim, 1))

    def transform(self, u: np.ndarray, x: np.ndarray, jac: np.ndarray, idx: np.ndarray,
                  tmp: np.ndarray) -> None:
        """Map uniform u (n, dim) in [0,1) to grid points x01 in ``x``.

        Fills ``jac`` (n,) with the Jacobian and ``idx`` (dim, n) with each
        axis's bin index, one contiguous row per axis; ``tmp`` (2, n) is
        scratch.
        """
        jac.fill(1.0)
        scaled, width = tmp
        for d in range(u.shape[1]):
            bins, edges = idx[d], self.edges[d]
            np.multiply(u[:, d], GRID_BINS, out=scaled)
            np.copyto(bins, scaled, casting="unsafe")     # truncates, as astype(int)
            np.minimum(bins, GRID_BINS - 1, out=bins)
            frac = np.subtract(scaled, bins, out=scaled)
            left = np.take(edges, bins, out=x[:, d])
            np.take(edges[1:], bins, out=width)
            width -= left
            frac *= width
            left += frac                                   # left + frac * width
            width *= GRID_BINS
            jac *= width

    def refine(self, weight: np.ndarray) -> None:
        """Move edges so accumulated |f| mass spreads evenly across bins."""
        for d in range(weight.shape[0]):
            w = weight[d].copy()
            if w.sum() <= 0:
                continue
            # Smooth, then damp, the per-bin importance before re-slicing.
            sm = np.empty_like(w)
            sm[0] = (7 * w[0] + w[1]) / 8
            sm[-1] = (w[-2] + 7 * w[-1]) / 8
            sm[1:-1] = (w[:-2] + 6 * w[1:-1] + w[2:]) / 8
            sm /= sm.sum()
            nz = sm > 0
            d_imp = np.zeros_like(sm)
            d_imp[nz] = sm[nz] ** 0.75
            d_imp /= d_imp.sum()
            cum = np.concatenate(([0.0], np.cumsum(d_imp)))
            targets = np.linspace(0.0, 1.0, GRID_BINS + 1)
            old = self.edges[d]
            new = np.interp(targets, cum, old)
            new[0], new[-1] = 0.0, 1.0
            self.edges[d] = new


def vegas_integrate(
    f: Callable[[np.ndarray], np.ndarray],
    box: Sequence[tuple[float, float]],
    cfg: McConfig,
    rng: Optional[np.random.Generator] = None,
) -> McResult:
    """VEGAS-style importance sampling over the box.

    Separable per-axis grids of ``GRID_BINS`` bins are refined between
    iterations toward equal |f| mass per bin; the iterations adapt, and
    ``_combine``'s inverse-variance weighting keeps early badly-adapted
    ones from dominating.
    """
    lo = np.array([b[0] for b in box], dtype=float)
    hi = np.array([b[1] for b in box], dtype=float)
    span = hi - lo
    vol = float(np.prod(span)) if len(box) else 1.0
    if vol <= 0.0:
        return McResult(0.0, 0.0, 0)
    rng = rng if rng is not None else stream(cfg.seed)
    dim = len(box)
    grid = _Grid(dim)

    n = cfg.samples
    u, x = np.empty((n, dim)), np.empty((n, dim))
    jac, contrib, idx = np.empty(n), np.empty(n), np.empty((dim, n), dtype=np.intp)
    scratch = np.empty((2, n))
    imp = np.empty((dim, GRID_BINS))

    def draws():
        while True:
            rng.random(out=u)               # the same stream as uniform(size=(n, dim))
            grid.transform(u, x, jac, idx, scratch)
            _scale_columns(x, span, lo)
            # importance-weighted integrand on [0,1)^dim
            yield np.multiply(np.asarray(f(x), dtype=float), jac, out=contrib)
            # Resumed by the next iteration, after ``_iterations`` zeroed the
            # non-finite values: mean |f|*jac per bin and axis drives
            # refinement.  A mean, not a sum, so the random number of
            # samples landing in a bin does not bend the grid: a constant
            # integrand keeps its uniform grid.
            w = np.abs(contrib, out=scratch[0])
            for d in range(dim):
                sums = np.bincount(idx[d], weights=w, minlength=GRID_BINS)
                counts = np.bincount(idx[d], minlength=GRID_BINS)
                imp[d] = sums / np.maximum(counts, 1)
            grid.refine(imp)

    vals, sigmas, skipped = _iterations(draws().__next__, cfg.iterations, vol, n)
    value, sigma = _combine(vals, sigmas)
    return McResult(value, sigma, cfg.iterations * n - skipped, skipped,
                    _chi2_dof(vals, sigmas, value))
