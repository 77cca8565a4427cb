"""Affine forms over ordered random variables.

Everything downstream (entry times, fluid levels, clocks, domain bounds)
is affine in the values of the general-transition firings that already
happened, listed in firing order.  A form's coefficient k multiplies the
k-th expired firing.  Bounds attached to variable k may only reference
variables with index < k; that triangular shape is what makes the
extremum walk and the domain decomposition exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Optional, Sequence

import numpy as np

#: Tolerance for coefficient and bound comparisons.
EPS = 1e-9


def _strip(coeffs: Iterable[float]) -> tuple[float, ...]:
    out = [float(c) for c in coeffs]
    while out and abs(out[-1]) <= EPS:
        out.pop()
    return tuple(out)


@dataclass(frozen=True)
class RvId:
    """Identifies one firing of one general transition (0-based ordinal)."""

    transition: str
    firing: int

    def label(self) -> str:
        return f"s{self.transition}_{self.firing}"


@dataclass(frozen=True, slots=True)
class LinearForm:
    """const + sum(coeffs[k] * o[k]) with trailing ~zero coefficients stripped.

    The algebra builds its results with ``_new``, past ``__post_init__``.
    """

    const: float
    coeffs: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        _set_const(self, float(self.const))
        _set_coeffs(self, _strip(self.coeffs))

    # -- algebra ---------------------------------------------------------

    def __add__(self, other: "LinearForm | float") -> "LinearForm":
        if isinstance(other, (int, float)):
            return _stripped(self.const + other, self.coeffs)
        return _sum(self.const + other.const, self.coeffs, other.coeffs)

    def __sub__(self, other: "LinearForm | float") -> "LinearForm":
        """``self + other.scaled(-1.0)``, bit for bit: x - y is x + (-y)."""
        if isinstance(other, (int, float)):
            return _stripped(self.const - other, self.coeffs)
        return _sum(self.const - other.const, self.coeffs, [-y for y in other.coeffs])

    def scaled(self, factor: float) -> "LinearForm":
        return _new(self.const * factor, [c * factor for c in self.coeffs])

    def plus_scaled(self, other: "LinearForm", factor: float) -> "LinearForm":
        """``self + other.scaled(factor)``, bit for bit, without the scaled form."""
        b = [c * factor for c in other.coeffs]
        while b and abs(b[-1]) <= EPS:      # the strip of the scaled form
            b.pop()
        return _sum(self.const + other.const * factor, self.coeffs, b)

    def coeff(self, k: int) -> float:
        return self.coeffs[k] if k < len(self.coeffs) else 0.0

    def top_index(self) -> Optional[int]:
        """Highest variable index with a non-negligible coefficient."""
        for k in range(len(self.coeffs) - 1, -1, -1):
            if abs(self.coeffs[k]) > EPS:
                return k
        return None

    def is_constant(self) -> bool:
        return self.top_index() is None

    def substitute(self, k: int, replacement: "LinearForm") -> "LinearForm":
        """Replace o[k] by a form over lower-indexed variables."""
        if replacement.top_index() is not None and replacement.top_index() >= k:
            raise ValueError("replacement must reference lower-order variables only")
        c = self.coeff(k)
        cs = list(self.coeffs)
        if k < len(cs):
            cs[k] = 0.0
        return LinearForm(self.const, tuple(cs)) + replacement.scaled(c)

    # -- evaluation ------------------------------------------------------

    def evaluate(self, assignment: Sequence[float]) -> float:
        if len(assignment) < len(self.coeffs):
            raise ValueError(
                f"assignment of length {len(assignment)} too short for form "
                f"referencing o[{len(self.coeffs) - 1}]"
            )
        return self.const + sum(c * v for c, v in zip(self.coeffs, assignment))

    def evaluate_batch(self, samples: np.ndarray) -> np.ndarray:
        """Vectorized evaluate over a (N, n) sample matrix."""
        if not self.coeffs:
            return np.full(samples.shape[0] if samples.ndim > 1 else 1, self.const)
        k = len(self.coeffs)
        if samples.shape[1] < k:
            raise ValueError("sample matrix narrower than form")
        return self.const + samples[:, :k] @ np.asarray(self.coeffs)

    # -- formatting ------------------------------------------------------

    def text(self, names: Optional[Sequence[str]] = None) -> str:
        terms = []
        if abs(self.const) > EPS or not self.coeffs:
            terms.append(f"{self.const:g}")
        for k, c in enumerate(self.coeffs):
            if abs(c) <= EPS:
                continue
            name = names[k] if names else f"o{k}"
            if abs(c - 1.0) <= EPS:
                t = name
            elif abs(c + 1.0) <= EPS:
                t = f"-{name}"
            else:
                t = f"{c:g}*{name}"
            terms.append(t)
        out = terms[0]
        for t in terms[1:]:
            out += f" - {t[1:]}" if t.startswith("-") else f" + {t}"
        return out

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        return self.text()


_alloc = object.__new__
_set_const = LinearForm.const.__set__
_set_coeffs = LinearForm.coeffs.__set__


def _stripped(const: float, coeffs: tuple[float, ...]) -> LinearForm:
    """A form built without ``_strip``, from another form's (stripped) coefficients."""
    form = _alloc(LinearForm)
    _set_const(form, float(const))
    _set_coeffs(form, coeffs)
    return form


def _new(const: float, cs: list[float]) -> LinearForm:
    """A form of float ``const`` and a fresh list ``cs``, stripped in place as ``_strip`` does."""
    while cs and abs(cs[-1]) <= EPS:
        cs.pop()
    form = _alloc(LinearForm)
    _set_const(form, const)
    _set_coeffs(form, tuple(cs))
    return form


def _sum(const: float, a: Sequence[float], b: Sequence[float]) -> LinearForm:
    """const + a + b, the shorter coefficient list padded with 0.0."""
    cs = [x + y for x, y in zip(a, b)]
    if len(a) > len(b):
        cs += [x + 0.0 for x in a[len(b):]]
    elif len(b) > len(a):
        cs += [0.0 + y for y in b[len(a):]]
    return _new(const, cs)


def const(value: float) -> LinearForm:
    return _stripped(value, ())


def var(k: int, coeff: float = 1.0, offset: float = 0.0) -> LinearForm:
    return _new(float(offset), [0.0] * k + [float(coeff)])


ZERO = LinearForm(0.0)


@dataclass(frozen=True)
class SymInterval:
    """[lower, upper] with symbolic bounds; upper None marks +infinity."""

    lower: LinearForm
    upper: Optional[LinearForm]

    def contains(self, value: float, assignment: Sequence[float], eps: float = EPS) -> bool:
        if value < self.lower.evaluate(assignment) - eps:
            return False
        if self.upper is None:
            return True
        return value <= self.upper.evaluate(assignment) + eps

    def text(self, names: Optional[Sequence[str]] = None) -> str:
        hi = "inf" if self.upper is None else self.upper.text(names)
        return f"[{self.lower.text(names)}, {hi}]"


class ComparisonKind(Enum):
    """Outcome of comparing two remaining-time forms dtc vs dtstar."""

    EQUAL = "equal"                # identical forms: simultaneous everywhere
    UPPER_BOUND = "upper"          # dtc <= dtstar iff o[index] <= bound
    LOWER_BOUND = "lower"          # dtc <= dtstar iff o[index] >= bound
    ALWAYS_BEFORE = "always"       # parallel forms, dtc < dtstar everywhere
    NEVER_BEFORE = "never"         # parallel forms, dtc > dtstar everywhere


@dataclass(frozen=True)
class ComparisonOutcome:
    kind: ComparisonKind
    index: Optional[int] = None
    bound: Optional[LinearForm] = None


def compare_remaining_times(dtc: LinearForm, dtstar: LinearForm) -> ComparisonOutcome:
    """Solve dtc <= dtstar for the highest-order variable where they differ.

    With dtc = a0 + sum(a_k o_k) and dtstar = b0 + sum(b_k o_k), let k be the
    largest index with a_k != b_k.  Then dtc <= dtstar rewrites to a bound on
    o[k] over lower-order variables: (b0-a0)/(a_k-b_k) + sum_{z<k}
    (b_z-a_z)/(a_k-b_k) o_z, an upper bound when a_k > b_k and a lower bound
    when a_k < b_k.  Parallel forms (no such k) cannot cross: the smaller
    constant fires strictly first everywhere, or the forms are equal.
    The differences b_z - a_z (0.0 for a missing coefficient) are taken
    once: ``dtstar - dtc`` up to the sign of a zero.
    """
    a, b = dtc.coeffs, dtstar.coeffs
    num = [y - x for x, y in zip(a, b)]
    if len(a) > len(b):
        num += [0.0 - x for x in a[len(b):]]
    elif len(b) > len(a):
        num += b[len(a):]           # y - 0.0 is y
    num_const = dtstar.const - dtc.const    # diff >= 0  <=>  dtc <= dtstar
    k = len(num) - 1
    while k >= 0 and abs(num[k]) <= EPS:
        k -= 1
    if k < 0:
        if abs(num_const) <= EPS:
            return ComparisonOutcome(ComparisonKind.EQUAL)
        if num_const > 0:
            return ComparisonOutcome(ComparisonKind.ALWAYS_BEFORE)
        return ComparisonOutcome(ComparisonKind.NEVER_BEFORE)
    denom = -num[k]
    bound = _new(num_const / denom, [c / denom for c in num[:k]])
    if denom > 0:
        return ComparisonOutcome(ComparisonKind.UPPER_BOUND, k, bound)
    return ComparisonOutcome(ComparisonKind.LOWER_BOUND, k, bound)


def extremal_value(form: LinearForm, domain: Sequence[SymInterval], sense: str) -> float:
    """Exact extremum of an affine form over a triangular box domain.

    Walks variables from the highest order down, substituting the bound that
    extremizes the current coefficient.  Because each bound only references
    lower-order variables the substitution is exact, and an unbounded upper
    bound chosen with a live coefficient makes the extremum infinite.

    The walk keeps the constant and the coefficients as plain floats and
    builds no ``LinearForm``: each step does the float operations of
    ``LinearForm.substitute``, in its order and with its stripping of
    trailing coefficients within EPS, so the result is the one that
    substituting forms would give, bit for bit: only a zero coefficient's
    sign may differ, and no returned value sees it.  Raises ``ValueError``
    for an unknown ``sense``, for a chosen bound that references its own or
    a higher variable, and for a form with a live coefficient outside the
    domain (unless the extremum is infinite first).
    """
    if sense not in ("min", "max"):
        raise ValueError("sense must be 'min' or 'max'")
    want_max = sense == "max"
    value = form.const
    cs = list(form.coeffs)
    n = top = len(cs)           # cs[n:] counts as zero, as after _strip
    if len(domain) < top:
        top = len(domain)
    for k in range(top - 1, -1, -1):
        if k >= n:
            continue
        c = cs[k]
        if abs(c) <= EPS:
            continue            # only past a live coefficient outside the domain
        iv = domain[k]
        if (c > 0) == want_max:
            bound = iv.upper
            if bound is None:
                return math.inf if c > 0 else -math.inf
        else:
            bound = iv.lower
        if len(bound.coeffs) > k:
            raise ValueError("replacement must reference lower-order variables only")
        cs[k] = 0.0
        while n and abs(cs[n - 1]) <= EPS:
            n -= 1
        value = value + bound.const * c
        # Add the scaled bound's live prefix; cs[n:] counts as zero.
        scaled = [b * c for b in bound.coeffs] if bound.coeffs else ()
        m = len(scaled)
        while m and abs(scaled[m - 1]) <= EPS:
            m -= 1
        for z in range(m):
            cs[z] = cs[z] + scaled[z] if z < n else scaled[z]
        n = max(n, m)
        while n and abs(cs[n - 1]) <= EPS:
            n -= 1
    if n and any(abs(cs[z]) > EPS for z in range(n)):
        raise ValueError("form references variables outside the domain")
    return value
