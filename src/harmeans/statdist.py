"""Distribution kernels: standard normal, Student-t with real-valued degrees
of freedom, and chi-square.

The standard library supplies log-gamma (``math.lgamma``) and the normal
tail (``math.erfc``); the regularized incomplete gamma and beta functions it
lacks are written out here, so p-values and critical values need no external
stats dependency.  Degrees of freedom are real numbers throughout; they are
never rounded to integers, because the Welch-type adjusted df used by the
robust tests is fractional by construction.

The normal and Student-t kernels take floats or arrays, elementwise; the
incomplete beta's continued fraction runs over arrays, so the p-values of
many statistics are one call, each with the bytes of a call on its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DomainError

_MACHEP = 2.220446049250313e-16
_MAX_ITER = 500
# iterations of the incomplete beta's continued fraction formed at once
_STEPS = 16


def _gamma_p_series(a: float, x: float) -> float:
    """Series for P(a, x), x <= a+1, before the factor x^a e^-x / Gamma(a)."""
    ap = a
    term = 1.0 / a
    total = term
    for _ in range(_MAX_ITER):
        ap += 1.0
        term *= x / ap
        total += term
        if abs(term) < abs(total) * _MACHEP:
            break
    return total


def _gamma_q_contfrac(a: float, x: float) -> float:
    """Lentz's fraction for Q(a, x), x > a+1, before the factor x^a e^-x / Gamma(a)."""
    tiny = 1e-300
    b = x + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, _MAX_ITER):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _MACHEP:
            break
    return h


def reg_gamma_upper(a: float, x: float) -> float:
    """Regularized upper incomplete gamma Q(a, x) = 1 - P(a, x)."""
    if a <= 0.0 or not math.isfinite(a):
        raise DomainError(f"shape must be positive and finite, got {a}")
    if x < 0.0:
        raise DomainError(f"argument must be nonnegative, got {x}")
    if x == 0.0:
        return 1.0
    front = math.exp(-x + a * math.log(x) - math.lgamma(a))
    if x < a + 1.0:
        return 1.0 - _gamma_p_series(a, x) * front
    return _gamma_q_contfrac(a, x) * front


def _each(fn, values: np.ndarray) -> np.ndarray:
    """fn, a ``math`` function, on each element of a 1-D float array; numpy's
    own log and exp may round differently from the C library."""
    return np.fromiter(map(fn, values.tolist()), np.float64, values.size)


def _pow(values, exponent: float) -> np.ndarray:
    """values ** exponent per element as the C library's pow rounds it,
    which may differ in the last bit from numpy's power; 0-d for a scalar."""
    values = np.asarray(values, dtype=np.float64)
    return _each(lambda v: v**exponent, values.ravel()).reshape(values.shape)


def _result(values: np.ndarray):
    """A float for a 0-d result, the array otherwise."""
    return float(values) if values.ndim == 0 else values


def _beta_contfrac(a: np.ndarray, b: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Continued fraction for the incomplete beta (Lentz's method), per
    element of 1-D float arrays.

    Each element takes the operations of a lone element's fraction in the
    same order, and its value is set aside at its own convergence.  An
    element that has converged is carried on, unread, until half the
    carried elements have, and then dropped.  The fraction's coefficients
    are formed for _STEPS iterations at a time.
    Lentz's guard sets a d or c of magnitude below ``tiny`` to tiny; each is
    1 + y or 1 - y for a double y, which is 0 or at least 2^-53 in
    magnitude, so only zeros are replaced."""
    tiny = 1e-300
    out = np.empty(a.shape)
    if not a.size:
        return out
    pending = np.arange(a.size)
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    dc = np.empty((2, a.size))  # Lentz's d and c
    dc[0] = 1.0 - qab * x / qap
    dc[1] = 1.0
    dc[dc == 0.0] = tiny
    d, c = dc
    np.divide(1.0, d, out=d)
    h = d.copy()
    t = np.empty(a.shape)
    live = np.ones(a.shape, dtype=bool)  # carried elements not yet converged
    for m_lo in range(1, _MAX_ITER, _STEPS):
        m = np.arange(m_lo, min(m_lo + _STEPS, _MAX_ITER), dtype=np.float64)[:, None]
        m2 = 2.0 * m
        even = m * (b - m) * x / ((qam + m2) * (a + m2))
        odd = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        for step in range(len(m)):
            for aa in (even[step], odd[step]):
                np.multiply(aa, d, out=d)
                np.divide(aa, c, out=c)
                dc += 1.0
                if np.count_nonzero(dc) < dc.size:
                    dc[dc == 0.0] = tiny
                np.divide(1.0, d, out=d)
                h *= np.multiply(d, c, out=t)
            # t holds the last factor, delta
            t -= 1.0
            done = np.abs(t, out=t) < _MACHEP
            done &= live
            if np.count_nonzero(done):
                out[pending[done]] = h[done]
                live ^= done
                n_live = np.count_nonzero(live)
                if not n_live:
                    return out
                if 2 * n_live <= live.size:
                    pending, a, b, x, qab, qap, qam, h, t = (
                        v[live] for v in (pending, a, b, x, qab, qap, qam, h, t))
                    dc, even, odd = dc[:, live], even[:, live], odd[:, live]
                    d, c = dc
                    live = np.ones(n_live, dtype=bool)
    out[pending[live]] = h[live]
    return out


def reg_inc_beta(a, b, x):
    """Regularized incomplete beta I_x(a, b) for a, b > 0 and x in [0, 1],
    per element of the broadcast arguments (a float for float arguments).

    Uses the continued fraction with the standard symmetry switch at
    x = (a+1)/(a+b+2) so the fraction always converges quickly.  All
    elements share one fraction over arrays; ``lgamma``, ``log``,
    ``log1p`` and ``exp`` are the C library's, taken per element.
    """
    a, b, x = np.broadcast_arrays(*(np.asarray(v, dtype=np.float64) for v in (a, b, x)))
    if not (np.all(a > 0.0) and np.all(b > 0.0) and np.all(np.isfinite(a + b))):
        raise DomainError(f"beta parameters must be positive and finite, got ({a}, {b})")
    if np.any(x < 0.0) or np.any(x > 1.0):
        raise DomainError(f"beta argument must lie in [0, 1], got {x}")
    out = np.where(x == 0.0, 0.0, 1.0)
    inner = (x != 0.0) & (x != 1.0)
    a, b, x = a[inner], b[inner], x[inner]
    ln_front = (
        _each(math.lgamma, a + b)
        - _each(math.lgamma, a)
        - _each(math.lgamma, b)
        + a * _each(math.log, x)
        + b * _each(math.log1p, -x)
    )
    front = _each(math.exp, ln_front)
    swap = ~(x < (a + 1.0) / (a + b + 2.0))
    first = np.where(swap, b, a)
    with np.errstate(all="ignore"):  # as float arithmetic: elements carried past convergence
        fraction = front * _beta_contfrac(first, np.where(swap, a, b), np.where(swap, 1.0 - x, x))
    out[inner] = np.where(swap, 1.0 - fraction / first, fraction / first)
    return _result(out)


def normal_cdf(x):
    """Standard normal CDF Phi(x), per element (a float for a float x).

    Computed from the tail P(Z > |x|), so that Phi(x) + Phi(-x) = 1 holds
    exactly in floating point.
    """
    x = np.asarray(x, dtype=np.float64)
    if not np.all(np.isfinite(x)):
        raise DomainError(f"normal_cdf requires finite x, got {x}")
    tail = 0.5 * _each(math.erfc, np.abs(x).ravel() / math.sqrt(2.0)).reshape(x.shape)
    return _result(np.where(x > 0.0, 1.0 - tail, tail))


def t_cdf(x, df):
    """CDF of Student's t with real-valued df > 0, per element of the
    broadcast arguments (a float for float arguments).

    Based on the incomplete-beta tail identity
    P(T > |x|) = I_{df/(df+x^2)}(df/2, 1/2) / 2, which makes
    t_cdf(x) + t_cdf(-x) = 1 exact in floating point.
    """
    x, df = np.broadcast_arrays(np.asarray(x, dtype=np.float64), np.asarray(df, dtype=np.float64))
    if np.any(df <= 0.0) or not np.all(np.isfinite(df)):
        raise DomainError(f"t_cdf requires df > 0, got {df}")
    if not np.all(np.isfinite(x)):
        raise DomainError(f"t_cdf requires finite x, got {x}")
    tail = 0.5 * np.asarray(reg_inc_beta(0.5 * df, 0.5, df / (df + x * x)))
    return _result(np.where(x > 0.0, 1.0 - tail, tail))


# Levels of the bisection tree whose midpoints t_quantile evaluates at once,
# and the powers of two its bracket search evaluates at once.
_TREE_DEPTH = 6
_BRACKET_POWERS = 16


def t_quantile(p: float, df: float) -> float:
    """Quantile of Student's t: the x with t_cdf(x, df) = p.

    A bracket doubling away from 0 on p's side, then bisection of the
    monotone CDF against p itself until no float lies strictly inside the
    bracket.  A lower tail is never taken as 1 - p, which would round.
    The CDF is evaluated _BRACKET_POWERS doublings, or every midpoint of
    _TREE_DEPTH bisection steps, at a time; the steps then read off the
    same values, and so end where one step at a time would.
    """
    if not 0.0 < p < 1.0:
        raise DomainError(f"t_quantile requires p in (0, 1), got {p}")
    if df <= 0.0 or not math.isfinite(df):
        raise DomainError(f"t_quantile requires df > 0, got {df}")
    if p == 0.5:
        return 0.0
    upper = p > 0.5
    lo, hi = _bracket(p, df, upper)
    while True:
        mids = _midpoint_tree(lo, hi)
        below = (t_cdf(mids, df) < p).tolist()
        mids = mids.tolist()
        node = 0  # heap order: node n's children are 2n + 1 (lower) and 2n + 2
        for _ in range(_TREE_DEPTH):
            mid = mids[node]
            if not lo < mid < hi:
                return mid
            if below[node]:
                lo, node = mid, 2 * node + 2
            else:
                hi, node = mid, 2 * node + 1


def _bracket(p: float, df: float, upper: bool) -> tuple[float, float]:
    """The bracket of p's quantile that doubling from +-1 finds: the first
    power of two on p's side whose CDF is past p, and the one before (or
    0).  Raises once a power beyond 1e300 is not past p."""
    sign = 1.0 if upper else -1.0
    last = math.ceil(math.log2(1e300))  # the first power beyond 1e300
    for first in range(0, last + 1, _BRACKET_POWERS):
        fars = sign * np.ldexp(1.0, np.arange(first, min(first + _BRACKET_POWERS, last + 1)))
        past = np.flatnonzero((t_cdf(fars, df) < p) != upper)
        if past.size:
            j = first + past[0].item()
            near, far = (sign * 2.0 ** (j - 1) if j else 0.0), sign * 2.0**j
            return (near, far) if upper else (far, near)
    raise DomainError(f"t_quantile failed to bracket p={p}, df={df}")


def _midpoint_tree(lo: float, hi: float) -> np.ndarray:
    """The midpoints of _TREE_DEPTH levels of bisection of (lo, hi), in
    heap order, each taken as 0.5 * (lo + hi) of its own interval."""
    los, his = np.array([lo]), np.array([hi])
    levels = []
    for _ in range(_TREE_DEPTH):
        mids = 0.5 * (los + his)
        levels.append(mids)
        los, his = np.stack([los, mids], 1).ravel(), np.stack([mids, his], 1).ravel()
    return np.concatenate(levels)


def chisq_sf(x: float, df: float) -> float:
    """Chi-square survival function P(X > x) for df > 0, x >= 0."""
    if df <= 0.0 or not math.isfinite(df):
        raise DomainError(f"chisq_sf requires finite df > 0, got {df}")
    if x < 0.0 or not math.isfinite(x):
        raise DomainError(f"chisq_sf requires finite x >= 0, got {x}")
    return reg_gamma_upper(0.5 * df, 0.5 * x)


class DistKind(Enum):
    STANDARD_NORMAL = "standard_normal"
    STUDENT_T = "student_t"
    BOOTSTRAP_EMPIRICAL = "bootstrap_empirical"


@dataclass(frozen=True)
class RefDistribution:
    """Reference distribution a test statistic is compared against."""

    kind: DistKind
    df: float | None = None

    def __post_init__(self) -> None:
        if self.kind is DistKind.STUDENT_T:
            if self.df is None or not math.isfinite(self.df) or self.df <= 0.0:
                raise DomainError(
                    f"{self.kind.value} requires df > 0, got {self.df}"
                )
        elif self.df is not None:
            raise DomainError(f"{self.kind.value} does not take a df")

    def cdf(self, x: float) -> float:
        if self.kind is DistKind.STANDARD_NORMAL:
            return normal_cdf(x)
        if self.kind is DistKind.STUDENT_T:
            return t_cdf(x, self.df)
        raise DomainError("bootstrap reference has no analytic CDF")


def two_sided_p(statistic, ref):
    """Two-sided p-value 2 * F(-|stat|) under the symmetric `ref`: a
    ``RefDistribution``, or for an array of statistics, an array of Student-t
    dfs, one per statistic.

    Taken from the lower tail, so a large positive statistic keeps the digits
    that 1 - F(stat) would round away, and p(stat) == p(-stat) exactly.
    """
    lower = -np.abs(statistic)
    if isinstance(ref, RefDistribution):
        return 2.0 * ref.cdf(lower)
    return 2.0 * t_cdf(lower, ref)
