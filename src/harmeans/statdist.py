"""Distribution kernels: standard normal, Student-t with real-valued degrees
of freedom, and chi-square.

The standard library supplies log-gamma (``math.lgamma``) and the normal
tail (``math.erfc``); the regularized incomplete gamma and beta functions it
lacks are written out here, so p-values and critical values need no external
stats dependency.  Degrees of freedom are real numbers throughout; they are
never rounded to integers, because the Welch-type adjusted df used by the
robust tests is fractional by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .errors import DomainError

_MACHEP = 2.220446049250313e-16
_MAX_ITER = 500


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


def _beta_contfrac(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta (Lentz's method)."""
    tiny = 1e-300
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, _MAX_ITER):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _MACHEP:
            break
    return h


def reg_inc_beta(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta I_x(a, b) for a, b > 0 and x in [0, 1].

    Uses the continued fraction with the standard symmetry switch at
    x = (a+1)/(a+b+2) so the fraction always converges quickly.
    """
    if not (a > 0.0 and b > 0.0 and math.isfinite(a + b)):
        raise DomainError(f"beta parameters must be positive and finite, got ({a}, {b})")
    if x < 0.0 or x > 1.0:
        raise DomainError(f"beta argument must lie in [0, 1], got {x}")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    ln_front = (
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * math.log(x)
        + b * math.log1p(-x)
    )
    front = math.exp(ln_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_contfrac(a, b, x) / a
    return 1.0 - front * _beta_contfrac(b, a, 1.0 - x) / b


def normal_cdf(x: float) -> float:
    """Standard normal CDF Phi(x).

    Computed from the tail P(Z > |x|), so that Phi(x) + Phi(-x) = 1 holds
    exactly in floating point.
    """
    if not math.isfinite(x):
        raise DomainError(f"normal_cdf requires finite x, got {x}")
    tail = 0.5 * math.erfc(abs(x) / math.sqrt(2.0))
    return 1.0 - tail if x > 0.0 else tail


def t_cdf(x: float, df: float) -> float:
    """CDF of Student's t with real-valued df > 0.

    Based on the incomplete-beta tail identity
    P(T > |x|) = I_{df/(df+x^2)}(df/2, 1/2) / 2, which makes
    t_cdf(x) + t_cdf(-x) = 1 exact in floating point.
    """
    if df <= 0.0 or not math.isfinite(df):
        raise DomainError(f"t_cdf requires df > 0, got {df}")
    if not math.isfinite(x):
        raise DomainError(f"t_cdf requires finite x, got {x}")
    if x == 0.0:
        return 0.5
    tail = 0.5 * reg_inc_beta(0.5 * df, 0.5, df / (df + x * x))
    return 1.0 - tail if x > 0.0 else tail


def t_quantile(p: float, df: float) -> float:
    """Quantile of Student's t: the x with t_cdf(x, df) = p.

    A bracket doubling away from 0 on p's side, then bisection of the
    monotone CDF against p itself until no float lies strictly inside the
    bracket.  A lower tail is never taken as 1 - p, which would round.
    """
    if not 0.0 < p < 1.0:
        raise DomainError(f"t_quantile requires p in (0, 1), got {p}")
    if df <= 0.0 or not math.isfinite(df):
        raise DomainError(f"t_quantile requires df > 0, got {df}")
    if p == 0.5:
        return 0.0
    upper = p > 0.5
    near, far = 0.0, 1.0 if upper else -1.0
    while (t_cdf(far, df) < p) == upper:
        if abs(far) > 1e300:
            raise DomainError(f"t_quantile failed to bracket p={p}, df={df}")
        near, far = far, 2.0 * far
    lo, hi = (near, far) if upper else (far, near)
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return mid
        if t_cdf(mid, df) < p:
            lo = mid
        else:
            hi = mid


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


def two_sided_p(statistic: float, ref: RefDistribution) -> float:
    """Two-sided p-value 2 * F(-|stat|) under the symmetric `ref`.

    Taken from the lower tail, so a large positive statistic keeps the digits
    that 1 - F(stat) would round away, and p(stat) == p(-stat) exactly.
    """
    return 2.0 * ref.cdf(-abs(statistic))
