"""Two-sample mean-equality tests.

Four analytic tests of H0: mu_1 = mu_2, all two-sided:

* ``classical_t``  -- equal-variance pooled t with T1+T2-2 df.
* ``welch_t``      -- unequal-variance t with Welch-Satterthwaite df.
* ``har_pooled_t`` -- serial-dependence-robust analogue of the pooled test;
  the pooled series LRV replaces the pooled variance and the reference is
  t(K1+K2).
* ``har_welch_t``  -- robust analogue of Welch's test, studentized by the
  per-group series LRVs; referenced either to N(0,1) or to a Student-t with
  a Welch-type adjusted (fractional) df that accounts for LRV heterogeneity.

Basis counts may be passed explicitly or as "auto", in which case the
data-driven selection rule picks them per group.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DegenerateSampleError, DomainError
from .lrv import TimeSeriesSample, resolve_k, series_lrv
from .statdist import DistKind, RefDistribution, two_sided_p

NORMAL = "normal"
T_ADJUSTED = "t-adjusted"


@dataclass(frozen=True)
class TestReport:
    """Outcome of one two-sample test, with all intermediate quantities."""

    name: str
    statistic: float
    reference: RefDistribution
    p_value: float
    alpha: float
    reject: bool
    detail: dict


def _validate_alpha(alpha: float) -> None:
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"alpha must lie in (0, 1), got {alpha}")


def _report(name, statistic, ref, alpha, detail) -> TestReport:
    p = two_sided_p(statistic, ref)
    return TestReport(
        name=name,
        statistic=statistic,
        reference=ref,
        p_value=p,
        alpha=alpha,
        reject=p < alpha,
        detail=detail,
    )


def _detail(y1: TimeSeriesSample, y2: TimeSeriesSample, **extra) -> dict:
    """Report detail: the group means and sizes every test shares, plus extras."""
    return {"mean1": y1.mean, "mean2": y2.mean, "T1": y1.n, "T2": y2.n, **extra}


def classical_t(
    y1: TimeSeriesSample, y2: TimeSeriesSample, alpha: float = 0.05
) -> TestReport:
    """Classical pooled two-sample t-test (equal variances, t(T1+T2-2))."""
    _validate_alpha(alpha)
    t1, t2 = y1.n, y2.n
    s1_sq, s2_sq = y1.variance(), y2.variance()
    pooled = ((t1 - 1) * s1_sq + (t2 - 1) * s2_sq) / (t1 + t2 - 2)
    if pooled <= 0.0:
        raise DegenerateSampleError("pooled variance is zero")
    stat = (y1.mean - y2.mean) / (math.sqrt(pooled) * math.sqrt(1.0 / t1 + 1.0 / t2))
    ref = RefDistribution(DistKind.STUDENT_T, df=float(t1 + t2 - 2))
    detail = _detail(y1, y2, var1=s1_sq, var2=s2_sq, df=float(t1 + t2 - 2))
    return _report("t0", stat, ref, alpha, detail)


def welch_t(
    y1: TimeSeriesSample, y2: TimeSeriesSample, alpha: float = 0.05
) -> TestReport:
    """Welch's two-sample t-test with the Welch-Satterthwaite fractional df."""
    _validate_alpha(alpha)
    t1, t2 = y1.n, y2.n
    s1_sq, s2_sq = y1.variance(), y2.variance()
    v1 = s1_sq / t1
    v2 = s2_sq / t2
    if v1 + v2 <= 0.0:
        raise DegenerateSampleError("both sample variances are zero")
    stat = (y1.mean - y2.mean) / math.sqrt(v1 + v2)
    df = (v1 + v2) ** 2 / (v1 * v1 / (t1 - 1) + v2 * v2 / (t2 - 1))
    ref = RefDistribution(DistKind.STUDENT_T, df=df)
    detail = _detail(y1, y2, var1=s1_sq, var2=s2_sq, df=df)
    return _report("t1", stat, ref, alpha, detail)


def _har_inputs(y1: TimeSeriesSample, y2: TimeSeriesSample, k1, k2):
    """Resolved basis counts and the per-group series LRVs."""
    k1 = resolve_k(y1, k1)
    k2 = resolve_k(y2, k2)
    return k1, k2, series_lrv(y1, k1).omega, series_lrv(y2, k2).omega


def har_pooled_t(
    y1: TimeSeriesSample,
    y2: TimeSeriesSample,
    k1="auto",
    k2="auto",
    alpha: float = 0.05,
) -> TestReport:
    """Robust pooled t-test: pooled series LRV, referenced to t(K1+K2)."""
    _validate_alpha(alpha)
    return _har_pooled(y1, y2, *_har_inputs(y1, y2, k1, k2), alpha)


def _har_pooled(
    y1: TimeSeriesSample, y2: TimeSeriesSample, k1: int, k2: int, om1: float, om2: float,
    alpha: float,
) -> TestReport:
    """``har_pooled_t`` on resolved basis counts and the LRVs they give."""
    pooled = (k1 * om1 + k2 * om2) / (k1 + k2)
    if pooled <= 0.0:
        raise DegenerateSampleError("pooled long-run variance is zero")
    t1, t2 = y1.n, y2.n
    stat = (y1.mean - y2.mean) / (math.sqrt(pooled) * math.sqrt(1.0 / t1 + 1.0 / t2))
    ref = RefDistribution(DistKind.STUDENT_T, df=float(k1 + k2))
    detail = _detail(y1, y2, lrv1=om1, lrv2=om2, K1=k1, K2=k2, df=float(k1 + k2))
    return _report("t0_har", stat, ref, alpha, detail)


def k_adf(
    omega1: float, omega2: float, t1: int, t2: int, k1: int, k2: int
) -> float:
    """Welch-type adjusted degrees of freedom for heterogeneous LRVs.

    With rho = T2/T1,

        K_adf = (rho^{1/2} W1 + rho^{-1/2} W2)^2
                / (rho W1^2 / K1 + rho^{-1} W2^2 / K2).

    Real-valued by construction; equals 4*K1*K2/(K1+K2) in the balanced
    case and approaches K1 when W1 dominates W2.
    """
    if omega1 <= 0.0 or omega2 <= 0.0:
        raise DomainError(
            f"long-run variances must be positive, got ({omega1}, {omega2})"
        )
    if k1 < 1 or k2 < 1:
        raise DomainError(f"basis counts must be >= 1, got ({k1}, {k2})")
    if t1 < 2 or t2 < 2:
        raise DomainError(f"sample sizes must be >= 2, got ({t1}, {t2})")
    rho = t2 / t1
    sr = math.sqrt(rho)
    num = (sr * omega1 + omega2 / sr) ** 2
    den = rho * omega1 * omega1 / k1 + omega2 * omega2 / (rho * k2)
    return num / den


def har_welch_t(
    y1: TimeSeriesSample,
    y2: TimeSeriesSample,
    k1="auto",
    k2="auto",
    alpha: float = 0.05,
    reference: str = T_ADJUSTED,
) -> TestReport:
    """Robust Welch-type test studentized by the per-group series LRVs.

    ``reference="normal"`` uses the standard normal limit; the default
    ``reference="t-adjusted"`` uses Student's t with the adjusted
    (fractional) df, which is more accurate when the LRVs differ.  That df
    needs both LRVs positive; a zero one raises ``DegenerateSampleError``.
    """
    _validate_alpha(alpha)
    if reference not in (NORMAL, T_ADJUSTED):
        raise DomainError(
            f"reference must be '{NORMAL}' or '{T_ADJUSTED}', got {reference!r}"
        )
    return _har_welch(y1, y2, *_har_inputs(y1, y2, k1, k2), alpha, reference)


def _har_welch(
    y1: TimeSeriesSample, y2: TimeSeriesSample, k1: int, k2: int, om1: float, om2: float,
    alpha: float, reference: str,
) -> TestReport:
    """``har_welch_t`` on resolved basis counts and the LRVs they give."""
    detail = _detail(y1, y2, lrv1=om1, lrv2=om2, K1=k1, K2=k2)
    t1, t2 = y1.n, y2.n
    denom_sq = om1 / t1 + om2 / t2
    if denom_sq <= 0.0:
        raise DegenerateSampleError("both long-run variances are zero")
    stat = (y1.mean - y2.mean) / math.sqrt(denom_sq)
    if reference == NORMAL:
        ref = RefDistribution(DistKind.STANDARD_NORMAL)
        name = "t1_har_norm"
    else:
        if om1 <= 0.0 or om2 <= 0.0:
            raise DegenerateSampleError("a long-run variance is zero; adjusted df undefined")
        df = k_adf(om1, om2, t1, t2, k1, k2)
        ref = RefDistribution(DistKind.STUDENT_T, df=df)
        detail["k_adf"] = df
        detail["df"] = df
        name = "t1_har"
    return _report(name, stat, ref, alpha, detail)
