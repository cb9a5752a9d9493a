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

The robust tests take each group's ``LrvEstimate`` from ``series_lrv``,
which carries the sample, its basis count K and its LRV, so a group is
fitted once however many tests read it.

Each test takes one pair and gives a ``TestReport``, or sequences with one
entry per pair and gives ``TestColumns``: the pairs' statistics and dfs as
arrays, each entry the one a call on its own pair would give.
``take_p_values`` adds the p-values and decisions of several tests' columns
with one ``two_sided_p`` call per reference distribution.  A one-pair
report is built from the columns of a one-pair sequence, so both forms take
the same operations.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import DegenerateSampleError, DomainError
from .lrv import LrvEstimate, TimeSeriesSample
from .statdist import DistKind, RefDistribution, _pow, _result, two_sided_p

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


def _native(value):
    """A numpy scalar as the Python number it holds; anything else as is."""
    return value.item() if isinstance(value, np.generic) else value


@dataclass(frozen=True, eq=False)
class TestColumns:
    """One test on a sequence of pairs: one entry per pair in each array.

    ``na`` maps each pair where the test is degenerate to its message; that
    pair's statistic, df and p-value are NaN and its ``reject`` is False.
    ``detail`` maps each key of a report's detail to an array or list of
    per-pair values.  ``report(i)`` is pair i's ``TestReport``, once the
    p-values are taken."""

    name: str
    kind: DistKind
    statistic: np.ndarray
    df: np.ndarray | None  # Student-t dfs; None for other references
    p_value: np.ndarray | None  # None until taken (see take_p_values)
    alpha: float
    reject: np.ndarray | None
    na: dict
    detail: dict

    def report(self, i: int) -> TestReport:
        """Pair i's report; raises DegenerateSampleError when it is NA."""
        if i in self.na:
            raise DegenerateSampleError(self.na[i])
        if self.p_value is None:
            raise DomainError(f"{self.name}: p-values not taken; see take_p_values")
        df = None if self.df is None else self.df[i].item()
        return TestReport(
            name=self.name,
            statistic=self.statistic[i].item(),
            reference=RefDistribution(self.kind, df=df),
            p_value=self.p_value[i].item(),
            alpha=self.alpha,
            reject=bool(self.reject[i]),
            detail={key: _native(values[i]) for key, values in self.detail.items()},
        )


def _validate_alpha(alpha: float) -> None:
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"alpha must lie in (0, 1), got {alpha}")


def _unit_scale(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """a and b over the power of two that brings the larger into [0.5, 1).
    The division is exact, so a scale-free ratio of their squares keeps its
    bytes, and the squares can neither overflow nor underflow to zero."""
    exp = np.frexp(np.maximum(a, b))[1]
    return np.ldexp(a, -exp), np.ldexp(b, -exp)


def _na(*conditions) -> dict:
    """pair index -> message, from (mask, message) conditions in order of
    precedence."""
    na = {}
    for mask, message in conditions:
        for i in np.flatnonzero(mask).tolist():
            na.setdefault(i, message)
    return na


def _columns(name, stat, df, alpha, na, detail, single: bool):
    """The test's result: its columns without p-values, NaN where a pair
    is NA, referred to Student's t with the per-pair df or, when df is
    None, to N(0, 1); or, when one pair was given, pair 0's report."""
    ok = np.ones(len(stat), dtype=bool)
    ok[list(na)] = False
    columns = TestColumns(
        name=name, kind=DistKind.STANDARD_NORMAL if df is None else DistKind.STUDENT_T,
        statistic=np.where(ok, stat, np.nan), df=None if df is None else np.where(ok, df, np.nan),
        p_value=None, alpha=alpha, reject=None, na=na, detail=detail,
    )
    return take_p_values([columns])[0].report(0) if single else columns


def take_p_values(tests: list) -> list:
    """The ``TestColumns`` of several analytic tests with their two-sided
    p-values and decisions, taken by one ``two_sided_p`` call per reference
    kind on all their pairs: Student's t with each pair's df, and N(0, 1).
    Each p-value is the one a call of its own would give."""
    out = list(tests)
    for kind in (DistKind.STUDENT_T, DistKind.STANDARD_NORMAL):
        group = [i for i, columns in enumerate(tests) if columns.kind is kind]
        if not group:
            continue
        stats = np.concatenate([tests[i].statistic for i in group])
        ok = ~np.isnan(stats)  # NA pairs have NaN statistics
        p = np.full(stats.shape, np.nan)
        ref = (RefDistribution(kind) if kind is DistKind.STANDARD_NORMAL
               else np.concatenate([tests[i].df for i in group])[ok])
        p[ok] = two_sided_p(stats[ok], ref)
        ends = np.cumsum([len(tests[i].statistic) for i in group])
        for i, part in zip(group, np.split(p, ends[:-1])):
            out[i] = replace(tests[i], p_value=part, reject=part < tests[i].alpha)
    return out


def _groups(y1, y2):
    """Whether one pair was given, and the pairs' two groups as sequences."""
    single = isinstance(y1, (TimeSeriesSample, LrvEstimate))
    return single, ([y1], [y2]) if single else (y1, y2)


def _sample_detail(y1s, y2s) -> dict:
    """The group means and sizes every test's detail shares, per pair."""
    return {
        "mean1": np.array([y.mean for y in y1s]),
        "mean2": np.array([y.mean for y in y2s]),
        "T1": np.array([y.n for y in y1s]),
        "T2": np.array([y.n for y in y2s]),
    }


def _variances(y1s, y2s) -> tuple[np.ndarray, np.ndarray]:
    return np.array([y.variance() for y in y1s]), np.array([y.variance() for y in y2s])


def _fit_detail(fits1, fits2) -> dict:
    """The shared detail, the LRVs and the basis counts of pairs of fits."""
    return {
        **_sample_detail([f.sample for f in fits1], [f.sample for f in fits2]),
        "lrv1": np.array([f.omega for f in fits1]),
        "lrv2": np.array([f.omega for f in fits2]),
        "K1": np.array([f.k for f in fits1]),
        "K2": np.array([f.k for f in fits2]),
    }


def classical_t(y1, y2, alpha: float = 0.05):
    """Classical pooled two-sample t-test (equal variances, t(T1+T2-2)).

    One pair of samples gives a ``TestReport`` and raises
    ``DegenerateSampleError`` when the pair is degenerate; sequences, one
    sample per pair, give ``TestColumns`` without p-values, which
    ``take_p_values`` takes for several tests at once."""
    _validate_alpha(alpha)
    single, (y1s, y2s) = _groups(y1, y2)
    detail = _sample_detail(y1s, y2s)
    t1, t2 = detail["T1"], detail["T2"]
    s1_sq, s2_sq = _variances(y1s, y2s)
    with np.errstate(divide="ignore", invalid="ignore"):
        pooled = ((t1 - 1) * s1_sq + (t2 - 1) * s2_sq) / (t1 + t2 - 2)
        stat = (detail["mean1"] - detail["mean2"]) / (np.sqrt(pooled) * np.sqrt(1.0 / t1 + 1.0 / t2))
    df = (t1 + t2 - 2).astype(np.float64)
    detail.update(var1=s1_sq, var2=s2_sq, df=df)
    return _columns("t0", stat, df, alpha, _na((pooled <= 0.0, "pooled variance is zero")), detail,
                    single)


def welch_t(y1, y2, alpha: float = 0.05):
    """Welch's two-sample t-test with the Welch-Satterthwaite fractional df.

    Takes one pair or sequences, as ``classical_t`` does."""
    _validate_alpha(alpha)
    single, (y1s, y2s) = _groups(y1, y2)
    detail = _sample_detail(y1s, y2s)
    t1, t2 = detail["T1"], detail["T2"]
    s1_sq, s2_sq = _variances(y1s, y2s)
    v1 = s1_sq / t1
    v2 = s2_sq / t2
    na = _na((v1 + v2 <= 0.0, "both sample variances are zero"))
    with np.errstate(divide="ignore", invalid="ignore"):
        stat = (detail["mean1"] - detail["mean2"]) / np.sqrt(v1 + v2)
        v1, v2 = _unit_scale(v1, v2)
        df = _pow(v1 + v2, 2) / (v1 * v1 / (t1 - 1) + v2 * v2 / (t2 - 1))
    detail.update(var1=s1_sq, var2=s2_sq, df=df)
    return _columns("t1", stat, df, alpha, na, detail, single)


def har_pooled_t(lrv1, lrv2, alpha: float = 0.05):
    """Robust pooled t-test: pooled series LRV, referenced to t(K1+K2).

    Takes one pair of LRV fits or sequences, as ``classical_t`` takes
    samples."""
    _validate_alpha(alpha)
    single, (fits1, fits2) = _groups(lrv1, lrv2)
    detail = _fit_detail(fits1, fits2)
    k1, k2, t1, t2 = detail["K1"], detail["K2"], detail["T1"], detail["T2"]
    with np.errstate(divide="ignore", invalid="ignore"):
        pooled = (k1 * detail["lrv1"] + k2 * detail["lrv2"]) / (k1 + k2)
        stat = (detail["mean1"] - detail["mean2"]) / (np.sqrt(pooled) * np.sqrt(1.0 / t1 + 1.0 / t2))
    df = (k1 + k2).astype(np.float64)
    detail["df"] = df
    return _columns("t0_har", stat, df, alpha, _na((pooled <= 0.0, "pooled long-run variance is zero")),
                    detail, single)


def k_adf(omega1, omega2, t1, t2, k1, k2):
    """Welch-type adjusted degrees of freedom for heterogeneous LRVs.

    With rho = T2/T1,

        K_adf = (rho^{1/2} W1 + rho^{-1/2} W2)^2
                / (rho W1^2 / K1 + rho^{-1} W2^2 / K2).

    Real-valued by construction; equals 4*K1*K2/(K1+K2) in the balanced
    case and approaches K1 when W1 dominates W2.  Per element of arrays (a
    float for scalar arguments).
    """
    omega1, omega2, t1, t2, k1, k2 = np.broadcast_arrays(omega1, omega2, t1, t2, k1, k2)
    if np.any(omega1 <= 0.0) or np.any(omega2 <= 0.0):
        raise DomainError(
            f"long-run variances must be positive, got ({omega1}, {omega2})"
        )
    if np.any(k1 < 1) or np.any(k2 < 1):
        raise DomainError(f"basis counts must be >= 1, got ({k1}, {k2})")
    if np.any(t1 < 2) or np.any(t2 < 2):
        raise DomainError(f"sample sizes must be >= 2, got ({t1}, {t2})")
    omega1, omega2 = _unit_scale(omega1, omega2)
    rho = t2 / t1
    sr = np.sqrt(rho)
    num = _pow(sr * omega1 + omega2 / sr, 2)
    den = rho * omega1 * omega1 / k1 + omega2 * omega2 / (rho * k2)
    return _result(num / den)


def _har_welch_statistic(lrv1, lrv2) -> tuple[np.ndarray, dict, dict]:
    """The robust Welch statistic of sequences of fit pairs, studentized by
    the per-group series LRVs, with its NA pairs and report detail;
    ``har_welch_t`` and the bootstrap both use it."""
    detail = _fit_detail(lrv1, lrv2)
    with np.errstate(divide="ignore", invalid="ignore"):
        denom_sq = detail["lrv1"] / detail["T1"] + detail["lrv2"] / detail["T2"]
        stat = (detail["mean1"] - detail["mean2"]) / np.sqrt(denom_sq)
    return stat, _na((denom_sq <= 0.0, "both long-run variances are zero")), detail


def har_welch_t(lrv1, lrv2, alpha: float = 0.05, reference: str = T_ADJUSTED):
    """Robust Welch-type test studentized by the per-group series LRVs.

    ``reference="normal"`` uses the standard normal limit; the default
    ``reference="t-adjusted"`` uses Student's t with the adjusted
    (fractional) df, which is more accurate when the LRVs differ.  That df
    needs both LRVs positive; a zero one makes the pair degenerate.  Takes
    one pair of LRV fits or sequences, as ``har_pooled_t`` does.
    """
    _validate_alpha(alpha)
    if reference not in (NORMAL, T_ADJUSTED):
        raise DomainError(
            f"reference must be '{NORMAL}' or '{T_ADJUSTED}', got {reference!r}"
        )
    single, (fits1, fits2) = _groups(lrv1, lrv2)
    stat, na, detail = _har_welch_statistic(fits1, fits2)
    if reference == NORMAL:
        return _columns("t1_har_norm", stat, None, alpha, na, detail, single)
    positive = np.minimum(detail["lrv1"], detail["lrv2"]) > 0.0
    na = {**_na((~positive, "a long-run variance is zero; adjusted df undefined")), **na}
    df = np.full(len(stat), np.nan)
    df[positive] = k_adf(*(detail[key][positive] for key in ("lrv1", "lrv2", "T1", "T2", "K1", "K2")))
    detail.update(k_adf=df, df=df)
    return _columns("t1_har", stat, df, alpha, na, detail, single)
