"""Serially dependent wild bootstrap for the robust two-sample mean test.

Instead of resampling blocks, the bootstrap perturbs each group's residuals
with external multipliers eta that are serially dependent by construction:

    eta_t = K*^{-1/2} sum_{l=1}^{K*} [cos(2 pi l t/T) v_{1l}
                                      + sin(2 pi l t/T) v_{2l}],

with 2K* iid mean-zero unit-variance innovations v.  Using the cosine/sine
pair makes Var(eta_t) = 1 exactly for every t, while
Cov(eta_t, eta_s) = K*^{-1} sum_l cos(2 pi l (t-s)/T) decays with the lag,
so bootstrap samples inherit the dependence of the data.

Both groups' bootstrap samples are generated around the pooled mean
(T1 Ybar1 + T2 Ybar2)/(T1 + T2), which imposes the null of equal means, and
each bootstrap replicate is studentized with the same per-group basis
counts K1, K2 as the original statistic.  The common location cancels from
that statistic, and so does demeaning, since every LRV basis function sums
to zero on the grid.  So per group a replicate needs only mean(u*eta) = w.v
and the K LRV coefficients A v of u*eta, with the 2K* innovations v stacked
as the cosine block, then the sine block.  w and the K x 2K* matrix A are
read off one transform of the residuals, the sample's ``spectrum`` (see
``basis``), once per test; no T-long multiplier is formed.  Critical values
are empirical quantiles of the replicate statistics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import basis
from .errors import DegenerateReplicatesError, DomainError
from .lrv import TimeSeriesSample, _calling_thread_blas
from .statdist import DistKind, RefDistribution
from .ttests import NORMAL, TestReport, har_welch_t

NORMAL_INNOVATIONS = "normal"
RADEMACHER_INNOVATIONS = "rademacher"

_MAX_CONSECUTIVE_REDRAWS = 100


@dataclass(frozen=True, eq=False)
class EtaDraw:
    """One draw of the dependent multiplier vector."""

    values: np.ndarray
    k_star: int
    law: str


@dataclass(frozen=True, eq=False)
class BootstrapRun:
    """Replicate statistics and the decision quantities built from them."""

    replicate_stats: np.ndarray
    crit_lo: float
    crit_hi: float
    p_value: float
    B: int
    seed: int
    k_star1: int
    k_star2: int
    K1: int
    K2: int
    n_redrawn: int = 0


def _check_k_star(n: int, k_star: int) -> None:
    if not 1 <= k_star <= n // 2:
        raise DomainError(
            f"k_star must lie in [1, {n // 2}] for T={n}, got {k_star}"
        )


def _draw_innovations(rng: np.random.Generator, shape, law: str) -> np.ndarray:
    if law == NORMAL_INNOVATIONS:
        return rng.standard_normal(shape)
    if law == RADEMACHER_INNOVATIONS:
        return rng.integers(0, 2, size=shape).astype(np.float64) * 2.0 - 1.0
    raise DomainError(f"unknown innovation law {law!r}")


def gen_eta(
    n: int, k_star: int, rng: np.random.Generator, law: str = NORMAL_INNOVATIONS
) -> EtaDraw:
    """Draw one dependent multiplier vector of length n."""
    _check_k_star(n, k_star)
    v = _draw_innovations(rng, (2, k_star), law)
    values = basis.cos_sin_series(n, v[0], v[1]) / math.sqrt(k_star)
    return EtaDraw(values=values, k_star=k_star, law=law)


def eta_autocov(n: int, k_star: int, lag: int) -> float:
    """Design covariance Cov(eta_t, eta_{t-lag}): the closed cosine sum."""
    _check_k_star(n, k_star)
    ells = np.arange(1, k_star + 1, dtype=np.float64)
    return float(np.mean(np.cos(2.0 * np.pi * ells * lag / n)))


def bootstrap_lrv_closed_form(residuals, k_star: int) -> float:
    """Exact conditional variance of n^{-1/2} sum_t u_t eta_t given the data.

    Equals K*^{-1} sum_l (c_l^2 + s_l^2), where c_l and s_l are the scaled
    cosine and sine sums of the residuals, Re U(l)/sqrt(n) and
    -Im U(l)/sqrt(n); nonnegative by construction.  The O(T^2) double sum
    over the multiplier covariances collapses to these K* frequencies of
    one transform.
    """
    u = np.asarray(residuals, dtype=np.float64)
    if u.ndim != 1 or u.size < 2:
        raise DomainError("residuals must be a vector of length >= 2")
    _check_k_star(u.size, k_star)
    cos_sums, sin_sums = basis.cos_sin_sums(basis.dft(u), k_star)
    return float(np.sum(cos_sums * cos_sums + sin_sums * sin_sums) / u.size / k_star)


def _pooled_mean(y1: TimeSeriesSample, y2: TimeSeriesSample) -> float:
    return (y1.n * y1.mean + y2.n * y2.mean) / (y1.n + y2.n)


def _operator(sample: TimeSeriesSample, k: int, k_star: int):
    """The group's (w, A), with A scaled by T^{-1/2} so that the replicate's
    LRV over T is the mean of (A v)^2."""
    cos_sums, sin_sums = basis.cos_sin_sums(sample.spectrum, k_star)
    w = np.concatenate([cos_sums, sin_sums]) / (sample.n * math.sqrt(k_star))
    a = basis.modulated_coefficients(sample.spectrum, k, k_star)
    a /= math.sqrt(sample.n * k_star)
    return w, a


def _replicate_stats(op1, op2, v1: np.ndarray, v2: np.ndarray) -> np.ndarray:
    """Studentized replicate statistics for innovation draws.

    v_j has shape (2, K*_j) for a single replicate or (2, K*_j, B) for a
    batch.  Per group the kernel is two products on the calling thread,
    z = A v and w.v, and the replicate LRV is the column mean of z^2 (the
    add-reduce and divide ``np.mean`` would run).  Degenerate replicates
    (zero bootstrap LRV in both groups) come back as NaN for the caller to
    handle; only then does the kernel mask the division.
    """
    means = []
    omegas = []
    with _calling_thread_blas():
        for (w, a), v in ((op1, v1), (op2, v2)):
            v = v.reshape(w.size, *v.shape[2:])
            z = a.dot(v)
            means.append(w.dot(v))
            omegas.append((z * z).sum(axis=0) / z.shape[0])
    denom_sq = omegas[0] + omegas[1]
    if np.all(denom_sq > 0.0):
        return (means[0] - means[1]) / np.sqrt(denom_sq)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(denom_sq > 0.0, (means[0] - means[1]) / np.sqrt(denom_sq), np.nan)


def _empirical_quantile(sorted_stats: np.ndarray, p: float) -> float:
    """Order-statistic quantile with index ceil(p*(B+1)), clamped to [1, B]."""
    b = sorted_stats.size
    idx = min(b, max(1, math.ceil(p * (b + 1))))
    return float(sorted_stats[idx - 1])


def shar_wb_test(
    y1: TimeSeriesSample,
    y2: TimeSeriesSample,
    alpha: float = 0.05,
    n_boot: int = 399,
    seed: int = 0,
    k1="auto",
    k2="auto",
    law: str = NORMAL_INNOVATIONS,
) -> tuple[TestReport, BootstrapRun]:
    """Wild-bootstrap two-sample mean test robust to serial dependence.

    Selects K_j (data-driven unless given), takes the studentized statistic
    and its LRVs from ``har_welch_t``, generates ``n_boot`` replicate
    statistics with dependent multipliers (K*_j = K_j), and rejects when the
    statistic falls outside the empirical alpha/2 and 1-alpha/2 quantiles.
    The reported p-value is the symmetric two-tailed one,
    2*min(F*(t), 1-F*(t)).  Fully reproducible from ``seed``.
    """
    if n_boot < 19:
        raise DomainError(f"need at least 19 bootstrap replicates, got {n_boot}")
    observed = har_welch_t(y1, y2, k1, k2, alpha, reference=NORMAL)
    stat = observed.statistic
    k1, k2 = observed.detail["K1"], observed.detail["K2"]
    k_star1, k_star2 = k1, k2

    master = np.random.SeedSequence(seed)
    ss_g1, ss_g2, ss_redraw = master.spawn(3)
    rng1 = np.random.default_rng(ss_g1)
    rng2 = np.random.default_rng(ss_g2)

    op1 = _operator(y1, k1, k_star1)
    op2 = _operator(y2, k2, k_star2)
    stats = _replicate_stats(
        op1,
        op2,
        _draw_innovations(rng1, (2, k_star1, n_boot), law),
        _draw_innovations(rng2, (2, k_star2, n_boot), law),
    )

    n_redrawn = 0
    degenerate = np.flatnonzero(np.isnan(stats))
    if degenerate.size:
        ss_r1, ss_r2 = ss_redraw.spawn(2)
        rng_r1 = np.random.default_rng(ss_r1)
        rng_r2 = np.random.default_rng(ss_r2)
        for idx in degenerate:
            for attempt in range(_MAX_CONSECUTIVE_REDRAWS + 1):
                if attempt == _MAX_CONSECUTIVE_REDRAWS:
                    raise DegenerateReplicatesError(
                        f"{_MAX_CONSECUTIVE_REDRAWS} consecutive degenerate "
                        "bootstrap replicates; residuals too sparse for "
                        f"law={law!r}"
                    )
                v1 = _draw_innovations(rng_r1, (2, k_star1), law)
                v2 = _draw_innovations(rng_r2, (2, k_star2), law)
                value = float(_replicate_stats(op1, op2, v1, v2))
                n_redrawn += 1
                if not math.isnan(value):
                    stats[idx] = value
                    break

    sorted_stats = np.sort(stats)
    crit_lo = _empirical_quantile(sorted_stats, alpha / 2.0)
    crit_hi = _empirical_quantile(sorted_stats, 1.0 - alpha / 2.0)
    reject = stat < crit_lo or stat > crit_hi
    ecdf_at_stat = float(np.count_nonzero(stats <= stat)) / n_boot
    p_value = 2.0 * min(ecdf_at_stat, 1.0 - ecdf_at_stat)

    stats.flags.writeable = False
    run = BootstrapRun(
        replicate_stats=stats,
        crit_lo=crit_lo,
        crit_hi=crit_hi,
        p_value=p_value,
        B=n_boot,
        seed=seed,
        k_star1=k_star1,
        k_star2=k_star2,
        K1=k1,
        K2=k2,
        n_redrawn=n_redrawn,
    )
    report = TestReport(
        name="t1_har_boot",
        statistic=stat,
        reference=RefDistribution(DistKind.BOOTSTRAP_EMPIRICAL),
        p_value=p_value,
        alpha=alpha,
        reject=reject,
        detail={
            **observed.detail,
            "mu_pooled": _pooled_mean(y1, y2),
            "k_star1": k_star1,
            "k_star2": k_star2,
            "crit_lo": crit_lo,
            "crit_hi": crit_hi,
            "B": n_boot,
            "seed": seed,
            "n_redrawn": n_redrawn,
        },
    )
    return report, run
