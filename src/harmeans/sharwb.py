"""Serially dependent wild bootstrap for the robust two-sample mean test.

Instead of resampling blocks, the bootstrap perturbs each group's residuals
with external multipliers eta that are serially dependent by construction:

    eta_t = K*^{-1/2} sum_{l=1}^{K*} [cos(2 pi l t/T) v_{1l}
                                      + sin(2 pi l t/T) v_{2l}],

with 2K* iid mean-zero unit-variance innovations v.  Using the cosine/sine
pair makes Var(eta_t) = 1 exactly for every t, while
Cov(eta_t, eta_s) = K*^{-1} sum_l cos(2 pi l (t-s)/T) decays with the lag,
so bootstrap samples inherit the dependence of the data.

The observed statistic is the robust Welch statistic of ``t1_har_norm`` and
``t1_har``, studentized by the same per-group series LRVs (one helper in
``ttests`` computes it for all three); only the critical values differ.
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
from .lrv import LrvEstimate, TimeSeriesSample, _calling_thread_blas
from .statdist import DistKind, RefDistribution
from .ttests import TestReport, _har_welch_statistic, _validate_alpha

NORMAL_INNOVATIONS = "normal"
RADEMACHER_INNOVATIONS = "rademacher"

_MAX_CONSECUTIVE_REDRAWS = 100


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


def _draw_innovations(rng: np.random.Generator, shape, law: str) -> np.ndarray:
    if law == NORMAL_INNOVATIONS:
        return rng.standard_normal(shape)
    if law == RADEMACHER_INNOVATIONS:
        return rng.integers(0, 2, size=shape).astype(np.float64) * 2.0 - 1.0
    raise DomainError(f"unknown innovation law {law!r}")


def _pooled_mean(y1: TimeSeriesSample, y2: TimeSeriesSample) -> float:
    return (y1.n * y1.mean + y2.n * y2.mean) / (y1.n + y2.n)


def _operator(lrv: LrvEstimate):
    """The group's (w, A) for K* = K multiplier pairs, with A scaled by
    T^{-1/2} so that the replicate's LRV over T is the mean of (A v)^2."""
    sample, k = lrv.sample, lrv.k
    cos_sums, sin_sums = basis.cos_sin_sums(sample.spectrum, k)
    w = np.concatenate([cos_sums, sin_sums]) / (sample.n * math.sqrt(k))
    a = basis.modulated_coefficients(sample.spectrum, k, k)
    a /= math.sqrt(sample.n * k)
    return w, a


def _replicate_stats(op1, op2, v1: np.ndarray, v2: np.ndarray) -> np.ndarray:
    """Studentized replicate statistics for innovation draws.

    v_j has shape (2, K*_j) for a single replicate or (2, K*_j, B) for a
    batch.  Per group the kernel is two products on the calling thread,
    z = A v and w.v, and the replicate LRV is the column mean of z^2 (the
    add-reduce and divide ``np.mean`` would run).  Degenerate replicates
    (zero bootstrap LRV in both groups) come back as NaN for the caller to
    handle.
    """
    means = []
    omegas = []
    with _calling_thread_blas():
        for (w, a), v in ((op1, v1), (op2, v2)):
            v = v.reshape(w.size, *v.shape[2:])
            z = a.dot(v)
            means.append(w.dot(v))
            omegas.append((z * z).sum(axis=0) / z.shape[0])
    num, denom_sq = means[0] - means[1], omegas[0] + omegas[1]
    return np.divide(num, np.sqrt(denom_sq), out=np.full_like(num, np.nan), where=denom_sq > 0.0)


def _empirical_quantile(sorted_stats: np.ndarray, p: float) -> float:
    """Order-statistic quantile with index ceil(p*(B+1)), clamped to [1, B]."""
    b = sorted_stats.size
    idx = min(b, max(1, math.ceil(p * (b + 1))))
    return float(sorted_stats[idx - 1])


def shar_wb_test(
    lrv1: LrvEstimate,
    lrv2: LrvEstimate,
    alpha: float = 0.05,
    n_boot: int = 399,
    seed: int = 0,
    law: str = NORMAL_INNOVATIONS,
) -> tuple[TestReport, BootstrapRun]:
    """Wild-bootstrap two-sample mean test robust to serial dependence.

    Takes each group's series LRV estimate (``series_lrv``), whose basis
    count K_j also sets the multipliers' K*_j.  The studentized statistic is
    the one ``har_welch_t`` reports, taken from the same helper without a
    reference p-value; ``n_boot`` replicate statistics with dependent
    multipliers follow, and the test rejects when the statistic falls
    outside the empirical alpha/2 and 1-alpha/2 quantiles.  The reported
    p-value is the symmetric two-tailed one, 2*min(F*(t), 1-F*(t)).  Fully
    reproducible from a non-negative ``seed``.
    """
    if n_boot < 19:
        raise DomainError(f"need at least 19 bootstrap replicates, got {n_boot}")
    _validate_alpha(alpha)
    if seed < 0:
        raise DomainError(f"seed must be >= 0, got {seed}")
    stat, detail = _har_welch_statistic(lrv1, lrv2)
    k1, k2 = lrv1.k, lrv2.k

    ss_g1, ss_g2, ss_redraw = np.random.SeedSequence(seed).spawn(3)
    op1, op2 = _operator(lrv1), _operator(lrv2)
    stats = _replicate_stats(
        op1, op2,
        _draw_innovations(np.random.default_rng(ss_g1), (2, k1, n_boot), law),
        _draw_innovations(np.random.default_rng(ss_g2), (2, k2, n_boot), law),
    )

    n_redrawn = 0
    degenerate = np.flatnonzero(np.isnan(stats))
    if degenerate.size:
        rng_r1, rng_r2 = map(np.random.default_rng, ss_redraw.spawn(2))
        for idx in degenerate:
            for _ in range(_MAX_CONSECUTIVE_REDRAWS):
                v1 = _draw_innovations(rng_r1, (2, k1), law)
                v2 = _draw_innovations(rng_r2, (2, k2), law)
                stats[idx] = _replicate_stats(op1, op2, v1, v2)
                n_redrawn += 1
                if not math.isnan(stats[idx]):
                    break
            else:
                raise DegenerateReplicatesError(
                    f"{_MAX_CONSECUTIVE_REDRAWS} consecutive degenerate "
                    f"bootstrap replicates; residuals too sparse for law={law!r}"
                )

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
        k_star1=k1,
        k_star2=k2,
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
            **detail,
            "mu_pooled": _pooled_mean(lrv1.sample, lrv2.sample),
            "k_star1": k1,
            "k_star2": k2,
            "crit_lo": crit_lo,
            "crit_hi": crit_hi,
            "B": n_boot,
            "seed": seed,
            "n_redrawn": n_redrawn,
        },
    )
    return report, run
