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
``basis``); no T-long multiplier is formed.  The groups are taken one at a
time, and A is formed in blocks of 128 rows, so memory holds one group's
draws and one block of its A.  Critical values are empirical quantiles of
the replicate statistics.
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

# Bootstrap frequencies per block of the operator A: each block is
# 2 * _BLOCK_FREQS rows by 2K* columns, so at K* <= 64 A is one block.
_BLOCK_FREQS = 64


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


def _group_moments(lrv: LrvEstimate, v: np.ndarray):
    """One group's w.v and replicate LRV over T, the column mean of (A v)^2,
    for innovations v of shape (2, K*, B), or (2, K*) for one replicate.

    A, the K x 2K* operator scaled by T^{-1/2}, is formed _BLOCK_FREQS
    frequencies (twice as many rows) at a time.  A buffer's leading row holds
    the sums of the blocks before, so with B >= 2 the column sums add the
    rows in the order of one sum over all of (A v)^2."""
    sample, k = lrv.sample, lrv.k
    v = v.reshape(2 * k, *v.shape[2:])
    cos_sums, sin_sums = basis.cos_sin_sums(sample.spectrum, k)
    w = np.concatenate([cos_sums, sin_sums]) / (sample.n * math.sqrt(k))
    rows = min(k, 2 * _BLOCK_FREQS)
    buf = np.empty((1 + rows, *v.shape[1:]))
    mean = w.dot(v)
    for lo in range(0, k, rows):
        a = basis.modulated_coefficients(sample.spectrum, k, k, lo, lo + rows)
        a /= math.sqrt(sample.n * k)
        z = buf[1 : 1 + a.shape[0]]
        np.dot(a, v, out=z)
        z *= z
        # the first block has no running sum to add to
        buf[0] = buf[0 if lo else 1 : 1 + a.shape[0]].sum(axis=0)
    return mean, buf[0] / k


def _replicate_stats(fits, draw) -> np.ndarray:
    """Studentized replicate statistics of the two groups' LRV fits.

    ``draw(g)`` returns group g's innovations.  The groups are taken in
    turn, so one group's draws and operator block are freed before the
    next group's are made; the products run on the calling thread.
    Degenerate replicates (zero bootstrap LRV in both groups) come back as
    NaN for the caller to handle.
    """
    with _calling_thread_blas():
        (m1, o1), (m2, o2) = [_group_moments(fit, draw(g)) for g, fit in enumerate(fits)]
    num, denom_sq = m1 - m2, o1 + o2
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

    fits = (lrv1, lrv2)
    *ss_groups, ss_redraw = np.random.SeedSequence(seed).spawn(3)

    def draws(seqs, *batch):
        rngs = [np.random.default_rng(ss) for ss in seqs]
        return lambda g: _draw_innovations(rngs[g], (2, fits[g].k, *batch), law)

    stats = _replicate_stats(fits, draws(ss_groups, n_boot))

    n_redrawn = 0
    degenerate = np.flatnonzero(np.isnan(stats))
    if degenerate.size:
        redraw = draws(ss_redraw.spawn(2))
        for idx in degenerate:
            for _ in range(_MAX_CONSECUTIVE_REDRAWS):
                stats[idx] = _replicate_stats(fits, redraw)
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
