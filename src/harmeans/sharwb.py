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
``basis``); no T-long multiplier is formed.  Critical values are empirical
quantiles of the replicate statistics.

``shar_wb_test`` takes one pair of groups or a sequence of pairs, each
with its own seed, and bootstraps them together.  The groups are taken one
at a time.  A group's pairs are bucketed by its K, and each bucket is
applied as stacked products, in sub-batches of at most
``_MAX_STACK_DOUBLES`` doubles (one pair at least).  Each pair's 2K* x B
innovations are drawn 128 rows at a time, in stream order, and each piece
is applied and freed before the next is drawn, with A formed in blocks of
128 rows by the piece's columns.  So memory holds a sub-batch's K x B
coefficients A v, one piece of draws and one block of A; for one pair,
that is one group's coefficients, one piece and one block.  Every pair
draws from its own streams, group g's from spawn key (g,) of its seed, so
its replicates do not depend on the other pairs.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from . import basis
from .errors import DegenerateReplicatesError, DegenerateSampleError, DomainError
from .lrv import LrvEstimate, TimeSeriesSample, _calling_thread_blas
from .statdist import DistKind, RefDistribution
from .ttests import TestReport, _har_welch_statistic, _validate_alpha

NORMAL_INNOVATIONS = "normal"
RADEMACHER_INNOVATIONS = "rademacher"

_MAX_CONSECUTIVE_REDRAWS = 100

# Bootstrap frequencies per block of the operator A: each block is
# 2 * _BLOCK_FREQS rows by one piece's columns, so at K* <= 64 A is one block.
_BLOCK_FREQS = 64

# Columns of A per piece: a group's (2K*, B) draws, one row per column of
# A, are taken this many rows at a time, so at K* <= 64 they are one piece.
_PIECE_COLUMNS = 128

# Most doubles of coefficients, draws, operator blocks and products held at
# once for pairs stacked on one group's K: a bucket is taken in sub-batches
# of this size.
_MAX_STACK_DOUBLES = 2**18


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


def _draw_innovations(rng: np.random.Generator, law: str, out: np.ndarray) -> None:
    """Fill ``out`` with iid innovations of the given law."""
    if law == NORMAL_INNOVATIONS:
        rng.standard_normal(out=out)
    else:
        np.multiply(rng.integers(0, 2, size=out.shape), 2.0, out=out)
        out -= 1.0


def _draws(streams, law: str):
    """``draw(g, idx)``: a function ``piece(shape)`` that returns a new array
    of that shape, (len(idx), columns, ...), whose row for pair i is the next
    stretch of the stream ``streams[i][g]``, a Generator or a SeedSequence to
    start one from.  Successive pieces continue each stream, so they hold
    the values of one draw of all their columns."""

    def draw(g, idx):
        rngs = [np.random.default_rng(streams[i][g]) for i in idx]

        def piece(shape):
            out = np.empty(shape)
            for row, rng in zip(out, rngs):
                _draw_innovations(rng, law, row)
            return out

        return piece

    return draw


def _pooled_mean(y1: TimeSeriesSample, y2: TimeSeriesSample) -> float:
    return (y1.n * y1.mean + y2.n * y2.mean) / (y1.n + y2.n)


def _group_moments(fits, draw, batch):
    """w.v and the replicate LRV over T, the mean over rows of (A v)^2, of R
    fits that share one K, for innovations v of shape (R, 2K*, *batch) that
    ``draw(shape)`` returns in pieces (see ``_draws``); both come back as
    (R, *batch).  batch is (B,), or () for one replicate each.

    v is drawn _PIECE_COLUMNS rows (columns of A) at a time, in stream
    order.  Each piece's products are added to w.v and to z = A v, the K
    coefficients per replicate, before the next piece is drawn.  Each fit's
    A, the K x 2K* operator scaled by T^{-1/2}, is formed in blocks of
    2 _BLOCK_FREQS rows by one piece's columns, and the R blocks are applied
    as one stacked product.  The LRV sums z^2 over rows at the end, in row
    order."""
    r, k, per_pair = len(fits), fits[0].k, math.prod(batch)
    spectra = [fit.sample.spectrum for fit in fits]
    w = np.empty((r, 1, 2 * k))
    for w_fit, fit in zip(w[:, 0], fits):
        w_fit[:k], w_fit[k:] = basis.cos_sin_sums(fit.sample.spectrum, k)
        w_fit /= fit.sample.n * math.sqrt(k)
    scale = np.array([math.sqrt(fit.sample.n * k) for fit in fits])[:, None, None]
    rows = min(k, 2 * _BLOCK_FREQS)
    z = np.empty((r, k, per_pair))
    # the first piece's products go straight into z; later ones are made in
    # one buffer and added (a new array per product costs more than the product)
    product = np.empty((r, rows, per_pair)) if 2 * k > _PIECE_COLUMNS else None
    for c_lo in range(0, 2 * k, _PIECE_COLUMNS):
        c_hi = min(c_lo + _PIECE_COLUMNS, 2 * k)
        v = draw((r, c_hi - c_lo, *batch)).reshape(r, c_hi - c_lo, per_pair)
        if c_lo:
            mean += np.matmul(w[:, :, c_lo:c_hi], v)
        else:
            mean = np.matmul(w[:, :, :c_hi], v)
        for lo in range(0, k, rows):
            a = basis.modulated_coefficients(spectra, k, k, (lo, lo + rows), (c_lo, c_hi))
            a /= scale
            if c_lo:
                out = product[:, : a.shape[1]]
                z[:, lo : lo + rows] += np.matmul(a, v, out=out)
            else:
                np.matmul(a, v, out=z[:, lo : lo + rows])
    z *= z
    shape = (r, *batch)
    return mean.reshape(shape), (z.sum(axis=1) / k).reshape(shape)


def _replicate_stats(pairs, draw, batch=()) -> np.ndarray:
    """Studentized replicate statistics, of shape (R, *batch), of R pairs of
    LRV fits.

    ``draw(g, idx)`` returns the function that draws group g's innovations
    for the pairs idx in pieces (see ``_draws``).  The groups are taken in
    turn; a group's pairs are bucketed by its K and taken in sub-batches of
    at most _MAX_STACK_DOUBLES doubles, so one sub-batch's coefficients,
    piece of draws and operator block are freed before the next are made.
    The products run on the calling thread.  Degenerate replicates (zero
    bootstrap LRV in both groups) come back as NaN for the caller to handle.
    """
    per_pair = math.prod(batch)
    # mean differences and LRV sums: group 1's moments, less or plus group 2's
    num = np.empty((len(pairs), *batch))
    denom_sq = np.empty_like(num)
    with _calling_thread_blas():
        for g in (0, 1):
            buckets = {}
            for i, pair in enumerate(pairs):
                buckets.setdefault(pair[g].k, []).append(i)
            for k, idx in buckets.items():
                rows, cols = min(k, 2 * _BLOCK_FREQS), min(2 * k, _PIECE_COLUMNS)
                # per pair: K coefficients, one piece and, past the first
                # piece, one block's product per replicate, and one block
                held = (k + cols + (rows if cols < 2 * k else 0)) * per_pair + rows * cols
                step = max(1, _MAX_STACK_DOUBLES // held)
                for lo in range(0, len(idx), step):
                    sub = idx[lo : lo + step]
                    mean, lrv = _group_moments([pairs[i][g] for i in sub], draw(g, sub), batch)
                    if g == 0:
                        num[sub], denom_sq[sub] = mean, lrv
                    else:
                        num[sub] -= mean
                        denom_sq[sub] += lrv
    positive = denom_sq > 0.0
    np.divide(num, np.sqrt(denom_sq, out=denom_sq), out=num, where=positive)
    num[~positive] = np.nan
    return num


def _redraw_degenerate(pair, stats: np.ndarray, seed: int, law: str) -> int:
    """Replace each NaN in one pair's replicate statistics by redrawing it
    from the pair's redraw streams, the children of spawn key (2,) of its
    seed, one replicate at a time; returns the number of redraws."""
    draw = _draws([[np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(2, g)))
                    for g in (0, 1)]], law)
    n_redrawn = 0
    for idx in np.flatnonzero(np.isnan(stats)):
        for _ in range(_MAX_CONSECUTIVE_REDRAWS):
            stats[idx] = _replicate_stats([pair], draw)[0]
            n_redrawn += 1
            if not math.isnan(stats[idx]):
                break
        else:
            raise DegenerateReplicatesError(
                f"{_MAX_CONSECUTIVE_REDRAWS} consecutive degenerate "
                f"bootstrap replicates; residuals too sparse for law={law!r}"
            )
    return n_redrawn


def _empirical_quantile(sorted_stats: np.ndarray, p: float):
    """Order-statistic quantile with index ceil(p*(B+1)), clamped to [1, B],
    along the last axis."""
    b = sorted_stats.shape[-1]
    idx = min(b, max(1, math.ceil(p * (b + 1))))
    return sorted_stats[..., idx - 1]


def shar_wb_test(
    lrv1: LrvEstimate | Sequence[LrvEstimate],
    lrv2: LrvEstimate | Sequence[LrvEstimate],
    alpha: float = 0.05,
    n_boot: int = 399,
    seed: int | Sequence[int] = 0,
    law: str = NORMAL_INNOVATIONS,
) -> tuple[TestReport, BootstrapRun] | tuple[list, list]:
    """Wild-bootstrap two-sample mean test robust to serial dependence.

    Takes each group's series LRV estimate (``series_lrv``), whose basis
    count K_j also sets the multipliers' K*_j.  The studentized statistic is
    the one ``har_welch_t`` reports, taken from the same helper without a
    reference p-value; ``n_boot`` replicate statistics with dependent
    multipliers follow, and the test rejects when the statistic falls
    outside the empirical alpha/2 and 1-alpha/2 quantiles.  The reported
    p-value is the symmetric two-tailed one, 2*min(F*(t), 1-F*(t)).  Fully
    reproducible from a non-negative ``seed``.

    One pair gives ``(report, run)`` and raises when it is degenerate.
    Sequences ``lrv1``, ``lrv2`` and ``seed``, one entry per pair, give
    ``(reports, runs)``, lists in pair order, where a degenerate pair's
    report is its message and its run is None.  Each pair's result is the
    one its own call would give.
    """
    single = isinstance(lrv1, LrvEstimate)
    pairs = [(lrv1, lrv2)] if single else list(zip(lrv1, lrv2))
    seeds = [seed] if single else list(seed)
    if not single and not len(lrv1) == len(lrv2) == len(seeds):
        raise DomainError(
            f"need one seed per pair, got {len(lrv1)} and {len(lrv2)} fits and {len(seeds)} seeds")
    if n_boot < 19:
        raise DomainError(f"need at least 19 bootstrap replicates, got {n_boot}")
    _validate_alpha(alpha)
    for s in seeds:
        if s < 0:
            raise DomainError(f"seed must be >= 0, got {s}")
    if law not in (NORMAL_INNOVATIONS, RADEMACHER_INNOVATIONS):
        raise DomainError(f"unknown innovation law {law!r}")

    # per pair: (report, run), or (the error that makes it NA, None)
    outcomes: list = [None] * len(pairs)
    live, observed = [], []
    for i, pair in enumerate(pairs):
        try:
            observed.append(_har_welch_statistic(*pair))
            live.append(i)
        except DegenerateSampleError as exc:
            outcomes[i] = (exc, None)
    streams = [[np.random.SeedSequence(seeds[i], spawn_key=(g,)) for g in (0, 1)] for i in live]
    stats = _replicate_stats([pairs[i] for i in live], _draws(streams, law), (n_boot,))
    n_redrawn = [0] * len(live)
    for j in np.flatnonzero(np.isnan(stats).any(axis=1)):
        try:
            n_redrawn[j] = _redraw_degenerate(pairs[live[j]], stats[j], seeds[live[j]], law)
        except DegenerateReplicatesError as exc:
            outcomes[live[j]] = (exc, None)

    t_obs = np.array([stat for stat, _ in observed])[:, None]
    sorted_stats = np.sort(stats, axis=1)
    crit_lo = _empirical_quantile(sorted_stats, alpha / 2.0)
    crit_hi = _empirical_quantile(sorted_stats, 1.0 - alpha / 2.0)
    ecdf_at_stat = np.count_nonzero(stats <= t_obs, axis=1) / n_boot
    p_values = 2.0 * np.minimum(ecdf_at_stat, 1.0 - ecdf_at_stat)
    stats.flags.writeable = False
    for j, i in enumerate(live):
        if outcomes[i] is not None:
            continue
        (fit1, fit2), (stat, detail) = pairs[i], observed[j]
        facts = {"k_star1": fit1.k, "k_star2": fit2.k, "crit_lo": float(crit_lo[j]),
                 "crit_hi": float(crit_hi[j]), "B": n_boot, "seed": seeds[i],
                 "n_redrawn": n_redrawn[j]}
        run = BootstrapRun(replicate_stats=stats[j], p_value=float(p_values[j]),
                           K1=fit1.k, K2=fit2.k, **facts)
        report = TestReport(
            name="t1_har_boot",
            statistic=stat,
            reference=RefDistribution(DistKind.BOOTSTRAP_EMPIRICAL),
            p_value=run.p_value,
            alpha=alpha,
            reject=stat < run.crit_lo or stat > run.crit_hi,
            detail={**detail, "mu_pooled": _pooled_mean(fit1.sample, fit2.sample), **facts},
        )
        outcomes[i] = (report, run)
    if single:
        report, run = outcomes[0]
        if run is None:
            raise report
        return report, run
    return [str(r) if run is None else r for r, run in outcomes], [run for _, run in outcomes]
