"""Monte Carlo laboratory for size and power of the two-sample tests.

Data are AR(1) with unit-variance innovations,

    Y_t = mu + sigma * w_t,   w_t = rho * w_{t-1} + sqrt(1 - rho^2) * v_t,

with a stationary start (w_0 is one unit-variance innovation draw), so the
marginal variance of sigma * w_t is sigma^2 for every t.  Innovations are
standard normal or standardized chi-square(1) for a skewed alternative.

``evaluate`` runs all six tests (classical, Welch, robust pooled, robust
Welch under normal and adjusted-t references, and the wild bootstrap) on
one sample pair, or on a sequence of pairs at once; it is shared with
``harmeans test``.  ``run_cell`` evaluates ``n_mc`` fresh sample pairs a
chunk at a time and tallies rejection rates.
``run_table`` sweeps a scenario grid and writes a human-readable rate table
plus a machine-readable JSON artifact with raw counts, seeds, and excluded
replications.
"""

from __future__ import annotations

import json
import math
import time
from collections.abc import Sequence
from dataclasses import asdict, dataclass, field

import numpy as np

from . import __version__
from .errors import DegenerateSampleError, DomainError
from .lrv import LrvEstimate, TimeSeriesSample, series_lrv
from .sharwb import BootstrapRun, shar_wb_test
from .ttests import NORMAL, T_ADJUSTED, classical_t, har_pooled_t, har_welch_t, welch_t

NORMAL_ERRORS = "normal"
CHISQ1_ERRORS = "chisq1"
ERROR_LAWS = (NORMAL_ERRORS, CHISQ1_ERRORS)

# Report column order for the six tests.
TEST_COLUMNS = ("t0", "t1", "t0_har", "t1_har_norm", "t1_har", "t1_har_boot")


@dataclass(frozen=True)
class GroupFit:
    """One group's series LRV (with its basis count K) as the six tests use it."""

    k_note: str | None  # why K fell back to 1, when it could not be selected
    lrv: LrvEstimate


@dataclass(frozen=True)
class Evaluation:
    """The six tests on one sample pair; a degenerate test has an NA message."""

    groups: tuple[GroupFit, GroupFit]
    reports: dict  # test name -> TestReport, for the tests that ran
    na: dict  # test name -> message, for the degenerate ones
    bootstrap: BootstrapRun | None


def _fit_group(sample: TimeSeriesSample, requested) -> GroupFit:
    try:
        return GroupFit(k_note=None, lrv=series_lrv(sample, requested))
    except DegenerateSampleError as exc:
        # keep evaluating: K falls back to 1 and the tests that need
        # variation come out NA
        return GroupFit(k_note=str(exc), lrv=series_lrv(sample, 1))


def _attempt(fn, *args):
    """fn's result, or its message when a sample is degenerate."""
    try:
        return fn(*args)
    except DegenerateSampleError as exc:
        return str(exc)


def evaluate(
    y1: TimeSeriesSample | Sequence[TimeSeriesSample],
    y2: TimeSeriesSample | Sequence[TimeSeriesSample],
    *,
    k1,
    k2,
    alpha: float,
    n_boot: int,
    seed: int | Sequence[int],
) -> Evaluation | list[Evaluation]:
    """All six tests in ``TEST_COLUMNS`` order, each group fitted once.

    ``k1``/``k2`` are integers or "auto".  Every robust test reads the two
    groups' ``LrvEstimate``.  Degenerate samples or bootstrap replicates
    turn the affected tests into NA entries; a ``DomainError`` (bad K, alpha
    or n_boot) propagates.

    One pair of samples and one seed give one ``Evaluation``.  Sequences
    ``y1``, ``y2`` and ``seed``, one entry per pair, give a list of them,
    each the one its own call would give; the pairs are bootstrapped
    together by one ``shar_wb_test`` call.
    """
    single = isinstance(y1, TimeSeriesSample)
    if single:
        y1, y2, seed = [y1], [y2], [seed]
    groups = [(_fit_group(a, k1), _fit_group(b, k2)) for a, b in zip(y1, y2)]
    boot_reports, boot_runs = shar_wb_test(
        [g1.lrv for g1, _ in groups], [g2.lrv for _, g2 in groups], alpha, n_boot, seed
    )
    evaluations = []
    for a, b, (g1, g2), boot_report, bootstrap in zip(y1, y2, groups, boot_reports, boot_runs):
        lrv1, lrv2 = g1.lrv, g2.lrv
        outcomes = {
            "t0": _attempt(classical_t, a, b, alpha),
            "t1": _attempt(welch_t, a, b, alpha),
            "t0_har": _attempt(har_pooled_t, lrv1, lrv2, alpha),
            "t1_har_norm": _attempt(har_welch_t, lrv1, lrv2, alpha, NORMAL),
            "t1_har": _attempt(har_welch_t, lrv1, lrv2, alpha, T_ADJUSTED),
            "t1_har_boot": boot_report,
        }
        evaluations.append(Evaluation(
            groups=(g1, g2),
            reports={n: r for n, r in outcomes.items() if not isinstance(r, str)},
            na={n: r for n, r in outcomes.items() if isinstance(r, str)},
            bootstrap=bootstrap,
        ))
    return evaluations[0] if single else evaluations


@dataclass(frozen=True)
class Scenario:
    """One Monte Carlo cell."""

    t1: int
    t2: int
    rho: float
    sigma1: float = 1.0
    sigma2: float = 1.0
    error_law: str = NORMAL_ERRORS
    mu1: float = 5.0
    a: float = 1.0  # mu2 = a * mu1
    n_mc: int = 2000
    n_boot: int = 199
    alpha: float = 0.05
    seed: int = 0

    def __post_init__(self) -> None:
        if self.t1 < 4 or self.t2 < 4:
            raise DomainError("scenario sample sizes must be >= 4")
        if not abs(self.rho) < 1.0:
            raise DomainError(f"|rho| must be < 1, got {self.rho}")
        for name in ("sigma1", "sigma2", "mu1", "a"):
            if not math.isfinite(getattr(self, name)):
                raise DomainError(f"{name} must be finite, got {getattr(self, name)}")
        if not math.isfinite(self.mu2):
            raise DomainError(f"mu2 = a * mu1 overflows: a={self.a}, mu1={self.mu1}")
        if self.sigma1 <= 0.0 or self.sigma2 <= 0.0:
            raise DomainError("sigmas must be positive")
        for j, mu in ((1, self.mu1), (2, self.mu2)):
            sigma, t = getattr(self, f"sigma{j}"), getattr(self, f"t{j}")
            # margin: the tests square sums of t squares of values within 100 sigma of mu
            energy = 4.0 * t * (abs(mu) + 100.0 * sigma) * (abs(mu) + 100.0 * sigma)
            if not math.isfinite(energy * energy):
                name = f"sigma{j}" if 100.0 * sigma > abs(mu) else ("mu1", "mu2 = a * mu1")[j - 1]
                raise DomainError(
                    f"{name} too large: (4 t{j} (|mu{j}| + 100 sigma{j})^2)^2 overflows")
        if self.error_law not in ERROR_LAWS:
            raise DomainError(f"unknown error law {self.error_law!r}")
        if self.a <= 0.0:
            raise DomainError("mean multiplier a must be positive")
        if self.n_mc < 1:
            raise DomainError("n_mc must be >= 1")
        if self.n_boot < 19:
            raise DomainError("n_boot must be >= 19")
        if not 0.0 < self.alpha < 1.0:
            raise DomainError("alpha must lie in (0, 1)")
        if self.seed < 0:
            raise DomainError(f"seed must be >= 0, got {self.seed}")

    @property
    def mu2(self) -> float:
        return self.a * self.mu1


@dataclass
class CellResult:
    """Rejection tallies for one scenario."""

    scenario: Scenario
    rejection_rates: dict
    mc_standard_errors: dict
    reject_counts: dict
    n_completed: int
    n_excluded: int
    runtime: float = field(compare=False, default=0.0)


def _innovations(rng: np.random.Generator, size: int, law: str) -> np.ndarray:
    if law == NORMAL_ERRORS:
        return rng.standard_normal(size)
    # chi-square(1) standardized to mean 0, variance 1
    return (rng.chisquare(1.0, size) - 1.0) / math.sqrt(2.0)


def simulate_series(
    n: int,
    rho: float,
    sigma: float,
    mu: float,
    error_law: str,
    rng: np.random.Generator | Sequence[np.random.Generator],
) -> TimeSeriesSample | list[TimeSeriesSample]:
    """Simulate stationary AR(1) samples of length n.

    ``rng`` is one ``np.random.Generator``, which gives one sample, or a
    sequence of them, which gives a list with one sample per generator.
    Each generator's n+1 innovations become one column of an (n+1) x R
    block, and the recursion runs once over t on whole rows; the samples
    are then built together, with one transform of the block.  Every
    column is the sample that generator alone would give.
    """
    if not abs(rho) < 1.0:
        raise DomainError(f"|rho| must be < 1, got {rho}")
    if error_law not in (NORMAL_ERRORS, CHISQ1_ERRORS):
        raise DomainError(f"unknown error law {error_law!r}")
    single = isinstance(rng, np.random.Generator)
    rngs = (rng,) if single else rng
    w = np.empty((n + 1, len(rngs)), dtype=np.float64)
    for j, gen in enumerate(rngs):
        w[:, j] = _innovations(gen, n + 1, error_law)
    # w_0 stays the first draw: a stationary start with unit variance, like
    # every later w_t; the rows below hold scale * v_t until their turn
    w[1:] *= math.sqrt(1.0 - rho * rho)
    rows = iter(w)
    prev = next(rows)
    for row in rows:
        row += rho * prev
        prev = row
    samples = TimeSeriesSample._from_rows((mu + sigma * w[1:]).T)
    return samples[0] if single else samples


# Most doubles in one simulated block of replications, (T+1) x R per group,
# and most replications in one chunk, whose samples, evaluations and
# replicate statistics are held until the chunk is tallied.  A cell's
# replications are simulated and evaluated in chunks within both bounds, so
# memory stays flat in n_mc.
_MAX_BLOCK_DOUBLES = 2**20
_MAX_CHUNK_PAIRS = 256


def _tally_chunk(scenario: Scenario, reps: range, counts: dict) -> int:
    """Evaluate one chunk of replications, the indices ``reps``, add its
    reject counts to ``counts`` and return how many were excluded.

    Nothing of the chunk outlives the call, so memory holds one chunk."""
    ss_y1, ss_y2, ss_boot = (
        [np.random.SeedSequence(scenario.seed, spawn_key=(r, j)) for r in reps] for j in range(3)
    )
    y1s, y2s = (
        simulate_series(
            n, scenario.rho, sigma, mu, scenario.error_law,
            [np.random.default_rng(ss) for ss in seeds],
        )
        for n, sigma, mu, seeds in (
            (scenario.t1, scenario.sigma1, scenario.mu1, ss_y1),
            (scenario.t2, scenario.sigma2, scenario.mu2, ss_y2),
        )
    )
    results = evaluate(
        y1s,
        y2s,
        k1="auto",
        k2="auto",
        alpha=scenario.alpha,
        n_boot=scenario.n_boot,
        seed=[int(ss.generate_state(1, np.uint64)[0]) for ss in ss_boot],
    )
    excluded = 0
    for result in results:
        if result.na:
            excluded += 1
            continue
        for name in TEST_COLUMNS:
            counts[name] += bool(result.reports[name].reject)
    return excluded


def run_cell(scenario: Scenario) -> CellResult:
    """Monte Carlo rejection rates of all six tests for one scenario.

    Replication r draws its two samples and its bootstrap seed from
    ``SeedSequence(seed, spawn_key=(r, j))``, j = 0, 1, 2: the children of
    the r-th child of ``SeedSequence(seed)``.  Each chunk of replications is
    simulated with one ``simulate_series`` call per group and evaluated by
    one ``evaluate`` call, which bootstraps the chunk's pairs together.

    Replications where any test is NA (a degenerate sample or bootstrap)
    are excluded from the rate denominators but counted in ``n_excluded``;
    with continuous error laws this never fires.
    """
    start = time.perf_counter()
    counts = {name: 0 for name in TEST_COLUMNS}
    excluded = 0
    per_block = _MAX_BLOCK_DOUBLES // (max(scenario.t1, scenario.t2) + 1)
    chunk = max(1, min(_MAX_CHUNK_PAIRS, per_block))
    for lo in range(0, scenario.n_mc, chunk):
        excluded += _tally_chunk(scenario, range(lo, min(lo + chunk, scenario.n_mc)), counts)
    completed = scenario.n_mc - excluded
    if completed == 0:
        raise DegenerateSampleError("every replication was degenerate")
    rates = {name: counts[name] / completed for name in TEST_COLUMNS}
    ses = {
        name: math.sqrt(rates[name] * (1.0 - rates[name]) / completed)
        for name in TEST_COLUMNS
    }
    return CellResult(
        scenario=scenario,
        rejection_rates=rates,
        mc_standard_errors=ses,
        reject_counts=counts,
        n_completed=completed,
        n_excluded=excluded,
        runtime=time.perf_counter() - start,
    )


def _text_table(results: list[CellResult]) -> str:
    header = (
        ["T1", "T2", "rho", "a", "errors"]
        + [f"{name}%" for name in TEST_COLUMNS]
        + [f"se_{name}" for name in TEST_COLUMNS]
    )
    lines = ["\t".join(header)]
    for res in results:
        sc = res.scenario
        row = [
            str(sc.t1),
            str(sc.t2),
            f"{sc.rho:g}",
            f"{sc.a:g}",
            sc.error_law,
        ]
        row += [f"{100.0 * res.rejection_rates[n]:.2f}" for n in TEST_COLUMNS]
        row += [f"{100.0 * res.mc_standard_errors[n]:.2f}" for n in TEST_COLUMNS]
        lines.append("\t".join(row))
    return "\n".join(lines) + "\n"


def _json_payload(results: list[CellResult]) -> dict:
    # every CellResult field but the runtime, which is not deterministic
    cells = [{k: v for k, v in asdict(res).items() if k != "runtime"} for res in results]
    return {"version": __version__, "columns": list(TEST_COLUMNS), "cells": cells}


def run_table(scenarios: list[Scenario], text_path, json_path, progress=None) -> list[CellResult]:
    """Run a scenario grid and write its text and JSON artifacts.

    Both files are opened before the first cell, so an unwritable path fails
    before any work, and are emptied only once every cell has run, so an
    interrupted or failed run leaves earlier artifacts as they were.
    """
    if not scenarios:
        raise DomainError("scenario grid is empty")
    with open(text_path, "a", encoding="utf-8") as text_fh, open(
        json_path, "a", encoding="utf-8"
    ) as json_fh:
        results = []
        for scenario in scenarios:
            results.append(run_cell(scenario))
            if progress is not None:
                progress(results[-1])
        text_fh.truncate(0)
        text_fh.write(_text_table(results))
        json_fh.truncate(0)
        json.dump(_json_payload(results), json_fh, indent=2, sort_keys=True)
        json_fh.write("\n")
    return results


# Desk-scale preset grids: name -> (error law, (sigma1, sigma2), T pairs, mean
# multipliers a), each swept over _RHOS.  Size tables use three sample-size
# pairs (small, moderate, unbalanced); the power table uses the two larger
# sizes where the robust tests hold size.
_SIZE_PAIRS = ((30, 30), (200, 200), (100, 80))
_RHOS = (0.0, 0.5, 0.8)
UNEQUAL_SIGMAS = (0.06, 0.18)
_PRESETS = {
    "table1-desk": (NORMAL_ERRORS, (1.0, 1.0), _SIZE_PAIRS, (1.0,)),
    "table2-desk": (NORMAL_ERRORS, UNEQUAL_SIGMAS, _SIZE_PAIRS, (1.0,)),
    "table3-desk": (CHISQ1_ERRORS, (1.0, 1.0), _SIZE_PAIRS, (1.0,)),
    "table4-desk": (CHISQ1_ERRORS, UNEQUAL_SIGMAS, _SIZE_PAIRS, (1.0,)),
    "table5-desk": (NORMAL_ERRORS, (1.0, 1.0), ((200, 200), (400, 400)), (1.1, 1.2)),
}
PRESET_NAMES = tuple(_PRESETS)


def preset_scenarios(
    name: str, n_mc: int = 2000, n_boot: int = 199, seed: int = 2023
) -> list[Scenario]:
    """Named desk-scale scenario grids mirroring the size/power experiments."""
    if name not in _PRESETS:
        raise DomainError(f"unknown preset {name!r}; choose from {PRESET_NAMES}")
    law, (sigma1, sigma2), pairs, multipliers = _PRESETS[name]
    return [
        Scenario(t1=t1, t2=t2, rho=rho, sigma1=sigma1, sigma2=sigma2, error_law=law,
                 a=a, n_mc=n_mc, n_boot=n_boot, seed=seed)
        for rho in _RHOS
        for t1, t2 in pairs
        for a in multipliers
    ]
