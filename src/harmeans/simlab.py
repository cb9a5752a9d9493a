"""Monte Carlo laboratory for size and power of the two-sample tests.

Data are AR(1) with unit-variance innovations,

    Y_t = mu + sigma * w_t,   w_t = rho * w_{t-1} + sqrt(1 - rho^2) * v_t,

with a stationary start (w_0 is one unit-variance innovation draw), so the
marginal variance of sigma * w_t is sigma^2 for every t.  Innovations are
standard normal or standardized chi-square(1) for a skewed alternative.

``evaluate`` runs all six tests (classical, Welch, robust pooled, robust
Welch under normal and adjusted-t references, and the wild bootstrap) on
one sample pair; it is shared with ``harmeans test``.  ``run_cell``
evaluates ``n_mc`` fresh sample pairs and tallies rejection rates.
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
from .errors import DegenerateReplicatesError, DegenerateSampleError, DomainError
from .lrv import LrvEstimate, TimeSeriesSample, series_lrv
from .sharwb import BootstrapRun, shar_wb_test
from .ttests import NORMAL, T_ADJUSTED, classical_t, har_pooled_t, har_welch_t, welch_t

NORMAL_ERRORS = "normal"
CHISQ1_ERRORS = "chisq1"

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


def _attempt(fn, *args, **kwargs):
    """fn's result, or its message when a sample or the bootstrap is degenerate."""
    try:
        return fn(*args, **kwargs)
    except (DegenerateSampleError, DegenerateReplicatesError) as exc:
        return str(exc)


def evaluate(
    y1: TimeSeriesSample,
    y2: TimeSeriesSample,
    *,
    k1,
    k2,
    alpha: float,
    n_boot: int,
    seed: int,
) -> Evaluation:
    """All six tests in ``TEST_COLUMNS`` order, each group fitted once.

    ``k1``/``k2`` are integers or "auto".  Every robust test reads the two
    groups' ``LrvEstimate``.  Degenerate samples or bootstrap replicates
    turn the affected tests into NA entries; a ``DomainError`` (bad K, alpha
    or n_boot) propagates.
    """
    groups = (_fit_group(y1, k1), _fit_group(y2, k2))
    lrv1, lrv2 = groups[0].lrv, groups[1].lrv
    outcomes = {
        "t0": _attempt(classical_t, y1, y2, alpha),
        "t1": _attempt(welch_t, y1, y2, alpha),
        "t0_har": _attempt(har_pooled_t, lrv1, lrv2, alpha),
        "t1_har_norm": _attempt(har_welch_t, lrv1, lrv2, alpha, NORMAL),
        "t1_har": _attempt(har_welch_t, lrv1, lrv2, alpha, T_ADJUSTED),
        "t1_har_boot": _attempt(shar_wb_test, lrv1, lrv2, alpha, n_boot, seed),
    }
    bootstrap = None
    if not isinstance(outcomes["t1_har_boot"], str):
        outcomes["t1_har_boot"], bootstrap = outcomes["t1_har_boot"]
    return Evaluation(
        groups=groups,
        reports={n: r for n, r in outcomes.items() if not isinstance(r, str)},
        na={n: r for n, r in outcomes.items() if isinstance(r, str)},
        bootstrap=bootstrap,
    )


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
        if self.sigma1 <= 0.0 or self.sigma2 <= 0.0:
            raise DomainError("sigmas must be positive")
        if self.error_law not in (NORMAL_ERRORS, CHISQ1_ERRORS):
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
    block, and the recursion runs once over t on whole rows, so every
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
    samples = [TimeSeriesSample.from_values(y) for y in (mu + sigma * w[1:]).T]
    return samples[0] if single else samples


# Most doubles in one simulated block of replications, (T+1) x R per group.
# A cell's replications are simulated in chunks of at most this many, so
# memory stays flat in n_mc at large T; every preset cell (T <= 400,
# n_mc <= 2000) is one chunk.
_MAX_BLOCK_DOUBLES = 2**20


def run_cell(scenario: Scenario) -> CellResult:
    """Monte Carlo rejection rates of all six tests for one scenario.

    Replication r draws its two samples and its bootstrap seed from the
    r-th child of ``SeedSequence(seed)``.  Each chunk of replications is
    simulated with one ``simulate_series`` call per group, then evaluated
    one replication at a time.

    Replications where any test is NA (a degenerate sample or bootstrap)
    are excluded from the rate denominators but counted in ``n_excluded``;
    with continuous error laws this never fires.
    """
    start = time.perf_counter()
    counts = {name: 0 for name in TEST_COLUMNS}
    completed = 0
    excluded = 0
    rep_seeds = np.random.SeedSequence(scenario.seed).spawn(scenario.n_mc)
    chunk = max(1, _MAX_BLOCK_DOUBLES // (max(scenario.t1, scenario.t2) + 1))
    for lo in range(0, scenario.n_mc, chunk):
        ss_y1, ss_y2, ss_boot = zip(*(s.spawn(3) for s in rep_seeds[lo : lo + chunk]))
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
        for y1, y2, boot_seed in zip(y1s, y2s, ss_boot):
            result = evaluate(
                y1,
                y2,
                k1="auto",
                k2="auto",
                alpha=scenario.alpha,
                n_boot=scenario.n_boot,
                seed=int(boot_seed.generate_state(1, np.uint64)[0]),
            )
            if result.na:
                excluded += 1
                continue
            completed += 1
            for name in TEST_COLUMNS:
                counts[name] += bool(result.reports[name].reject)
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


def run_table(
    scenarios: list[Scenario],
    text_path=None,
    json_path=None,
    progress=None,
) -> list[CellResult]:
    """Run a scenario grid; optionally write the text and JSON artifacts."""
    if not scenarios:
        raise DomainError("scenario grid is empty")
    results = []
    for scenario in scenarios:
        results.append(run_cell(scenario))
        if progress is not None:
            progress(results[-1])
    if text_path is not None:
        with open(text_path, "w", encoding="utf-8") as fh:
            fh.write(_text_table(results))
    if json_path is not None:
        with open(json_path, "w", encoding="utf-8") as fh:
            json.dump(_json_payload(results), fh, indent=2, sort_keys=True)
            fh.write("\n")
    return results


# Desk-scale preset grids.  Size tables use three sample-size pairs (small,
# moderate, unbalanced) under each serial-correlation level; the power table
# uses the two larger sizes where the robust tests hold size.
_SIZE_PAIRS = ((30, 30), (200, 200), (100, 80))
_POWER_PAIRS = ((200, 200), (400, 400))
_RHOS = (0.0, 0.5, 0.8)
UNEQUAL_SIGMAS = (0.06, 0.18)

PRESET_NAMES = (
    "table1-desk",
    "table2-desk",
    "table3-desk",
    "table4-desk",
    "table5-desk",
)


def preset_scenarios(
    name: str, n_mc: int = 2000, n_boot: int = 199, seed: int = 2023
) -> list[Scenario]:
    """Named desk-scale scenario grids mirroring the size/power experiments."""
    if name not in PRESET_NAMES:
        raise DomainError(f"unknown preset {name!r}; choose from {PRESET_NAMES}")
    common = {"n_mc": n_mc, "n_boot": n_boot}
    scenarios = []
    if name == "table5-desk":
        for rho in _RHOS:
            for t1, t2 in _POWER_PAIRS:
                for a in (1.1, 1.2):
                    scenarios.append(
                        Scenario(
                            t1=t1, t2=t2, rho=rho, a=a, seed=seed, **common
                        )
                    )
        return scenarios
    law = NORMAL_ERRORS if name in ("table1-desk", "table2-desk") else CHISQ1_ERRORS
    if name in ("table2-desk", "table4-desk"):
        sigma1, sigma2 = UNEQUAL_SIGMAS
    else:
        sigma1 = sigma2 = 1.0
    for rho in _RHOS:
        for t1, t2 in _SIZE_PAIRS:
            scenarios.append(
                Scenario(
                    t1=t1,
                    t2=t2,
                    rho=rho,
                    sigma1=sigma1,
                    sigma2=sigma2,
                    error_law=law,
                    seed=seed,
                    **common,
                )
            )
    return scenarios
