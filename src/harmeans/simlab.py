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
chunk at a time, spread over the CPUs the process may use, and tallies
rejection rates.
``run_table`` sweeps a scenario grid and writes a human-readable rate table
plus a machine-readable JSON artifact with raw counts, seeds, and excluded
replications.
"""

from __future__ import annotations

import json
import math
import os
import sys
import threading
import time
from collections.abc import Sequence
from dataclasses import asdict, dataclass, field

import numpy as np

from . import __version__
from .errors import DegenerateSampleError, DomainError
from .lrv import LrvEstimate, TimeSeriesSample, select_k, series_lrv
from .seeds import spawn
from .sharwb import BootstrapRun, shar_wb_test
from .ttests import (
    NORMAL, T_ADJUSTED, classical_t, har_pooled_t, har_welch_t, take_p_values, welch_t,
)

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


@dataclass(frozen=True, eq=False)
class EvaluationColumns:
    """The six tests on a sequence of pairs, as columns.

    ``groups`` holds, per group, the pairs' ``GroupFit``s; ``tests`` maps
    each name of ``TEST_COLUMNS``, in order, to its ``TestColumns``; and
    ``replicate_stats`` is the (R, B) array of bootstrap replicate
    statistics, NaN in the rows of pairs whose bootstrap is NA."""

    groups: tuple[list, list]
    tests: dict
    replicate_stats: np.ndarray

    def excluded(self) -> set:
        """The pairs where any test is NA."""
        return set().union(*(columns.na for columns in self.tests.values()))

    def evaluation(self, i: int) -> Evaluation:
        """Pair i's ``Evaluation``, its reports built from the columns."""
        reports, na = {}, {}
        for name, columns in self.tests.items():
            if i in columns.na:
                na[name] = columns.na[i]
            else:
                reports[name] = columns.report(i)
        boot = reports.get("t1_har_boot")
        return Evaluation(
            groups=(self.groups[0][i], self.groups[1][i]),
            reports=reports,
            na=na,
            bootstrap=None if boot is None else BootstrapRun.of(boot, self.replicate_stats[i]),
        )


def _fit_groups(samples, requested) -> list[GroupFit]:
    """Each sample's series LRV with ``requested`` K, integer or "auto".
    Where K cannot be selected, it falls back to 1 and the tests that need
    variation come out NA."""
    if requested == "auto":
        ks, notes = select_k(samples)
    else:
        ks, notes = requested, [None] * len(samples)
    return [GroupFit(k_note=note, lrv=fit) for note, fit in zip(notes, series_lrv(samples, ks))]


def evaluate(
    y1: TimeSeriesSample | Sequence[TimeSeriesSample],
    y2: TimeSeriesSample | Sequence[TimeSeriesSample],
    *,
    k1,
    k2,
    alpha: float,
    n_boot: int,
    seed: int | Sequence[int],
) -> Evaluation | EvaluationColumns:
    """All six tests in ``TEST_COLUMNS`` order, each group fitted once.

    ``k1``/``k2`` are integers or "auto".  Every robust test reads the two
    groups' ``LrvEstimate``.  Degenerate samples or bootstrap replicates
    turn the affected tests into NA entries; a ``DomainError`` (bad K, alpha
    or n_boot) propagates.

    Sequences ``y1``, ``y2`` and ``seed``, one entry per pair, give an
    ``EvaluationColumns``: each test is one call on all the pairs, and the
    pairs are bootstrapped together by one ``shar_wb_test`` call.  Each
    pair's entries are the ones its own call would give.  One pair of
    samples and one seed give that pair's ``Evaluation``, built from the
    columns of a one-pair sequence.
    """
    single = isinstance(y1, TimeSeriesSample)
    if single:
        y1, y2, seed = [y1], [y2], [seed]
    groups = (_fit_groups(y1, k1), _fit_groups(y2, k2))
    lrv1, lrv2 = ([fit.lrv for fit in group] for group in groups)
    boot, replicate_stats = shar_wb_test(lrv1, lrv2, alpha, n_boot, seed)
    analytic = take_p_values([
        classical_t(y1, y2, alpha),
        welch_t(y1, y2, alpha),
        har_pooled_t(lrv1, lrv2, alpha),
        har_welch_t(lrv1, lrv2, alpha, NORMAL),
        har_welch_t(lrv1, lrv2, alpha, T_ADJUSTED),
    ])
    columns = EvaluationColumns(
        groups=groups,
        tests=dict(zip(TEST_COLUMNS, analytic + [boot])),
        replicate_stats=replicate_stats,
    )
    return columns.evaluation(0) if single else columns


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


def _chunk_samples(scenario: Scenario, reps: range) -> tuple[list, list, list]:
    """The two groups' samples and the bootstrap seeds of replications
    ``reps``: replication r's come from ``SeedSequence(seed, spawn_key=(r,
    j))``, j = 0, 1, 2, hashed for the whole chunk at once."""
    seeds = spawn(scenario.seed, [(r, j) for j in range(3) for r in reps])
    n = len(reps)
    y1s, y2s = (
        simulate_series(
            size, scenario.rho, sigma, mu, scenario.error_law,
            [np.random.Generator(np.random.PCG64(s)) for s in seeds[j * n : (j + 1) * n]],
        )
        for j, (size, sigma, mu) in enumerate((
            (scenario.t1, scenario.sigma1, scenario.mu1),
            (scenario.t2, scenario.sigma2, scenario.mu2),
        ))
    )
    return y1s, y2s, [int(s.generate_state(1, np.uint64)[0]) for s in seeds[2 * n :]]


def _tally_chunk(scenario: Scenario, reps: range, counts: dict) -> int:
    """Evaluate one chunk of replications, the indices ``reps``, add its
    reject counts to ``counts`` and return how many were excluded.

    Nothing of the chunk outlives the call, so memory holds one chunk."""
    y1s, y2s, seeds = _chunk_samples(scenario, reps)
    result = evaluate(y1s, y2s, k1="auto", k2="auto", alpha=scenario.alpha,
                      n_boot=scenario.n_boot, seed=seeds)
    excluded = result.excluded()
    kept = np.ones(len(reps), dtype=bool)
    kept[list(excluded)] = False
    for name, columns in result.tests.items():
        counts[name] += int(np.count_nonzero(columns.reject & kept))
    return len(excluded)


def _tally_range(scenario: Scenario, reps: range, counts: dict) -> int:
    """Tally the replications ``reps`` a chunk at a time into ``counts`` and
    return how many were excluded."""
    per_block = _MAX_BLOCK_DOUBLES // (max(scenario.t1, scenario.t2) + 1)
    chunk = max(1, min(_MAX_CHUNK_PAIRS, per_block))
    return sum(
        _tally_chunk(scenario, range(lo, min(lo + chunk, reps.stop)), counts)
        for lo in range(reps.start, reps.stop, chunk)
    )


# Fewest replications a process is given: a cell of fewer than twice as many,
# such as a smoke run, stays in the calling process and forks nothing.
_MIN_RANGE = 16
# The lab's worker processes, (process, connection) each, forked on the
# first split and kept for later cells; _workers_pid is the process that
# forked them, so that a fork of it does not take them for its own.
_workers: list = []
_workers_pid = 0
_workers_lock = threading.Lock()


def _cpu_count() -> int:
    """How many processes a cell may be spread over: the CPUs in this
    process's affinity mask.  1 in a daemonic process (a lab worker, or
    another pool's), which may not start processes, and on platforms with
    no affinity mask, where the lab does not fork."""
    mp = sys.modules.get("multiprocessing")
    if not hasattr(os, "sched_getaffinity") or (mp and mp.current_process().daemon):
        return 1
    return len(os.sched_getaffinity(0))


def _exit_with(caller: int) -> None:
    """End this worker once its caller is gone: a worker busy with a range
    would not see its connection close."""
    while os.getppid() == caller:
        time.sleep(0.25)
    os._exit(1)


def _serve(conn, caller: int) -> None:
    """A worker's loop: tally each (scenario, range) the caller sends and
    reply (exception or None, counts, excluded), until the caller stops this
    worker or is gone."""
    import signal

    signal.signal(signal.SIGINT, signal.SIG_IGN)  # an interrupt is the caller's to handle
    threading.Thread(target=_exit_with, args=(caller,), daemon=True).start()
    while True:
        try:
            scenario, reps = conn.recv()
        except EOFError:  # the caller is gone
            return
        counts = {name: 0 for name in TEST_COLUMNS}
        try:
            reply = (None, counts, _tally_range(scenario, reps, counts))
        except Exception as exc:  # the caller raises it
            reply = (exc, None, 0)
        conn.send(reply)


def _connections(n: int) -> list:
    """Connections to n workers, forking those not running yet."""
    global _workers_pid
    import multiprocessing

    if _workers_pid != os.getpid():
        _workers.clear()
        _workers_pid = os.getpid()
    # fork: a worker must not re-run the caller's __main__, as spawn would
    context = multiprocessing.get_context("fork")
    while len(_workers) < n:
        ours, theirs = context.Pipe()
        process = context.Process(target=_serve, args=(theirs, os.getpid()), daemon=True)
        process.start()
        theirs.close()
        _workers.append((process, ours))
    return [conn for _, conn in _workers[:n]]


def _stop_workers() -> None:
    """Terminate every worker; the next split forks new ones."""
    for process, conn in _workers:
        process.terminate()
        process.join()
        conn.close()
    _workers.clear()


def _tally_split(scenario: Scenario, ranges: list[range], counts: dict) -> int:
    """Tally ``ranges[0]`` here and each later range in a worker, summing
    their counts into ``counts``; return how many were excluded."""
    with _workers_lock:
        try:
            conns = _connections(len(ranges) - 1)
            for conn, reps in zip(conns, ranges[1:]):
                conn.send((scenario, reps))
            excluded = _tally_range(scenario, ranges[0], counts)
            replies = [conn.recv() for conn in conns]
        except BaseException as exc:
            _stop_workers()  # they may still be busy with this cell, or one has died
            if isinstance(exc, (EOFError, ConnectionError)):
                raise RuntimeError("a lab worker process has exited") from exc
            raise
    for error, part, part_excluded in replies:
        if error is not None:
            raise error
        excluded += part_excluded
        for name in TEST_COLUMNS:
            counts[name] += part[name]
    return excluded


def run_cell(scenario: Scenario) -> CellResult:
    """Monte Carlo rejection rates of all six tests for one scenario.

    Replication r draws its two samples and its bootstrap seed from
    ``SeedSequence(seed, spawn_key=(r, j))``, j = 0, 1, 2: the children of
    the r-th child of ``SeedSequence(seed)``.  Each chunk of replications is
    simulated with one ``simulate_series`` call per group and evaluated by
    one ``evaluate`` call, which bootstraps the chunk's pairs together.

    [0, n_mc) is cut into P contiguous ranges, P = min(CPUs in the process's
    affinity mask, n_mc // 16): the calling process tallies the first and
    forked worker processes the others, and their counts are summed.  A
    replication's result does not depend on the process that runs it, so
    the result is the same for every P; a 1-CPU mask (``taskset -c 0``) or
    a cell of fewer than 32 replications runs in the calling process alone.
    The workers are forked on the first split and kept for later cells, one
    cell at a time; they exit with the calling process.  An exception in a
    worker is raised here.

    Replications where any test is NA (a degenerate sample or bootstrap)
    are excluded from the rate denominators but counted in ``n_excluded``;
    with continuous error laws this never fires.
    """
    start = time.perf_counter()
    counts = {name: 0 for name in TEST_COLUMNS}
    n_proc = max(1, min(_cpu_count(), scenario.n_mc // _MIN_RANGE))
    bounds = [scenario.n_mc * i // n_proc for i in range(n_proc + 1)]
    ranges = [range(lo, hi) for lo, hi in zip(bounds, bounds[1:])]
    if n_proc == 1:
        excluded = _tally_range(scenario, ranges[0], counts)
    else:
        excluded = _tally_split(scenario, ranges, counts)
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
