"""Monte Carlo lab: DGP moments, cell determinism, table artifacts."""

import importlib.util
import json
import math
import os
import re
import signal
import subprocess
import sys
import time
import tracemalloc
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

import harmeans.lrv as lrv_mod
import harmeans.sharwb as sharwb_mod
import harmeans.simlab as simlab_mod
import harmeans.ttests as ttests_mod
import oracles
from harmeans import basis
from harmeans.errors import DegenerateSampleError, DomainError
from harmeans.lrv import TimeSeriesSample, series_lrv
from harmeans.sharwb import shar_wb_test
from harmeans.simlab import (
    TEST_COLUMNS,
    CellResult,
    Scenario,
    evaluate,
    preset_scenarios,
    run_cell,
    run_table,
    simulate_series,
)
from harmeans.ttests import NORMAL, T_ADJUSTED, classical_t, har_pooled_t, har_welch_t, welch_t

FAST = {"n_mc": 40, "n_boot": 29}


@pytest.fixture
def one_process(monkeypatch):
    """Run every cell in this process: a worker forked earlier sees none of
    the test's patches, and tracemalloc traces only this process."""
    monkeypatch.setattr(simlab_mod, "_cpu_count", lambda: 1)


def wfh_pair() -> tuple[TimeSeriesSample, TimeSeriesSample]:
    """Fresh samples of the 37/85 unequal-spread fixture (as in test_cli)."""
    rng = np.random.default_rng(99)
    y1 = simulate_series(37, 0.0, 0.06, -5.14, "normal", rng)
    y2 = simulate_series(85, 0.0, 0.18, -5.17, "normal", rng)
    return y1, y2


class TestEvaluate:
    @pytest.mark.parametrize(("k1", "k2"), [("auto", "auto"), (3, 5)])
    def test_entries_equal_public_functions(self, k1, k2):
        y1, y2 = wfh_pair()
        result = evaluate(y1, y2, k1=k1, k2=k2, alpha=0.05, n_boot=49, seed=3)
        # separate samples, so the public functions share nothing with evaluate
        f1, f2 = wfh_pair()
        lrv1, lrv2 = series_lrv(f1, k1), series_lrv(f2, k2)
        boot_report, boot_run = shar_wb_test(lrv1, lrv2, alpha=0.05, n_boot=49, seed=3)
        expected = {
            "t0": classical_t(f1, f2, 0.05),
            "t1": welch_t(f1, f2, 0.05),
            "t0_har": har_pooled_t(lrv1, lrv2, 0.05),
            "t1_har_norm": har_welch_t(lrv1, lrv2, 0.05, reference=NORMAL),
            "t1_har": har_welch_t(lrv1, lrv2, 0.05, reference=T_ADJUSTED),
            "t1_har_boot": boot_report,
        }
        assert result.na == {}
        assert list(result.reports) == list(TEST_COLUMNS)
        for name in TEST_COLUMNS:
            assert result.reports[name] == expected[name], name
        for f in fields(boot_run):
            got, want = getattr(result.bootstrap, f.name), getattr(boot_run, f.name)
            if f.name == "replicate_stats":
                assert np.array_equal(got, want)
            else:
                assert got == want, f.name
        for fit, lrv in zip(result.groups, (lrv1, lrv2)):
            assert fit.lrv.k == lrv.k
            assert fit.k_note is None
            assert fit.lrv.omega == lrv.omega
            assert np.array_equal(fit.lrv.coefficients, lrv.coefficients)

    def test_all_constant_pair_gives_cli_na_messages(self):
        y1 = TimeSeriesSample.from_values([2.0] * 10)
        y2 = TimeSeriesSample.from_values([2.0] * 10)
        result = evaluate(y1, y2, k1="auto", k2="auto", alpha=0.05, n_boot=49, seed=0)
        assert result.reports == {}
        assert result.bootstrap is None
        assert result.na == {
            "t0": "pooled variance is zero",
            "t1": "both sample variances are zero",
            "t0_har": "pooled long-run variance is zero",
            "t1_har_norm": "both long-run variances are zero",
            "t1_har": "both long-run variances are zero",
            "t1_har_boot": "both long-run variances are zero",
        }
        for fit in result.groups:
            assert (fit.lrv.k, fit.lrv.omega) == (1, 0.0)
            assert fit.k_note == "residuals carry no variation"

    def test_bad_explicit_k_propagates(self):
        y1, y2 = wfh_pair()
        with pytest.raises(DomainError):
            evaluate(y1, y2, k1=30, k2=5, alpha=0.05, n_boot=49, seed=0)

    def test_lrv_projected_once_per_group(self, monkeypatch):
        calls = []
        original = basis.dft

        def counting(u):
            calls.append(u.shape)
            return original(u)

        monkeypatch.setattr(basis, "dft", counting)
        y1, y2 = wfh_pair()
        assert calls == [(37, 1), (85, 1)]  # one (T, R) block per simulate_series call
        result = evaluate(y1, y2, k1="auto", k2="auto", alpha=0.05, n_boot=49, seed=3)
        assert calls == [(37, 1), (85, 1)]  # evaluate only reads the two spectra
        for y, group in zip((y1, y2), result.groups):
            assert series_lrv(y, group.lrv.k).omega == group.lrv.omega

    @pytest.mark.parametrize(("k1", "k2"), [("auto", "auto"), (3, 5)])
    def test_analytic_tests_reuse_the_group_lrvs(self, monkeypatch, k1, k2):
        calls = {"series_lrv": [], "har_welch_t": [], "two_sided_p": []}
        for module in (simlab_mod, sharwb_mod, ttests_mod):
            for name in calls:
                original = getattr(module, name, None)
                if original is None:
                    continue

                def counting(*args, _name=name, _original=original, **kwargs):
                    calls[_name].append(np.size(args[0]))
                    return _original(*args, **kwargs)

                monkeypatch.setattr(module, name, counting)
        y1, y2 = wfh_pair()
        result = evaluate(y1, y2, k1=k1, k2=k2, alpha=0.05, n_boot=49, seed=3)
        assert result.na == {}
        # one LRV call per group, on all its samples, which every robust test
        # reads; shar_wb_test shares har_welch_t's statistic without a
        # p-value of its own; the analytic p-values take one call per
        # reference kind: Student's t for four tests, N(0, 1) for one
        assert calls == {"series_lrv": [1, 1], "har_welch_t": [1, 1], "two_sided_p": [4, 1]}
        # the same calls for three pairs, each on all of them
        for made in calls.values():
            made.clear()
        result = evaluate([y1] * 3, [y2] * 3, k1=k1, k2=k2, alpha=0.05, n_boot=49, seed=[3] * 3)
        assert result.excluded() == set()
        assert calls == {"series_lrv": [3, 3], "har_welch_t": [3, 3], "two_sided_p": [12, 3]}

    def test_variance_taken_once_per_group(self, monkeypatch):
        # with explicit K no AR(1) plug-in runs, so every residual product
        # under lrv's BLAS guard is a sum of squares for a variance
        entries = []
        original = lrv_mod._calling_thread_blas

        def counting():
            entries.append(1)
            return original()

        monkeypatch.setattr(lrv_mod, "_calling_thread_blas", counting)
        y1, y2 = wfh_pair()
        result = evaluate(y1, y2, k1=3, k2=5, alpha=0.05, n_boot=49, seed=3)
        assert len(entries) == 2
        for name in ("t0", "t1"):
            detail = result.reports[name].detail
            assert (detail["var1"], detail["var2"]) == (y1.variance(), y2.variance())
        assert len(entries) == 2  # variance() reads the stored sum of squares

    def test_sequence_form_matches_one_call_per_pair(self, monkeypatch):
        # group 1 has K = 3 throughout, a bucket taken two pairs at a time;
        # group 2's K is selected, so it varies; pair 2 is constant (all NA)
        # and replicate 5 of pair 3 is forced degenerate, so it is redrawn
        rng = np.random.default_rng(5)
        y1s = [simulate_series(n, rho, 1.0, 0.0, "normal", rng)
               for n, rho in ((60, 0.0), (60, 0.5), (20, 0.0), (37, 0.8), (60, 0.5))]
        y2s = [simulate_series(n, rho, 2.0, 0.3, "normal", rng)
               for n, rho in ((85, 0.0), (50, 0.8), (20, 0.0), (40, 0.0), (60, 0.5))]
        y1s[2] = y2s[2] = TimeSeriesSample.from_values([2.0] * 20)
        seeds = [3, 4, 5, 6, 7]
        target = y1s[3]
        original = sharwb_mod._replicate_stats

        def with_hole(pairs, draw, batch=()):
            out = original(pairs, draw, batch)
            for j, (fit1, _) in enumerate(pairs):
                if batch and fit1.sample is target:
                    out[j, 5] = np.nan
            return out

        monkeypatch.setattr(sharwb_mod, "_replicate_stats", with_hole)
        # two K = 3 pairs per sub-batch at B = 49: 2 * (9 * 49 + 18) doubles
        monkeypatch.setattr(sharwb_mod, "_MAX_STACK_DOUBLES", 918)
        kw = {"k1": 3, "k2": "auto", "alpha": 0.05, "n_boot": 49}
        columns = evaluate(y1s, y2s, seed=seeds, **kw)
        assert list(columns.tests) == list(TEST_COLUMNS)
        assert columns.excluded() == {2}
        for name, test in columns.tests.items():
            assert set(test.na) == {2} and not test.reject[2], name
        assert columns.replicate_stats.shape == (5, 49)
        assert np.isnan(columns.replicate_stats[2]).all()
        results = [columns.evaluation(i) for i in range(5)]
        assert set(results[2].na) == set(TEST_COLUMNS) and results[2].bootstrap is None
        assert len({fit.lrv.k for _, fit in (r.groups for r in results)}) > 2
        for i, (y1, y2, seed, got) in enumerate(zip(y1s, y2s, seeds, results)):
            want = evaluate(y1, y2, seed=seed, **kw)
            for name, report in want.reports.items():
                assert columns.tests[name].reject[i] == report.reject, name
            assert got.na == want.na
            assert [(f.lrv.k, f.k_note) for f in got.groups] == [
                (f.lrv.k, f.k_note) for f in want.groups]
            assert list(got.reports) == list(want.reports)
            for name, report in want.reports.items():
                assert got.reports[name].reject == report.reject, name
                assert got.reports[name].statistic == pytest.approx(report.statistic, rel=1e-10)
                assert got.reports[name].p_value == pytest.approx(report.p_value, rel=1e-10)
            if want.bootstrap is not None:
                assert got.bootstrap.n_redrawn == want.bootstrap.n_redrawn
                stats, ref = got.bootstrap.replicate_stats, want.bootstrap.replicate_stats
                assert np.all(np.abs(stats - ref) <= 1e-10 * np.abs(ref))
        assert [r.bootstrap.n_redrawn for r in results if r.bootstrap] == [0, 0, 1, 0]

    def test_power_of_two_scaling_keeps_every_result(self):
        # scaling by 2^k is exact and every test is scale-free, so nothing
        # may move while the sums of squares stay normal floats
        def outcome(k):
            y1, y2 = (TimeSeriesSample.from_values(np.ldexp(y.values, k)) for y in wfh_pair())
            result = evaluate(y1, y2, k1="auto", k2="auto", alpha=0.05, n_boot=49, seed=3)
            return (
                result.na,
                [fit.lrv.k for fit in result.groups],
                [(r.statistic, r.p_value, r.reference.df) for r in result.reports.values()],
                result.bootstrap.replicate_stats.tobytes(),
            )

        base = outcome(0)
        assert base[0] == {}
        for k in range(-500, 511, 10):
            assert outcome(k) == base, k


class TestSimulateSeries:
    def test_iid_normal_variance(self):
        rng = np.random.default_rng(0)
        s = simulate_series(100_000, 0.0, 1.0, 5.0, "normal", rng)
        assert 0.98 <= s.variance() <= 1.02
        assert s.mean == pytest.approx(5.0, abs=0.02)

    def test_lag_one_autocorrelation(self):
        rng = np.random.default_rng(1)
        s = simulate_series(100_000, 0.8, 1.0, 0.0, "normal", rng)
        u = s.residuals
        rho1 = float(u[1:].dot(u[:-1]) / u.dot(u))
        assert 0.79 <= rho1 <= 0.81

    def test_variance_targeting_across_rho(self):
        for seed, rho in enumerate((0.0, 0.5, 0.8)):
            rng = np.random.default_rng(10 + seed)
            s = simulate_series(100_000, rho, 2.5, 1.0, "normal", rng)
            assert s.variance() == pytest.approx(2.5**2, rel=0.03)

    def test_chisq_errors_skewed(self):
        # standardized chi-square(1) innovations keep skewness sqrt(8)
        rng = np.random.default_rng(2)
        s = simulate_series(1_000_000, 0.0, 1.0, 0.0, "chisq1", rng)
        u = s.residuals
        skew = float(np.mean(u**3) / np.mean(u**2) ** 1.5)
        assert 2.7 <= skew <= 2.95

    def test_rho_bounds(self):
        rng = np.random.default_rng(3)
        with pytest.raises(DomainError):
            simulate_series(50, 1.0, 1.0, 0.0, "normal", rng)
        with pytest.raises(DomainError):
            simulate_series(50, -1.2, 1.0, 0.0, "normal", rng)

    def test_unknown_law(self):
        rng = np.random.default_rng(4)
        with pytest.raises(DomainError):
            simulate_series(50, 0.0, 1.0, 0.0, "cauchy", rng)

    @pytest.mark.parametrize("law", ["normal", "chisq1"])
    @pytest.mark.parametrize("rho", [-0.9, 0.0, 0.5, 0.8])
    @pytest.mark.parametrize("n", [4, 30, 201])
    @pytest.mark.parametrize("n_gen", [1, 7])
    def test_batch_columns_match_scalar_recursion(self, law, rho, n, n_gen):
        seeds = np.random.SeedSequence(n).spawn(n_gen)
        got = simulate_series(
            n, rho, 1.7, -2.5, law, [np.random.default_rng(ss) for ss in seeds]
        )
        assert len(got) == n_gen
        for sample, ss in zip(got, seeds):
            v = simlab_mod._innovations(np.random.default_rng(ss), n + 1, law)
            want = oracles.ar1_paths(n, rho, 1.7, -2.5, v)
            assert sample.values.tobytes() == want.tobytes()

    def test_single_generator_is_a_batch_of_one(self):
        one = simulate_series(50, 0.5, 2.0, 1.0, "normal", np.random.default_rng(8))
        (batch,) = simulate_series(50, 0.5, 2.0, 1.0, "normal", [np.random.default_rng(8)])
        assert isinstance(one, TimeSeriesSample)
        assert one.values.tobytes() == batch.values.tobytes()
        assert one.mean == batch.mean
        assert one.residuals.tobytes() == batch.residuals.tobytes()


class TestScenario:
    def test_validation(self):
        with pytest.raises(DomainError):
            Scenario(t1=2, t2=30, rho=0.0)
        with pytest.raises(DomainError):
            Scenario(t1=30, t2=30, rho=1.0)
        with pytest.raises(DomainError):
            Scenario(t1=30, t2=30, rho=0.0, a=-1.0)
        with pytest.raises(DomainError):
            Scenario(t1=30, t2=30, rho=0.0, n_boot=5)
        with pytest.raises(DomainError, match="seed must be >= 0"):
            Scenario(t1=30, t2=30, rho=0.0, seed=-1)
        for field_name, value in [("sigma1", math.nan), ("sigma2", math.inf),
                                  ("mu1", -math.inf), ("mu1", math.nan), ("a", math.inf)]:
            with pytest.raises(DomainError, match=f"^{field_name} must be finite"):
                Scenario(t1=30, t2=30, rho=0.0, **{field_name: value})
        with pytest.raises(DomainError, match=r"^mu2 = a \* mu1 overflows"):
            Scenario(t1=30, t2=30, rho=0.0, mu1=1e308, a=10.0)

    def test_mu2(self):
        sc = Scenario(t1=30, t2=30, rho=0.0, mu1=5.0, a=1.2)
        assert sc.mu2 == pytest.approx(6.0)


class TestRunCell:
    def test_structure_and_determinism(self):
        sc = Scenario(t1=40, t2=36, rho=0.3, seed=11, **FAST)
        res1 = run_cell(sc)
        res2 = run_cell(sc)
        assert isinstance(res1, CellResult)
        assert set(res1.rejection_rates) == set(TEST_COLUMNS)
        for name in TEST_COLUMNS:
            rate = res1.rejection_rates[name]
            assert 0.0 <= rate <= 1.0
            assert res1.reject_counts[name] == round(rate * res1.n_completed)
            se = res1.mc_standard_errors[name]
            assert se == pytest.approx(
                math.sqrt(rate * (1.0 - rate) / res1.n_completed)
            )
        # bit-for-bit reproducible given the seed (runtime excluded from eq)
        assert res1.rejection_rates == res2.rejection_rates
        assert res1.reject_counts == res2.reject_counts
        assert res1 == res2

    def test_numpy_integer_seed(self, one_process):
        # a seed taken from a numpy array, as a loop over np.arange gives it
        sc = Scenario(t1=40, t2=36, rho=0.3, seed=11, **FAST)
        assert run_cell(replace(sc, seed=np.int64(11))) == run_cell(sc)

    def test_no_exclusions_under_normal_errors(self):
        res = run_cell(Scenario(t1=30, t2=30, rho=0.5, seed=5, **FAST))
        assert res.n_excluded == 0
        assert res.n_completed == FAST["n_mc"]

    def test_result_does_not_depend_on_the_chunk_size(self, monkeypatch, one_process):
        sc = Scenario(t1=40, t2=36, rho=0.3, seed=11, **FAST)
        whole = run_cell(sc)
        calls = []
        original = simlab_mod.simulate_series

        def counting(n, rho, sigma, mu, law, rngs):
            calls.append(len(rngs))
            return original(n, rho, sigma, mu, law, rngs)

        monkeypatch.setattr(simlab_mod, "simulate_series", counting)
        for per_chunk in (1, 3, FAST["n_mc"]):
            calls.clear()
            monkeypatch.setattr(simlab_mod, "_MAX_BLOCK_DOUBLES", 41 * per_chunk)
            assert run_cell(sc) == whole
            sizes = [per_chunk] * (FAST["n_mc"] // per_chunk)
            sizes += [FAST["n_mc"] % per_chunk] if FAST["n_mc"] % per_chunk else []
            assert calls == [size for size in sizes for _ in range(2)]

    def test_memory_flat_in_n_mc_once_chunked(self, monkeypatch, one_process):
        # three replications of T = 2000 per chunk: the chunk's samples are
        # most of the peak, and quadrupling n_mc adds only its seeds
        monkeypatch.setattr(simlab_mod, "_MAX_BLOCK_DOUBLES", 3 * 2001)
        peaks = []
        for n_mc in (1, 8, 32):  # the first run fills numpy's FFT caches
            sc = Scenario(t1=2000, t2=2000, rho=0.5, seed=3, n_mc=n_mc, n_boot=19)
            tracemalloc.start()
            try:
                run_cell(sc)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[2] < 1.1 * peaks[1], peaks

    def test_memory_flat_in_n_mc_with_stacked_bootstraps(self, monkeypatch, one_process):
        # 64 white-noise replications of T = 200 per chunk (K about 30) at
        # B = 399: one group's draws for a whole chunk take about 12 MiB,
        # but a sub-batch holds at most _MAX_STACK_DOUBLES doubles, and one
        # chunk's samples and results are freed before the next is drawn
        monkeypatch.setattr(simlab_mod, "_MAX_CHUNK_PAIRS", 64)
        drawn = []
        original = sharwb_mod._group_moments

        def recording(fits, draw, batch):
            def piece(shape):
                v = draw(shape)
                drawn.append(v.nbytes)
                return v

            return original(fits, piece, batch)

        monkeypatch.setattr(sharwb_mod, "_group_moments", recording)
        peaks = []
        for n_mc in (16, 64, 256):  # the first run fills numpy's FFT caches
            drawn.clear()
            sc = Scenario(t1=200, t2=200, rho=0.0, seed=3, n_mc=n_mc, n_boot=399)
            tracemalloc.start()
            try:
                run_cell(sc)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[2] < 1.1 * peaks[1], peaks
        assert max(drawn) <= 8 * sharwb_mod._MAX_STACK_DOUBLES
        one_group_per_chunk = sum(drawn) / (2 * 256 // 64)
        assert peaks[2] < one_group_per_chunk / 2, (peaks, one_group_per_chunk)

    def test_seeds_spawned_one_chunk_at_a_time(self, monkeypatch, one_process):
        # one replication of T = 8 per chunk: spawning every replication's
        # SeedSequence before the first chunk grew the peak by ~350 bytes
        # per replication.  The peak is read after replication 40 of a cell
        # of 40 and of a cell of 400, so both runs have evaluated the same
        # replications (the same K mix).  A first run of 2 000 replications
        # fills numpy's FFT caches and the interpreter's free lists, whose
        # objects the trace would otherwise count as they accumulate.
        monkeypatch.setattr(simlab_mod, "_MAX_BLOCK_DOUBLES", 9)
        run_cell(Scenario(t1=8, t2=8, rho=0.5, seed=3, n_mc=2000, n_boot=19))
        original, peaks = simlab_mod._tally_chunk, []

        def peak_after_replication_40(scenario, reps, counts):
            excluded = original(scenario, reps, counts)
            if reps.stop == 40:
                peaks.append(tracemalloc.get_traced_memory()[1])
            return excluded

        monkeypatch.setattr(simlab_mod, "_tally_chunk", peak_after_replication_40)
        for n_mc in (40, 400):
            sc = Scenario(t1=8, t2=8, rho=0.5, seed=3, n_mc=n_mc, n_boot=19)
            tracemalloc.start()
            try:
                run_cell(sc)
            finally:
                tracemalloc.stop()
        assert peaks[1] < 1.1 * peaks[0], peaks

    def test_replication_with_any_na_is_excluded(self, monkeypatch, one_process):
        # a constant first group leaves only t1_har NA (zero LRV, no adjusted
        # df); that alone excludes the replication
        original = simlab_mod.simulate_series
        seen = []

        def first_sample_constant_once(n, rho, sigma, mu, law, rngs):
            seen.append((n, len(rngs)))
            samples = original(n, rho, sigma, mu, law, rngs)
            if len(seen) == 1:
                samples[0] = TimeSeriesSample.from_values([mu] * n)
            return samples

        monkeypatch.setattr(simlab_mod, "simulate_series", first_sample_constant_once)
        res = run_cell(Scenario(t1=30, t2=31, rho=0.0, seed=5, **FAST))
        assert seen == [(30, FAST["n_mc"]), (31, FAST["n_mc"])]
        assert res.n_excluded == 1
        assert res.n_completed == FAST["n_mc"] - 1

    def test_power_exceeds_size_at_large_shift(self):
        null = run_cell(Scenario(t1=60, t2=60, rho=0.0, a=1.0, seed=21, **FAST))
        alt = run_cell(Scenario(t1=60, t2=60, rho=0.0, a=1.2, seed=21, **FAST))
        assert (
            alt.rejection_rates["t1_har_boot"] > null.rejection_rates["t1_har_boot"]
        )

    def test_bootstrap_null_calibration_moderate_dependence(self):
        # AR(1) rho=0.5, equal LRVs, T=200: the bootstrap test's size at
        # the 5% level should land within 1.5pp of the 4.61% target
        res = run_cell(
            Scenario(t1=200, t2=200, rho=0.5, seed=1234, n_mc=2000, n_boot=199)
        )
        assert abs(100.0 * res.rejection_rates["t1_har_boot"] - 4.61) <= 1.5

    def test_size_power_ordering_har_tests(self):
        # power(a=1.2) >= power(a=1.1) >= size(a=1) for every robust test
        cells = {
            a: run_cell(
                Scenario(t1=400, t2=400, rho=0.5, a=a, seed=14, n_mc=2000, n_boot=199)
            )
            for a in (1.0, 1.1, 1.2)
        }
        for name in ("t0_har", "t1_har_norm", "t1_har", "t1_har_boot"):
            r0 = cells[1.0].rejection_rates[name]
            r1 = cells[1.1].rejection_rates[name]
            r2 = cells[1.2].rejection_rates[name]
            assert r2 >= r1 >= r0, f"{name}: {r0}, {r1}, {r2}"


# The five acceptance cells that bench/child.py sweeps (c1 to c4b).
BENCH_CELLS = [
    {"t1": 200, "t2": 200, "rho": 0.0},
    {"t1": 200, "t2": 200, "rho": 0.8},
    {"t1": 30, "t2": 30, "rho": 0.5, "sigma1": 0.06, "sigma2": 0.18},
    {"t1": 200, "t2": 200, "rho": 0.8, "a": 1.1},
    {"t1": 200, "t2": 200, "rho": 0.8, "a": 1.2},
]
SRC = Path(__file__).resolve().parents[1] / "src"
CALIBRATIONS = Path(__file__).resolve().parents[1] / "scripts" / "compare_k_calibrations.py"


@pytest.fixture
def fresh_workers():
    """Workers forked during the test, so that they see its patches; they
    are stopped after it, so that no later test meets those patches."""
    simlab_mod._stop_workers()
    yield
    simlab_mod._stop_workers()


def results_by_process_count(monkeypatch, scenario) -> dict:
    """run_cell's result for each forced process count, 1 to 3."""
    results = {}
    for n in (1, 2, 3):
        monkeypatch.setattr(simlab_mod, "_cpu_count", lambda n=n: n)
        results[n] = run_cell(scenario)
    return results


def start_caller(tail: str = "") -> tuple[subprocess.Popen, list[int]]:
    """A `python -c` caller that splits a cell over two processes, prints its
    workers' pids, then runs ``tail``; returns it and the pids."""
    code = (
        "import signal\n"
        "signal.alarm(120)\n"  # a caller that hangs ends, and so does readline
        "import harmeans.simlab as simlab\n"
        "simlab._cpu_count = lambda: 2\n"
        "simlab.run_cell(simlab.Scenario(t1=30, t2=30, rho=0.5, n_mc=32, n_boot=19))\n"
        "print(*[process.pid for process, _ in simlab._workers], flush=True)\n"
    ) + tail
    path = os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])
    caller = subprocess.Popen(
        [sys.executable, "-c", code], stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, env={**os.environ, "PYTHONPATH": path},
    )
    return caller, [int(pid) for pid in caller.stdout.readline().split()]


def running(pid: int) -> bool:
    """The process exists and has not exited (a zombie has)."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] not in "ZX"
    except FileNotFoundError:
        return False


def wait_gone(pids: list[int], seconds: float) -> list[int]:
    deadline = time.monotonic() + seconds
    while any(map(running, pids)) and time.monotonic() < deadline:
        time.sleep(0.05)
    return [pid for pid in pids if running(pid)]


class TestProcesses:
    @pytest.mark.parametrize(
        ("cell", "n_mc"),
        [pytest.param(cell, 100, id=f"{name}-100")
         for name, cell in zip(("c1", "c2", "c3", "c4a", "c4b"), BENCH_CELLS)]
        + [pytest.param(BENCH_CELLS[2], 50, id="c3-50"),  # 3 processes: 16, 17 and 17
           pytest.param(BENCH_CELLS[2], 31, id="c3-31")],  # below the split: one process
    )
    def test_counts_equal_for_one_two_and_three_processes(self, monkeypatch, cell, n_mc):
        splits, original = [], simlab_mod._tally_split

        def recording(scenario, ranges, counts):
            splits.append([(r.start, r.stop) for r in ranges])
            return original(scenario, ranges, counts)

        monkeypatch.setattr(simlab_mod, "_tally_split", recording)
        results = results_by_process_count(
            monkeypatch, Scenario(seed=7, n_mc=n_mc, n_boot=199, **cell))
        for n in (2, 3):  # reject counts and rates, n_completed and n_excluded
            assert results[n] == results[1]
        assert (results[1].n_completed, results[1].n_excluded) == (n_mc, 0)
        want = {100: [[(0, 50), (50, 100)], [(0, 33), (33, 66), (66, 100)]],
                50: [[(0, 25), (25, 50)], [(0, 16), (16, 33), (33, 50)]],
                31: []}
        assert splits == want[n_mc]

    def test_exclusions_equal_for_one_two_and_three_processes(self, monkeypatch, fresh_workers):
        # replications 10 (the caller's range) and 80 (a worker's) have a
        # constant first sample, so t1_har is NA and both are excluded
        original = simlab_mod.simulate_series

        def constant_in_two_replications(n, rho, sigma, mu, law, rngs):
            samples = original(n, rho, sigma, mu, law, rngs)
            for i, rng in enumerate(rngs):
                if rng.bit_generator.seed_seq.spawn_key in ((10, 0), (80, 0)):
                    samples[i] = TimeSeriesSample.from_values([mu] * n)
            return samples

        monkeypatch.setattr(simlab_mod, "simulate_series", constant_in_two_replications)
        results = results_by_process_count(
            monkeypatch, Scenario(t1=30, t2=31, rho=0.0, seed=5, n_mc=100, n_boot=29))
        assert len(simlab_mod._workers) == 2
        for n in (1, 2, 3):
            assert (results[n].n_excluded, results[n].n_completed) == (2, 98)
            assert results[n] == results[1]

    @pytest.mark.parametrize("where", ["caller", "worker"])
    def test_exception_reaches_the_caller(self, monkeypatch, fresh_workers, where):
        original = simlab_mod._tally_chunk
        failing = 0 if where == "caller" else 39

        def fails_in_one_range(scenario, reps, counts):
            if scenario.seed == 99 and failing in reps:
                raise DegenerateSampleError(f"replication {failing} failed")
            return original(scenario, reps, counts)

        monkeypatch.setattr(simlab_mod, "_tally_chunk", fails_in_one_range)
        monkeypatch.setattr(simlab_mod, "_cpu_count", lambda: 2)
        with pytest.raises(DegenerateSampleError) as info:
            run_cell(Scenario(t1=30, t2=30, rho=0.5, seed=99, n_mc=40, n_boot=19))
        assert type(info.value) is DegenerateSampleError
        assert str(info.value) == f"replication {failing} failed"
        # the caller discards busy workers; a worker's error leaves it ready
        assert len(simlab_mod._workers) == (0 if where == "caller" else 1)
        sc = Scenario(t1=30, t2=30, rho=0.5, seed=5, n_mc=40, n_boot=19)
        split = run_cell(sc)
        monkeypatch.setattr(simlab_mod, "_cpu_count", lambda: 1)
        assert split == run_cell(sc)

    def test_a_worker_that_died_is_replaced_after_one_failed_cell(
        self, monkeypatch, fresh_workers
    ):
        monkeypatch.setattr(simlab_mod, "_cpu_count", lambda: 2)
        sc = Scenario(t1=30, t2=30, rho=0.5, seed=5, n_mc=40, n_boot=19)
        split = run_cell(sc)
        ((process, _),) = simlab_mod._workers
        process.kill()
        process.join(timeout=10)
        assert process.exitcode == -signal.SIGKILL
        with pytest.raises(RuntimeError, match="^a lab worker process has exited$"):
            run_cell(sc)
        assert simlab_mod._workers == []
        assert run_cell(sc) == split
        assert len(simlab_mod._workers) == 1

    def test_a_worker_runs_its_cells_alone(self, monkeypatch, fresh_workers):
        # the caller splits; a cell that a worker ran would not be split
        caller, cpu_count = os.getpid(), simlab_mod._cpu_count
        monkeypatch.setattr(
            simlab_mod, "_cpu_count", lambda: 2 if os.getpid() == caller else cpu_count())
        original = simlab_mod._tally_range

        def report_from_the_worker(scenario, reps, counts):
            if os.getpid() != caller:
                raise DomainError(f"a worker may use {simlab_mod._cpu_count()} process(es)")
            return original(scenario, reps, counts)

        monkeypatch.setattr(simlab_mod, "_tally_range", report_from_the_worker)
        with pytest.raises(DomainError, match=r"^a worker may use 1 process\(es\)$"):
            run_cell(Scenario(t1=30, t2=30, rho=0.5, seed=5, n_mc=32, n_boot=19))

    def test_calibration_script_rows_equal_for_one_and_two_processes(
        self, monkeypatch, capsys, fresh_workers
    ):
        # the script rebinds lrv._curvature_b between cells: a worker forked
        # under one rule must not run the other rule's replications
        spec = importlib.util.spec_from_file_location("compare_k_calibrations", CALIBRATIONS)
        script = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(script)
        monkeypatch.setattr(sys, "argv", [str(CALIBRATIONS), "--n-mc", "32", "--B", "19"])
        outputs = []
        for n in (1, 2):
            monkeypatch.setattr(simlab_mod, "_cpu_count", lambda n=n: n)
            assert script.main() == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[1] == outputs[0]
        assert len(simlab_mod._workers) == 1

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc")
    def test_workers_stop_when_the_caller_exits(self):
        caller, pids = start_caller()
        out, err = caller.communicate(timeout=60)
        assert caller.returncode == 0, err
        assert len(pids) == 1
        assert err == ""  # interpreter exit prints nothing
        assert wait_gone(pids, 5.0) == []

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc")
    def test_workers_exit_when_the_caller_is_killed(self):
        # the second cell keeps both processes busy for minutes
        caller, pids = start_caller(
            "simlab.run_cell(simlab.Scenario(t1=200, t2=200, rho=0.5, n_mc=10**6, n_boot=199))\n")
        try:
            assert len(pids) == 1
            time.sleep(1.0)
            assert running(pids[0])
            caller.send_signal(signal.SIGKILL)
            caller.wait(timeout=10)
            assert wait_gone(pids, 5.0) == []
        finally:  # workers share the caller's pipes: stop them before reading
            caller.kill()
            for pid in filter(running, pids):
                os.kill(pid, signal.SIGKILL)
            caller.communicate(timeout=30)


class TestRunTable:
    def test_single_cell_artifacts(self, tmp_path):
        sc = Scenario(t1=30, t2=30, rho=0.0, seed=7, **FAST)
        text_path = tmp_path / "cell.tsv"
        json_path = tmp_path / "cell.json"
        results = run_table([sc], text_path, json_path)
        assert len(results) == 1
        lines = text_path.read_text().strip().splitlines()
        assert len(lines) == 2  # header + one data row
        header = lines[0].split("\t")
        for name in TEST_COLUMNS:
            assert f"{name}%" in header
            assert f"se_{name}" in header
        payload = json.loads(json_path.read_text())
        assert payload["columns"] == list(TEST_COLUMNS)
        cell = payload["cells"][0]
        assert cell["scenario"]["seed"] == 7
        assert cell["n_excluded"] == 0
        assert set(cell["reject_counts"]) == set(TEST_COLUMNS)

    def test_empty_grid_rejected(self, tmp_path):
        with pytest.raises(DomainError):
            run_table([], tmp_path / "empty.tsv", tmp_path / "empty.json")
        assert list(tmp_path.iterdir()) == []

    def test_failed_run_leaves_earlier_artifacts_unchanged(self, tmp_path, monkeypatch):
        grid = [Scenario(t1=30, t2=30, rho=rho, seed=7, n_mc=4, n_boot=19) for rho in (0.0, 0.5)]
        text_path, json_path = tmp_path / "grid.tsv", tmp_path / "grid.json"
        run_table(grid, text_path, json_path)
        before = text_path.read_bytes(), json_path.read_bytes()
        original, calls = simlab_mod.run_cell, []

        def second_cell_fails(scenario):
            calls.append(scenario)
            if len(calls) == 2:
                raise RuntimeError("cell failed")
            return original(scenario)

        monkeypatch.setattr(simlab_mod, "run_cell", second_cell_fails)
        with pytest.raises(RuntimeError, match="cell failed"):
            run_table(grid, text_path, json_path)
        assert len(calls) == 2
        assert (text_path.read_bytes(), json_path.read_bytes()) == before

    def test_rerun_replaces_a_longer_artifact(self, tmp_path):
        grid = [Scenario(t1=30, t2=30, rho=rho, seed=7, n_mc=4, n_boot=19) for rho in (0.0, 0.5)]
        run_table(grid[:1], tmp_path / "fresh.tsv", tmp_path / "fresh.json")
        run_table(grid, tmp_path / "x.tsv", tmp_path / "x.json")
        run_table(grid[:1], tmp_path / "x.tsv", tmp_path / "x.json")
        for ext in (".tsv", ".json"):
            assert (tmp_path / f"x{ext}").read_bytes() == (tmp_path / f"fresh{ext}").read_bytes()

    def test_unwritable_path_fails_before_the_first_cell(self, tmp_path, monkeypatch):
        def no_cell(scenario):
            raise AssertionError("a cell ran")

        monkeypatch.setattr(simlab_mod, "run_cell", no_cell)
        sc = Scenario(t1=30, t2=30, rho=0.0, **FAST)
        with pytest.raises(FileNotFoundError):
            run_table([sc], tmp_path / "missing" / "x.tsv", tmp_path / "x.json")
        with pytest.raises(FileNotFoundError):
            run_table([sc], tmp_path / "x.tsv", tmp_path / "missing" / "x.json")

    def test_preset_shapes(self):
        grid1 = preset_scenarios("table1-desk", n_mc=10, n_boot=29)
        assert len(grid1) == 9  # three T pairs x three rho
        assert {s.error_law for s in grid1} == {"normal"}
        assert all(s.sigma1 == s.sigma2 == 1.0 for s in grid1)

        grid2 = preset_scenarios("table2-desk", n_mc=10, n_boot=29)
        assert all((s.sigma1, s.sigma2) == (0.06, 0.18) for s in grid2)

        grid4 = preset_scenarios("table4-desk", n_mc=10, n_boot=29)
        assert {s.error_law for s in grid4} == {"chisq1"}

        grid5 = preset_scenarios("table5-desk", n_mc=10, n_boot=29)
        assert {s.a for s in grid5} == {1.1, 1.2}
        assert len(grid5) == 12

    def test_unknown_preset(self):
        with pytest.raises(DomainError):
            preset_scenarios("table9-desk")

    def test_presets_never_exclude_replications(self):
        # continuous error laws cannot produce degenerate samples
        for name in ("table1-desk", "table3-desk"):
            for sc in preset_scenarios(name, n_mc=8, n_boot=29)[:3]:
                assert run_cell(sc).n_excluded == 0

    def test_desk_grid_runs_structurally(self, tmp_path):
        grid = preset_scenarios("table1-desk", n_mc=5, n_boot=29)
        text_path = tmp_path / "t1.tsv"
        results = run_table(grid, text_path, tmp_path / "t1.json")
        assert len(results) == 9
        lines = text_path.read_text().strip().splitlines()
        assert len(lines) == 10
        for line in lines[1:]:
            cols = line.split("\t")
            rates = [float(c) for c in cols[5:11]]
            assert all(0.0 <= r <= 100.0 for r in rates)


def lab_groups(scenario, chunk=256):
    """Every replication's two samples, as the lab simulates them, a chunk
    at a time."""
    for lo in range(0, scenario.n_mc, chunk):
        y1s, y2s, _ = simlab_mod._chunk_samples(scenario, range(lo, min(lo + chunk, scenario.n_mc)))
        yield y1s
        yield y2s


def oracle_ks(samples) -> list:
    return [oracles.select_k(y).k_hat for y in samples]


def selection_bytes(selection) -> tuple:
    """A ``KSelection``'s five fields, its floats as their bytes."""
    return (selection.k_hat, np.array([selection.a_hat, selection.sigma_hat, selection.b_bar]).tobytes(),
            selection.clamped)


def assert_selections_equal_the_oracle(samples):
    """select_k on each sample, and on all of them in one call, against the
    one-sample rule in Python floats."""
    want = [selection_bytes(oracles.select_k(y)) for y in samples]
    assert [selection_bytes(lrv_mod.select_k(y)) for y in samples] == want
    ks, notes = lrv_mod.select_k(samples)
    assert ks.tolist() == [k for k, _, _ in want]
    assert notes == [None] * len(samples)


class TestColumnarK:
    """select_k, one sample at a time and on a chunk's samples, against the
    one-sample rule in Python floats (``oracles.select_k``)."""

    @pytest.mark.parametrize("cell", BENCH_CELLS, ids=("c1", "c2", "c3", "c4a", "c4b"))
    def test_acceptance_cells(self, cell):
        # every replication of the acceptance suite's cells (seed 1234)
        for samples in lab_groups(Scenario(seed=1234, n_mc=2000, n_boot=199, **cell)):
            ks, notes = lrv_mod.select_k(samples)
            assert ks.tolist() == oracle_ks(samples)
            assert notes == [None] * len(samples)

    @pytest.mark.parametrize("name", simlab_mod.PRESET_NAMES)
    def test_presets(self, name):
        for scenario in preset_scenarios(name, n_mc=40, n_boot=19):
            for samples in lab_groups(scenario):
                assert lrv_mod.select_k(samples)[0].tolist() == oracle_ks(samples)

    @pytest.mark.parametrize("name", [*simlab_mod.PRESET_NAMES, "acceptance-cells"])
    def test_selection_bytes_on_lab_samples(self, name):
        # both groups of every replication, n_mc = 200
        if name == "acceptance-cells":
            scenarios = [Scenario(seed=1234, n_mc=200, n_boot=199, **cell) for cell in BENCH_CELLS]
        else:
            scenarios = preset_scenarios(name, n_mc=200, n_boot=19)
        for scenario in scenarios:
            for samples in lab_groups(scenario):
                assert_selections_equal_the_oracle(samples)

    def test_selection_bytes_on_a_grid(self):
        # short to long series, white to near unit-root, at scales 1e-5 to
        # 1e5, all lengths in one call; a series whose B_bar is 0; and
        # lengths 30 and 200 interleaved in one call
        samples = [
            TimeSeriesSample.from_values(
                scale * simulate_series(t, rho, 1.0, 0.0, "normal", np.random.default_rng(seed)).values)
            for t in (4, 5, 7, 13, 50, 1000)
            for rho in (-0.9, 0.0, 0.97, 0.999)
            for scale in 10.0 ** np.arange(-5, 6)
            for seed in (0, 1)
        ]
        flat_curvature = TimeSeriesSample.from_values([1.0, 0.0, -1.0, 0.0] * 3)
        assert oracles.select_k(flat_curvature).b_bar == 0.0
        assert_selections_equal_the_oracle([*samples, flat_curvature])
        rng = np.random.default_rng(31)
        assert_selections_equal_the_oracle(
            [simulate_series(t, 0.5, 1.0, 0.0, "normal", rng) for t in (30, 200, 200, 30, 200)])

    def test_near_integer_and_degenerate_rows_match_the_oracle(self, monkeypatch):
        rng = np.random.default_rng(8)
        samples = simulate_series(120, 0.5, 1.0, 0.0, "normal", [rng] * 30)
        flat = TimeSeriesSample.from_values([3.0] * 120)
        # at 2^-538 the innovation variance underflows to zero
        tiny = TimeSeriesSample.from_values(np.ldexp(rng.standard_normal(120), -538))
        samples[4], samples[9] = flat, tiny
        ks, notes = lrv_mod.select_k(samples)
        assert [i for i, note in enumerate(notes) if note] == [4, 9]
        assert notes[4] == "residuals carry no variation"
        assert notes[9] == "AR(1) innovations carry no variation"
        for y, note in ((flat, notes[4]), (tiny, notes[9])):
            with pytest.raises(DegenerateSampleError, match=re.escape(note)):
                oracles.select_k(y)
        assert ks[4] == ks[9] == 1
        rest = [y for i, y in enumerate(samples) if i not in (4, 9)]
        assert [k for i, k in enumerate(ks) if i not in (4, 9)] == oracle_ks(rest)
        # a curvature whose raw K is 10 up to rounding puts every row in
        # reach of the ceiling
        scale = (0.42293 * 120 ** (2.0 / 3.0) / 10.0) ** 3
        monkeypatch.setattr(lrv_mod, "_curvature_b", lambda a, sigma: scale * sigma)
        monkeypatch.setattr(oracles, "curvature_b", lambda a, sigma: scale * sigma)
        ks, _ = lrv_mod.select_k(rest)
        assert set(ks.tolist()) <= {10, 11} and ks.tolist() == oracle_ks(rest)

    def test_errors_of_a_one_sample_call_propagate(self):
        # a short ramp whose sigma_hat overflows, and a sample shorter than 4
        r = np.arange(10.0) - 4.5
        ramp = TimeSeriesSample.from_values(r * math.sqrt(0.5 * np.finfo(float).max / r.dot(r)))
        rng = np.random.default_rng(2)
        others = simulate_series(10, 0.0, 1.0, 0.0, "normal", [rng] * 3)
        with pytest.raises(DomainError, match="sample values too large"):
            lrv_mod.select_k([*others, ramp])
        with pytest.raises(DomainError, match="T >= 4"):
            lrv_mod.select_k([*others, TimeSeriesSample.from_values([1.0, 2.0, 4.0])])
        # at 0.3 of the largest energy sigma_hat is finite, but the
        # curvature's terms overflow to inf - inf
        steep = TimeSeriesSample.from_values(r * math.sqrt(0.3 * np.finfo(float).max / r.dot(r)))
        for samples in (steep, [*others, steep]):
            with pytest.raises(DomainError, match="curvature is not finite"):
                lrv_mod.select_k(samples)

    def test_rebound_curvature_changes_the_labs_k(self, monkeypatch, one_process):
        # scripts/compare_k_calibrations.py rebinds lrv._curvature_b
        spec = importlib.util.spec_from_file_location("calibrations", CALIBRATIONS)
        calibrations = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(calibrations)
        seen = []
        original = simlab_mod.select_k

        def recording(samples):
            ks, notes = original(samples)
            seen.append(ks.tolist())
            return ks, notes

        monkeypatch.setattr(simlab_mod, "select_k", recording)
        scenario = Scenario(t1=200, t2=200, rho=0.8, seed=2, n_mc=20, n_boot=19)
        run_cell(scenario)
        quartic, seen[:] = list(seen), []
        monkeypatch.setattr(lrv_mod, "_curvature_b", calibrations.spectral)
        run_cell(scenario)
        assert seen != quartic
        assert sum(map(sum, seen)) > sum(map(sum, quartic))  # the spectral rule takes more
        y1s, y2s, _ = simlab_mod._chunk_samples(scenario, range(20))
        assert seen == [[lrv_mod.select_k(y).k_hat for y in ys] for ys in (y1s, y2s)]


def test_chunk_reject_bits_equal_one_pair_reports(monkeypatch, fresh_workers):
    # replications 0-15 run in the calling process and 16-31 in a worker;
    # each one's decisions are those of its own one-pair evaluate call
    monkeypatch.setattr(simlab_mod, "_cpu_count", lambda: 2)
    scenario = Scenario(t1=40, t2=36, rho=0.5, seed=4, n_mc=32, n_boot=29)
    counts = dict.fromkeys(TEST_COLUMNS, 0)
    for reps in (range(0, 16), range(16, 32)):
        y1s, y2s, seeds = simlab_mod._chunk_samples(scenario, reps)
        columns = evaluate(y1s, y2s, k1="auto", k2="auto", alpha=0.05, n_boot=29, seed=seeds)
        for i, (y1, y2, seed) in enumerate(zip(y1s, y2s, seeds)):
            one = evaluate(y1, y2, k1="auto", k2="auto", alpha=0.05, n_boot=29, seed=seed)
            assert one.na == {}
            for name, report in one.reports.items():
                assert columns.tests[name].reject[i] == report.reject, (reps[i], name)
                assert columns.tests[name].p_value[i] == report.p_value, (reps[i], name)
                counts[name] += report.reject
    assert run_cell(scenario).reject_counts == counts
    assert len(simlab_mod._workers) == 1
