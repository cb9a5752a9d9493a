"""Wild bootstrap engine: multiplier moments, LRV identity, test mechanics."""

import math
import tracemalloc

import numpy as np
import pytest

import harmeans.lrv as lrv_mod
import harmeans.sharwb as sharwb_mod
import oracles
from harmeans.errors import (
    DegenerateReplicatesError,
    DegenerateSampleError,
    DomainError,
)
from harmeans.lrv import TimeSeriesSample, series_lrv
from harmeans.sharwb import (
    BootstrapRun,
    _draw_innovations,
    _empirical_quantile,
    _operator,
    _pooled_mean,
    _replicate_stats,
    shar_wb_test,
)
from harmeans.simlab import simulate_series
from oracles import bootstrap_lrv_closed_form, eta_autocov, eta_series


def sample(values) -> TimeSeriesSample:
    return TimeSeriesSample.from_values(values)


def fits(y1, y2, k1="auto", k2="auto"):
    """Both groups' series LRV estimates, the robust tests' inputs."""
    return series_lrv(y1, k1), series_lrv(y2, k2)


@pytest.fixture(scope="module")
def fixed_pair():
    rng = np.random.default_rng(404)
    y1 = simulate_series(80, 0.4, 1.0, 3.0, "normal", rng)
    y2 = simulate_series(64, 0.4, 1.2, 3.0, "normal", rng)
    return y1, y2


class TestEta:
    """The multipliers eta, formed from the cosine/sine sums of the unit
    vectors, as the acceptance criteria form them."""

    def test_forced_single_cosine(self):
        n = 40
        v = np.zeros((2, 1))
        v[0, 0] = 1.0
        eta = eta_series(n, v)  # K* = 1: no rescaling
        expected = np.cos(2.0 * np.pi * np.arange(1, n + 1) / n)
        assert np.allclose(eta, expected, atol=1e-14)

    def test_design_variance_is_exactly_one(self):
        for n, k in ((50, 5), (64, 1), (200, 17)):
            assert eta_autocov(n, k, 0) == 1.0

    def test_autocov_closed_form(self):
        n, k = 50, 5
        lag = 3
        expected = sum(math.cos(2.0 * math.pi * ell * lag / n) for ell in (1, 2, 3, 4, 5)) / 5
        assert eta_autocov(n, k, lag) == pytest.approx(expected, abs=1e-14)

    def test_empirical_moments(self):
        n, k = 50, 5
        rng = np.random.default_rng(8)
        draws = eta_series(n, rng.standard_normal((2, k, 20_000)))  # (n, draws)
        var_t = draws[9].var()
        assert var_t == pytest.approx(1.0, abs=0.04)
        cov = np.mean(draws[10] * draws[7])  # lag 3
        assert cov == pytest.approx(eta_autocov(n, k, 3), abs=0.04)

    def test_rademacher_law(self):
        v = _draw_innovations(np.random.default_rng(9), (2, 3, 500), "rademacher")
        assert v.shape == (2, 3, 500)
        assert set(np.unique(v)) == {-1.0, 1.0}
        assert eta_series(30, v).shape == (30, 500)


class TestBootstrapLrv:
    def test_zero_residuals(self):
        assert bootstrap_lrv_closed_form(np.zeros(40), 4) == 0.0

    def test_matches_quadratic_double_sum(self):
        # O(T^2) oracle: sum_t sum_s u_t u_s Cov(eta_t, eta_s) / T
        rng = np.random.default_rng(11)
        u = rng.standard_normal(36)
        k = 3
        n = u.size
        acc = 0.0
        for t in range(1, n + 1):
            for s in range(1, n + 1):
                cov = sum(
                    math.cos(2.0 * math.pi * ell * t / n)
                    * math.cos(2.0 * math.pi * ell * s / n)
                    + math.sin(2.0 * math.pi * ell * t / n)
                    * math.sin(2.0 * math.pi * ell * s / n)
                    for ell in range(1, k + 1)
                ) / k
                acc += u[t - 1] * u[s - 1] * cov
        acc /= n
        assert bootstrap_lrv_closed_form(u, k) == pytest.approx(acc, abs=1e-12)

    def test_cosine_residual_fixture(self):
        n = 50
        u = np.cos(2.0 * np.pi * np.arange(1, n + 1) / n)
        got = bootstrap_lrv_closed_form(u, 1)
        # projections: c_1 = sqrt(T)/2, s_1 = 0, so the value is T/4
        assert got == pytest.approx(n / 4.0, rel=1e-12)

    def test_monte_carlo_identity_light(self):
        rng = np.random.default_rng(12)
        series = simulate_series(100, 0.5, 1.0, 0.0, "normal", rng)
        u = series.residuals
        k = 5
        closed = bootstrap_lrv_closed_form(u, k)
        # the bootstrap's w.v is mean(u * eta), so sqrt(T) w.v = T^{-1/2} u.eta
        w, _ = _operator(series_lrv(series, k))
        draws = math.sqrt(100) * w.dot(rng.standard_normal((2 * k, 30_000)))
        assert draws.var() == pytest.approx(closed, rel=0.05)

    def test_nonnegative(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            u = rng.standard_normal(24)
            assert bootstrap_lrv_closed_form(u, 4) >= 0.0


class TestReplicate:
    def test_pooled_mean_balanced(self):
        y1 = sample([1.0, 2.0, 3.0, 4.0])
        y2 = sample([5.0, 6.0, 7.0, 8.0])
        assert _pooled_mean(y1, y2) == pytest.approx((y1.mean + y2.mean) / 2.0)

    def test_pooled_mean_weighted(self):
        y1 = sample(np.ones(10) * 2.0 + np.arange(10) * 0.0 + [0, 1, 0, -1, 0, 1, 0, -1, 0, -1])
        y2 = sample([4.0, 5.0, 6.0, 7.0])
        t1, t2 = y1.n, y2.n
        expected = (t1 * y1.mean + t2 * y2.mean) / (t1 + t2)
        assert _pooled_mean(y1, y2) == pytest.approx(expected, rel=1e-14)

    def test_forced_zero_innovations_degenerate(self, fixed_pair):
        y1, y2 = fixed_pair
        v1 = np.zeros((2, 3))
        v2 = np.zeros((2, 3))
        stat = _replicate_stats(*map(_operator, fits(y1, y2, 3, 3)), v1, v2)
        assert math.isnan(float(stat))

    def test_single_replicate_matches_batch_shape(self, fixed_pair):
        y1, y2 = fixed_pair
        op1, op2 = map(_operator, fits(y1, y2, 4, 4))
        v1 = _draw_innovations(np.random.default_rng(1), (2, 4), "normal")
        v2 = _draw_innovations(np.random.default_rng(2), (2, 4), "normal")
        value = _replicate_stats(op1, op2, v1, v2)
        assert value.shape == () and math.isfinite(float(value))
        batch = _replicate_stats(op1, op2, v1[..., None], v2[..., None])
        assert batch.shape == (1,)
        assert batch[0] == pytest.approx(float(value), rel=1e-12)

    def test_replicate_distribution_near_standard(self):
        # fixed iid-normal data, auto K: replicate stats roughly N(0,1)
        rng = np.random.default_rng(606)
        y1 = simulate_series(200, 0.0, 1.0, 0.0, "normal", rng)
        y2 = simulate_series(200, 0.0, 1.0, 0.0, "normal", rng)
        _, run = shar_wb_test(*fits(y1, y2), n_boot=10_000, seed=42)
        stats = run.replicate_stats
        assert abs(stats.mean()) <= 0.05
        assert 0.85 <= stats.var() <= 1.2


class TestEmpiricalQuantile:
    def test_order_statistic_indices(self):
        stats = np.sort(np.arange(1.0, 400.0))  # B = 399
        # ceil(p (B+1)) convention: indices 10 and 390 at alpha = 0.05
        assert _empirical_quantile(stats, 0.025) == 10.0
        assert _empirical_quantile(stats, 0.975) == 390.0

    def test_clamping(self):
        stats = np.sort(np.arange(1.0, 20.0))
        assert _empirical_quantile(stats, 1e-9) == 1.0
        assert _empirical_quantile(stats, 1.0 - 1e-12) == 19.0


class TestSharWbTest:
    def test_identical_series_never_rejects(self):
        rng = np.random.default_rng(14)
        y = simulate_series(60, 0.3, 1.0, 1.0, "normal", rng)
        for alpha in (0.05, 0.2, 0.5):
            report, run = shar_wb_test(*fits(y, y), alpha=alpha, n_boot=99, seed=3)
            assert report.statistic == 0.0
            assert not report.reject
            assert run.crit_lo <= run.crit_hi

    def test_bit_identical_given_seed(self, fixed_pair):
        y1, y2 = fixed_pair
        rep_a, run_a = shar_wb_test(*fits(y1, y2), n_boot=199, seed=77)
        rep_b, run_b = shar_wb_test(*fits(y1, y2), n_boot=199, seed=77)
        assert np.array_equal(run_a.replicate_stats, run_b.replicate_stats)
        assert run_a.crit_lo == run_b.crit_lo
        assert run_a.p_value == run_b.p_value
        assert rep_a.statistic == rep_b.statistic

    def test_seed_changes_replicates(self, fixed_pair):
        y1, y2 = fixed_pair
        _, run_a = shar_wb_test(*fits(y1, y2), n_boot=99, seed=1)
        _, run_b = shar_wb_test(*fits(y1, y2), n_boot=99, seed=2)
        assert not np.array_equal(run_a.replicate_stats, run_b.replicate_stats)

    def test_nested_rejection_monotone_in_alpha(self):
        hits = 0
        for seed in range(24):
            rng = np.random.default_rng(700 + seed)
            y1 = simulate_series(60, 0.5, 1.0, 1.0, "normal", rng)
            y2 = simulate_series(60, 0.5, 1.0, 1.12, "normal", rng)
            rep05, _ = shar_wb_test(*fits(y1, y2), alpha=0.05, n_boot=199, seed=seed)
            rep10, _ = shar_wb_test(*fits(y1, y2), alpha=0.10, n_boot=199, seed=seed)
            if rep05.reject:
                hits += 1
                assert rep10.reject
        assert hits >= 1  # the implication must actually fire somewhere

    def test_swap_antisymmetry_with_paired_streams(self, fixed_pair):
        y1, y2 = fixed_pair
        op1, op2 = map(_operator, fits(y1, y2, 4, 3))
        for seed in range(6):
            v1 = _draw_innovations(np.random.default_rng(seed), (2, 4), "normal")
            v2 = _draw_innovations(np.random.default_rng(1000 + seed), (2, 3), "normal")
            fwd = float(_replicate_stats(op1, op2, v1, v2))
            rev = float(_replicate_stats(op2, op1, v2, v1))
            assert rev == pytest.approx(-fwd, rel=1e-12)

    def test_observed_statistic_negates_under_swap(self, fixed_pair):
        y1, y2 = fixed_pair
        rep_f, _ = shar_wb_test(*fits(y1, y2, 4, 3), n_boot=99, seed=5)
        rep_r, _ = shar_wb_test(*fits(y2, y1, 3, 4), n_boot=99, seed=5)
        assert rep_r.statistic == pytest.approx(-rep_f.statistic, rel=1e-12)

    def test_null_centering_over_fixtures(self):
        # bootstrap distribution is centered: |mean| <= 3 sd / sqrt(B)
        # for at least 9 of 10 fixed data sets
        ok = 0
        for seed in range(10):
            rng = np.random.default_rng(900 + seed)
            y1 = simulate_series(100, 0.5, 1.0, 2.0, "normal", rng)
            y2 = simulate_series(100, 0.5, 1.0, 2.0, "normal", rng)
            _, run = shar_wb_test(*fits(y1, y2), n_boot=10_000, seed=seed)
            stats = run.replicate_stats
            ok += abs(stats.mean()) <= 3.0 * stats.std() / math.sqrt(stats.size)
        assert ok >= 9

    def test_validation_errors(self, fixed_pair):
        y1, y2 = fixed_pair
        with pytest.raises(DomainError):
            shar_wb_test(*fits(y1, y2), alpha=0.0, n_boot=99, seed=1)
        with pytest.raises(DomainError):
            shar_wb_test(*fits(y1, y2), n_boot=18, seed=1)
        with pytest.raises(DomainError, match="seed must be >= 0"):
            shar_wb_test(*fits(y1, y2), n_boot=99, seed=-1)

    def test_degenerate_inputs_propagate(self):
        with pytest.raises(DegenerateSampleError):
            shar_wb_test(*fits(sample([2.0] * 12), sample([2.0] * 12), 2, 2), n_boot=99, seed=1)

    def test_redraw_path_counts(self, fixed_pair, monkeypatch):
        y1, y2 = fixed_pair
        original = sharwb_mod._replicate_stats
        call_state = {"batch_done": False}

        def batch_with_hole(*args, **kwargs):
            out = original(*args, **kwargs)
            if out.ndim == 1 and not call_state["batch_done"]:
                call_state["batch_done"] = True
                out = out.copy()
                out[3] = np.nan
                out[11] = np.nan
            return out

        monkeypatch.setattr(sharwb_mod, "_replicate_stats", batch_with_hole)
        _, run = shar_wb_test(*fits(y1, y2), n_boot=49, seed=9)
        assert run.n_redrawn == 2
        assert not np.any(np.isnan(run.replicate_stats))

    def test_redraw_abort_after_cap(self, fixed_pair, monkeypatch):
        y1, y2 = fixed_pair
        original = sharwb_mod._replicate_stats

        def batch_with_hole(op1, op2, v1, v2):
            out = original(op1, op2, v1, v2)
            if out.ndim == 1:
                out = out.copy()
                out[0] = np.nan
                return out
            return np.float64(np.nan)  # every single redraw is degenerate

        monkeypatch.setattr(sharwb_mod, "_replicate_stats", batch_with_hole)
        with pytest.raises(DegenerateReplicatesError):
            shar_wb_test(*fits(y1, y2), n_boot=49, seed=9)

    def test_run_fields(self, fixed_pair):
        y1, y2 = fixed_pair
        report, run = shar_wb_test(*fits(y1, y2, 5, 4), n_boot=199, seed=123)
        assert isinstance(run, BootstrapRun)
        assert run.B == 199 and run.seed == 123
        assert run.K1 == 5 and run.K2 == 4
        assert run.k_star1 == 5 and run.k_star2 == 4  # K* matches K
        assert 0.0 <= run.p_value <= 1.0
        assert run.crit_lo <= run.crit_hi
        assert report.detail["k_star1"] == 5


class TestReplicateKernel:
    """The coefficient-space kernel against the time-domain reference."""

    @pytest.mark.parametrize("n", [8, 9, 30, 31, 200, 201])
    @pytest.mark.parametrize("law", ["normal", "rademacher"])
    def test_matches_time_domain_kernel(self, n, law):
        # K = n // 2 is the Nyquist case when n is even; group 2 is one longer
        rng = np.random.default_rng(n)
        y1 = sample(rng.standard_normal(n))
        y2 = sample(2.0 * rng.standard_normal(n + 1) + 1.0)
        for k in sorted({1, 2, n // 2}):
            op1, op2 = map(_operator, fits(y1, y2, k, k))
            for batch in ((), (64,)):
                v1 = _draw_innovations(rng, (2, k, *batch), law)
                v2 = _draw_innovations(rng, (2, k, *batch), law)
                got = _replicate_stats(op1, op2, v1, v2)
                want = oracles.replicate_stats(y1, y2, k, k, v1, v2)
                assert got.shape == want.shape
                assert np.all(np.abs(got - want) <= 1e-10 * np.abs(want) + 1e-12)

    @pytest.mark.parametrize("k", [1, 4, 30])
    def test_same_bytes_as_mean_and_where_form(self, k):
        rng = np.random.default_rng(k)
        y1 = sample(rng.standard_normal(80))
        y2 = sample(rng.standard_normal(64))
        op1, op2 = map(_operator, fits(y1, y2, k, k))
        v1 = _draw_innovations(rng, (2, k, 49), "normal")
        v2 = _draw_innovations(rng, (2, k, 49), "normal")
        cases = [(v1, v2), (v1[..., 0], v2[..., 0])]
        v1_hole, v2_hole = v1.copy(), v2.copy()
        v1_hole[..., 7] = v2_hole[..., 7] = 0.0  # one degenerate replicate
        cases += [(v1_hole, v2_hole), (v1_hole[..., 7], v2_hole[..., 7])]
        for a, b in cases:
            got = np.asarray(_replicate_stats(op1, op2, a, b))
            want = oracles.replicate_kernel(op1, op2, a, b)
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()
        assert np.isnan(got)

    def test_same_bytes_whatever_the_blas_thread_count(self):
        # K = 60, B = 399: a product OpenBLAS splits over its threads when it may
        calls = lrv_mod._openblas_threads()
        if calls is None:
            pytest.skip("numpy is not linked against OpenBLAS")
        get, put = calls
        rng = np.random.default_rng(60)
        y1 = sample(rng.standard_normal(2000))
        y2 = sample(3.0 * rng.standard_normal(1500))
        op1, op2 = map(_operator, fits(y1, y2, 60, 60))
        v1 = _draw_innovations(rng, (2, 60, 399), "normal")
        v2 = _draw_innovations(rng, (2, 60, 399), "normal")
        before = get()
        got = []
        try:
            for n_threads in (1, 2, 4):
                put(n_threads)
                got.append(_replicate_stats(op1, op2, v1, v2).tobytes())
                assert get() == n_threads  # restored after the products
        finally:
            put(before)
        assert got[1] == got[0] and got[2] == got[0]

    def test_traced_peak_stays_small_at_large_T(self):
        # T = 20 000 per group, B = 399: the dense multiplier path held
        # several T x B matrices (over 300 MB); the operator needs a few MB
        rng = np.random.default_rng(2020)
        y1 = simulate_series(20_000, 0.5, 1.0, 0.0, "normal", rng)
        y2 = simulate_series(20_000, 0.5, 1.0, 0.0, "normal", rng)
        tracemalloc.start()
        try:
            shar_wb_test(*fits(y1, y2), n_boot=399, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20
