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


def kernel(group_fits, v1, v2):
    """The replicate statistics of two fits for given innovation draws, of
    shape (2, K*, *batch), served in consecutive pieces as ``_draws``
    serves a stream."""
    draws = (v1, v2)

    def draw(g, idx):
        stream = draws[g].reshape(1, -1, *draws[g].shape[2:])
        taken = 0

        def piece(shape):
            nonlocal taken
            taken += shape[1]
            return stream[:, taken - shape[1] : taken].reshape(shape)

        return piece

    return _replicate_stats([group_fits], draw, v1.shape[2:])[0]


def innovations(rng, shape, law):
    """iid innovations of the given law, drawn as the bootstrap draws them."""
    out = np.empty(shape)
    _draw_innovations(rng, law, out)
    return out


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
        v = innovations(np.random.default_rng(9), (2, 3, 500), "rademacher")
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
        w, _ = oracles.operator(series_lrv(series, k))
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
        report, _ = shar_wb_test(*fits(y1, y2, 1, 1), n_boot=19, seed=0)
        assert report.detail["mu_pooled"] == pytest.approx((y1.mean + y2.mean) / 2.0)

    def test_pooled_mean_weighted(self):
        y1 = sample(np.ones(10) * 2.0 + np.arange(10) * 0.0 + [0, 1, 0, -1, 0, 1, 0, -1, 0, -1])
        y2 = sample([4.0, 5.0, 6.0, 7.0])
        t1, t2 = y1.n, y2.n
        expected = (t1 * y1.mean + t2 * y2.mean) / (t1 + t2)
        report, _ = shar_wb_test(*fits(y1, y2, 1, 1), n_boot=19, seed=0)
        assert report.detail["mu_pooled"] == pytest.approx(expected, rel=1e-14)

    def test_forced_zero_innovations_degenerate(self, fixed_pair):
        y1, y2 = fixed_pair
        v1 = np.zeros((2, 3))
        v2 = np.zeros((2, 3))
        stat = kernel(fits(y1, y2, 3, 3), v1, v2)
        assert math.isnan(float(stat))

    def test_single_replicate_matches_batch_shape(self, fixed_pair):
        y1, y2 = fixed_pair
        group_fits = fits(y1, y2, 4, 4)
        v1 = innovations(np.random.default_rng(1), (2, 4), "normal")
        v2 = innovations(np.random.default_rng(2), (2, 4), "normal")
        value = kernel(group_fits, v1, v2)
        assert value.shape == () and math.isfinite(float(value))
        batch = kernel(group_fits, v1[..., None], v2[..., None])
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
        group_fits = fits(y1, y2, 4, 3)
        for seed in range(6):
            v1 = innovations(np.random.default_rng(seed), (2, 4), "normal")
            v2 = innovations(np.random.default_rng(1000 + seed), (2, 3), "normal")
            fwd = float(kernel(group_fits, v1, v2))
            rev = float(kernel(group_fits[::-1], v2, v1))
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
            if out.ndim == 2 and not call_state["batch_done"]:
                call_state["batch_done"] = True
                out[0, 3] = np.nan
                out[0, 11] = np.nan
            return out

        monkeypatch.setattr(sharwb_mod, "_replicate_stats", batch_with_hole)
        _, run = shar_wb_test(*fits(y1, y2), n_boot=49, seed=9)
        assert run.n_redrawn == 2
        assert not np.any(np.isnan(run.replicate_stats))

    def test_redrawn_replicate_takes_the_redraw_streams(self, fixed_pair, monkeypatch):
        # a redraw of pair seed s draws group g's innovations from the
        # stream of SeedSequence(s, spawn_key=(2, g))
        y1, y2 = fixed_pair
        group_fits = fits(y1, y2)
        original = sharwb_mod._replicate_stats

        def batch_with_hole(pairs, draw, batch=()):
            out = original(pairs, draw, batch)
            if out.ndim == 2:
                out[0, 7] = np.nan
            return out

        monkeypatch.setattr(sharwb_mod, "_replicate_stats", batch_with_hole)
        _, run = shar_wb_test(*group_fits, n_boot=49, seed=9)
        assert run.n_redrawn == 1
        v1, v2 = (
            innovations(np.random.default_rng(np.random.SeedSequence(9, spawn_key=(2, g))),
                        (2 * fit.k,), "normal").reshape(2, fit.k)
            for g, fit in enumerate(group_fits)
        )
        assert run.replicate_stats[7] == kernel(group_fits, v1, v2)
        assert run.replicate_stats[7] == pytest.approx(
            oracles.replicate_stats(y1, y2, group_fits[0].k, group_fits[1].k, v1, v2), rel=1e-10)

    def test_redraw_abort_after_cap(self, fixed_pair, monkeypatch):
        y1, y2 = fixed_pair
        original = sharwb_mod._replicate_stats

        def batch_with_hole(pairs, draw, batch=()):
            out = original(pairs, draw, batch)
            if out.ndim == 2:
                out[0, 0] = np.nan
                return out
            return np.full(1, np.nan)  # every single redraw is degenerate

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


class TestSequenceForm:
    """One call on a sequence of pairs against one call per pair."""

    SEEDS = [11, 12, 13, 14, 15, 16]

    @staticmethod
    def pairs():
        # group 1's K: 3, 3, -, 5, 3, 1 (a K = 3 bucket of three pairs);
        # pair 2 is constant, so both its LRVs are zero and it has no statistic
        rng = np.random.default_rng(21)
        out = [
            fits(sample(rng.standard_normal(n1)), sample(1.5 * rng.standard_normal(n2) + 0.2), k1, k2)
            for n1, n2, k1, k2 in ((80, 64, 3, 5), (80, 64, 3, 2), (50, 90, 5, 5),
                                   (80, 64, 3, 5), (40, 40, 1, 7))
        ]
        flat = sample([2.0] * 12)
        out.insert(2, fits(flat, flat, 2, 2))
        return out

    @pytest.mark.parametrize("redraws_fail", [False, True])
    def test_matches_one_call_per_pair(self, monkeypatch, redraws_fail):
        pairs = self.pairs()
        target = pairs[4][0]  # its replicate 7 is forced degenerate
        original = sharwb_mod._replicate_stats
        stacked = []

        def with_hole(group_pairs, draw, batch=()):
            out = original(group_pairs, draw, batch)
            for j, pair in enumerate(group_pairs):
                if pair[0] is target and (batch or redraws_fail):
                    out[(j, 7) if batch else j] = np.nan
            return out

        def recording(group_fits, draw, batch):
            stacked.append((group_fits[0].k, len(group_fits)))
            return moments(group_fits, draw, batch)

        moments = sharwb_mod._group_moments
        monkeypatch.setattr(sharwb_mod, "_replicate_stats", with_hole)
        monkeypatch.setattr(sharwb_mod, "_group_moments", recording)
        # two K = 3 pairs per sub-batch at B = 199: 2 * (9 * 199 + 18) doubles
        monkeypatch.setattr(sharwb_mod, "_MAX_STACK_DOUBLES", 3618)
        columns, stats = shar_wb_test([a for a, _ in pairs], [b for _, b in pairs],
                                      n_boot=199, seed=self.SEEDS)
        assert (3, 2) in stacked and (3, 1) in stacked and max(n for _, n in stacked) == 2
        assert stats.shape == (len(pairs), 199) and not stats.flags.writeable
        assert len(columns.statistic) == len(columns.reject) == len(pairs)
        assert columns.na[2] == "both long-run variances are zero"
        assert np.isnan(stats[2]).all() and not columns.reject[2]
        with pytest.raises(DegenerateSampleError, match="^both long-run variances are zero$"):
            shar_wb_test(*pairs[2], n_boot=199, seed=self.SEEDS[2])
        for i in (0, 1, 3, 4, 5):
            if i == 4 and redraws_fail:
                with pytest.raises(DegenerateReplicatesError) as exc:
                    shar_wb_test(*pairs[i], n_boot=199, seed=self.SEEDS[i])
                assert columns.na[i] == str(exc.value)
                assert np.isnan(stats[i]).all() and not columns.reject[i]
                continue
            assert i not in columns.na
            report, run = shar_wb_test(*pairs[i], n_boot=199, seed=self.SEEDS[i])
            got = columns.report(i)
            assert (got.reject, got.detail["n_redrawn"]) == (report.reject, run.n_redrawn)
            assert run.n_redrawn == (1 if i == 4 else 0)
            assert got.statistic == report.statistic
            assert np.all(np.abs(stats[i] - run.replicate_stats) <= 1e-10 * np.abs(run.replicate_stats))
            for name in ("crit_lo", "crit_hi"):
                assert got.detail[name] == pytest.approx(getattr(run, name), rel=1e-10)
            assert got.p_value == pytest.approx(run.p_value, rel=1e-10)
            assert got.detail == pytest.approx(report.detail, rel=1e-10)

    def test_one_seed_per_pair(self, fixed_pair):
        pair = fits(*fixed_pair)
        with pytest.raises(DomainError, match="^need one seed per pair"):
            shar_wb_test([pair[0]] * 2, [pair[1]] * 2, n_boot=99, seed=[1])
        with pytest.raises(DomainError, match="seed must be >= 0"):
            shar_wb_test([pair[0]] * 2, [pair[1]] * 2, n_boot=99, seed=[1, -1])
        columns, stats = shar_wb_test([], [], n_boot=99, seed=[])
        assert (columns.statistic.shape, columns.na, stats.shape) == ((0,), {}, (0, 99))


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
            group_fits = fits(y1, y2, k, k)
            for batch in ((), (64,)):
                v1 = innovations(rng, (2, k, *batch), law)
                v2 = innovations(rng, (2, k, *batch), law)
                got = kernel(group_fits, v1, v2)
                want = oracles.replicate_stats(y1, y2, k, k, v1, v2)
                assert got.shape == want.shape
                assert np.all(np.abs(got - want) <= 1e-10 * np.abs(want) + 1e-12)

    @pytest.mark.parametrize("k", [1, 4, 30])
    def test_same_bytes_as_mean_and_where_form(self, k):
        rng = np.random.default_rng(k)
        y1 = sample(rng.standard_normal(80))
        y2 = sample(rng.standard_normal(64))
        group_fits = fits(y1, y2, k, k)
        op1, op2 = map(oracles.operator, group_fits)
        v1 = innovations(rng, (2, k, 49), "normal")
        v2 = innovations(rng, (2, k, 49), "normal")
        cases = [(v1, v2), (v1[..., 0], v2[..., 0])]
        v1_hole, v2_hole = v1.copy(), v2.copy()
        v1_hole[..., 7] = v2_hole[..., 7] = 0.0  # one degenerate replicate
        cases += [(v1_hole, v2_hole), (v1_hole[..., 7], v2_hole[..., 7])]
        for a, b in cases:
            got = np.asarray(kernel(group_fits, a, b))
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
        group_fits = fits(y1, y2, 60, 60)
        v1 = innovations(rng, (2, 60, 399), "normal")
        v2 = innovations(rng, (2, 60, 399), "normal")
        before = get()
        got = []
        try:
            for n_threads in (1, 2, 4):
                put(n_threads)
                got.append(kernel(group_fits, v1, v2).tobytes())
                assert get() == n_threads  # restored after the products
        finally:
            put(before)
        assert got[1] == got[0] and got[2] == got[0]

    @pytest.mark.parametrize("k", [4, 9, 60])
    @pytest.mark.parametrize("law", ["normal", "rademacher"])
    def test_pieces_agree_with_one_piece(self, k, law, monkeypatch):
        # K and K + 1, one odd and one even, drawn in pieces of 2 and 5
        # columns (pieces of 5 straddle the cosine/sine boundary of one group
        # in each case: K = 4, 9 or 61) and formed in blocks of 4 rows,
        # against one piece and one block of all 2K* columns and K rows;
        # batch (B,) is the bootstrap and () the redraws
        rng = np.random.default_rng(k)
        y1 = sample(rng.standard_normal(300))
        y2 = sample(2.0 * rng.standard_normal(301))
        group_fits = fits(y1, y2, k, k + 1)
        cases = []
        for batch in ((), (49,)):
            v1 = innovations(rng, (2, k, *batch), law)
            v2 = innovations(rng, (2, k + 1, *batch), law)
            cases.append((v1, v2, kernel(group_fits, v1, v2)))
        report, run = shar_wb_test(*group_fits, n_boot=199, seed=k, law=law)
        monkeypatch.setattr(sharwb_mod, "_BLOCK_FREQS", 2)
        for width in (2, 5):
            monkeypatch.setattr(sharwb_mod, "_PIECE_COLUMNS", width)
            for v1, v2, want in cases:
                got = kernel(group_fits, v1, v2)
                assert got.shape == want.shape
                assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want))
            report2, run2 = shar_wb_test(*group_fits, n_boot=199, seed=k, law=law)
            want, got = run.replicate_stats, run2.replicate_stats
            assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want))
            assert (run2.p_value, report2.reject) == (run.p_value, report.reject)
            assert run2.crit_lo == pytest.approx(run.crit_lo, rel=1e-12)
            assert run2.crit_hi == pytest.approx(run.crit_hi, rel=1e-12)
        # one piece of all 2K* columns and one block of all K rows: the bytes
        # of the whole operators' product
        monkeypatch.setattr(sharwb_mod, "_BLOCK_FREQS", 64)
        monkeypatch.setattr(sharwb_mod, "_PIECE_COLUMNS", 2 * k + 2)
        ops = [oracles.operator(fit) for fit in group_fits]
        for v1, v2, want in cases:
            got = kernel(group_fits, v1, v2)
            assert got.tobytes() == want.tobytes()
            assert got.tobytes() == oracles.replicate_kernel(*ops, v1, v2).tobytes()

    @pytest.mark.parametrize("law", ["normal", "rademacher"])
    def test_draws_continue_each_stream(self, law):
        # pieces of 3, 1 and 5 rows of 7 draws: odd counts, so a Rademacher
        # piece that dropped the unused half of a 64-bit draw would shift
        # every later value
        streams = [[np.random.SeedSequence(s), np.random.SeedSequence(s + 1)] for s in (4, 8)]
        piece = sharwb_mod._draws(streams, law)(1, [1, 0])
        got = np.concatenate([piece((2, n, 7)) for n in (3, 1, 5)], axis=1)
        want = sharwb_mod._draws(streams, law)(1, [1, 0])((2, 9, 7))
        assert got.tobytes() == want.tobytes()
        again = innovations(np.random.default_rng(streams[0][1]), (9, 7), law)
        assert want[1].tobytes() == again.tobytes()

    def test_traced_peak_at_the_bench_white_noise_shape(self):
        # T = 10 000 white noise per group (K = 635 and 554), B = 399: the
        # whole operators and both groups' draws took 22 MB at once; one
        # group's draws and one 128-row block of its operator took 6.8 MiB;
        # its K x B coefficients, one 128-column piece of draws and one
        # block of that piece take about 3.2 MiB, under one group's draws
        rng = np.random.default_rng(1)
        y1 = simulate_series(10_000, 0.0, 1.0, 0.0, "normal", rng)
        y2 = simulate_series(10_000, 0.0, 1.0, 0.0, "normal", rng)
        group_fits = fits(y1, y2)
        assert [f.k for f in group_fits] == [635, 554]
        tracemalloc.start()
        try:
            shar_wb_test(*group_fits, n_boot=399, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10 * 2**20
        assert peak < 2 * 635 * 399 * 8, peak

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
