"""Long-run variance estimation and basis-count selection."""

import math
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import harmeans.lrv as lrv_mod
import oracles
from harmeans import basis
from harmeans.errors import DegenerateSampleError, DomainError
from harmeans.lrv import (
    TimeSeriesSample,
    _curvature_b,
    ar1_plugin,
    ljung_box,
    select_k,
    series_lrv,
)
from harmeans.simlab import simulate_series
from harmeans.statdist import chisq_sf


def sample(values) -> TimeSeriesSample:
    return TimeSeriesSample.from_values(values)


class TestTimeSeriesSample:
    def test_residuals_sum_to_zero(self):
        rng = np.random.default_rng(0)
        s = sample(rng.uniform(-5, 5, size=101))
        assert abs(float(s.residuals.sum())) <= 1e-10

    def test_min_length_and_finiteness(self):
        with pytest.raises(DomainError):
            sample([1.0])
        with pytest.raises(DomainError):
            sample([1.0, np.inf, 2.0])
        with pytest.raises(DomainError):
            sample([[1.0, 2.0], [3.0, 4.0]])

    def test_immutability(self):
        s = sample([1.0, 2.0, 3.0, 4.0])
        with pytest.raises(ValueError):
            s.values[0] = 9.0
        with pytest.raises(ValueError):
            s.residuals[0] = 9.0
        with pytest.raises(ValueError):
            s.spectrum[0] = 9.0
        assert np.array_equal(s.spectrum, basis.dft(s.residuals))

    @pytest.mark.parametrize(
        "values",
        [
            np.random.default_rng(1).standard_normal(30) * 1e200,
            [1.7e308] * 4,
            [1.7e308, -1.7e308, -1.7e308, 1.0, 1.0],
        ],
        ids=["squares", "mean", "residuals"],
    )
    @pytest.mark.filterwarnings("error")  # the DomainError is the only signal
    def test_finite_values_that_overflow_are_rejected(self, values):
        with pytest.raises(DomainError, match="residual sum of squares is not finite"):
            sample(values)

    def test_variance_matches_unbiased_formula(self):
        vals = [0.0, 2.0]
        assert sample(vals).variance() == pytest.approx(2.0)

    @pytest.mark.parametrize(
        "values", [np.array([1 + 2j, 3, 4, 5]), [1 + 2j, 3.0, 4.0, 5.0]], ids=["array", "list"]
    )
    @pytest.mark.filterwarnings("error")  # numpy's ComplexWarning is not the signal
    def test_complex_values_are_rejected(self, values):
        with pytest.raises(DomainError, match="^sample must be real-valued$"):
            sample(values)

    @pytest.mark.parametrize(
        "values",
        [["1", "2", "4", "3"], ["a", "b", "c"], [b"1", b"2", b"3"],
         np.array([1.0, 2.0, 3.0], dtype=object), np.zeros(3, dtype="V8")],
        ids=["numeric-text", "text", "bytes", "object", "void"],
    )
    def test_non_numeric_values_are_rejected(self, values):
        with pytest.raises(DomainError, match="^sample must be numeric, got dtype "):
            sample(values)

    @pytest.mark.parametrize("n", [2, 9, 37, 200, 201])
    def test_rows_built_together_match_lone_samples(self, n):
        # the lab builds a chunk's samples from one transform of the block
        rng = np.random.default_rng(n)
        block = (3.0 * rng.standard_normal((n, 7)) - 4.0).T  # rows of a (T, R) block
        for got, row in zip(TimeSeriesSample._from_rows(block), block):
            want = sample(row)
            assert got.values.tobytes() == want.values.tobytes()
            assert got.mean == want.mean
            assert got.residuals.tobytes() == want.residuals.tobytes()
            assert np.ascontiguousarray(got.spectrum).tobytes() == want.spectrum.tobytes()
            assert want.spectrum.tobytes() == basis.dft(want.residuals).tobytes()
            assert got._energy == want._energy

    def test_equality_is_identity_and_both_types_hash(self):
        # the array fields would make a field-by-field == ambiguous
        a, b = (sample([1.0, 2.0, 4.0, 3.0, 5.0]) for _ in range(2))
        assert a == a and a != b
        fa, fb = series_lrv(a, 2), series_lrv(a, 2)
        assert fa == fa and fa != fb
        assert len({a, b, fa, fb}) == 4


class TestSeriesLrv:
    def test_constant_series_gives_zero(self):
        # dyadic constant: the mean is exact, residuals identically zero
        est = series_lrv(sample([4.25] * 20), 5)
        assert est.omega == 0.0
        # non-dyadic constants leave only rounding residue
        assert series_lrv(sample([4.2] * 20), 5).omega <= 1e-30

    def test_shift_invariance_exact(self):
        rng = np.random.default_rng(1)
        u = rng.standard_normal(100)
        a = series_lrv(sample(u), 8).omega
        b = series_lrv(sample(u + 123.456), 8).omega
        assert b == pytest.approx(a, rel=1e-12)

    def test_scale_equivariance(self):
        rng = np.random.default_rng(2)
        u = rng.standard_normal(100)
        a = series_lrv(sample(u), 8).omega
        b = series_lrv(sample(3.0 * u), 8).omega
        assert b == pytest.approx(9.0 * a, rel=1e-12)

    def test_partial_sum_consistency(self):
        rng = np.random.default_rng(3)
        s = sample(rng.standard_normal(256))
        k1, k2 = 5, 12
        est1 = series_lrv(s, k1)
        est2 = series_lrv(s, k2)
        extra = float(np.sum(est2.coefficients[k1:] ** 2))
        rebuilt = (k1 * est1.omega + extra) / k2
        assert est2.omega == pytest.approx(rebuilt, rel=1e-13)

    def test_omega_is_mean_of_squares(self):
        rng = np.random.default_rng(4)
        s = sample(rng.standard_normal(64))
        est = series_lrv(s, 7)
        assert est.omega == pytest.approx(
            float(np.mean(est.coefficients**2)), rel=0, abs=0
        )

    def test_k_range_errors(self):
        s = sample(np.arange(10.0))
        with pytest.raises(DomainError):
            series_lrv(s, 0)
        with pytest.raises(DomainError):
            series_lrv(s, 6)  # floor(10/2) = 5

    def test_iid_normal_chisq_band(self):
        # Omega-hat / 1 is approximately chisq(K)/K; the 0.5% and 99.5%
        # quantiles of chisq(20)/20 are 0.37169 and 1.99984 (bisection on
        # the quadrature CDF), so ~99% of seeds must land inside.
        lo = oracles.chisq_quantile(0.005, 20.0) / 20.0
        hi = oracles.chisq_quantile(0.995, 20.0) / 20.0
        inside = 0
        n_seeds = 100
        for seed in range(n_seeds):
            rng = np.random.default_rng(1000 + seed)
            s = sample(rng.standard_normal(2000))
            if lo <= series_lrv(s, 20).omega <= hi:
                inside += 1
        assert inside >= 98

    def test_unbiasedness_sanity(self):
        total = 0.0
        n_seeds = 500
        for seed in range(n_seeds):
            rng = np.random.default_rng(50_000 + seed)
            total += series_lrv(sample(rng.standard_normal(4000)), 30).omega
        assert 0.95 <= total / n_seeds <= 1.05


    def test_traced_peak_stays_small_at_large_k(self):
        # T = 8 000 at k = T/2: a dense T x k basis table would take 256 MB
        y = sample(np.random.default_rng(8).standard_normal(8_000))
        tracemalloc.start()
        try:
            estimate = series_lrv(y, 4_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert estimate.coefficients.shape == (4_000,)
        assert peak < 4 * 2**20

class TestAr1Plugin:
    def test_zero_lag1_autocovariance_fixture(self):
        # [1, 0, -1, 0] tiling: mean zero, all lag-1 products vanish
        u = np.array([1.0, 0.0, -1.0, 0.0] * 3)
        s = sample(u)
        a_hat, sigma_hat = ar1_plugin(s)
        assert a_hat == 0.0
        expected_sigma = float(np.sum(u[1:] ** 2)) / (len(u) - 1)
        assert sigma_hat == pytest.approx(expected_sigma, rel=1e-14)

    def test_alternating_fixture_clamped(self):
        # hand-summation oracle for u_t = (-1)^t, T even: numerator is
        # -(T-1), denominator T-1, so the raw ratio is exactly -1
        t = 12
        u = np.array([(-1.0) ** k for k in range(1, t + 1)])
        num = sum(u[i] * u[i - 1] for i in range(1, t))
        den = sum(u[i] ** 2 for i in range(0, t - 1))
        assert num / den == -1.0
        a_hat, sigma_hat = ar1_plugin(sample(u))
        assert a_hat == -0.97
        assert sigma_hat > 0.0

    def test_matches_displayed_sums(self):
        rng = np.random.default_rng(8)
        u = rng.standard_normal(64)
        s = sample(u)
        r = s.residuals
        num = sum(r[i] * r[i - 1] for i in range(1, 64))
        den = sum(r[i] ** 2 for i in range(0, 63))
        a_hat, sigma_hat = ar1_plugin(s)
        assert a_hat == pytest.approx(num / den, rel=1e-13)
        innov = sum((r[i] - a_hat * r[i - 1]) ** 2 for i in range(1, 64))
        assert sigma_hat == pytest.approx(
            innov / 63 / (1 - a_hat) ** 2, rel=1e-12
        )

    def test_consistency_at_rho_half(self):
        for seed in (0, 1, 2):
            rng = np.random.default_rng(seed)
            s = simulate_series(100_000, 0.5, 1.0, 0.0, "normal", rng)
            a_hat, _ = ar1_plugin(s)
            assert 0.48 <= a_hat <= 0.52

    def test_innovation_variance_that_underflows_is_degenerate(self):
        # at 2^-538 the lag-1 sums are subnormal but not zero, and the
        # innovation variance underflows to zero
        u = np.ldexp(np.random.default_rng(0).standard_normal(100), -538)
        with pytest.raises(DegenerateSampleError, match=r"AR\(1\) innovations"):
            ar1_plugin(sample(u))

    def test_innovation_variance_that_overflows_is_too_large(self):
        # a short ramp: a_hat is near 1, and (1 - a_hat)^-2 overflows sigma_hat
        r = np.arange(10.0) - 4.5
        u = r * math.sqrt(0.5 * np.finfo(float).max / float(r.dot(r)))
        with pytest.raises(DomainError, match="sample values too large"):
            ar1_plugin(sample(u))

    def test_degenerate_and_short(self):
        with pytest.raises(DegenerateSampleError):
            ar1_plugin(sample([3.0] * 10))
        with pytest.raises(DomainError):
            ar1_plugin(sample([1.0, 2.0, 3.0]))


class TestSelectK:
    def test_zero_curvature_clamps_to_cap(self):
        u = np.array([1.0, 0.0, -1.0, 0.0] * 3)
        sel = select_k(sample(u))
        assert sel.a_hat == 0.0
        assert sel.b_bar == 0.0
        assert sel.k_hat == len(u) // 2
        assert sel.clamped

    def test_scale_leaves_b_bar_and_k_invariant(self):
        rng = np.random.default_rng(10)
        u = rng.standard_normal(300)
        s1, s2 = select_k(sample(u)), select_k(sample(10.0 * u))
        assert s2.sigma_hat == pytest.approx(100.0 * s1.sigma_hat, rel=1e-10)
        assert s2.b_bar == pytest.approx(s1.b_bar, rel=1e-10)
        assert s2.k_hat == s1.k_hat

    def test_seven_term_collapse(self):
        # term-by-term bracket equals -(pi^2/3) * a * sigma / (1-a)^4
        for a in np.linspace(-0.9, 0.9, 181):
            for sigma in (0.3, 1.0, 42.0):
                closed = -(math.pi**2 / 3.0) * a * sigma / (1.0 - a) ** 4
                got = _curvature_b(float(a), sigma)
                assert got == pytest.approx(closed, rel=1e-10, abs=1e-12)

    def test_anchor_value(self):
        # a=0.5, T=200: raw rule = 0.42293 * |8 pi^2/3|^{-1/3} * 200^{2/3}
        b_bar = -(math.pi**2 / 3.0) * 0.5 / 0.5**4
        raw = 0.42293 * abs(b_bar) ** (-1 / 3) * 200 ** (2 / 3)
        assert math.ceil(raw) == 5

    def test_monotone_in_t(self):
        # larger samples never select fewer basis functions for the same
        # dependence level (barring clamps)
        violations = 0
        for seed in range(20):
            rng = np.random.default_rng(3000 + seed)
            long = simulate_series(800, 0.5, 1.0, 0.0, "normal", rng)
            short = TimeSeriesSample.from_values(long.values[:200])
            sel_long, sel_short = select_k(long), select_k(short)
            if not (sel_long.clamped or sel_short.clamped):
                violations += sel_long.k_hat < sel_short.k_hat
        assert violations == 0

    def test_bounds_always_hold(self):
        for seed in range(30):
            rng = np.random.default_rng(seed)
            s = simulate_series(50, 0.8, 1.0, 2.0, "normal", rng)
            sel = select_k(s)
            assert 1 <= sel.k_hat <= 25
            assert abs(sel.a_hat) <= 0.97

    def test_degenerate(self):
        with pytest.raises(DegenerateSampleError):
            select_k(sample([1.0] * 8))


class TestResolveK:
    """``series_lrv`` resolves an explicit or "auto" basis count."""

    def test_auto_matches_select_k(self):
        rng = np.random.default_rng(21)
        s = sample(rng.standard_normal(100))
        assert series_lrv(s, "auto").k == select_k(s).k_hat
        assert series_lrv(s).k == select_k(s).k_hat
        assert series_lrv(s).sample is s

    def test_explicit_passthrough_and_bounds(self):
        s = sample(np.arange(12.0))
        assert series_lrv(s, 3).k == 3
        with pytest.raises(DomainError):
            series_lrv(s, 7)
        for bad in ("bogus", 3.7):
            with pytest.raises(DomainError, match="integer or 'auto'"):
                series_lrv(s, bad)


class TestLjungBox:
    def test_degenerate(self):
        with pytest.raises(DegenerateSampleError):
            ljung_box(sample([5.0] * 30), 10)

    def test_lag_bounds(self):
        s = sample(np.arange(10.0))
        with pytest.raises(DomainError):
            ljung_box(s, 10)
        with pytest.raises(DomainError):
            ljung_box(s, 0)

    def test_periodic_residuals_reject_hard(self):
        t = np.arange(1, 201)
        s = sample(np.sin(2.0 * np.pi * t / 20.0))
        q, p = ljung_box(s, 10)
        assert p < 1e-3
        assert q > 100.0

    def test_matches_direct_formula(self):
        rng = np.random.default_rng(33)
        s = sample(rng.standard_normal(150))
        u = s.residuals
        energy = float(u.dot(u))
        q_direct = 0.0
        for k in range(1, 11):
            rho = float(u[k:].dot(u[:-k])) / energy
            q_direct += rho * rho / (150 - k)
        q_direct *= 150 * 152
        q, p = ljung_box(s, 10)
        assert q == pytest.approx(q_direct, rel=1e-12)
        assert p == pytest.approx(oracles.chisq_sf(q, 10.0), abs=1e-10)

    @pytest.mark.parametrize("n", [30, 10_001])
    def test_same_bytes_as_recomputed_energy(self, n):
        s = sample(np.random.default_rng(n).standard_normal(n))
        q_old = oracles.ljung_box_q(s, 10)
        assert ljung_box(s, 10) == (q_old, chisq_sf(q_old, 10.0))

    def test_null_calibration(self):
        # iid data: 5%-level rejections over 2000 fixed seeds stay below 7%
        rejections = 0
        n_seeds = 2000
        for seed in range(n_seeds):
            rng = np.random.default_rng(90_000 + seed)
            _, p = ljung_box(sample(rng.standard_normal(2000)), 10)
            rejections += p < 0.05
        assert rejections / n_seeds <= 0.07


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_lrv_shift_scale_property(seed):
    rng = np.random.default_rng(seed)
    u = rng.standard_normal(60)
    base = series_lrv(sample(u), 6).omega
    moved = series_lrv(sample(2.0 * u - 7.0), 6).omega
    assert moved == pytest.approx(4.0 * base, rel=1e-11, abs=1e-12)


class TestBlasThreads:
    @pytest.mark.parametrize("n", [10_001, 20_001])
    def test_same_bytes_whatever_the_blas_thread_count(self, n):
        # above 10 000 elements OpenBLAS splits a dot product over its threads
        calls = lrv_mod._openblas_threads()
        if calls is None:
            pytest.skip("numpy is not linked against OpenBLAS")
        get, put = calls
        rng = np.random.default_rng(n)
        s = sample(rng.standard_normal(n))
        before = get()
        got = []
        try:
            for n_threads in (1, 2, 4):
                put(n_threads)
                got.append((s.variance(), ar1_plugin(s), ljung_box(s, 10)))
                assert get() == n_threads  # restored after the products
        finally:
            put(before)
        assert got[1] == got[0] and got[2] == got[0]

    def test_guard_nests_on_one_thread(self):
        # a nested entry blocked on the guard's own lock; in a worker thread
        # the hang shows as a thread still alive after the join
        calls = lrv_mod._openblas_threads()
        if calls is None:
            pytest.skip("numpy is not linked against OpenBLAS")
        get = calls[0]
        before = get()
        seen = []

        def nested():
            with lrv_mod._calling_thread_blas():
                with lrv_mod._calling_thread_blas():
                    seen.append(get())
                seen.append(get())  # the inner exit leaves the count alone
            seen.append(get())

        worker = threading.Thread(target=nested, daemon=True)
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive()
        assert seen == [1, 1, before]

    def test_other_threads_wait_for_the_guard(self):
        if lrv_mod._openblas_threads() is None:
            pytest.skip("numpy is not linked against OpenBLAS")
        inside, release, order = threading.Event(), threading.Event(), []

        def holder():
            with lrv_mod._calling_thread_blas():
                inside.set()
                release.wait(10)
                order.append("holder exits")

        def other():
            inside.wait(10)
            with lrv_mod._calling_thread_blas():
                order.append("other enters")

        workers = [threading.Thread(target=f, daemon=True) for f in (holder, other)]
        for worker in workers:
            worker.start()
        assert inside.wait(10)
        time.sleep(0.05)  # time for the other thread to reach the lock
        release.set()
        for worker in workers:
            worker.join(timeout=10)
            assert not worker.is_alive()
        assert order == ["holder exits", "other enters"]
