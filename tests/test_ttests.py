"""Two-sample test statistics against hand computations and brute-force oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from harmeans.errors import DegenerateSampleError, DomainError
from harmeans.lrv import TimeSeriesSample, series_lrv
from harmeans.statdist import normal_cdf, t_cdf, t_quantile
from harmeans.ttests import (
    NORMAL,
    T_ADJUSTED,
    classical_t,
    har_pooled_t,
    har_welch_t,
    k_adf,
    take_p_values,
    welch_t,
)


def sample(values) -> TimeSeriesSample:
    return TimeSeriesSample.from_values(values)


def fits(y1, y2, k1="auto", k2="auto"):
    """Both groups' series LRV estimates, the robust tests' inputs."""
    return series_lrv(y1, k1), series_lrv(y2, k2)


@pytest.fixture(scope="module")
def pair():
    rng = np.random.default_rng(101)
    y1 = sample(rng.standard_normal(48) + 0.2)
    y2 = sample(1.3 * rng.standard_normal(36))
    return y1, y2


class TestClassicalT:
    def test_identical_series(self):
        rng = np.random.default_rng(1)
        y = sample(rng.standard_normal(30))
        rep = classical_t(y, y)
        assert rep.statistic == 0.0
        assert rep.p_value == pytest.approx(1.0)
        assert not rep.reject

    def test_hand_fixture(self):
        # means 1 and 2, both variances 2, pooled sd sqrt(2), df 2
        rep = classical_t(sample([0.0, 2.0]), sample([1.0, 3.0]))
        assert rep.statistic == pytest.approx(-1.0 / math.sqrt(2.0), rel=1e-14)
        assert rep.reference.df == 2.0
        assert rep.detail["var1"] == pytest.approx(2.0)

    def test_location_invariance(self):
        rng = np.random.default_rng(2)
        a = rng.standard_normal(25)
        b = rng.standard_normal(31)
        r1 = classical_t(sample(a), sample(b))
        r2 = classical_t(sample(a + 17.0), sample(b + 17.0))
        assert r2.statistic == pytest.approx(r1.statistic, rel=1e-10)

    def test_degenerate(self):
        with pytest.raises(DegenerateSampleError):
            classical_t(sample([1.0, 1.0, 1.0]), sample([2.0, 2.0]))


class TestWelchT:
    def test_equal_variances_balanced_df(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal(20)
        b = np.concatenate([a[10:], a[:10]])  # same variance, T equal
        rep = welch_t(sample(a), sample(b))
        assert rep.reference.df == pytest.approx(2.0 * (20 - 1), rel=1e-12)

    def test_hand_fixture_reduces_to_classical(self):
        rep = welch_t(sample([0.0, 2.0]), sample([1.0, 3.0]))
        assert rep.statistic == pytest.approx(-1.0 / math.sqrt(2.0), rel=1e-14)
        assert rep.reference.df == pytest.approx(2.0, rel=1e-12)

    def test_one_sided_variance_limit(self):
        # var2 = 0 collapses the df to T1 - 1
        rng = np.random.default_rng(4)
        y1 = sample(rng.standard_normal(15))
        y2 = sample([3.0] * 9)
        rep = welch_t(y1, y2)
        assert rep.reference.df == pytest.approx(14.0, rel=1e-12)

    def test_df_at_any_magnitude(self):
        # the squared variances of data scaled by 2^+-300 or more overflow or
        # underflow; the df is a ratio of them and keeps its bytes
        rng = np.random.default_rng(5)
        a, b = rng.standard_normal(20), 3.0 * rng.standard_normal(30)
        want = welch_t(sample(a), sample(b)).reference.df
        for k in (-500, -300, 300, 500):
            assert welch_t(sample(np.ldexp(a, k)), sample(np.ldexp(b, k))).reference.df == want

    def test_degenerate(self):
        with pytest.raises(DegenerateSampleError):
            welch_t(sample([1.0, 1.0]), sample([2.0, 2.0]))


class TestHarPooledT:
    def test_identical_series(self):
        rng = np.random.default_rng(5)
        y = sample(rng.standard_normal(40))
        rep = har_pooled_t(*fits(y, y, 4, 4))
        assert rep.statistic == 0.0
        assert rep.p_value == pytest.approx(1.0)

    def test_brute_force_length8_fixture(self):
        y1 = sample([0.3, -1.2, 0.8, 2.0, -0.4, 1.1, -0.9, 0.25])
        y2 = sample([1.6, 0.2, -0.7, 0.9, 1.3, -1.8, 0.4, 0.05])
        k1 = k2 = 3

        def z_coeffs(s, k):
            t = s.n
            out = []
            for ell in range(1, k + 1):
                m = (ell + 1) // 2
                acc = 0.0
                for idx in range(1, t + 1):
                    ang = 2.0 * math.pi * m * idx / t
                    base = math.cos(ang) if ell % 2 == 1 else math.sin(ang)
                    acc += math.sqrt(2.0) * base * s.residuals[idx - 1]
                out.append(acc / math.sqrt(t))
            return out

        om1 = sum(z * z for z in z_coeffs(y1, k1)) / k1
        om2 = sum(z * z for z in z_coeffs(y2, k2)) / k2
        pooled = (k1 * om1 + k2 * om2) / (k1 + k2)
        expected = (y1.mean - y2.mean) / (
            math.sqrt(pooled) * math.sqrt(1.0 / 8 + 1.0 / 8)
        )
        rep = har_pooled_t(*fits(y1, y2, k1, k2))
        assert rep.statistic == pytest.approx(expected, abs=1e-12)
        assert rep.reference.df == 6.0

    def test_k_out_of_range(self, pair):
        y1, y2 = pair
        with pytest.raises(DomainError):
            har_pooled_t(*fits(y1, y2, 100, 3))

    def test_degenerate(self):
        with pytest.raises(DegenerateSampleError):
            har_pooled_t(*fits(sample([1.0] * 10), sample([1.0] * 10), 2, 2))


class TestKAdf:
    def test_balanced_equal_k(self):
        for k in (1, 2, 5, 9):
            assert k_adf(2.0, 2.0, 50, 50, k, k) == pytest.approx(2.0 * k, rel=1e-14)

    def test_balanced_general(self):
        assert k_adf(0.7, 0.7, 64, 64, 4, 2) == pytest.approx(16.0 / 3.0, rel=1e-14)

    def test_dominant_side_drives_df(self):
        val = k_adf(100.0, 1.0, 40, 40, 6, 9)
        assert abs(val - 6.0) / 6.0 <= 0.05

    def test_swap_symmetry_exact(self):
        a = k_adf(0.31, 2.7, 37, 85, 4, 2)
        b = k_adf(2.7, 0.31, 85, 37, 2, 4)
        assert a == pytest.approx(b, rel=1e-14)

    def test_any_magnitude(self):
        want = k_adf(0.31, 2.7, 37, 85, 4, 2)
        for k in (-1000, -600, 600, 1000):
            assert k_adf(math.ldexp(0.31, k), math.ldexp(2.7, k), 37, 85, 4, 2) == want

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            k_adf(0.0, 1.0, 10, 10, 2, 2)
        with pytest.raises(DomainError):
            k_adf(1.0, 1.0, 10, 10, 0, 2)


class TestHarWelchT:
    def test_identical_series_both_references(self):
        rng = np.random.default_rng(6)
        y = sample(rng.standard_normal(50))
        for ref in (NORMAL, T_ADJUSTED):
            rep = har_welch_t(*fits(y, y, 5, 5), reference=ref)
            assert rep.statistic == 0.0
            assert rep.p_value == pytest.approx(1.0)

    def test_equals_pooled_when_balanced(self, pair):
        rng = np.random.default_rng(7)
        y1 = sample(rng.standard_normal(60))
        y2 = sample(rng.standard_normal(60) + 0.4)
        rp = har_pooled_t(*fits(y1, y2, 6, 6))
        rw = har_welch_t(*fits(y1, y2, 6, 6))
        assert rw.statistic == pytest.approx(rp.statistic, rel=1e-12)

    def test_t_adjusted_p_dominates_normal_p(self, pair):
        y1, y2 = pair
        rn = har_welch_t(*fits(y1, y2, 4, 4), reference=NORMAL)
        rt = har_welch_t(*fits(y1, y2, 4, 4), reference=T_ADJUSTED)
        assert rt.p_value >= rn.p_value
        assert rt.detail["k_adf"] == rt.reference.df

    def test_call_center_summary_fixture(self):
        # Two-decimal published summary row: means -5.14 / -5.17,
        # lrv sqrts 0.06 / 0.18, T 37 / 85, K 4 / 2; reference p-values
        # 0.137 (normal) and 0.226 (adjusted t).  The inputs are rounded,
        # so assert that both the recomputed point values and the published
        # values fall inside the corner-evaluated rounding envelope.
        t1, t2, kk1, kk2 = 37, 85, 4, 2

        def p_pair(diff, s1, s2):
            om1, om2 = s1 * s1, s2 * s2
            stat = diff / math.sqrt(om1 / t1 + om2 / t2)
            p_norm = 2.0 * (1.0 - normal_cdf(abs(stat)))
            df = k_adf(om1, om2, t1, t2, kk1, kk2)
            p_t = 2.0 * (1.0 - t_cdf(abs(stat), df))
            return p_norm, p_t

        corners = [
            p_pair(d, s1, s2)
            for d in (0.02, 0.04)
            for s1 in (0.055, 0.065)
            for s2 in (0.175, 0.185)
        ]
        norm_band = (min(c[0] for c in corners), max(c[0] for c in corners))
        t_band = (min(c[1] for c in corners), max(c[1] for c in corners))

        point_norm, point_t = p_pair(0.03, 0.06, 0.18)
        for value, band in ((point_norm, norm_band), (0.137, norm_band)):
            assert band[0] - 1e-9 <= value <= band[1] + 1e-9
        for value, band in ((point_t, t_band), (0.226, t_band)):
            assert band[0] - 1e-9 <= value <= band[1] + 1e-9
        assert point_t > point_norm

    def test_unknown_reference(self, pair):
        y1, y2 = pair
        with pytest.raises(DomainError):
            har_welch_t(*fits(y1, y2, 3, 3), reference="bogus")

    def test_one_zero_lrv_is_degenerate_only_for_adjusted_df(self, pair):
        # the adjusted df needs both LRVs positive; the normal reference does not
        constant = sample([2.0] * 20)
        y = pair[0]
        rn = har_welch_t(*fits(constant, y, 1, 3), reference=NORMAL)
        assert rn.detail["lrv1"] == 0.0 and rn.detail["lrv2"] > 0.0
        for y1, y2, k1, k2 in ((constant, y, 1, 3), (y, constant, 3, 1)):
            with pytest.raises(DegenerateSampleError, match="adjusted df"):
                har_welch_t(*fits(y1, y2, k1, k2), reference=T_ADJUSTED)


class TestSharedInvariants:
    def test_swap_antisymmetry(self, pair):
        y1, y2 = pair
        cases = [
            (classical_t(y1, y2), classical_t(y2, y1)),
            (welch_t(y1, y2), welch_t(y2, y1)),
            (har_pooled_t(*fits(y1, y2, 5, 3)), har_pooled_t(*fits(y2, y1, 3, 5))),
            (
                har_welch_t(*fits(y1, y2, 5, 3)),
                har_welch_t(*fits(y2, y1, 3, 5)),
            ),
        ]
        for fwd, rev in cases:
            assert rev.statistic == pytest.approx(-fwd.statistic, rel=1e-12)
            assert rev.p_value == pytest.approx(fwd.p_value, rel=1e-10)

    @settings(max_examples=25, deadline=None)
    @given(st.floats(0.01, 1e4))
    def test_common_scale_equivariance(self, c):
        rng = np.random.default_rng(11)
        a = rng.standard_normal(32)
        b = rng.standard_normal(24) + 0.5
        base = har_welch_t(*fits(sample(a), sample(b), 3, 3))
        scaled = har_welch_t(*fits(sample(c * a), sample(c * b), 3, 3))
        assert scaled.statistic == pytest.approx(base.statistic, rel=1e-9)
        assert scaled.p_value == pytest.approx(base.p_value, rel=1e-8)

    def test_full_k_projection_vs_classical_share_sign(self, pair):
        y1, y2 = pair
        rep_har = har_pooled_t(*fits(y1, y2, y1.max_k, y2.max_k))
        rep_cls = classical_t(y1, y2)
        assert math.isfinite(rep_har.statistic) and math.isfinite(rep_cls.statistic)
        assert math.copysign(1, rep_har.statistic) == math.copysign(
            1, rep_cls.statistic
        )

    def test_reject_agrees_with_quantile_rule(self, pair):
        y1, y2 = pair
        for rep in (
            classical_t(y1, y2, 0.1),
            welch_t(y1, y2, 0.1),
            har_pooled_t(*fits(y1, y2, 4, 4), 0.1),
            har_welch_t(*fits(y1, y2, 4, 4), 0.1),
        ):
            crit = t_quantile(1.0 - 0.1 / 2.0, rep.reference.df)
            assert rep.reject == (abs(rep.statistic) > crit)
            assert 0.0 < rep.p_value <= 1.0


class TestSequenceForm:
    def test_columns_equal_one_call_per_pair(self):
        # pair 1 is constant, so every test is NA there
        rng = np.random.default_rng(17)
        y1s = [sample(rng.standard_normal(30) + 0.4), sample([1.0] * 12), sample(rng.standard_normal(9))]
        y2s = [sample(rng.standard_normal(44)), sample([1.0] * 20), sample(2.0 * rng.standard_normal(61))]
        f1s, f2s = [series_lrv(y, 2) for y in y1s], [series_lrv(y, 2) for y in y2s]
        calls = [
            (classical_t, y1s, y2s, ()),
            (welch_t, y1s, y2s, ()),
            (har_pooled_t, f1s, f2s, ()),
            (har_welch_t, f1s, f2s, (0.05, NORMAL)),
            (har_welch_t, f1s, f2s, (0.05, T_ADJUSTED)),
        ]
        taken = [test(a, b, *args) for test, a, b, args in calls]
        for columns in taken:
            assert columns.p_value is None and columns.reject is None
            with pytest.raises(DomainError, match="take_p_values"):
                columns.report(0)
        for columns, (test, a, b, args) in zip(take_p_values(taken), calls):
            assert set(columns.na) == {1} and np.isnan(columns.p_value[1]) and not columns.reject[1]
            with pytest.raises(DegenerateSampleError, match=columns.na[1]):
                test(a[1], b[1], *args)
            for i in (0, 2):
                assert columns.report(i) == test(a[i], b[i], *args), (columns.name, i)
