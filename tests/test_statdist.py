"""Distribution-kernel tests against independent quadrature/bisection oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from harmeans.errors import DomainError
from harmeans.statdist import (
    DistKind,
    RefDistribution,
    chisq_sf,
    normal_cdf,
    reg_gamma_upper,
    reg_inc_beta,
    t_cdf,
    t_quantile,
    two_sided_p,
)


class TestNormalCdf:
    def test_at_zero(self):
        assert normal_cdf(0.0) == 0.5

    def test_tail_saturation(self):
        assert abs(normal_cdf(40.0) - 1.0) <= 1e-15

    def test_known_point_against_quadrature(self):
        # oracle: tanh-sinh integration of the normal density
        assert normal_cdf(1.959964) == pytest.approx(
            oracles.normal_cdf(1.959964), abs=1e-9
        )
        assert normal_cdf(1.959964) == pytest.approx(0.975, abs=1e-6)

    def test_exact_symmetry(self):
        for x in (0.1, 0.5, 1.3333, 2.71, 5.0, 11.0):
            assert abs(normal_cdf(x) + normal_cdf(-x) - 1.0) <= 1e-15

    def test_monotone(self):
        grid = np.linspace(-9.0, 9.0, 2001)
        vals = [normal_cdf(float(x)) for x in grid]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_nonfinite_rejected(self):
        with pytest.raises(DomainError):
            normal_cdf(float("nan"))
        with pytest.raises(DomainError):
            normal_cdf(float("inf"))


class TestTCdf:
    def test_symmetry_at_zero(self):
        assert t_cdf(0.0, 7.3) == 0.5

    def test_cauchy_closed_form(self):
        # df=1 is Cauchy: F(1) = 1/2 + atan(1)/pi = 0.75
        assert t_cdf(1.0, 1.0) == pytest.approx(0.75, abs=1e-14)

    def test_against_quadrature_oracle(self):
        assert t_cdf(2.0, 10.0) == pytest.approx(oracles.t_cdf(2.0, 10.0), abs=1e-10)

    def test_symmetry_identity(self):
        rng = np.random.default_rng(5)
        for _ in range(300):
            x = float(rng.uniform(-8, 8))
            df = float(rng.uniform(0.5, 500))
            assert abs(t_cdf(x, df) + t_cdf(-x, df) - 1.0) <= 1e-13

    def test_monotone_in_x_random_df(self):
        # sorted grid of 10^4 points across random df never decreases
        rng = np.random.default_rng(11)
        for df in rng.uniform(0.5, 500, size=10):
            xs = np.sort(rng.uniform(-10, 10, size=1000))
            vals = t_cdf(xs, float(df))
            assert np.all((0.0 <= vals) & (vals <= 1.0))
            assert np.all(np.diff(vals) >= 0.0)

    def test_normal_limit(self):
        for x in (-3.0, -1.0, 0.3, 2.0, 4.0):
            assert t_cdf(x, 1e6) == pytest.approx(normal_cdf(x), abs=1e-6)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            t_cdf(1.0, 0.0)
        with pytest.raises(DomainError):
            t_cdf(1.0, -3.0)
        with pytest.raises(DomainError):
            t_cdf(float("inf"), 2.0)

    @settings(max_examples=60, deadline=None)
    @given(
        x=st.floats(-30, 30, allow_nan=False),
        df=st.floats(0.5, 1000, allow_nan=False),
    )
    def test_symmetry_property(self, x, df):
        assert abs(t_cdf(x, df) + t_cdf(-x, df) - 1.0) <= 1e-13


class TestTQuantile:
    def test_median_is_zero(self):
        for df in (0.7, 1.0, 3.5, 120.0):
            assert t_quantile(0.5, df) == 0.0

    def test_cauchy_975(self):
        # oracle: bisection on the quadrature CDF (12.7062047...)
        assert t_quantile(0.975, 1.0) == pytest.approx(
            oracles.t_quantile(0.975, 1.0), abs=1e-3
        )
        assert t_quantile(0.975, 1.0) == pytest.approx(12.7062, abs=1e-3)

    def test_roundtrip(self):
        assert t_quantile(t_cdf(1.7, 5.5), 5.5) == pytest.approx(1.7, abs=1e-9)

    def test_inverse_identity_grid(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            p = float(rng.uniform(0.001, 0.999))
            df = float(rng.uniform(0.5, 300))
            q = t_quantile(p, df)
            assert t_cdf(q, df) == pytest.approx(p, abs=1e-10)

    def test_strictly_increasing_in_p(self):
        ps = np.linspace(0.01, 0.99, 99)
        for df in (0.8, 4.0, 37.0):
            qs = [t_quantile(float(p), df) for p in ps]
            assert all(b > a for a, b in zip(qs, qs[1:]))

    @pytest.mark.parametrize("df", [0.5, 0.8, 4.0, 37.0, 1e6])
    def test_equals_stepwise_bisection(self, df):
        # the CDF is evaluated many midpoints at a time; the steps read off
        # the same values, so the quantile is the one-step-at-a-time one
        for p in (1e-17, 1e-6, 0.001, 0.025, 0.3, 0.5 + 1e-12, 0.9, 0.975, 1.0 - 1e-12):
            assert t_quantile(p, df) == oracles.t_quantile_stepwise(p, df), p

    @pytest.mark.parametrize("p", [1e-17, 1e-15])
    def test_far_lower_tail_keeps_p(self, p):
        # 1 - p rounds at these p, so the lower tail is bisected on p itself
        q = t_quantile(p, 5.0)
        assert abs(t_cdf(q, 5.0) - p) <= 1e-12 * p

    def test_domain_errors(self):
        for p in (0.0, 1.0, -0.1, 1.1):
            with pytest.raises(DomainError):
                t_quantile(p, 5.0)
        with pytest.raises(DomainError):
            t_quantile(0.5, 0.0)


class TestChisqSf:
    def test_at_zero(self):
        assert chisq_sf(0.0, 10.0) == 1.0

    def test_exponential_special_case(self):
        # chi-square(2) is exponential with mean 2
        assert chisq_sf(2.0, 2.0) == pytest.approx(math.exp(-1.0), abs=1e-9)

    def test_against_quadrature_oracle(self):
        assert chisq_sf(18.31, 10.0) == pytest.approx(
            oracles.chisq_sf(18.31, 10.0), abs=1e-8
        )
        assert chisq_sf(18.31, 10.0) == pytest.approx(0.05, abs=2e-3)

    def test_decreasing_in_x(self):
        xs = np.linspace(0.0, 60.0, 400)
        vals = [chisq_sf(float(x), 7.7) for x in xs]
        assert all(b <= a for a, b in zip(vals, vals[1:]))

    def test_matches_independent_incomplete_gamma(self):
        rng = np.random.default_rng(17)
        for _ in range(300):
            df = float(rng.uniform(0.5, 400))
            x = float(rng.uniform(0.0, 3.0 * df))
            assert chisq_sf(x, df) == pytest.approx(
                oracles.reg_gamma_upper(0.5 * df, 0.5 * x), abs=1e-10
            )

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            chisq_sf(-1.0, 10.0)
        with pytest.raises(DomainError):
            chisq_sf(1.0, 0.0)


class TestPrimitives:
    def test_incomplete_beta_edges(self):
        assert reg_inc_beta(2.0, 3.0, 0.0) == 0.0
        assert reg_inc_beta(2.0, 3.0, 1.0) == 1.0
        with pytest.raises(DomainError):
            reg_inc_beta(0.0, 1.0, 0.5)
        with pytest.raises(DomainError):
            reg_inc_beta(1.0, 1.0, 1.5)

    def test_uniform_special_case(self):
        # I_x(1, 1) = x
        for x in (0.1, 0.25, 0.5, 0.9):
            assert reg_inc_beta(1.0, 1.0, x) == pytest.approx(x, abs=1e-14)

    def test_gamma_upper_edges(self):
        assert reg_gamma_upper(1.5, 0.0) == 1.0
        with pytest.raises(DomainError):
            reg_gamma_upper(-1.0, 1.0)

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_non_finite_shapes_rejected(self, bad):
        with pytest.raises(DomainError):
            chisq_sf(1.0, bad)
        with pytest.raises(DomainError):
            reg_gamma_upper(bad, 1.0)
        with pytest.raises(DomainError):
            reg_inc_beta(bad, 0.5, 0.3)
        with pytest.raises(DomainError):
            reg_inc_beta(0.5, bad, 0.3)


class TestRefDistribution:
    def test_requires_df_when_needed(self):
        with pytest.raises(DomainError):
            RefDistribution(DistKind.STUDENT_T)
        with pytest.raises(DomainError):
            RefDistribution(DistKind.STUDENT_T, df=-1.0)
        with pytest.raises(DomainError):
            RefDistribution(DistKind.STANDARD_NORMAL, df=3.0)

    def test_fractional_df_accepted(self):
        ref = RefDistribution(DistKind.STUDENT_T, df=3.0514)
        assert ref.cdf(0.0) == 0.5

    def test_bootstrap_has_no_cdf(self):
        ref = RefDistribution(DistKind.BOOTSTRAP_EMPIRICAL)
        with pytest.raises(DomainError):
            ref.cdf(0.0)

    def test_two_sided_p(self):
        ref = RefDistribution(DistKind.STANDARD_NORMAL)
        assert two_sided_p(0.0, ref) == pytest.approx(1.0)
        p = two_sided_p(1.959964, ref)
        assert p == pytest.approx(0.05, abs=1e-6)
        assert two_sided_p(-1.959964, ref) == pytest.approx(p, abs=1e-15)

    @pytest.mark.parametrize("x", [0.5, 3.0, 6.0, 9.0, 12.0])
    @pytest.mark.parametrize("df", [None, 30.0])
    def test_two_sided_p_ignores_the_sign(self, x, df):
        kind = DistKind.STANDARD_NORMAL if df is None else DistKind.STUDENT_T
        ref = RefDistribution(kind, df=df)
        p = two_sided_p(x, ref)
        assert 0.0 < p < 1.0
        assert p == two_sided_p(-x, ref)

    def test_two_sided_p_keeps_a_far_tail(self):
        # the value of the incomplete-gamma route, 0.0 from 1 - F(9)
        p = two_sided_p(9.0, RefDistribution(DistKind.STANDARD_NORMAL))
        assert p == pytest.approx(2.257176811907685e-19, rel=1e-12, abs=0.0)


class TestArrayKernel:
    """The incomplete beta over arrays against its one-element form, byte for byte."""

    @staticmethod
    def grid():
        rng = np.random.default_rng(27)
        df = np.exp(rng.uniform(np.log(0.5), np.log(1e6), 600))
        df[:4] = (0.5, 1.0, 30.0, 1e6)
        a, b = 0.5 * df, np.full(df.size, 0.5)
        x = rng.uniform(0.0, 1.0, df.size)
        x[:200] = (a[:200] + 1.0) / (a[:200] + b[:200] + 2.0)  # the symmetry switch
        x[200:210], x[210:220] = 0.0, 1.0
        x[220:260] = np.nextafter((a[220:260] + 1.0) / (a[220:260] + 2.5), 0.0)
        return a, b, x

    def test_incomplete_beta_bytes(self):
        a, b, x = self.grid()
        for args in ((a, b, x), (b, a, x)):
            got = reg_inc_beta(*args)
            want = np.array([oracles.reg_inc_beta(*v) for v in zip(*(v.tolist() for v in args))])
            assert got.tobytes() == want.tobytes()

    def test_two_sided_p_bytes(self):
        rng = np.random.default_rng(9)
        df = np.exp(rng.uniform(np.log(0.5), np.log(1e6), 2000))
        t = rng.standard_normal(df.size) * np.exp(rng.uniform(-3.0, 3.0, df.size))
        t[:5] = 0.0
        want = [oracles.two_sided_t_p(s, d) for s, d in zip(t.tolist(), df.tolist())]
        assert two_sided_p(t, df).tobytes() == np.array(want).tobytes()
        # one element at a time, as a float
        for s, d, p in zip(t[:50].tolist(), df[:50].tolist(), want):
            assert two_sided_p(s, RefDistribution(DistKind.STUDENT_T, df=d)) == p

    def test_empty_and_broadcast(self):
        assert reg_inc_beta(np.array([]), 0.5, np.array([])).shape == (0,)
        got = t_cdf(np.array([[-1.0], [2.0]]), np.array([3.0, 30.0]))
        assert got.shape == (2, 2)
        assert got[1, 0] == t_cdf(2.0, 3.0) and got[0, 1] == t_cdf(-1.0, 30.0)
        assert normal_cdf(np.array([-1.0, 0.0, 2.0])).tolist() == [
            normal_cdf(-1.0), 0.5, normal_cdf(2.0)]
