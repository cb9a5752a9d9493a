"""Basis identities on the grid t/T, read off the package's one transform.

The package never tabulates a basis: the table of phi_l(t/T) is the LRV
coefficients of the unit vectors times sqrt(T), and the cosine/sine tables
of the bootstrap basis are the cosine/sine sums of the unit vectors.  These
tests build the tables that way and check them against the dense
time-domain references in ``oracles``.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from harmeans import basis
from harmeans.errors import DomainError
from harmeans.lrv import TimeSeriesSample, series_lrv
from harmeans.sharwb import shar_wb_test
from oracles import bootstrap_lrv_closed_form

SQRT2 = math.sqrt(2.0)


def phi_table(n: int, k: int) -> np.ndarray:
    """(n, k) table of phi_l(t/n) from the coefficients of the unit vectors."""
    return math.sqrt(n) * basis.coefficients(basis.dft(np.eye(n)), k).T


def psi_tables(n: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """(n, k) tables of cos(2 pi l t/n) and sin(2 pi l t/n)."""
    cos_sums, sin_sums = basis.cos_sin_sums(basis.dft(np.eye(n)), k)
    return cos_sums.T, sin_sums.T


def coefficient(u, ell: int) -> float:
    return float(basis.coefficients(basis.dft(np.asarray(u, dtype=np.float64)), ell)[ell - 1])


class TestPhi:
    def test_half_period_cosine(self):
        assert oracles.phi(1, 0.5) == pytest.approx(-SQRT2, abs=1e-15)
        assert phi_table(4, 1)[1, 0] == pytest.approx(-SQRT2, abs=1e-15)

    def test_quarter_period_sine(self):
        assert oracles.phi(2, 0.25) == pytest.approx(SQRT2, abs=1e-15)
        assert phi_table(4, 2)[0, 1] == pytest.approx(SQRT2, abs=1e-15)

    def test_bounded(self):
        for n in (8, 37, 200):
            assert np.max(np.abs(phi_table(n, n // 2))) <= SQRT2 + 1e-12

    def test_discrete_mean_zero_exact_sum(self):
        # full-period trigonometric sums over t/T vanish identically
        n = 1000
        total = coefficient(np.ones(n), 3) * math.sqrt(n) / n
        assert abs(total) <= 1e-12

    def test_matches_brute_slot_convention(self):
        rng = np.random.default_rng(2)
        for n in (7, 100, 333):
            k = min(49, n // 2)
            tab = phi_table(n, k)
            for _ in range(100):
                ell = int(rng.integers(1, k + 1))
                t = int(rng.integers(1, n + 1))
                # periodicity: phi_l(t/n) is the frequency-1 slot of the same
                # parity at (m t mod n)/n, which keeps the oracle's angle exact
                m = (ell + 1) // 2
                x = ((m * t) % n or n) / n
                assert tab[t - 1, ell - 1] == pytest.approx(
                    oracles.phi(2 - ell % 2, x), abs=1e-14
                )

    def test_domain(self):
        # the projection's domain is checked where it is entered
        y = TimeSeriesSample.from_values(np.arange(10.0))
        with pytest.raises(DomainError):
            series_lrv(y, 0)
        with pytest.raises(DomainError):
            series_lrv(y, 6)


class TestPsi:
    def test_cosine_at_one(self):
        cos_tab, _ = psi_tables(50, 19)
        for ell in (1, 2, 7, 19):
            assert cos_tab[-1, ell - 1] == pytest.approx(1.0, abs=1e-12)

    def test_sine_quarter(self):
        assert oracles.psi(2, 1, 0.25) == pytest.approx(1.0, abs=1e-15)
        assert psi_tables(4, 1)[1][0, 0] == pytest.approx(1.0, abs=1e-15)

    def test_cross_product_sum_vanishes(self):
        n = 500
        cos_tab, sin_tab = psi_tables(n, 2)
        total = float(cos_tab[:, 1].dot(sin_tab[:, 1])) / n
        assert abs(total) <= 1e-12

    def test_domain(self):
        y = TimeSeriesSample.from_values(np.arange(30.0))
        with pytest.raises(DomainError):
            series_lrv(y, 16)  # the multipliers' K* is the group's K
        with pytest.raises(DomainError):
            shar_wb_test(series_lrv(y, 3), series_lrv(y, 3), n_boot=99, law="uniform")
        with pytest.raises(DomainError):
            bootstrap_lrv_closed_form(np.ones(10), 0)


class TestDiscreteOrthogonality:
    def test_phi_orthonormal_T1000(self):
        n, k = 1000, 20
        tab = phi_table(n, k)
        gram = tab.T.dot(tab) / n
        assert np.max(np.abs(gram - np.eye(k))) <= 0.02

    def test_phi_mean_zero_T1000(self):
        tab = phi_table(1000, 20)
        assert np.max(np.abs(tab.mean(axis=0))) <= 0.01

    def test_psi_orthogonality_lemma(self):
        # (1/T) sum psi_{r,l} psi_{c,k} = 1/2 iff (r,l)=(c,k), else ~0
        n, k = 1000, 20
        stacked = np.hstack(psi_tables(n, k))
        gram = stacked.T.dot(stacked) / n
        target = 0.5 * np.eye(2 * k)
        assert np.max(np.abs(gram - target)) <= 0.02

    def test_psi_norms_are_half(self):
        n, k = 1000, 20
        for tab in psi_tables(n, k):
            norms = (tab * tab).mean(axis=0)
            assert np.max(np.abs(norms - 0.5)) <= 0.02

    def test_tables_immutable(self):
        # the coefficient table an LRV estimate carries is read-only
        rng = np.random.default_rng(3)
        tab = series_lrv(TimeSeriesSample.from_values(rng.standard_normal(64)), 4).coefficients
        with pytest.raises(ValueError):
            tab[0] = 9.0


class TestProject:
    def test_zero_residuals(self):
        assert coefficient(np.zeros(50), 3) == 0.0

    def test_constant_shift_nearly_invariant(self):
        # mean-zero basis: shifting residuals by c moves the projection by
        # c * sum(phi)/sqrt(T), which is ~0 on the t/T grid
        rng = np.random.default_rng(7)
        u = rng.standard_normal(200)
        for ell in (1, 2, 5):
            assert coefficient(u + 3.5, ell) == pytest.approx(
                coefficient(u, ell), abs=1e-9
            )

    def test_self_projection_recovers_norm(self):
        # projecting the basis onto itself gives sqrt(T) * discrete norm
        n = 400
        for ell in (1, 2, 6):
            vals = np.array([oracles.phi(ell, t / n) for t in range(1, n + 1)])
            direct = float(vals.dot(vals)) / math.sqrt(n)
            assert coefficient(vals, ell) == pytest.approx(direct, rel=1e-12)
            assert coefficient(vals, ell) == pytest.approx(math.sqrt(n), rel=1e-10)

    def test_exact_linearity(self):
        rng = np.random.default_rng(9)
        u = rng.standard_normal(128)
        v = rng.standard_normal(128)
        for ell in (1, 4, 9):
            left = coefficient(2.5 * u - 1.25 * v, ell)
            right = 2.5 * coefficient(u, ell) - 1.25 * coefficient(v, ell)
            assert left == pytest.approx(right, abs=1e-11)

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(st.floats(-1e3, 1e3), min_size=8, max_size=64),
        st.integers(1, 6),
    )
    def test_linearity_in_scale_property(self, values, ell):
        u = np.asarray(values)
        assert coefficient(3.0 * u, ell) == pytest.approx(
            3.0 * coefficient(u, ell), rel=1e-12, abs=1e-9
        )

    def test_on_demand_agrees_with_table(self):
        # the transform agrees with the scalar and the dense-table references
        rng = np.random.default_rng(13)
        u = rng.standard_normal(333)
        got = basis.coefficients(basis.dft(u), 12)
        table_vals = oracles.project_all(u, 12)
        for ell in range(1, 13):
            assert got[ell - 1] == pytest.approx(float(table_vals[ell - 1]), abs=1e-12)
            assert got[ell - 1] == pytest.approx(oracles.project(u, ell), abs=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            TimeSeriesSample.from_values([1.0])
        with pytest.raises(DomainError):
            TimeSeriesSample.from_values([1.0, np.nan, 0.0])
        with pytest.raises(DomainError):
            series_lrv(TimeSeriesSample.from_values(np.ones(10)), 0)


class TestBootstrapTransforms:
    @pytest.mark.parametrize("n", [8, 9, 30, 31, 200, 201])
    def test_modulated_coefficients_match_dense_products(self, n):
        rng = np.random.default_rng(n)
        u = rng.standard_normal(n)
        cos_tab, sin_tab = oracles.psi_matrices(n, n // 2)
        for k in sorted({1, 2, 3, n // 2}):
            for k_star in sorted({1, 2, n // 2}):
                got = basis.modulated_coefficients([basis.dft(u)], k, k_star)[0]
                want = np.hstack([
                    oracles.project_all(u[:, None] * cos_tab[:, :k_star], k),
                    oracles.project_all(u[:, None] * sin_tab[:, :k_star], k),
                ])
                assert got.shape == (k, 2 * k_star)
                assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))

    @pytest.mark.parametrize("n", [8, 9, 30, 31, 200, 201, 10_000])
    def test_modulated_coefficients_same_bytes_as_window_form(self, n):
        # k_star = n // 2 reaches the Nyquist bin when n is even; K = K* =
        # 5000 at n = 10 000 is left out (two 400 MB matrices)
        spectrum = basis.dft(np.random.default_rng(n).standard_normal(n))
        for k in sorted({kk for kk in (1, 2, 3, 12, n // 2) if kk <= n // 2}):
            for k_star in sorted({1, k, n // 2}):
                if k * k_star > 2**24:
                    continue
                got = basis.modulated_coefficients([spectrum], k, k_star)[0]
                want = oracles.modulated_coefficients(spectrum, k, k_star)
                assert got.tobytes() == want.tobytes(), (k, k_star)

    @pytest.mark.parametrize("k", [1, 2, 7, 8, 131, 300])
    def test_modulated_coefficients_row_range_same_bytes_as_full_rows(self, k):
        # blocks of 2, 4 and 128 rows, the last one cut short by K (odd K
        # ends on a cosine row), and a stop past K
        spectrum = basis.dft(np.random.default_rng(k).standard_normal(997))
        full = basis.modulated_coefficients([spectrum], k, k)[0]
        for rows in (2, 4, 128):
            for lo in range(0, k, rows):
                got = basis.modulated_coefficients([spectrum], k, k, (lo, lo + rows))[0]
                assert got.shape == (min(rows, k - lo), 2 * k)
                assert got.tobytes() == full[lo : lo + rows].tobytes(), (rows, lo)

    @pytest.mark.parametrize("k", [1, 2, 7, 8, 131])
    def test_modulated_coefficients_blocks_same_bytes_as_each_whole_matrix(self, k):
        # two spectra of different lengths at once, in blocks of 2 and 128
        # rows by pieces of 1, 5 and 128 columns; 5-column pieces straddle
        # the cosine/sine boundary for every K here but 1 and 5
        rng = np.random.default_rng(k)
        spectra = [basis.dft(rng.standard_normal(n)) for n in (997, 1000)]
        full = [basis.modulated_coefficients([spectrum], k, k)[0] for spectrum in spectra]
        for rows in (2, 128):
            for width in (1, 5, 128):
                for lo in range(0, k, rows):
                    for c_lo in range(0, 2 * k, width):
                        got = basis.modulated_coefficients(
                            spectra, k, k, (lo, lo + rows), (c_lo, c_lo + width))
                        want = np.stack([f[lo : lo + rows, c_lo : c_lo + width] for f in full])
                        assert got.shape == want.shape
                        assert got.tobytes() == want.tobytes(), (rows, width, lo, c_lo)

    @pytest.mark.parametrize("n", [8, 9, 30, 31, 200, 201])
    def test_cos_sin_series_matches_dense_tables(self, n):
        # sum_l [c_l cos + s_l sin] from the cosine/sine sums of the unit
        # vectors, as the eta draws are formed; k_star = n // 2 covers the
        # Nyquist bin when n is even
        rng = np.random.default_rng(n)
        for k_star in sorted({1, 2, n // 2}):
            for shape in ((k_star,), (k_star, 5)):
                c, s = rng.standard_normal(shape), rng.standard_normal(shape)
                cos_tab, sin_tab = oracles.psi_matrices(n, k_star)
                want = cos_tab.dot(c) + sin_tab.dot(s)
                got = math.sqrt(k_star) * oracles.eta_series(n, np.stack([c, s]))
                assert np.allclose(got, want, rtol=0, atol=1e-12)
