"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

The Monte Carlo criteria (1-4) run desk-scale cells (n_mc=2000, B=199) with
the preregistered seed 1234 and check published target rates at the stated
tolerances.  Criteria 2, 3 and 4 each contain one clause that is not
attainable with the basis-count selection rule exactly as specified; those
clauses are asserted as stated and fail honestly (the observed values are
stable across seeds; see the assertion messages for observed vs target).
"""

import math

import numpy as np
import pytest
from conftest import record_criterion

import oracles
from harmeans import basis
from harmeans.lrv import TimeSeriesSample, _curvature_b, select_k, series_lrv
from harmeans.simlab import Scenario, run_cell, simulate_series
from harmeans.statdist import chisq_sf, t_cdf, t_quantile
from harmeans.ttests import har_pooled_t, har_welch_t, k_adf
from oracles import bootstrap_lrv_closed_form, eta_autocov, eta_series

SEED = 1234
DESK = {"n_mc": 2000, "n_boot": 199}


@pytest.fixture(scope="module")
def cells():
    """The five desk-scale Monte Carlo cells used by criteria 1-4."""
    specs = {
        "c1": Scenario(t1=200, t2=200, rho=0.0, seed=SEED, **DESK),
        "c2": Scenario(t1=200, t2=200, rho=0.8, seed=SEED, **DESK),
        "c3": Scenario(
            t1=30, t2=30, rho=0.5, sigma1=0.06, sigma2=0.18, seed=SEED, **DESK
        ),
        "c4a": Scenario(t1=200, t2=200, rho=0.8, a=1.1, seed=SEED, **DESK),
        "c4b": Scenario(t1=200, t2=200, rho=0.8, a=1.2, seed=SEED, **DESK),
    }
    return {name: run_cell(sc) for name, sc in specs.items()}


def pct(cell, name):
    return 100.0 * cell.rejection_rates[name]


def band_check(clauses):
    """clauses: (label, observed, target, tol) -> (ok, detail string)."""
    parts = []
    ok = True
    for label, observed, target, tol in clauses:
        good = abs(observed - target) <= tol
        ok &= good
        parts.append(
            f"{label}={observed:.2f} target {target}±{tol} "
            f"{'ok' if good else 'MISS'}"
        )
    return ok, "; ".join(parts)


def test_criterion_1_size_under_independence(cells):
    cell = cells["c1"]
    clauses = [
        ("t0", pct(cell, "t0"), 5.01, 1.5),
        ("t1", pct(cell, "t1"), 5.01, 1.5),
        ("t1_har", pct(cell, "t1_har"), 5.10, 1.5),
        ("t1_har_boot", pct(cell, "t1_har_boot"), 5.04, 1.5),
    ]
    ok, detail = band_check(clauses)
    record_criterion(1, ok, detail)
    assert ok, detail


def test_criterion_2_overrejection_reproduction(cells):
    cell = cells["c2"]
    clauses = [
        ("t0", pct(cell, "t0"), 51.70, 3.0),
        ("t1_har_boot", pct(cell, "t1_har_boot"), 4.78, 1.5),
    ]
    ok, detail = band_check(clauses)
    record_criterion(2, ok, detail)
    assert ok, detail


def test_criterion_3_unequal_lrv_small_sample(cells):
    cell = cells["c3"]
    clauses = [
        ("t1_har_boot", pct(cell, "t1_har_boot"), 6.85, 2.0),
        ("t1_har", pct(cell, "t1_har"), 10.8, 2.5),
    ]
    ok, detail = band_check(clauses)
    record_criterion(3, ok, detail)
    assert ok, detail


def test_criterion_4_power_monotonicity_and_level(cells):
    p11 = pct(cells["c4a"], "t1_har_boot")
    p12 = pct(cells["c4b"], "t1_har_boot")
    ordering = p12 > p11
    ok_bands, detail = band_check(
        [
            ("boot@a=1.1", p11, 27.9, 4.0),
            ("boot@a=1.2", p12, 75.7, 4.0),
        ]
    )
    detail += f"; ordering power(1.2)>power(1.1) {'ok' if ordering else 'MISS'}"
    ok = ok_bands and ordering
    record_criterion(4, ok, detail)
    assert ok, detail


def test_criterion_5_eta_moment_identities():
    n, k_star, draws = 50, 5, 100_000
    rng = np.random.default_rng(SEED)
    v = rng.standard_normal((2, k_star, draws))
    eta = eta_series(n, v)  # (n, draws)
    worst_var = max(abs(float(eta[t].var()) - 1.0) for t in (0, 9, 24, 49))
    worst_cov = 0.0
    for t, s in ((9, 6), (20, 17), (40, 35)):
        emp = float(np.mean(eta[t] * eta[s]))
        worst_cov = max(worst_cov, abs(emp - eta_autocov(n, k_star, t - s)))
    ok = worst_var <= 0.02 and worst_cov <= 0.02
    detail = (
        f"max |Var-1|={worst_var:.4f} (tol 0.02); "
        f"max |Cov-closed_form|={worst_cov:.4f} (tol 0.02)"
    )
    record_criterion(5, ok, detail)
    assert ok, detail


def test_criterion_6_bootstrap_lrv_identity():
    n, k_star, draws = 100, 5, 100_000
    rng = np.random.default_rng(SEED)
    series = simulate_series(n, 0.5, 1.0, 0.0, "normal", rng)
    u = series.residuals
    closed = bootstrap_lrv_closed_form(u, k_star)
    v = rng.standard_normal((2, k_star, draws))
    eta = eta_series(n, v)
    stats = u.dot(eta) / math.sqrt(n)
    mc_var = float(stats.var())
    rel_err = abs(mc_var - closed) / closed
    ok = rel_err <= 0.02
    detail = f"closed={closed:.5f} mc={mc_var:.5f} rel_err={rel_err:.4f} (tol 0.02)"
    record_criterion(6, ok, detail)
    assert ok, detail


def test_criterion_7_balanced_df_and_statistic_identity():
    worst_df = 0.0
    for k1 in (1, 2, 4, 7):
        for k2 in (1, 3, 8):
            for omega in (0.2, 1.0, 9.0):
                got = k_adf(omega, omega, 64, 64, k1, k2)
                target = 4.0 * k1 * k2 / (k1 + k2)
                worst_df = max(worst_df, abs(got - target) / target)
    worst_stat = 0.0
    for seed in range(5):
        rng = np.random.default_rng(seed)
        y1 = TimeSeriesSample.from_values(rng.standard_normal(60))
        y2 = TimeSeriesSample.from_values(rng.standard_normal(60) + 0.3)
        lrv1, lrv2 = series_lrv(y1, 5), series_lrv(y2, 5)
        sp = har_pooled_t(lrv1, lrv2).statistic
        sw = har_welch_t(lrv1, lrv2).statistic
        worst_stat = max(worst_stat, abs(sp - sw) / abs(sw))
    ok = worst_df <= 1e-13 and worst_stat <= 1e-12
    detail = (
        f"max rel err k_adf balanced={worst_df:.2e} (tol 1e-13); "
        f"max rel diff pooled vs welch statistic={worst_stat:.2e} (tol 1e-12)"
    )
    record_criterion(7, ok, detail)
    assert ok, detail


def test_criterion_8_basis_lemma_suite():
    # the package's tables: coefficients and cosine/sine sums of the unit vectors
    n, kmax = 1000, 20
    unit = np.eye(n)
    tab = math.sqrt(n) * basis.coefficients(basis.dft(unit), kmax).T
    gram_err = float(np.max(np.abs(tab.T.dot(tab) / n - np.eye(kmax))))
    mean_err = float(np.max(np.abs(tab.mean(axis=0))))
    stacked = np.vstack(basis.cos_sin_sums(basis.dft(unit), kmax)).T
    psi_err = float(
        np.max(np.abs(stacked.T.dot(stacked) / n - 0.5 * np.eye(2 * kmax)))
    )
    ok = gram_err <= 0.02 and mean_err <= 0.01 and psi_err <= 0.02
    detail = (
        f"phi orthonormality err={gram_err:.2e} (tol 0.02); "
        f"phi mean err={mean_err:.2e} (tol 0.01); "
        f"psi lemma err={psi_err:.2e} (tol 0.02)"
    )
    record_criterion(8, ok, detail)
    assert ok, detail


def test_criterion_9_distribution_kernel_oracles():
    rng = np.random.default_rng(SEED)
    worst_cdf = 0.0
    for _ in range(100):
        df = float(np.exp(rng.uniform(np.log(0.5), np.log(500))))
        x = float(rng.uniform(-8, 8))
        worst_cdf = max(worst_cdf, abs(t_cdf(x, df) - oracles.t_cdf(x, df)))
    worst_q = 0.0
    for _ in range(50):
        df = float(np.exp(rng.uniform(np.log(0.5), np.log(300))))
        p = float(rng.uniform(0.05, 0.95))
        worst_q = max(worst_q, abs(t_quantile(p, df) - oracles.t_quantile(p, df)))
    worst_sf = 0.0
    for _ in range(50):
        df = float(np.exp(rng.uniform(np.log(0.5), np.log(400))))
        x = float(rng.uniform(0.0, 4.0 * df))
        worst_sf = max(worst_sf, abs(chisq_sf(x, df) - oracles.chisq_sf(x, df)))
    ok = worst_cdf <= 1e-9 and worst_q <= 1e-9 and worst_sf <= 1e-8
    detail = (
        f"200 points: max t_cdf err={worst_cdf:.2e} (tol 1e-9); "
        f"max t_quantile err={worst_q:.2e} (tol 1e-9); "
        f"max chisq_sf err={worst_sf:.2e} (tol 1e-8)"
    )
    record_criterion(9, ok, detail)
    assert ok, detail


def test_criterion_10_select_k_algebra():
    worst = 0.0
    for a in np.linspace(-0.9, 0.9, 361):
        for sigma in (0.4, 1.0, 25.0):
            seven_term = _curvature_b(float(a), sigma)
            closed = -(math.pi**2 / 3.0) * a * sigma / (1.0 - a) ** 4
            denom = max(abs(closed), 1e-300)
            worst = max(worst, abs(seven_term - closed) / denom) if a != 0 else worst
    # K_hat at a=0.5, T=200 via both paths
    sigma = 2.3
    ks = []
    for b_hat in (_curvature_b(0.5, sigma), -(math.pi**2 / 3.0) * 0.5 * sigma / 0.5**4):
        b_bar = b_hat / sigma
        ks.append(math.ceil(0.42293 * abs(b_bar) ** (-1 / 3) * 200 ** (2 / 3)))
    # end-to-end: select_k agrees with the rule applied to its own plug-in
    rng = np.random.default_rng(SEED)
    sel = select_k(simulate_series(200, 0.5, 1.0, 0.0, "normal", rng))
    recomputed = math.ceil(
        0.42293 * abs(sel.b_bar) ** (-1 / 3) * 200 ** (2 / 3)
    )
    ok = worst <= 1e-10 and ks == [5, 5] and sel.k_hat == recomputed
    detail = (
        f"max rel diff seven-term vs closed form={worst:.2e} (tol 1e-10); "
        f"K_hat(a=0.5, T=200) by both paths={ks} (target [5, 5]); "
        f"select_k end-to-end consistent={sel.k_hat == recomputed}"
    )
    record_criterion(10, ok, detail)
    assert ok, detail
