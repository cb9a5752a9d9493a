"""Independent numerical oracles for the test suite.

Everything here is deliberately built on different machinery than the
package: densities use math.lgamma from the standard library, CDFs come
from tanh-sinh quadrature of the densities, quantiles from plain bisection
on the quadrature CDF, and the incomplete gamma check uses a separately
written series/continued-fraction pair.  The last two sections differ:
earlier forms of package kernels, kept as byte-exact references, and the
bootstrap multipliers' moment identities, read off the package's transform.
"""

from __future__ import annotations

import math

import numpy as np

from harmeans import basis
from harmeans.errors import DomainError
from harmeans.lrv import _calling_thread_blas

# tanh-sinh rule on (-1, 1): x = tanh((pi/2) sinh(u)).  Nodes are stored as
# distances from the endpoints (1 - |x| computed stably), so no node ever
# collapses onto a singular endpoint.
_TS_H = 0.035
_TS_UMAX = 4.8  # far enough out that even t^(-3/4) endpoint tails converge
_ts_u_half = np.arange(0.0, _TS_UMAX + _TS_H / 2, _TS_H)
_ts_w_arg = 0.5 * np.pi * np.sinh(_ts_u_half)
_TS_EDGE_DIST = 2.0 / (1.0 + np.exp(2.0 * _ts_w_arg))  # = 1 - tanh(w)
_TS_WEIGHT = (
    _TS_H * 0.5 * np.pi * np.cosh(_ts_u_half) / np.cosh(_ts_w_arg) ** 2
)


def quad(f, a: float, b: float, panels: int = 1) -> float:
    """Tanh-sinh quadrature of f over [a, b]; handles endpoint singularities.

    A single panel clusters nodes at the endpoints, so wide intervals with
    interior mass need several panels.
    """
    edges = np.linspace(a, b, panels + 1)
    total = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        half = 0.5 * (hi - lo)
        left = lo + half * _TS_EDGE_DIST[1:]
        right = hi - half * _TS_EDGE_DIST[1:]
        mid_val = float(np.sum(_TS_WEIGHT[0] * f(np.array([lo + half]))))
        wings = float(np.sum(_TS_WEIGHT[1:] * (f(left) + f(right))))
        total += half * (mid_val + wings)
    return total


def normal_pdf(x):
    return np.exp(-0.5 * np.asarray(x) ** 2) / math.sqrt(2.0 * math.pi)


def t_pdf(x, df: float):
    ln_c = (
        math.lgamma(0.5 * (df + 1.0))
        - math.lgamma(0.5 * df)
        - 0.5 * math.log(df * math.pi)
    )
    return np.exp(ln_c - 0.5 * (df + 1.0) * np.log1p(np.asarray(x) ** 2 / df))


def chisq_pdf(x, df: float):
    a = 0.5 * df
    x = np.asarray(x, dtype=np.float64)
    out = np.zeros_like(x)
    pos = x > 0.0
    ln = (a - 1.0) * np.log(x[pos]) - 0.5 * x[pos] - math.lgamma(a) - a * math.log(2.0)
    out[pos] = np.exp(ln)
    return out


def normal_cdf(x: float) -> float:
    if x == 0.0:
        return 0.5
    tail_from = abs(x)
    # integrate the near tail on [|x|, |x|+12] (beyond is < 1e-32)
    tail = quad(normal_pdf, tail_from, tail_from + 12.0)
    return 1.0 - tail if x > 0.0 else tail


def t_cdf(x: float, df: float) -> float:
    if x == 0.0:
        return 0.5
    half_body = quad(lambda t: t_pdf(t, df), 0.0, abs(x))
    return 0.5 + half_body if x > 0.0 else 0.5 - half_body


def chisq_cdf(x: float, df: float) -> float:
    if x <= 0.0:
        return 0.0
    # enough panels that the central bump near df is well resolved
    panels = max(4, int(math.ceil(x / max(math.sqrt(2.0 * df), 1.0))) + 4)
    return quad(lambda t: chisq_pdf(t, df), 0.0, x, panels=panels)


def chisq_sf(x: float, df: float) -> float:
    return 1.0 - chisq_cdf(x, df)


def t_quantile(p: float, df: float, tol: float = 1e-13) -> float:
    """Bisection on the quadrature CDF."""
    if p == 0.5:
        return 0.0
    lo, hi = -1.0, 1.0
    while t_cdf(lo, df) > p:
        lo *= 2.0
    while t_cdf(hi, df) < p:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if t_cdf(mid, df) < p:
            lo = mid
        else:
            hi = mid
        if hi - lo < tol * max(1.0, abs(mid)):
            break
    return 0.5 * (lo + hi)


def chisq_quantile(p: float, df: float) -> float:
    lo, hi = 0.0, max(4.0 * df, 10.0)
    while chisq_cdf(hi, df) < p:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if chisq_cdf(mid, df) < p:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-12 * max(1.0, mid):
            break
    return 0.5 * (lo + hi)


def reg_gamma_upper(a: float, x: float) -> float:
    """Independent regularized upper incomplete gamma (NR-style gser/gcf)."""
    if x < 0.0 or a <= 0.0:
        raise ValueError("bad arguments")
    if x == 0.0:
        return 1.0
    if x < a + 1.0:
        ap = a
        total = 1.0 / a
        delta = total
        for _ in range(1000):
            ap += 1.0
            delta *= x / ap
            total += delta
            if abs(delta) < abs(total) * 1e-17:
                break
        return 1.0 - total * math.exp(-x + a * math.log(x) - math.lgamma(a))
    b = x + 1.0 - a
    c = 1e308
    d = 1.0 / b
    h = d
    for i in range(1, 1000):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < 1e-300:
            d = 1e-300
        c = b + an / c
        if abs(c) < 1e-300:
            c = 1e-300
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-17:
            break
    return h * math.exp(-x + a * math.log(x) - math.lgamma(a))


# Dense time-domain references for the trigonometric bases and the bootstrap
# replicate kernel: every basis value is evaluated on the grid t/T directly,
# with no Fourier transform.

_SQRT2 = math.sqrt(2.0)


def phi(ell: int, x: float) -> float:
    """ell-th LRV basis function: sqrt(2) cos(2 pi m x) for odd ell,
    sqrt(2) sin(2 pi m x) for even ell, with m = ceil(ell / 2)."""
    m = (ell + 1) // 2
    angle = 2.0 * math.pi * m * x
    return _SQRT2 * math.cos(angle) if ell % 2 == 1 else _SQRT2 * math.sin(angle)


def psi(r: int, ell: int, x: float) -> float:
    """Bootstrap basis: cos(2 pi ell x) for r=1, sin(2 pi ell x) for r=2."""
    angle = 2.0 * math.pi * ell * x
    return math.cos(angle) if r == 1 else math.sin(angle)


def phi_matrix(n: int, k: int) -> np.ndarray:
    """(n, k) table of phi_l(t/n) for t = 1..n, l = 1..k."""
    grid = np.arange(1, n + 1, dtype=np.float64) / n
    out = np.empty((n, k), dtype=np.float64)
    for ell in range(1, k + 1):
        m = (ell + 1) // 2
        angle = 2.0 * np.pi * m * grid
        out[:, ell - 1] = np.cos(angle) if ell % 2 == 1 else np.sin(angle)
    return out * _SQRT2


def psi_matrices(n: int, k_star: int) -> tuple[np.ndarray, np.ndarray]:
    """(n, k_star) tables of cos(2 pi l t/n) and sin(2 pi l t/n)."""
    grid = np.arange(1, n + 1, dtype=np.float64) / n
    angles = 2.0 * np.pi * np.outer(grid, np.arange(1, k_star + 1))
    return np.cos(angles), np.sin(angles)


def project(residuals, ell: int) -> float:
    """Projection coefficient n^{-1/2} sum_t phi_ell(t/n) u_t, one slot."""
    u = np.asarray(residuals, dtype=np.float64)
    n = u.size
    vals = np.array([phi(ell, t / n) for t in range(1, n + 1)])
    return float(vals.dot(u) / math.sqrt(n))


def project_all(residuals, k: int) -> np.ndarray:
    """All projection coefficients l = 1..k through the dense table."""
    u = np.asarray(residuals, dtype=np.float64)
    return phi_matrix(u.shape[0], k).T.dot(u) / math.sqrt(u.shape[0])


def eta_from_innovations(n: int, k_star: int, v: np.ndarray) -> np.ndarray:
    """Multipliers K*^{-1/2} (C v_1 + S v_2) for v of shape (2, k_star[, B])."""
    cos_tab, sin_tab = psi_matrices(n, k_star)
    return (cos_tab.dot(v[0]) + sin_tab.dot(v[1])) / math.sqrt(k_star)


def replicate_stats(y1, y2, k1: int, k2: int, v1, v2) -> np.ndarray:
    """Time-domain replicate kernel: eta, then u*eta, demean, phi-table
    projection, then the studentized difference of means (NaN when both
    bootstrap LRVs are zero)."""
    means = []
    omegas = []
    for sample, k, v in ((y1, k1, v1), (y2, k2, v2)):
        eta = eta_from_innovations(sample.n, v.shape[1], v)
        ustar = sample.residuals.reshape(-1, *([1] * (eta.ndim - 1))) * eta
        mean_star = ustar.mean(axis=0)
        z = phi_matrix(sample.n, k).T.dot(ustar - mean_star) / math.sqrt(sample.n)
        means.append(mean_star)
        omegas.append(np.mean(z * z, axis=0) / sample.n)
    denom_sq = omegas[0] + omegas[1]
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(denom_sq > 0.0, (means[0] - means[1]) / np.sqrt(denom_sq), np.nan)


# Earlier forms of package kernels, kept as byte-exact references for
# their faster replacements.


def ar1_paths(n: int, rho: float, sigma: float, mu: float, v: np.ndarray) -> np.ndarray:
    """mu + sigma * w[1:] of the stationary AR(1) recursion on the n+1
    innovations v, one scalar step at a time."""
    w = np.empty(n + 1, dtype=np.float64)
    w[0] = v[0]
    scale = math.sqrt(1.0 - rho * rho)
    for t in range(1, n + 1):
        w[t] = rho * w[t - 1] + scale * v[t]
    return mu + sigma * w[1:]


def modulated_coefficients(spectrum: np.ndarray, k: int, k_star: int) -> np.ndarray:
    """``basis.modulated_coefficients`` read through ``sliding_window_view``
    on a stacked (real, imag, -imag) copy of U."""
    from numpy.lib.stride_tricks import sliding_window_view

    n = spectrum.shape[0]
    m_top = (k + 1) // 2
    spec = spectrum[np.arange(1 - k_star, m_top + k_star + 1) % n]
    spec *= 1.0 / math.sqrt(2.0 * n)
    out = np.empty((k, 2 * k_star))
    cos_rows, sin_rows = out[0::2], out[1::2]
    win = sliding_window_view(np.stack([spec.real, spec.imag, -spec.imag]), k_star, axis=1)
    re_p, im_p, nim_p = win[:, k_star + 1 : k_star + 1 + m_top]
    re_m, im_m, nim_m = win[:, :m_top, ::-1]
    h = k // 2
    np.add(re_m, re_p, out=cos_rows[:, :k_star])
    np.subtract(im_m, im_p, out=cos_rows[:, k_star:])
    np.add(nim_p[:h], nim_m[:h], out=sin_rows[:, :k_star])
    np.subtract(re_m[:h], re_p[:h], out=sin_rows[:, k_star:])
    return out


def replicate_kernel(op1, op2, v1: np.ndarray, v2: np.ndarray) -> np.ndarray:
    """``sharwb._replicate_stats`` with ``np.mean`` for the replicate LRVs
    and the division always masked by ``np.where``."""
    means = []
    omegas = []
    for (w, a), v in ((op1, v1), (op2, v2)):
        v = v.reshape(w.size, *v.shape[2:])
        z = a.dot(v)
        means.append(w.dot(v))
        omegas.append(np.mean(z * z, axis=0))
    denom_sq = omegas[0] + omegas[1]
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(denom_sq > 0.0, (means[0] - means[1]) / np.sqrt(denom_sq), np.nan)


def ljung_box_q(sample, lags: int) -> float:
    """``lrv.ljung_box``'s Q with the residuals' energy taken again, as u.u,
    instead of read from the sample."""
    u = sample.residuals
    t = u.size
    with _calling_thread_blas():
        energy = float(u.dot(u))
        q = 0.0
        for k in range(1, lags + 1):
            rho_k = float(u[k:].dot(u[:-k])) / energy
            q += rho_k * rho_k / (t - k)
    return q * (t * (t + 2.0))


# Moment identities of the bootstrap multipliers: the design autocovariance
# of eta and the closed form of the bootstrap LRV given the data.


def _check_k_star(n: int, k_star: int) -> None:
    if not 1 <= k_star <= n // 2:
        raise DomainError(
            f"k_star must lie in [1, {n // 2}] for T={n}, got {k_star}"
        )


def eta_autocov(n: int, k_star: int, lag: int) -> float:
    """Design covariance Cov(eta_t, eta_{t-lag}): the closed cosine sum."""
    _check_k_star(n, k_star)
    ells = np.arange(1, k_star + 1, dtype=np.float64)
    return float(np.mean(np.cos(2.0 * np.pi * ells * lag / n)))


def eta_series(n: int, v: np.ndarray) -> np.ndarray:
    """The multipliers eta_t = K*^{-1/2} sum_l [cos(2 pi l t/n) v_{1l}
    + sin(2 pi l t/n) v_{2l}], t = 1..n, for innovations v of shape
    (2, K*, ...), from the cosine/sine sums of the unit vectors."""
    k_star = v.shape[1]
    cos_tab, sin_tab = basis.cos_sin_sums(basis.dft(np.eye(n)), k_star)
    return (cos_tab.T.dot(v[0]) + sin_tab.T.dot(v[1])) / math.sqrt(k_star)


def bootstrap_lrv_closed_form(residuals, k_star: int) -> float:
    """Exact conditional variance of n^{-1/2} sum_t u_t eta_t given the data.

    Equals K*^{-1} sum_l (c_l^2 + s_l^2), where c_l and s_l are the scaled
    cosine and sine sums of the residuals, Re U(l)/sqrt(n) and
    -Im U(l)/sqrt(n); nonnegative by construction.  The O(T^2) double sum
    over the multiplier covariances collapses to these K* frequencies of
    one transform.
    """
    u = np.asarray(residuals, dtype=np.float64)
    if u.ndim != 1 or u.size < 2:
        raise DomainError("residuals must be a vector of length >= 2")
    _check_k_star(u.size, k_star)
    cos_sums, sin_sums = basis.cos_sin_sums(basis.dft(u), k_star)
    return float(np.sum(cos_sums * cos_sums + sin_sums * sin_sums) / u.size / k_star)
