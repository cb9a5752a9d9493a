"""The evaluation grid t/T and its one discrete Fourier transform.

Every trigonometric quantity of the package is read off

    U(f) = sum_{t=1}^{T} u_t exp(-2 pi i f t / T),   f read mod T,

which is ``np.fft.fft(np.roll(u, 1))``.  The LRV basis phi_l is
sqrt(2) cos(2 pi m t/T) in slot l = 2m-1 and sqrt(2) sin(2 pi m t/T) in
slot 2m, orthonormal and mean-zero on the grid, so its coefficients are
sqrt(2/T) Re U(m) and -sqrt(2/T) Im U(m).  The bootstrap basis is the plain
pair cos(2 pi l t/T), sin(2 pi l t/T), whose sums against u are Re U(l) and
-Im U(l).  The LRV coefficients of u times a bootstrap basis function are
half sums and differences of U at m - l and m + l.  The transform is taken
once per sample (``TimeSeriesSample.spectrum``); the readers below take that
length-T spectrum and slice it.  ``dft``, ``coefficients`` and
``cos_sin_sums`` work along axis 0, so a (T, n) array is n series at once;
``modulated_coefficients`` takes one series.
"""

from __future__ import annotations

import math

import numpy as np


def dft(u: np.ndarray) -> np.ndarray:
    """U(f) for f = 0..T-1 along axis 0, with t = T stored at index 0."""
    return np.fft.fft(np.concatenate((u[-1:], u[:-1])), axis=0)


def coefficients(spectrum: np.ndarray, k: int) -> np.ndarray:
    """The k LRV projection coefficients T^{-1/2} sum_t phi_l(t/T) u_t,
    from U = dft(u)."""
    n = spectrum.shape[0]
    spec = spectrum[1 : (k + 1) // 2 + 1]
    out = np.empty((k,) + spec.shape[1:])
    out[0::2] = spec.real
    out[1::2] = -spec.imag[: k // 2]
    out *= math.sqrt(2.0 / n)
    return out


def cos_sin_sums(spectrum: np.ndarray, k_star: int) -> tuple[np.ndarray, np.ndarray]:
    """sum_t u_t cos(2 pi l t/T) and sum_t u_t sin(2 pi l t/T), l = 1..k_star,
    from U = dft(u)."""
    spec = spectrum[1 : k_star + 1]
    return spec.real, -spec.imag


def modulated_coefficients(
    spectrum: np.ndarray, k: int, k_star: int, lo: int = 0, hi: int | None = None
) -> np.ndarray:
    """Rows lo..hi-1 (lo even; all k rows by default) of the (k, 2 k_star)
    matrix of the LRV coefficients of u times each bootstrap basis function,
    from U = dft(u): column j is u * cos(2 pi j t/T), column k_star + j is
    u * sin(2 pi j t/T).

    For LRV frequency m and bootstrap frequency j, with c = 1/sqrt(2T):
    cos-cos is c Re[U(m-j) + U(m+j)], cos-sin is c Im[U(m-j) - U(m+j)],
    sin-cos is -c Im[U(m+j) + U(m-j)] and sin-sin is c Re[U(m-j) - U(m+j)].
    Rows lo..hi-1 hold frequencies m = lo/2+1 .. m_top.  U on
    f = lo/2+1-k_star .. m_top+k_star is gathered once into a (3, L) array
    of c Re U, c Im U and -c Im U, the last so that sin-cos is one addition.
    U(m+j) and U(m-j) are (n_freq, k_star) views of its rows whose steps in
    j are +1 and -1, so the only array of size rows * k_star is the result.
    """
    n = spectrum.shape[0]
    hi = k if hi is None else min(hi, k)
    m_lo, m_top = lo // 2, (hi + 1) // 2
    n_freq = m_top - m_lo
    spec = spectrum[np.arange(m_lo + 1 - k_star, m_top + k_star + 1) % n]
    spec *= 1.0 / math.sqrt(2.0 * n)
    parts = np.empty((3, spec.size))
    parts[0] = spec.real
    parts[1] = spec.imag
    np.negative(spec.imag, out=parts[2])
    step = parts.itemsize

    def views(first, j_step):
        # (n_freq, k_star) views of each row, starting at index `first`
        return (
            np.ndarray((n_freq, k_star), parts.dtype, parts,
                       step * (row * spec.size + first), (step, j_step * step))
            for row in range(3)
        )

    # U(m+j) sits at index m-m_lo+j+k_star-1 of a row and U(m-j) at m-m_lo-j+k_star-1
    re_p, im_p, nim_p = views(k_star + 1, 1)
    re_m, im_m, nim_m = views(k_star - 1, -1)
    out = np.empty((hi - lo, 2 * k_star))
    cos_rows, sin_rows = out[0::2], out[1::2]
    h = (hi - lo) // 2
    np.add(re_m, re_p, out=cos_rows[:, :k_star])
    np.subtract(im_m, im_p, out=cos_rows[:, k_star:])
    np.add(nim_p[:h], nim_m[:h], out=sin_rows[:, :k_star])
    np.subtract(re_m[:h], re_p[:h], out=sin_rows[:, k_star:])
    return out
