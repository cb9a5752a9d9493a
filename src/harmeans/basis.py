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
``modulated_coefficients`` takes a sequence of spectra, of any lengths, and
forms one block of rows and columns of each one's matrix.
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
    spectra, k: int, k_star: int, rows: tuple = (0, None), cols: tuple = (0, None)
) -> np.ndarray:
    """Rows lo..hi-1 (lo even) and columns c_lo..c_hi-1 of the (k, 2 k_star)
    matrix of the LRV coefficients of u times each bootstrap basis function,
    for each U = dft(u) in the sequence ``spectra``, as one (R, rows, cols)
    array (all of the matrix by default).  Column j-1 is u * cos(2 pi j t/T)
    and column k_star+j-1 is u * sin(2 pi j t/T), j = 1..k_star.

    For LRV frequency m and bootstrap frequency j, with c = 1/sqrt(2T):
    cos-cos is c Re[U(m-j) + U(m+j)], cos-sin is c Im[U(m-j) - U(m+j)],
    sin-cos is -c Im[U(m+j) + U(m-j)] and sin-sin is c Re[U(m-j) - U(m+j)].
    Rows lo..hi-1 hold frequencies m = lo/2+1 .. m_top.  The cosine columns
    of the range and then its sine columns are taken in turn.  For their
    frequencies j = j_lo..j_hi, each spectrum's U(m-j), with f falling, and
    U(m+j), with f rising, are gathered once, as two windows of one row,
    into an (R, 2, L) array of c Re U and c Im U (-c Im U for the cosine
    columns, so that sin-cos is one addition).  U(m-j) and U(m+j) are
    (R, n_freq, n_j) views of it whose steps in m are -1 and +1 and in j
    +1, so the only array of size rows * cols is the result, and no
    spectrum is copied whole.
    """
    lo, hi = rows[0], k if rows[1] is None else min(rows[1], k)
    c_lo, c_hi = cols[0], 2 * k_star if cols[1] is None else min(cols[1], 2 * k_star)
    out = np.empty((len(spectra), hi - lo, c_hi - c_lo))
    for first, last in ((c_lo, min(c_hi, k_star)), (max(c_lo, k_star), c_hi)):
        if first < last:
            sine = first >= k_star
            _fill_columns(spectra, out[:, :, first - c_lo : last - c_lo], lo // 2,
                          first + 1 - k_star * sine, sine)
    return out


def _fill_columns(spectra, block: np.ndarray, m_lo: int, j_lo: int, sine: bool) -> None:
    """Fill ``block``, the (R, rows, n_j) part of ``modulated_coefficients``
    whose rows start at frequency m_lo+1 and whose columns are the cosine
    (or, with ``sine``, the sine) columns of frequencies j_lo..j_lo+n_j-1,
    from one gather of each spectrum.  Its gathered windows are freed on
    return, before the next columns are gathered."""
    r, rows, n_j = block.shape
    n_freq, h = (rows + 1) // 2, rows // 2
    m_top = m_lo + n_freq
    j_hi, width = j_lo + n_j - 1, n_freq + n_j - 1
    # U(m-j) on f = m_top-j_lo down to m_lo+1-j_hi, then U(m+j) on
    # f = m_lo+1+j_lo .. m_top+j_hi
    f = np.arange(m_lo + 1 + j_lo - width, m_top + j_hi + 1)
    np.subtract(m_top + m_lo + 1 - width, f[:width], out=f[:width])
    spec = np.empty((r, 2 * width), complex)
    for row, spectrum in zip(spec, spectra):
        spectrum.take(f, out=row, mode="wrap")
        row *= 1.0 / math.sqrt(2.0 * spectrum.shape[0])
    parts = np.empty((r, 2, 2 * width))
    parts[:, 0] = spec.real
    if sine:
        parts[:, 1] = spec.imag
    else:
        np.negative(spec.imag, out=parts[:, 1])
    st = parts.strides

    def view(q, start, m_step, n_rows):
        # (R, n_rows, n_j) view of row q (c Re U, or +-c Im U) from index `start`
        return np.ndarray((r, n_rows, n_j), parts.dtype, parts, q * st[1] + start * st[2],
                          (st[0], m_step * st[2], st[2]))

    # U(m-j) sits at index m_top-m+j-j_lo of a row and U(m+j) at width+m-m_lo-1+j-j_lo.
    # Cosine columns: cos rows are Re U(m-j) + Re U(m+j), sin rows -Im U(m-j) - Im U(m+j);
    # sine columns: cos rows are Im U(m-j) - Im U(m+j), sin rows Re U(m-j) - Re U(m+j).
    op, (q_cos, q_sin) = (np.subtract, (1, 0)) if sine else (np.add, (0, 1))
    op(view(q_cos, n_freq - 1, -1, n_freq), view(q_cos, width, 1, n_freq), out=block[:, 0::2])
    op(view(q_sin, n_freq - 1, -1, h), view(q_sin, width, 1, h), out=block[:, 1::2])
