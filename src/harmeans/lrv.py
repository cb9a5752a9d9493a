"""Series long-run variance estimation and data-driven basis-count selection.

The long-run variance (LRV) of a stationary series is estimated by
projecting demeaned observations onto the first K orthonormal trigonometric
basis functions and averaging the squared projection coefficients.  The
coefficients are read off the residuals' discrete Fourier transform, taken
once per sample when it is built (``TimeSeriesSample.spectrum``), so an LRV
for any K is a slice of it.  The number of basis functions K is either
supplied by the caller or chosen by the coverage-probability-error-minimizing
rule built on an AR(1) plug-in,

    K_hat = ceil(0.42293 * |B_bar|^(-1/3) * T^(2/3)),

clamped to [1, floor(T/2)] because frequencies above T/2 alias on the
evaluation grid.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import math
import numbers
import threading
from dataclasses import dataclass, field

import numpy as np

from . import basis
from .errors import DegenerateSampleError, DomainError
from .statdist import chisq_sf

_A_HAT_CAP = 0.97  # |AR(1) plug-in| cap; (1-A)^(-4) explodes near a unit root


@functools.cache
def _openblas_threads():
    """(get, set) thread-count calls of the OpenBLAS numpy links, or None."""
    from numpy.linalg import _umath_linalg  # a compiled module linked to the BLAS

    try:
        lib = ctypes.CDLL(_umath_linalg.__file__)
    except OSError:
        return None
    # numpy >= 2 wheels, numpy 1.x wheels, a system OpenBLAS
    for name in ("scipy_openblas_{}_num_threads64_", "openblas_{}_num_threads64_",
                 "openblas_{}_num_threads"):
        get = getattr(lib, name.format("get"), None)
        put = getattr(lib, name.format("set"), None)
        if get is not None and put is not None:
            get.argtypes, get.restype = (), ctypes.c_int
            put.argtypes, put.restype = (ctypes.c_int,), None
            return get, put
    return None


_BLAS_THREADS_LOCK = threading.Lock()
_blas_guard = threading.local()  # .held: this thread is inside the guard


@contextlib.contextmanager
def _calling_thread_blas():
    """Run numpy's OpenBLAS products on the calling thread only.

    A threaded product wakes OpenBLAS's worker pool, whose threads then spin
    for about 0.1 s.  When another core is busy, the product waits for a
    worker to be scheduled (about 15 ms for a 60 x 120 by 120 x 399 product
    that takes 0.2 ms on one thread) and the spinning workers take CPU from
    the rest of the process.  One thread also makes the products, and so the
    replicate statistics, independent of the machine's core count.  The
    thread count is process-wide: the lock keeps concurrent callers from
    restoring each other's setting.  An entry nested in another on the same
    thread does nothing, so only the outermost exit restores the count.
    Other BLAS libraries are left alone.
    """
    calls = _openblas_threads()
    if calls is None or getattr(_blas_guard, "held", False):
        yield
        return
    get, put = calls
    with _BLAS_THREADS_LOCK:
        n_threads = get()
        put(1)
        _blas_guard.held = True
        try:
            yield
        finally:
            _blas_guard.held = False
            put(n_threads)


@dataclass(frozen=True, eq=False)
class TimeSeriesSample:
    """One group's observations with cached mean, demeaned residuals, their
    read-only transform ``spectrum = basis.dft(residuals)`` and their sum of
    squares, which ``variance()`` reads."""

    values: np.ndarray
    mean: float
    residuals: np.ndarray
    spectrum: np.ndarray = field(repr=False)
    _energy: float = field(repr=False)

    @classmethod
    def from_values(cls, values) -> "TimeSeriesSample":
        arr = np.asarray(values)
        if arr.dtype.kind == "c":
            raise DomainError("sample must be real-valued")
        if arr.dtype.kind in "OSUV":
            raise DomainError(f"sample must be numeric, got dtype {arr.dtype}")
        arr = arr.astype(np.float64, copy=False)
        if arr.ndim != 1:
            raise DomainError(f"sample must be one-dimensional, got shape {arr.shape}")
        if arr.size < 2:
            raise DomainError(f"sample needs at least 2 observations, got {arr.size}")
        return cls._from_rows(arr[None])[0]

    @classmethod
    def _from_rows(cls, block: np.ndarray) -> list["TimeSeriesSample"]:
        """One sample per row of an (R, T) float block, T >= 2, built together:
        a mean per row, one ``basis.dft`` of the (T, R) residual block and a
        sum of squares per row, each value as a lone row would get it."""
        if not np.all(np.isfinite(block)):
            raise DomainError("sample contains non-finite values")
        values = block.copy()
        # an overflow, or inf - inf, here fails the energy check
        with np.errstate(over="ignore", invalid="ignore"):
            means = values.mean(axis=1)
            resid = values - means[:, None]
        with _calling_thread_blas(), np.errstate(over="ignore"):
            energies = [u.dot(u) for u in resid]
        if not all(map(math.isfinite, energies)):
            raise DomainError("sample values too large: residual sum of squares is not finite")
        spectra = basis.dft(resid.T)
        for arr in (values, resid, spectra):
            arr.flags.writeable = False
        return [
            cls(values=v, mean=float(m), residuals=u, spectrum=f, _energy=e)
            for v, m, u, f, e in zip(values, means, resid, spectra.T, energies)
        ]

    @property
    def n(self) -> int:
        return int(self.values.size)

    @property
    def max_k(self) -> int:
        return self.n // 2

    def variance(self) -> float:
        """Unbiased sample variance (1/(T-1) normalization)."""
        return float(self._energy / (self.n - 1))


@dataclass(frozen=True, eq=False)
class LrvEstimate:
    """A long-run variance value with its basis count and coefficients, and
    the sample it was taken on."""

    omega: float
    k: int
    coefficients: np.ndarray = field(repr=False)
    sample: TimeSeriesSample = field(repr=False)


@dataclass(frozen=True)
class KSelection:
    """Outcome of the data-driven basis-count rule."""

    k_hat: int
    a_hat: float
    sigma_hat: float
    b_bar: float
    clamped: bool


def ar1_plugin(sample: TimeSeriesSample) -> tuple[float, float]:
    """AR(1) plug-in pair (a_hat, sigma_hat) from the sample's residuals.

    a_hat is the lag-1 regression coefficient
    sum_{t=2}^{T} u_t u_{t-1} / sum_{t=1}^{T-1} u_t^2, clamped to
    [-0.97, 0.97] before sigma_hat = (1-a)^{-2} (T-1)^{-1}
    sum_{t=2}^{T} (u_t - a u_{t-1})^2 is formed.
    """
    u = sample.residuals
    if sample.n < 4:
        raise DomainError(f"AR(1) plug-in needs T >= 4, got T={sample.n}")
    with _calling_thread_blas():
        denom = float(u[:-1].dot(u[:-1]))
        if denom <= 0.0:
            raise DegenerateSampleError("residuals carry no variation")
        a_hat = float(u[1:].dot(u[:-1])) / denom
        a_hat = min(max(a_hat, -_A_HAT_CAP), _A_HAT_CAP)
        innov = u[1:] - a_hat * u[:-1]
        sigma_hat = float(innov.dot(innov)) / (sample.n - 1) / (1.0 - a_hat) ** 2
    if not sigma_hat > 0.0:
        raise DegenerateSampleError("AR(1) innovations carry no variation")
    if sigma_hat == math.inf:
        raise DomainError("sample values too large: AR(1) innovation variance is not finite")
    return a_hat, sigma_hat


def _curvature_b(a: float, sigma: float) -> float:
    """Second-order curvature constant of the AR(1) spectral plug-in.

    Written out term by term exactly as the matrix formula specializes to
    the scalar case; the algebraic collapse -(pi^2/3) * a * sigma / (1-a)^4
    is kept in the test suite as a cross-check, not used here.
    """
    bracket = (
        a * sigma
        + a * a * sigma * a
        + a * a * sigma
        - 6.0 * a * sigma * a
        + sigma * a * a
        + a * sigma * a * a
        + sigma * a
    )
    shrink = (1.0 - a) ** -3
    return -(math.pi**2 / 6.0) * shrink * bracket * shrink


def select_k(sample: TimeSeriesSample) -> KSelection:
    """Data-driven basis count K_hat for the series LRV estimator.

    Evaluates the AR(1) plug-in curvature B, normalizes to B_bar = B/sigma,
    applies K_hat = ceil(0.42293 |B_bar|^{-1/3} T^{2/3}), and clamps the
    result to [1, floor(T/2)].  `clamped` records whether the raw rule was
    overridden (including the B_bar = 0 case, where the raw rule diverges).
    """
    a_hat, sigma_hat = ar1_plugin(sample)
    b_hat = _curvature_b(a_hat, sigma_hat)
    b_bar = b_hat / sigma_hat
    t = sample.n
    k_cap = sample.max_k
    clamped = False
    if b_bar == 0.0:
        k_hat = k_cap
        clamped = True
    else:
        raw = 0.42293 * abs(b_bar) ** (-1.0 / 3.0) * t ** (2.0 / 3.0)
        k_hat = int(math.ceil(raw))
        if k_hat < 1:
            k_hat = 1
            clamped = True
        elif k_hat > k_cap:
            k_hat = k_cap
            clamped = True
    if abs(a_hat) == _A_HAT_CAP:
        clamped = True
    return KSelection(
        k_hat=k_hat, a_hat=a_hat, sigma_hat=sigma_hat, b_bar=b_bar, clamped=clamped
    )


def series_lrv(sample: TimeSeriesSample, k="auto") -> LrvEstimate:
    """Series LRV estimate: the average of the first k squared projections.

    ``k`` is an integer in [1, floor(T/2)] or "auto", which takes the
    data-driven count ``select_k(sample).k_hat``.
    """
    if k == "auto":
        k = select_k(sample).k_hat
    elif not isinstance(k, numbers.Integral):
        raise DomainError(f"k must be an integer or 'auto', got {k!r}")
    k = int(k)
    if not 1 <= k <= sample.max_k:
        raise DomainError(
            f"k must lie in [1, {sample.max_k}] for T={sample.n}, got {k}"
        )
    coeffs = basis.coefficients(sample.spectrum, k)
    coeffs.flags.writeable = False
    return LrvEstimate(
        omega=float((coeffs * coeffs).sum()) / k, k=k, coefficients=coeffs, sample=sample
    )


def ljung_box(sample: TimeSeriesSample, lags: int = 10) -> tuple[float, float]:
    """Ljung-Box portmanteau statistic Q(lags) and its chi-square p-value.

    Autocorrelations are computed on the demeaned values with the biased
    (1/T, full-energy) normalization; Q is referred to chi-square(lags).
    """
    t = sample.n
    if not 1 <= lags < t:
        raise DomainError(f"lags must lie in [1, T-1] = [1, {t - 1}], got {lags}")
    u = sample.residuals
    energy = float(sample._energy)
    if energy <= 0.0:
        raise DegenerateSampleError("residuals carry no variation")
    with _calling_thread_blas():
        q = 0.0
        for k in range(1, lags + 1):
            rho_k = float(u[k:].dot(u[:-k])) / energy
            q += rho_k * rho_k / (t - k)
    q *= t * (t + 2.0)
    return q, chisq_sf(q, float(lags))
