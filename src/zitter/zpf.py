"""Band-limited zero-point-field synthesis and spectral estimation.

A field realization is a random-phase superposition of equally spaced modes,

    E(t) = sum_k A_k cos(omega_k t + phi_k),   A_k = sqrt(2 S_E(omega_k) d_omega),

so the one-sided power spectral density S_E is reproduced by construction and
the time-domain variance over one recurrence period equals sum A_k^2 / 2.
Only the phases are random; they come from a deterministic seeded generator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np
# numpy 2 loads these submodules on first use; load them with the package
import numpy.fft  # noqa: F401
import numpy.random  # noqa: F401

PSD_CSV_HEADER = "omega,psd"

#: rows ``_write_csv`` formats and writes at a time
_CSV_CHUNK = 8192

#: values of the scratch ``ModeEnsemble.coefficients`` forms a block of rows
#: in (256 KB): the tangents and the scaled 1 / (1 + t^2), half each
_SCRATCH = 2**15


@dataclass(frozen=True)
class SpectrumModel:
    """One-sided PSD of one electric-field component over a frequency band."""

    psd: Callable[[np.ndarray], np.ndarray]
    band_lo: float
    band_hi: float

    def __post_init__(self) -> None:
        if not (0.0 < self.band_lo < self.band_hi):
            raise ValueError(
                f"band edges must satisfy 0 < band_lo < band_hi, got "
                f"[{self.band_lo}, {self.band_hi}]"
            )


def sed_drive_spectrum(epsilon: float, band: tuple[float, float] = (0.8, 1.2)) -> SpectrumModel:
    """Zero-point drive spectrum in simulation units: S(W) = epsilon W^3 / pi.

    This is the image of the physical zero-point field spectrum
    S_E(w) = 2 hbar w^3 / (3 pi c^3) under the scaling that brings the
    fast-motion equation to dimensionless form, S(W) = g^2 S_E(omega_C W) omega_C
    with drive gain g = e / (m omega_C^2 lambda_bar_C); its Lorentzian
    response integral gives a stationary position variance of 1/2.
    """
    if not epsilon > 0.0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")

    def psd(omega: np.ndarray) -> np.ndarray:
        return epsilon * np.asarray(omega) ** 3 / math.pi

    return SpectrumModel(psd=psd, band_lo=band[0], band_hi=band[1])


def mode_frequencies(band, n_modes: int, count: int | None = None) -> np.ndarray:
    """The first ``count`` (all by default) of n_modes equally spaced frequencies across ``band``.

    They are ``numpy.linspace(lo, hi, n_modes)``'s values,
    k (hi - lo) / (n_modes - 1) + lo with the last one hi, so a prefix comes
    without building the rest.
    """
    lo, hi = band
    count = n_modes if count is None else min(count, n_modes)
    omegas = np.arange(count) * ((hi - lo) / (n_modes - 1)) + lo
    if count == n_modes:
        omegas[-1] = hi
    return omegas


def recurrence_time(omegas: np.ndarray) -> float:
    """2*pi / (w_1 - w_0): a mode sum on an equally spaced grid repeats after it."""
    return 2.0 * math.pi / float(omegas[1] - omegas[0])


@dataclass(frozen=True)
class ModeEnsemble:
    """R >= 1 realizations of one spectrum, held realization-major.

    ``omegas`` and ``amplitudes`` have shape (K,), K >= 2, and ``phases``
    (R, K).
    """

    omegas: np.ndarray
    amplitudes: np.ndarray
    phases: np.ndarray
    seeds: tuple

    def __post_init__(self) -> None:
        n = len(self.omegas)
        if n < 2:
            raise ValueError(f"a mode grid needs at least 2 modes, got {n}")
        if np.ndim(self.phases) != 2 or len(self.phases) < 1:
            raise ValueError(f"phases must be (R, K) with at least one realization, "
                             f"got shape {np.shape(self.phases)}")
        if np.shape(self.amplitudes) != (n,) or np.shape(self.phases)[-1] != n:
            raise ValueError("amplitudes must be (K,) and phases (R, K), K the length "
                             "of omegas")
        if not np.all(np.diff(self.omegas) > 0.0):
            raise ValueError("mode frequencies must be strictly increasing")

    @property
    def t_rec(self) -> float:
        """Recurrence time 2*pi/d_omega; statistics are invalid beyond it."""
        return recurrence_time(self.omegas)

    def coefficients(self, epsilon: float = 0.0) -> np.ndarray:
        """Complex coefficients of E + eps*E', shape (R, K): each mode is Re c_k e^{i w_k t}.

        A mode of E + eps*E' is one cosine,
        A sqrt(1 + (eps w)^2) cos(w t + phi + atan(eps w)), so
        c = A sqrt(1 + (eps w)^2) e^{i theta} with theta = phi + atan(eps w);
        at eps = 0 it is A e^{i phi}. The phasor comes from one tangent of
        the half angle, t = tan(theta / 2), as
        e^{i theta} = ((1 - t^2) + 2 i t) / (1 + t^2): numpy's float64 ``tan``
        is a SIMD loop where its ``sin`` and ``cos`` may each be a scalar libm
        call. Rows are taken in blocks through one reused scratch of
        ``_SCRATCH`` values, or of two rows when a row holds more than half
        that, and the real and imaginary parts are written straight into the
        result, so nothing else of size (R, K) is formed.
        """
        n_modes = self.phases.shape[1]
        scale = self.amplitudes * np.sqrt(1.0 + (epsilon * self.omegas) ** 2)
        shift = np.arctan(epsilon * self.omegas)
        c = np.empty(self.phases.shape, dtype=complex)
        rows = max(1, _SCRATCH // (2 * n_modes))
        scratch = np.empty((2, rows * n_modes))
        for start in range(0, len(c), rows):
            block = slice(start, start + rows)
            phases = self.phases[block]
            t, q = (half[:phases.size].reshape(phases.shape) for half in scratch)
            np.add(phases, shift, out=t)
            t *= 0.5
            np.tan(t, out=t)
            np.multiply(t, t, out=q)
            q += 1.0
            np.divide(scale, q, out=q)  # A sqrt(1 + (eps w)^2) / (1 + t^2)
            im = c.imag[block]
            np.multiply(q, t, out=im)
            im += im
            np.multiply(t, t, out=t)
            np.subtract(1.0, t, out=t)
            np.multiply(q, t, out=c.real[block])
        return c


def child_seeds(master_seed: int, n: int) -> list[int]:
    """Deterministic per-realization sub-seeds derived from a master seed."""
    ss = np.random.SeedSequence(master_seed)
    return [int(child.generate_state(1, np.uint64)[0]) for child in ss.spawn(n)]


def synthesize_ensemble(spec: SpectrumModel, n_modes: int,
                        seeds: Sequence[int]) -> ModeEnsemble:
    """Equally spaced modes across the band, one row of seeded uniform random phases per seed.

    The frequencies and amplitudes are computed once for all realizations;
    row r of the phases is ``numpy.random.default_rng(seeds[r])``'s
    ``uniform(0, 2 pi, n_modes)``, which is 0 + 2 pi U for its
    ``random(n_modes)`` draws U: the rows are drawn in place and scaled once.
    """
    if n_modes < 2:
        raise ValueError(f"n_modes must be >= 2, got {n_modes}")
    omegas = mode_frequencies((spec.band_lo, spec.band_hi), n_modes)
    psd_values = np.asarray(spec.psd(omegas), dtype=float)
    if np.any(psd_values < 0.0) or not np.all(np.isfinite(psd_values)):
        raise ValueError("spectral density must be finite and non-negative on the band")
    d_omega = omegas[1] - omegas[0]
    amplitudes = np.sqrt(2.0 * psd_values * d_omega)
    phases = np.empty((len(seeds), n_modes))
    for row, seed in zip(phases, seeds):
        np.random.default_rng(seed).random(out=row)
    phases *= 2.0 * math.pi
    return ModeEnsemble(omegas=omegas, amplitudes=amplitudes, phases=phases,
                        seeds=tuple(int(s) for s in seeds))


#: time samples per block of a mode sum; bounds its working memory
_BLOCK = 8192
#: largest deviation from an equally spaced grid, relative to the grid's
#: largest magnitude, that a mode sum accepts; ``linspace`` and
#: ``step * arange`` grids deviate by about one ulp (~2e-16)
_GRID_RTOL = 1e-13


def _grid_step(x: np.ndarray) -> float | None:
    """Spacing of ``x`` if it is an equally spaced grid of >= 2 points, else None."""
    n = len(x)
    if n < 2:
        return None
    step = float(x[-1] - x[0]) / (n - 1)
    if step == 0.0:
        return None
    tol = _GRID_RTOL * max(abs(float(x[0])), abs(float(x[-1])))
    if not np.max(np.abs(x - (x[0] + step * np.arange(n)))) <= tol:  # NaN: not a grid
        return None
    return step


def _fft_len(n: int) -> int:
    """Smallest 5-smooth integer >= n; FFTs of such lengths are fastest."""
    while True:
        rest = n
        for p in (2, 3, 5):
            while rest % p == 0:
                rest //= p
        if rest == 1:
            return n
        n += 1


class _ChirpZ:
    """Bluestein's chirp-z plan for sum_k c_k e^{i w_k t}, w_k = w_0 + k dw.

    On a block of at most m times t_b + n h,

        sum_k c_k e^{i w_k t} = e^{i w_0 t} sum_k [c_k e^{i k dw t_b}] W^{kn},
        W = e^{+i dw h},

    and Bluestein's (1970) identity kn = (k^2 + n^2 - (n - k)^2) / 2 turns the
    inner sum into a convolution with the chirp W^{-j^2/2}, evaluated with
    ``numpy.fft`` at a 5-smooth length >= K + m - 1. The plan holds what
    depends only on the modes and the step: the chirp, the kernel's FFT and
    the FFT length, and a reused buffer for R coefficient rows. A call adds
    what depends on a block's times, and serves every row on that block. The chirp is built from exact
    phases pi scale j^2 / m with integer j^2, as in ``scipy.signal.ZoomFFT``;
    raising a rounded W to powers up to (m + K)^2 / 2 instead drifts by
    ~1e-9 relative.
    """

    def __init__(self, omegas: np.ndarray, d_omega: float, h: float, m: int, n_rows: int):
        n_modes = len(omegas)
        self.n_fft = _fft_len(n_modes + m - 1)
        # W^{j^2/2} = e^{-i pi scale j^2 / m} with scale = -m dw h / (2 pi)
        scale = -m * d_omega * h / (2.0 * math.pi)
        self.chirp = np.exp(-1j * (math.pi * scale * np.arange(max(m, n_modes)) ** 2 / m))
        self.kernel = np.fft.fft(
            1.0 / np.concatenate((self.chirp[n_modes - 1:0:-1], self.chirp[:m])), self.n_fft)
        self.k_dw = d_omega * np.arange(n_modes)
        self.w0 = omegas[0]
        self.buf = np.empty((n_rows, self.n_fft), dtype=complex)

    def __call__(self, coeff: np.ndarray, block: np.ndarray) -> np.ndarray:
        """The sums of every row of ``coeff`` at the block of times ``block``.

        The result is a view of the plan's buffer, valid until the next call.
        """
        n_modes = len(self.k_dw)
        pre = np.exp(1j * self.k_dw * block[0]) * self.chirp[:n_modes]
        post = self.chirp[:len(block)] * np.exp(1j * self.w0 * block)
        buf = self.buf
        buf[:, n_modes:] = 0.0
        np.multiply(coeff, pre, out=buf[:, :n_modes])
        np.fft.fft(buf, axis=-1, out=buf)
        buf *= self.kernel
        np.fft.ifft(buf, axis=-1, out=buf)
        values = buf[:, n_modes - 1:n_modes - 1 + len(post)]
        values *= post
        return values


def phasor_sum(omegas: np.ndarray, coeff: np.ndarray, times) -> np.ndarray:
    """Evaluate Re sum_k c_k e^{i w_k t} on an equally spaced grid of times.

    ``coeff`` is complex, (K,) for one realization or realization-major
    (R, K) for R realizations sharing the frequencies; the result has shape
    (N,) or (R, N). Raises ValueError unless ``omegas`` and ``times`` are
    both equally spaced grids of at least 2 points.

    The times are taken in blocks of at most ``_BLOCK``, each a chirp-z
    transform (Rabiner, Schafer & Rader 1969), O((m + K) log(m + K)) per row
    instead of O(m K). One plan serves every block, and the working memory
    is O((m + K) R).
    """
    times = np.atleast_1d(np.asarray(times, dtype=float))
    d_omega, h = _grid_step(omegas), _grid_step(times)
    if d_omega is None or h is None:
        raise ValueError("phasor_sum needs equally spaced mode frequencies and times, "
                         "at least 2 of each")
    rows = np.atleast_2d(coeff)
    n_times = len(times)
    n_blocks = -(-n_times // _BLOCK)
    m = -(-n_times // n_blocks)
    plan = _ChirpZ(omegas, d_omega, h, m, len(rows))
    out = np.empty((len(rows), n_times))
    for start in range(0, n_times, m):
        block = times[start:start + m]
        out[:, start:start + len(block)] = plan(rows, block).real
    return out if np.ndim(coeff) == 2 else out[0]


def estimate_psd(values: Sequence[float], dt: float, segment_len: int,
                 overlap: float = 0.5) -> tuple[np.ndarray, np.ndarray]:
    """Averaged Hann-tapered periodogram, returned as a one-sided PSD in omega.

    Welch's method (1967): segments of ``segment_len`` samples, each starting
    ``segment_len - int(overlap * segment_len)`` samples after the last, are
    tapered with the periodic Hann window and their periodograms averaged.
    The returned density satisfies integral(psd d_omega) ~= variance of the
    input (Parseval, within the taper's leakage).
    """
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        raise ValueError("cannot estimate a PSD from an empty series")
    if segment_len > values.size:
        raise ValueError(f"segment_len {segment_len} exceeds series length {values.size}")
    if not 0.0 <= overlap < 1.0:
        raise ValueError(f"overlap must lie in [0, 1), got {overlap}")
    step = segment_len - int(overlap * segment_len)
    # periodic Hann window, no detrending, density scaling 1 / (fs sum w^2)
    window = 0.5 - 0.5 * np.cos(2.0 * math.pi / segment_len * np.arange(segment_len))
    segments = np.lib.stride_tricks.sliding_window_view(values, segment_len)[::step]
    power = np.abs(np.fft.rfft(segments * window, axis=-1)) ** 2
    pxx = power.mean(axis=0) * (dt / np.sum(window**2))
    # one-sided: double every bin but DC and, for an even length, Nyquist
    pxx[1:(segment_len + 1) // 2] *= 2.0
    freqs = np.fft.rfftfreq(segment_len, dt)
    return 2.0 * math.pi * freqs, pxx / (2.0 * math.pi)


def psd_to_csv(omega: np.ndarray, psd: np.ndarray, path: str) -> None:
    _write_csv(path, PSD_CSV_HEADER, (omega, psd))


def _write_csv(path: str, header: str, columns: Iterable) -> None:
    """Write equal-length columns as CSV rows of ``repr(float(value))``.

    Rows are formatted ``_CSV_CHUNK`` at a time from Python floats and written
    once per chunk, so at most one chunk of text is held.
    """
    arrays = [np.asarray(col, dtype=float) for col in columns]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        for start in range(0, len(arrays[0]), _CSV_CHUNK):
            rows = zip(*(map(repr, a[start:start + _CSV_CHUNK].tolist()) for a in arrays))
            fh.write("\n".join(map(",".join, rows)) + "\n")
