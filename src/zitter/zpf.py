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

#: most rows in one of the chunks ``_write_csv`` formats
_CSV_CHUNK = 4096

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


def mode_frequencies(band, n_modes: int) -> np.ndarray:
    """n_modes equally spaced frequencies across ``band``: ``numpy.linspace``'s values.

    They are k (hi - lo) / (n_modes - 1) + lo, with the last one hi.
    """
    lo, hi = band
    omegas = np.arange(n_modes) * ((hi - lo) / (n_modes - 1)) + lo
    omegas[-1] = hi
    return omegas


def recurrence_time(band, n_modes: int) -> float:
    """2*pi / (w_1 - w_0) of ``mode_frequencies(band, n_modes)``; a mode sum repeats after it.

    w_1 is (hi - lo) / (n_modes - 1) + lo, or hi at n_modes = 2, where
    fl(fl(hi - lo) + lo) - lo is fl(hi - lo) again.
    """
    lo, hi = band
    return 2.0 * math.pi / (((hi - lo) / (n_modes - 1) + lo) - lo)


@dataclass(frozen=True)
class ModeEnsemble:
    """R >= 1 realizations of one spectrum on K >= 2 equally spaced modes, held realization-major.

    The modes are ``mode_frequencies(band, K)``; ``amplitudes`` has shape
    (K,) and ``phases`` (R, K).
    """

    band: tuple
    amplitudes: np.ndarray
    phases: np.ndarray

    def __post_init__(self) -> None:
        if np.ndim(self.phases) != 2 or len(self.phases) < 1:
            raise ValueError(f"phases must be (R, K) with at least one realization, "
                             f"got shape {np.shape(self.phases)}")
        n = np.shape(self.phases)[1]
        if n < 2:
            raise ValueError(f"a mode grid needs at least 2 modes, got {n}")
        if np.shape(self.amplitudes) != (n,):
            raise ValueError("amplitudes must be (K,), K the length of a row of phases")
        if not self.band[0] < self.band[1]:
            raise ValueError("mode frequencies must be strictly increasing: the band "
                             f"needs lo < hi, got {self.band}")

    @property
    def omegas(self) -> np.ndarray:
        return mode_frequencies(self.band, len(self.amplitudes))

    @property
    def d_omega(self) -> float:
        """(hi - lo) / (K - 1), the grid's step; the first step w_1 - w_0 may differ by an ulp."""
        lo, hi = self.band
        return (hi - lo) / (len(self.amplitudes) - 1)

    @property
    def t_rec(self) -> float:
        """Recurrence time 2*pi / (w_1 - w_0); statistics are invalid beyond it."""
        return recurrence_time(self.band, len(self.amplitudes))

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
        omegas = self.omegas
        scale = self.amplitudes * np.sqrt(1.0 + (epsilon * omegas) ** 2)
        shift = np.arctan(epsilon * omegas)
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
    band = (spec.band_lo, spec.band_hi)
    omegas = mode_frequencies(band, n_modes)
    psd_values = np.asarray(spec.psd(omegas), dtype=float)
    if np.any(psd_values < 0.0) or not np.all(np.isfinite(psd_values)):
        raise ValueError("spectral density must be finite and non-negative on the band")
    d_omega = omegas[1] - omegas[0]
    amplitudes = np.sqrt(2.0 * psd_values * d_omega)
    phases = np.empty((len(seeds), n_modes))
    for row, seed in zip(phases, seeds):
        np.random.default_rng(seed).random(out=row)
    phases *= 2.0 * math.pi
    return ModeEnsemble(band=band, amplitudes=amplitudes, phases=phases)


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


def period_sum(band, coeff: np.ndarray, n: int) -> tuple[float, np.ndarray]:
    """Re sum_k c_k e^{i w_k h j} at the n times h j, j < n, of one period 2 pi / d_omega.

    The w_k = w_0 + k d_omega are the K >= 2 modes of ``band``, d_omega =
    (hi - lo) / (K - 1), and K is the length of a row of the complex
    ``coeff``: (K,) for one realization or realization-major (R, K). Returns
    the step h = 2 pi / (d_omega n) and the sums, shape (n,) or (R, n).

    On that grid w_k h j = w_0 h j + 2 pi k j / n, so a row's sums are
    Re e^{i w_0 h j} (n ifft(c, n))_j (Cooley & Tukey 1965): one inverse FFT
    of length n >= K per row into a reused buffer, times a ramp built once as
    the s x s products of its values at j = a s and at j = b, s^2 >= n. Each
    phase w_0 h j is reduced modulo 2 pi before it is rounded: w_0 =
    (m + f) d_omega with integer m and fmod's exact remainder f d_omega.
    """
    lo, hi = band
    rows = np.atleast_2d(coeff)
    n_modes = rows.shape[1]
    if n < n_modes:
        # ifft(c, n) would drop the modes past the n-th
        raise ValueError(f"a period of n = {n} samples cannot hold {n_modes} modes")
    d_omega = (hi - lo) / (n_modes - 1)
    rest = math.fmod(lo, d_omega)
    whole, frac = round((lo - rest) / d_omega) % n, rest / d_omega
    s = math.isqrt(n - 1) + 1
    ramp, buf = np.empty((2, s, s), dtype=complex)
    by_a, by_b = (np.exp(2j * math.pi / n * (j * whole % n + j * frac))
                  for j in (s * np.arange(s)[:, None], np.arange(s)))
    np.multiply(by_a, by_b, out=ramp)
    ramp, buf = ramp.reshape(-1)[:n], buf.reshape(-1)[:n]
    out = np.empty((len(rows), n))
    for row, c in zip(out, rows):
        buf[:n_modes] = c
        buf[n_modes:] = 0.0
        np.fft.ifft(buf, norm="forward", out=buf)
        buf *= ramp
        row[:] = buf.real
    return 2.0 * math.pi / (d_omega * n), out if np.ndim(coeff) == 2 else out[0]


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

    Rows are formatted from Python floats in the fewest chunks of at most
    ``_CSV_CHUNK`` rows, split as evenly as the rows allow, so at most one
    chunk of text is held at once.
    """
    arrays = [np.asarray(col, dtype=float) for col in columns]
    n_rows = len(arrays[0])
    n_chunks = -(-n_rows // _CSV_CHUNK)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        for i in range(n_chunks):
            lo, hi = i * n_rows // n_chunks, (i + 1) * n_rows // n_chunks
            rows = zip(*(map(repr, a[lo:hi].tolist()) for a in arrays))
            fh.write("\n".join(map(",".join, rows)) + "\n")
