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
from typing import Iterable, Sequence

import numpy as np
# numpy 2 loads these submodules on first use; load them with the package
import numpy.fft  # noqa: F401
import numpy.random  # noqa: F401

from .errors import NumericalInstabilityError

PSD_CSV_HEADER = "omega,psd"

#: most rows in one of the chunks ``_write_csv`` formats
_CSV_CHUNK = 4096


def sed_psd(epsilon: float, omega) -> np.ndarray:
    """Zero-point drive spectrum in simulation units: S(W) = epsilon W^3 / pi.

    This is the image of the physical zero-point field spectrum
    S_E(w) = 2 hbar w^3 / (3 pi c^3) under the scaling that brings the
    fast-motion equation to dimensionless form, S(W) = g^2 S_E(omega_C W) omega_C
    with drive gain g = e / (m omega_C^2 lambda_bar_C); its Lorentzian
    response integral gives a stationary position variance of 1/2.
    """
    return epsilon * np.asarray(omega) ** 3 / math.pi


def mode_step(band, n_modes: int) -> float:
    """(hi - lo) / (n_modes - 1), the step d_omega of the n_modes-mode grid across ``band``."""
    lo, hi = band
    return (hi - lo) / (n_modes - 1)


def mode_frequencies(band, n_modes: int) -> np.ndarray:
    """n_modes equally spaced frequencies across ``band``: ``numpy.linspace``'s values.

    They are k ``mode_step(band, n_modes)`` + lo, with the last one hi.
    """
    omegas = np.arange(n_modes) * mode_step(band, n_modes) + band[0]
    omegas[-1] = band[1]
    return omegas


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
        return mode_step(self.band, len(self.amplitudes))

    @property
    def t_rec(self) -> float:
        """Recurrence time 2*pi / d_omega; statistics are invalid beyond it."""
        return 2.0 * math.pi / self.d_omega

    def weights(self, epsilon: float) -> np.ndarray:
        """A (1 + i eps w), shape (K,): a mode of E + eps*E' is Re of it times e^{i (w t + phi)}."""
        return self.amplitudes * (1.0 + 1j * epsilon * self.omegas)


def _unit_phasors(phases: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Write e^{i phi} for the real ``phases`` into the complex ``out`` of their shape; return it.

    The phasor comes from one tangent of the half angle, t = tan(phi / 2), as
    e^{i phi} = ((1 - t^2) + 2 i t) / (1 + t^2) = (2 / q - 1) + i 2 t / q with
    q = 1 + t^2: numpy's float64 ``tan`` is a SIMD loop where its ``sin`` and
    ``cos`` may each be a scalar libm call. Only the real and imaginary parts
    of ``out``, which may be a strided view, are written, so nothing else of
    the phases' size is formed.
    """
    re, im = out.real, out.imag
    np.multiply(phases, 0.5, out=im)
    np.tan(im, out=im)
    np.multiply(im, im, out=re)
    re += 1.0
    np.divide(im, re, out=im)
    im += im
    np.divide(2.0, re, out=re)
    re -= 1.0
    return out


def child_seeds(master_seed: int, n: int) -> list[int]:
    """Deterministic per-realization sub-seeds derived from a master seed."""
    ss = np.random.SeedSequence(master_seed)
    return [int(child.generate_state(1, np.uint64)[0]) for child in ss.spawn(n)]


def synthesize_ensemble(epsilon: float, band, n_modes: int,
                        seeds: Sequence[int]) -> ModeEnsemble:
    """``sed_psd(epsilon, .)`` on n_modes equally spaced modes, one row of phases per seed.

    The amplitudes sqrt(2 S(w_k) d_omega) are computed once for all
    realizations; row r of the phases is ``numpy.random.default_rng(seeds[r])``'s
    ``uniform(0, 2 pi, n_modes)``, which is 0 + 2 pi U for its
    ``random(n_modes)`` draws U: the rows are drawn in place and scaled once.
    Raises NumericalInstabilityError when an amplitude overflows.
    """
    if not epsilon > 0.0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    if not 0.0 < band[0] < band[1]:
        raise ValueError(f"band edges must satisfy 0 < lo < hi, got {band}")
    if n_modes < 2:
        raise ValueError(f"n_modes must be >= 2, got {n_modes}")
    psd = sed_psd(epsilon, mode_frequencies(band, n_modes))
    amplitudes = np.sqrt(2.0 * psd * mode_step(band, n_modes))
    if not np.all(np.isfinite(amplitudes)):
        raise NumericalInstabilityError(
            f"the drive amplitudes sqrt(2 S(w) d_omega) overflow on the band {list(band)}")
    phases = np.empty((len(seeds), n_modes))
    for row, seed in zip(phases, seeds):
        np.random.default_rng(seed).random(out=row)
    phases *= 2.0 * math.pi
    return ModeEnsemble(band=tuple(band), amplitudes=amplitudes, phases=phases)


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


def period_sum(drives: ModeEnsemble, n: int) -> tuple[float, np.ndarray]:
    """E = Re sum_k A_k e^{i (w_k h j + phi_k)} of each realization at the n times h j, j < n.

    The times span one period 2 pi / d_omega of the K >= 2 modes w_k = w_0 +
    k d_omega of ``drives``. Returns the step h = 2 pi / (d_omega n) and the
    sums, shape (R, n).

    On that grid w_k h j = w_0 h j + 2 pi k j / n, so a row's sums are
    Re e^{i w_0 h j} (n ifft(c, n))_j with c = A e^{i phi} (Cooley & Tukey
    1965): per row, ``_unit_phasors`` writes e^{i phi} into a reused buffer of
    length n >= K, where it is scaled by A and inverse transformed, times a
    ramp built once as the s x s products of its values at j = a s and at
    j = b, s^2 >= n. So the run holds no (R, K) array beyond the phases. Each
    phase w_0 h j is reduced modulo 2 pi before it is rounded: w_0 =
    (m + f) d_omega with integer m and fmod's exact remainder f d_omega.
    """
    lo = drives.band[0]
    n_modes = len(drives.amplitudes)
    if n < n_modes:
        # ifft(c, n) would drop the modes past the n-th
        raise ValueError(f"a period of n = {n} samples cannot hold {n_modes} modes")
    d_omega = drives.d_omega
    rest = math.fmod(lo, d_omega)
    whole, frac = round((lo - rest) / d_omega) % n, rest / d_omega
    s = math.isqrt(n - 1) + 1
    ramp, buf = np.empty((2, s, s), dtype=complex)
    by_a, by_b = (np.exp(2j * math.pi / n * (j * whole % n + j * frac))
                  for j in (s * np.arange(s)[:, None], np.arange(s)))
    np.multiply(by_a, by_b, out=ramp)
    ramp, buf = ramp.reshape(-1)[:n], buf.reshape(-1)[:n]
    out = np.empty((len(drives.phases), n))
    for row, phases in zip(out, drives.phases):
        c = _unit_phasors(phases, buf[:n_modes])
        c *= drives.amplitudes
        buf[n_modes:] = 0.0
        np.fft.ifft(buf, norm="forward", out=buf)
        buf *= ramp
        row[:] = buf.real
    return 2.0 * math.pi / (d_omega * n), out


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

    Rows are formatted from Python floats in chunks of ``_CSV_CHUNK`` rows,
    the last one shorter, so at most one chunk of text is held at once.
    """
    arrays = [np.asarray(col, dtype=float) for col in columns]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        for lo in range(0, len(arrays[0]), _CSV_CHUNK):
            rows = zip(*(map(repr, a[lo:lo + _CSV_CHUNK].tolist()) for a in arrays))
            fh.write("\n".join(map(",".join, rows)) + "\n")
