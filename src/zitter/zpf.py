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
from typing import Callable, Sequence

import numpy as np
from scipy import signal

from .constants import FundamentalConstants, derive_constants

MODESET_CSV_HEADER = "omega_rad_per_s,amplitude,phase"
PSD_CSV_HEADER = "omega,psd"


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


def sed_field_spectrum(fc: FundamentalConstants,
                       band: tuple[float, float] = (0.8, 1.2)) -> SpectrumModel:
    """Zero-point spectrum of one field component, S_E = 2 hbar w^3 / (3 pi c^3).

    Physical (Gaussian) units; ``band`` is given in units of the Compton
    frequency.
    """
    dc = derive_constants(fc)

    def psd(omega: np.ndarray) -> np.ndarray:
        return 2.0 * fc.hbar * np.asarray(omega) ** 3 / (3.0 * math.pi * fc.c**3)

    return SpectrumModel(psd=psd, band_lo=band[0] * dc.omega_C, band_hi=band[1] * dc.omega_C)


def sed_drive_spectrum(epsilon: float, band: tuple[float, float] = (0.8, 1.2)) -> SpectrumModel:
    """Zero-point drive spectrum in simulation units: S(W) = epsilon W^3 / pi.

    This is the image of the physical zero-point field spectrum under the
    scaling that brings the fast-motion equation to dimensionless form; its
    Lorentzian response integral gives a stationary position variance of 1/2.
    """
    if not epsilon > 0.0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")

    def psd(omega: np.ndarray) -> np.ndarray:
        return epsilon * np.asarray(omega) ** 3 / math.pi

    return SpectrumModel(psd=psd, band_lo=band[0], band_hi=band[1])


@dataclass(frozen=True)
class ModeSet:
    """Frequencies, amplitudes and phases of one synthesized realization."""

    omegas: np.ndarray
    amplitudes: np.ndarray
    phases: np.ndarray
    seed: int

    def __post_init__(self) -> None:
        n = len(self.omegas)
        if n < 2:
            raise ValueError(f"a ModeSet needs at least 2 modes, got {n}")
        if len(self.amplitudes) != n or len(self.phases) != n:
            raise ValueError("omegas, amplitudes and phases must have equal length")
        if not np.all(np.diff(self.omegas) > 0.0):
            raise ValueError("mode frequencies must be strictly increasing")

    @property
    def delta_omega(self) -> float:
        return float(self.omegas[1] - self.omegas[0])

    @property
    def t_rec(self) -> float:
        """Recurrence time 2*pi/d_omega; statistics are invalid beyond it."""
        return 2.0 * math.pi / self.delta_omega

    def scaled(self, amplitude_factor: float, frequency_factor: float = 1.0) -> "ModeSet":
        """Same realization with amplitudes and frequencies rescaled (unit changes)."""
        return ModeSet(
            omegas=self.omegas * frequency_factor,
            amplitudes=self.amplitudes * amplitude_factor,
            phases=self.phases,
            seed=self.seed,
        )


def to_sim_drive(ms: ModeSet, fc: FundamentalConstants) -> ModeSet:
    """Rescale a physical-unit field realization to the dimensionless drive.

    The fast-motion drive term is e*E/(m*omega_C^2*lambda_C_bar) evaluated at
    t_sim/omega_C, so amplitudes pick up that gain and frequencies are
    measured in omega_C.
    """
    dc = derive_constants(fc)
    gain = fc.e / (fc.m * dc.omega_C**2 * dc.lambda_C_bar)
    return ms.scaled(amplitude_factor=gain, frequency_factor=1.0 / dc.omega_C)


def child_seeds(master_seed: int, n: int) -> list[int]:
    """Deterministic per-realization sub-seeds derived from a master seed."""
    ss = np.random.SeedSequence(master_seed)
    return [int(child.generate_state(1, np.uint64)[0]) for child in ss.spawn(n)]


def synthesize_band(spec: SpectrumModel, n_modes: int, seed: int) -> ModeSet:
    """Equally spaced modes across the band with seeded uniform random phases."""
    if n_modes < 2:
        raise ValueError(f"n_modes must be >= 2, got {n_modes}")
    omegas = np.linspace(spec.band_lo, spec.band_hi, n_modes)
    psd_values = np.asarray(spec.psd(omegas), dtype=float)
    if np.any(psd_values < 0.0) or not np.all(np.isfinite(psd_values)):
        raise ValueError("spectral density must be finite and non-negative on the band")
    d_omega = omegas[1] - omegas[0]
    amplitudes = np.sqrt(2.0 * psd_values * d_omega)
    phases = np.random.default_rng(seed).uniform(0.0, 2.0 * math.pi, n_modes)
    return ModeSet(omegas=omegas, amplitudes=amplitudes, phases=phases, seed=int(seed))


#: time samples per block of a mode sum; bounds its working memory
_BLOCK = 8192
#: largest deviation from an equally spaced grid, relative to the grid's
#: largest magnitude, that the chirp-z path accepts; ``linspace`` and
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


def mode_sum(omegas: np.ndarray, cos_coeff: np.ndarray, sin_coeff: np.ndarray,
             times: np.ndarray) -> np.ndarray:
    """Evaluate sum_k [cc_k cos(w_k t) + sc_k sin(w_k t)] on a set of times.

    ``cos_coeff``/``sin_coeff`` may be 1-D ``(K,)`` or 2-D ``(K, R)`` to
    evaluate R realizations sharing the same frequencies in one pass.

    When both ``omegas`` (w_k = w_0 + k dw) and ``times`` are equally spaced
    grids, the sum is the real part of a chirp-z transform (Rabiner, Schafer
    & Rader 1969; Bluestein 1970). On a block of times t_b + n h,

        sum_k c_k e^{i w_k t} = e^{i w_0 t} sum_k [c_k e^{i k dw t_b}] W^{kn},
        c_k = cc_k - i sc_k,   W = e^{+i dw h},

    which costs O((m + K) log(m + K)) per block of m times instead of
    O(m K). ``scipy.signal.ZoomFFT`` is used for the transform: it is the
    chirp-z transform on the unit circle built from exact chirp phases,
    where ``CZT`` raises a rounded W to powers up to (m + K)^2 / 2 and its
    results drift by ~1e-9 relative. Blocks of at most ``_BLOCK`` times keep
    the working memory at O((m + K) R).

    Any other input (a single time, an irregular grid) is summed directly as
    a blocked trig matrix product, O(N K); that needs no grid structure.
    """
    times = np.atleast_1d(np.asarray(times, dtype=float))
    n_times = len(times)
    out = np.empty((n_times,) + cos_coeff.shape[1:])
    d_omega = _grid_step(omegas)
    h = _grid_step(times)
    if d_omega is None or h is None:
        for start in range(0, n_times, _BLOCK):
            theta = np.outer(times[start:start + _BLOCK], omegas)
            out[start:start + len(theta)] = np.cos(theta) @ cos_coeff + np.sin(theta) @ sin_coeff
        return out

    n_blocks = -(-n_times // _BLOCK)
    m = -(-n_times // n_blocks)
    # zoom over "frequencies" f_n = -n dw h at fs = 2 pi: X_n = sum_k x_k W^{kn}
    transform = signal.ZoomFFT(len(omegas), (0.0, -m * d_omega * h), m, fs=2.0 * math.pi)
    column = (-1,) + (1,) * (cos_coeff.ndim - 1)
    c = cos_coeff - 1j * sin_coeff
    k_dw = (d_omega * np.arange(len(omegas))).reshape(column)
    for start in range(0, n_times, m):
        block = times[start:start + m]
        y = transform(c * np.exp(1j * k_dw * block[0]), axis=0)[:len(block)]
        carrier = np.exp(1j * omegas[0] * block).reshape(column)
        out[start:start + len(block)] = (carrier * y).real
    return out


def _check_horizon(ms: ModeSet, t: np.ndarray) -> None:
    if np.any(t < 0.0) or np.any(t >= ms.t_rec):
        raise ValueError(
            f"evaluation times must lie in [0, t_rec={ms.t_rec:.6g}) to avoid "
            "recurrence artifacts"
        )


def evaluate_field(ms: ModeSet, t, also_derivative: bool = False):
    """Exact trigonometric sum E(t), optionally with its term-by-term derivative."""
    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    _check_horizon(ms, t_arr)
    cos_phi = np.cos(ms.phases)
    sin_phi = np.sin(ms.phases)
    e = mode_sum(ms.omegas, ms.amplitudes * cos_phi, -ms.amplitudes * sin_phi, t_arr)
    scalar = np.isscalar(t) or np.ndim(t) == 0
    if not also_derivative:
        return float(e[0]) if scalar else e
    aw = ms.amplitudes * ms.omegas
    edot = mode_sum(ms.omegas, -aw * sin_phi, -aw * cos_phi, t_arr)
    if scalar:
        return float(e[0]), float(edot[0])
    return e, edot


def vector_potential(ms: ModeSet, t) -> np.ndarray:
    """Antiderivative a(t) with E = -da/dt, term-by-term (zero mean choice)."""
    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    _check_horizon(ms, t_arr)
    aw = ms.amplitudes / ms.omegas
    # a = -sum (A/w) sin(w t + phi)
    out = mode_sum(ms.omegas, -aw * np.sin(ms.phases), -aw * np.cos(ms.phases), t_arr)
    return float(out[0]) if (np.isscalar(t) or np.ndim(t) == 0) else out


class FieldRealization:
    """A ModeSet bundled with its sample function, derivative and horizon."""

    def __init__(self, modes: ModeSet):
        self.modes = modes
        self.t_rec = modes.t_rec

    def __call__(self, t):
        return evaluate_field(self.modes, t)

    def derivative(self, t):
        return evaluate_field(self.modes, t, also_derivative=True)[1]

    def vector_potential(self, t):
        return vector_potential(self.modes, t)


def estimate_psd(values: Sequence[float], dt: float, segment_len: int,
                 overlap: float = 0.5) -> tuple[np.ndarray, np.ndarray]:
    """Averaged Hann-tapered periodogram, returned as a one-sided PSD in omega.

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
    freqs, pxx = signal.welch(
        values,
        fs=1.0 / dt,
        window="hann",
        nperseg=segment_len,
        noverlap=int(overlap * segment_len),
        detrend=False,
    )
    return 2.0 * math.pi * freqs, pxx / (2.0 * math.pi)


def modeset_to_csv(ms: ModeSet, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(MODESET_CSV_HEADER + "\n")
        for w, a, p in zip(ms.omegas, ms.amplitudes, ms.phases):
            fh.write(f"{float(w)!r},{float(a)!r},{float(p)!r}\n")


def modeset_from_csv(path: str, seed: int = 0) -> ModeSet:
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return ModeSet(omegas=data[:, 0], amplitudes=data[:, 1], phases=data[:, 2], seed=seed)


def psd_to_csv(omega: np.ndarray, psd: np.ndarray, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(PSD_CSV_HEADER + "\n")
        for w, s in zip(omega, psd):
            fh.write(f"{float(w)!r},{float(s)!r}\n")
