"""Fast-motion dynamics at the Compton scale.

The governing equation, in simulation units (time in 1/omega_C, length in
reduced Compton wavelengths), is

    z'' = -z + eps*z''' + D(t),

where eps = tau*omega_C and D is the scaled high-frequency zero-point drive.
The third-derivative self-force admits an unphysical runaway root, so the
integrator works with the order-reduced form

    z'' = -z - eps*z' + D(t) + eps*D'(t),

which preserves the physical root pair to O(eps^2). The exact characteristic
roots of the unreduced equation are available separately for comparison with
the perturbative pair -eps/2 +- i.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
from scipy import signal

from .constants import FundamentalConstants
from .errors import NumericalInstabilityError
from .zpf import FieldRealization, mode_sum

#: coarsest admissible step: 40 steps per carrier period
MAX_DT = 2.0 * math.pi / 40.0

TRAJECTORY_CSV_HEADER = "t,z,zdot"


# ---------------------------------------------------------------------------
# characteristic roots

@dataclass(frozen=True)
class CharacteristicRoots:
    """Roots of eps*s^3 - s^2 - 1 = 0, classified."""

    physical_pair: tuple[complex, complex]   # conjugate pair, Re < 0
    runaway: float                           # real root ~ 1/eps
    perturbative_pair: tuple[complex, complex]  # -eps/2 +- i (first order in eps)
    epsilon: float


def _check_epsilon(epsilon: float) -> None:
    if not 0.0 < epsilon < 0.1:
        raise ValueError(
            f"epsilon must lie in (0, 0.1) (perturbative regime), got {epsilon}"
        )


def characteristic_roots(epsilon: float) -> CharacteristicRoots:
    """Solve the cubic via its companion matrix and polish with one Newton step."""
    _check_epsilon(epsilon)
    roots = np.roots([epsilon, -1.0, 0.0, -1.0])
    polished = []
    for s in roots:
        f = epsilon * s**3 - s**2 - 1.0
        df = 3.0 * epsilon * s**2 - 2.0 * s
        polished.append(s - f / df)
    polished.sort(key=lambda s: s.real)
    pair = (complex(polished[0].real, abs(polished[0].imag)),
            complex(polished[1].real, -abs(polished[1].imag)))
    if not (pair[0].real < 0.0 < polished[2].real):
        raise RuntimeError(f"unexpected root classification for epsilon={epsilon}")
    return CharacteristicRoots(
        physical_pair=pair,
        runaway=float(polished[2].real),
        perturbative_pair=(complex(-epsilon / 2.0, 1.0), complex(-epsilon / 2.0, -1.0)),
        epsilon=epsilon,
    )


def transient_envelope(t, z0: complex, epsilon: float):
    """Decaying transient exp(-eps*t/2) * (z0 e^{it} + conj(z0) e^{-it}).

    Real-valued by construction; ``t`` may be scalar or array, in sim units.
    """
    _check_epsilon(epsilon)
    t_arr = np.asarray(t, dtype=float)
    value = np.exp(-epsilon * t_arr / 2.0) * 2.0 * (
        z0.real * np.cos(t_arr) - z0.imag * np.sin(t_arr)
    )
    return float(value) if np.ndim(t) == 0 else value


# ---------------------------------------------------------------------------
# time integration

@dataclass(frozen=True)
class FastMotionParams:
    """Parameters of one fast-motion run.

    ``z0`` is the complex transient amplitude: the initial position is
    z0 + conj(z0) = 2*Re(z0). If ``zdot0`` is None the initial velocity is
    taken consistent with the pure transient, -eps*Re(z0) - 2*Im(z0).
    """

    epsilon: float
    drive: FieldRealization | None = None
    z0: complex = 0.5 + 0.0j
    zdot0: float | None = None

    def __post_init__(self) -> None:
        _check_epsilon(self.epsilon)

    @property
    def initial_position(self) -> float:
        return 2.0 * self.z0.real

    @property
    def initial_velocity(self) -> float:
        if self.zdot0 is not None:
            return self.zdot0
        return -self.epsilon * self.z0.real - 2.0 * self.z0.imag


@dataclass(frozen=True)
class Trajectory:
    """Uniformly sampled (t, z, zdot) in simulation units."""

    times: np.ndarray
    z: np.ndarray
    zdot: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not (len(self.times) == len(self.z) == len(self.zdot)):
            raise ValueError("times, z and zdot must have equal length")
        steps = np.diff(self.times)
        if len(steps) and (np.any(steps <= 0.0)
                           or not np.allclose(steps, steps[0], rtol=1e-9, atol=0.0)):
            raise ValueError("times must be strictly increasing with uniform step")

    @property
    def dt(self) -> float:
        return float(self.times[1] - self.times[0])

    def energy(self) -> np.ndarray:
        return 0.5 * (self.zdot**2 + self.z**2)


def _drive_grid(drive: FieldRealization, epsilon: float, dt: float, n_steps: int) -> np.ndarray:
    """Order-reduced forcing D + eps*D' on the half-step grid.

    Combined into a single cosine sum per mode: D + eps*D' has amplitude
    A*sqrt(1+(eps*w)^2) and phase phi + atan(eps*w).
    """
    ms = drive.modes
    t_half = 0.5 * dt * np.arange(2 * n_steps + 1)
    if t_half[-1] >= drive.t_rec:
        raise ValueError(
            f"t_max={dt * n_steps:.6g} reaches the drive validity horizon "
            f"t_rec={drive.t_rec:.6g}"
        )
    boost = np.sqrt(1.0 + (epsilon * ms.omegas) ** 2)
    psi = ms.phases + np.arctan(epsilon * ms.omegas)
    amp = ms.amplitudes * boost
    return mode_sum(ms.omegas, amp * np.cos(psi), -amp * np.sin(psi), t_half)


def _rk4_unforced(epsilon: float, z0: float, v0: float, dt: float,
                  n_steps: int) -> tuple[np.ndarray, np.ndarray]:
    """Scalar classical RK4 for z'' = -z - eps*z'."""
    z, v = z0, v0
    zs = np.empty(n_steps + 1)
    vs = np.empty(n_steps + 1)
    zs[0], vs[0] = z, v
    h = dt
    for i in range(1, n_steps + 1):
        k1z = v
        k1v = -z - epsilon * v
        z2 = z + 0.5 * h * k1z
        v2 = v + 0.5 * h * k1v
        k2v = -z2 - epsilon * v2
        z3 = z + 0.5 * h * v2
        v3 = v + 0.5 * h * k2v
        k3v = -z3 - epsilon * v3
        z4 = z + h * v3
        v4 = v + h * k3v
        k4v = -z4 - epsilon * v4
        z = z + h / 6.0 * (k1z + 2.0 * v2 + 2.0 * v3 + v4)
        v = v + h / 6.0 * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)
        zs[i], vs[i] = z, v
    return zs, vs


def _rk4_forced(epsilon: float, z0, v0, g: np.ndarray, dt: float,
                n_steps: int) -> tuple[np.ndarray, np.ndarray]:
    """RK4 for z'' = -z - eps*z' + g(t), g precomputed on the half-step grid.

    The state may be a scalar pair or arrays of shape (R,) to advance an
    ensemble of realizations in lockstep (g then has shape (2n+1, R)).
    """
    width = () if g.ndim == 1 else (g.shape[1],)
    zs = np.empty((n_steps + 1, *width))
    vs = np.empty((n_steps + 1, *width))
    z = np.full(width, z0, dtype=float) if width else float(z0)
    v = np.full(width, v0, dtype=float) if width else float(v0)
    zs[0], vs[0] = z, v
    h = dt
    for i in range(n_steps):
        g0 = g[2 * i]
        gm = g[2 * i + 1]
        g1 = g[2 * i + 2]
        k1z = v
        k1v = g0 - z - epsilon * v
        z2 = z + 0.5 * h * k1z
        v2 = v + 0.5 * h * k1v
        k2v = gm - z2 - epsilon * v2
        z3 = z + 0.5 * h * v2
        v3 = v + 0.5 * h * k2v
        k3v = gm - z3 - epsilon * v3
        z4 = z + h * v3
        v4 = v + h * k3v
        k4v = g1 - z4 - epsilon * v4
        z = z + h / 6.0 * (k1z + 2.0 * v2 + 2.0 * v3 + v4)
        v = v + h / 6.0 * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)
        zs[i + 1], vs[i + 1] = z, v
    return zs, vs


def _check_dt(dt: float) -> None:
    if not 0.0 < dt <= MAX_DT:
        raise ValueError(
            f"dt must satisfy 0 < dt <= 2*pi/40 ~= {MAX_DT:.6g} "
            f"(at least 40 steps per carrier period), got {dt}"
        )


def _check_unforced_stability(zs: np.ndarray, vs: np.ndarray) -> None:
    energies = 0.5 * (vs**2 + zs**2)
    e0 = energies.flat[0] if energies.ndim else float(energies[0])
    if e0 > 0.0 and np.max(energies) > 10.0 * e0:
        raise NumericalInstabilityError(
            f"unforced energy grew from {e0:.6g} to {np.max(energies):.6g} "
            "(>10x); step size too large for stability"
        )


def integrate_transient(params: FastMotionParams, dt: float, t_max: float) -> Trajectory:
    """Integrate the order-reduced fast-motion equation with fixed-step RK4."""
    _check_dt(dt)
    if t_max <= 0.0:
        raise ValueError(f"t_max must be positive, got {t_max}")
    n_steps = math.ceil(t_max / dt - 1e-9)
    z0 = params.initial_position
    v0 = params.initial_velocity
    meta = {
        "integrator": "rk4",
        "dt": dt,
        "epsilon": params.epsilon,
        "seed": params.drive.modes.seed if params.drive is not None else None,
    }
    if params.drive is None:
        zs, vs = _rk4_unforced(params.epsilon, z0, v0, dt, n_steps)
        _check_unforced_stability(zs, vs)
    else:
        g = _drive_grid(params.drive, params.epsilon, dt, n_steps)
        zs, vs = _rk4_forced(params.epsilon, z0, v0, g, dt, n_steps)
    times = dt * np.arange(n_steps + 1)
    return Trajectory(times=times, z=zs, zdot=vs, meta=meta)


def integrate_ensemble(epsilon: float, drives: Sequence[FieldRealization], dt: float,
                       t_max: float, z0: float = 0.0, zdot0: float = 0.0) -> list[Trajectory]:
    """Integrate many driven realizations sharing one frequency grid.

    All drives must have identical mode frequencies (same band, same mode
    count); the forcing of every realization is then evaluated in a single
    ``mode_sum`` call.
    """
    _check_epsilon(epsilon)
    _check_dt(dt)
    if not drives:
        raise ValueError("at least one drive realization is required")
    omegas = drives[0].modes.omegas
    for d in drives[1:]:
        if not np.array_equal(d.modes.omegas, omegas):
            raise ValueError("all ensemble drives must share the same mode frequencies")
    n_steps = math.ceil(t_max / dt - 1e-9)
    t_half = 0.5 * dt * np.arange(2 * n_steps + 1)
    if t_half[-1] >= drives[0].t_rec:
        raise ValueError(
            f"t_max={t_max:.6g} reaches the drive validity horizon "
            f"t_rec={drives[0].t_rec:.6g}"
        )
    boost = np.sqrt(1.0 + (epsilon * omegas) ** 2)
    delta = np.arctan(epsilon * omegas)
    cos_c = np.stack([d.modes.amplitudes * boost * np.cos(d.modes.phases + delta)
                      for d in drives], axis=1)
    sin_c = np.stack([-d.modes.amplitudes * boost * np.sin(d.modes.phases + delta)
                      for d in drives], axis=1)
    g = mode_sum(omegas, cos_c, sin_c, t_half)
    zs, vs = _rk4_forced(epsilon, z0, zdot0, g, dt, n_steps)
    times = dt * np.arange(n_steps + 1)
    return [
        Trajectory(
            times=times,
            z=zs[:, r].copy(),
            zdot=vs[:, r].copy(),
            meta={"integrator": "rk4", "dt": dt, "epsilon": epsilon,
                  "seed": d.modes.seed},
        )
        for r, d in enumerate(drives)
    ]


# ---------------------------------------------------------------------------
# free Dirac particle

@dataclass(frozen=True)
class DiracFreeParticle:
    """Free-particle parameters for the rapid-oscillation velocity solution."""

    E: float    # relativistic energy (erg)
    p: float    # canonical momentum (g*cm/s)
    v0: float   # initial velocity (cm/s)
    fc: FundamentalConstants

    def __post_init__(self) -> None:
        rest = self.fc.m * self.fc.c**2
        if self.E < rest:
            raise ValueError(f"energy {self.E} below rest energy {rest}")
        if abs(self.v0) > self.fc.c:
            raise ValueError(f"|v0| = {abs(self.v0)} exceeds c = {self.fc.c}")


def dirac_velocity(dp: DiracFreeParticle, t):
    """Complex velocity (c^2/E) * [p - (p - (E/c^2) v0) exp(-i 2 E t / hbar)]."""
    t_arr = np.asarray(t, dtype=float)
    osc = (dp.p - dp.E / dp.fc.c**2 * dp.v0) * np.exp(-2j * dp.E * t_arr / dp.fc.hbar)
    value = dp.fc.c**2 / dp.E * (dp.p - osc)
    return complex(value) if np.ndim(t) == 0 else value


def dirac_position_amplitude(dp: DiracFreeParticle) -> float:
    """Amplitude of the rapid position oscillation, |p - (E/c^2) v0| hbar c^2 / (2 E^2)."""
    return abs(dp.p - dp.E / dp.fc.c**2 * dp.v0) * dp.fc.hbar * dp.fc.c**2 / (2.0 * dp.E**2)


# ---------------------------------------------------------------------------
# canonical-momentum correspondence

def _cumulative_integral(y: np.ndarray, ydot: np.ndarray, dt: float) -> np.ndarray:
    """Cumulative integral of y via corrected trapezoid (Hermite end slopes)."""
    steps = 0.5 * dt * (y[:-1] + y[1:]) + dt**2 / 12.0 * (ydot[:-1] - ydot[1:])
    out = np.empty_like(y)
    out[0] = 0.0
    np.cumsum(steps, out=out[1:])
    return out


def canonical_momentum_residual(traj: Trajectory, drive: FieldRealization | None,
                                p0: float, epsilon: float | None = None,
                                restoring: bool = True) -> np.ndarray:
    """Residual of zdot = p(t) + eps*zddot - a(t) along a sampled trajectory.

    ``a`` is the scaled vector potential reconstructed term-by-term from the
    drive modes (D = -da/dt); ``p`` integrates pdot = -z when ``restoring``
    (the Compton restoring force) and stays constant for a free particle.
    A trajectory of the order-reduced equation leaves an O(eps^2) residual.
    """
    eps = traj.meta.get("epsilon", 0.0) if epsilon is None else epsilon
    dt = traj.dt
    t = traj.times
    if drive is not None:
        a = drive.vector_potential(t)
    else:
        a = np.zeros_like(t)
    acc = np.gradient(traj.zdot, dt, edge_order=2)
    if restoring:
        p = p0 - _cumulative_integral(traj.z, traj.zdot, dt)
    else:
        p = np.full_like(t, p0)
    return traj.zdot - p - eps * acc + a


# ---------------------------------------------------------------------------
# slow/fast decomposition and the neglected coupling term

def decompose_slow_fast(values: Sequence[float], dt: float, split_freq: float,
                        order: int = 4) -> tuple[np.ndarray, np.ndarray]:
    """Zero-phase complementary low/high split; slow + fast == input exactly."""
    values = np.asarray(values, dtype=float)
    nyquist = math.pi / dt
    if not 0.0 < split_freq < nyquist:
        raise ValueError(
            f"split frequency must lie in (0, nyquist={nyquist:.6g}), got {split_freq}"
        )
    sos = signal.butter(order, split_freq, btype="low", fs=2.0 * math.pi / dt,
                        output="sos")
    slow = signal.sosfiltfilt(sos, values)
    return slow, values - slow


@dataclass(frozen=True)
class ExternalForceModel:
    """A slow external force f(x) with derivative, scale frequency and domain."""

    f: Callable[[np.ndarray], np.ndarray]
    fprime: Callable[[np.ndarray], np.ndarray]
    omega0: float
    domain: tuple[float, float]


def residual_force_ratio(fm: ExternalForceModel, z_rms: float,
                         fc: FundamentalConstants, n_grid: int = 512) -> float:
    """max |f'(x)| / (m omega_C^2) over the domain.

    This is the factor by which the slow-force coupling z*f'(x) is smaller
    than the Compton restoring force on the same displacement; ``z_rms``
    cancels from the ratio and is accepted only for interface symmetry.
    """
    del z_rms
    x = np.linspace(fm.domain[0], fm.domain[1], n_grid)
    fp = np.abs(np.asarray(fm.fprime(x), dtype=float))
    if not np.all(np.isfinite(fp)):
        raise ValueError("f' must be finite on the stated domain")
    omega_c = fc.m * fc.c**2 / fc.hbar
    return float(np.max(fp) / (fc.m * omega_c**2))


# ---------------------------------------------------------------------------
# trajectory I/O

def trajectory_to_csv(traj: Trajectory, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(TRAJECTORY_CSV_HEADER + "\n")
        for t, z, v in zip(traj.times, traj.z, traj.zdot):
            fh.write(f"{float(t)!r},{float(z)!r},{float(v)!r}\n")
