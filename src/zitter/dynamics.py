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

from .constants import FundamentalConstants
from .errors import NumericalInstabilityError
from .zpf import ModeSet, drive_coefficients, mode_sum, vector_potential

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
    drive: ModeSet | None = None
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


def _drive_grid(drives: Sequence[ModeSet], epsilon: float, dt: float,
                n_steps: int) -> np.ndarray:
    """Order-reduced forcing D + eps*D' of every drive on the half-step grid.

    Returns shape (2n+1, R), one column per drive, from a single ``mode_sum``.
    """
    coefficients = drive_coefficients(drives, epsilon)
    t_half = 0.5 * dt * np.arange(2 * n_steps + 1)
    if t_half[-1] >= drives[0].t_rec:
        raise ValueError(
            f"t_max={dt * n_steps:.6g} reaches the drive validity horizon "
            f"t_rec={drives[0].t_rec:.6g}"
        )
    return mode_sum(*coefficients, t_half)


#: steps per block of an unforced run, which is closed-form powers of lam
_BLOCK = 1024
#: steps per block of a forced run: its (R, _SUB) working set stays in cache,
#: and |lam^-j| stays below e^{0.1 * MAX_DT * _SUB / 2} ~ 2.7 since eps < 0.1
#: and dt <= MAX_DT, so the rescaled drive terms keep the size of the plain ones
_SUB = 128


def _rk4_step(eps, h, z, v, g0, gm, g1):
    """One classical RK4 step of z'' = -z - eps*z' + g, with g at t, t+h/2, t+h."""
    k1v = g0 - z - eps * v
    z2 = z + 0.5 * h * v
    v2 = v + 0.5 * h * k1v
    k2v = gm - z2 - eps * v2
    z3 = z + 0.5 * h * v2
    v3 = v + 0.5 * h * k2v
    k3v = gm - z3 - eps * v3
    z4 = z + h * v3
    v4 = v + h * k3v
    k4v = g1 - z4 - eps * v4
    return (z + h / 6.0 * (v + 2.0 * v2 + 2.0 * v3 + v4),
            v + h / 6.0 * (k1v + 2.0 * k2v + 2.0 * k3v + k4v))


def _rk4(epsilon: float, z0: float, v0: float, g: np.ndarray | None, dt: float,
         n_steps: int) -> tuple[np.ndarray, np.ndarray]:
    """RK4 for z'' = -z - eps*z' + g(t); returns z and z' of shape (R, n+1).

    ``g`` holds R forcings on the half-step grid, shape (2n+1, R); None is
    one unforced run (g = 0). Every realization starts from (z0, v0).

    The equation is linear with constant coefficients, so one RK4 step is
    the exact affine map x_{n+1} = M x_n + N (g_2n, g_2n+1, g_2n+2) on
    x = (z, z'), read off by stepping the 5x5 identity. M is real with the
    conjugate eigenpair (lam, conj lam) for any stable dt <= MAX_DT, so
    in its eigenbasis the recurrence is one complex first-order one,
    y_{n+1} = lam y_n + u_n with u_n = w.(g_2n, g_2n+1, g_2n+2) and
    w = (V^-1 N)[0], and x = 2 Re(V[:, 0] y). From the state s = lam y_b
    at the start of a block,

        y_{b+1+j} = lam^j (s + sum_{i<=j} lam^-i u_{b+i}),

    a cumulative sum along the block; a Python loop carries s from block to
    block, of ``_SUB`` steps each. An unforced run is the closed form
    y_{b+1+j} = lam^j s, in blocks of ``_BLOCK`` steps.
    """
    z_row, v_row = _rk4_step(epsilon, dt, *np.eye(5))
    step = np.stack([z_row, v_row])  # [M | N]
    lams, vecs = np.linalg.eig(step[:, :2])
    if not np.all(np.abs(lams) < 1.0):
        raise NumericalInstabilityError(
            f"RK4 with dt={dt:.6g} is unstable for epsilon={epsilon:.6g}: the "
            f"one-step map has eigenvalue modulus {np.max(np.abs(lams)):.6g} >= 1"
        )
    lam, vec = lams[0], vecs[:, 0]
    to_mode = np.linalg.inv(vecs)[0] @ step
    width = 1 if g is None else g.shape[1]
    zs = np.empty((width, n_steps + 1))
    vs = np.empty_like(zs)
    zs[:, 0], vs[:, 0] = z0, v0
    # the mode of M x_0, lam * y_0
    state = np.full((width, 1), to_mode[0] * z0 + to_mode[1] * v0)
    block = _BLOCK if g is None else _SUB
    powers = lam ** np.arange(block)
    if g is not None:
        g = g.T  # realization-major: each block runs along a row
        weights = to_mode[2:, None] * lam ** -np.arange(block)  # w lam^-j
    for start in range(0, n_steps, block):
        stop = min(start + block, n_steps)
        k = stop - start
        if g is None:
            y = powers[:k] * state
        else:
            u = (weights[0, :k] * g[:, 2 * start:2 * stop:2]
                 + weights[1, :k] * g[:, 2 * start + 1:2 * stop + 1:2]
                 + weights[2, :k] * g[:, 2 * start + 2:2 * stop + 2:2])
            y = powers[:k] * (state + np.cumsum(u, axis=1))
        state = lam * y[:, -1:]
        zs[:, start + 1:stop + 1] = 2.0 * (vec[0] * y).real
        vs[:, start + 1:stop + 1] = 2.0 * (vec[1] * y).real
    return zs, vs


def _n_steps(dt: float, t_max: float) -> int:
    if not 0.0 < dt <= MAX_DT:
        raise ValueError(
            f"dt must satisfy 0 < dt <= 2*pi/40 ~= {MAX_DT:.6g} "
            f"(at least 40 steps per carrier period), got {dt}"
        )
    if t_max <= 0.0:
        raise ValueError(f"t_max must be positive, got {t_max}")
    return math.ceil(t_max / dt - 1e-9)


def _trajectories(zs: np.ndarray, vs: np.ndarray, dt: float, epsilon: float,
                  seeds: Sequence[int | None]) -> list[Trajectory]:
    """One Trajectory per row of the integrator output, as row views."""
    times = dt * np.arange(zs.shape[1])
    return [
        Trajectory(times=times, z=z, zdot=v,
                   meta={"integrator": "rk4", "dt": dt, "epsilon": epsilon, "seed": seed})
        for z, v, seed in zip(zs, vs, seeds)
    ]


def integrate_transient(params: FastMotionParams, dt: float, t_max: float) -> Trajectory:
    """Integrate the order-reduced fast-motion equation with fixed-step RK4."""
    n_steps = _n_steps(dt, t_max)
    drive = params.drive
    g = None if drive is None else _drive_grid([drive], params.epsilon, dt, n_steps)
    zs, vs = _rk4(params.epsilon, params.initial_position, params.initial_velocity,
                  g, dt, n_steps)
    return _trajectories(zs, vs, dt, params.epsilon,
                         [None if drive is None else drive.seed])[0]


def integrate_ensemble(epsilon: float, drives: Sequence[ModeSet], dt: float,
                       t_max: float, z0: float = 0.0, zdot0: float = 0.0) -> list[Trajectory]:
    """Integrate many driven realizations sharing one frequency grid.

    All drives must have identical mode frequencies (same band, same mode
    count); the forcing of every realization is then evaluated in a single
    ``mode_sum`` call, and all realizations are stepped together.
    """
    _check_epsilon(epsilon)
    n_steps = _n_steps(dt, t_max)
    g = _drive_grid(drives, epsilon, dt, n_steps)
    zs, vs = _rk4(epsilon, z0, zdot0, g, dt, n_steps)
    return _trajectories(zs, vs, dt, epsilon, [d.seed for d in drives])


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


def canonical_momentum_residual(traj: Trajectory, drive: ModeSet | None,
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
    a = np.zeros_like(t) if drive is None else vector_potential(drive, t)
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
    from scipy import signal  # the only scipy use; no scenario calls this

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


def residual_force_ratio(fm: ExternalForceModel, fc: FundamentalConstants,
                         n_grid: int = 512) -> float:
    """max |f'(x)| / (m omega_C^2) over the domain.

    This is the factor by which the slow-force coupling z*f'(x) is smaller
    than the Compton restoring force on the same displacement; the
    displacement itself cancels from the ratio.
    """
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
