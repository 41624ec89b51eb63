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
from dataclasses import dataclass

import numpy as np

from .constants import FundamentalConstants
from .errors import NumericalInstabilityError
from .zpf import ModeEnsemble, _fft_len, _unit_phasors, _write_csv

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


# ---------------------------------------------------------------------------
# time integration

@dataclass(frozen=True)
class FastMotionParams:
    """Parameters of one fast-motion run.

    ``z0`` is the complex transient amplitude: the initial position is
    z0 + conj(z0) = 2*Re(z0), and the initial velocity is the pure
    transient's, -eps*Re(z0) - 2*Im(z0).
    """

    epsilon: float
    z0: complex = 0.5 + 0.0j

    def __post_init__(self) -> None:
        _check_epsilon(self.epsilon)

    @property
    def initial_position(self) -> float:
        return 2.0 * self.z0.real

    @property
    def initial_velocity(self) -> float:
        return -self.epsilon * self.z0.real - 2.0 * self.z0.imag


@dataclass(frozen=True)
class Trajectory:
    """z and zdot in simulation units at the times dt n, n = 0 .. N."""

    dt: float
    z: np.ndarray
    zdot: np.ndarray

    def __post_init__(self) -> None:
        if len(self.z) != len(self.zdot):
            raise ValueError("z and zdot must have equal length")

    @property
    def times(self) -> np.ndarray:
        return self.dt * np.arange(len(self.z))


#: steps per block of the closed-form free mode lam^j
_BLOCK = 1024
#: most complex values (2 MB) and most realizations that the FFT buffer of
#: ``stationary_mean_z2`` holds, in rows of about 2K values (one row at least),
#: so that its working memory does not grow with the ensemble
_STREAM_BUDGET = 2**17
_STREAM_GROUP = 32


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


def _rk4_map(epsilon: float, dt: float) -> tuple[complex, np.ndarray, np.ndarray]:
    """RK4's one-step map for z'' = -z - eps*z' + g(t), in its eigenbasis.

    The equation is linear with constant coefficients, so one RK4 step is
    the exact affine map x_{n+1} = M x_n + N (g(t_n), g(t_n + h/2), g(t_n + h))
    on x = (z, z'), read off by stepping the 5x5 identity. M = [[a, b], [c, d]]
    is real with the conjugate eigenpair (lam, conj lam) for any stable
    dt <= MAX_DT, by formula lam = (a + d)/2 + i sqrt(-bc - ((a - d)/2)^2)
    with vec = (b, lam - a) (Hairer, Norsett & Wanner, Solving ODEs I), so in
    its eigenbasis the step is one complex first-order recurrence,
    y_{n+1} = lam y_n + w.(g(t_n), g(t_n + h/2), g(t_n + h)), and
    x = 2 Re(vec y). Returns lam, vec and ``to_mode``, the mode's row of
    [vec, conj vec]^-1 [M | N]: (to_mode[:2].x_n, to_mode[2:]) = (lam y_n, w).
    """
    z_row, v_row = _rk4_step(epsilon, dt, *np.eye(5))  # [M | N]
    (a, b), (c, d) = z_row[:2], v_row[:2]
    det = a * d - b * c  # |lam|^2
    if not det < 1.0:
        raise NumericalInstabilityError(
            f"RK4 with dt={dt:.6g} is unstable for epsilon={epsilon:.6g}: the "
            f"one-step map has eigenvalue modulus {math.sqrt(det):.6g} >= 1"
        )
    lam = complex(0.5 * (a + d), math.sqrt(-b * c - (0.5 * (a - d)) ** 2))
    to_mode = ((lam.conjugate() - a) * z_row - b * v_row) / (-2j * b * lam.imag)
    return lam, np.array([b, lam - a]), to_mode


def _rk4(epsilon: float, z0: float, v0: float, dt: float,
         n_steps: int) -> tuple[np.ndarray, np.ndarray]:
    """Unforced RK4 from (z0, v0); returns z and z' of shape (n+1,).

    The recurrence without input is the closed form y_{n+1} = lam^n (lam y_0),
    formed in blocks of at most ``_BLOCK`` steps; lam times a block's last
    value starts the next.
    """
    lam, vec, to_mode = _rk4_map(epsilon, dt)
    zs = np.empty(n_steps + 1)
    vs = np.empty_like(zs)
    zs[0], vs[0] = z0, v0
    # the mode of M x_0, lam * y_0
    state = np.full(1, to_mode[0] * z0 + to_mode[1] * v0)
    powers = lam ** np.arange(_BLOCK)
    for start in range(0, n_steps, _BLOCK):
        y = powers[:min(_BLOCK, n_steps - start)] * state
        state = lam * y[-1:]
        zs[start + 1:start + 1 + len(y)] = 2.0 * (vec[0] * y).real
        vs[start + 1:start + 1 + len(y)] = 2.0 * (vec[1] * y).real
    return zs, vs


def _transfer(lam, vec, to_mode, dt, omegas):
    """RK4's discrete transfer function H_d(w) of z, shape (K,), and P(+-w).

    For the input g = e^{iwt} the mode's input is u_n = b(w) e^{iw t_n} with
    b(w) = w0 + w1 e^{iwh/2} + w2 e^{iwh}, and its steady response is
    P(w) e^{iw t_n}, P(w) = b(w) / (e^{iwh} - lam). The conjugate mode
    answers with conj P(-w), so z_n = H_d(w) e^{iw t_n} with
    H_d = vec_0 P(w) + conj(vec_0 P(-w)): the z-transform of RK4's stability
    map (Hairer, Norsett & Wanner, Solving ODEs I).
    """
    def steady(w):
        half = np.exp(0.5j * dt * w)
        return (to_mode[2] + to_mode[3] * half + to_mode[4] * half**2) / (half**2 - lam)

    p, p_neg = steady(omegas), steady(-omegas)
    return vec[0] * p + np.conj(vec[0] * p_neg), p, p_neg


def step_count(dt: float, t_max: float) -> int:
    """Steps of a run to t_max; the last may fall short of it by a rounding error."""
    if not 0.0 < dt <= MAX_DT:
        raise ValueError(
            f"dt must satisfy 0 < dt <= 2*pi/40 ~= {MAX_DT:.6g} "
            f"(at least 40 steps per carrier period), got {dt}"
        )
    if t_max <= 0.0:
        raise ValueError(f"t_max must be positive, got {t_max}")
    return math.ceil(t_max / dt - 1e-9)


def integrate_transient(params: FastMotionParams, dt: float, t_max: float) -> Trajectory:
    """Integrate the unforced order-reduced fast-motion equation with fixed-step RK4.

    The run starts from ``params``' initial position and velocity, those of
    the pure transient of amplitude z0.
    """
    n_steps = step_count(dt, t_max)
    z, zdot = _rk4(params.epsilon, params.initial_position, params.initial_velocity,
                   dt, n_steps)
    return Trajectory(dt=dt, z=z, zdot=zdot)


def first_kept_sample(discard: float, n_samples: int) -> int:
    """Index of the first sample kept after discarding the burn-in fraction."""
    if not 0.0 <= discard < 1.0:
        raise ValueError(f"discard fraction must lie in [0, 1), got {discard}")
    return int(discard * n_samples)


def _geometric_sum(log_q: np.ndarray, first: int, count: int) -> np.ndarray:
    """sum_{n=first}^{first+count-1} q^n for q = e^{log_q} != 1, |q| <= 1, elementwise.

    Through expm1, so it keeps its accuracy as q -> 1, on the unit circle too.
    """
    return np.exp(first * log_q) * np.expm1(count * log_q) / np.expm1(log_q)


def _two_product(a, b):
    """(p, e) with p = fl(a b) and p + e = a b exactly (Dekker 1971)."""
    def split(x):
        t = 134217729.0 * x  # (2^27 + 1) x: x's high 26 bits and the rest
        high = t - (t - x)
        return high, x - high

    (a_hi, a_lo), (b_hi, b_lo) = split(a), split(b)
    p = a * b
    return p, ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo


def _two_sum(a, b):
    """(s, e) with s = fl(a + b) and s + e = a + b exactly (Knuth)."""
    s = a + b
    b_part = s - a
    return s, (a - (s - b_part)) + (b - b_part)


def _form_kernels(h: float, w0: float, d_omega: float, n_fft: int, first: int,
                  count: int) -> tuple[np.ndarray, np.ndarray]:
    """The kernels X and Y of ``stationary_mean_z2``'s Toeplitz and Hankel forms."""
    # D at the offsets d = k - j, d >= 0 first; X is real, as D(-d) = conj D(d)
    # on every offset the form reads
    theta = np.arange(n_fft, dtype=float)
    theta[n_fft // 2 + 1:] -= n_fft
    theta *= h * d_omega
    kernel = np.full(n_fft, count, dtype=complex)  # D(0) = count
    kernel[1:] = _geometric_sum(1j * theta[1:], first, count)
    x_kernel = np.fft.ifft(kernel, out=kernel).real.copy()
    theta = h * (2.0 * w0 + d_omega * np.arange(n_fft))
    y_kernel = _geometric_sum(1j * theta, first, count)
    np.fft.ifft(y_kernel, out=y_kernel)
    return x_kernel, y_kernel


def stationary_mean_z2(epsilon: float, drives: ModeEnsemble, dt: float, t_max: float,
                       discard: float) -> np.ndarray:
    """Each realization's mean of z^2 after the burn-in, in closed form, without forming z.

    Each realization drives RK4 of z'' = -z - eps*z' + D + eps*D' from rest,
    and its z^2 is averaged over the steps
    ``first_kept_sample(discard, N+1)`` .. N. The equation is linear and
    time-invariant and the drive is a mode sum, so RK4's z_n = Re T_n with
    T_n = S_n + F_n: the steady mode sum S_n = sum_k b_k e^{i w_k h n},
    b = c H_d with c the coefficients of D + eps*D' and H_d RK4's transfer
    function, and the free mode F_n = phi lam^n that starts the run at rest,
    phi = -2 vec_0 y_p(0) with y_p(0) the steady solution's mode at t = 0.
    Then
    sum_n z_n^2 = (sum_n |T_n|^2 + Re sum_n T_n^2) / 2.

    On the grid w_k = w_0 + k dw the terms in S alone are a Toeplitz and a
    Hankel form in b,

        sum_n |S_n|^2 = sum_jk conj(b_j) b_k D(k - j),  D(d) = sum_n e^{i d dw h n},
        sum_n S_n^2   = sum_jk b_j b_k E(j + k),  E(s) = sum_n e^{i (2 w_0 + s dw) h n}.

    With B the FFT of b at a length L >= 2K - 1, the forms embed in circulant
    ones (as Bluestein's 1970 chirp-z does its convolution) and are
    sum_m |B_m|^2 X_m and sum_m B_m^2 Y_m, where X and Y are the inverse FFTs
    of D, laid out circularly, and of E. The rest is geometric in n:
    sum_n S_n F_n = phi sum_k b_k G(lam e^{i w_k h}), sum_n conj(S_n) F_n
    the same with conj b and e^{-i w_k h}, and sum_n |F_n|^2 and
    sum_n F_n^2 are G at |lam|^2 and lam^2.

    Early in the window S_n and F_n nearly cancel, so these sums and
    sum |S_n|^2 can each be tens of times the result, and so can their
    rounding errors. Two things keep them consistent: the cross terms sum
    the S of the FFT, on the grid w_0 + k dw exactly, and w_k h is carried
    as hi + lo, so that arg lam -+ hi is exact near resonance, where it is
    small, and the phase of q^n does not drift by n times a rounding error.

    c = a e^{i phi}, and the weights a = A (1 + i eps w) are folded once into
    the vectors the phasors x = e^{i phi} meet. phi and the cross sums are
    each x.u + conj(x.v), real-linear in x's real view, so one fixed-order
    einsum with a (4, 2K) real matrix gives both, calling no BLAS kernel.
    The realizations go in groups of at most ``_STREAM_GROUP`` rows and
    ``_STREAM_BUDGET`` FFT values; a group's phasors are written into one
    reused FFT buffer, reduced, scaled there to b and transformed to B, so
    the run holds no (R, K) array beyond the phases.
    Neither cost nor memory grows with the run's length.
    """
    _check_epsilon(epsilon)
    n_steps = step_count(dt, t_max)
    lam, vec, to_mode = _rk4_map(epsilon, dt)
    if dt * n_steps >= drives.t_rec:
        raise ValueError(
            f"t_max={dt * n_steps:.6g} reaches the drive validity horizon "
            f"t_rec={drives.t_rec:.6g}"
        )
    n_samples = n_steps + 1
    first = first_kept_sample(discard, n_samples)
    count = n_samples - first

    omegas, w0, d_omega = drives.omegas, drives.band[0], drives.d_omega
    n_real, n_modes = drives.phases.shape
    weights = drives.weights(epsilon)
    gain, p, p_neg = _transfer(lam, vec, to_mode, dt, omegas)
    n_fft = _fft_len(2 * n_modes - 1)
    x_kernel, y_kernel = _form_kernels(dt, w0, d_omega, n_fft, first, count)
    # w_k h on the FFT's grid as hi + lo
    p0, e0 = _two_product(dt, w0)
    p1, e1 = _two_product(dt, d_omega)
    k = np.arange(n_modes, dtype=float)
    q, e_q = _two_product(k, p1)
    hi, e_s = _two_sum(p0, q)
    lo = e_s + e_q + e0 + k * e1
    log_lam = np.log(lam)
    w_gain = weights * gain
    # phi = -2 vec_0 y_p(0), y_p(0) = (x.(a p) + conj(x.(a conj p_neg))) / 2 and vec_0 = b
    # real, and the cross sum are each x.u + conj(x.v); its real and imaginary parts
    # are x's real view dotted with conj(u + v) and i conj(u - v) viewed as real
    u = np.array([-vec[0] * weights * p,
                  w_gain * _geometric_sum(log_lam + 1j * hi + 1j * lo, first, count)])
    v = np.array([-vec[0] * weights * np.conj(p_neg),
                  w_gain * np.conj(_geometric_sum(log_lam - 1j * hi - 1j * lo, first, count))])
    reduce_rows = np.stack((np.conj(u + v), 1j * np.conj(u - v)), axis=1)
    reduce_rows = reduce_rows.reshape(4, n_modes).view(float)
    free_abs2 = _geometric_sum(2.0 * log_lam.real, first, count).real
    free_sq = _geometric_sum(2.0 * log_lam, first, count)

    sums = np.empty(n_real)
    group = max(1, min(_STREAM_GROUP, _STREAM_BUDGET // n_fft))
    buf = np.empty((min(group, n_real), n_fft), dtype=complex)
    for start in range(0, n_real, group):
        rows = slice(start, start + group)
        b = buf[:min(group, n_real - start)]
        phasors = _unit_phasors(drives.phases[rows], b[:, :n_modes])
        phi, cross = np.einsum("ij,kj->ik", phasors.view(float), reduce_rows).view(complex).T
        sums[rows] = ((phi * cross).real
                      + 0.5 * (np.abs(phi) ** 2 * free_abs2 + (phi**2 * free_sq).real))
        phasors *= w_gain
        b[:, n_modes:] = 0.0
        np.fft.fft(b, axis=-1, out=b)
        sums[rows] += 0.5 * (np.einsum("ij,ij,j->i", b.real, b.real, x_kernel)
                             + np.einsum("ij,ij,j->i", b.imag, b.imag, x_kernel)
                             + np.einsum("ij,ij,j->i", b, b, y_kernel).real)
    return sums / count


def rk4_transfer_max_rel_err(epsilon: float, dt: float, omegas: np.ndarray) -> float:
    """max_k |H_d(w_k) / H(w_k) - 1|: RK4's steady-state response error on a drive's modes.

    H(w) = 1 / (1 - w^2 + i eps w) is the exact response of z to the forcing
    e^{iwt}, and H_d its RK4 counterpart; the error falls as dt^4.
    """
    lam, vec, to_mode = _rk4_map(epsilon, dt)
    h_d = _transfer(lam, vec, to_mode, dt, omegas)[0]
    return float(np.max(np.abs(h_d * (1.0 - omegas**2 + 1j * epsilon * omegas) - 1.0)))


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
    # divided by 2E and then by E: E**2 overflows for E past ~1e154 erg
    return (abs(dp.p - dp.E / dp.fc.c**2 * dp.v0) * dp.fc.hbar / (2.0 * dp.E)
            * dp.fc.c**2 / dp.E)


# ---------------------------------------------------------------------------
# trajectory I/O

def csv_stride(dt: float) -> int:
    """Steps between the rows of a trajectory CSV: the most that span at most MAX_DT."""
    return max(1, int(MAX_DT / dt))


def trajectory_to_csv(traj: Trajectory, path: str) -> None:
    """Write every ``csv_stride(traj.dt)``-th step of ``traj``, and its last step, as CSV rows."""
    n = len(traj.z)
    keep = np.arange(0, n, csv_stride(traj.dt))
    if n and keep[-1] != n - 1:
        keep = np.append(keep, n - 1)
    _write_csv(path, TRAJECTORY_CSV_HEADER, (traj.times[keep], traj.z[keep], traj.zdot[keep]))
