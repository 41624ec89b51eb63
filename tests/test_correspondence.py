import math

import numpy as np
import pytest

from zitter.dynamics import (
    ExternalForceModel,
    FastMotionParams,
    Trajectory,
    canonical_momentum_residual,
    decompose_slow_fast,
    integrate_transient,
    residual_force_ratio,
)
from zitter.zpf import ModeSet, sed_drive_spectrum, synthesize_band

EPS_CODATA = 0.004864901713183761  # 2*alpha/3


class TestCanonicalMomentum:
    def test_free_particle_residual_is_zero(self):
        # zdot = p exactly for uniform motion with no field and no restoring force
        dt = 0.05
        t = dt * np.arange(400)
        v0 = 0.3
        traj = Trajectory(times=t, z=0.1 + v0 * t, zdot=np.full_like(t, v0),
                          meta={"epsilon": EPS_CODATA, "dt": dt})
        r = canonical_momentum_residual(traj, None, p0=v0, restoring=False)
        assert np.max(np.abs(r)) < 1e-14

    def test_single_mode_analytic_trajectory(self):
        # steady-state solution of the integrated equation under one cosine
        # drive; the conservation-law residual is O(eps^2) by construction
        eps, amp, w, phi = 1e-3, 0.05, 0.9, 0.4
        ms = ModeSet(omegas=np.array([w, w + 1e-3]),
                     amplitudes=np.array([amp, 0.0]),
                     phases=np.array([phi, 0.0]), seed=0)
        gain = amp * (1.0 + 1j * eps * w) / (1.0 - w**2 + 1j * eps * w)
        dt = 0.02
        t = dt * np.arange(5001)
        phase = np.exp(1j * (w * t + phi))
        traj = Trajectory(times=t, z=np.real(gain * phase),
                          zdot=np.real(1j * w * gain * phase),
                          meta={"epsilon": eps, "dt": dt})
        r = canonical_momentum_residual(traj, ms, p0=0.0)
        r -= r[0]  # p0 fixes only the constant offset
        assert np.max(np.abs(r)) < 1e-6

    def test_integrated_trajectory_residual_is_small(self):
        spec = sed_drive_spectrum(EPS_CODATA)
        drive = synthesize_band(spec, 400, seed=5)
        params = FastMotionParams(epsilon=EPS_CODATA, drive=drive,
                                  z0=0.0 + 0.0j, zdot0=0.0)
        dt = 2.0 * math.pi / 400.0
        traj = integrate_transient(params, dt, 400.0)
        r = canonical_momentum_residual(traj, drive, p0=0.0)
        r -= r[0]
        assert np.max(np.abs(r)) <= 1e-3 * np.max(np.abs(traj.zdot))

    def test_epsilon_override_beats_meta(self):
        dt = 0.05
        t = dt * np.arange(100)
        traj = Trajectory(times=t, z=np.cos(t), zdot=-np.sin(t),
                          meta={"epsilon": 0.05, "dt": dt})
        r_meta = canonical_momentum_residual(traj, None, p0=0.0)
        r_override = canonical_momentum_residual(traj, None, p0=0.0, epsilon=0.01)
        assert not np.allclose(r_meta, r_override)


class TestSlowFastDecomposition:
    def test_complementarity_is_exact(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal(4096)
        slow, fast = decompose_slow_fast(x, dt=0.1, split_freq=3.0)
        assert np.max(np.abs(slow + fast - x)) < 1e-12

    def test_recovers_well_separated_components(self):
        dt = 0.05
        t = dt * np.arange(20000)
        slow_true = 0.7 * np.cos(0.01 * t + 0.2)
        fast_true = 0.3 * np.cos(1.0 * t + 1.1)
        slow, fast = decompose_slow_fast(slow_true + fast_true, dt, split_freq=0.1)
        keep = slice(2000, -2000)  # zero-phase filter still has edge transients
        assert np.max(np.abs(slow[keep] - slow_true[keep])) < 5e-3
        assert np.max(np.abs(fast[keep] - fast_true[keep])) < 5e-3

    def test_dc_signal_is_all_slow(self):
        x = np.full(1024, 2.5)
        slow, fast = decompose_slow_fast(x, dt=0.1, split_freq=1.0)
        assert np.allclose(slow, 2.5, rtol=1e-9)
        assert np.max(np.abs(fast)) < 1e-9

    def test_split_frequency_guard(self):
        x = np.zeros(64)
        with pytest.raises(ValueError, match="nyquist"):
            decompose_slow_fast(x, dt=0.1, split_freq=100.0)
        with pytest.raises(ValueError, match="split"):
            decompose_slow_fast(x, dt=0.1, split_freq=0.0)


class TestResidualForceRatio:
    def test_harmonic_force(self, fc, dc):
        omega0 = 1e16  # rad/s, optical scale
        fm = ExternalForceModel(
            f=lambda x: -fc.m * omega0**2 * x,
            fprime=lambda x: -fc.m * omega0**2 * np.ones_like(x),
            omega0=omega0,
            domain=(-1e-8, 1e-8),
        )
        ratio = residual_force_ratio(fm, fc=fc)
        assert ratio == pytest.approx((omega0 / dc.omega_C) ** 2, rel=1e-10)

    def test_zero_force(self, fc, dc):
        fm = ExternalForceModel(f=lambda x: np.zeros_like(x),
                                fprime=lambda x: np.zeros_like(x),
                                omega0=0.0, domain=(0.0, 1.0))
        assert residual_force_ratio(fm, fc=fc) == 0.0

    def test_coulomb_at_bohr_radius(self, fc, dc):
        # |f'| = 2 e^2 / r^3 at r = a_B gives exactly 2 alpha^4
        a_bohr = fc.hbar**2 / (fc.m * fc.e**2)
        fm = ExternalForceModel(
            f=lambda x: -fc.e**2 / x**2,
            fprime=lambda x: 2.0 * fc.e**2 / x**3,
            omega0=fc.e**2 / (fc.hbar * a_bohr),
            domain=(a_bohr, 2.0 * a_bohr),
        )
        ratio = residual_force_ratio(fm, fc=fc)
        assert ratio == pytest.approx(2.0 * dc.alpha**4, rel=1e-10)
        assert ratio < 1e-8  # the neglected coupling is utterly negligible

    def test_nonfinite_derivative_rejected(self, fc):
        fm = ExternalForceModel(f=lambda x: 1.0 / x, fprime=lambda x: -1.0 / x**2,
                                omega0=1.0, domain=(0.0, 1.0))
        with np.errstate(divide="ignore"), pytest.raises(ValueError, match="finite"):
            residual_force_ratio(fm, fc=fc)
