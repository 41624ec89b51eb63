import math

import numpy as np
import pytest

from zitter.dynamics import (
    Trajectory,
    canonical_momentum_residual,
    integrate_ensemble,
)
from zitter.zpf import ModeEnsemble, sed_drive_spectrum, synthesize_ensemble

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
        ms = ModeEnsemble(omegas=np.array([w, w + 1e-3]),
                          amplitudes=np.array([amp, 0.0]),
                          phases=np.array([[phi, 0.0]]), seeds=(0,))
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
        drive = synthesize_ensemble(spec, 400, [5])
        dt = 2.0 * math.pi / 400.0
        traj = integrate_ensemble(EPS_CODATA, drive, dt, 400.0)[0]
        r = canonical_momentum_residual(traj, drive, p0=0.0)
        r -= r[0]
        assert np.max(np.abs(r)) <= 1e-3 * np.max(np.abs(traj.zdot))

    def test_drive_of_several_realizations_rejected(self):
        drive = synthesize_ensemble(sed_drive_spectrum(EPS_CODATA), 16, [1, 2])
        traj = integrate_ensemble(EPS_CODATA, drive, 0.05, 5.0)[0]
        with pytest.raises(ValueError, match="one-row"):
            canonical_momentum_residual(traj, drive, p0=0.0)

    def test_epsilon_override_beats_meta(self):
        dt = 0.05
        t = dt * np.arange(100)
        traj = Trajectory(times=t, z=np.cos(t), zdot=-np.sin(t),
                          meta={"epsilon": 0.05, "dt": dt})
        r_meta = canonical_momentum_residual(traj, None, p0=0.0)
        r_override = canonical_momentum_residual(traj, None, p0=0.0, epsilon=0.01)
        assert not np.allclose(r_meta, r_override)
