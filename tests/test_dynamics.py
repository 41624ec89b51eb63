import math

import numpy as np
import pytest

from zitter import dynamics
from zitter.dynamics import (
    MAX_DT,
    FastMotionParams,
    NumericalInstabilityError,
    Trajectory,
    integrate_ensemble,
    integrate_transient,
    trajectory_to_csv,
    transient_envelope,
)
from zitter.zpf import ModeSet, sed_drive_spectrum, synthesize_band

EPS_CODATA = 0.004864901713183761  # 2*alpha/3
DT = 2.0 * math.pi / 200.0


def exact_reduced(t, epsilon, z0=1.0, v0=None):
    """Closed-form solution of z'' = -z - eps*z' (the integrated equation)."""
    if v0 is None:
        v0 = -epsilon * z0 / 2.0
    wd = math.sqrt(1.0 - epsilon**2 / 4.0)
    b = (v0 + epsilon * z0 / 2.0) / wd
    return np.exp(-epsilon * t / 2.0) * (z0 * np.cos(wd * t) + b * np.sin(wd * t))


class TestEnvelope:
    def test_initial_value(self):
        assert transient_envelope(0.0, 0.5 + 0.0j, EPS_CODATA) == pytest.approx(1.0)

    def test_one_carrier_period(self):
        # exp(-eps*pi) with eps = 2*alpha/3
        value = transient_envelope(2.0 * math.pi, 0.5 + 0.0j, EPS_CODATA)
        assert value == pytest.approx(0.98484, rel=1e-4)

    def test_e_fold_at_two_over_eps(self):
        t = 2.0 / EPS_CODATA
        # evaluate at the nearest carrier maximum to isolate the envelope
        t_peak = 2.0 * math.pi * round(t / (2.0 * math.pi))
        value = transient_envelope(t_peak, 0.5 + 0.0j, EPS_CODATA)
        assert value == pytest.approx(math.exp(-EPS_CODATA * t_peak / 2.0), rel=1e-12)

    def test_imaginary_amplitude_drives_sine(self):
        t = np.linspace(0.0, 10.0, 50)
        value = transient_envelope(t, 0.0 + 0.5j, 0.01)
        assert np.allclose(value, -np.exp(-0.005 * t) * np.sin(t), rtol=1e-12)

    def test_epsilon_guard(self):
        with pytest.raises(ValueError, match="epsilon"):
            transient_envelope(1.0, 0.5 + 0.0j, 0.5)


class TestUnforcedIntegration:
    def test_matches_exact_reduced_solution(self):
        traj = integrate_transient(FastMotionParams(epsilon=EPS_CODATA), DT,
                                   6.0 / EPS_CODATA)
        exact = exact_reduced(traj.times, EPS_CODATA)
        assert np.max(np.abs(traj.z - exact)) < 1e-5

    def test_matches_perturbative_envelope_form(self):
        # exp(-eps t/2) cos(t) differs from the true solution by an O(eps^2)
        # carrier-frequency shift that accumulates to ~5e-4 over 6/eps
        traj = integrate_transient(FastMotionParams(epsilon=EPS_CODATA), DT,
                                   6.0 / EPS_CODATA)
        approx = np.exp(-EPS_CODATA * traj.times / 2.0) * np.cos(traj.times)
        assert np.max(np.abs(traj.z - approx)) < 1e-3

    def test_energy_decay_at_tiny_epsilon(self):
        # at eps = 1e-8 the physical decay is exp(-eps t); numerical
        # dissipation must stay below 1e-6 over 100 carrier periods
        traj = integrate_transient(FastMotionParams(epsilon=1e-8), DT,
                                   100.0 * 2.0 * math.pi)
        energy = traj.energy()
        expected = energy[0] * np.exp(-1e-8 * traj.times)
        assert np.max(np.abs(energy / expected - 1.0)) < 1e-6

    def test_fourth_order_convergence(self):
        def max_err(h):
            traj = integrate_transient(FastMotionParams(epsilon=0.01), h, 50.0)
            return np.max(np.abs(traj.z - exact_reduced(traj.times, 0.01)))

        h = 2.0 * math.pi / 50.0
        ratio = max_err(h) / max_err(h / 2.0)
        assert 13.0 < ratio < 19.0

    def test_no_runaway_energy_growth(self):
        # the damped equation can only lose energy; allow per-step roundoff
        traj = integrate_transient(FastMotionParams(epsilon=0.02), DT, 500.0)
        energy = traj.energy()
        assert np.all(np.diff(energy) <= 1e-8 * energy[0])

    def test_initial_conditions(self):
        params = FastMotionParams(epsilon=0.01, z0=0.3 - 0.2j)
        traj = integrate_transient(params, DT, 10.0)
        assert traj.z[0] == pytest.approx(0.6)
        assert traj.zdot[0] == pytest.approx(-0.01 * 0.3 + 0.4)
        explicit = FastMotionParams(epsilon=0.01, z0=0.3 - 0.2j, zdot0=1.5)
        assert explicit.initial_velocity == 1.5

    def test_final_time_reaches_t_max(self):
        t_max = 6.0 / EPS_CODATA
        traj = integrate_transient(FastMotionParams(epsilon=EPS_CODATA), DT, t_max)
        assert traj.times[-1] >= t_max


class TestDrivenIntegration:
    def test_linearity_in_drive_amplitude(self):
        spec = sed_drive_spectrum(EPS_CODATA)
        ms = synthesize_band(spec, 64, seed=3)
        base = FastMotionParams(epsilon=EPS_CODATA, drive=ms,
                                z0=0.0 + 0.0j, zdot0=0.0)
        double = FastMotionParams(epsilon=EPS_CODATA,
                                  drive=ms.scaled(2.0),
                                  z0=0.0 + 0.0j, zdot0=0.0)
        ta = integrate_transient(base, DT, 200.0)
        tb = integrate_transient(double, DT, 200.0)
        assert np.max(np.abs(tb.z - 2.0 * ta.z)) < 1e-8 * np.max(np.abs(ta.z))

    def test_superposition_of_two_drives(self):
        spec = sed_drive_spectrum(EPS_CODATA)
        m1 = synthesize_band(spec, 32, seed=4)
        m2 = ModeSet(omegas=m1.omegas, amplitudes=m1.amplitudes[::-1].copy(),
                     phases=m1.phases, seed=4)
        combined = ModeSet(omegas=m1.omegas,
                           amplitudes=m1.amplitudes + m2.amplitudes,
                           phases=m1.phases, seed=4)

        def run(modes):
            params = FastMotionParams(epsilon=EPS_CODATA,
                                      drive=modes,
                                      z0=0.0 + 0.0j, zdot0=0.0)
            return integrate_transient(params, DT, 150.0)

        za = run(m1).z + run(m2).z
        zc = run(combined).z
        assert np.max(np.abs(zc - za)) < 1e-10 * np.max(np.abs(zc))

    def test_single_resonant_mode_reaches_lorentzian_amplitude(self):
        # steady response to A cos(t): amplitude A*sqrt(1+eps^2)/eps at resonance
        eps = 0.02
        amp = 1e-3
        ms = ModeSet(omegas=np.array([1.0, 1.0 + 1e-4]),
                     amplitudes=np.array([amp, 0.0]),
                     phases=np.array([0.0, 0.0]), seed=0)
        params = FastMotionParams(epsilon=eps, drive=ms,
                                  z0=0.0 + 0.0j, zdot0=0.0)
        traj = integrate_transient(params, DT, 12.0 / eps)
        tail = traj.z[traj.times > 10.0 / eps]
        expected = amp * math.sqrt(1.0 + eps**2) / eps
        assert np.max(np.abs(tail)) == pytest.approx(expected, rel=2e-2)

    def test_horizon_guard(self):
        ms = ModeSet(omegas=np.array([1.0, 1.5]), amplitudes=np.array([1.0, 1.0]),
                     phases=np.array([0.0, 0.0]), seed=0)  # t_rec = 4*pi
        params = FastMotionParams(epsilon=0.01, drive=ms)
        with pytest.raises(ValueError, match="horizon"):
            integrate_transient(params, DT, 20.0)


class TestEnsemble:
    def test_matches_single_integration(self):
        spec = sed_drive_spectrum(EPS_CODATA)
        drives = [synthesize_band(spec, 64, seed=s)
                  for s in (11, 12, 13)]
        trajs = integrate_ensemble(EPS_CODATA, drives, DT, 150.0)
        for drive, traj in zip(drives, trajs):
            params = FastMotionParams(epsilon=EPS_CODATA, drive=drive,
                                      z0=0.0 + 0.0j, zdot0=0.0)
            single = integrate_transient(params, DT, 150.0)
            assert np.allclose(traj.z, single.z, atol=1e-12)
            assert np.allclose(traj.zdot, single.zdot, atol=1e-12)
            assert traj.meta["seed"] == drive.seed
            assert traj.z.base is trajs[0].z.base  # row views of one array, no copies

    def test_mismatched_frequencies_rejected(self):
        spec_a = sed_drive_spectrum(EPS_CODATA, band=(0.8, 1.2))
        spec_b = sed_drive_spectrum(EPS_CODATA, band=(0.7, 1.3))
        drives = [synthesize_band(spec_a, 32, seed=1),
                  synthesize_band(spec_b, 32, seed=2)]
        with pytest.raises(ValueError, match="frequencies"):
            integrate_ensemble(EPS_CODATA, drives, DT, 50.0)

    def test_empty_ensemble_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            integrate_ensemble(EPS_CODATA, [], DT, 50.0)

    def test_horizon_guard(self):
        spec = sed_drive_spectrum(EPS_CODATA)
        drives = [synthesize_band(spec, 16, seed=1)]
        with pytest.raises(ValueError, match="horizon"):
            integrate_ensemble(EPS_CODATA, drives, DT, 10.0 * drives[0].t_rec)


def rk4_loop(epsilon, z0, v0, g, dt, n_steps):
    """Textbook RK4 on x = (z, z'), one step at a time; g has shape (2n+1, R)."""
    def deriv(x, gt):
        return np.array([x[1], gt - x[0] - epsilon * x[1]])

    x = np.array([np.full(g.shape[1], z0), np.full(g.shape[1], v0)])
    out = [x]
    for n in range(n_steps):
        k1 = deriv(x, g[2 * n])
        k2 = deriv(x + 0.5 * dt * k1, g[2 * n + 1])
        k3 = deriv(x + 0.5 * dt * k2, g[2 * n + 1])
        k4 = deriv(x + dt * k3, g[2 * n + 2])
        x = x + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        out.append(x)
    out = np.array(out)  # (n+1, 2, R)
    return out[:, 0].T, out[:, 1].T


class TestIntegratorOracle:
    """The filter-form integrator against code it shares nothing with."""

    N_STEPS = 10_000

    def test_forced_ensemble_matches_step_loop(self):
        eps = 0.01
        t_half = 0.5 * DT * np.arange(2 * self.N_STEPS + 1)
        g = np.stack([a * np.cos(w * t_half + p) for a, w, p in
                      [(0.01, 1.0, 0.0), (0.02, 0.93, 1.1), (0.005, 1.12, -2.0)]],
                     axis=1)
        zs, vs = dynamics._rk4(eps, 0.3, -0.2, g, DT, self.N_STEPS)
        ref_z, ref_v = rk4_loop(eps, 0.3, -0.2, g, DT, self.N_STEPS)
        assert zs.shape == (3, self.N_STEPS + 1)
        assert np.max(np.abs(zs - ref_z)) <= 1e-10
        assert np.max(np.abs(vs - ref_v)) <= 1e-10

    def test_unforced_run_matches_step_loop(self):
        params = FastMotionParams(epsilon=0.02, z0=0.3 - 0.2j)
        traj = integrate_transient(params, DT, self.N_STEPS * DT)
        ref_z, ref_v = rk4_loop(0.02, 0.6, params.initial_velocity,
                                np.zeros((2 * self.N_STEPS + 1, 1)), DT, self.N_STEPS)
        assert len(traj.z) == self.N_STEPS + 1
        assert np.max(np.abs(traj.z - ref_z[0])) <= 1e-10
        assert np.max(np.abs(traj.zdot - ref_v[0])) <= 1e-10

    def test_single_mode_drive_converges_at_fourth_order(self):
        # D = A cos(w t + phi): the exact response is Re[A H(w) e^{i(w t + phi)}],
        # H(w) = (1 + i eps w)/(1 - w^2 + i eps w), plus the damped homogeneous
        # solution that matches z(0) and z'(0)
        eps, amp, w, phi, z0, v0, t_max = 0.01, 0.05, 0.9, 0.4, 0.3, -0.1, 50.0
        ms = ModeSet(omegas=np.array([w, w + 1e-3]), amplitudes=np.array([amp, 0.0]),
                     phases=np.array([phi, 0.0]), seed=0)
        gain = amp * np.exp(1j * phi) * (1.0 + 1j * eps * w) / (1.0 - w**2 + 1j * eps * w)
        wd = math.sqrt(1.0 - eps**2 / 4.0)
        c1 = z0 - gain.real
        c2 = (v0 - (1j * w * gain).real + 0.5 * eps * c1) / wd

        def exact(t):
            return ((gain * np.exp(1j * w * t)).real
                    + np.exp(-0.5 * eps * t) * (c1 * np.cos(wd * t) + c2 * np.sin(wd * t)))

        def max_err(h):
            params = FastMotionParams(epsilon=eps, drive=ms, z0=0.5 * z0 + 0j, zdot0=v0)
            traj = integrate_transient(params, h, t_max)
            return np.max(np.abs(traj.z - exact(traj.times)))

        h = 2.0 * math.pi / 50.0
        ratio = max_err(h) / max_err(h / 2.0)
        assert 13.0 < ratio < 19.0


class TestGuards:
    @pytest.mark.parametrize("bad_dt", [0.0, -0.1, MAX_DT * 1.01, 1.0])
    def test_dt_guard(self, bad_dt):
        with pytest.raises(ValueError, match="dt"):
            integrate_transient(FastMotionParams(epsilon=0.01), bad_dt, 10.0)

    def test_t_max_guard(self):
        with pytest.raises(ValueError, match="t_max"):
            integrate_transient(FastMotionParams(epsilon=0.01), DT, -1.0)

    @pytest.mark.parametrize("bad_eps", [0.0, -0.01, 0.1, 1.0])
    def test_epsilon_guard(self, bad_eps):
        with pytest.raises(ValueError, match="epsilon"):
            FastMotionParams(epsilon=bad_eps)

    def test_instability_detector(self):
        # dt = 3 lies outside RK4's stability region (|R(3i)| ~ 1.5): the
        # one-step map is refused before any step, forced or not
        with pytest.raises(NumericalInstabilityError, match="eigenvalue"):
            dynamics._rk4(0.01, 1.0, 0.0, None, 3.0, 10)
        with pytest.raises(NumericalInstabilityError, match="eigenvalue"):
            dynamics._rk4(0.01, 1.0, 0.0, np.zeros((21, 3)), 3.0, 10)


class TestTrajectory:
    def test_nonuniform_times_rejected(self):
        with pytest.raises(ValueError, match="uniform"):
            Trajectory(times=np.array([0.0, 0.1, 0.3]), z=np.zeros(3), zdot=np.zeros(3))

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="length"):
            Trajectory(times=np.array([0.0, 0.1]), z=np.zeros(3), zdot=np.zeros(2))

    def test_energy_definition(self):
        traj = Trajectory(times=np.array([0.0, 1.0]), z=np.array([1.0, 0.0]),
                          zdot=np.array([0.0, 1.0]))
        assert np.allclose(traj.energy(), [0.5, 0.5])

    def test_csv_round_trip(self, tmp_path):
        traj = integrate_transient(FastMotionParams(epsilon=0.01), DT, 5.0)
        path = tmp_path / "traj.csv"
        trajectory_to_csv(traj, str(path))
        data = np.loadtxt(path, delimiter=",", skiprows=1)
        assert path.read_text().splitlines()[0] == "t,z,zdot"
        assert np.array_equal(data[:, 0], traj.times)
        assert np.array_equal(data[:, 1], traj.z)
        assert np.array_equal(data[:, 2], traj.zdot)
