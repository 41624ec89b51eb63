import math

import numpy as np
import pytest

from zitter import dynamics, zpf
from zitter.dynamics import (
    MAX_DT,
    FastMotionParams,
    NumericalInstabilityError,
    Trajectory,
    csv_stride,
    integrate_transient,
    trajectory_to_csv,
)
from zitter.analysis import ensemble_stats
from zitter.zpf import ModeEnsemble, synthesize_ensemble

EPS_CODATA = 0.004864901713183761  # 2*alpha/3
DT = 2.0 * math.pi / 200.0
BAND = (0.8, 1.2)


def exact_reduced(t, epsilon, z0=1.0, v0=None):
    """Closed-form solution of z'' = -z - eps*z' (the integrated equation)."""
    if v0 is None:
        v0 = -epsilon * z0 / 2.0
    wd = math.sqrt(1.0 - epsilon**2 / 4.0)
    b = (v0 + epsilon * z0 / 2.0) / wd
    return np.exp(-epsilon * t / 2.0) * (z0 * np.cos(wd * t) + b * np.sin(wd * t))


def transient_envelope(t, z0, epsilon):
    """Decaying transient exp(-eps*t/2) * (z0 e^{it} + conj(z0) e^{-it}), first order in eps.

    Real-valued by construction; ``t`` may be scalar or array, in sim units.
    """
    dynamics._check_epsilon(epsilon)
    t_arr = np.asarray(t, dtype=float)
    value = np.exp(-epsilon * t_arr / 2.0) * 2.0 * (
        z0.real * np.cos(t_arr) - z0.imag * np.sin(t_arr)
    )
    return float(value) if np.ndim(t) == 0 else value


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
        energy = 0.5 * (traj.zdot**2 + traj.z**2)
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
        energy = 0.5 * (traj.zdot**2 + traj.z**2)
        assert np.all(np.diff(energy) <= 1e-8 * energy[0])

    def test_initial_conditions(self):
        params = FastMotionParams(epsilon=0.01, z0=0.3 - 0.2j)
        traj = integrate_transient(params, DT, 10.0)
        assert traj.z[0] == pytest.approx(0.6)
        assert traj.zdot[0] == pytest.approx(-0.01 * 0.3 + 0.4)

    def test_final_time_reaches_t_max(self):
        t_max = 6.0 / EPS_CODATA
        traj = integrate_transient(FastMotionParams(epsilon=EPS_CODATA), DT, t_max)
        assert traj.times[-1] >= t_max


class TestEnsemble:
    def test_matches_single_integration(self):
        # each row of a 3-row ensemble's statistic is its 1-row ensemble's
        seeds = (11, 12, 13)
        means = dynamics.stationary_mean_z2(
            EPS_CODATA, synthesize_ensemble(EPS_CODATA, BAND, 64, seeds), DT, 150.0, 0.25)
        assert means.shape == (3,)
        for seed, mean in zip(seeds, means):
            single = dynamics.stationary_mean_z2(
                EPS_CODATA, synthesize_ensemble(EPS_CODATA, BAND, 64, [seed]), DT, 150.0, 0.25)
            assert single.shape == (1,)
            assert mean == pytest.approx(single[0], rel=1e-12, abs=0.0)

    def test_empty_ensemble_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            ModeEnsemble((0.8, 1.2), np.ones(4), np.empty((0, 4)))


class TestStreamedStatistic:
    @pytest.mark.parametrize("discard", [0.0, 0.3])
    def test_matches_ensemble_trajectories(self, discard):
        # the textbook loop's trajectories; one full realization group and a
        # partial one, 19,100 samples at discard 0 and 13,370 at 0.3
        eps, n_real, t_max = 0.02, dynamics._STREAM_GROUP + 3, 600.0
        drives = synthesize_ensemble(eps, BAND, 64, range(n_real))
        n_steps = dynamics.step_count(DT, t_max)
        ref_z, _ = rk4_loop(eps, 0.0, 0.0, half_step_drive(drives, eps, DT, n_steps),
                            DT, n_steps)
        streamed = dynamics.stationary_mean_z2(eps, drives, DT, t_max, discard)
        first = dynamics.first_kept_sample(discard, n_steps + 1)
        assert n_real % dynamics._STREAM_GROUP != 0
        per_run = np.mean(ref_z[:, first:] ** 2, axis=1)
        assert np.max(np.abs(streamed / per_run - 1.0)) <= 1e-12
        whole = ensemble_stats(per_run)
        stats = ensemble_stats(streamed)
        assert stats.n_realizations == whole.n_realizations == n_real
        assert stats.mean_z2 == pytest.approx(whole.mean_z2, rel=1e-12, abs=0.0)
        assert stats.stderr == pytest.approx(whole.stderr, rel=1e-12, abs=0.0)

    def test_matches_trajectories_while_transient_is_large(self):
        # eps 0.001: at the window's start (t 120) the free mode is still ~94%
        # of its initial size and cancels most of the steady sum, so
        # sum |S_n|^2, sum |F_n|^2 and the cross terms are each tens of times
        # the result and amplify their rounding errors as much. The reference
        # is the same closed-form trajectory evaluated step by step, so the
        # bound checks that the closed-form sums agree with it, not its
        # distance from the textbook loop: that is 3.5e-12 here, in float64
        # and in long double alike. The two agree to 6.1e-14. Against the
        # chirp-z mode sum that was the reference before, they agreed to
        # 1.7e-14; with the cross terms' phases w_k h rounded (1.0e-12),
        # carried without their low part (1.6e-12), or exact but on the
        # synthesized grid rather than the FFT's w_0 + k dw (8.2e-13), they did not
        eps, t_max, discard = 0.001, 600.0, 0.2
        drives = synthesize_ensemble(eps, BAND, 500, zpf.child_seeds(3, 8))
        n_steps = dynamics.step_count(DT, t_max)
        z = closed_form_z(eps, drives, DT, n_steps)
        first = dynamics.first_kept_sample(discard, n_steps + 1)
        per_run = np.mean(z[:, first:] ** 2, axis=1)
        streamed = dynamics.stationary_mean_z2(eps, drives, DT, t_max, discard)
        assert np.max(np.abs(streamed / per_run - 1.0)) <= 3e-13

    def test_memory_does_not_grow_with_run_length(self):
        # one realization group; t_max 100 and 400 (3,184 and 12,733 steps),
        # both below t_rec 4,006
        import tracemalloc

        eps = 0.02
        drives = synthesize_ensemble(eps, BAND, 256,
                                     range(dynamics._STREAM_GROUP))
        peaks = []
        for t_max in (100.0, 400.0):
            assert t_max < drives.t_rec
            tracemalloc.start()
            try:
                dynamics.stationary_mean_z2(eps, drives, DT, t_max, 0.25)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert abs(peaks[1] - peaks[0]) < 10**6

    def test_repeated_call_holds_the_group_buffer_and_vectors(self):
        # the benchmark's stationary config: eps 0.05, R = 100, K = 2000, to
        # t_max 13 / eps after 3 / eps of burn-in. A repeated call holds the
        # FFT buffer of 16 bytes a value, 32 rows of n_fft = 4,000, and 256
        # bytes per FFT value for the kernels and the vectors of K values:
        # 3.07 MB. The phasors are written into that buffer, so no group's
        # (rows, K) coefficients are formed
        import tracemalloc

        eps, n_modes = 0.05, 2000
        drives = synthesize_ensemble(eps, BAND, n_modes, range(100))
        n_fft, group = zpf._fft_len(2 * n_modes - 1), dynamics._STREAM_GROUP
        assert (n_fft, dynamics._STREAM_BUDGET // n_fft) == (4000, group)
        dynamics.stationary_mean_z2(eps, drives, DT, 13.0 / eps, 3.0 / 13.0)
        tracemalloc.start()
        try:
            dynamics.stationary_mean_z2(eps, drives, DT, 13.0 / eps, 3.0 / 13.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 16 * group * n_fft + 256 * n_fft

    def test_discard_fraction_guard(self):
        drives = synthesize_ensemble(0.02, BAND, 64, [1, 2])
        with pytest.raises(ValueError, match="discard"):
            dynamics.stationary_mean_z2(0.02, drives, DT, 100.0, 1.0)

    def test_horizon_guard(self):
        drives = synthesize_ensemble(0.02, BAND, 16, [1, 2])
        with pytest.raises(ValueError, match="horizon"):
            dynamics.stationary_mean_z2(0.02, drives, DT, 2.0 * drives.t_rec, 0.5)


class TestTransferError:
    def test_small_at_default_step_and_fourth_order(self):
        omegas = synthesize_ensemble(EPS_CODATA, BAND, 2000, [1]).omegas
        err = dynamics.rk4_transfer_max_rel_err(EPS_CODATA, DT, omegas)
        half = dynamics.rk4_transfer_max_rel_err(EPS_CODATA, DT / 2.0, omegas)
        assert err < 1e-5
        assert 13.0 < err / half < 19.0

    def test_matches_steady_response_of_step_loop(self):
        # one mode at w: once the free mode has decayed, the textbook loop's z
        # is Re(H_d e^{iwt}), and H = 1/(1 - w^2 + i eps w) is off by the error
        eps, w, dt, n_steps = 0.099, 1.05, MAX_DT, 4000
        t_half = 0.5 * dt * np.arange(2 * n_steps + 1)
        ref_z, _ = rk4_loop(eps, 0.0, 0.0, np.cos(w * t_half)[:, None], dt, n_steps)
        t = dt * np.arange(n_steps + 1)
        gain = 1.0 / (1.0 - w**2 + 1j * eps * w)
        err = dynamics.rk4_transfer_max_rel_err(eps, dt, np.array([w]))
        tail = slice(n_steps - 200, None)
        measured = np.max(np.abs(ref_z[0, tail] - (gain * np.exp(1j * w * t[tail])).real))
        assert measured / abs(gain) == pytest.approx(err, rel=1e-3)


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


def half_step_drive(drives, epsilon, dt, n_steps):
    """D + eps*D' of every realization on the half-step grid, shape (2n+1, R).

    Re sum_k A_k (1 + i eps w_k) e^{i (w_k t + phi_k)}, D' taken term by term.
    """
    t_half = 0.5 * dt * np.arange(2 * n_steps + 1)
    weights = ((drives.amplitudes * (1.0 + 1j * epsilon * drives.omegas))[:, None]
               * np.exp(1j * drives.phases.T))
    return (np.exp(1j * np.multiply.outer(t_half, drives.omegas)) @ weights).real


def closed_form_z(epsilon, drives, dt, n_steps):
    """RK4's z from rest at steps 0..N, (R, N+1), from its closed form step by step.

    The steady mode sum Re sum_k c_k H_d(w_k) e^{i w_k t_n}, summed directly
    2,000 steps at a time, plus the free mode 2 Re(-y_p(0) vec_0 lam^n) that
    cancels it at t = 0.
    """
    lam, vec, to_mode = dynamics._rk4_map(epsilon, dt)
    h_d, p, p_neg = dynamics._transfer(lam, vec, to_mode, dt, drives.omegas)
    coeff = drives.coefficients(epsilon)
    steady0 = 0.5 * (coeff @ p + np.conj(coeff @ np.conj(p_neg)))  # y_p(0)
    n = np.arange(n_steps + 1)
    weights = coeff * h_d
    steady = np.empty((len(coeff), n_steps + 1))
    for start in range(0, n_steps + 1, 2000):
        t = dt * n[start:start + 2000]
        steady[:, start:start + len(t)] = (
            weights @ np.exp(1j * np.multiply.outer(drives.omegas, t))).real
    return steady + 2.0 * np.multiply.outer(-steady0, vec[0] * lam**n).real


class TestIntegratorOracle:
    """The closed-form integrator against code it shares nothing with."""

    N_STEPS = 10_000

    @pytest.mark.parametrize("discard", [0.0, 0.4])
    @pytest.mark.parametrize("eps, dt", [(0.02, DT), (0.099, MAX_DT), (0.001, DT)])
    def test_stationary_mean_matches_step_loop(self, eps, dt, discard):
        # the closed-form sum of z^2 against the textbook loop's z, from rest;
        # 16 equally spaced modes, t_rec 235.6. At eps 0.001 the free mode
        # barely decays over the run and cancels most of the steady sum
        drives = synthesize_ensemble(eps, BAND, 16, [1, 2, 3])
        n_steps = int(200.0 / dt)
        ref_z, _ = rk4_loop(eps, 0.0, 0.0, half_step_drive(drives, eps, dt, n_steps),
                            dt, n_steps)
        first = dynamics.first_kept_sample(discard, n_steps + 1)
        kept = ref_z[:, first:]
        means = dynamics.stationary_mean_z2(eps, drives, dt, n_steps * dt, discard)
        # an error of 1e-10 in z at every step, the unforced run's bound below,
        # moves the mean of z^2 by at most 1e-10 (2 mean|z_ref| + 1e-10)
        bound = 1e-10 * (2.0 * np.mean(np.abs(kept), axis=1) + 1e-10)
        assert np.all(np.abs(means - np.mean(kept**2, axis=1)) <= bound)

    def test_unforced_run_matches_step_loop(self):
        params = FastMotionParams(epsilon=0.02, z0=0.3 - 0.2j)
        traj = integrate_transient(params, DT, self.N_STEPS * DT)
        ref_z, ref_v = rk4_loop(0.02, 0.6, params.initial_velocity,
                                np.zeros((2 * self.N_STEPS + 1, 1)), DT, self.N_STEPS)
        assert len(traj.z) == self.N_STEPS + 1
        assert np.max(np.abs(traj.z - ref_z[0])) <= 1e-10
        assert np.max(np.abs(traj.zdot - ref_v[0])) <= 1e-10


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
        # one-step map, which forced and unforced runs both read, is refused
        # before any step
        with pytest.raises(NumericalInstabilityError, match="eigenvalue"):
            dynamics._rk4(0.01, 1.0, 0.0, 3.0, 10)
        with pytest.raises(NumericalInstabilityError, match="eigenvalue"):
            dynamics._rk4_map(0.01, 3.0)


class TestTrajectory:
    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="length"):
            Trajectory(dt=0.1, z=np.zeros(3), zdot=np.zeros(2))

    @staticmethod
    def written(traj, tmp_path):
        path = tmp_path / "traj.csv"
        trajectory_to_csv(traj, str(path))
        assert path.read_text().splitlines()[0] == "t,z,zdot"
        return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)

    def assert_rows(self, traj, stride, tmp_path):
        """The file holds, bit for bit, every ``stride``-th step and the last one, once."""
        assert csv_stride(traj.dt) == stride
        keep = sorted({*range(0, len(traj.z), stride), len(traj.z) - 1})
        data = self.written(traj, tmp_path)
        assert np.array_equal(data[:, 0], traj.times[keep])
        assert np.array_equal(data[:, 1], traj.z[keep])
        assert np.array_equal(data[:, 2], traj.zdot[keep])

    def test_csv_round_trip(self, tmp_path):
        self.assert_rows(integrate_transient(FastMotionParams(epsilon=0.01), DT, 5.0), 5,
                         tmp_path)

    # dt = MAX_DT writes every step; at dt 0.06 (MAX_DT / dt = 2.6) the stride
    # misses the last of 8 samples: rows 0, 2, 4, 6 and 7
    @pytest.mark.parametrize("dt, t_max, stride", [(MAX_DT, 5.0, 1), (0.06, 7 * 0.06, 2)])
    def test_csv_stride(self, tmp_path, dt, t_max, stride):
        self.assert_rows(integrate_transient(FastMotionParams(epsilon=0.01), dt, t_max),
                         stride, tmp_path)

    @pytest.mark.parametrize("dt", [DT, 0.06, MAX_DT / 3, MAX_DT * 0.999, 0.001])
    def test_csv_rows_are_at_most_max_dt_apart(self, tmp_path, dt):
        traj = integrate_transient(FastMotionParams(epsilon=0.01), dt, 50.0)
        t = self.written(traj, tmp_path)[:, 0]
        assert t[0] == 0.0 and t[-1] == traj.times[-1]
        # each t is dt n rounded once, so a difference may be off by an ulp of t
        assert np.all(np.diff(t) <= MAX_DT + np.spacing(t[-1]))
        assert csv_stride(dt) * dt <= MAX_DT * (1.0 + 1e-15)
