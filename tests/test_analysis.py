import dataclasses
import math

import numpy as np
import pytest

from zitter.analysis import ensemble_stats, fit_decay_rate, line_fit, transition_time_from_fit
from zitter.dynamics import (
    FastMotionParams,
    Trajectory,
    first_kept_sample,
    integrate_transient,
    stationary_mean_z2,
)
from zitter.zpf import child_seeds, synthesize_ensemble

EPS_CODATA = 0.004864901713183761  # 2*alpha/3
DT = 2.0 * math.pi / 200.0


def damped_cosine(gamma, omega, t_max, dt=0.02):
    t = dt * np.arange(int(t_max / dt) + 1)
    z = np.exp(-gamma * t) * np.cos(omega * t)
    zdot = np.exp(-gamma * t) * (-gamma * np.cos(omega * t) - omega * np.sin(omega * t))
    return Trajectory(dt=dt, z=z, zdot=zdot)


def burn_in_stats(trajs, discard):
    """ensemble_stats of each trajectory's mean z^2 after the burn-in fraction ``discard``."""
    first = first_kept_sample(discard, len(trajs[0].z))
    return ensemble_stats([np.mean(traj.z[first:] ** 2) for traj in trajs])


class TestLineFit:
    @pytest.mark.parametrize("n", [10, 100, 1000, 10**4, 10**5])
    def test_matches_polyfit_and_residual_r_squared(self, n):
        rng = np.random.default_rng(n)
        x = np.sort(rng.uniform(-3.0, 50.0, n))
        y = -0.37 * x + 12.5 + 4.0 * rng.standard_normal(n)
        slope, intercept, r_squared = line_fit(x, y)
        ref_slope, ref_intercept = np.polyfit(x, y, 1)
        residuals = y - (ref_slope * x + ref_intercept)
        ref_r_squared = 1.0 - np.sum(residuals**2) / np.sum((y - y.mean()) ** 2)
        assert slope == pytest.approx(ref_slope, rel=1e-12)
        assert intercept == pytest.approx(ref_intercept, rel=1e-12)
        assert r_squared == pytest.approx(ref_r_squared, abs=1e-12)
        assert 0.0 < r_squared < 1.0

    @pytest.mark.parametrize("slope, intercept", [(0.75, -3.5), (-2.0, 1e3), (1.0, 0.0)])
    def test_exact_line_has_unit_r_squared(self, slope, intercept):
        # dyadic values: every sample lies exactly on the line
        x = 0.25 * np.arange(-400, 4000)
        fit = line_fit(x, slope * x + intercept)
        assert fit[0] == slope
        assert fit[1] == intercept
        assert abs(fit[2] - 1.0) <= math.ulp(1.0)

    def test_constant_y_has_zero_r_squared(self):
        slope, intercept, r_squared = line_fit(np.arange(50.0), np.full(50, 2.5))
        assert (slope, intercept, r_squared) == (0.0, 2.5, 0.0)


class TestFitDecayRate:
    def test_synthetic_damped_cosine(self):
        gamma, omega = 0.003, 0.998
        traj = damped_cosine(gamma, omega, 1500.0)
        fit = fit_decay_rate(traj, (100.0, 1400.0))
        assert fit.decay_rate == pytest.approx(gamma, rel=1e-3)
        assert fit.carrier_freq == pytest.approx(omega, rel=1e-3)
        assert fit.r_squared > 0.999
        assert not fit.low_confidence

    def test_pure_cosine_has_zero_decay(self, dc):
        traj = damped_cosine(0.0, 1.0, 500.0)
        fit = fit_decay_rate(traj, (10.0, 490.0))
        assert fit.decay_rate == pytest.approx(0.0, abs=1e-6)

    def test_nonpositive_rate_rejected(self, dc):
        from zitter.analysis import TransientFit
        bad = TransientFit(decay_rate=0.0, carrier_freq=1.0, r_squared=1.0,
                           window=(0.0, 1.0), low_confidence=False)
        with pytest.raises(ValueError, match="positive"):
            transition_time_from_fit(bad, dc)

    def test_integrated_transient(self):
        traj = integrate_transient(FastMotionParams(epsilon=0.01), DT, 600.0)
        fit = fit_decay_rate(traj, (100.0, 600.0))
        assert fit.decay_rate == pytest.approx(0.005, rel=1e-2)
        assert fit.carrier_freq == pytest.approx(1.0, rel=1e-3)

    @pytest.mark.parametrize("epsilon", [0.002, 0.005, 0.01, 0.02])
    def test_rate_tracks_half_epsilon(self, epsilon):
        traj = integrate_transient(FastMotionParams(epsilon=epsilon), DT,
                                   6.0 / epsilon)
        fit = fit_decay_rate(traj, (1.0 / epsilon, 6.0 / epsilon))
        assert fit.decay_rate / (epsilon / 2.0) == pytest.approx(1.0, rel=5e-3)

    def test_window_insensitivity(self):
        traj = integrate_transient(FastMotionParams(epsilon=0.01), DT, 900.0)
        early = fit_decay_rate(traj, (50.0, 450.0))
        late = fit_decay_rate(traj, (450.0, 850.0))
        assert early.decay_rate == pytest.approx(late.decay_rate, rel=5e-3)

    @pytest.mark.parametrize("ends", [(100.0, 900.0), (100.3, 899.4), (99.5, 1000.5)],
                             ids=["on-samples", "between-samples", "half-step-past-last"])
    def test_window_holds_the_masked_samples(self, ends):
        # ends in steps from the first sample: the fit sees exactly the
        # samples that (times >= t0) & (times <= t1) selects, the ones a window
        # from the first of them to the last holds
        traj = damped_cosine(0.004, 1.0, 20.0)
        times = traj.times
        t0, t1 = (times[int(e)] + (e % 1.0) * traj.dt for e in ends)
        kept = times[(times >= t0) & (times <= t1)]
        fit = fit_decay_rate(traj, (t0, t1))
        ref = fit_decay_rate(traj, (kept[0], kept[-1]))
        assert (fit.decay_rate, fit.carrier_freq, fit.r_squared) == (
            ref.decay_rate, ref.carrier_freq, ref.r_squared)

    def test_window_outside_span_rejected(self):
        traj = damped_cosine(0.01, 1.0, 100.0)
        with pytest.raises(ValueError, match="window"):
            fit_decay_rate(traj, (50.0, 200.0))
        with pytest.raises(ValueError, match="window"):
            fit_decay_rate(traj, (80.0, 20.0))

    def test_too_few_crossings_rejected(self):
        traj = damped_cosine(0.001, 1.0, 100.0)
        with pytest.raises(ValueError, match="crossings"):
            fit_decay_rate(traj, (0.0, 1.0))

    def test_noisy_fit_flags_low_confidence(self):
        rng = np.random.default_rng(7)
        dt = 0.02
        t = dt * np.arange(20000)
        z = np.cos(t) + 0.8 * rng.standard_normal(len(t))
        traj = Trajectory(dt=dt, z=z, zdot=np.gradient(z, dt))
        fit = fit_decay_rate(traj, (10.0, 390.0))
        assert fit.low_confidence
        assert fit.r_squared < 0.9


class TestTransitionTime:
    def test_ideal_rate_reproduces_transition_time(self, dc):
        traj = integrate_transient(FastMotionParams(epsilon=dc.epsilon), DT,
                                   6.0 / dc.epsilon)
        fit = fit_decay_rate(traj, (1.0 / dc.epsilon, 6.0 / dc.epsilon))
        t_est = transition_time_from_fit(fit, dc)
        assert t_est == pytest.approx(dc.T_tr, rel=1e-2)
        assert t_est == pytest.approx(0.53e-18, rel=2e-2)


class TestEnsembleStatistics:
    def _constant_traj(self, value, n=100):
        return Trajectory(dt=0.1, z=np.full(n, value), zdot=np.zeros(n))

    def test_constant_trajectories(self):
        trajs = [self._constant_traj(2.0), self._constant_traj(2.0)]
        stats = burn_in_stats(trajs, discard=0.25)
        assert stats.mean_z2 == pytest.approx(4.0)
        assert stats.stderr == pytest.approx(0.0, abs=1e-15)
        assert stats.n_realizations == 2

    def test_between_realization_scatter(self):
        trajs = [self._constant_traj(v) for v in (1.0, 2.0, 3.0)]
        stats = burn_in_stats(trajs, discard=0.0)
        per_run = np.array([1.0, 4.0, 9.0])
        assert stats.mean_z2 == pytest.approx(per_run.mean())
        assert stats.stderr == pytest.approx(per_run.std(ddof=1) / math.sqrt(3))

    def test_requires_two_realizations(self):
        with pytest.raises(ValueError, match="2 realizations"):
            burn_in_stats([self._constant_traj(1.0)], discard=0.0)

    def test_discard_fraction_guard(self):
        trajs = [self._constant_traj(1.0), self._constant_traj(1.0)]
        with pytest.raises(ValueError, match="discard"):
            burn_in_stats(trajs, discard=1.0)

    def test_variance_is_quadratic_in_drive(self):
        eps = 0.02
        sets = synthesize_ensemble(eps, (0.8, 1.2), 128, (21, 22, 23))
        loud = dataclasses.replace(sets, amplitudes=2.0 * sets.amplitudes)
        s_base = ensemble_stats(stationary_mean_z2(eps, sets, DT, 8.0 / eps, 0.3))
        s_loud = ensemble_stats(stationary_mean_z2(eps, loud, DT, 8.0 / eps, 0.3))
        assert s_loud.mean_z2 / s_base.mean_z2 == pytest.approx(4.0, rel=1e-10)

    def test_stderr_shrinks_like_sqrt_n(self):
        # cheap drive settings; only the n-scaling of the error bar matters
        eps = 0.02
        errs = []
        sizes = (8, 32, 128)
        for n in sizes:
            drives = synthesize_ensemble(eps, (0.8, 1.2), 256, child_seeds(99, n))
            errs.append(ensemble_stats(stationary_mean_z2(eps, drives, DT, 8.0 / eps,
                                                          0.3)).stderr)
        slope = np.polyfit(np.log(sizes), np.log(errs), 1)[0]
        assert -0.7 < slope < -0.3
