import math

import numpy as np
import pytest

from zitter import zpf
from zitter.zpf import (
    ModeSet,
    SpectrumModel,
    child_seeds,
    drive_coefficients,
    estimate_psd,
    mode_sum,
    sed_drive_spectrum,
    synthesize_band,
    vector_potential,
)

EPS_CODATA = 0.004864901713183761  # 2*alpha/3


def drive(ms, t, epsilon=0.0):
    """E + eps*E' of one mode set at the times t, on the integrator's drive path."""
    return mode_sum(*drive_coefficients([ms], epsilon), t)[:, 0]


def single_mode(amplitude=1.0, omega=1.0, phase=0.0, spacing=1e-3):
    """One active mode plus a silent companion (ModeSet needs >= 2 modes)."""
    return ModeSet(
        omegas=np.array([omega, omega + spacing]),
        amplitudes=np.array([amplitude, 0.0]),
        phases=np.array([phase, 0.0]),
        seed=0,
    )


class TestSynthesis:
    def test_zero_spectrum_gives_zero_field(self):
        spec = SpectrumModel(psd=lambda w: np.zeros_like(w), band_lo=0.8, band_hi=1.2)
        ms = synthesize_band(spec, 64, seed=3)
        assert np.all(ms.amplitudes == 0.0)
        t = np.linspace(0.0, ms.t_rec * 0.9, 100)
        assert np.all(drive(ms, t) == 0.0)

    def test_same_seed_is_bit_identical(self):
        spec = sed_drive_spectrum(EPS_CODATA)
        a = synthesize_band(spec, 128, seed=99)
        b = synthesize_band(spec, 128, seed=99)
        assert np.array_equal(a.phases, b.phases)
        assert np.array_equal(a.amplitudes, b.amplitudes)
        assert np.array_equal(a.omegas, b.omegas)

    def test_different_seeds_differ(self):
        spec = sed_drive_spectrum(EPS_CODATA)
        a = synthesize_band(spec, 128, seed=1)
        b = synthesize_band(spec, 128, seed=2)
        assert not np.array_equal(a.phases, b.phases)

    def test_construction_identity(self):
        spec = sed_drive_spectrum(EPS_CODATA)
        ms = synthesize_band(spec, 256, seed=5)
        target = np.asarray(spec.psd(ms.omegas))
        assert np.max(np.abs(ms.amplitudes**2 / (2.0 * ms.delta_omega) / target - 1.0)) < 1e-12

    def test_parseval_time_average(self):
        # direct summation oracle vs long-time average over one recurrence
        spec = sed_drive_spectrum(EPS_CODATA)
        ms = synthesize_band(spec, 400, seed=7)
        t = np.arange(int(ms.t_rec / 0.5)) * 0.5
        e = drive(ms, t)
        assert np.mean(e**2) == pytest.approx(np.sum(ms.amplitudes**2) / 2.0, rel=1e-2)

    def test_amplitude_scaling_is_quadratic_in_variance(self):
        spec = sed_drive_spectrum(EPS_CODATA)
        ms = synthesize_band(spec, 64, seed=11)
        t = np.arange(int(ms.t_rec / 0.7)) * 0.7
        base = drive(ms, t)
        scaled = drive(ms.scaled(3.0), t)
        assert np.var(scaled) == pytest.approx(9.0 * np.var(base), rel=1e-12)

    def test_too_few_modes_rejected(self):
        spec = sed_drive_spectrum(EPS_CODATA)
        with pytest.raises(ValueError, match="n_modes"):
            synthesize_band(spec, 1, seed=0)

    def test_nonpositive_band_rejected(self):
        with pytest.raises(ValueError, match="band"):
            SpectrumModel(psd=lambda w: w, band_lo=-0.1, band_hi=1.0)
        with pytest.raises(ValueError, match="band"):
            SpectrumModel(psd=lambda w: w, band_lo=1.0, band_hi=0.5)

    def test_negative_psd_rejected(self):
        spec = SpectrumModel(psd=lambda w: -np.ones_like(w), band_lo=0.5, band_hi=1.0)
        with pytest.raises(ValueError, match="non-negative"):
            synthesize_band(spec, 16, seed=0)

    def test_child_seeds_deterministic(self):
        assert child_seeds(123, 5) == child_seeds(123, 5)
        assert len(set(child_seeds(123, 64))) == 64


class TestEvaluation:
    # E = cos t and E' = -sin t for the single mode, so E + eps*E' = cos t - eps sin t
    def test_single_mode_at_zero(self):
        assert drive(single_mode(), 0.0)[0] == pytest.approx(1.0)
        assert drive(single_mode(), 0.0, 1.0)[0] == pytest.approx(1.0, abs=1e-15)

    def test_single_mode_quarter_period(self):
        assert drive(single_mode(), math.pi / 2.0)[0] == pytest.approx(0.0, abs=1e-12)
        assert drive(single_mode(), math.pi / 2.0, 1.0)[0] == pytest.approx(-1.0, rel=1e-9)

    def test_derivative_is_term_by_term(self):
        spec = sed_drive_spectrum(EPS_CODATA)
        ms = synthesize_band(spec, 32, seed=4)
        t = np.linspace(0.0, 50.0, 500)
        e = sum(a * np.cos(w * t + p) for a, w, p in zip(ms.amplitudes, ms.omegas, ms.phases))
        edot = sum(
            -a * w * np.sin(w * t + p)
            for a, w, p in zip(ms.amplitudes, ms.omegas, ms.phases)
        )
        # at eps = 1 E' carries full weight; the bound is relative to E' alone
        got = drive(ms, t, 1.0)
        assert np.max(np.abs(got - (e + edot))) < 1e-12 * np.max(np.abs(edot))

    def test_recurrence_horizon_guard(self):
        ms = single_mode(spacing=0.5)  # t_rec = 4*pi
        with pytest.raises(ValueError, match="t_rec"):
            vector_potential(ms, ms.t_rec)
        with pytest.raises(ValueError, match="t_rec"):
            vector_potential(ms, -0.1)
        assert ms.t_rec == pytest.approx(4.0 * math.pi)

    def test_parseval_large_modeset(self):
        spec = sed_drive_spectrum(EPS_CODATA)
        ms = synthesize_band(spec, 2000, seed=13)
        t = np.arange(int(ms.t_rec / 1.0)) * 1.0
        e = drive(ms, t)
        assert np.var(e) == pytest.approx(np.sum(ms.amplitudes**2) / 2.0, rel=1e-2)


def trig_double_sum(omegas, cos_coeff, sin_coeff, times):
    """sum_k [cc_k cos(w_k t) + sc_k sin(w_k t)], one mode at a time."""
    total = 0.0
    for w, cc, sc in zip(omegas, cos_coeff, sin_coeff):
        total = total + np.multiply.outer(np.cos(w * times), cc) \
            + np.multiply.outer(np.sin(w * times), sc)
    return total


BAND_64 = np.linspace(0.8, 1.2, 64)
BAND_2000 = np.linspace(0.8, 1.2, 2000)


class TestModeSumOracle:
    """mode_sum against an explicit double sum that shares no code with it."""

    @pytest.mark.parametrize("omegas, times", [
        (BAND_64, 0.05 * np.arange(300)),
        (BAND_64, 137.5 + 0.37 * np.arange(300)),
        # crosses a block boundary; not a multiple of the block length
        (BAND_64, 3.0 + 0.11 * np.arange(zpf._BLOCK + 37)),
        (BAND_64, np.array([42.25])),
        (BAND_64, np.sort(np.random.default_rng(5).uniform(0.0, 400.0, 257))),
        # 2000 modes, up to 0.99 of the recurrence time 2*pi/d_omega
        (BAND_2000, 25000.0 + 2.0 * np.arange(3000)),
        # irregular modes on a uniform time grid
        (np.sort(np.random.default_rng(6).uniform(0.8, 1.2, 40)), 0.3 * np.arange(500)),
    ], ids=["grid", "offset-grid", "multi-block", "single-time", "irregular-times",
            "2000-modes-near-t_rec", "irregular-modes"])
    @pytest.mark.parametrize("n_real", [None, 3])
    def test_matches_double_sum(self, omegas, times, n_real):
        shape = (len(omegas),) if n_real is None else (len(omegas), n_real)
        rng = np.random.default_rng(17)
        cos_coeff = rng.normal(size=shape)
        sin_coeff = rng.normal(size=shape)
        expected = trig_double_sum(omegas, cos_coeff, sin_coeff, times)
        got = zpf.mode_sum(omegas, cos_coeff, sin_coeff, times)
        assert got.shape == expected.shape
        rms = np.sqrt(np.mean(expected**2))
        assert np.max(np.abs(got - expected)) <= 1e-8 * rms


class TestPsdEstimation:
    def test_single_tone_integrated_power(self):
        dt, amp, w0 = 0.1, 2.0, 0.9
        t = np.arange(40000) * dt
        omega, psd = estimate_psd(amp * np.cos(w0 * t + 0.3), dt, 2048)
        assert np.trapezoid(psd, omega) == pytest.approx(amp**2 / 2.0, rel=2e-2)
        assert omega[np.argmax(psd)] == pytest.approx(w0, abs=omega[1] - omega[0])

    def test_two_tone_power_ratio(self):
        dt = 0.1
        t = np.arange(60000) * dt
        x = 1.0 * np.cos(0.7 * t) + 3.0 * np.cos(1.9 * t + 1.0)
        omega, psd = estimate_psd(x, dt, 4096)
        split = 1.3
        p_lo = np.trapezoid(psd[omega < split], omega[omega < split])
        p_hi = np.trapezoid(psd[omega >= split], omega[omega >= split])
        assert p_hi / p_lo == pytest.approx(9.0, rel=2e-2)

    def test_band_purity(self):
        spec = sed_drive_spectrum(EPS_CODATA)
        ms = synthesize_band(spec, 512, seed=21)
        dt = 2.0 * math.pi / 8.0
        t = np.arange(int(ms.t_rec / dt)) * dt
        omega, psd = estimate_psd(drive(ms, t), dt, 4096)
        total = np.trapezoid(psd, omega)
        # taper leakage smears edge modes over ~2 resolution bins
        margin = 2.0 * (omega[1] - omega[0])
        in_band = (omega >= 0.8 - margin) & (omega <= 1.2 + margin)
        assert np.trapezoid(psd[in_band], omega[in_band]) / total > 0.99

    def test_sed_band_matches_target(self):
        # averaged over realizations; a single Welch pass has an ~8% noise floor
        spec = sed_drive_spectrum(EPS_CODATA)
        dt = 2.0 * math.pi / 6.0
        acc = None
        for seed in child_seeds(314, 6):
            ms = synthesize_band(spec, 2000, seed=seed)
            t = np.arange(int(ms.t_rec / dt)) * dt
            omega, psd = estimate_psd(drive(ms, t), dt, 512)
            acc = psd if acc is None else acc + psd
        acc /= 6.0
        margin = 4.0 * (omega[1] - omega[0])
        sel = (omega >= 0.8 + margin) & (omega <= 1.2 - margin)
        rel_dev = acc[sel] / spec.psd(omega[sel]) - 1.0
        assert np.sqrt(np.mean(rel_dev**2)) < 0.05

    @pytest.mark.parametrize("segment_len", [256, 257])
    @pytest.mark.parametrize("overlap", [0.0, 0.5, 0.75])
    def test_matches_scipy_welch(self, segment_len, overlap):
        # the reference Welch estimator: periodic Hann, no detrend, density
        from scipy import signal

        dt = 0.37
        x = np.random.default_rng(5).standard_normal(3001) + 0.2
        freqs, pxx = signal.welch(x, fs=1.0 / dt, window="hann", nperseg=segment_len,
                                  noverlap=int(overlap * segment_len), detrend=False)
        omega, psd = estimate_psd(x, dt, segment_len, overlap)
        assert len(omega) == len(freqs)
        assert np.max(np.abs(omega - 2.0 * math.pi * freqs)) <= 1e-12 * omega[-1]
        assert np.max(np.abs(psd * 2.0 * math.pi / pxx - 1.0)) <= 1e-12

    def test_empty_series_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            estimate_psd(np.array([]), 0.1, 16)

    def test_bad_segment_and_overlap_rejected(self):
        x = np.ones(64)
        with pytest.raises(ValueError, match="segment_len"):
            estimate_psd(x, 0.1, 128)
        with pytest.raises(ValueError, match="overlap"):
            estimate_psd(x, 0.1, 32, overlap=1.0)


class TestUnitsConsistency:
    def test_physical_and_sim_synthesis_agree(self, fc, dc):
        """The scaled physical zero-point field equals the sim-unit drive.

        The drive is g E(t / omega_C) with gain g = e / (m omega_C^2 lambda_bar_C),
        so its PSD per unit sim frequency W is g^2 S_E(omega_C W) omega_C, with
        the Gaussian-unit field spectrum S_E(w) = 2 hbar w^3 / (3 pi c^3); in
        closed form that is eps W^3 / pi.
        """
        gain = fc.e / (fc.m * dc.omega_C**2 * dc.lambda_C_bar)

        def field_psd(w):
            s_e = 2.0 * fc.hbar * (dc.omega_C * w) ** 3 / (3.0 * math.pi * fc.c**3)
            return s_e * dc.omega_C

        sim = sed_drive_spectrum(dc.epsilon)
        w = np.linspace(0.5, 2.0, 31)
        assert np.allclose(gain**2 * field_psd(w), dc.epsilon * w**3 / math.pi,
                           rtol=1e-12, atol=0.0)
        assert np.allclose(sim.psd(w), dc.epsilon * w**3 / math.pi, rtol=1e-15, atol=0.0)
        phys = synthesize_band(SpectrumModel(field_psd, 0.8, 1.2), 64, seed=17)
        drive_modes = synthesize_band(sim, 64, seed=17)
        assert np.allclose(phys.scaled(gain).amplitudes, drive_modes.amplitudes,
                           rtol=1e-10, atol=0.0)
        assert np.array_equal(phys.phases, drive_modes.phases)


class TestModeSetInvariants:
    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="length"):
            ModeSet(np.array([1.0, 2.0]), np.array([1.0]), np.array([0.0, 0.0]), 0)

    def test_nonincreasing_frequencies_rejected(self):
        with pytest.raises(ValueError, match="increasing"):
            ModeSet(np.array([2.0, 1.0]), np.zeros(2), np.zeros(2), 0)
