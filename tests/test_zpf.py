import dataclasses
import math

import numpy as np
import pytest

from zitter import zpf
from zitter.errors import NumericalInstabilityError
from zitter.zpf import (
    ModeEnsemble,
    child_seeds,
    estimate_psd,
    period_sum,
    sed_psd,
    synthesize_ensemble,
)

EPS_CODATA = 0.004864901713183761  # 2*alpha/3
BAND = (0.8, 1.2)

GRID_COUNTS = [2, 3, 100, 2000, 4097]
# (0.03, 0.32): k (hi - lo) / (n - 1) + lo misses hi at k = n - 1 for 3 and 100 modes
GRID_BANDS = [(0.8, 1.2), (0.3, 0.30000001), (1.0, 7.25), (0.03, 0.32)]


def drive(ens, h, n_times, epsilon=0.0):
    """E + eps*E' of a one-row ensemble at the times h n, summed directly 2,000 times at once."""
    c, times = ens.weights(epsilon) * np.exp(1j * ens.phases[0]), h * np.arange(n_times)
    out = np.empty(n_times)
    for start in range(0, n_times, 2000):
        t = times[start:start + 2000]
        out[start:start + len(t)] = (c @ np.exp(1j * np.multiply.outer(ens.omegas, t))).real
    return out


def period_drive(ens, dt):
    """E of a one-row ensemble over one period at period_sum's step h <= dt, and h."""
    h, e = period_sum(ens, math.ceil(ens.t_rec / dt))
    return h, e[0]


def single_mode(amplitude=1.0, omega=1.0, phase=0.0, spacing=1e-3):
    """One active mode plus a silent companion (an ensemble needs >= 2 modes)."""
    return ModeEnsemble(
        band=(omega, omega + spacing),
        amplitudes=np.array([amplitude, 0.0]),
        phases=np.array([[phase, 0.0]]),
    )


class TestSynthesis:
    def test_zero_spectrum_gives_zero_field(self):
        ms = dataclasses.replace(synthesize_ensemble(EPS_CODATA, BAND, 64, [3]),
                                 amplitudes=np.zeros(64))
        assert np.all(ms.weights(0.09) == 0.0)
        assert np.all(drive(ms, ms.t_rec * 0.9 / 99, 100) == 0.0)
        assert np.all(period_sum(ms, 64)[1] == 0.0)

    def test_same_seed_is_bit_identical(self):
        a = synthesize_ensemble(EPS_CODATA, BAND, 128, [99])
        b = synthesize_ensemble(EPS_CODATA, BAND, 128, [99])
        assert np.array_equal(a.phases, b.phases)
        assert np.array_equal(a.amplitudes, b.amplitudes)
        assert np.array_equal(a.omegas, b.omegas)

    def test_different_seeds_differ(self):
        a = synthesize_ensemble(EPS_CODATA, BAND, 128, [1])
        b = synthesize_ensemble(EPS_CODATA, BAND, 128, [2])
        assert not np.array_equal(a.phases, b.phases)

    def test_construction_identity(self):
        ms = synthesize_ensemble(EPS_CODATA, BAND, 256, [5])
        target = EPS_CODATA * ms.omegas**3 / math.pi
        d_omega = (BAND[1] - BAND[0]) / 255
        assert np.max(np.abs(ms.amplitudes**2 / (2.0 * d_omega) / target - 1.0)) < 1e-12

    def test_parseval_time_average(self):
        # direct summation oracle vs long-time average over one recurrence
        ms = synthesize_ensemble(EPS_CODATA, BAND, 400, [7])
        e = drive(ms, 0.5, int(ms.t_rec / 0.5))
        assert np.mean(e**2) == pytest.approx(np.sum(ms.amplitudes**2) / 2.0, rel=1e-2)

    def test_amplitude_scaling_is_quadratic_in_variance(self):
        ms = synthesize_ensemble(EPS_CODATA, BAND, 64, [11])
        n = int(ms.t_rec / 0.7)
        base = drive(ms, 0.7, n)
        scaled = drive(dataclasses.replace(ms, amplitudes=3.0 * ms.amplitudes), 0.7, n)
        assert np.var(scaled) == pytest.approx(9.0 * np.var(base), rel=1e-12)

    def test_too_few_modes_rejected(self):
        with pytest.raises(ValueError, match="n_modes"):
            synthesize_ensemble(EPS_CODATA, BAND, 1, [0])

    def test_nonpositive_band_rejected(self):
        with pytest.raises(ValueError, match="band"):
            synthesize_ensemble(EPS_CODATA, (-0.1, 1.0), 16, [0])
        with pytest.raises(ValueError, match="band"):
            synthesize_ensemble(EPS_CODATA, (0.0, 1.0), 16, [0])
        with pytest.raises(ValueError, match="band"):
            synthesize_ensemble(EPS_CODATA, (1.0, 0.5), 16, [0])

    def test_negative_psd_rejected(self):
        # S = eps w^3 / pi is negative, zero or undefined on the band
        for epsilon in (-EPS_CODATA, 0.0, math.nan):
            with pytest.raises(ValueError, match="epsilon"):
                synthesize_ensemble(epsilon, BAND, 16, [0])

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.parametrize("band, n_modes", [
        # w^3 overflows at the top of the band
        ((1e103, 2e103), 20),
        # S is finite, but 2 S d_omega is not
        ((5e101, 1e102), 2),
    ])
    def test_overflowing_amplitudes_rejected(self, band, n_modes):
        with pytest.raises(NumericalInstabilityError, match="overflow"):
            synthesize_ensemble(EPS_CODATA, band, n_modes, [0])

    def test_child_seeds_deterministic(self):
        assert child_seeds(123, 5) == child_seeds(123, 5)
        assert len(set(child_seeds(123, 64))) == 64


class TestEnsemble:
    def test_phases_are_each_seeds_stream(self):
        seeds = child_seeds(2718, 5)
        ens = zpf.synthesize_ensemble(EPS_CODATA, BAND, 300, seeds)
        assert ens.phases.shape == (5, 300)
        for row, seed in zip(ens.phases, seeds):
            expected = np.random.default_rng(seed).random(300) * (2.0 * math.pi)
            assert row.tobytes() == expected.tobytes()

    def test_band_is_a_row_of_the_ensemble(self):
        ens = zpf.synthesize_ensemble(EPS_CODATA, BAND, 128, [7, 8])
        ms = synthesize_ensemble(EPS_CODATA, BAND, 128, [8])
        assert np.array_equal(ms.omegas, ens.omegas)
        assert np.array_equal(ms.amplitudes, ens.amplitudes)
        assert np.array_equal(ms.phases, ens.phases[1:])

    @pytest.mark.parametrize("n_modes", GRID_COUNTS)
    @pytest.mark.parametrize("band", GRID_BANDS)
    def test_frequency_prefix_is_the_grids(self, n_modes, band):
        # the recurrence time a run is checked against before synthesis, from
        # the step of band and count, is the synthesized grid's, bit for bit
        grid = zpf.mode_frequencies(band, n_modes)
        assert grid.tobytes() == np.linspace(band[0], band[1], n_modes).tobytes()
        ens = synthesize_ensemble(EPS_CODATA, band, n_modes, [1])
        assert 2.0 * math.pi / zpf.mode_step(band, n_modes) == ens.t_rec
        assert ens.t_rec == 2.0 * math.pi / ens.d_omega

    @pytest.mark.parametrize("n_modes", GRID_COUNTS)
    @pytest.mark.parametrize("band", GRID_BANDS)
    def test_grid_is_carried_as_band_and_count(self, n_modes, band):
        # the step is the last frequency's distance from the first over K - 1,
        # and the recurrence time is one period of that step. The amplitudes
        # take that step too: on (0.3, 0.30000001) the first step w_1 - w_0 is
        # up to 1e-6 off it
        ens = synthesize_ensemble(EPS_CODATA, band, n_modes, [1])
        w = np.linspace(band[0], band[1], n_modes)
        assert ens.omegas.tobytes() == w.tobytes()
        assert ens.d_omega == (w[-1] - w[0]) / (n_modes - 1)
        assert ens.t_rec == 2.0 * math.pi / ens.d_omega
        target = np.sqrt(2.0 * EPS_CODATA * w**3 / math.pi * ens.d_omega)
        assert np.max(np.abs(ens.amplitudes / target - 1.0)) <= 4 * 2**-52

    @pytest.mark.parametrize("epsilon", [0.0, EPS_CODATA, 0.09])
    def test_weights_mode_by_mode(self, epsilon):
        ens = zpf.synthesize_ensemble(EPS_CODATA, BAND, 64, child_seeds(5, 3))
        weights = ens.weights(epsilon)
        assert weights.shape == (64,) and weights.dtype == complex
        phasors = zpf._unit_phasors(ens.phases, np.empty(ens.phases.shape, dtype=complex))
        for k in range(64):
            a, w = ens.amplitudes[k], ens.omegas[k]
            boost = math.sqrt(1.0 + (epsilon * w) ** 2)
            tilt = math.atan(epsilon * w)
            ref = complex(a * boost * math.cos(tilt), a * boost * math.sin(tilt))
            assert abs(weights[k] - ref) <= 4 * 2**-52 * abs(ref)
            # the coefficient a mode sum forms, A (1 + i eps w) e^{i phi} with
            # e^{i phi} from tan(phi / 2), not libm's cos and sin of phi + atan(eps w)
            for r in range(3):
                arg = ens.phases[r, k] + tilt
                ref = complex(a * boost * math.cos(arg), a * boost * math.sin(arg))
                assert abs(weights[k] * phasors[r, k] - ref) <= 4 * 2**-52 * abs(ref)


class TestCoefficientKernel:
    """The unit phasors against libm, and the coefficients that period_sum forms
    from them one realization at a time, in place."""

    def test_unit_phasor_matches_libm(self):
        # phi spans every phase
        edges = [0.0, math.pi / 2.0, math.nextafter(math.pi, -math.inf), math.pi,
                 math.nextafter(math.pi, math.inf), 1.5 * math.pi,
                 math.nextafter(2.0 * math.pi, 0.0), 2.0 * math.pi]
        theta = np.concatenate((np.linspace(0.0, 2.0 * math.pi, 100_003), edges))
        c = zpf._unit_phasors(theta, np.empty(len(theta), dtype=complex))
        ref = np.array([complex(math.cos(x), math.sin(x)) for x in theta])
        assert np.max(np.abs(c - ref)) <= 3 * 2**-52
        assert np.max(np.abs(np.abs(c) - 1.0)) <= 3 * 2**-52
        # written, as period_sum and stationary_mean_z2 write them, into the
        # first K columns of a wider buffer, a strided view, whose other columns
        # stay as they were
        buf = np.full((2, len(theta) + 5), 7.0 + 7.0j)
        out = buf[:, :len(theta)]
        assert zpf._unit_phasors(np.stack((theta, theta)), out) is out
        assert np.max(np.abs(out - ref)) <= 3 * 2**-52
        assert np.all(buf[:, len(theta):] == 7.0 + 7.0j)

    def test_rows_are_independent(self):
        # period_sum's rows are those of one-row ensembles, byte for byte
        ens = synthesize_ensemble(0.05, BAND, 300, child_seeds(9, 111))
        h, e = period_sum(ens, 320)
        for r in range(len(e)):
            row = dataclasses.replace(ens, phases=ens.phases[r:r + 1])
            h_row, e_row = period_sum(row, 320)
            assert h_row == h and e[r].tobytes() == e_row[0].tobytes()

    def test_memory_is_the_result_plus_a_few_rows(self):
        # beyond the sums, the ramp and the buffer of n values each (s^2 >= n)
        # and two rows of 16 bytes per mode: 2.2 MB at the 64,800 samples of a
        # unit step. The (R, K) coefficients are not formed: they would be 4.2 MB
        import tracemalloc

        ens = synthesize_ensemble(0.05, BAND, 4096, child_seeds(3, 64))
        n = zpf._fft_len(math.ceil(ens.t_rec))
        s = math.isqrt(n - 1) + 1
        tracemalloc.start()
        try:
            _, e = period_sum(ens, n)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - e.nbytes <= 32 * s * s + 32 * 4096


class TestEvaluation:
    # E = cos t and E' = -sin t for the single mode, so E + eps*E' = cos t - eps sin t;
    # evaluated on the grid of t = 0 and a quarter period
    QUARTER = (math.pi / 2.0, 2)

    def test_single_mode_at_zero(self):
        assert drive(single_mode(), *self.QUARTER)[0] == pytest.approx(1.0)
        assert drive(single_mode(), *self.QUARTER, 1.0)[0] == pytest.approx(1.0, abs=1e-15)

    def test_single_mode_quarter_period(self):
        assert drive(single_mode(), *self.QUARTER)[1] == pytest.approx(0.0, abs=1e-12)
        assert drive(single_mode(), *self.QUARTER, 1.0)[1] == pytest.approx(-1.0, rel=1e-9)

    def test_derivative_is_term_by_term(self):
        ms = synthesize_ensemble(EPS_CODATA, BAND, 32, [4])
        h = 50.0 / 499
        t = h * np.arange(500)
        e = sum(a * np.cos(w * t + p)
                for a, w, p in zip(ms.amplitudes, ms.omegas, ms.phases[0]))
        edot = sum(
            -a * w * np.sin(w * t + p)
            for a, w, p in zip(ms.amplitudes, ms.omegas, ms.phases[0])
        )
        # at eps = 1 E' carries full weight; the bound is relative to E' alone
        got = drive(ms, h, 500, 1.0)
        assert np.max(np.abs(got - (e + edot))) < 1e-12 * np.max(np.abs(edot))

    def test_parseval_large_modeset(self):
        ms = synthesize_ensemble(EPS_CODATA, BAND, 2000, [13])
        _, e = period_drive(ms, 1.0)
        assert np.var(e) == pytest.approx(np.sum(ms.amplitudes**2) / 2.0, rel=1e-2)


def trig_double_sum(omegas, cos_coeff, sin_coeff, times):
    """sum_k [cc_k cos(w_k t) + sc_k sin(w_k t)], one mode at a time."""
    total = 0.0
    for w, cc, sc in zip(omegas, cos_coeff, sin_coeff):
        total = total + np.multiply.outer(np.cos(w * times), cc) \
            + np.multiply.outer(np.sin(w * times), sc)
    return total


class TestModeSumOracle:
    """period_sum against an explicit double sum that shares no code with it.

    The double sum is the cosine-and-sine form sum_k [cc_k cos(w_k t) + sc_k sin(w_k t)],
    which is Re sum_k c_k e^{i w_k t} with c_k = cc_k - i sc_k, at the times
    h j that period_sum returns the step of.
    """

    @pytest.mark.parametrize("band, n_modes, n", [
        (BAND, 2, 5),
        (BAND, 64, 300),
        # w_0 / d_omega = 141.3...: the ramp is no whole number of FFT bins
        ((0.83, 1.2), 64, 672),
        # one sample per mode, the fewest period_sum takes
        (BAND, 64, 64),
        # 2000 modes, up to 0.99 of the recurrence time 2*pi/d_omega
        (BAND, 2000, 15545),
    ], ids=["two-modes", "grid", "offset-grid", "n-equals-K", "2000-modes-near-t_rec"])
    # None: one realization, a one-row ensemble against a double sum of (K,) coefficients
    @pytest.mark.parametrize("n_real", [None, 3])
    def test_matches_double_sum(self, band, n_modes, n, n_real):
        # random amplitudes and phases: A cos(w t + phi) = cc cos(w t) + sc sin(w t)
        # with cc = A cos phi and sc = -A sin phi
        omegas = np.linspace(band[0], band[1], n_modes)
        rng = np.random.default_rng(17)
        amplitudes = rng.uniform(0.0, 2.0, n_modes)
        phases = rng.uniform(0.0, 2.0 * math.pi, (1 if n_real is None else n_real, n_modes))
        cos_coeff = np.transpose(amplitudes * np.cos(phases))
        sin_coeff = np.transpose(-amplitudes * np.sin(phases))
        if n_real is None:
            cos_coeff, sin_coeff = cos_coeff[:, 0], sin_coeff[:, 0]
        h, got = period_sum(ModeEnsemble(band, amplitudes, phases), n)
        assert h * n * (band[1] - band[0]) / (n_modes - 1) == pytest.approx(2.0 * math.pi)
        times = h * np.arange(n)
        if n_modes == 2000:
            assert 0.99 * 2.0 * math.pi / zpf.mode_step(band, n_modes) <= times[-1]
        expected = trig_double_sum(omegas, cos_coeff, sin_coeff, times)
        got = got[0] if n_real is None else got.T
        assert got.shape == expected.shape
        rms = np.sqrt(np.mean(expected**2))
        assert np.max(np.abs(got - expected)) <= 1e-8 * rms

    def test_matches_long_double_sum_to_rounding(self):
        # psd-check's default grid, 30,000 samples of a period, at the first and
        # last 250 times 2 pi j / (d_omega n). The ramp's phase w_0 h j reaches
        # 25,000 rad, where the product w_0 h j rounded in doubles is off by
        # 3e-12 of the peak
        ld = np.longdouble
        if np.finfo(ld).eps > 2.0**-60:
            pytest.skip("numpy's long double is no wider than a double here")
        n, d_omega = 30_000, (BAND[1] - BAND[0]) / 1999
        ens = synthesize_ensemble(EPS_CODATA, BAND, 2000, child_seeds(1, 1))
        _, (got,) = period_sum(ens, n)
        c = ens.amplitudes * np.exp(1j * ens.phases[0])
        j = np.concatenate((np.arange(250), np.arange(n - 250, n)))
        t = 2 * ld("3.14159265358979323846264338327950288") * j / (ld(d_omega) * n)
        phase = np.multiply.outer(t, ld(BAND[0]) + np.arange(2000) * ld(d_omega))
        expected = np.cos(phase) @ c.real.astype(ld) - np.sin(phase) @ c.imag.astype(ld)
        assert np.max(np.abs(got[j] - expected)) <= 1e-12 * np.max(np.abs(got))

    def test_fewer_samples_than_modes_rejected(self):
        # numpy.fft.ifft(c, n) would silently drop the modes past the n-th
        with pytest.raises(ValueError, match="64 modes"):
            period_sum(ModeEnsemble(BAND, np.ones(64), np.zeros((1, 64))), 63)

    @pytest.mark.parametrize("n_modes", [2000, 1500])
    def test_one_period_mean_square_is_exact(self, n_modes):
        # w_0 / d_omega is whole on (0.8, 1.2), so over one period every cross
        # term c_k c_l e^{i (w_k + w_l) t} turns through whole circles and sums
        # to zero: the mean square is sum A_k^2 / 2 to rounding. On (0.83, 1.2)
        # the cross terms leave O(1 / n): 1.1e-5 at 2000 modes here
        ens = synthesize_ensemble(EPS_CODATA, BAND, n_modes, child_seeds(8, 3))
        _, e = period_sum(ens, zpf._fft_len(math.ceil(ens.t_rec)))
        target = np.sum(ens.amplitudes**2) / 2.0
        assert np.max(np.abs(np.mean(e**2, axis=1) / target - 1.0)) <= 1e-12


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
        ms = synthesize_ensemble(EPS_CODATA, BAND, 512, [21])
        dt = 2.0 * math.pi / 8.0
        omega, psd = estimate_psd(drive(ms, dt, int(ms.t_rec / dt)), dt, 4096)
        total = np.trapezoid(psd, omega)
        # taper leakage smears edge modes over ~2 resolution bins
        margin = 2.0 * (omega[1] - omega[0])
        in_band = (omega >= 0.8 - margin) & (omega <= 1.2 + margin)
        assert np.trapezoid(psd[in_band], omega[in_band]) / total > 0.99

    def test_sed_band_matches_target(self):
        # averaged over realizations; a single Welch pass has an ~8% noise floor
        dt = 2.0 * math.pi / 6.0
        acc = None
        for seed in child_seeds(314, 6):
            ms = synthesize_ensemble(EPS_CODATA, BAND, 2000, [seed])
            h, e = period_drive(ms, dt)
            omega, psd = estimate_psd(e, h, 512)
            acc = psd if acc is None else acc + psd
        acc /= 6.0
        margin = 4.0 * (omega[1] - omega[0])
        sel = (omega >= 0.8 + margin) & (omega <= 1.2 - margin)
        rel_dev = acc[sel] / sed_psd(EPS_CODATA, omega[sel]) - 1.0
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


class TestCsvWriter:
    """``zpf._write_csv`` writes the text of a per-value ``repr`` row loop, a chunk at a time."""

    C = zpf._CSV_CHUNK

    @staticmethod
    def reference(header, a, b):
        return header + "\n" + "".join(f"{float(x)!r},{float(y)!r}\n" for x, y in zip(a, b))

    @staticmethod
    def columns(n_rows):
        rng = np.random.default_rng(n_rows)
        a = np.cumsum(rng.uniform(0.0, 0.1, n_rows))
        b = rng.standard_normal(n_rows) * 10.0 ** rng.integers(-30, 30, n_rows)
        return a, b

    @pytest.mark.parametrize("n_rows", [C - 1, C, C + 1, 2 * C - 1, 2 * C, 2 * C + 1, 3 * C + 1])
    def test_rows_across_a_chunk_boundary(self, tmp_path, n_rows):
        a, b = self.columns(n_rows)
        path = tmp_path / "rows.csv"
        zpf._write_csv(str(path), "a,b", (a, b))
        assert path.read_text(encoding="utf-8") == self.reference("a,b", a, b)

    def test_failed_write_raises_oserror(self, tmp_path, monkeypatch):
        class FailingFile:
            """The output file; its third write (the second chunk's) fails."""

            def __init__(self, *args, **kwargs):
                self.fh, self.writes = open(*args, **kwargs), 0

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, text):
                self.writes += 1
                if self.writes == 3:
                    raise OSError("no space left")
                return self.fh.write(text)

        monkeypatch.setattr(zpf, "open", FailingFile, raising=False)
        with pytest.raises(OSError, match="no space left"):
            zpf._write_csv(str(tmp_path / "rows.csv"), "a,b", self.columns(4 * self.C))

    def test_extreme_values(self, tmp_path):
        a = np.array([-0.0, 5e-324, 1e-05, 0.1, 1e16])
        b = [1e16, 0.1, 1e-05, 5e-324, -0.0]  # a list column too
        path = tmp_path / "extreme.csv"
        zpf._write_csv(str(path), "a,b", (a, b))
        text = path.read_text(encoding="utf-8")
        assert text == self.reference("a,b", a, b)
        assert text.splitlines()[1] == "-0.0,1e+16"

    def test_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        zpf._write_csv(str(path), "a,b", (np.empty(0), np.empty(0)))
        assert path.read_text(encoding="utf-8") == "a,b\n"


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

        w = np.linspace(0.5, 2.0, 31)
        assert np.allclose(gain**2 * field_psd(w), dc.epsilon * w**3 / math.pi,
                           rtol=1e-12, atol=0.0)
        assert np.allclose(sed_psd(dc.epsilon, w), dc.epsilon * w**3 / math.pi,
                           rtol=1e-15, atol=0.0)
        drive_modes = synthesize_ensemble(dc.epsilon, BAND, 64, [17])
        phys = np.sqrt(2.0 * field_psd(drive_modes.omegas) * drive_modes.d_omega)
        assert np.allclose(gain * phys, drive_modes.amplitudes, rtol=1e-10, atol=0.0)


class TestModeSetInvariants:
    """A mode ensemble's grid: one length K for the amplitudes and each row of phases,
    increasing frequencies."""

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="length"):
            ModeEnsemble((1.0, 2.0), np.array([1.0]), np.array([[0.0, 0.0]]))
        # one spectrum for every realization: amplitudes are (K,), not (R, K)
        with pytest.raises(ValueError, match="length"):
            ModeEnsemble((1.0, 2.0), np.ones((2, 2)), np.zeros((2, 2)))

    def test_nonincreasing_frequencies_rejected(self):
        with pytest.raises(ValueError, match="increasing"):
            ModeEnsemble((2.0, 1.0), np.zeros(2), np.zeros((1, 2)))
