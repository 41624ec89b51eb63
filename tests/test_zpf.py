import dataclasses
import math
import os
import signal

import numpy as np
import pytest

from zitter import zpf
from zitter.zpf import (
    ModeEnsemble,
    SpectrumModel,
    child_seeds,
    estimate_psd,
    phasor_sum,
    sed_drive_spectrum,
    synthesize_ensemble,
)

EPS_CODATA = 0.004864901713183761  # 2*alpha/3

GRID_COUNTS = [2, 3, 100, 2000, 4097]
# (0.03, 0.32): k (hi - lo) / (n - 1) + lo misses hi at k = n - 1 for 3 and 100 modes
GRID_BANDS = [(0.8, 1.2), (0.3, 0.30000001), (1.0, 7.25), (0.03, 0.32)]


def drive(ens, h, n_times, epsilon=0.0):
    """E + eps*E' of a one-row ensemble at the times h n, on the integrator's drive path."""
    return phasor_sum(ens.band, ens.coefficients(epsilon), h, n_times)[0]


def single_mode(amplitude=1.0, omega=1.0, phase=0.0, spacing=1e-3):
    """One active mode plus a silent companion (an ensemble needs >= 2 modes)."""
    return ModeEnsemble(
        band=(omega, omega + spacing),
        amplitudes=np.array([amplitude, 0.0]),
        phases=np.array([[phase, 0.0]]),
    )


class TestSynthesis:
    def test_zero_spectrum_gives_zero_field(self):
        spec = SpectrumModel(psd=lambda w: np.zeros_like(w), band_lo=0.8, band_hi=1.2)
        ms = synthesize_ensemble(spec, 64, [3])
        assert np.all(ms.amplitudes == 0.0)
        assert np.all(drive(ms, ms.t_rec * 0.9 / 99, 100) == 0.0)

    def test_same_seed_is_bit_identical(self):
        spec = sed_drive_spectrum(EPS_CODATA)
        a = synthesize_ensemble(spec, 128, [99])
        b = synthesize_ensemble(spec, 128, [99])
        assert np.array_equal(a.phases, b.phases)
        assert np.array_equal(a.amplitudes, b.amplitudes)
        assert np.array_equal(a.omegas, b.omegas)

    def test_different_seeds_differ(self):
        spec = sed_drive_spectrum(EPS_CODATA)
        a = synthesize_ensemble(spec, 128, [1])
        b = synthesize_ensemble(spec, 128, [2])
        assert not np.array_equal(a.phases, b.phases)

    def test_construction_identity(self):
        spec = sed_drive_spectrum(EPS_CODATA)
        ms = synthesize_ensemble(spec, 256, [5])
        target = np.asarray(spec.psd(ms.omegas))
        d_omega = ms.omegas[1] - ms.omegas[0]
        assert np.max(np.abs(ms.amplitudes**2 / (2.0 * d_omega) / target - 1.0)) < 1e-12

    def test_parseval_time_average(self):
        # direct summation oracle vs long-time average over one recurrence
        spec = sed_drive_spectrum(EPS_CODATA)
        ms = synthesize_ensemble(spec, 400, [7])
        e = drive(ms, 0.5, int(ms.t_rec / 0.5))
        assert np.mean(e**2) == pytest.approx(np.sum(ms.amplitudes**2) / 2.0, rel=1e-2)

    def test_amplitude_scaling_is_quadratic_in_variance(self):
        spec = sed_drive_spectrum(EPS_CODATA)
        ms = synthesize_ensemble(spec, 64, [11])
        n = int(ms.t_rec / 0.7)
        base = drive(ms, 0.7, n)
        scaled = drive(dataclasses.replace(ms, amplitudes=3.0 * ms.amplitudes), 0.7, n)
        assert np.var(scaled) == pytest.approx(9.0 * np.var(base), rel=1e-12)

    def test_too_few_modes_rejected(self):
        spec = sed_drive_spectrum(EPS_CODATA)
        with pytest.raises(ValueError, match="n_modes"):
            synthesize_ensemble(spec, 1, [0])

    def test_nonpositive_band_rejected(self):
        with pytest.raises(ValueError, match="band"):
            SpectrumModel(psd=lambda w: w, band_lo=-0.1, band_hi=1.0)
        with pytest.raises(ValueError, match="band"):
            SpectrumModel(psd=lambda w: w, band_lo=1.0, band_hi=0.5)

    def test_negative_psd_rejected(self):
        spec = SpectrumModel(psd=lambda w: -np.ones_like(w), band_lo=0.5, band_hi=1.0)
        with pytest.raises(ValueError, match="non-negative"):
            synthesize_ensemble(spec, 16, [0])

    def test_child_seeds_deterministic(self):
        assert child_seeds(123, 5) == child_seeds(123, 5)
        assert len(set(child_seeds(123, 64))) == 64


class TestEnsemble:
    def test_phases_are_each_seeds_stream(self):
        seeds = child_seeds(2718, 5)
        ens = zpf.synthesize_ensemble(sed_drive_spectrum(EPS_CODATA), 300, seeds)
        assert ens.phases.shape == (5, 300)
        for row, seed in zip(ens.phases, seeds):
            expected = np.random.default_rng(seed).random(300) * (2.0 * math.pi)
            assert row.tobytes() == expected.tobytes()

    def test_band_is_a_row_of_the_ensemble(self):
        spec = sed_drive_spectrum(EPS_CODATA)
        ens = zpf.synthesize_ensemble(spec, 128, [7, 8])
        ms = synthesize_ensemble(spec, 128, [8])
        assert np.array_equal(ms.omegas, ens.omegas)
        assert np.array_equal(ms.amplitudes, ens.amplitudes)
        assert np.array_equal(ms.phases, ens.phases[1:])

    @pytest.mark.parametrize("n_modes", GRID_COUNTS)
    @pytest.mark.parametrize("band", GRID_BANDS)
    def test_frequency_prefix_is_the_grids(self, n_modes, band):
        # the recurrence time a run is checked against before synthesis is the
        # grid's, from its first two frequencies, bit for bit
        grid = zpf.mode_frequencies(band, n_modes)
        assert grid.tobytes() == np.linspace(band[0], band[1], n_modes).tobytes()
        assert zpf.recurrence_time(band, n_modes) == 2.0 * math.pi / (grid[1] - grid[0])

    @pytest.mark.parametrize("n_modes", GRID_COUNTS)
    @pytest.mark.parametrize("band", GRID_BANDS)
    def test_grid_is_carried_as_band_and_count(self, n_modes, band):
        # the step is the last frequency's distance from the first over K - 1,
        # and the recurrence time is the first step's
        ens = synthesize_ensemble(sed_drive_spectrum(EPS_CODATA, band), n_modes, [1])
        w = np.linspace(band[0], band[1], n_modes)
        assert ens.omegas.tobytes() == w.tobytes()
        assert ens.d_omega == (w[-1] - w[0]) / (n_modes - 1)
        assert ens.t_rec == 2.0 * math.pi / (w[1] - w[0])

    @pytest.mark.parametrize("epsilon", [0.0, EPS_CODATA, 0.09])
    def test_coefficients_mode_by_mode(self, epsilon):
        ens = zpf.synthesize_ensemble(sed_drive_spectrum(EPS_CODATA), 64, child_seeds(5, 3))
        c = ens.coefficients(epsilon)
        assert c.shape == (3, 64) and c.dtype == complex
        for r in range(3):
            for k in range(64):
                a, w, phi = ens.amplitudes[k], ens.omegas[k], ens.phases[r, k]
                boost = math.sqrt(1.0 + (epsilon * w) ** 2)
                arg = phi + math.atan(epsilon * w)
                ref = complex(a * boost * math.cos(arg), a * boost * math.sin(arg))
                # the kernel forms e^{i theta} from tan(theta / 2), not libm's cos and sin
                assert abs(c[r, k] - ref) <= 4 * 2**-52 * abs(ref)


class TestCoefficientKernel:
    """ModeEnsemble.coefficients against references that share no code with it."""

    def test_unit_phasor_matches_libm(self):
        # at eps = 0 and unit amplitudes c is e^{i phi}; phi spans every phase
        # plus the shift atan(eps w) at eps 0.1 and the default band's top, 1.2
        top = 2.0 * math.pi + math.atan(0.1 * 1.2)
        edges = [0.0, math.pi / 2.0, math.nextafter(math.pi, -math.inf), math.pi,
                 math.nextafter(math.pi, math.inf), 1.5 * math.pi,
                 math.nextafter(2.0 * math.pi, 0.0)]
        theta = np.concatenate((np.linspace(0.0, top, 100_003), edges))
        ens = ModeEnsemble(band=(0.8, 1.2), amplitudes=np.ones(len(theta)),
                           phases=theta[None, :])
        c = ens.coefficients()[0]
        ref = np.array([complex(math.cos(x), math.sin(x)) for x in theta])
        assert np.max(np.abs(c - ref)) <= 3 * 2**-52
        assert np.max(np.abs(np.abs(c) - 1.0)) <= 3 * 2**-52

    @pytest.mark.parametrize("n_real, n_modes", [
        # blocks of _SCRATCH // (2 K) rows: R not a multiple of them, then one row per block
        (2 * (zpf._SCRATCH // (2 * 300)) + 3, 300),
        (3, zpf._SCRATCH + 5),
    ], ids=["partial-last-block", "row-past-scratch"])
    def test_blocks_are_independent(self, n_real, n_modes):
        ens = synthesize_ensemble(sed_drive_spectrum(0.05), n_modes, child_seeds(9, n_real))
        c = ens.coefficients(0.05)
        for r in range(n_real):
            row = dataclasses.replace(ens, phases=ens.phases[r:r + 1])
            assert c[r].tobytes() == row.coefficients(0.05)[0].tobytes()

    def test_memory_is_the_result_plus_one_scratch(self):
        # beyond the coefficients, eight rows of 24 bytes per mode and the
        # scratch: 2^20 bytes
        import tracemalloc

        ens = synthesize_ensemble(sed_drive_spectrum(0.05), 4096, child_seeds(3, 64))
        tracemalloc.start()
        try:
            c = ens.coefficients(0.05)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        allowed = 8 * 24 * 4096 + 8 * zpf._SCRATCH
        assert peak - c.nbytes <= allowed


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
        spec = sed_drive_spectrum(EPS_CODATA)
        ms = synthesize_ensemble(spec, 32, [4])
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
        spec = sed_drive_spectrum(EPS_CODATA)
        ms = synthesize_ensemble(spec, 2000, [13])
        e = drive(ms, 1.0, int(ms.t_rec / 1.0))
        assert np.var(e) == pytest.approx(np.sum(ms.amplitudes**2) / 2.0, rel=1e-2)


def trig_double_sum(omegas, cos_coeff, sin_coeff, times):
    """sum_k [cc_k cos(w_k t) + sc_k sin(w_k t)], one mode at a time."""
    total = 0.0
    for w, cc, sc in zip(omegas, cos_coeff, sin_coeff):
        total = total + np.multiply.outer(np.cos(w * times), cc) \
            + np.multiply.outer(np.sin(w * times), sc)
    return total


BAND = (0.8, 1.2)


class TestModeSumOracle:
    """phasor_sum against an explicit double sum that shares no code with it.

    The double sum is the cosine-and-sine form sum_k [cc_k cos(w_k t) + sc_k sin(w_k t)],
    which is Re sum_k c_k e^{i w_k t} with c_k = cc_k - i sc_k.
    """

    @pytest.mark.parametrize("n_modes, h, n_times", [
        (64, 0.05, 300),
        # to t = 248, where the phases w_k t are hundreds of radians
        (64, 0.37, 672),
        # crosses a block boundary; not a multiple of the block length
        (64, 0.11, zpf._BLOCK + 37),
        # 2000 modes, up to 0.99 of the recurrence time 2*pi/d_omega
        (2000, 2.0, 15545),
    ], ids=["grid", "offset-grid", "multi-block", "2000-modes-near-t_rec"])
    @pytest.mark.parametrize("n_real", [None, 3])
    def test_matches_double_sum(self, n_modes, h, n_times, n_real):
        omegas = np.linspace(BAND[0], BAND[1], n_modes)
        times = h * np.arange(n_times)
        if n_modes == 2000:
            assert 0.99 * zpf.recurrence_time(BAND, n_modes) <= times[-1]
        shape = (n_modes,) if n_real is None else (n_modes, n_real)
        rng = np.random.default_rng(17)
        cos_coeff = rng.normal(size=shape)
        sin_coeff = rng.normal(size=shape)
        expected = trig_double_sum(omegas, cos_coeff, sin_coeff, times)
        got = phasor_sum(BAND, np.transpose(cos_coeff - 1j * sin_coeff), h, n_times).T
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
        ms = synthesize_ensemble(spec, 512, [21])
        dt = 2.0 * math.pi / 8.0
        omega, psd = estimate_psd(drive(ms, dt, int(ms.t_rec / dt)), dt, 4096)
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
            ms = synthesize_ensemble(spec, 2000, [seed])
            omega, psd = estimate_psd(drive(ms, dt, int(ms.t_rec / dt)), dt, 512)
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


class TestCsvWriter:
    """``zpf._write_csv`` writes the text of a per-value ``repr`` row loop.

    Files of more than one chunk are formatted by this process and one forked
    helper. Every case must leave no child process behind.
    """

    C = zpf._CSV_CHUNK

    @pytest.fixture(autouse=True)
    def no_child_left(self):
        def timeout(signum, frame):
            raise TimeoutError("the CSV writer hung")

        previous = signal.signal(signal.SIGALRM, timeout)
        signal.alarm(60)
        yield
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.fixture
    def forks(self, monkeypatch):
        """Count the ``os.fork`` calls the writer makes."""
        calls = []
        real_fork = os.fork

        def fork():
            calls.append(1)
            return real_fork()

        monkeypatch.setattr(os, "fork", fork)
        return calls

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
    def test_rows_across_a_chunk_boundary(self, tmp_path, forks, n_rows):
        a, b = self.columns(n_rows)
        path = tmp_path / "rows.csv"
        zpf._write_csv(str(path), "a,b", (a, b))
        assert path.read_text(encoding="utf-8") == self.reference("a,b", a, b)
        assert len(forks) == (n_rows > self.C)  # a helper for files of two chunks or more

    @pytest.mark.parametrize("n_rows", [2 * C, 3 * C + 1])
    def test_same_bytes_without_fork(self, tmp_path, monkeypatch, n_rows):
        monkeypatch.delattr(os, "fork")
        a, b = self.columns(n_rows)
        path = tmp_path / "rows.csv"
        zpf._write_csv(str(path), "a,b", (a, b))
        assert path.read_text(encoding="utf-8") == self.reference("a,b", a, b)

    def test_helper_that_exits_at_once_raises(self, tmp_path, monkeypatch):
        real_fork = os.fork

        def fork():
            pid = real_fork()
            if pid == 0:
                os._exit(1)
            return pid

        monkeypatch.setattr(os, "fork", fork)
        with pytest.raises(OSError, match="short read"):
            zpf._write_csv(str(tmp_path / "rows.csv"), "a,b", self.columns(3 * self.C + 1))

    def test_helper_exit_status_is_checked(self, tmp_path, monkeypatch):
        # the helper sends every chunk, then exits with status 3
        real_exit = os._exit
        monkeypatch.setattr(os, "_exit", lambda code: real_exit(3))
        with pytest.raises(OSError, match="wait status"):
            zpf._write_csv(str(tmp_path / "rows.csv"), "a,b", self.columns(2 * self.C + 1))

    def test_failed_write_does_not_hang(self, tmp_path, monkeypatch):
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
        # the helper's second chunk, of ~160 KB, overfills the pipe: the helper is
        # blocked in a write, or about to be, when the writer gives up
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

        sim = sed_drive_spectrum(dc.epsilon)
        w = np.linspace(0.5, 2.0, 31)
        assert np.allclose(gain**2 * field_psd(w), dc.epsilon * w**3 / math.pi,
                           rtol=1e-12, atol=0.0)
        assert np.allclose(sim.psd(w), dc.epsilon * w**3 / math.pi, rtol=1e-15, atol=0.0)
        phys = synthesize_ensemble(SpectrumModel(field_psd, 0.8, 1.2), 64, [17])
        drive_modes = synthesize_ensemble(sim, 64, [17])
        assert np.allclose(gain * phys.amplitudes, drive_modes.amplitudes,
                           rtol=1e-10, atol=0.0)
        assert np.array_equal(phys.phases, drive_modes.phases)


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
