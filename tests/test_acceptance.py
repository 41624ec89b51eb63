"""End-to-end acceptance criteria.

Each test prints one PASS/FAIL line so the suite can be skimmed from the
pytest -s output. Slow ensemble statistics (criterion 5) run at full size;
the whole module takes about 4 seconds on 2 cores.
"""

import contextlib
import json
import math

import numpy as np
import pytest
from scipy import integrate

from zitter import (
    DiracFreeParticle,
    FastMotionParams,
    analysis,
    child_seeds,
    codata,
    derive_constants,
    dirac_position_amplitude,
    dirac_velocity,
    dynamics,
    sed_psd,
    synthesize_ensemble,
)
from zitter.cli import main
from zitter.scenarios import run_scenario, validate_config

FC = codata()
DC = derive_constants(FC)
DT = 2.0 * math.pi / 200.0


@contextlib.contextmanager
def criterion(number, label):
    try:
        yield
    except Exception:
        print(f"[FAIL] criterion {number}: {label}")
        raise
    print(f"[PASS] criterion {number}: {label}")


def test_criterion_1_constants_chain():
    with criterion(1, "constants chain T_tr, T_tr/T_C, T_C"):
        assert DC.T_tr == pytest.approx(0.53e-18, rel=0.01)
        assert DC.T_tr / DC.T_C == pytest.approx(65.4, rel=0.005)
        assert DC.T_C == pytest.approx(8.1e-21, rel=0.005)


def test_criterion_2_perturbative_roots():
    with criterion(2, "perturbative root agreement and Vieta residuals"):
        for eps in (1e-3, DC.epsilon, 1e-2):
            cr = dynamics.characteristic_roots(eps)
            s = max(cr.physical_pair, key=lambda r: r.imag)
            assert abs(s - complex(-eps / 2.0, 1.0)) <= 5.0 * eps**2
            roots = [*cr.physical_pair, complex(cr.runaway)]
            inv = 1.0 / eps
            assert abs(sum(roots) - inv) / inv < 1e-9
            assert abs(roots[0] * roots[1] + roots[0] * roots[2]
                       + roots[1] * roots[2]) / inv < 1e-9
            assert abs(roots[0] * roots[1] * roots[2] - inv) / inv < 1e-9


def test_criterion_3_transient_decay():
    with criterion(3, "transient decay rate, carrier, recovered T_tr"):
        eps = DC.epsilon
        traj = dynamics.integrate_transient(FastMotionParams(epsilon=eps), DT,
                                            6.0 / eps)
        fit = analysis.fit_decay_rate(traj, (1.0 / eps, 6.0 / eps))
        assert fit.decay_rate == pytest.approx(eps / 2.0, rel=0.01)
        assert fit.carrier_freq == pytest.approx(1.0, rel=0.005)
        t_est = analysis.transition_time_from_fit(fit, DC)
        assert t_est == pytest.approx(2.0 / (DC.tau * DC.omega_C**2), rel=0.02)


def test_criterion_4_epsilon_scaling_law():
    with criterion(4, "decay-rate-vs-epsilon regression slope 1/2"):
        epsilons = np.array([0.001, 0.002, 0.005, 0.01, 0.02])
        rates = []
        for eps in epsilons:
            traj = dynamics.integrate_transient(FastMotionParams(epsilon=eps), DT,
                                                6.0 / eps)
            rates.append(analysis.fit_decay_rate(traj, (1.0 / eps, 6.0 / eps))
                         .decay_rate)
        slope, intercept = np.polyfit(epsilons, rates, 1)
        fitted = slope * epsilons + intercept
        ss_tot = np.sum((rates - np.mean(rates)) ** 2)
        r_squared = 1.0 - np.sum((rates - fitted) ** 2) / ss_tot
        assert slope == pytest.approx(0.5, rel=0.01)
        assert r_squared >= 0.999


def test_criterion_5_stationary_amplitude():
    with criterion(5, "stationary <z^2> = 0.5 lambda_bar^2 (100 realizations)"):
        eps = DC.epsilon
        band = (0.8, 1.2)

        # independent oracle first: band-limited Lorentzian response integral
        def integrand(w):
            drive_psd = sed_psd(eps, w) * (1.0 + (eps * w) ** 2)
            return drive_psd / ((1.0 - w**2) ** 2 + (eps * w) ** 2)

        oracle, err = integrate.quad(integrand, band[0], band[1],
                                     points=[1.0], limit=400)
        assert err < 1e-8
        assert oracle == pytest.approx(0.5, rel=0.02)  # band carries ~99% of the line

        drives = synthesize_ensemble(eps, band, 2000, child_seeds(20260823, 100))
        t_max = 13.0 / eps
        stats = analysis.ensemble_stats(dynamics.stationary_mean_z2(
            eps, drives, DT, t_max, (3.0 / eps) / t_max))
        assert stats.mean_z2 == pytest.approx(0.5, rel=0.10)
        assert stats.mean_z2 == pytest.approx(oracle, rel=0.05)
        # physical statement: RMS displacement is of the Compton-wavelength scale
        rms_cm = math.sqrt(stats.mean_z2) * DC.lambda_C_bar
        assert 0.1 * DC.lambda_C_bar < rms_cm < DC.lambda_C_bar


def test_criterion_5_at_1000_realizations():
    with criterion(5, "stationary <z^2> within 6 stderr of the band's expectation "
                      "(1000 realizations)"):
        # a library call; the CLI admits the same 1000-realization run too
        # (test_cli's stationary-1000 case)
        eps = DC.epsilon
        drives = synthesize_ensemble(eps, (0.8, 1.2), 2000, child_seeds(20260823, 1000))
        # sum_k A_k^2 (1 + eps^2 w_k^2) |H(w_k)|^2 / 2: the modes' own share of
        # <z^2>, below 0.5 by the line's wings outside the band
        w = drives.omegas
        expected = float(np.sum(drives.amplitudes**2 * (1.0 + (eps * w) ** 2)
                                / np.abs(1.0 - w**2 + 1j * eps * w) ** 2) / 2.0)
        assert expected == pytest.approx(0.4963, abs=5e-5)
        t_max = 13.0 / eps
        stats = analysis.ensemble_stats(dynamics.stationary_mean_z2(
            eps, drives, DT, t_max, (3.0 / eps) / t_max))
        assert stats.n_realizations == 1000
        assert abs(stats.mean_z2 - expected) <= 6.0 * stats.stderr
        assert stats.mean_z2 == pytest.approx(0.5, rel=0.10)


def test_criterion_6_dirac_solution():
    with criterion(6, "Dirac |v| = c at p = 0 and rest amplitude lambda_bar/2"):
        dp = DiracFreeParticle(E=FC.m * FC.c**2, p=0.0, v0=FC.c, fc=FC)
        period = math.pi * FC.hbar / dp.E
        t = np.linspace(0.0, 4.0 * period, 1000)
        v = dirac_velocity(dp, t)
        assert np.max(np.abs(np.abs(v) / FC.c - 1.0)) < 1e-12

        amp = dirac_position_amplitude(dp)
        assert amp == pytest.approx(DC.lambda_C_bar / 2.0, rel=1e-12)

        # numeric quadrature of the oscillatory velocity over half a period
        def osc(t, part):
            return getattr(dirac_velocity(dp, t), part)

        swing_re, _ = integrate.quad(osc, 0.0, period / 2.0, args=("real",), limit=200)
        swing_im, _ = integrate.quad(osc, 0.0, period / 2.0, args=("imag",), limit=200)
        assert math.hypot(swing_re, swing_im) == pytest.approx(2.0 * amp, rel=1e-6)


def test_criterion_7_field_synthesis_fidelity(tmp_path):
    with criterion(7, "in-band PSD within 5% RMS, Parseval within 1%"):
        sc = validate_config({"scenario": "psd-check", "seed": 424242})
        payload = run_scenario(sc, str(tmp_path))
        assert payload["in_band_rms_rel_dev"] < 0.05
        assert payload["parseval_max_rel_err"] < 0.01


@pytest.mark.parametrize("scenario", ["transient", "psd-check", "roots"])
def test_criterion_8_determinism(tmp_path, scenario):
    with criterion(8, f"byte-identical reruns of scenario {scenario!r}"):
        outputs = []
        for name in ("a", "b"):
            out = tmp_path / name
            rc = main(["run", "--scenario", scenario, "--seed", "31415",
                       "--out", str(out)])
            assert rc == 0
            files = sorted(p.name for p in out.iterdir())
            outputs.append({f: (out / f).read_bytes() for f in files})
        assert outputs[0].keys() == outputs[1].keys()
        for name in outputs[0]:
            assert outputs[0][name] == outputs[1][name], name
