"""Named, seeded, fully parameterized experiment runs.

Each run resolves its defaults against the loaded constants, passes one cost
table before it starts, records every effective parameter (plus the seed) in
``manifest.json``, and writes machine-readable CSV/JSON outputs. A manifest is
itself a valid config, so any run can be reproduced from its manifest alone.
"""

from __future__ import annotations

import json
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import analysis, constants, dynamics, zpf
from .errors import ConfigError, NumericalInstabilityError

_DEFAULT_DT = 2.0 * math.pi / 200.0

#: most bytes held, bytes written and microseconds of work that ``_cost`` admits
_BUDGET = (400e6, 400e6, 30e6)


@dataclass(frozen=True)
class Scenario:
    name: str
    seed: int
    params: dict


# ---------------------------------------------------------------------------
# config validation

#: largest integer parameter: counts past it are not exact as doubles, and
#: the cost table computes in doubles
_MAX_INT = 2**53


def _finite(value) -> bool:
    """Whether ``value`` is a finite double as an int or float; 10**400 and booleans are not."""
    try:
        return (isinstance(value, (int, float)) and not isinstance(value, bool)
                and math.isfinite(float(value)))
    except OverflowError:
        return False


def _positive(key, value):
    if not (_finite(value) and value > 0):
        raise ConfigError(f"{key} must be a positive finite number, got {value!r}")
    return float(value)


def _epsilon(key, value):
    v = _positive(key, value)
    # characteristic_roots cannot classify the cubic's roots below ~7e-24
    if not 1e-20 <= v < 0.1:
        raise ConfigError(f"{key} must lie in [1e-20, 0.1) (perturbative guard), got {value!r}")
    return v


def _dt(key, value):
    v = _positive(key, value)
    if v > dynamics.MAX_DT:
        raise ConfigError(
            f"{key} must be <= 2*pi/40 ~= {dynamics.MAX_DT:.6g} so that every "
            f"carrier period is resolved by at least 40 steps, got {value!r}"
        )
    return v


def _int_at_least(minimum):
    def check(key, value):
        if not (isinstance(value, int) and not isinstance(value, bool)
                and minimum <= value <= _MAX_INT):
            raise ConfigError(f"{key} must be an integer in [{minimum}, 2^53], got {value!r}")
        return value
    return check


def _epsilon_list(key, value):
    if not (isinstance(value, list) and len(value) >= 1):
        raise ConfigError(f"{key} must be a non-empty list of epsilon values, got {value!r}")
    return [_epsilon(f"{key}[{i}]", v) for i, v in enumerate(value)]


def _sweep_epsilons(key, value):
    eps = _epsilon_list(key, value)
    if len(set(eps)) < 2:
        raise ConfigError(
            f"{key} needs at least two distinct epsilon values to fit a slope, got {value!r}"
        )
    return eps


def _band(key, value):
    if not (isinstance(value, list) and len(value) == 2):
        raise ConfigError(f"{key} must be a [lo, hi] pair, got {value!r}")
    lo = _positive(f"{key}[0]", value[0])
    hi = _positive(f"{key}[1]", value[1])
    if not lo < hi:
        raise ConfigError(f"{key} must satisfy 0 < lo < hi, got {value!r}")
    return [lo, hi]


def _window(key, value):
    if not (isinstance(value, list) and len(value) == 2):
        raise ConfigError(f"{key} must be a [start, end] pair, got {value!r}")
    a, b = _number(f"{key}[0]", value[0]), _number(f"{key}[1]", value[1])
    if not (0.0 <= a < b):
        raise ConfigError(f"{key} must satisfy 0 <= start < end, got {value!r}")
    return [a, b]


def _fraction(key, value):
    if not (_finite(value) and 0.0 <= value < 1.0):
        raise ConfigError(f"{key} must lie in [0, 1), got {value!r}")
    return float(value)


def _number(key, value):
    if not _finite(value):
        raise ConfigError(f"{key} must be a finite number, got {value!r}")
    return float(value)


def _light_speed_fraction(key, value):
    v = _number(key, value)
    if abs(v) > 1.0:
        raise ConfigError(f"{key} must lie in [-1, 1] (|v0| <= c), got {value!r}")
    return v


def _rest_energy_multiple(key, value):
    v = _number(key, value)
    if v < 1.0:
        raise ConfigError(f"{key} must be >= 1 (E >= m c^2), got {value!r}")
    return v


def _path_or_none(key, value):
    if value is not None and not isinstance(value, str):
        raise ConfigError(f"{key} must be a path string or null, got {value!r}")
    return value


def _nonnegative(key, value):
    v = _number(key, value)
    if v < 0:
        raise ConfigError(f"{key} must be >= 0, got {value!r}")
    return v


# key -> (validator, default); None defaults are resolved at run time against
# the loaded constants and recorded in the manifest
_SCHEMAS: dict[str, dict] = {
    "constants": {
        "constants_file": (_path_or_none, None),
    },
    "roots": {
        "constants_file": (_path_or_none, None),
        "epsilons": (_epsilon_list, None),
    },
    "transient": {
        "constants_file": (_path_or_none, None),
        "epsilon": (_epsilon, None),
        "dt": (_dt, _DEFAULT_DT),
        "t_max": (_positive, None),
        "fit_window": (_window, None),
        "z0_re": (_number, 0.5),
        "z0_im": (_number, 0.0),
    },
    "stationary": {
        "constants_file": (_path_or_none, None),
        "epsilon": (_epsilon, None),
        "dt": (_dt, _DEFAULT_DT),
        "t_max": (_positive, None),
        "n_modes": (_int_at_least(2), 2000),
        "band": (_band, [0.8, 1.2]),
        "n_realizations": (_int_at_least(2), 100),
        "discard_time": (_nonnegative, None),
    },
    "dirac": {
        "constants_file": (_path_or_none, None),
        "energy_over_mc2": (_rest_energy_multiple, 1.0),
        "momentum": (_number, 0.0),
        "v0_over_c": (_light_speed_fraction, 1.0),
        "n_samples": (_int_at_least(2), 256),
        "n_periods": (_positive, 2.0),
    },
    "sweep-epsilon": {
        "constants_file": (_path_or_none, None),
        "epsilons": (_sweep_epsilons, [0.001, 0.002, 0.005, 0.01, 0.02]),
        "dt": (_dt, _DEFAULT_DT),
    },
    "psd-check": {
        "constants_file": (_path_or_none, None),
        "epsilon": (_epsilon, None),
        "n_modes": (_int_at_least(2), 2000),
        "band": (_band, [0.8, 1.2]),
        "n_realizations": (_int_at_least(1), 8),
        "sample_dt": (_positive, 2.0 * math.pi / 6.0),
        "segment_len": (_int_at_least(16), 512),
        "overlap": (_fraction, 0.5),
    },
}


def validate_config(raw: dict) -> Scenario:
    """Validate a config mapping and fill documented defaults."""
    if not isinstance(raw, dict):
        raise ConfigError(f"config must be a JSON object, got {type(raw).__name__}")
    unknown = [k for k in raw if k not in ("scenario", "seed", "params")]
    if unknown:
        raise ConfigError(f"unknown top-level config keys: {unknown}")
    name = raw.get("scenario")
    if name not in SCENARIO_NAMES:
        raise ConfigError(f"unknown scenario {name!r}; expected one of {list(SCENARIO_NAMES)}")
    seed = raw.get("seed", 0)
    if not (isinstance(seed, int) and not isinstance(seed, bool) and 0 <= seed < 2**64):
        raise ConfigError(f"seed must be an integer in [0, 2^64), got {seed!r}")
    schema = _SCHEMAS[name]
    supplied = raw.get("params", {})
    if not isinstance(supplied, dict):
        raise ConfigError(f"params must be a JSON object, got {supplied!r}")
    unknown = [k for k in supplied if k not in schema]
    if unknown:
        raise ConfigError(
            f"unknown parameter keys for scenario {name!r}: {unknown}; "
            f"permitted: {sorted(schema)}"
        )
    params = {}
    for key, (validate, default) in schema.items():
        if key in supplied and supplied[key] is not None:
            params[key] = validate(key, supplied[key])
        else:
            params[key] = default
    return Scenario(name=name, seed=seed, params=params)


# ---------------------------------------------------------------------------
# output helpers

def _write_json(path: str, obj) -> None:
    """Write strict JSON; a NaN or infinite value is a numerical failure."""
    try:
        text = json.dumps(obj, sort_keys=True, indent=2, allow_nan=False)
    except ValueError as exc:
        raise NumericalInstabilityError(
            f"{os.path.basename(path)} would hold a non-finite value: {exc}") from exc
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


def _load_chain(params):
    path = params.get("constants_file")
    if path is None:
        fc = constants.codata()
        return fc, constants.derive_constants(fc)
    # a missing, unreadable, non-JSON or incomplete file, a value that is not a
    # positive finite number, or a chain that overflows or divides by zero
    try:
        fc = constants.load_constants(path)
        return fc, constants.derive_constants(fc)
    except (OSError, ValueError, TypeError, OverflowError, ZeroDivisionError) as exc:
        raise ConfigError(f"constants_file {path!r} is unusable: {exc}") from exc


def _resolve(name: str, params: dict, dc) -> dict:
    """The params with the run-time defaults filled in, as the manifest records them.

    An epsilon not given is the one the loaded constants imply, held to the
    range a given one must lie in; run lengths are multiples of 1/epsilon.
    """
    p = dict(params)
    key = "epsilons" if name == "roots" else "epsilon"
    if key in p and p[key] is None:
        eps = _epsilon("epsilon implied by constants_file", dc.epsilon)
        p[key] = [1e-3, eps, 1e-2] if name == "roots" else eps
    eps = p.get("epsilon")
    defaults = {}
    if name == "transient":
        defaults = {"t_max": 6.0 / eps, "fit_window": [1.0 / eps, 6.0 / eps]}
    elif name == "stationary":
        defaults = {"t_max": 13.0 / eps, "discard_time": 3.0 / eps}
    p.update((k, v) for k, v in defaults.items() if p[k] is None)
    return p


def _cost(name: str, p: dict) -> tuple[float, float, float]:
    """Bytes held, bytes written and microseconds of work of a run with resolved params ``p``.

    Each is a count of what the run does times a charge per unit, as
    README's cost table lists and explains them. Raises ConfigError, naming
    the params that set the charge, when one passes its ``_BUDGET``.
    """
    held, written, work, keys = 5e6, 32e3, 0.0, None
    if name == "roots":
        keys, n = "epsilons", len(p["epsilons"])
        held, written, work = held + 3400 * n, written + 700 * n, work + 80.0 * n
    elif name == "transient":
        keys, dt, (start, end) = "t_max, dt and fit_window", p["dt"], p["fit_window"]
        steps = p["t_max"] / dt
        fitted = max(0.0, min(end, p["t_max"]) - start) / dt
        held += 40 * steps + 80 * fitted
        written += 75 * steps
        work += 3.0 * steps + 0.1 * fitted
    elif name == "sweep-epsilon":
        # one run is held at a time, and 5/6 of its steps are fitted
        keys, n = "epsilons and dt", len(p["epsilons"])
        steps = [6.0 / eps / p["dt"] for eps in p["epsilons"]]
        held += (40 + 80 * 5 / 6) * max(steps) + 200 * n
        written += 110 * n
        work += (0.2 + 0.1 * 5 / 6) * sum(steps) + 20.0 * n
    elif name == "dirac":
        keys, n = "n_samples", p["n_samples"]
        held, written, work = held + 240 * n, written + 100 * n, work + 5.2 * n
    elif name == "stationary":
        keys, r, k = "n_modes and n_realizations", p["n_realizations"], p["n_modes"]
        held += 420 * r + 24 * r * k + 300 * k + 2.4e6
        work += 28.0 * r + 0.11 * r * k + 1.2 * k
    elif name == "psd-check":
        keys = "n_modes, n_realizations, band, sample_dt, segment_len and overlap"
        r, k, seg = p["n_realizations"], p["n_modes"], p["segment_len"]
        # the samples of one period, n = _fft_len(ceil(N)) <= 1.25 (N + 1)
        samples = 1.25 * (_period_samples(p) + 1.0)
        welch = (max(samples - seg, 0.0) / (seg - int(p["overlap"] * seg)) + 1) * seg
        held += r * (420 + 24 * k + 8 * samples) + 32 * samples + 16 * welch
        written += 50 * (seg // 2 + 1)
        work += r * (28.0 + 0.11 * k + 0.06 * samples + 0.014 * welch) + 0.06 * samples
    if not (held <= _BUDGET[0] and written <= _BUDGET[1] and work <= _BUDGET[2]):
        raise ConfigError(
            f"{name} would hold {held / 1e6:.4g} MB, write {written / 1e6:.4g} MB and "
            f"take {work / 1e6:.4g} s of work, over the budgets of {_BUDGET[0] / 1e6:.0f} MB, "
            f"{_BUDGET[1] / 1e6:.0f} MB and {_BUDGET[2] / 1e6:.0f} s; its size is set by {keys}")
    return held, written, work


# ---------------------------------------------------------------------------
# scenario bodies

def _run_constants(sc, out, fc, dc, params):
    payload = {
        "e_statC": fc.e,
        "m_g": fc.m,
        "c_cm_per_s": fc.c,
        "hbar_erg_s": fc.hbar,
        "tau_s": dc.tau,
        "omega_C_rad_per_s": dc.omega_C,
        "alpha": dc.alpha,
        "lambda_C_bar_cm": dc.lambda_C_bar,
        "lambda_C_cm": dc.lambda_C,
        "T_C_s": dc.T_C,
        "epsilon": dc.epsilon,
        "Gamma_rad_per_s": dc.Gamma,
        "T_tr_s": dc.T_tr,
        "T_tr_over_T_C": dc.T_tr / dc.T_C,
    }
    _write_json(os.path.join(out, "constants.json"), payload)
    return payload


def _run_roots(sc, out, fc, dc, params):
    epsilons = params["epsilons"]
    rows, records = [], []
    for eps in epsilons:
        cr = dynamics.characteristic_roots(eps)
        s_phys = cr.physical_pair[0]
        s_pert = cr.perturbative_pair[0]
        all_roots = [cr.physical_pair[0], cr.physical_pair[1], complex(cr.runaway)]
        inv_eps = 1.0 / eps
        vieta = max(
            abs(sum(all_roots) - inv_eps) / inv_eps,
            abs(all_roots[0] * all_roots[1] + all_roots[0] * all_roots[2]
                + all_roots[1] * all_roots[2]) / inv_eps,
            abs(all_roots[0] * all_roots[1] * all_roots[2] - inv_eps) / inv_eps,
        )
        rows.append((eps, s_phys.real, s_phys.imag, s_pert.real, s_pert.imag,
                     abs(s_phys - s_pert), cr.runaway, vieta))
        records.append({
            "epsilon": eps,
            "physical_root": [s_phys.real, s_phys.imag],
            "perturbative_root": [s_pert.real, s_pert.imag],
            "abs_difference": abs(s_phys - s_pert),
            "bound_5_eps_sq": 5.0 * eps**2,
            "runaway": cr.runaway,
            "vieta_max_rel_residual": vieta,
        })
    zpf._write_csv(
        os.path.join(out, "roots.csv"),
        "epsilon,re_physical,im_physical,re_perturbative,im_perturbative,"
        "abs_diff,runaway,vieta_max_rel_residual",
        zip(*rows),
    )
    summary = {"roots": records}
    _write_json(os.path.join(out, "roots.json"), summary)
    return summary


def _run_transient(sc, out, fc, dc, params):
    eps, t_max, window = params["epsilon"], params["t_max"], params["fit_window"]
    if window[1] > t_max:
        raise ConfigError(f"fit_window {window} must end by t_max {t_max:.6g}")
    span = analysis.min_fit_span(params["dt"])
    if window[1] - window[0] < span:
        raise ConfigError(f"fit_window {window} must span at least {span:.6g} to hold "
                          "the two zero crossings of the carrier that the fit needs")
    if params["z0_re"] == params["z0_im"] == 0.0:
        raise ConfigError("z0_re and z0_im are both 0: the transient is identically "
                          "zero and has no decay to fit")
    fm = dynamics.FastMotionParams(epsilon=eps,
                                   z0=complex(params["z0_re"], params["z0_im"]))
    if not (math.isfinite(fm.initial_position) and math.isfinite(fm.initial_velocity)):
        raise ConfigError(f"z0_re and z0_im give a non-finite initial state, z = "
                          f"{fm.initial_position!r} and zdot = {fm.initial_velocity!r}")
    traj = dynamics.integrate_transient(fm, params["dt"], t_max)
    # fitted before anything is written: a run the fit refuses leaves no file
    fit = analysis.fit_decay_rate(traj, (window[0], window[1]))
    dynamics.trajectory_to_csv(traj, os.path.join(out, "trajectory.csv"))
    _write_json(os.path.join(out, "trajectory_meta.json"), {
        "time_unit_s": 1.0 / dc.omega_C, "length_unit_cm": dc.lambda_C_bar,
        "dt": params["dt"], "csv_stride": dynamics.csv_stride(params["dt"]),
        "epsilon": eps, "integrator": "rk4", "seed": None})
    t_est = analysis.transition_time_from_fit(fit, dc)
    payload = {
        "decay_rate": fit.decay_rate,
        "carrier_freq": fit.carrier_freq,
        "r_squared": fit.r_squared,
        "window": list(fit.window),
        "low_confidence": fit.low_confidence,
        "decay_over_half_epsilon": fit.decay_rate / (eps / 2.0),
        "T_est_s": t_est,
        "T_tr_s": dc.T_tr,
        "T_est_over_T_tr": t_est / dc.T_tr,
    }
    _write_json(os.path.join(out, "fit.json"), payload)
    return payload


def _run_stationary(sc, out, fc, dc, params):
    eps, t_max, discard_time = params["epsilon"], params["t_max"], params["discard_time"]
    if discard_time >= t_max:
        raise ConfigError(f"discard_time {discard_time} must be below t_max {t_max}")
    # the drive horizon check of dynamics.stationary_mean_z2, made before
    # synthesis on the grid synthesis will build. A mode spacing of more than
    # 2 ulp(hi) keeps every frequency of that grid distinct
    band, n_modes = params["band"], params["n_modes"]
    d_omega = zpf.mode_step(band, n_modes)
    if not d_omega > 2.0 * math.ulp(band[1]):
        raise ConfigError(f"band {band} is too narrow for n_modes {n_modes} "
                          "distinct equally spaced frequencies")
    t_rec = 2.0 * math.pi / d_omega
    t_end = params["dt"] * dynamics.step_count(params["dt"], t_max)
    if t_end >= t_rec:
        raise ConfigError(
            f"t_max {t_max:.6g} reaches the recurrence time t_rec = {t_rec:.6g} of "
            f"n_modes {params['n_modes']} over the band {params['band']}; "
            "raise n_modes or lower t_max"
        )
    drives = zpf.synthesize_ensemble(eps, band, n_modes,
                                     zpf.child_seeds(sc.seed, params["n_realizations"]))
    stats = analysis.ensemble_stats(dynamics.stationary_mean_z2(
        eps, drives, params["dt"], t_max, discard_time / t_max))
    payload = {
        "n_realizations": stats.n_realizations,
        "mean_z2": stats.mean_z2,
        "stderr": stats.stderr,
        "target_half": 0.5,
        "mean_z2_over_half": stats.mean_z2 / 0.5,
        "discard_time": discard_time,
        "t_max": t_max,
        "epsilon": eps,
        "mean_z2_cm2": stats.mean_z2 * dc.lambda_C_bar**2,
        "rk4_transfer_max_rel_err": dynamics.rk4_transfer_max_rel_err(
            eps, params["dt"], drives.omegas),
    }
    _write_json(os.path.join(out, "ensemble.json"), payload)
    return payload


def _run_dirac(sc, out, fc, dc, params):
    energy = params["energy_over_mc2"] * fc.m * fc.c**2
    dp = dynamics.DiracFreeParticle(E=energy, p=params["momentum"],
                                    v0=params["v0_over_c"] * fc.c, fc=fc)
    period = math.pi * fc.hbar / energy
    sample_step = params["n_periods"] * period / (params["n_samples"] - 1)
    # a subnormal time keeps only a few significant bits: the phases 2 E t / hbar go wrong
    if not min(period, sample_step) >= sys.float_info.min:
        raise ConfigError(
            f"energy_over_mc2 {params['energy_over_mc2']!r}, n_periods "
            f"{params['n_periods']!r} and n_samples {params['n_samples']!r} give an "
            f"oscillation period of {period:.6g} s and a sample step of {sample_step:.6g} s; "
            f"both must be at least {sys.float_info.min:.6g} s, the smallest normal double")
    times = np.linspace(0.0, params["n_periods"] * period, params["n_samples"])
    velocity = dynamics.dirac_velocity(dp, times)
    speed = np.hypot(velocity.real, velocity.imag) / fc.c
    amplitude = dynamics.dirac_position_amplitude(dp)
    payload = {
        "oscillation_period_s": period,
        "position_amplitude_cm": amplitude,
        "position_amplitude_over_lambda_C_bar": amplitude / dc.lambda_C_bar,
        "mean_velocity_cm_per_s": fc.c**2 * dp.p / dp.E,
        "max_abs_v_over_c": float(speed.max()),
        "min_abs_v_over_c": float(speed.min()),
    }
    # the JSON goes first: a non-finite value refuses the run before the CSV is written
    _write_json(os.path.join(out, "dirac.json"), payload)
    zpf._write_csv(os.path.join(out, "dirac.csv"),
                   "t_s,re_v_cm_per_s,im_v_cm_per_s,abs_v_over_c",
                   (times, velocity.real, velocity.imag, speed))
    return payload


def _run_sweep(sc, out, fc, dc, params):
    epsilons, rates, r_squareds = params["epsilons"], [], []
    for eps in epsilons:
        fm = dynamics.FastMotionParams(epsilon=eps)
        traj = dynamics.integrate_transient(fm, params["dt"], 6.0 / eps)
        fit = analysis.fit_decay_rate(traj, (1.0 / eps, 6.0 / eps))
        rates.append(fit.decay_rate)
        r_squareds.append(fit.r_squared)
    zpf._write_csv(os.path.join(out, "sweep.csv"), "epsilon,decay_rate,r_squared",
                   (epsilons, rates, r_squareds))
    slope, intercept, r_squared = analysis.line_fit(epsilons, rates)
    payload = {
        "slope": slope,
        "intercept": intercept,
        "r_squared": r_squared,
        "slope_over_half": slope / 0.5,
        "n_points": len(epsilons),
    }
    _write_json(os.path.join(out, "regression.json"), payload)
    return payload


def _period_samples(p) -> float:
    """2 pi / (d_omega sample_dt): psd-check's samples of one period at the step sample_dt.

    A step d_omega that rounds to 0 gives a period of infinitely many samples.
    """
    d_omega = zpf.mode_step(p["band"], p["n_modes"])
    return 2.0 * math.pi / d_omega / p["sample_dt"] if d_omega else math.inf


def _run_psd_check(sc, out, fc, dc, params):
    eps = params["epsilon"]
    band = (params["band"][0], params["band"][1])
    sample_dt = params["sample_dt"]
    if sample_dt > math.pi / band[1]:
        raise ConfigError(f"sample_dt {sample_dt!r} puts the Nyquist frequency pi / sample_dt "
                          f"under the band's upper edge {band[1]!r}; the PSD would alias")
    # one period in n samples at a step h <= sample_dt. The Nyquist refusal
    # gives n >= 2 hi / d_omega > 2 (n_modes - 1), so n >= n_modes, as
    # zpf.period_sum requires
    n = zpf._fft_len(math.ceil(_period_samples(params)))
    d_omega = zpf.mode_step(band, params["n_modes"])
    # the deviation is measured on the Welch bins k d_omega margin_bins or more inside the band
    margin_bins = 4
    bin_width = d_omega * n / params["segment_len"]
    if math.floor(band[1] / bin_width) - math.ceil(band[0] / bin_width) < 2 * margin_bins:
        raise ConfigError(f"no Welch bin of width 2 pi / (segment_len h) = "
                          f"{bin_width:.6g} lies {margin_bins} bins inside the band {list(band)}; "
                          "raise segment_len")
    if params["segment_len"] > n:
        raise ConfigError(f"segment_len {params['segment_len']} exceeds the {n} samples per "
                          "realization (one period at a step of at most sample_dt)")
    fields = zpf.synthesize_ensemble(eps, band, params["n_modes"],
                                     zpf.child_seeds(sc.seed, params["n_realizations"]))
    h, series = zpf.period_sum(fields, n)

    psd_sum = None
    parseval_errs = []
    target_var = float(np.sum(fields.amplitudes**2) / 2.0)
    for x in series:
        omega, psd = zpf.estimate_psd(x, h, params["segment_len"], params["overlap"])
        psd_sum = psd if psd_sum is None else psd_sum + psd
        parseval_errs.append(abs(float(np.var(x)) / target_var - 1.0))
    psd_mean = psd_sum / len(series)

    margin = margin_bins * (omega[1] - omega[0])
    in_band = (omega >= band[0] + margin) & (omega <= band[1] - margin)
    rel_dev = psd_mean[in_band] / zpf.sed_psd(eps, omega[in_band]) - 1.0
    payload = {
        "in_band_rms_rel_dev": float(np.sqrt(np.mean(rel_dev**2))),
        "parseval_max_rel_err": max(parseval_errs),
        "n_bins_in_band": int(np.sum(in_band)),
        "band": [band[0], band[1]],
        "n_realizations": params["n_realizations"],
        "n_samples_per_realization": n,
        "sample_step": h,
    }
    # the JSON goes first: a non-finite value refuses the run before the CSV is written
    _write_json(os.path.join(out, "psd_check.json"), payload)
    zpf.psd_to_csv(omega, psd_mean, os.path.join(out, "psd.csv"))
    return payload


_RUNNERS = {
    "constants": _run_constants,
    "roots": _run_roots,
    "transient": _run_transient,
    "stationary": _run_stationary,
    "dirac": _run_dirac,
    "sweep-epsilon": _run_sweep,
    "psd-check": _run_psd_check,
}

SCENARIO_NAMES = tuple(_RUNNERS)


def run_scenario(sc: Scenario, out_dir: str) -> dict:
    """Run a validated scenario, writing outputs and a reproducibility manifest."""
    fc, dc = _load_chain(sc.params)
    params = _resolve(sc.name, sc.params, dc)
    # admitted or refused before any runner code runs or anything is written
    _cost(sc.name, params)
    os.makedirs(out_dir, exist_ok=True)
    summary = _RUNNERS[sc.name](sc, out_dir, fc, dc, params)
    # written after the run so resolved (run-time) defaults are captured
    _write_json(os.path.join(out_dir, "manifest.json"),
                {"scenario": sc.name, "seed": sc.seed, "params": params})
    return summary
