"""Named, seeded, fully parameterized experiment runs.

Each scenario resolves its defaults against the loaded constants, records
every effective parameter (plus the seed) in ``manifest.json``, and writes
machine-readable CSV/JSON outputs. A manifest is itself a valid config, so
any run can be reproduced from its manifest alone.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

import numpy as np

from . import analysis, constants, dynamics, zpf
from .errors import ConfigError, NumericalInstabilityError

SCENARIO_NAMES = (
    "constants", "roots", "transient", "stationary", "dirac",
    "sweep-epsilon", "psd-check",
)

_DEFAULT_DT = 2.0 * math.pi / 200.0

#: most float64 values one array of a run may hold (400 MB); the largest at
#: a default config is stationary's drive grid, 170,119 half steps x 100
#: realizations = 1.7e7
_MAX_VALUES = 5 * 10**7


@dataclass(frozen=True)
class Scenario:
    name: str
    seed: int
    params: dict


# ---------------------------------------------------------------------------
# config validation

def _positive(key, value):
    if not (isinstance(value, (int, float)) and math.isfinite(value) and value > 0):
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
        if not (isinstance(value, int) and not isinstance(value, bool) and value >= minimum):
            raise ConfigError(f"{key} must be an integer >= {minimum}, got {value!r}")
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
    if not (isinstance(value, (int, float)) and 0.0 <= value < 1.0):
        raise ConfigError(f"{key} must lie in [0, 1), got {value!r}")
    return float(value)


def _number(key, value):
    if not (isinstance(value, (int, float)) and math.isfinite(value)):
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


def _check_size(n_values: float, what: str) -> None:
    """Refuse a run before it allocates an array of more than ``_MAX_VALUES``."""
    if not n_values <= _MAX_VALUES:
        raise ConfigError(
            f"{what} would hold {n_values:.3g} values, over the limit of "
            f"{_MAX_VALUES:.3g} ({8 * _MAX_VALUES // 10**6} MB) for one array"
        )


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


def _write_csv(path: str, header: str, rows) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(repr(float(x)) if isinstance(x, (float, np.floating)) else str(x)
                               for x in row))
            fh.write("\n")


def _load_chain(params):
    fc = (constants.codata() if params.get("constants_file") is None
          else constants.load_constants(params["constants_file"]))
    return fc, constants.derive_constants(fc)


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
    _write_csv(
        os.path.join(out, "roots.csv"),
        "epsilon,re_physical,im_physical,re_perturbative,im_perturbative,"
        "abs_diff,runaway,vieta_max_rel_residual",
        rows,
    )
    summary = {"roots": records}
    _write_json(os.path.join(out, "roots.json"), summary)
    return summary


def _sidecar(traj, dc, extra=None):
    payload = {
        "time_unit_s": 1.0 / dc.omega_C,
        "length_unit_cm": dc.lambda_C_bar,
        "dt": traj.meta["dt"],
        "epsilon": traj.meta["epsilon"],
        "integrator": traj.meta["integrator"],
        "seed": traj.meta["seed"],
    }
    if extra:
        payload.update(extra)
    return payload


def _run_transient(sc, out, fc, dc, params):
    eps = params["epsilon"] if params["epsilon"] is not None else dc.epsilon
    t_max = params["t_max"] if params["t_max"] is not None else 6.0 / eps
    window = params["fit_window"] if params["fit_window"] is not None else [1.0 / eps, 6.0 / eps]
    params.update(epsilon=eps, t_max=t_max, fit_window=window)
    _check_size(t_max / params["dt"], "the trajectory of t_max / dt steps")
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
    dynamics.trajectory_to_csv(traj, os.path.join(out, "trajectory.csv"))
    _write_json(os.path.join(out, "trajectory_meta.json"), _sidecar(traj, dc))
    fit = analysis.fit_decay_rate(traj, (window[0], window[1]))
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
    eps = params["epsilon"] if params["epsilon"] is not None else dc.epsilon
    t_max = params["t_max"] if params["t_max"] is not None else 13.0 / eps
    discard_time = (params["discard_time"] if params["discard_time"] is not None
                    else 3.0 / eps)
    if discard_time >= t_max:
        raise ConfigError(f"discard_time {discard_time} must be below t_max {t_max}")
    params.update(epsilon=eps, t_max=t_max, discard_time=discard_time)
    _check_size((2.0 * t_max / params["dt"] + 1.0) * params["n_realizations"],
                "the drive grid of 2 t_max / dt + 1 half steps x n_realizations")
    _check_size(params["n_modes"] * params["n_realizations"],
                "the mode coefficients, n_modes x n_realizations,")
    # the drive horizon check, made before the modes are synthesized
    lo, hi = params["band"]
    t_rec = 2.0 * math.pi * (params["n_modes"] - 1) / (hi - lo)
    t_end = params["dt"] * math.ceil(t_max / params["dt"] - 1e-9)
    if t_end >= t_rec:
        raise ConfigError(
            f"t_max {t_max:.6g} reaches the recurrence time t_rec = {t_rec:.6g} of "
            f"n_modes {params['n_modes']} over the band {params['band']}; "
            "raise n_modes or lower t_max"
        )
    spectrum = zpf.sed_drive_spectrum(eps, (lo, hi))
    seeds = zpf.child_seeds(sc.seed, params["n_realizations"])
    drives = [zpf.synthesize_band(spectrum, params["n_modes"], s) for s in seeds]
    trajs = dynamics.integrate_ensemble(eps, drives, params["dt"], t_max)
    stats = analysis.ensemble_stationary_variance(trajs, discard_time / t_max)
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
    }
    _write_json(os.path.join(out, "ensemble.json"), payload)
    return payload


def _run_dirac(sc, out, fc, dc, params):
    _check_size(params["n_samples"], "the velocity series of n_samples")
    energy = params["energy_over_mc2"] * fc.m * fc.c**2
    dp = dynamics.DiracFreeParticle(E=energy, p=params["momentum"],
                                    v0=params["v0_over_c"] * fc.c, fc=fc)
    period = math.pi * fc.hbar / energy
    times = np.linspace(0.0, params["n_periods"] * period, params["n_samples"])
    velocity = dynamics.dirac_velocity(dp, times)
    rows = [
        (float(t), float(v.real), float(v.imag), float(abs(v) / fc.c))
        for t, v in zip(times, velocity)
    ]
    amplitude = dynamics.dirac_position_amplitude(dp)
    payload = {
        "oscillation_period_s": period,
        "position_amplitude_cm": amplitude,
        "position_amplitude_over_lambda_C_bar": amplitude / dc.lambda_C_bar,
        "mean_velocity_cm_per_s": fc.c**2 * dp.p / dp.E,
        "max_abs_v_over_c": max(r[3] for r in rows),
        "min_abs_v_over_c": min(r[3] for r in rows),
    }
    # the JSON goes first: a non-finite value refuses the run before the CSV is written
    _write_json(os.path.join(out, "dirac.json"), payload)
    _write_csv(os.path.join(out, "dirac.csv"),
               "t_s,re_v_cm_per_s,im_v_cm_per_s,abs_v_over_c", rows)
    return payload


def _run_sweep(sc, out, fc, dc, params):
    _check_size(6.0 / min(params["epsilons"]) / params["dt"],
                "the trajectory of 6 / epsilon / dt steps at the smallest of epsilons")
    rows = []
    for eps in params["epsilons"]:
        fm = dynamics.FastMotionParams(epsilon=eps)
        traj = dynamics.integrate_transient(fm, params["dt"], 6.0 / eps)
        fit = analysis.fit_decay_rate(traj, (1.0 / eps, 6.0 / eps))
        rows.append((eps, fit.decay_rate, fit.r_squared))
    _write_csv(os.path.join(out, "sweep.csv"), "epsilon,decay_rate,r_squared", rows)
    eps_arr = np.array([r[0] for r in rows])
    rate_arr = np.array([r[1] for r in rows])
    slope, intercept = np.polyfit(eps_arr, rate_arr, 1)
    fitted = slope * eps_arr + intercept
    ss_tot = float(np.sum((rate_arr - rate_arr.mean()) ** 2))
    r_squared = 1.0 - float(np.sum((rate_arr - fitted) ** 2)) / ss_tot
    payload = {
        "slope": float(slope),
        "intercept": float(intercept),
        "r_squared": r_squared,
        "slope_over_half": float(slope) / 0.5,
        "n_points": len(rows),
    }
    _write_json(os.path.join(out, "regression.json"), payload)
    return payload


def _run_psd_check(sc, out, fc, dc, params):
    eps = params["epsilon"] if params["epsilon"] is not None else dc.epsilon
    params.update(epsilon=eps)
    band = (params["band"][0], params["band"][1])
    sample_dt = params["sample_dt"]
    if sample_dt > math.pi / band[1]:
        raise ConfigError(f"sample_dt {sample_dt!r} puts the Nyquist frequency pi / sample_dt "
                          f"under the band's upper edge {band[1]!r}; the PSD would alias")
    # the deviation is measured on the Welch bins k d_omega margin_bins or more inside the band
    margin_bins = 4
    bin_width = 2.0 * math.pi / (params["segment_len"] * sample_dt)
    if math.floor(band[1] / bin_width) - math.ceil(band[0] / bin_width) < 2 * margin_bins:
        raise ConfigError(f"no Welch bin of width 2 pi / (segment_len sample_dt) = "
                          f"{bin_width:.6g} lies {margin_bins} bins inside the band {list(band)}; "
                          "raise segment_len")
    t_rec = 2.0 * math.pi * (params["n_modes"] - 1) / (band[1] - band[0])
    _check_size(t_rec / sample_dt * params["n_realizations"],
                "the field series of t_rec / sample_dt samples x n_realizations, with "
                "t_rec = 2 pi (n_modes - 1) / band width,")
    _check_size(params["n_modes"] * params["n_realizations"],
                "the mode coefficients, n_modes x n_realizations,")
    spectrum = zpf.sed_drive_spectrum(eps, band)
    seeds = zpf.child_seeds(sc.seed, params["n_realizations"])
    sets = [zpf.synthesize_band(spectrum, params["n_modes"], s) for s in seeds]
    n_samples = int(sets[0].t_rec / sample_dt)
    if params["segment_len"] > n_samples:
        raise ConfigError(
            f"segment_len {params['segment_len']} exceeds the {n_samples} samples per "
            f"realization (t_rec / sample_dt)"
        )
    times = sample_dt * np.arange(n_samples)
    series = zpf.mode_sum(*zpf.drive_coefficients(sets), times)

    psd_sum = None
    parseval_errs = []
    for r, ms in enumerate(sets):
        omega, psd = zpf.estimate_psd(series[:, r], sample_dt,
                                      params["segment_len"], params["overlap"])
        psd_sum = psd if psd_sum is None else psd_sum + psd
        target_var = float(np.sum(ms.amplitudes**2) / 2.0)
        parseval_errs.append(abs(float(np.var(series[:, r])) / target_var - 1.0))
    psd_mean = psd_sum / len(sets)
    zpf.psd_to_csv(omega, psd_mean, os.path.join(out, "psd.csv"))

    margin = margin_bins * (omega[1] - omega[0])
    in_band = (omega >= band[0] + margin) & (omega <= band[1] - margin)
    target = spectrum.psd(omega[in_band])
    rel_dev = psd_mean[in_band] / target - 1.0
    payload = {
        "in_band_rms_rel_dev": float(np.sqrt(np.mean(rel_dev**2))),
        "parseval_max_rel_err": max(parseval_errs),
        "n_bins_in_band": int(np.sum(in_band)),
        "band": [band[0], band[1]],
        "n_realizations": params["n_realizations"],
        "n_samples_per_realization": n_samples,
    }
    _write_json(os.path.join(out, "psd_check.json"), payload)
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


def run_scenario(sc: Scenario, out_dir: str) -> dict:
    """Run a validated scenario, writing outputs and a reproducibility manifest."""
    os.makedirs(out_dir, exist_ok=True)
    fc, dc = _load_chain(sc.params)
    params = dict(sc.params)
    if sc.name == "roots" and params["epsilons"] is None:
        params["epsilons"] = [1e-3, dc.epsilon, 1e-2]
    summary = _RUNNERS[sc.name](sc, out_dir, fc, dc, params)
    # written after the run so resolved (run-time) defaults are captured
    _write_json(os.path.join(out_dir, "manifest.json"),
                {"scenario": sc.name, "seed": sc.seed, "params": params})
    return summary
