"""Physics gates: each run must reproduce its scenario's result.

A gate reads the files a scenario wrote and returns the list of its failures;
an empty list is a pass. The stationary gate compares ``mean_z2`` with a
Lorentzian quadrature computed here, sharing no code with the program.
"""

from __future__ import annotations

import json
import math
import os

from scipy import integrate

#: files every successful run of a scenario must leave in its --out directory
EXPECTED_FILES = {
    "stationary": ("ensemble.json", "manifest.json"),
    "psd-check": ("psd_check.json", "psd.csv", "manifest.json"),
    "transient": ("fit.json", "trajectory.csv", "trajectory_meta.json", "manifest.json"),
    "sweep-epsilon": ("regression.json", "sweep.csv", "manifest.json"),
}

#: |mean_z2 - oracle| may be at most this many of the run's reported stderr.
#: The per-realization averages are skewed, so a low mean comes with a low
#: stderr and (mean_z2 - oracle) / stderr has a heavy low tail: in 12,000
#: seeds of the exact steady-state response it fell below -4 six times and
#: below -4.5 once (a Gaussian: 0.4 and 0.04 times), shrinking about threefold
#: per half unit. At 6 a correct program fails by chance about once in 10^5.
STATIONARY_STDERR_BOUND = 6.0
#: the stderr itself must stay below this share of the oracle, so that a run
#: with inflated scatter cannot pass a wide band
STATIONARY_MAX_REL_STDERR = 0.1


def lorentzian_variance(epsilon: float, band: tuple[float, float]) -> float:
    """Stationary <z^2> of z'' + eps z' + z = D + eps D' for S_D(w) = eps w^3 / pi.

    Integrates S_D(w) |H(w)|^2 over the band, H(w) = (1 + i eps w) / (1 - w^2 + i eps w).
    """
    def integrand(w):
        return (epsilon * w**3 / math.pi * (1.0 + (epsilon * w) ** 2)
                / ((1.0 - w * w) ** 2 + (epsilon * w) ** 2))

    lo, hi = band
    points = [1.0] if lo < 1.0 < hi else None
    value, _ = integrate.quad(integrand, lo, hi, points=points, limit=500,
                              epsabs=0.0, epsrel=1e-10)
    return value


def _load(out_dir: str, name: str) -> dict:
    with open(os.path.join(out_dir, name), encoding="utf-8") as fh:
        return json.load(fh)


def _within(failures: list, label: str, value: float, target: float, rel: float) -> None:
    if not abs(value - target) <= rel * abs(target):
        failures.append(f"{label}={value!r} is not within {rel:.0%} of {target!r}")


def _at_least(failures: list, label: str, value: float, floor: float) -> None:
    if not value >= floor:
        failures.append(f"{label}={value!r} < {floor!r}")


def _below(failures: list, label: str, value: float, ceiling: float) -> None:
    if not value < ceiling:
        failures.append(f"{label}={value!r} is not below {ceiling!r}")


def _stationary(out_dir: str) -> list[str]:
    ens = _load(out_dir, "ensemble.json")
    params = _load(out_dir, "manifest.json")["params"]
    oracle = lorentzian_variance(params["epsilon"], tuple(params["band"]))
    failures: list[str] = []
    if ens["n_realizations"] != params["n_realizations"]:
        failures.append(f"n_realizations={ens['n_realizations']} != {params['n_realizations']}")
    stderr = ens["stderr"]
    if not 0.0 < stderr < STATIONARY_MAX_REL_STDERR * oracle:
        failures.append(f"stderr={stderr!r} outside (0, {STATIONARY_MAX_REL_STDERR} * oracle)")
    elif not abs(ens["mean_z2"] - oracle) <= STATIONARY_STDERR_BOUND * stderr:
        failures.append(f"mean_z2={ens['mean_z2']!r} is more than "
                        f"{STATIONARY_STDERR_BOUND} stderr from the oracle {oracle!r}")
    return failures


def _psd_check(out_dir: str) -> list[str]:
    psd = _load(out_dir, "psd_check.json")
    failures: list[str] = []
    _below(failures, "in_band_rms_rel_dev", psd["in_band_rms_rel_dev"], 0.05)
    _below(failures, "parseval_max_rel_err", psd["parseval_max_rel_err"], 0.01)
    return failures


def _transient(out_dir: str) -> list[str]:
    fit = _load(out_dir, "fit.json")
    failures: list[str] = []
    _within(failures, "decay_over_half_epsilon", fit["decay_over_half_epsilon"], 1.0, 0.01)
    _at_least(failures, "fit r_squared", fit["r_squared"], 0.999)
    if fit["low_confidence"]:
        failures.append("fit is flagged low_confidence")
    return failures


def _sweep(out_dir: str) -> list[str]:
    reg = _load(out_dir, "regression.json")
    failures: list[str] = []
    _within(failures, "slope_over_half", reg["slope_over_half"], 1.0, 0.01)
    _at_least(failures, "regression r_squared", reg["r_squared"], 0.999)
    return failures


_GATES = {
    "stationary": _stationary,
    "psd-check": _psd_check,
    "transient": _transient,
    "sweep-epsilon": _sweep,
}


def check(scenario: str, out_dir: str) -> list[str]:
    """Failures of one scenario run: missing files, unreadable or wrong results."""
    missing = [f for f in EXPECTED_FILES[scenario]
               if not os.path.isfile(os.path.join(out_dir, f))]
    if missing:
        return [f"missing output files: {missing}"]
    try:
        return _GATES[scenario](out_dir)
    except (KeyError, TypeError, ValueError) as exc:
        return [f"unreadable result: {type(exc).__name__}: {exc}"]
