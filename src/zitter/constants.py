"""Electron constants in Gaussian units and the Compton-scale derived chain.

Everything downstream works in a dimensionless unit system where time is
measured in 1/omega_C and length in the reduced Compton wavelength, so the
only dynamical parameter left in the scaled equations is
epsilon = tau * omega_C = 2*alpha/3.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

# statC per coulomb (numerically c_cm_per_s / 10)
_STATC_PER_COULOMB = 2.99792458e9


@dataclass(frozen=True)
class FundamentalConstants:
    """The four inputs of the chain, in Gaussian (cgs) units."""

    e: float      # elementary charge (statC)
    m: float      # electron mass (g)
    c: float      # speed of light (cm/s)
    hbar: float   # reduced Planck constant (erg*s)

    def __post_init__(self) -> None:
        for name in ("e", "m", "c", "hbar"):
            value = getattr(self, name)
            if not math.isfinite(value) or value <= 0.0:
                raise ValueError(
                    f"fundamental constant {name!r} must be positive and finite, got {value!r}"
                )

    @classmethod
    def from_si(cls, e_C: float, m_kg: float, c_m_per_s: float,
                hbar_J_s: float) -> "FundamentalConstants":
        """Convert SI-valued inputs to Gaussian units at the boundary."""
        return cls(
            e=e_C * _STATC_PER_COULOMB,
            m=m_kg * 1e3,
            c=c_m_per_s * 1e2,
            hbar=hbar_J_s * 1e7,
        )


@dataclass(frozen=True)
class DerivedConstants:
    """Every constant of the dimensional chain derived from the four inputs."""

    tau: float            # radiation-damping time 2e^2/(3mc^3) (s)
    omega_C: float        # Compton angular frequency mc^2/hbar (rad/s)
    alpha: float          # fine-structure constant e^2/(hbar c)
    lambda_C_bar: float   # reduced Compton wavelength hbar/(mc) (cm)
    lambda_C: float       # non-reduced Compton wavelength h/(mc) (cm)
    T_C: float            # Compton period 2*pi/omega_C (s)
    epsilon: float        # tau*omega_C = 2*alpha/3 (dimensionless)
    Gamma: float          # decay rate tau*omega_C^2 (rad/s)
    T_tr: float           # transition time 2/(tau*omega_C^2) (s)


def derive_constants(fc: FundamentalConstants) -> DerivedConstants:
    """Populate the full derived chain from the four fundamental constants."""
    tau = 2.0 * fc.e**2 / (3.0 * fc.m * fc.c**3)
    omega_C = fc.m * fc.c**2 / fc.hbar
    alpha = fc.e**2 / (fc.hbar * fc.c)
    lambda_C_bar = fc.hbar / (fc.m * fc.c)
    gamma = tau * omega_C**2
    return DerivedConstants(
        tau=tau,
        omega_C=omega_C,
        alpha=alpha,
        lambda_C_bar=lambda_C_bar,
        lambda_C=2.0 * math.pi * lambda_C_bar,
        T_C=2.0 * math.pi / omega_C,
        epsilon=tau * omega_C,
        Gamma=gamma,
        T_tr=2.0 / gamma,
    )


_FILE_KEYS = ("e_statC", "m_g", "c_cm_per_s", "hbar_erg_s")


def load_constants(path: str | None = None) -> FundamentalConstants:
    """Load fundamental constants from a JSON file (Gaussian-unit keys).

    With no path, the packaged canonical CODATA-valued file is used.
    """
    if path is None:
        path = os.path.join(os.path.dirname(__file__), "data", "codata_gaussian.json")
    with open(path, "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    missing = [k for k in _FILE_KEYS if k not in raw]
    if missing:
        raise ValueError(f"constants file is missing keys: {missing}")
    unknown = [k for k in raw if k not in _FILE_KEYS]
    if unknown:
        raise ValueError(f"constants file has unknown keys: {unknown}")
    # JSON numbers only: float() would also take text such as "4.8e-10", and true
    not_numbers = [k for k in _FILE_KEYS
                   if not isinstance(raw[k], (int, float)) or isinstance(raw[k], bool)]
    if not_numbers:
        raise ValueError(f"constants file values must be numbers: {not_numbers}")
    return FundamentalConstants(
        e=float(raw["e_statC"]),
        m=float(raw["m_g"]),
        c=float(raw["c_cm_per_s"]),
        hbar=float(raw["hbar_erg_s"]),
    )


def codata() -> FundamentalConstants:
    """The canonical CODATA-valued instance shipped with the package."""
    fc = load_constants()
    dc = derive_constants(fc)
    # sanity gate on the canonical data file only; synthetic inputs used in
    # scaling tests are allowed to be unphysical
    if abs(dc.alpha / 7.29e-3 - 1.0) > 1.5e-3:
        raise ValueError(f"canonical constants give alpha={dc.alpha}, not fine-structure-like")
    return fc
