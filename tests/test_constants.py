import json
import math

import pytest

from zitter import constants, scenarios
from zitter.constants import (
    FundamentalConstants,
    derive_constants,
    load_constants,
)


def rel(a, b):
    return abs(a - b) / abs(b)


class TestDerivedChain:
    def test_tau_codata(self, dc):
        # arithmetic 2e^2/(3 m c^3) from CODATA values
        assert rel(dc.tau, 6.2664e-24) < 1e-4

    def test_compton_period(self, dc):
        assert rel(dc.T_C, 8.1e-21) < 5e-3

    def test_transition_time(self, dc):
        assert rel(dc.T_tr, 0.53e-18) < 1e-2
        assert rel(dc.T_tr / dc.T_C, 65.4) < 5e-3

    def test_compton_wavelength(self, dc):
        # quoted 3-digit value 2.43e-10 cm; true CODATA value is 2.4263e-10,
        # 0.15% away, so the gate is 0.2%
        assert rel(dc.lambda_C, 2.43e-10) < 2e-3
        assert rel(dc.lambda_C_bar, 3.8616e-11) < 1e-4

    def test_alpha(self, dc):
        assert rel(dc.alpha, 7.2973525693e-3) < 1e-9


class TestIdentities:
    def test_epsilon_is_two_thirds_alpha(self, dc):
        assert rel(dc.epsilon, 2.0 * dc.alpha / 3.0) < 1e-14

    def test_transition_time_times_gamma(self, dc):
        assert dc.T_tr * dc.Gamma == pytest.approx(2.0, rel=1e-15)

    def test_transition_time_vs_compton_period(self, dc):
        assert rel(dc.T_tr, 3.0 * dc.T_C / (2.0 * math.pi * dc.alpha)) < 1e-12

    def test_three_way_transition_time(self, fc, dc):
        t1 = 2.0 / (dc.tau * dc.omega_C**2)
        t2 = 3.0 * fc.hbar**2 / (fc.e**2 * fc.m * fc.c)
        t3 = 3.0 / (dc.alpha * dc.omega_C)
        assert rel(t1, t2) < 1e-12
        assert rel(t1, t3) < 1e-12

    @pytest.mark.parametrize("k", [0.5, 1.3, 2.0, 10.0])
    def test_charge_scaling(self, fc, dc, k):
        scaled = derive_constants(FundamentalConstants(fc.e * k, fc.m, fc.c, fc.hbar))
        assert rel(scaled.alpha, dc.alpha * k**2) < 1e-12
        assert rel(scaled.T_tr, dc.T_tr / k**2) < 1e-12

    def test_unit_system_independence(self, dc):
        si = FundamentalConstants.from_si(
            e_C=1.602176634e-19, m_kg=9.1093837015e-31,
            c_m_per_s=2.99792458e8, hbar_J_s=1.054571817e-34,
        )
        dc_si = derive_constants(si)
        assert rel(dc_si.alpha, dc.alpha) < 1e-10
        assert rel(dc_si.epsilon, dc.epsilon) < 1e-10
        assert rel(dc_si.T_tr / dc_si.T_C, dc.T_tr / dc.T_C) < 1e-10


class TestValidation:
    @pytest.mark.parametrize("field", ["e", "m", "c", "hbar"])
    @pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, math.nan])
    def test_nonpositive_rejected_naming_field(self, fc, field, bad):
        values = {"e": fc.e, "m": fc.m, "c": fc.c, "hbar": fc.hbar, field: bad}
        with pytest.raises(ValueError, match=field):
            FundamentalConstants(**values)


class TestSimUnits:
    """Simulation units: time in 1/omega_C, length in lambda_C_bar."""

    def test_transition_time_in_sim_units(self, dc):
        # 2/epsilon with CODATA alpha
        assert rel(dc.T_tr * dc.omega_C, 2.0 / dc.epsilon) < 1e-12
        assert dc.T_tr * dc.omega_C == pytest.approx(411.1, rel=1e-3)

    def test_unit_definitions(self, fc, dc):
        # the velocity unit lambda_C_bar omega_C = (hbar / m c)(m c^2 / hbar) is c
        assert rel(dc.lambda_C_bar * dc.omega_C, fc.c) < 1e-15

    def test_sim_units_fields(self, dc, tmp_path):
        # the sidecar a transient run writes records the units its trajectory is in
        sc = scenarios.validate_config({"scenario": "transient", "params": {
            "t_max": 100.0, "fit_window": [10.0, 100.0]}})
        scenarios.run_scenario(sc, str(tmp_path))
        meta = json.loads((tmp_path / "trajectory_meta.json").read_text())
        assert meta["time_unit_s"] == 1.0 / dc.omega_C
        assert meta["length_unit_cm"] == dc.lambda_C_bar
        assert meta["epsilon"] == dc.epsilon
        assert (meta["dt"], meta["integrator"], meta["seed"]) == (sc.params["dt"], "rk4", None)


class TestConstantsFile:
    def test_packaged_file_roundtrip(self, fc, tmp_path):
        path = tmp_path / "constants.json"
        path.write_text(json.dumps({
            "e_statC": fc.e, "m_g": fc.m, "c_cm_per_s": fc.c, "hbar_erg_s": fc.hbar,
        }))
        loaded = load_constants(str(path))
        assert loaded == fc

    def test_missing_key_rejected(self, tmp_path):
        path = tmp_path / "constants.json"
        path.write_text(json.dumps({"e_statC": 1.0}))
        with pytest.raises(ValueError, match="missing"):
            load_constants(str(path))

    def test_unknown_key_rejected(self, fc, tmp_path):
        path = tmp_path / "constants.json"
        path.write_text(json.dumps({
            "e_statC": fc.e, "m_g": fc.m, "c_cm_per_s": fc.c, "hbar_erg_s": fc.hbar,
            "boltzmann": 1.0,
        }))
        with pytest.raises(ValueError, match="unknown"):
            load_constants(str(path))

    def test_codata_is_packaged_default(self, fc):
        assert constants.load_constants() == fc
