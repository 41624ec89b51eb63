import json
import math
import os
from pathlib import Path

import pytest

from zitter.cli import main
from zitter.scenarios import Scenario, run_scenario, validate_config


def read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


class TestConfigValidation:
    def test_defaults_filled(self):
        sc = validate_config({"scenario": "transient"})
        assert sc.name == "transient"
        assert sc.seed == 0
        assert sc.params["dt"] == pytest.approx(2.0 * math.pi / 200.0)
        assert sc.params["z0_re"] == 0.5

    def test_unknown_scenario_rejected(self):
        from zitter.errors import ConfigError
        with pytest.raises(ConfigError, match="scenario"):
            validate_config({"scenario": "warp-drive"})

    def test_unknown_parameter_rejected(self):
        from zitter.errors import ConfigError
        with pytest.raises(ConfigError, match="unknown parameter"):
            validate_config({"scenario": "transient", "params": {"typo_key": 1}})

    def test_bad_seed_rejected(self):
        from zitter.errors import ConfigError
        with pytest.raises(ConfigError, match="seed"):
            validate_config({"scenario": "roots", "seed": -1})
        with pytest.raises(ConfigError, match="seed"):
            validate_config({"scenario": "roots", "seed": 1.5})

    @pytest.mark.parametrize("params", [
        {"epsilon": 0.5},
        {"epsilon": -0.01},
        {"dt": 1.0},
        {"fit_window": [5.0, 1.0]},
    ])
    def test_bad_transient_params_rejected(self, params):
        from zitter.errors import ConfigError
        with pytest.raises(ConfigError):
            validate_config({"scenario": "transient", "params": params})


class TestScenarioRuns:
    def test_constants(self, tmp_path, dc):
        rc = main(["run", "--scenario", "constants", "--out", str(tmp_path)])
        assert rc == 0
        payload = read_json(tmp_path / "constants.json")
        assert payload["T_tr_s"] == pytest.approx(dc.T_tr)
        assert payload["T_tr_over_T_C"] == pytest.approx(65.43, rel=1e-3)
        assert payload["epsilon"] == pytest.approx(dc.epsilon)

    def test_roots(self, tmp_path):
        rc = main(["run", "--scenario", "roots", "--out", str(tmp_path)])
        assert rc == 0
        payload = read_json(tmp_path / "roots.json")
        for record in payload["roots"]:
            assert record["abs_difference"] <= record["bound_5_eps_sq"]
            assert record["vieta_max_rel_residual"] < 1e-9
        assert (tmp_path / "roots.csv").exists()

    def test_transient(self, tmp_path, dc):
        rc = main(["run", "--scenario", "transient", "--out", str(tmp_path)])
        assert rc == 0
        fit = read_json(tmp_path / "fit.json")
        assert fit["decay_over_half_epsilon"] == pytest.approx(1.0, rel=1e-2)
        assert fit["T_est_over_T_tr"] == pytest.approx(1.0, rel=1e-2)
        assert not fit["low_confidence"]
        meta = read_json(tmp_path / "trajectory_meta.json")
        assert meta["epsilon"] == pytest.approx(dc.epsilon)
        with open(tmp_path / "trajectory.csv") as fh:
            assert fh.readline().strip() == "t,z,zdot"

    def test_dirac(self, tmp_path, dc):
        rc = main(["run", "--scenario", "dirac", "--out", str(tmp_path)])
        assert rc == 0
        payload = read_json(tmp_path / "dirac.json")
        assert payload["position_amplitude_over_lambda_C_bar"] == pytest.approx(0.5)
        assert payload["max_abs_v_over_c"] == pytest.approx(1.0, rel=1e-12)
        assert payload["min_abs_v_over_c"] == pytest.approx(1.0, rel=1e-12)

    def test_sweep_epsilon(self, tmp_path):
        rc = main(["run", "--scenario", "sweep-epsilon", "--out", str(tmp_path)])
        assert rc == 0
        payload = read_json(tmp_path / "regression.json")
        assert payload["slope_over_half"] == pytest.approx(1.0, rel=1e-2)
        assert payload["r_squared"] > 0.999

    def test_psd_check(self, tmp_path):
        rc = main(["run", "--scenario", "psd-check", "--seed", "7",
                   "--out", str(tmp_path)])
        assert rc == 0
        payload = read_json(tmp_path / "psd_check.json")
        assert payload["in_band_rms_rel_dev"] < 0.05
        assert payload["parseval_max_rel_err"] < 0.01

    def test_stationary_small(self, tmp_path):
        # reduced size for speed; the full-size run lives in the acceptance suite
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "scenario": "stationary", "seed": 5,
            "params": {"n_modes": 200, "n_realizations": 8, "t_max": 800.0,
                       "discard_time": 300.0},
        }))
        out = tmp_path / "out"
        rc = main(["run", "--config", str(config), "--out", str(out)])
        assert rc == 0
        payload = read_json(out / "ensemble.json")
        assert payload["mean_z2_over_half"] == pytest.approx(1.0, rel=0.35)
        assert payload["n_realizations"] == 8


class TestReproducibility:
    def _run(self, out, seed=11):
        rc = main(["run", "--scenario", "psd-check", "--seed", str(seed),
                   "--out", str(out)])
        assert rc == 0

    def test_same_seed_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        self._run(a)
        self._run(b)
        for name in ("psd.csv", "psd_check.json", "manifest.json"):
            assert read_bytes(a / name) == read_bytes(b / name), name

    def test_different_seed_differs(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        self._run(a, seed=1)
        self._run(b, seed=2)
        assert read_bytes(a / "psd.csv") != read_bytes(b / "psd.csv")

    def test_manifest_reproduces_run(self, tmp_path):
        first = tmp_path / "first"
        rc = main(["run", "--scenario", "transient", "--seed", "3",
                   "--out", str(first)])
        assert rc == 0
        second = tmp_path / "second"
        rc = main(["run", "--config", str(first / "manifest.json"),
                   "--out", str(second)])
        assert rc == 0
        for name in ("trajectory.csv", "fit.json", "manifest.json"):
            assert read_bytes(first / name) == read_bytes(second / name), name

    def test_manifest_is_valid_config(self, tmp_path):
        rc = main(["run", "--scenario", "roots", "--out", str(tmp_path)])
        assert rc == 0
        sc = validate_config(read_json(tmp_path / "manifest.json"))
        assert sc.name == "roots"
        assert sc.params["epsilons"] is not None


class TestExitCodes:
    def test_bad_config_file_returns_2(self, tmp_path):
        missing = tmp_path / "nope.json"
        assert main(["run", "--config", str(missing), "--out", str(tmp_path)]) == 2

    def test_malformed_json_returns_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["run", "--config", str(bad), "--out", str(tmp_path)]) == 2

    def test_invalid_params_return_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"scenario": "transient",
                                   "params": {"epsilon": 2.0}}))
        assert main(["run", "--config", str(bad), "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("config, key", [
        # the slope fit needs two distinct epsilons
        ({"scenario": "sweep-epsilon", "params": {"epsilons": [0.01]}}, "epsilons"),
        ({"scenario": "sweep-epsilon", "params": {"epsilons": [0.01, 0.01]}}, "epsilons"),
        ({"scenario": "transient", "params": {"fit_window": ["a", 1]}}, "fit_window[0]"),
        # the default series holds 29,984 samples per realization
        ({"scenario": "psd-check", "params": {"segment_len": 100000}}, "segment_len"),
        ({"scenario": "transient", "params": {"fit_window": [1, 1e9]}}, "fit_window"),
        # no transient, so no zero crossings to fit
        ({"scenario": "transient", "params": {"z0_re": 0, "z0_im": 0}}, "z0_re"),
        # t_max 2672 passes t_rec 1555 of 100 modes
        ({"scenario": "stationary", "params": {"n_modes": 100}}, "n_modes"),
        ({"scenario": "dirac", "params": {"v0_over_c": 2}}, "v0_over_c"),
        ({"scenario": "dirac", "params": {"energy_over_mc2": 0.5}}, "energy_over_mc2"),
        # under one carrier period: too few zero crossings to fit
        ({"scenario": "transient", "params": {"fit_window": [1, 2]}}, "fit_window"),
        # run sizes past the one-array budget: 3.2e13 steps, 1.7e13 and 1.2e10 values
        ({"scenario": "transient", "params": {"t_max": 1e12}}, "t_max"),
        ({"scenario": "stationary", "params": {"n_realizations": 100_000_000}},
         "n_realizations"),
        ({"scenario": "psd-check", "params": {"n_modes": 100_000_000}}, "n_modes"),
        # the Nyquist frequency pi / sample_dt must reach the band's edge 1.2
        ({"scenario": "psd-check", "params": {"sample_dt": 2.7}}, "sample_dt"),
        ({"scenario": "psd-check", "params": {"sample_dt": 3.0}}, "sample_dt"),
        ({"scenario": "psd-check", "params": {"sample_dt": 5.0}}, "sample_dt"),
        # Welch bins 0.375 wide: none lies 4 bins inside [0.8, 1.2]
        ({"scenario": "psd-check", "params": {"segment_len": 16}}, "segment_len"),
        ({"scenario": "roots", "params": {"epsilons": [1e-50]}}, "epsilons[0]"),
        # 2 Re z0 and -eps Re z0 - 2 Im z0 overflow to infinity
        ({"scenario": "transient", "params": {"z0_im": 1e308}}, "z0_im"),
        ({"scenario": "transient", "params": {"z0_re": 9e307}}, "z0_re"),
    ], ids=["sweep-one-epsilon", "sweep-repeated-epsilon", "transient-text-window",
            "psd-segment-too-long", "transient-window-past-t-max", "transient-zero-z0",
            "stationary-past-horizon", "dirac-faster-than-light", "dirac-below-rest-energy",
            "transient-window-too-short", "transient-too-many-steps",
            "stationary-too-many-realizations", "psd-too-many-modes",
            "psd-aliased-2.7", "psd-aliased-3.0", "psd-aliased-5.0", "psd-no-bin-in-band",
            "roots-epsilon-too-small", "transient-infinite-velocity",
            "transient-infinite-position"])
    def test_unusable_params_return_2(self, tmp_path, capsys, config, key):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "out"
        assert main(["run", "--config", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:")
        assert key in err
        # refused before anything is written
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_non_finite_output_returns_3(self, tmp_path, capsys):
        # the mean velocity c^2 p / E overflows; strict JSON refuses the Infinity
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"scenario": "dirac", "params": {"momentum": 1e300}}))
        out = tmp_path / "out"
        assert main(["run", "--config", str(path), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical failure")
        assert "dirac.json" in err
        assert not (out / "dirac.json").exists()
        assert not (out / "dirac.csv").exists()

    def test_extreme_admissible_configs_run(self, tmp_path):
        # the smallest epsilon the cubic still resolves
        path = tmp_path / "roots.json"
        path.write_text(json.dumps({"scenario": "roots", "params": {"epsilons": [1e-20]}}))
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "roots")]) == 0
        record = read_json(tmp_path / "roots" / "roots.json")["roots"][0]
        assert record["vieta_max_rel_residual"] < 1e-9
        # E^2 overflows at 1e200 m c^2; at rest the amplitude is lambda_bar_C mc^2 / 2E
        path = tmp_path / "dirac.json"
        path.write_text(json.dumps({"scenario": "dirac",
                                    "params": {"energy_over_mc2": 1e200}}))
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "dirac")]) == 0
        payload = read_json(tmp_path / "dirac" / "dirac.json")
        assert payload["position_amplitude_over_lambda_C_bar"] == pytest.approx(
            0.5e-200, rel=1e-12)

    @pytest.mark.parametrize("config", [
        {"scenario": "stationary"},
        json.loads((Path(__file__).resolve().parents[1] / "perfbench" / "configs"
                    / "stationary.json").read_text()),
    ], ids=["default", "perfbench"])
    def test_size_limit_admits_stationary(self, tmp_path, monkeypatch, config):
        # every check runs before the modes are synthesized; stop the run there
        class Admitted(Exception):
            pass

        def stop(*args):
            raise Admitted

        monkeypatch.setattr("zitter.zpf.synthesize_band", stop)
        with pytest.raises(Admitted):
            run_scenario(validate_config(config), str(tmp_path))

    def test_missing_scenario_returns_2(self, tmp_path):
        assert main(["run", "--out", str(tmp_path)]) == 2

    def test_cli_flags_override_config(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"scenario": "transient", "seed": 1}))
        out = tmp_path / "out"
        rc = main(["run", "--config", str(config), "--scenario", "constants",
                   "--seed", "9", "--out", str(out)])
        assert rc == 0
        manifest = read_json(out / "manifest.json")
        assert manifest["scenario"] == "constants"
        assert manifest["seed"] == 9

    def test_cli_path_imports_no_scipy_signal(self, tmp_path):
        # scipy.signal drags in scipy.stats, .optimize and .interpolate, ~1.3 s
        # of import; the scenarios a CLI run reaches need numpy alone
        import subprocess
        import sys

        repo = Path(__file__).resolve().parents[1]
        config = tmp_path / "stationary.json"
        config.write_text(json.dumps({"scenario": "stationary", "params": {
            "n_modes": 200, "n_realizations": 4, "t_max": 300.0, "discard_time": 100.0}}))
        runs = [["run", "--scenario", "transient", "--out", str(tmp_path / "transient")],
                ["run", "--scenario", "sweep-epsilon", "--out", str(tmp_path / "sweep")],
                ["run", "--config", str(config), "--out", str(tmp_path / "stationary")],
                ["run", "--scenario", "psd-check", "--out", str(tmp_path / "psd")]]
        code = ("import json, sys\n"
                "from zitter import cli\n"
                f"codes = [cli.main(argv) for argv in {runs!r}]\n"
                "print(json.dumps([codes, sorted(sys.modules)]))\n")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(repo / "src"), env.get("PYTHONPATH")]))
        done = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        codes, modules = json.loads(done.stdout.splitlines()[-1])
        assert codes == [0, 0, 0, 0]
        heavy = ("scipy.signal", "scipy.stats", "scipy.optimize", "scipy.interpolate")
        assert [m for m in modules if ".".join(m.split(".")[:2]) in heavy] == []

    def test_console_script_installed(self, tmp_path):
        # The console script an install would generate: pyproject.toml must
        # declare it, it must resolve, and it must hand main()'s return code
        # to the shell. Runs from source; an installed `zitter` on PATH, if
        # any, is held to the same contract.
        import importlib
        import shutil
        import subprocess
        import sys
        try:
            import tomllib
        except ModuleNotFoundError:  # Python 3.10
            tomllib = pytest.importorskip("tomli")

        repo = Path(__file__).resolve().parents[1]
        with open(repo / "pyproject.toml", "rb") as fh:
            scripts = tomllib.load(fh)["project"]["scripts"]
        assert scripts.get("zitter") == "zitter.cli:entry"
        module_name, func_name = scripts["zitter"].split(":")
        assert callable(getattr(importlib.import_module(module_name), func_name))

        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(repo / "src"), env.get("PYTHONPATH")]))
        wrapper = (f"import sys; from {module_name} import {func_name}; "
                   f"sys.argv[0] = 'zitter'; sys.exit({func_name}())")
        commands = {"source": [sys.executable, "-c", wrapper]}
        exe = shutil.which("zitter")
        if exe is not None:
            commands["PATH"] = [exe]

        for label, command in commands.items():
            out = tmp_path / label
            no_scenario = subprocess.run(command + ["run", "--out", str(out)],
                                         env=env, capture_output=True, text=True)
            assert no_scenario.returncode == 2, (label, no_scenario.stderr)
            ok = subprocess.run(command + ["run", "--scenario", "constants",
                                           "--out", str(out)],
                                env=env, capture_output=True, text=True)
            assert ok.returncode == 0, (label, ok.stderr)
            assert (out / "manifest.json").is_file(), label
