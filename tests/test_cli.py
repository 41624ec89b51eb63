import json
import math
import os
import warnings
from pathlib import Path

import numpy as np
import pytest

from zitter import zpf
from zitter.cli import main
from zitter.dynamics import DiracFreeParticle, dirac_velocity
from zitter.scenarios import SCENARIO_NAMES, Scenario, run_scenario, validate_config


def read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


REPO = Path(__file__).resolve().parents[1]


def child_env(**extra):
    # a child process imports the package from this checkout
    env = dict(os.environ, **extra)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(REPO / "src"), env.get("PYTHONPATH")]))
    return env


def on_glibc():
    try:
        return bool(os.confstr("CS_GNU_LIBC_VERSION"))
    except (AttributeError, ValueError):
        return False


def default_and_bench_configs():
    # the seven default scenarios and the bench's stationary config
    configs = [{"scenario": name} for name in SCENARIO_NAMES]
    configs.append(json.loads((REPO / "perfbench" / "configs" / "stationary.json")
                              .read_text()))
    return configs


class TestConfigValidation:
    def test_defaults_filled(self):
        sc = validate_config({"scenario": "transient"})
        assert sc.name == "transient"
        assert sc.seed == 0
        assert sc.params["dt"] == pytest.approx(2.0 * math.pi / 200.0)
        assert sc.params["z0_re"] == 0.5

    def test_unknown_scenario_rejected(self):
        from zitter.errors import ConfigError
        # the names in the order the CLI lists them
        names = ("['constants', 'roots', 'transient', 'stationary', 'dirac', "
                 "'sweep-epsilon', 'psd-check']")
        with pytest.raises(ConfigError) as err:
            validate_config({"scenario": "warp-drive"})
        assert str(err.value) == f"unknown scenario 'warp-drive'; expected one of {names}"

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
        assert meta["csv_stride"] == 5
        lines = (tmp_path / "trajectory.csv").read_text(encoding="utf-8").splitlines()
        # every 5th of the 39,259 samples to t_max, the last among them
        assert lines[0] == "t,z,zdot" and len(lines) == 7853 + 1
        assert float(lines[-1].split(",")[0]) == meta["dt"] * 39258

    def test_dirac(self, tmp_path, dc):
        rc = main(["run", "--scenario", "dirac", "--out", str(tmp_path)])
        assert rc == 0
        payload = read_json(tmp_path / "dirac.json")
        assert payload["position_amplitude_over_lambda_C_bar"] == pytest.approx(0.5)
        assert payload["max_abs_v_over_c"] == pytest.approx(1.0, rel=1e-12)
        assert payload["min_abs_v_over_c"] == pytest.approx(1.0, rel=1e-12)

    def test_dirac_csv_is_the_per_sample_formula(self, tmp_path, fc):
        # |v| / c of each sample as abs() of a Python complex, which is libm's hypot;
        # at one chunk of the CSV writer, and at four
        for n_samples in (3001, 3 * zpf._CSV_CHUNK + 1):
            params = {"n_samples": n_samples, "energy_over_mc2": 3.7, "momentum": 1e-17,
                      "v0_over_c": 0.3, "n_periods": 17.5}
            sc = validate_config({"scenario": "dirac", "params": params})
            out = tmp_path / str(n_samples)
            out.mkdir()
            run_scenario(sc, str(out))
            lines = (out / "dirac.csv").read_text(encoding="utf-8").splitlines()
            assert lines[0] == "t_s,re_v_cm_per_s,im_v_cm_per_s,abs_v_over_c"
            assert len(lines) == n_samples + 1
            times = np.array([float(line.split(",")[0]) for line in lines[1:]])
            energy = 3.7 * fc.m * fc.c**2
            dp = DiracFreeParticle(E=energy, p=1e-17, v0=0.3 * fc.c, fc=fc)
            rows = [(t, complex(v)) for t, v in zip(times.tolist(), dirac_velocity(dp, times))]
            speeds = [abs(v) / fc.c for _, v in rows]
            assert lines[1:] == [f"{t!r},{v.real!r},{v.imag!r},{u!r}"
                                 for (t, v), u in zip(rows, speeds)]
            payload = read_json(out / "dirac.json")
            assert (payload["max_abs_v_over_c"], payload["min_abs_v_over_c"]) == (
                max(speeds), min(speeds))

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
        # one period 2 pi / d_omega in n samples at a step h <= sample_dt,
        # n 5-smooth and at least t_rec / sample_dt
        sample_dt, n_modes, (lo, hi) = 2.0 * math.pi / 6.0, 2000, (0.8, 1.2)
        h, n = payload["sample_step"], payload["n_samples_per_realization"]
        assert h <= sample_dt
        assert h * n * ((hi - lo) / (n_modes - 1)) == pytest.approx(2.0 * math.pi, rel=1e-15)
        assert n >= 2.0 * math.pi / zpf.mode_step((lo, hi), n_modes) / sample_dt
        # the PSD's bins are those of the step sampled
        omega = np.loadtxt(tmp_path / "psd.csv", delimiter=",", skiprows=1)[:, 0]
        assert omega[1] == pytest.approx(2.0 * math.pi / (512 * h), rel=1e-14)
        rest = n
        for p in (2, 3, 5):
            while rest % p == 0:
                rest //= p
        assert rest == 1

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
        assert 0.0 < payload["rk4_transfer_max_rel_err"] < 1e-5

    def test_stationary_memory_peak(self, tmp_path):
        # z is summed in realization groups and time blocks and never held:
        # the default run's 85,060 x 100 values of z alone would be 68 MB
        import tracemalloc

        sc = validate_config({"scenario": "stationary", "seed": 1})
        tracemalloc.start()
        try:
            run_scenario(sc, str(tmp_path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 64 * 10**6

    @pytest.mark.parametrize("config, file, key, expected", [
        ({"scenario": "stationary"}, "ensemble.json", "mean_z2", 0.5017533341570463),
        (json.loads((Path(__file__).resolve().parents[1] / "perfbench" / "configs"
                     / "stationary.json").read_text()),
         "ensemble.json", "mean_z2", 0.45068234054330625),
        ({"scenario": "psd-check"}, "psd_check.json", "in_band_rms_rel_dev",
         0.00814133909048063),
        ({"scenario": "transient"}, "fit.json", "decay_rate", 0.0024324448075240357),
        ({"scenario": "sweep-epsilon"}, "regression.json", "slope", 0.4999986892074319),
    ], ids=["default", "perfbench", "psd-check", "transient", "sweep-epsilon"])
    def test_stationary_result_pinned(self, tmp_path, config, file, key, expected):
        # catches numeric drift that a rerun of the same tree cannot
        run_scenario(validate_config(dict(config, seed=1)), str(tmp_path))
        assert read_json(tmp_path / file)[key] == pytest.approx(expected, rel=1e-12, abs=0.0)

    def test_stationary_coefficient_footprint(self, tmp_path, dc):
        # a run with many modes holds every realization's phases, no more
        # than the cost table charges it, and one realization group's
        # coefficients: an added realization adds its 8-byte phases alone
        import tracemalloc

        from zitter import scenarios

        n_modes, t_max = 20_000, 200.0
        peaks = {}
        for n_real in (50, 150):
            sc = validate_config({"scenario": "stationary", "seed": 1, "params": {
                "n_modes": n_modes, "n_realizations": n_real, "t_max": t_max,
                "discard_time": 50.0}})
            tracemalloc.start()
            try:
                run_scenario(sc, str(tmp_path / str(n_real)))
                peaks[n_real] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            held = scenarios._cost(sc.name, scenarios._resolve(sc.name, sc.params, dc))[0]
            assert 8 * n_modes * n_real <= peaks[n_real] <= held
        assert peaks[150] - peaks[50] <= 8 * n_modes * 100 + 2 * 10**6

    @pytest.mark.parametrize("config", [
        {"scenario": "constants"},
        {"scenario": "roots"},
        {"scenario": "roots", "params": {"epsilons": [1e-4 + 4e-5 * i for i in range(1000)]}},
        {"scenario": "transient"},
        # the fit's copies span the whole trajectory
        {"scenario": "transient", "params": {"t_max": 1500.0, "fit_window": [1.0, 1500.0]}},
        {"scenario": "stationary"},
        {"scenario": "stationary", "params": {"n_realizations": 1000}},
        {"scenario": "dirac"},
        {"scenario": "dirac", "params": {"n_samples": 10000}},
        {"scenario": "sweep-epsilon"},
        {"scenario": "sweep-epsilon", "params": {"epsilons": [0.0005, 0.001]}},
        {"scenario": "psd-check"},
        {"scenario": "psd-check", "params": {"n_realizations": 32}},
        # Welch segments that overlap by all but 41 samples
        {"scenario": "psd-check", "params": {"segment_len": 4096, "overlap": 0.99}},
        # one realization of 629,856 samples: the mode sum's ramp and buffer
        # are most of the peak
        {"scenario": "psd-check",
         "params": {"n_realizations": 1, "sample_dt": 0.05, "segment_len": 8192}},
    ], ids=["constants", "roots", "roots-1000", "transient", "transient-fit-all",
            "stationary", "stationary-1000", "dirac", "dirac-10000", "sweep-epsilon",
            "sweep-0.0005", "psd-check", "psd-32-realizations", "psd-welch-overlap",
            "psd-fine-step"])
    def test_run_stays_within_its_charge(self, tmp_path, dc, config):
        # the cost table's held bytes bound the traced peak, and its written
        # bytes the output directory, manifest included
        import tracemalloc

        from zitter import scenarios

        sc = validate_config(dict(config, seed=1))
        held, written, _ = scenarios._cost(sc.name, scenarios._resolve(sc.name, sc.params, dc))
        tracemalloc.start()
        try:
            run_scenario(sc, str(tmp_path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= held
        assert sum(f.stat().st_size for f in tmp_path.iterdir()) <= written


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

    def test_bytes_do_not_depend_on_the_blas_kernel(self, tmp_path):
        # a DYNAMIC_ARCH OpenBLAS picks its kernels by CPU at run time, and
        # OPENBLAS_CORETYPE forces one in its own process: a child under each
        # kernel writes every default scenario and the bench's stationary
        # config, byte for byte as this process does
        import subprocess
        import sys

        config = np.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"]
        simd = config["SIMD Extensions"]
        if ("openblas" not in blas["name"].lower()
                or "DYNAMIC_ARCH" not in blas.get("openblas configuration", "")):
            pytest.skip("numpy's BLAS is not a DYNAMIC_ARCH OpenBLAS")
        if not {"X86_V3", "AVX2"} & {*simd["baseline"], *simd["found"]}:
            pytest.skip("the Haswell kernel needs AVX2")
        configs = default_and_bench_configs()
        code = ("import sys\n"
                "from zitter.scenarios import run_scenario, validate_config\n"
                f"for i, config in enumerate({configs!r}):\n"
                "    run_scenario(validate_config(dict(config, seed=1)),\n"
                "                 f'{sys.argv[1]}/{i}')\n")
        here = tmp_path / "here"
        for i, config in enumerate(configs):
            run_scenario(validate_config(dict(config, seed=1)), str(here / str(i)))
        files = sorted(p.relative_to(here) for p in here.rglob("*") if p.is_file())
        for coretype in ("Prescott", "Haswell", "Sandybridge"):
            out = tmp_path / coretype
            done = subprocess.run([sys.executable, "-c", code, str(out)],
                                  env=child_env(OPENBLAS_CORETYPE=coretype),
                                  capture_output=True, text=True, timeout=300)
            assert done.returncode == 0, done.stderr
            assert sorted(p.relative_to(out) for p in out.rglob("*") if p.is_file()) == files
            for name in files:
                assert read_bytes(out / name) == read_bytes(here / name), (coretype, name)

    def test_bytes_do_not_depend_on_the_allocator_policy(self, tmp_path):
        # cli.main keeps freed heap memory in the process on glibc; a child
        # without that policy writes every default scenario and the bench's
        # stationary config byte for byte as a child with it
        import subprocess
        import sys

        paths = []
        for i, config in enumerate(default_and_bench_configs()):
            path = tmp_path / f"{i}.json"
            path.write_text(json.dumps(config))
            paths.append(str(path))
        code = ("import sys\n"
                "from zitter import cli\n"
                "if sys.argv[2] == 'off':\n"
                "    cli._hold_freed_memory = lambda: None\n"
                f"for i, path in enumerate({paths!r}):\n"
                "    assert cli.main(['run', '--config', path, '--seed', '1',\n"
                "                     '--out', f'{sys.argv[1]}/{i}']) == 0\n")
        files = {}
        for policy in ("on", "off"):
            out = tmp_path / policy
            done = subprocess.run([sys.executable, "-c", code, str(out), policy],
                                  env=child_env(), capture_output=True, text=True,
                                  timeout=300)
            assert done.returncode == 0, done.stderr
            files[policy] = sorted(p.relative_to(out) for p in out.rglob("*") if p.is_file())
        assert len(files["on"]) > len(paths)
        assert files["on"] == files["off"]
        for name in files["on"]:
            assert read_bytes(tmp_path / "on" / name) == read_bytes(tmp_path / "off" / name), name

    def test_manifest_is_valid_config(self, tmp_path):
        rc = main(["run", "--scenario", "roots", "--out", str(tmp_path)])
        assert rc == 0
        sc = validate_config(read_json(tmp_path / "manifest.json"))
        assert sc.name == "roots"
        assert sc.params["epsilons"] is not None


class TestAllocatorPolicy:
    def test_repeated_psd_check_faults_in_no_pages(self, tmp_path):
        # glibc trims the heap top after each large free, so without the policy
        # a second default psd-check in one process faults its inverse-FFT
        # scratch and Welch arrays in again, 707-908 pages
        import subprocess
        import sys

        if not on_glibc():
            pytest.skip("the allocator policy applies on glibc only")
        code = ("import resource, sys\n"
                "from zitter import cli\n"
                "for i in range(2):\n"
                "    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
                "    assert cli.main(['run', '--scenario', 'psd-check',\n"
                "                     '--out', f'{sys.argv[1]}/{i}']) == 0\n"
                "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n")
        done = subprocess.run([sys.executable, "-c", code, str(tmp_path)],
                              env=child_env(), capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        assert int(done.stdout.split()[-1]) < 100

    @pytest.mark.parametrize("case", ["glibc", "other-libc", "no-confstr", "no-mallopt"])
    def test_mallopt_is_called_on_glibc_only(self, tmp_path, monkeypatch, capsys, case):
        # both thresholds, trim first: the trim threshold alone would switch
        # off glibc's dynamic mmap threshold and map every array over 128 KB
        # afresh. Elsewhere the policy is a silent no-op
        import ctypes

        def other_libc(name):
            raise ValueError("unrecognized configuration name")

        if case == "glibc" and not on_glibc():
            pytest.skip("the allocator policy applies on glibc only")
        calls = []
        libc = type("Libc", (), {"mallopt": staticmethod(lambda *args: calls.append(args))})
        if case == "other-libc":
            monkeypatch.setattr(os, "confstr", other_libc)
        elif case == "no-confstr":
            monkeypatch.delattr(os, "confstr", raising=False)
        elif case == "no-mallopt":
            libc = object()
        monkeypatch.setattr(ctypes, "CDLL", lambda name: libc)
        assert main(["run", "--scenario", "constants", "--out", str(tmp_path)]) == 0
        assert [option for option, _ in calls] == ([-1, -3] if case == "glibc" else [])
        assert capsys.readouterr().err == ""


class TestExitCodes:
    def test_bad_config_file_returns_2(self, tmp_path):
        missing = tmp_path / "nope.json"
        assert main(["run", "--config", str(missing), "--out", str(tmp_path)]) == 2

    def test_malformed_json_returns_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["run", "--config", str(bad), "--out", str(tmp_path)]) == 2
        # not UTF-8, an integer of more digits than int() converts, nested too deeply
        for content in (b'\xff\xfe{"scenario": "constants"}',
                        b'{"scenario": "constants", "seed": ' + b"1" * 5000 + b"}",
                        b"[" * 100_000):
            bad.write_bytes(content)
            assert main(["run", "--config", str(bad), "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("scenario", ["constants", "roots", "transient", "stationary",
                                          "dirac", "sweep-epsilon", "psd-check"])
    @pytest.mark.parametrize("content", [
        None, b"", b"{not json", b"\xff\xfe", b"[1, 2]",
        json.dumps({"e_statC": 4.8e-10}).encode(),
        # a value that is not a positive finite double
        json.dumps({"e_statC": 10**400, "m_g": 1, "c_cm_per_s": 1, "hbar_erg_s": 1}).encode(),
        json.dumps({"e_statC": "one", "m_g": 1, "c_cm_per_s": 1, "hbar_erg_s": 1}).encode(),
        # JSON numbers only: neither a numeral in text nor a boolean
        json.dumps({"e_statC": "4.80320471e-10", "m_g": 9.1093837015e-28,
                    "c_cm_per_s": 2.99792458e10, "hbar_erg_s": 1.054571817e-27}).encode(),
        json.dumps({"e_statC": True, "m_g": 1, "c_cm_per_s": 1, "hbar_erg_s": 1}).encode(),
        # e^2 underflows to 0, so T_tr = 2 / Gamma divides by zero; c^3 overflows
        json.dumps({"e_statC": 1e-200, "m_g": 1, "c_cm_per_s": 1, "hbar_erg_s": 1}).encode(),
        json.dumps({"e_statC": 1, "m_g": 1, "c_cm_per_s": 1e200, "hbar_erg_s": 1}).encode(),
    ], ids=["missing", "empty", "not-json", "not-utf8", "array", "missing-keys",
            "huge-integer", "text-value", "text-numeral", "boolean", "underflow", "overflow"])
    def test_unusable_constants_file_returns_2(self, tmp_path, capsys, scenario, content):
        constants_file = tmp_path / "constants.json"
        if content is not None:
            constants_file.write_bytes(content)
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"scenario": scenario,
                                    "params": {"constants_file": str(constants_file)}}))
        out = tmp_path / "out"
        assert main(["run", "--config", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "constants_file" in err
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize("scenario", ["roots", "transient", "stationary", "psd-check"])
    def test_constants_implying_unusable_epsilon_return_2(self, tmp_path, capsys, scenario):
        # all four constants 1 give epsilon = 2/3, which a given epsilon may not be
        constants_file = tmp_path / "constants.json"
        constants_file.write_text(json.dumps(
            {"e_statC": 1, "m_g": 1, "c_cm_per_s": 1, "hbar_erg_s": 1}))
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"scenario": scenario,
                                    "params": {"constants_file": str(constants_file)}}))
        out = tmp_path / "out"
        assert main(["run", "--config", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "constants_file" in err
        assert not out.exists() or not any(out.iterdir())

    def test_unusable_out_returns_2(self, tmp_path, capsys):
        a_file = tmp_path / "a_file"
        a_file.write_text("")
        for out in (a_file, a_file / "sub"):
            assert main(["run", "--scenario", "constants", "--out", str(out)]) == 2
            err = capsys.readouterr().err
            assert err.startswith("config error:") and "--out" in err
        assert a_file.read_text() == ""

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
        # the default series holds 30,000 samples per realization
        ({"scenario": "psd-check", "params": {"segment_len": 100000}}, "segment_len"),
        ({"scenario": "transient", "params": {"fit_window": [1, 1e9]}}, "fit_window"),
        # no transient, so no zero crossings to fit
        ({"scenario": "transient", "params": {"z0_re": 0, "z0_im": 0}}, "z0_re"),
        # t_max 2672 passes t_rec 1555 of 100 modes
        ({"scenario": "stationary", "params": {"n_modes": 100}}, "n_modes"),
        ({"scenario": "dirac", "params": {"v0_over_c": 2}}, "v0_over_c"),
        ({"scenario": "dirac", "params": {"energy_over_mc2": 0.5}}, "energy_over_mc2"),
        # the period pi hbar / E is subnormal (4.0e-321 and 4.0e-311 s): the
        # sample times keep a few significant bits and their phases go wrong
        ({"scenario": "dirac", "params": {"energy_over_mc2": 1e300}}, "energy_over_mc2"),
        ({"scenario": "dirac", "params": {"energy_over_mc2": 1e290}}, "energy_over_mc2"),
        # a normal period of 4.0e-308 s, but a subnormal sample step of 3.2e-310 s
        ({"scenario": "dirac", "params": {"energy_over_mc2": 1e287}}, "energy_over_mc2"),
        # under one carrier period: too few zero crossings to fit
        ({"scenario": "transient", "params": {"fit_window": [1, 2]}}, "fit_window"),
        # run sizes past the budgets: 3.2e13 steps, 2e11 mode coefficients, 1.2e10 values
        ({"scenario": "transient", "params": {"t_max": 1e12}}, "t_max"),
        ({"scenario": "stationary", "params": {"n_realizations": 100_000_000}},
         "n_realizations"),
        ({"scenario": "psd-check", "params": {"n_modes": 100_000_000}}, "n_modes"),
        # trajectories past 5.3e6 rows written at 75 bytes a row, or 3.7e6 steps held at
        # 107 bytes a fitted step: 8.8e6, 1.4e7 and 1.9e7 steps
        ({"scenario": "transient", "params": {"t_max": 277332}}, "t_max"),
        ({"scenario": "transient", "params": {"epsilon": 0.099, "t_max": 441297}}, "t_max"),
        ({"scenario": "sweep-epsilon", "params": {"epsilons": [1e-5, 2e-5]}}, "epsilons"),
        # 2.4 GB held at 240 bytes a sample; 565 MB held by 1600 series and
        # their coefficients; 375 s of RK4 over 10^4 runs near 0.001; and
        # 413 MB held by 120,000 roots' records
        ({"scenario": "dirac", "params": {"n_samples": 10**7}}, "n_samples"),
        ({"scenario": "psd-check", "params": {"n_realizations": 1600}}, "n_realizations"),
        ({"scenario": "sweep-epsilon",
          "params": {"epsilons": [1e-3 + 1e-7 * i for i in range(10_000)]}}, "epsilons"),
        ({"scenario": "roots",
          "params": {"epsilons": [1e-3 + 1e-9 * i for i in range(120_000)]}}, "epsilons"),
        # Welch segments two samples apart: 2.7 GB of tapered segments and spectra
        ({"scenario": "psd-check", "params": {"segment_len": 15000, "overlap": 0.9999}},
         "overlap"),
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
        # the last of 9,901 steps lands exactly on t_rec = 2 pi / d_omega =
        # 1555.088363526948 of the mode grid
        ({"scenario": "stationary", "params": {
            "n_modes": 100, "band": [0.8, 1.2], "t_max": 1555.088363526948,
            "dt": 0.15706376765245408, "n_realizations": 2}}, "n_modes"),
        # a mode step (hi - lo) / 2 that rounds to 0: a period of infinitely many samples
        ({"scenario": "psd-check", "params": {"band": [5e-324, 1e-323], "n_modes": 3}},
         "band"),
        # a mode spacing of 5e-17, below the doubles' spacing near 1: the grid's
        # frequencies are not distinct
        ({"scenario": "stationary", "params": {"band": [1.0, 1.0000000000001],
                                               "n_realizations": 2}}, "n_modes"),
        # integers past the double range
        ({"scenario": "transient", "params": {"t_max": 10**400}}, "t_max"),
        ({"scenario": "transient", "params": {"dt": 10**400}}, "dt"),
        ({"scenario": "transient", "params": {"z0_re": 10**400}}, "z0_re"),
        ({"scenario": "stationary", "params": {"discard_time": 10**400}}, "discard_time"),
        ({"scenario": "psd-check", "params": {"n_modes": 10**400}}, "n_modes"),
        ({"scenario": "dirac", "params": {"momentum": 10**400}}, "momentum"),
        ({"scenario": "roots", "params": {"epsilons": [10**400]}}, "epsilons[0]"),
        ({"scenario": "psd-check", "params": {"segment_len": 10**400}}, "segment_len"),
        ({"scenario": "dirac", "params": {"n_samples": 10**400}}, "n_samples"),
        # JSON booleans are not numbers
        ({"scenario": "transient", "params": {"t_max": True, "z0_re": False}}, "t_max"),
        ({"scenario": "transient", "params": {"z0_re": False, "z0_im": 0.5}}, "z0_re"),
        ({"scenario": "psd-check", "params": {"overlap": False}}, "overlap"),
        ({"scenario": "stationary", "params": {"band": [True, 1.2]}}, "band[0]"),
    ], ids=["sweep-one-epsilon", "sweep-repeated-epsilon", "transient-text-window",
            "psd-segment-too-long", "transient-window-past-t-max", "transient-zero-z0",
            "stationary-past-horizon", "dirac-faster-than-light", "dirac-below-rest-energy",
            "dirac-subnormal-period-1e300", "dirac-subnormal-period-1e290",
            "dirac-subnormal-step-1e287",
            "transient-window-too-short", "transient-too-many-steps",
            "stationary-too-many-realizations", "psd-too-many-modes",
            "transient-trajectory-8.8e6-steps", "transient-trajectory-1.4e7-steps",
            "sweep-trajectory-1.9e7-steps", "dirac-too-many-samples",
            "psd-too-many-realizations", "sweep-too-many-epsilons", "roots-too-many-epsilons",
            "psd-welch-segments-overlap",
            "psd-aliased-2.7", "psd-aliased-3.0", "psd-aliased-5.0", "psd-no-bin-in-band",
            "roots-epsilon-too-small", "transient-infinite-velocity",
            "transient-infinite-position", "stationary-horizon-rounding",
            "psd-zero-mode-step", "stationary-band-too-narrow", "transient-huge-t-max",
            "transient-huge-dt",
            "transient-huge-z0", "stationary-huge-discard-time", "psd-huge-n-modes",
            "dirac-huge-momentum", "roots-huge-epsilon", "psd-huge-segment-len",
            "dirac-huge-n-samples", "transient-boolean-t-max", "transient-boolean-z0",
            "psd-boolean-overlap", "stationary-boolean-band"])
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

    @pytest.mark.parametrize("config, what", [
        # eps w^3 / pi overflows near w = 1e103, and so do the drive amplitudes
        ({"scenario": "stationary", "params": {
            "band": [1e103, 1.0000001e103], "n_modes": 2, "dt": 1e-97, "t_max": 1e-96,
            "discard_time": 0}}, "amplitudes"),
        ({"scenario": "psd-check", "params": {
            "band": [1e103, 2e103], "n_modes": 20, "sample_dt": 1.5707963267948966e-103,
            "segment_len": 64, "n_realizations": 1}}, "amplitudes"),
        # finite amplitudes whose Welch power overflows: psd_check.json is
        # refused, and psd.csv, written after it, is never begun
        ({"scenario": "psd-check", "params": {
            "band": [5.5e77, 1.1e78], "n_modes": 20, "sample_dt": 2.855993321445266e-78,
            "segment_len": 64, "n_realizations": 1}}, "psd_check.json"),
    ], ids=["stationary-drive-overflow", "psd-drive-overflow", "psd-welch-overflow"])
    def test_overflowing_drive_returns_3(self, tmp_path, capsys, config, what):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "out"
        # no numpy warning precedes the one line of the message
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["run", "--config", str(path), "--out", str(out)]) == 3
        assert [str(w.message) for w in caught] == []
        err = capsys.readouterr().err
        assert err.startswith("numerical failure") and what in err
        assert err.count("\n") == 1 and err.endswith("\n")
        assert not any(out.iterdir())

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
        # 2e6 mode coefficients, charged 56.4 MB held; z at its 85,060 steps is never formed
        {"scenario": "stationary", "params": {"n_realizations": 1000}},
        # the last of 9,901 steps lands at 1555.0883635269474, 3 ulp under
        # t_rec = 2 pi / d_omega = 1555.088363526948 (stationary-horizon-rounding's twin)
        {"scenario": "stationary", "params": {
            "n_modes": 100, "band": [0.8, 1.2], "t_max": 1555.088363526948,
            "dt": 0.15706376765245403, "n_realizations": 2}},
    ], ids=["default", "perfbench", "1000-realizations", "last-step-under-t_rec"])
    def test_size_limit_admits_stationary(self, tmp_path, monkeypatch, config):
        # every check runs before the modes are synthesized; stop the run there
        class Admitted(Exception):
            pass

        def stop(*args):
            raise Admitted

        monkeypatch.setattr("zitter.zpf.synthesize_ensemble", stop)
        with pytest.raises(Admitted):
            run_scenario(validate_config(config), str(tmp_path))

    @pytest.mark.parametrize("config", [
        # the last step lands at 1499.9999999999998, short of the window's end 6 / eps
        {"scenario": "transient", "params": {"dt": 0.0096, "epsilon": 0.004}},
        {"scenario": "sweep-epsilon", "params": {"dt": 0.0096, "epsilons": [0.004, 0.01]}},
        # and at 1000.0, short of 1000.0000000000001
        {"scenario": "transient", "params": {"dt": 0.01, "t_max": 1000.0000000000001,
                                             "fit_window": [205.0, 1000.0000000000001]}},
    ], ids=["transient-default-window", "sweep", "transient-given-window"])
    def test_window_ending_past_rounded_last_step_runs(self, tmp_path, config):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "out"
        assert main(["run", "--config", str(path), "--out", str(out)]) == 0
        if config["scenario"] == "transient":
            fit = read_json(out / "fit.json")
            last_step = float((out / "trajectory.csv").read_text().splitlines()[-1].split(",")[0])
            assert last_step < fit["window"][1] == read_json(
                out / "manifest.json")["params"]["fit_window"][1]
            assert fit["decay_over_half_epsilon"] == pytest.approx(1.0, rel=1e-2)
        else:
            assert read_json(out / "regression.json")["slope_over_half"] == pytest.approx(
                1.0, rel=1e-2)

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
        done = subprocess.run([sys.executable, "-c", code], env=child_env(),
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

        with open(REPO / "pyproject.toml", "rb") as fh:
            scripts = tomllib.load(fh)["project"]["scripts"]
        assert scripts.get("zitter") == "zitter.cli:entry"
        module_name, func_name = scripts["zitter"].split(":")
        assert callable(getattr(importlib.import_module(module_name), func_name))

        env = child_env()
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
