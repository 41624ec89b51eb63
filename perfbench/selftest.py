"""Self-test of the benchmark harness, at tiny sizes.

    python3 perfbench/selftest.py

Checks the self-time arithmetic of the spans, the runner on a tiny
``stationary`` config (timings, exact counts, byte-identical outputs), that
the physics gate passes a real ``decay`` iteration and counts a tampered
payload or a changed output as failed, and that the benchmark refuses to run
without the program's sources. Takes about half a minute. Exits 1 on failure.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import gates  # noqa: E402
import run  # noqa: E402
from spans import Tracer, layer_totals, self_times  # noqa: E402

SCRATCH = os.path.join(run.WORK, f"selftest-{os.getpid()}")


def check_self_times():
    ticks = iter([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 10.0])
    tracer = Tracer(clock=lambda: next(ticks))
    a = tracer.begin("a")
    b = tracer.begin("b")
    tracer.end(tracer.begin("c"))    # c: [2, 3]
    tracer.end(b)                    # b: [1, 4]
    tracer.end(tracer.begin("c"))    # c: [5, 6]
    tracer.end(a)                    # a: [0, 10]
    assert self_times(tracer.spans) == [6.0, 2.0, 1.0, 1.0], self_times(tracer.spans)
    totals = layer_totals(tracer.spans)
    assert totals["c.self_s"] == 2.0 and totals["c.calls"] == 2, totals

    # overlapping children are covered once; a child is clipped to its parent
    spans = [{"name": "p", "start": 0.0, "end": 10.0, "parent": None, "counts": {}},
             {"name": "x", "start": 1.0, "end": 4.0, "parent": 0, "counts": {}},
             {"name": "y", "start": 3.0, "end": 5.0, "parent": 0, "counts": {}},
             {"name": "z", "start": 9.0, "end": 12.0, "parent": 0, "counts": {}}]
    assert self_times(spans)[0] == 10.0 - 4.0 - 1.0, self_times(spans)
    print("ok  span self-time arithmetic")


def check_runner_tiny_stationary():
    params = {"n_realizations": 2, "n_modes": 64, "t_max": 200.0, "discard_time": 50.0}
    config = os.path.join(SCRATCH, "tiny.json")
    with open(config, "w", encoding="utf-8") as fh:
        json.dump({"params": params}, fh)
    seen = []

    def record_files(scenario, out_dir):
        seen.append(sorted(os.listdir(out_dir)))
        return []   # two short realizations cannot pass the physics gate

    original, run.gates.check = run.gates.check, record_files
    try:
        runner = run.Runner("stationary", 7, os.path.join(SCRATCH, "tiny"),
                            deadline=time.monotonic() + 120.0,
                            configs={"stationary": config})
        plain = runner.iteration()
        traced = runner.iteration(traced=True)
    finally:
        run.gates.check = original
    for it in (plain, traced):
        assert it["timed"] and not it["failures"], it["failures"]
        assert 0.0 < it["setup_s"] < it["wall_s"] and 0.0 < it["run_s"] < it["wall_s"], it
        assert it["peak_rss_mb"] > 10.0, it["peak_rss_mb"]
    assert seen == [sorted(gates.EXPECTED_FILES["stationary"])] * 2, seen
    assert plain["digest"] == traced["digest"], "traced outputs differ from untraced"
    assert plain["output_bytes"] == traced["output_bytes"] > 0

    n_steps = math.ceil(params["t_max"] / (2.0 * math.pi / 200.0) - 1e-9)
    layers = layer_totals(traced["spans"])
    expected = {
        "zpf.mode_sum.calls": 1,
        "zpf.mode_sum.points": (2 * n_steps + 1) * params["n_modes"],
        "zpf.synthesize_band.calls": params["n_realizations"],
        "dynamics.integrate_ensemble.steps": params["n_realizations"] * n_steps,
        "scenarios.run_scenario.calls": 1,
        "cli.main.calls": 1,
    }
    for name, value in expected.items():
        assert layers.get(name) == value, (name, layers.get(name), value)
    assert layers["zpf.mode_sum.rss_growth_mb"] >= 0.0
    covered = sum(layers[k] for k in layers if k.endswith(".self_s") and k != "cli.main.self_s")
    assert 0.0 < covered <= traced["run_s"] * 1.01, (covered, traced["run_s"])
    print(f"ok  runner on tiny stationary: {n_steps} steps, spans cover "
          f"{covered / traced['run_s']:.1%} of run_s, outputs byte-identical")


def check_gate_counts_tampering():
    runner = run.Runner("decay", 3, os.path.join(SCRATCH, "decay"),
                        deadline=time.monotonic() + 120.0)
    it = runner.iteration()
    assert it["timed"] and not it["failures"], it["failures"]
    original_check, original_digest = run.gates.check, run._tree_digest

    def tampered(scenario, out_dir):
        if scenario == "transient":
            path = os.path.join(out_dir, "fit.json")
            with open(path, encoding="utf-8") as fh:
                fit = json.load(fh)
            fit["decay_over_half_epsilon"] *= 1.02
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(fit, fh)
        return original_check(scenario, out_dir)

    digests = (f"{i:064x}" for i in itertools.count())
    run.gates.check = tampered
    run._tree_digest = lambda dirs: (next(digests), original_digest(dirs)[1])
    try:
        record = run.run_workload("decay", 3, seconds=0.1, trace=False)
    finally:
        run.gates.check, run._tree_digest = original_check, original_digest
    assert record["failed"] == record["attempted"] >= 2, record
    assert record["fail_ratio"] == 1.0
    gate = [f for f in record["failures"] if "decay_over_half_epsilon" in f]
    differ = [f for f in record["failures"] if "outputs differ" in f]
    assert len(gate) == record["attempted"] and len(differ) == record["attempted"] - 1, record
    print(f"ok  tampered payloads and changed outputs counted: "
          f"fail_ratio {record['failed']}/{record['attempted']}")


def check_refuses_without_sources():
    bare = os.path.join(SCRATCH, "bare")
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "decay",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=60, check=False)
    assert proc.returncode != 0 and '"correct"' not in proc.stdout, proc
    print("ok  refuses to run with only BENCHMARK.json and perfbench/")


def main() -> int:
    os.makedirs(SCRATCH)
    try:
        check_self_times()
        check_runner_tiny_stationary()
        check_gate_counts_tampering()
        check_refuses_without_sources()
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
