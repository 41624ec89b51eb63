"""Layered end-to-end benchmark of the zitter CLI.

    python3 perfbench/run.py --workload {stationary,psd-check,decay,all} \
        --seed N --seconds S --trace {0,1}

Each workload iteration runs real ``zitter run`` processes, one process at a
time, each with at most two BLAS threads. ``psd-check`` and ``decay`` run at
the scenarios' default configs; ``stationary`` runs at ``configs/stationary.json``.
Iterations repeat for ``--seconds`` (at least two per run, with the same seed,
so that every run also checks that the outputs are byte-identical). Every
iteration is gated on its physics result; a failed iteration counts against
``fail_ratio``. ``--trace 1`` adds one traced iteration whose spans give the
per-layer metrics.

The metric names and units come from ``BENCHMARK.json``. The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (end-to-end metrics with ``--trace 0``, per-layer with ``--trace 1``).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import select
import shutil
import signal
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC_ZITTER = os.path.join(ROOT, "src", "zitter")
CHILD = os.path.join(HERE, "child.py")
WORK = os.path.join(HERE, ".work")
CONFIGS = os.path.join(HERE, "configs")

sys.path.insert(0, HERE)
import gates  # noqa: E402
from spans import layer_totals  # noqa: E402

#: workload -> the CLI scenarios one iteration runs, in order; metrics are
#: summed over them (peak RSS: the largest)
WORKLOADS = {
    "stationary": ("stationary",),
    "psd-check": ("psd-check",),
    "decay": ("transient", "sweep-epsilon"),
}

#: scenario -> the config a workload runs it at; every other scenario runs at
#: its defaults. ``stationary`` keeps its default ensemble (100 realizations,
#: 2000 modes, band, dt) but sets epsilon to 0.05 instead of 2 alpha / 3 =
#: 0.00486. t_max and the burn-in scale as 1/epsilon, so a run is 8,277 steps
#: on a 16,555-point grid, about 4 s instead of 20 s. At the default, a run
#: had room for two iterations, too few for a steady time on a shared host.
SCENARIO_CONFIGS = {"stationary": os.path.join(CONFIGS, "stationary.json")}

BLAS_THREADS = min(2, os.cpu_count() or 1)
MIN_ITERATIONS = 2
MIN_SETUP_SAMPLES = 5
#: no new iteration starts once one more would end past this, so that a run
#: with --seconds up to 60 exits well inside 180 s
LOOP_BUDGET_S = 120.0
PROCESS_TIMEOUT_S = 150.0


class BenchmarkError(Exception):
    """The benchmark cannot run here at all (as opposed to a failed iteration)."""


def _child_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def spawn(args: list[str], log_path: str, timeout: float) -> tuple[int, float, float, float]:
    """Run ``python3 child.py args``; return (rc, spawn time, exit time, peak RSS MB)."""
    argv = [sys.executable, CHILD, *args]
    actions = [
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_OPEN, 1, log_path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
        (os.POSIX_SPAWN_DUP2, 1, 2),
    ]
    t_spawn = time.monotonic()
    pid = os.posix_spawn(sys.executable, argv, _child_env(), file_actions=actions)
    pidfd = os.pidfd_open(pid)
    try:
        exited, _, _ = select.select([pidfd], [], [], timeout)
        if not exited:
            os.kill(pid, signal.SIGKILL)
    finally:
        os.close(pidfd)
    _, status, usage = os.wait4(pid, 0)
    t_exit = time.monotonic()
    rc = os.waitstatus_to_exitcode(status)
    return (rc if exited else -signal.SIGKILL), t_spawn, t_exit, usage.ru_maxrss / 1024.0


def _read_json(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return None


def _log_tail(path: str) -> str:
    try:
        with open(path, encoding="utf-8", errors="replace") as fh:
            return fh.read()[-300:].strip().replace("\n", " | ")
    except OSError:
        return ""


def _tree_digest(dirs: list[str]) -> tuple[str, int]:
    """SHA-256 over the relative paths and bytes of every file, and their total size."""
    digest = hashlib.sha256()
    total = 0
    for top in dirs:
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                with open(path, "rb") as fh:
                    data = fh.read()
                digest.update(os.path.relpath(path, os.path.dirname(top)).encode())
                digest.update(len(data).to_bytes(8, "little"))
                digest.update(data)
                total += len(data)
    return digest.hexdigest(), total


class Runner:
    """Runs the iterations of one workload and keeps their records."""

    def __init__(self, workload: str, seed: int, work_dir: str, deadline: float,
                 configs: dict | None = None):
        self.workload = workload
        self.scenarios = WORKLOADS[workload]
        self.seed = seed
        self.work_dir = work_dir
        self.deadline = deadline
        #: scenario -> config file
        self.configs = SCENARIO_CONFIGS if configs is None else configs
        self.count = 0
        self.stamp: dict = {}

    def _next_dir(self) -> str:
        self.count += 1
        path = os.path.join(self.work_dir, f"it{self.count:03d}")
        os.makedirs(path)
        return path

    def _timeout(self) -> float:
        return max(1.0, min(PROCESS_TIMEOUT_S, self.deadline - time.monotonic()))

    def probe(self, n_processes: int | None = None) -> float | None:
        """Set-up time alone: import-only processes, summed like an iteration."""
        it_dir = self._next_dir()
        total = 0.0
        for i in range(n_processes or len(self.scenarios)):
            timing = os.path.join(it_dir, f"probe{i}.json")
            rc, t_spawn, _, _ = spawn(["--timing", timing, "--probe"],
                                      os.path.join(it_dir, f"probe{i}.log"), self._timeout())
            record = _read_json(timing)
            if rc != 0 or record is None:
                return None
            total += record["t_ready"] - t_spawn
        shutil.rmtree(it_dir)
        return total

    def iteration(self, traced: bool = False) -> dict:
        """One workload iteration: run, time, gate and digest every scenario process."""
        it_dir = self._next_dir()
        it = {"traced": traced, "wall_s": 0.0, "setup_s": 0.0, "run_s": 0.0,
              "peak_rss_mb": 0.0, "failures": [], "spans": [], "timed": True}
        out_dirs = []
        for scenario in self.scenarios:
            out_dir = os.path.join(it_dir, "out", scenario)
            timing = os.path.join(it_dir, f"{scenario}.timing.json")
            log = os.path.join(it_dir, f"{scenario}.log")
            args = ["--timing", timing]
            trace_file = os.path.join(it_dir, f"{scenario}.spans.json")
            if traced:
                args += ["--trace", trace_file]
            args += ["--", "run", "--scenario", scenario, "--seed", str(self.seed),
                     "--out", out_dir]
            if scenario in self.configs:
                args += ["--config", self.configs[scenario]]
            rc, t_spawn, t_exit, peak = spawn(args, log, self._timeout())
            record = _read_json(timing)
            out_dirs.append(out_dir)
            if rc != 0 or record is None:
                it["failures"].append(f"{scenario}: exit code {rc}: {_log_tail(log)}")
                it["timed"] = False
                continue
            if not record["zitter_file"].startswith(SRC_ZITTER + os.sep):
                it["failures"].append(f"{scenario}: imported {record['zitter_file']}, "
                                      f"not the checkout's {SRC_ZITTER}")
            it["wall_s"] += t_exit - t_spawn
            it["setup_s"] += record["t_ready"] - t_spawn
            it["run_s"] += record["run_s"]
            it["peak_rss_mb"] = max(it["peak_rss_mb"], peak)
            self.stamp.update(numpy=record["numpy"], scipy=record["scipy"],
                              blas_threads=record["blas_threads"])
            it["failures"] += [f"{scenario}: {f}" for f in gates.check(scenario, out_dir)]
            if traced:
                spans = _read_json(trace_file)
                if spans is None:
                    it["failures"].append(f"{scenario}: no spans were written")
                else:
                    offset = len(it["spans"])
                    for span in spans:
                        if span["parent"] is not None:
                            span["parent"] += offset
                    it["spans"] += spans
        it["digest"], it["output_bytes"] = _tree_digest(
            [d for d in out_dirs if os.path.isdir(d)])
        shutil.rmtree(it_dir)
        return it


def _git_commit(root: str) -> str:
    """HEAD of the checkout if it is a git work tree, read without running git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.isfile(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def upper_quartile(values) -> float:
    """Third quartile of the values, interpolated within their range.

    On a shared machine the program runs at one speed most of the time and up
    to 1.6x faster in stretches of seconds when other tenants pause, at random.
    The upper quartile follows the steady speed and ignores those stretches as
    long as a quarter of the iterations miss them; the fastest iteration and
    the median follow how much of the run they covered.
    """
    values = sorted(values)
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=4, method="inclusive")[2]


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """All iterations of one workload; returns the record behind the result line."""
    t0 = time.monotonic()
    work_dir = os.path.join(WORK, f"{workload}-{seed}-{os.getpid()}")
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    runner = Runner(workload, seed, work_dir, deadline=t0 + 170.0)
    try:
        # the first import after a checkout compiles bytecode once; users do
        # not pay that on every run, so it is not timed
        if runner.probe(n_processes=1) is None:
            raise BenchmarkError("the zitter CLI cannot be imported in a child process")
        iterations = []
        reserve = 2 if trace else 1
        while True:
            it = runner.iteration()
            iterations.append(it)
            elapsed = time.monotonic() - t0
            if len(iterations) >= MIN_ITERATIONS and elapsed >= seconds:
                break
            if elapsed + reserve * it["wall_s"] > LOOP_BUDGET_S:
                break
        traced = runner.iteration(traced=True) if trace else None
        setups = [it["setup_s"] for it in iterations if it["timed"]]
        while len(setups) < MIN_SETUP_SAMPLES and time.monotonic() < runner.deadline - 10.0:
            sample = runner.probe()
            if sample is None:
                break
            setups.append(sample)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    attempted = iterations + ([traced] if traced else [])
    reference = attempted[0]["digest"]
    for it in attempted[1:]:
        if it["digest"] != reference:
            it["failures"].append("outputs differ from the first iteration with the same seed")
    timed = [it for it in iterations if it["timed"]]
    if not timed:
        raise BenchmarkError("no iteration ran to completion: "
                             + "; ".join(attempted[0]["failures"]))
    end_to_end = {
        "wall_s": upper_quartile(it["wall_s"] for it in timed),
        "setup_s": upper_quartile(setups),
        "run_s": upper_quartile(it["run_s"] for it in timed),
        "peak_rss_mb": statistics.median(it["peak_rss_mb"] for it in timed),
    }
    failed = sum(1 for it in attempted if it["failures"])
    record = {
        "workload": workload,
        "iterations": len(iterations),
        "setup_samples": len(setups),
        "attempted": len(attempted),
        "failed": failed,
        "fail_ratio": failed / len(attempted),
        "failures": [f for it in attempted for f in it["failures"]],
        "end_to_end": end_to_end,
        "samples": {"setup_s": setups,
                    **{k: [it[k] for it in timed] for k in ("wall_s", "run_s", "peak_rss_mb")}},
        "stamp": {"seed": seed, "nproc": os.cpu_count(), "python": platform.python_version(),
                  "git_commit": _git_commit(ROOT), **runner.stamp},
    }
    if traced is not None and traced["timed"]:
        layers = layer_totals(traced["spans"])
        covered = sum(v for k, v in layers.items()
                      if k.endswith(".self_s") and k != "cli.main.self_s")
        layers.update({
            "scenarios.output_bytes": traced["output_bytes"],
            "trace.run_s": traced["run_s"],
            "trace.overhead_s": traced["run_s"] - statistics.median(it["run_s"] for it in timed),
            "trace.uncovered_s": traced["run_s"] - covered,
        })
        record["per_layer"] = layers
    return record


def _metrics(spec: list[dict], values: dict) -> dict:
    return {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]} for m in spec}


def _report(record: dict, spec: dict, trace: bool) -> dict:
    """Print a human-readable table of one workload; return its metrics."""
    e2e = record["end_to_end"]
    print(f"workload {record['workload']}: {record['iterations']} iterations, "
          f"{record['setup_samples']} set-up samples; times are upper quartiles, "
          f"peak_rss_mb the median")
    for m in spec["end_to_end"]:
        samples = record["samples"].get(m["name"])
        spread = (f"  (n={len(samples)}, min {min(samples):.4f}, median "
                  f"{statistics.median(samples):.4f}, max {max(samples):.4f})"
                  if samples else "")
        print(f"  {m['name']:<14} {e2e[m['name']]:>12.4f} {m['unit']}{spread}")
    print(f"  {'fail_ratio':<14} {record['fail_ratio']:>12.4f} "
          f"({record['failed']}/{record['attempted']})")
    for failure in record["failures"]:
        print(f"  FAILED: {failure}")
    if not trace:
        return _metrics(spec["end_to_end"], e2e)
    layers = record.get("per_layer", {})
    print("  per layer (traced iteration):")
    for m in spec["per_layer"]:
        print(f"  {m['name']:<44} {layers.get(m['name'], 0):>16.6g} {m['unit']}")
    return _metrics(spec["per_layer"], layers)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**64:
        parser.error("--seed must lie in [0, 2^64)")
    if not 0 < args.seconds <= 60:
        parser.error("--seconds must lie in (0, 60]")

    try:
        if not os.path.isfile(os.path.join(SRC_ZITTER, "cli.py")):
            raise BenchmarkError(f"no zitter sources at {SRC_ZITTER}")
        spec = _read_json(os.path.join(ROOT, "BENCHMARK.json"))
        if spec is None:
            raise BenchmarkError("BENCHMARK.json is missing or unreadable")
        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        records = [run_workload(w, args.seed, args.seconds, bool(args.trace)) for w in names]
    except BenchmarkError as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 1

    metrics = {}
    for record in records:
        values = _report(record, spec, bool(args.trace))
        prefix = "" if len(records) == 1 else record["workload"] + "."
        metrics.update({prefix + k: v for k, v in values.items()})
    print("stamp: " + json.dumps(records[0]["stamp"], sort_keys=True))
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
