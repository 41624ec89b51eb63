"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload stationary --seeds 1 2 3 4 5 \
        [--seconds 20] [--out summary.json] [--compare earlier.json]

Runs ``run.py`` once per seed, one run at a time, and reports for every
end-to-end metric the median of the per-run values and the distance between
their first and third quartiles as a share of the median. A spread must stay
below a third of the metric's bound in ``BENCHMARK.json``. With ``--compare``,
each median must also be no worse than the earlier summary's by more than the
bound. Exits 1 if any run fails or any check does not hold.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=200, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(spec: dict, results: list[dict]) -> dict:
    out = {}
    for metric in spec["end_to_end"]:
        values = [r["metrics"][metric["name"]]["value"] for r in results]
        q1, _, q3 = statistics.quantiles(values, n=4)
        median = statistics.median(values)
        out[metric["name"]] = {"median": median, "q1": q1, "q3": q3,
                               "spread": (q3 - q1) / median, "values": values}
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--out")
    parser.add_argument("--compare")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    seconds = args.seconds or spec["run_seconds"]

    results = []
    for seed in args.seeds:
        result = run_once(args.workload, seed, seconds)
        results.append(result)
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']}/"
              f"{result['attempted']} " + " ".join(
                  f"{k}={v['value']:.4f}" for k, v in result["metrics"].items()), flush=True)
    summary = summarize(spec, results)
    earlier = None
    if args.compare:
        with open(args.compare, encoding="utf-8") as fh:
            earlier = json.load(fh)["metrics"]

    ok = all(r["correct"] for r in results)
    for metric in spec["end_to_end"]:
        s = summary[metric["name"]]
        bound = metric["bound"]
        verdict = "ok" if metric["name"] == "setup_s" or s["spread"] < bound / 3 else "WIDE"
        line = (f"{metric['name']:<12} median {s['median']:.4f} {metric['unit']}  "
                f"spread {s['spread']:.4f} (bound {bound}, limit {bound / 3:.4f}) {verdict}")
        ok &= verdict == "ok"
        if earlier is not None:
            change = s["median"] / earlier[metric["name"]]["median"] - 1.0
            worse = change > bound if metric["better"] == "lower" else -change > bound
            line += f"  vs earlier {change:+.4f} {'WORSE' if worse else 'ok'}"
            ok &= not worse
        print(line)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"workload": args.workload, "seeds": args.seeds, "seconds": seconds,
                       "metrics": summary}, fh, indent=2)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
