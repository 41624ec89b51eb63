"""Outside-in spans around the public functions of the zitter layers.

The tracer wraps functions from the outside: it replaces every binding of a
public function of ``zitter.zpf``, ``zitter.dynamics``, ``zitter.analysis``
and ``zitter.scenarios`` with a timing wrapper, so no program source changes.
Spans stay in memory and are written out once, when the traced process ends.

A span's self time is its duration minus the part of its interval that its
child spans cover.
"""

from __future__ import annotations

import functools
import inspect
import math
import os
import resource
import sys
import time

LAYERS = ("zpf", "dynamics", "analysis", "scenarios")

_PAGE_BYTES = os.sysconf("SC_PAGE_SIZE")
_MB = 1024.0 * 1024.0


def _rss_mb() -> float:
    with open("/proc/self/statm", "rb") as fh:
        return int(fh.read().split()[1]) * _PAGE_BYTES / _MB


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# Counts are computed from the arguments (and, for files, from what the call
# wrote), so they repeat exactly for a given config.

def _mode_sum_counts(args):
    n_t = len(args["times"])
    n_k = len(args["omegas"])
    coeff = args["cos_coeff"]
    n_r = 1 if coeff.ndim == 1 else coeff.shape[1]
    # phase, cos and sin matrices, the two coefficient blocks and the output
    return {"points": n_t * n_k, "computed_bytes": 8 * (3 * n_t * n_k + 2 * n_k * n_r + n_t * n_r)}


def _n_steps(dt, t_max):
    return math.ceil(t_max / dt - 1e-9)


def _ensemble_counts(args):
    return {"steps": len(args["drives"]) * _n_steps(args["dt"], args["t_max"])}


def _transient_counts(args):
    return {"steps": _n_steps(args["dt"], args["t_max"])}


def _file_counts(args):
    return {"bytes": os.path.getsize(args["path"])}


#: per-function extras: count function and whether to record RSS growth
INSTRUMENTS = {
    "zpf.mode_sum": (_mode_sum_counts, True),
    "zpf.psd_to_csv": (_file_counts, False),
    "dynamics.integrate_ensemble": (_ensemble_counts, True),
    "dynamics.integrate_transient": (_transient_counts, False),
    "dynamics.trajectory_to_csv": (_file_counts, False),
}


class Tracer:
    """Records nested spans: name, start, end, parent index and counts."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def begin(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append({"name": name, "start": self.clock(), "end": None,
                           "parent": parent, "counts": {}})
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        if self._stack.pop() != index:
            raise RuntimeError("spans must end in the reverse order of their start")
        self.spans[index]["end"] = self.clock()

    def wrap(self, name: str, fn):
        counter, track_rss = INSTRUMENTS.get(name, (None, False))
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if track_rss:
                rss_before = _rss_mb()
            index = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(index)
            span = self.spans[index]
            if track_rss:
                span["counts"]["rss_growth_mb"] = max(0.0, _peak_rss_mb() - rss_before)
            if counter is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                try:
                    span["counts"].update(counter(bound.arguments))
                except (AttributeError, KeyError, OSError, TypeError, ValueError):
                    span["counts"]["count_error"] = 1
            return result

        return traced

    def instrument(self, package: str = "zitter") -> None:
        """Wrap the public functions of every layer, in every module that binds them."""
        wrapped = {}
        for layer in LAYERS:
            module = sys.modules[f"{package}.{layer}"]
            for attr, obj in vars(module).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == module.__name__):
                    wrapped[obj] = self.wrap(f"{layer}.{attr}", obj)
        for mod_name, module in list(sys.modules.items()):
            if mod_name != package and not mod_name.startswith(package + "."):
                continue
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    setattr(module, attr, wrapped[obj])


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the union of its direct children's intervals."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append((span["start"], span["end"]))
    out = []
    for i, span in enumerate(spans):
        covered = 0.0
        reach = span["start"]
        for lo, hi in sorted(children.get(i, [])):
            lo, hi = max(lo, reach), min(hi, span["end"])
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(span["end"] - span["start"] - covered)
    return out


def layer_totals(spans: list[dict]) -> dict[str, float]:
    """Sum self time, calls and counts per span name: ``<name>.self_s`` etc."""
    totals: dict[str, float] = {}
    for span, self_s in zip(spans, self_times(spans)):
        name = span["name"]
        totals[f"{name}.self_s"] = totals.get(f"{name}.self_s", 0.0) + self_s
        totals[f"{name}.calls"] = totals.get(f"{name}.calls", 0) + 1
        for key, value in span["counts"].items():
            totals[f"{name}.{key}"] = totals.get(f"{name}.{key}", 0) + value
    return totals
