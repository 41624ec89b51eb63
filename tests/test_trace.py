"""The benchmark's outside-in tracer still reads the program's layers.

``perfbench/spans.py`` wraps every public function of the zitter layers and
computes per-layer counts from their arguments. A signature change that a
count function no longer understands shows up as ``count_error`` in a span.
"""

import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

import zitter.cli  # noqa: F401  (its bindings are instrumented too)
from zitter import scenarios

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def tracer(monkeypatch):
    # instrument() rebinds functions in every zitter module; monkeypatch puts
    # each original binding back after the test
    for mod_name, module in list(sys.modules.items()):
        if mod_name == "zitter" or mod_name.startswith("zitter."):
            for name, obj in list(vars(module).items()):
                if inspect.isfunction(obj):
                    monkeypatch.setattr(module, name, obj)
    spans = load_spans()
    tracer = spans.Tracer()
    tracer.instrument()
    return tracer, spans


@pytest.mark.parametrize("config", [
    {"scenario": "stationary", "params": {"n_modes": 200, "n_realizations": 4,
                                          "t_max": 300.0, "discard_time": 100.0}},
    {"scenario": "psd-check", "params": {"n_modes": 200, "n_realizations": 2}},
    {"scenario": "transient", "params": {"epsilon": 0.05}},
], ids=["stationary", "psd-check", "transient"])
def test_no_span_records_a_count_error(tmp_path, tracer, config):
    tracer, spans = tracer
    # through the module, whose bindings the tracer replaced
    scenarios.run_scenario(scenarios.validate_config(config), str(tmp_path))
    names = {span["name"] for span in tracer.spans}
    assert "scenarios.run_scenario" in names
    assert [span["name"] for span in tracer.spans if "count_error" in span["counts"]] == []
    totals = spans.layer_totals(tracer.spans)
    if config["scenario"] == "transient":
        assert totals["dynamics.integrate_transient.steps"] > 0
        assert totals["dynamics.trajectory_to_csv.bytes"] > 0
    # the layers the benchmark times are still public, so the tracer wraps them
    if config["scenario"] == "stationary":
        assert totals["dynamics.stationary_mean_z2.calls"] == 1
    if config["scenario"] == "psd-check":
        assert totals["zpf.psd_to_csv.bytes"] > 0
        assert totals["zpf.period_sum.calls"] == 1
        assert totals["zpf.synthesize_ensemble.calls"] == 1
