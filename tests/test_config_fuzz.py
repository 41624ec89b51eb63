"""Config validation and admission either accept a config or refuse it with ConfigError.

Property tests over every scenario's schema. For validation each parameter
draws JSON-like values of every type, including integers far past the double
range, NaN, infinities, subnormals and nested lists; for admission, values
across the range validation admits. Neither runs anything. The command line
runs generated configs in child processes, each either admitted and cheap or
refused, and is held to its exit-code and stderr contract.
"""

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from zitter import scenarios
from zitter.errors import ConfigError
from zitter.scenarios import SCENARIO_NAMES, Scenario, validate_config

SCALARS = st.one_of(
    st.sampled_from([10**400, -10**400, 2**1024, 2**53 + 1]),  # past the double range
    st.integers(min_value=-10**400, max_value=10**400),
    st.floats(),  # NaN, infinities and subnormals included
    st.sampled_from([sys.float_info.max, 5e-324, 1e-20, 0.1, 1.0, scenarios._DEFAULT_DT]),
    st.booleans(),
    st.text(max_size=8),
    st.none(),
)
VALUES = st.recursive(SCALARS, lambda inner: st.lists(inner, max_size=4), max_leaves=8)


@pytest.mark.parametrize("name", SCENARIO_NAMES)
@settings(max_examples=60, deadline=None, database=None)
@given(data=st.data())
def test_validation_returns_a_scenario_or_refuses(name, data):
    schema = scenarios._SCHEMAS[name]
    params = data.draw(st.fixed_dictionaries({}, optional=dict.fromkeys(schema, VALUES)),
                       label="params")
    raw = {"scenario": name, "params": params}
    if data.draw(st.booleans(), label="with seed"):
        raw["seed"] = data.draw(VALUES, label="seed")
    try:
        sc = validate_config(raw)
    except ConfigError:
        return
    assert isinstance(sc, Scenario)


# per parameter, values across the range validation admits, out to its ends
POSITIVE = st.floats(min_value=5e-324, max_value=sys.float_info.max)
COUNT = st.one_of(st.integers(min_value=1, max_value=2**53), st.sampled_from([2, 16, 2**53]))
PAIR = st.lists(st.floats(min_value=0.0, max_value=1e300), min_size=2, max_size=2).map(sorted)
EPSILON = st.floats(min_value=1e-20, max_value=0.1, exclude_max=True)
ADMISSIBLE = {
    "epsilon": EPSILON,
    "epsilons": st.lists(EPSILON, min_size=1, max_size=5),
    "dt": st.floats(min_value=5e-324, max_value=0.157),
    "t_max": POSITIVE,
    "fit_window": PAIR,
    "z0_re": st.floats(min_value=-1e300, max_value=1e300),
    "z0_im": st.floats(min_value=-1e300, max_value=1e300),
    "n_modes": COUNT,
    "band": PAIR,
    "n_realizations": COUNT,
    "discard_time": POSITIVE,
    "energy_over_mc2": st.floats(min_value=1.0, max_value=1e300),
    "momentum": st.floats(min_value=-1e300, max_value=1e300),
    "v0_over_c": st.floats(min_value=-1.0, max_value=1.0),
    "n_samples": COUNT,
    "n_periods": POSITIVE,
    "sample_dt": POSITIVE,
    "segment_len": COUNT,
    "overlap": st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
}


@pytest.mark.parametrize("name", SCENARIO_NAMES)
@settings(max_examples=100, deadline=None, database=None)
@given(data=st.data())
def test_admission_returns_charges_within_budget_or_refuses(name, data, dc):
    # default resolution and the cost table run no scenario; a count of 2^53
    # must be charged, not looped over
    keys = [key for key in scenarios._SCHEMAS[name] if key != "constants_file"]
    params = data.draw(st.fixed_dictionaries(
        {}, optional={key: ADMISSIBLE[key] for key in keys}), label="params")
    try:
        sc = validate_config({"scenario": name, "params": params})
        charges = scenarios._cost(name, scenarios._resolve(name, sc.params, dc))
    except ConfigError:
        return
    assert len(charges) == len(scenarios._BUDGET) == 3
    assert all(0.0 <= charge <= budget for charge, budget in zip(charges, scenarios._BUDGET))


# per parameter, small values validation admits, so that an admitted run is short
SMALL = {
    "epsilon": st.sampled_from([0.005, 0.05, 0.099]),
    "epsilons": st.lists(st.sampled_from([0.01, 0.05, 0.09]), min_size=1, max_size=3),
    "dt": st.sampled_from([0.01, scenarios._DEFAULT_DT, 0.157]),
    "t_max": st.sampled_from([1.0, 60.0, 400.0]),
    "fit_window": st.sampled_from([[1.0, 20.0], [10.0, 300.0]]),
    "z0_re": st.sampled_from([0.0, 0.5, -2.0]),
    "z0_im": st.sampled_from([0.0, 0.5, -2.0]),
    "n_modes": st.sampled_from([2, 16, 300]),
    "band": st.sampled_from([[0.8, 1.2], [0.5, 2.0], [0.99, 1.01]]),
    "n_realizations": st.sampled_from([1, 2, 8]),
    "discard_time": st.sampled_from([0.0, 20.0, 200.0]),
    "energy_over_mc2": st.sampled_from([1.0, 3.0, 1e6]),
    "momentum": st.sampled_from([0.0, 1e-17, -3e-16]),
    "v0_over_c": st.sampled_from([0.0, 0.5, -1.0]),
    "n_samples": st.sampled_from([2, 100, 2000]),
    "n_periods": st.sampled_from([0.5, 2.0, 100.0]),
    "sample_dt": st.sampled_from([0.1, 0.5, 2.0]),
    "segment_len": st.sampled_from([16, 256, 1024]),
    "overlap": st.sampled_from([0.0, 0.5, 0.9]),
}
#: the most work, in the cost table's microseconds, of a config run in a child
_CHILD_WORK = 5e5
#: the command line, under a 3 GB address-space limit that the child sets on
#: itself: forking this threaded process to set it there is unsafe
_CHILD = ("import resource, runpy; "
          "resource.setrlimit(resource.RLIMIT_AS, "
          "(3 << 30, resource.getrlimit(resource.RLIMIT_AS)[1])); "
          "runpy.run_module('zitter.cli', run_name='__main__')")


def _not_an_integer(text):
    try:
        int(text)
    except ValueError:
        return True
    return False


#: how each drawn command line is edited; every edit but "none" makes it a refusal
_ARGV_EDITS = ("none", "drop --out", "bad --seed", "unknown flag", "drop run")
#: --seed texts that int() refuses (an argument holds no NUL and no lone surrogate)
_SEED_TEXTS = st.text(st.characters(exclude_categories=("Cs",), exclude_characters="\x00")
                      ).filter(_not_an_integer)
#: long options that are no prefix of ``zitter run``'s, so that none is taken for one
_UNKNOWN_FLAGS = st.from_regex(r"[a-z][a-z0-9-]{0,7}", fullmatch=True).filter(
    lambda flag: not any(option.startswith(flag)
                         for option in ("help", "scenario", "config", "seed", "out")))


#: 30 derandomized examples, unless the ``cli-fuzz`` profile (tests/conftest.py)
#: is loaded to set the count and draw from ``--hypothesis-seed``
_CLI_EXAMPLES = ({} if settings.get_current_profile_name() == "cli-fuzz"
                 else {"max_examples": 30, "derandomize": True})


@settings(deadline=None, database=None, **_CLI_EXAMPLES)
@given(data=st.data())
def test_cli_exits_0_2_or_3_and_refusals_write_nothing(data, dc):
    name = data.draw(st.sampled_from(SCENARIO_NAMES), label="scenario")
    keys = [key for key in scenarios._SCHEMAS[name] if key != "constants_file"]
    # half the configs take small admissible values alone, so that many run
    mixed = data.draw(st.booleans(), label="mixed")

    def values(small):
        return st.one_of(VALUES, small) if mixed else small

    params = data.draw(st.fixed_dictionaries(
        {}, optional={key: values(SMALL[key]) for key in keys}), label="params")
    raw = {"scenario": name, "params": params}
    if data.draw(st.booleans(), label="with seed"):
        raw["seed"] = data.draw(values(st.integers(0, 2**64 - 1)), label="seed")
    edit = data.draw(st.sampled_from(_ARGV_EDITS), label="argv edit")
    refused = edit != "none"
    try:
        sc = validate_config(raw)
        work = scenarios._cost(name, scenarios._resolve(name, sc.params, dc))[2]
    except ConfigError:
        refused = True  # refused configs run too
    else:
        assume(refused or work <= _CHILD_WORK)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(Path(__file__).resolve().parents[1] / "src"), env.get("PYTHONPATH")]))
    with tempfile.TemporaryDirectory() as tmp:
        config, out = Path(tmp) / "config.json", Path(tmp) / "out"
        config.write_text(json.dumps(raw))
        argv = ["run", "--config", str(config), "--out", str(out)]
        if edit == "drop --out":
            argv = argv[:3]
        elif edit == "bad --seed":
            argv += ["--seed", data.draw(_SEED_TEXTS, label="seed text")]
        elif edit == "unknown flag":
            argv.append("--" + data.draw(_UNKNOWN_FLAGS, label="flag"))
        elif edit == "drop run":
            argv = argv[1:]
        proc = subprocess.run([sys.executable, "-c", _CHILD, *argv],
                              env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode in (0, 2, 3), proc.stderr
        assert not refused or proc.returncode == 2, proc.stderr
        # success is silent; a refusal or a failure is one line of message, no
        # traceback or warning, and writes nothing
        if proc.returncode == 0:
            assert proc.stderr == ""
        else:
            prefix = "config error:" if proc.returncode == 2 else "numerical failure"
            assert proc.stderr.startswith(prefix), proc.stderr
            assert proc.stderr.count("\n") == 1 and proc.stderr.endswith("\n"), proc.stderr
            assert not out.exists() or not any(out.iterdir()), proc.stderr
