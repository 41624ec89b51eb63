"""Config validation and admission either accept a config or refuse it with ConfigError.

Property tests over every scenario's schema. For validation each parameter
draws JSON-like values of every type, including integers far past the double
range, NaN, infinities, subnormals and nested lists; for admission, values
across the range validation admits. Neither runs anything, so no generated
config is ever run.
"""

import sys

import pytest
from hypothesis import given, settings
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
