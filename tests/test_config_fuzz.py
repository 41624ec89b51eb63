"""Config validation either accepts a config or refuses it with ConfigError.

A property test over every scenario's schema: each parameter draws JSON-like
values of every type, including integers far past the double range, NaN,
infinities, subnormals and nested lists. Validation runs nothing, so no
generated config is ever run.
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
