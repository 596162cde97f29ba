"""The config field readers: numbers checks a list in one pass per rule."""

import math
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from slspec.fields import is_finite_number, numbers

TOP = sys.float_info.max

# JSON values and the ints and floats at the edges of the float range
elements = st.one_of(
    st.floats(), st.integers(), st.booleans(), st.none(), st.text(max_size=3),
    st.sampled_from([int(TOP), int(TOP) + 1, -int(TOP) - 1, 2 ** 1024, TOP, -TOP, -0.0, 0.0,
                     math.inf, -math.inf, math.nan, 2 ** 63, 2 ** 53 + 1]),
    st.integers(-2 ** 1100, 2 ** 1100))


def by_element(v):
    """numbers' result by the per-element rule: the floats, or None where it refuses."""
    return tuple(float(t) for t in v) if all(map(is_finite_number, v)) else None


def read(v):
    try:
        return numbers({"values": v}, "values", "potential")
    except ValueError as exc:
        assert str(exc) == "potential.values must be a list of finite numbers"
        return None


@settings(max_examples=500, deadline=None, derandomize=True)
@given(st.lists(elements, max_size=8))
@example([int(TOP) + 1])
@example([1.0, int(TOP) + 1])
@example([-0.0, 0, True])
@example([2 ** 53 + 1, -0.0])
@example([math.nan, 1.0])
@example([])
def test_numbers_accepts_exactly_what_each_element_passes(v):
    want = by_element(v)
    got = read(v)
    assert (got is None) == (want is None)
    if got is not None:
        assert [t.hex() for t in got] == [t.hex() for t in want]
        assert all(type(t) is float for t in got)


def test_an_int_that_rounds_down_to_the_largest_float_is_refused():
    assert float(int(TOP) + 1) == TOP
    assert read([int(TOP) + 1]) is None
    assert read([int(TOP)]) == (TOP,)


@pytest.mark.parametrize("v", [None, 1.0, {"a": 1}, "1"])
def test_numbers_needs_a_list(v):
    with pytest.raises(ValueError, match="^potential.values must be a list$"):
        numbers({"values": v}, "values", "potential")
