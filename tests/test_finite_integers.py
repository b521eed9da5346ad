"""``FiniteGroupFn`` takes only integers as ``q`` and ``f_index``, as the
loader does, so every instance it accepts round-trips through
``serialize_finite`` and ``deserialize_finite``."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupcut import FiniteGroupFn
from groupcut.serialize import deserialize_finite, dumps, loads, serialize_finite

F = Fraction
VALUES = (F(0), F(1), F(1, 2))


@pytest.mark.parametrize(
    "q,f_index",
    [(3, True), (3, 1.0), (3.0, 1), (True, 1), (3, 2.0), (F(3), 1), (3, "1")],
)
def test_non_integer_q_or_f_index_is_refused(q, f_index):
    with pytest.raises(ValueError, match="must be integers"):
        FiniteGroupFn(q=q, f_index=f_index, values=VALUES)


def test_integers_are_accepted():
    assert FiniteGroupFn(q=3, f_index=1, values=VALUES).f == F(1, 3)


numbers = st.one_of(
    st.integers(min_value=-1, max_value=8),
    st.booleans(),
    st.integers(min_value=-1, max_value=8).map(float),
)


@st.composite
def instances(draw):
    """q and f_index of any of the three types, with int(q) values when q
    is in range, so that their type decides whether the instance is made."""
    q, f_index = draw(numbers), draw(numbers)
    size = int(q) if 2 <= q <= 8 else 3
    values = draw(st.lists(st.fractions(max_denominator=9), min_size=size, max_size=size))
    return q, f_index, tuple(values)


@given(instances())
@settings(max_examples=200, deadline=None, derandomize=True)
def test_every_accepted_instance_round_trips(case):
    q, f_index, values = case
    try:
        g = FiniteGroupFn(q=q, f_index=f_index, values=values)
    except ValueError:
        assert not (type(q) is int and type(f_index) is int and 0 < f_index < q)
        return
    assert deserialize_finite(loads(dumps(serialize_finite(g)))) == g
