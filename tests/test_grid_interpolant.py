"""One grid interpolator behind both public names.

``interpolate_to_infinite_group`` and ``interpolate_perturbation`` both read
``pwl.interpolate_grid``; each must return exactly, breakpoint for breakpoint
and limit for limit, what the finite module built before:
``pwl_from_values(f, [(i/q, v_i)]).canonicalize()``.  The CLI's
``interpolate`` output must be that function's canonical serialization.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupcut import FiniteGroupFn, interpolate_perturbation, interpolate_to_infinite_group, pwl_from_values
from groupcut.cli import main
from groupcut.pwl import interpolate_grid
from groupcut.serialize import dumps, serialize_finite, serialize_pwl

F = Fraction


def expected(g):
    return pwl_from_values(g.f, [(F(i, g.q), v) for i, v in enumerate(g.values)]).canonicalize()


def data(fn):
    return fn.f, fn.breakpoints, fn.limits


@st.composite
def finite_functions(draw):
    q = draw(st.integers(min_value=2, max_value=30))
    f_index = draw(st.integers(min_value=1, max_value=q - 1))
    value = st.sampled_from([F(0), F(1), F(1, 2), F(-1, 3), F(2, 7)])
    values = draw(st.lists(value, min_size=q, max_size=q))
    return FiniteGroupFn(q, f_index, tuple(values))


@given(finite_functions())
@settings(max_examples=150, deadline=None, derandomize=True)
def test_both_names_match_the_canonical_interpolant(g):
    want = data(expected(g))
    assert data(interpolate_to_infinite_group(g)) == want
    assert data(interpolate_perturbation(list(g.values), g.q, g.f)) == want


def test_cli_bytes(capsys, tmp_path):
    g = FiniteGroupFn(6, 4, (F(0), F(1, 4), F(1, 2), F(1, 2), F(1), F(1, 2)))
    path = tmp_path / "g.json"
    path.write_text(dumps(serialize_finite(g)))
    assert main(["interpolate", str(path)]) == 0
    assert capsys.readouterr().out == dumps(serialize_pwl(expected(g)))


@pytest.mark.parametrize("values", [[0, 1, 0], [0, 1, 0, 0, 0]], ids=["short", "long"])
def test_vector_of_another_length_is_refused(values):
    # Both used to return breakpoints 0, 1/4, 1/2: neither on (1/4)Z.
    with pytest.raises(ValueError, match=f"need n = 4 values, got {len(values)}"):
        interpolate_perturbation(values, 4, F(1, 2))


@pytest.mark.parametrize("n", [0, -3, 3.0, F(3), True, "3"])
def test_n_that_is_not_a_positive_int_is_refused(n):
    with pytest.raises(ValueError, match="n must be an integer of at least 1"):
        interpolate_grid([F(0)] * 3, n, F(1, 2))


def test_matching_length_still_interpolates():
    fn = interpolate_perturbation([0, 1, 0, 0], 4, F(1, 2))
    assert fn.breakpoints == (0, F(1, 4), F(1, 2))
