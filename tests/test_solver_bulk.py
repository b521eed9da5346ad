"""The solver's bulk integer passes against its loops.

``solver._difference_classes`` unites each distinct pair of stage-(1)
labels once and numbers the classes by pointer jumping;
``solver.perturbation_space`` reads its anchor rows from packed prefix
lanes and lifts each vector from the first steps of the classes.  Both must
be ``==`` to ``solver_loops_reference``, the per-relation, per-step and
per-anchor loops they replace: on generated run lists with ``d`` runs and
targets that wrap past n, on the same runs shuffled, and at the lane
bound, where anchors reach u + v = 2n, a grid has one class, entries reach
±n/2 on either side of a lane width, and the q = 1251 midpoint has 377
classes.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import solver_loops_reference as loops
from groupcut.solver import _difference_classes, perturbation_space
from test_range_unions import wide_run_lists
from test_solver_reference import FIXTURES, solver_input
from test_solver_tail import midpoint

F = Fraction


def assert_same_as_loops(n, f_index, runs):
    cls = _difference_classes(n, runs)
    assert cls == loops.difference_classes(n, runs)
    basis = perturbation_space(n, f_index, runs)
    assert basis == loops.perturbation_space(n, f_index, runs)
    assert all(type(x) is Fraction for row in basis for x in row)
    return cls, basis


@st.composite
def wrapping_run_lists(draw):
    """Runs whose anchors stay inside [0, n] and whose sums reach 2n: h and
    v runs whose targets wrap past n, d runs, and stairs of rows (2-D
    faces) that wrap."""
    n = draw(st.integers(min_value=1, max_value=30))
    grid = st.integers(min_value=0, max_value=n)
    runs = []
    for _ in range(draw(st.integers(min_value=0, max_value=8))):
        kind = draw(st.sampled_from("hvd"))
        lo = draw(grid)
        hi = draw(st.integers(min_value=lo - 1, max_value=n))
        if kind == "d":
            c = draw(st.integers(min_value=max(hi, 0), max_value=lo + n))
        else:
            c = draw(grid)
        runs.append((kind, c, lo, hi))
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        s0 = draw(grid)
        top = draw(st.integers(min_value=0, max_value=n - s0))
        x0 = draw(st.integers(min_value=0, max_value=n - top))
        runs += [("h", s0 + j, x0, x0 + top - j) for j in range(top + 1)]
    return n, draw(grid), runs


@given(wrapping_run_lists())
@settings(max_examples=200, deadline=None, derandomize=True)
def test_generated_runs_match_loops(case):
    assert_same_as_loops(*case)


@given(wrapping_run_lists(), st.data())
@settings(max_examples=100, deadline=None, derandomize=True)
def test_shuffled_runs_match_loops(case, data):
    n, f_index, runs = case
    shuffled = data.draw(st.permutations(runs))
    cls, basis = assert_same_as_loops(n, f_index, shuffled)
    assert (cls, basis) == (loops.difference_classes(n, runs), loops.perturbation_space(n, f_index, runs))


@given(wide_run_lists(), st.data())
@settings(max_examples=200, deadline=None, derandomize=True)
def test_generated_classes_match_loops(case, data):
    n, runs = case
    expected = loops.difference_classes(n, runs)
    assert _difference_classes(n, runs) == expected
    assert _difference_classes(n, data.draw(st.permutations(runs))) == expected


@pytest.mark.parametrize("name", ["psi_2", "psm", "combo_k1", "combo_k2"])
def test_fixture_runs_in_any_order(name):
    n, f_index, runs = solver_input(FIXTURES[name])
    expected = loops.perturbation_space(n, f_index, sorted(runs))
    assert perturbation_space(n, f_index, runs) == expected
    assert perturbation_space(n, f_index, runs[::-1]) == expected


# -- the lane bound ------------------------------------------------------------
# 2n < 2**w decides the lane width w: n = 127 has lanes of one byte, 128 of
# two, 32767 of two and 32768 of four.


def two_halves(n):
    """Steps 0 .. n/2 - 1 and n/2 .. n - 1 as two classes (n even), with the
    anchor (n/2, n/2), whose row is n/2 and -n/2, and the anchor (n, n),
    whose sum is 2n."""
    h = n // 2
    return [("h", 1, 0, h - 1), ("h", 1, h, n - 1), ("h", h, h, h), ("h", n, n, n)]


@pytest.mark.parametrize("n", [2, 126, 128, 254, 256, 32766, 32768])
def test_rows_at_the_lane_bound(n):
    cls, basis = assert_same_as_loops(n, n // 2, two_halves(n))
    assert max(cls) == 1


@pytest.mark.parametrize("n", [1, 127, 128, 32767, 32768])
def test_one_class(n):
    runs = [("h", 1, 0, n), ("h", n, n, n), ("d", 2 * n, n, n)]
    cls, basis = assert_same_as_loops(n, n - 1, runs)
    assert cls == [0] * n
    assert basis == []


@pytest.mark.parametrize("n", [5, 128, 300])
def test_anchors_summing_to_2n(n):
    # Every anchor (u, n - u + k) for k <= u, so sums reach 2n, with d runs
    # whose anchors end at n and no relation that links neighbours.
    runs = [("v", u, n - u + u // 2, n - u + u // 2) for u in range(n + 1)]
    runs += [("d", 2 * n, n - k, n) for k in range(0, n + 1, 7)]
    assert_same_as_loops(n, 1, runs)


def test_midpoint_1251_matches_loops():
    n, f_index, runs = solver_input(midpoint(1251, 1000))
    cls, basis = assert_same_as_loops(n, f_index, runs)
    assert (n, max(cls) + 1, len(basis)) == (3753, 377, 375)
