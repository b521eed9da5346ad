"""Difference classes by range unions against the solver they replaced.

``solver._difference_classes`` merges every shift's ranges in one sort,
unites each merged stretch of neighbour links with one slice assignment,
tests whether a side of a relation lies in one class of those stretches,
and unites the other sides of such relations as merged ranges too.  Its
partition must be ``==`` to ``classes_reference`` (the skip-pointer version)
and to the per-unit union loop of ``solver_reference``: on the fixtures, on
the gmic grids and on derandomized run lists whose ranges wrap past n, run
for n steps or more, carry d mirrors, have n = 1 or 2, or relate two sides
neither of which lies in one class.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import classes_reference as old
import solver_reference as unit
from groupcut import gmic
from groupcut.solver import _difference_classes
from test_solver_reference import CASES, FIXTURES, solver_input
from test_solver_tail import midpoint

F = Fraction


def assert_same_classes(n, runs):
    cls = _difference_classes(n, runs)
    assert cls == old.difference_classes(n, runs)
    assert cls == unit.difference_classes(n, runs)


@pytest.mark.parametrize("name,m", CASES)
def test_fixture_classes(name, m):
    n, _, runs = solver_input(FIXTURES[name], m)
    assert_same_classes(n, runs)


GRIDS = {"gmic_699_700": gmic(F(699, 700)), "midpoint_51": midpoint(51, 40)}


@pytest.mark.parametrize("name", sorted(GRIDS))
def test_grid_classes(name):
    n, _, runs = solver_input(GRIDS[name])
    assert _difference_classes(n, runs) == old.difference_classes(n, runs)


# Runs made by hand, each aimed at one part of the range unions.
HAND = {
    # Shift 1 over i in [7, 10) links the steps 7, 8, 9 and, through link 0,
    # step 0: a class across the end of the circle; the d run's side 9 .. 1
    # lies in it.
    "stretch_through_link_0": (10, [("h", 1, 7, 10), ("d", 14, 3, 6)]),
    # Shift 7's source 2 .. 4 lies in the class of shift 1's links, so its
    # target 9, 0, 1 is linked as one batched range through link 0.
    "batched_side_through_link_0": (10, [("h", 1, 2, 5), ("h", 7, 2, 5)]),
    # Links 2 ~ 3 ~ 4 and 5 ~ 6 ~ 7 touch at no step: the side 3 .. 5 of
    # shift 6 spans two classes, so neither side lies in one class.
    "touching_stretches": (12, [("h", 1, 2, 4), ("h", 1, 5, 7), ("h", 6, 3, 6)]),
    # The same with the stretches sharing step 4: now the side is one class.
    "overlapping_stretches": (12, [("h", 1, 2, 4), ("h", 1, 4, 7), ("h", 6, 3, 6)]),
    # The side 5 .. 12 of shift 5 starts and ends in the class 2 .. 6, by
    # way of step 12 = 2 + n, but steps 7 .. 9 are not in it.
    "side_ends_in_one_class": (10, [("h", 1, 2, 6), ("h", 5, 0, 8)]),
    # Relations whose sides lie in no class of (1): they unite step by step.
    "no_side_in_one_class": (
        15, [("h", 4, 0, 3), ("h", 9, 2, 7), ("v", 6, 10, 12), ("d", 20, 8, 12)]
    ),
    # A linked source whose target wraps past n and a linked target whose
    # source overlaps the range of the first.
    "batched_sides_overlap": (
        16, [("h", 1, 0, 6), ("h", 12, 2, 6), ("h", 11, 5, 9), ("h", 2, 8, 12)]
    ),
    # Runs for n steps and more, from lo < 0 and past hi = n.
    "long_runs": (7, [("h", 3, -4, 9), ("d", 5, -2, 12), ("v", 2, 0, 7)]),
    "n_1": (1, [("h", 0, 0, 1), ("d", 1, 0, 1), ("v", 3, -1, 2)]),
    "n_2": (2, [("h", 1, 0, 2), ("d", 3, 0, 1)]),
    "n_2_mirror_only": (2, [("d", 2, 0, 2)]),
}


@pytest.mark.parametrize("name", sorted(HAND))
def test_hand_runs(name):
    assert_same_classes(*HAND[name])


@st.composite
def wide_run_lists(draw):
    """Run lists over n = 1 .. 24 whose coordinates may leave [0, n], with
    d mirrors, long runs, and stairs of rows that wrap past n."""
    n = draw(st.one_of(st.sampled_from([1, 2]), st.integers(min_value=3, max_value=24)))
    runs = []
    for _ in range(draw(st.integers(min_value=0, max_value=10))):
        kind = draw(st.sampled_from("hvd"))
        lo = draw(st.integers(min_value=-n, max_value=2 * n))
        hi = draw(st.integers(min_value=lo - 1, max_value=lo + 2 * n + 1))
        c = draw(st.integers(min_value=-n, max_value=3 * n))
        runs.append((kind, c, lo, hi))
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        # A stair of rows, as a 2-D face gives: shifts s and s + 1 overlap.
        s0 = draw(st.integers(min_value=0, max_value=2 * n))
        x0 = draw(st.integers(min_value=0, max_value=n))
        top = draw(st.integers(min_value=0, max_value=n))
        runs += [("h", s0 + j, x0, x0 + top - j) for j in range(top + 1)]
    return n, runs


@given(wide_run_lists())
@settings(max_examples=400, deadline=None, derandomize=True)
def test_generated_classes(case):
    assert_same_classes(*case)
