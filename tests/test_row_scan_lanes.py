"""The subadditivity row scan on values that fill its integer lanes.

``first_subadditivity_violation`` packs the values into lanes whose width
follows from their size; these cases reach lane widths past one byte and
values at the edge of a lane, where a carry or borrow between lanes would
show as a wrong pair.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from groupcut.finite import first_subadditivity_violation


def first_violation_by_loops(iv):
    n = len(iv)
    for i in range(n):
        for j in range(i, n):
            if iv[i] + iv[j] < iv[(i + j) % n]:
                return i, j
    return None


@given(
    st.integers(min_value=0, max_value=80),
    st.lists(st.integers(min_value=-3, max_value=6), min_size=1, max_size=30),
)
@settings(max_examples=200, deadline=None, derandomize=True)
def test_wide_values_match_the_loops(bits, small):
    iv = [v << bits for v in small]
    assert first_subadditivity_violation(iv) == first_violation_by_loops(iv)


@given(st.integers(min_value=2, max_value=40), st.integers(min_value=1, max_value=70))
@settings(max_examples=100, deadline=None, derandomize=True)
def test_tent_at_the_lane_edge(n, bits):
    # Values up to 2**bits - 1: every lane is as full as its width allows.
    top = (1 << bits) - 1
    tent = [top * min(i, n - i) // (n // 2) for i in range(n)]
    assert first_subadditivity_violation(tent) == first_violation_by_loops(tent)
    tent[n - 1] = top
    assert first_subadditivity_violation(tent) == first_violation_by_loops(tent)
    tent[0] = -top
    assert first_subadditivity_violation(tent) == first_violation_by_loops(tent)
