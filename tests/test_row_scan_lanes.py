"""The subadditivity row scan on values that fill its integer lanes.

``first_subadditivity_violation`` packs the values into lanes whose width
follows from their size, and reads only the pairs i <= j <= k of the
triples i + j + k ≡ f of a vector symmetric about f.  These cases reach lane
widths past one byte and values at the edge of a lane, where a carry or
borrow between lanes would show as a wrong pair.  On symmetric vectors it
must return the pair of the all-pairs scan of ``finite_scan_reference``,
and the draws of ``symmetric_vectors`` reach first failures in either lane
window of a row and across the wrap i + j >= n.  The all-pairs scan itself
must return the pair of the loops on any vector.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import finite_scan_reference as ref
from groupcut.finite import first_subadditivity_violation
from symmetric_vectors import is_symmetric, symmetric, symmetric_vectors


def first_violation_by_loops(iv):
    n = len(iv)
    for i in range(n):
        for j in range(i, n):
            if iv[i] + iv[j] < iv[(i + j) % n]:
                return i, j
    return None


def assert_scans_agree(iv, f):
    """The all-pairs scan matches the loops on iv; made symmetric about f,
    the triple scan matches both."""
    assert ref.first_subadditivity_violation(iv) == first_violation_by_loops(iv)
    sym = symmetric(iv, f, 2 * iv[0])
    want = first_violation_by_loops(sym)
    assert first_subadditivity_violation(sym, f) == ref.first_subadditivity_violation(sym) == want
    return sym, want


@given(
    st.integers(min_value=0, max_value=80),
    st.lists(st.integers(min_value=-3, max_value=6), min_size=1, max_size=30),
    st.integers(min_value=0, max_value=29),
)
@settings(max_examples=200, deadline=None, derandomize=True)
def test_wide_values_match_the_loops(bits, small, f):
    assert_scans_agree([v << bits for v in small], f % len(small))


@given(
    st.integers(min_value=2, max_value=40),
    st.integers(min_value=1, max_value=70),
    st.integers(min_value=0, max_value=39),
)
@settings(max_examples=100, deadline=None, derandomize=True)
def test_tent_at_the_lane_edge(n, bits, f):
    # Values up to 2**bits - 1: every lane is as full as its width allows.
    f %= n
    top = (1 << bits) - 1
    tent = [top * min(i, n - i) // (n // 2) for i in range(n)]
    assert_scans_agree(tent, f)
    tent[n - 1] = top
    assert_scans_agree(tent, f)
    tent[0] = -top
    assert_scans_agree(tent, f)


def test_symmetric_vectors_match_the_all_pairs_scan():
    seen = {"none": 0, "first window": 0, "second window": 0, "wrap": 0, "past 64 bits": 0}
    fs = set()
    for iv, f in symmetric_vectors():
        assert is_symmetric(iv, f)
        n = len(iv)
        fs.add((n, f))
        want = ref.first_subadditivity_violation(iv)
        assert first_subadditivity_violation(iv, f) == want, (iv, f)
        seen["past 64 bits"] += max(map(abs, iv)).bit_length() > 64
        if want is None:
            seen["none"] += 1
            continue
        i, j = want
        seen["second window" if j > (f - i) % n else "first window"] += 1
        seen["wrap"] += i + j >= n
    assert fs == {(n, f) for n in range(2, 41) for f in range(n)}
    assert all(seen.values()), seen


@pytest.mark.parametrize("iv,f", [([0, 1, 3], 1), ([0, 2, 1, 2], 2), ([1, 0], 0)])
def test_a_vector_not_symmetric_about_f_is_refused(iv, f):
    with pytest.raises(ValueError, match="v\\(x\\) \\+ v\\(f - x\\) constant"):
        first_subadditivity_violation(iv, f)
