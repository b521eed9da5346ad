"""The walk oracle's face ring against the Fraction clipping reference.

For every triple (I, J, K) of the complex, empty ones included, ``_ring``
of ``faces_walk_reference`` scaled back by 1/q must equal the reference's
Sutherland–Hodgman polygon ``_face_polygon``, point for point and in
order, and its length must give the reference's dimension and its sorted
points the vertex tuple.  Checked on the fixtures and on derandomized draws
with and without jumps.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import complex2d_reference as ref
from groupcut import affine_combine, gmic, with_f_breakpoint
from faces_walk_reference import _ring
from groupcut.complex2d import _interval_faces, _scaled_breakpoints, _sum_ends, _sum_faces
from jump_strategies import jump_functions
from test_complex2d_reference import FIXTURES, jump_function, stages

F = Fraction


# The largest complexes, psi_3 and combo_k3, have about 60,000 triples each,
# most of them empty, and the reference clips each in Fractions; for these
# each (I, J) cell is checked against the K faces that meet it and the two
# on either side, which are empty.
LARGE = {"psi_3", "combo_k3"}


def assert_rings_match_reference(fn, window=None):
    """Compare every triple, or with ``window`` = w only the K faces within
    w places of those meeting the cell."""
    fn = with_f_breakpoint(fn)
    q, pts = _scaled_breakpoints(fn)
    faces_xy = ref._interval_faces(fn.breakpoints)
    faces_z = ref._sum_faces(fn.breakpoints)

    def scaled(pair):
        return tuple(int(c * q) for c in pair)

    assert [scaled(i) for i in faces_xy] == _interval_faces(pts, q)
    assert [scaled(k) for k in faces_z] == _sum_faces(_sum_ends(pts, q))
    nonempty = 0
    for ix in faces_xy:
        for iy in faces_xy:
            cell_z = faces_z
            if window is not None:
                lo, hi = ix[0] + iy[0], ix[1] + iy[1]
                meet = [i for i, iz in enumerate(faces_z) if lo <= iz[1] and iz[0] <= hi]
                cell_z = faces_z[max(0, meet[0] - window) : meet[-1] + window + 1]
            for iz in cell_z:
                ring = _ring(scaled(ix), scaled(iy), scaled(iz))
                polygon = ref._face_polygon(ix, iy, iz)
                assert [(F(x, q), F(y, q)) for x, y in ring] == polygon
                if not polygon:
                    continue
                nonempty += 1
                # The reference's dimension rule, as in its _make_face.
                unique = sorted(set(polygon))
                dim = 0 if len(unique) == 1 else 1 if ref._collinear(unique) else 2
                assert min(len(ring) - 1, 2) == dim
                verts = tuple(unique) if dim != 1 else (unique[0], unique[-1])
                assert tuple((F(x, q), F(y, q)) for x, y in sorted(ring)) == verts
    return nonempty


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_fixture_rings_match_reference(name):
    assert assert_rings_match_reference(FIXTURES[name], 2 if name in LARGE else None)


@given(
    st.sampled_from([F(1, 2), F(2, 3), F(3, 4), F(4, 5)]),
    st.integers(min_value=0, max_value=2),
    st.fractions(min_value=F(1, 10), max_value=F(9, 10), max_denominator=12),
    st.booleans(),
)
@settings(max_examples=12, deadline=None, derandomize=True)
def test_combination_rings_match_reference(f, k, lam, with_jump):
    other = jump_function(f) if with_jump else gmic(f)
    assert_rings_match_reference(affine_combine(lam, other, 1 - lam, stages(f, k)[k]))


@given(jump_functions(max_cuts=3))
@settings(max_examples=30, deadline=None, derandomize=True)
def test_jump_function_rings_match_reference(fn):
    assert_rings_match_reference(fn)


def test_degenerate_boxes():
    # A point, a horizontal and a vertical segment, a diagonal segment and a
    # strip that touches the box at one corner.
    assert _ring((2, 2), (3, 3), (0, 10)) == [(2, 3)]
    assert _ring((0, 4), (1, 1), (2, 3)) == [(1, 1), (2, 1)]
    assert _ring((1, 1), (0, 4), (2, 3)) == [(1, 1), (1, 2)]
    assert _ring((0, 2), (0, 2), (2, 2)) == [(2, 0), (0, 2)]
    assert _ring((0, 2), (0, 2), (4, 6)) == [(2, 2)]
    assert _ring((0, 2), (0, 2), (5, 6)) == []
