"""A face's x and x + y are least at its first sorted vertex and greatest
at its last.

``_projections`` reads x and x + y at the end vertices and scans only y,
and ``_on_symmetry_line`` reads the two end vertices.  Both must agree with
the rules over every vertex, computed here, on every face of the generated
breakpoint sets of ``test_faces_once`` and of the fixtures.
"""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings

from groupcut import complex2d, enumerate_faces, make_pwl
from test_faces_once import breakpoint_sets


def check_faces(fn):
    fs = {fn.f, *(b for b in fn.breakpoints if b)}
    for face in enumerate_faces(fn):
        verts = face._ints[0]
        xs = [x for x, _ in verts]
        ys = [y for _, y in verts]
        zs = [x + y for x, y in verts]
        expected = (min(xs), max(xs), min(ys), max(ys), min(zs), max(zs))
        assert complex2d._projections(verts) == expected, face
        q = face._u.q
        for f in fs:
            t, r = divmod(f.numerator * q, f.denominator)
            every = not r and all((x + y - t) % q == 0 for x, y in verts)
            assert complex2d._on_symmetry_line(face, f) == every, (face, f)


@given(breakpoint_sets())
@settings(max_examples=60, deadline=None, derandomize=True)
def test_generated_breakpoint_sets(fn):
    check_faces(fn)


def test_fixtures(gmic45, psi45_stages, combo, psm15):
    for fn in (gmic45, *psi45_stages[:4], combo, psm15):
        check_faces(fn)


@pytest.mark.parametrize("f", [F(1, 2), F(4, 5)])
def test_only_breakpoint_zero(f):
    """One breakpoint: the sum faces run from kq to kq + q, the longest x + y
    range a face can have, and f need not be a breakpoint."""
    check_faces(make_pwl(f, [0], [(F(5, 4), 0, 0)]))
