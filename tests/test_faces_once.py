"""Each face of the complex is built once, by the cell that owns it.

``enumerate_faces`` must agree ``==`` with the Fraction reference, which
tries every triple, on generated breakpoint sets: f on a breakpoint,
breakpoints next to 1 so that faces land on x = 1 and y = 1, and pieces
with jumps.
psi_4's complex is pinned by its face counts and by a digest of its faces
taken before the walk built each face once.
"""

import hashlib
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

import complex2d_reference as ref
from groupcut import additivity_report, enumerate_faces, make_pwl

F = Fraction

# sha256 over the lines repr((dim, interval_x, interval_y, interval_z,
# vertices)) of psi_4's faces and of its additive faces, in list order.
PSI_4_FACES_SHA256 = "6e13a321d1e18c6fc60f2dd547478f649b490d869e64b14377d68a87ae9aa209"
PSI_4_ADDITIVE_SHA256 = "68124a545a3a52579d49d13c99fdd0ed7e43feee02178cce505ef9a03cbb0476"


def faces_sha256(faces):
    h = hashlib.sha256()
    for face in faces:
        line = (face.dim, face.interval_x, face.interval_y, face.interval_z, face.vertices)
        h.update(repr(line).encode() + b"\n")
    return h.hexdigest()


@st.composite
def breakpoint_sets(draw):
    """Functions on (1/q)Z, q <= 40, with 0, f and up to 7 more breakpoints;
    about half of the breakpoints carry a jump."""
    q = draw(st.integers(min_value=2, max_value=40))
    index = st.integers(min_value=1, max_value=q - 1)
    f_index = draw(index)
    cuts = draw(st.lists(index, max_size=7, unique=True))
    bkpts = sorted({0, f_index, *cuts})
    value = st.sampled_from([F(0), F(1, 3), F(1, 2), F(1)])
    limits = []
    for _ in bkpts:
        v = draw(value)
        limits.append((draw(value), v, draw(value)) if draw(st.booleans()) else (v, v, v))
    return make_pwl(F(f_index, q), [F(c, q) for c in bkpts], limits)


@given(breakpoint_sets())
@settings(max_examples=40, deadline=None, derandomize=True)
def test_generated_breakpoint_sets_match_reference(fn):
    assert enumerate_faces(fn) == ref.enumerate_faces(fn)


def test_psi_4_complex_is_pinned(psi45_stages):
    fn = psi45_stages[4]
    faces = enumerate_faces(fn)
    assert len(faces) == 10409
    assert faces_sha256(faces) == PSI_4_FACES_SHA256
    additive = additivity_report(fn).additive_faces
    assert len(additive) == 1617
    assert faces_sha256(additive) == PSI_4_ADDITIVE_SHA256
