"""The closed-form enumerator against the walk oracle, face for face.

``enumerate_faces`` reads the vertices of each face from closed forms per
cell and sorts each dimension on one packed integer key;
``faces_walk_reference`` walks the four sides of every cell's box and sorts
on the vertex tuples.  Both must give the same faces, dimension, integers
and order alike, and ``face_ring`` must rebuild from the sorted vertices the
ring the walk lists.  Checked on psi_0..psi_4, on ⅓·jump + ⅔·psi_k, on the
fixtures, on the generated breakpoint sets of ``test_faces_once``, on
non-canonical inputs and on one-breakpoint functions.  The packed key is
checked to sort like the vertex tuples on the same complexes.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings

import faces_walk_reference as walk
from groupcut import affine_combine, enumerate_faces, gmic, make_pwl
from groupcut.complex2d import face_ring
from test_complex2d_reference import FIXTURES, jump_function
from test_faces_once import breakpoint_sets

F = Fraction


def with_breakpoints(fn, *extra):
    """fn written with redundant breakpoints: no jump, no change of slope."""
    bkpts = sorted({*fn.breakpoints, *extra})
    return make_pwl(fn.f, bkpts, [fn.limits_at(b) for b in bkpts])


NON_CANONICAL = {
    "gmic_1_7": lambda stages: with_breakpoints(gmic(F(4, 5)), F(1, 7)),
    "psi_2_thirds": lambda stages: with_breakpoints(stages[2], F(1, 3), F(2, 3)),
    "jump_1_9": lambda stages: with_breakpoints(jump_function(), F(1, 9), F(5, 9)),
}

ONE_BREAKPOINT = {
    "zero": make_pwl(F(1, 2), [0], [(0, 0, 0)]),
    "one": make_pwl(F(1, 2), [0], [(1, 1, 1)]),
    "jump": jump_function(),
}


def packed_key(face, r):
    """The face's first vertex, both, or first three, as base-r digits."""
    key = 0
    for x, y in face._ints[0][: face.dim + 1]:
        key = (key * r + x) * r + y
    return key


def assert_same_as_walk(fn):
    faces = enumerate_faces(fn)
    expected = walk.enumerate_faces(fn)
    assert [(face.dim, face._ints) for face in faces] == [(face.dim, face._ints) for face in expected]
    assert [face_ring(face) for face in faces] == [
        [face._u[v] for v in walk._ring(*face._ints[1:])] for face in expected
    ]
    return faces


def assert_key_sorts_like_vertices(faces):
    r = faces[0]._u.q + 1
    for dim in (0, 1, 2):
        of_dim = [face for face in faces if face.dim == dim]
        keys = [packed_key(face, r) for face in of_dim]
        assert len(set(keys)) == len(keys)
        by_key = sorted(range(len(of_dim)), key=keys.__getitem__)
        by_vertices = sorted(range(len(of_dim)), key=lambda i: of_dim[i]._ints[0])
        assert by_key == by_vertices == list(range(len(of_dim)))


@pytest.mark.parametrize("k", range(5))
def test_psi_stages_match_walk(psi45_stages, k):
    assert_key_sorts_like_vertices(assert_same_as_walk(psi45_stages[k]))


@pytest.mark.parametrize("k", range(5))
def test_jump_combinations_match_walk(psi45_stages, k):
    fn = affine_combine(F(1, 3), jump_function(), F(2, 3), psi45_stages[k])
    assert_key_sorts_like_vertices(assert_same_as_walk(fn))


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_fixtures_match_walk(name):
    assert_key_sorts_like_vertices(assert_same_as_walk(FIXTURES[name]))


@pytest.mark.parametrize("name", sorted(NON_CANONICAL))
def test_non_canonical_inputs_match_walk(psi45_stages, name):
    fn = NON_CANONICAL[name](psi45_stages)
    assert len(fn.breakpoints) > len(fn.canonicalize().breakpoints)
    assert_key_sorts_like_vertices(assert_same_as_walk(fn))


@pytest.mark.parametrize("name", sorted(ONE_BREAKPOINT))
def test_one_breakpoint_functions_match_walk(name):
    faces = assert_same_as_walk(ONE_BREAKPOINT[name])
    assert_key_sorts_like_vertices(faces)
    # The unit square cut by x + y = 1: its four corners, the sides on
    # x = 0 and y = 0 and the diagonal (those on x = 1 and y = 1 are their
    # translates), and two triangles.
    assert [face.dim for face in faces] == [0] * 4 + [1] * 3 + [2] * 2


@given(breakpoint_sets())
@settings(max_examples=60, deadline=None, derandomize=True)
def test_generated_breakpoint_sets_match_walk(fn):
    assert_key_sorts_like_vertices(assert_same_as_walk(fn))
