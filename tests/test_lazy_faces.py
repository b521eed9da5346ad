"""Faces keep their integers and build their Fractions only when read.

A face of ``enumerate_faces`` holds its sorted integer vertices and its
integer triple; ``interval_x``, ``interval_y``, ``interval_z`` and
``vertices`` are built on first read.  The public type is unchanged: every
face is ``==`` to the eagerly built face of the Fraction reference, with the
same ``hash`` and ``repr``, read or not; its fields are the five public
ones, and the constructor, pickling and copying derive the integers.
"""

import copy
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings

import complex2d_reference as ref
from groupcut import DeltaFace, complex2d, enumerate_faces, extremality_test, with_f_breakpoint
from groupcut.complex2d import classify_additive, face_ring
from test_complex2d_reference import FIXTURES
from test_faces_once import breakpoint_sets

F = Fraction
LAZY = ("interval_x", "interval_y", "interval_z", "vertices")


def built_fields(face):
    """The Fraction fields the face holds, looked up without building any:
    ``object.__getattribute__`` never falls back to ``__getattr__``."""
    held = []
    for name in LAZY:
        try:
            object.__getattribute__(face, name)
        except AttributeError:
            continue
        held.append(name)
    return held


def read_all(faces):
    for face in faces:
        for name in DeltaFace._fields:
            getattr(face, name)
    return faces


def assert_matches_eager(fn, expected):
    """Three fresh enumerations, one per operation, so that ``==``, ``hash``
    and ``repr`` each meet faces no one has read; then the same on faces
    read first.  ``expected`` is the eager complex of fn."""
    unread = enumerate_faces(fn)
    assert all(not built_fields(face) for face in unread)
    assert unread == expected
    assert [hash(face) for face in enumerate_faces(fn)] == [hash(face) for face in expected]
    assert [repr(face) for face in enumerate_faces(fn)] == [repr(face) for face in expected]
    read = read_all(enumerate_faces(fn))
    assert all(built_fields(face) == list(LAZY) for face in read)
    assert read == expected
    assert [(hash(a), repr(a)) for a in read] == [(hash(b), repr(b)) for b in expected]


@pytest.mark.parametrize("k", range(5))
def test_psi_stages_match_eager(psi45_stages, eager_faces, k):
    assert_matches_eager(psi45_stages[k], eager_faces(psi45_stages[k]))


@pytest.mark.parametrize("name", ["psm", "jump_combo_k1", "jump_combo_k2", "jump_minimal"])
def test_fixtures_match_eager(name, eager_faces):
    fn = with_f_breakpoint(FIXTURES[name])
    assert_matches_eager(fn, eager_faces(fn))


@given(breakpoint_sets())
@settings(max_examples=40, deadline=None, derandomize=True)
def test_generated_breakpoint_sets_match_eager(fn):
    assert_matches_eager(fn, ref.enumerate_faces(fn))


def test_extremality_builds_no_face_fractions(psi45_stages, monkeypatch):
    """A continuous extremality test reads only the faces' integers."""
    enumerated = []
    real = complex2d.enumerate_faces

    def recorded(fn):
        faces = real(fn)
        enumerated.extend(faces)
        return faces

    monkeypatch.setattr(complex2d, "enumerate_faces", recorded)
    assert extremality_test(psi45_stages[3]).extreme
    assert len(enumerated) == 2457
    assert [face for face in enumerated if built_fields(face)] == []


def test_fields_are_the_five_public_ones():
    assert DeltaFace._fields == ("dim", "interval_x", "interval_y", "interval_z", "vertices")


def test_constructor_derives_integers_from_the_new_fractions(psi45_stages):
    fn = psi45_stages[1]
    faces = enumerate_faces(fn)
    segment = next(face for face in faces if face.dim == 1)
    # Another segment's vertices, out of order: the integers come sorted.
    other = next(face for face in faces if face.dim == 1 and face.vertices != segment.vertices)
    moved = DeltaFace(
        segment.dim, segment.interval_x, segment.interval_y, segment.interval_z, other.vertices[::-1]
    )
    assert moved.vertices == other.vertices[::-1]
    u = moved._u
    assert tuple(u[v] for v in moved._ints[0]) == other.vertices
    assert tuple(u[i] for i in moved._ints[1:]) == (
        segment.interval_x, segment.interval_y, segment.interval_z
    )
    assert built_fields(moved) == list(LAZY)


def test_faces_from_fractions_classify_like_the_enumeration(psi45_stages, eager_faces):
    """The eager reference faces carry their own, smaller scales; the
    classification rescales them to the function's."""
    fn = psi45_stages[2]
    eager = eager_faces(fn)
    assert any(face._u.q < fn.denominator_lcm() for face in eager)
    assert classify_additive(fn, eager) == classify_additive(fn, enumerate_faces(fn))
    with pytest.raises(ValueError, match="not a face of this complex"):
        classify_additive(fn, [DeltaFace(0, (F(1, 7),) * 2, (F(0),) * 2, (F(1, 7),) * 2, ((F(1, 7), F(0)),))])


def test_unread_faces_pickle_and_copy(psi45_stages, eager_faces):
    fn = psi45_stages[2]
    expected = eager_faces(fn)
    for clone in (lambda fs: pickle.loads(pickle.dumps(fs)), copy.deepcopy, lambda fs: list(map(copy.copy, fs))):
        faces = enumerate_faces(fn)
        cloned = clone(faces)
        assert cloned == expected
        assert [face_ring(face) for face in cloned] == [ref.face_ring(face) for face in expected]
        assert classify_additive(fn, cloned) == classify_additive(fn, expected)


@pytest.mark.parametrize("name", ["psm", "combo_k2", "jump_combo_k1", "jump_minimal"])
def test_projections_read_the_integers(name, eager_faces):
    """``p1``, ``p2`` and ``p3`` are read from a face's integers, build no
    Fraction field, and are ``==`` to the min and max over the Fraction
    vertices, on lazy and on eager faces."""
    fn = with_f_breakpoint(FIXTURES[name])
    faces = enumerate_faces(fn)
    got = [(face.p1, face.p2, face.p3) for face in faces]
    assert [face for face in faces if built_fields(face)] == []
    assert got == [ref.projections(face) for face in faces]
    assert all(type(c) is Fraction for ps in got for p in ps for c in p)
    eager = eager_faces(fn)
    assert [(face.p1, face.p2, face.p3) for face in eager] == got
