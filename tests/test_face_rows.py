"""The enumeration is a lazy sequence of integer rows, built into faces only
where a face is read.

``enumerate_faces`` returns a ``FaceSequence`` of (dim, integers) rows.  It
supports ``len``, indexing (negative indices and slices too), iteration and
``in``; it compares ``==`` to the list the eager reference builds; it
builds each face once, on first read, and keeps it; and it pickles at every
protocol and copies to a value ``==`` to it.  The readers that need only the
integers build no face: the extremality test builds the additive faces
alone (541 of psi_3's 2,457 faces, 1,617 of psi_4's 10,409), and so do
the diagram of a continuous input and the classification of an input with
jumps; the minimality test of ⅓·jump + ⅔·psi_4 builds its witness face
alone.
"""

import copy
import pickle
from fractions import Fraction

import pytest

from groupcut import (
    additivity_report,
    affine_combine,
    complex2d,
    enumerate_faces,
    extremality_test,
    face_count_check,
    gmic,
    make_pwl,
    minimality_test,
    with_f_breakpoint,
)
from groupcut.complex2d import FaceSequence
from groupcut.svg import plot_2d_diagram
from test_complex2d_reference import FIXTURES

F = Fraction
JUMP = make_pwl(F(4, 5), [0], [(F(5, 4), 0, 0)])


@pytest.fixture
def built(monkeypatch):
    """The faces the library builds from rows, in order of building."""
    faces = []
    real = complex2d._face

    def counted(dim, ints, u):
        faces.append(real(dim, ints, u))
        return faces[-1]

    monkeypatch.setattr(complex2d, "_face", counted)
    return faces


def test_sequence_reads_like_the_eager_list(psi45_stages, eager_faces):
    fn = psi45_stages[2]
    expected = eager_faces(fn)
    faces = enumerate_faces(fn)
    assert isinstance(faces, FaceSequence) and len(faces) == len(expected)
    assert faces == expected and expected == faces and not faces != expected
    assert faces[0] == expected[0] and faces[-1] == expected[-1] and faces[-len(faces)] == expected[0]
    assert faces[3:40:7] == expected[3:40:7] and faces[::-1] == expected[::-1] and faces[5:2] == []
    assert list(faces) == expected and list(reversed(faces)) == expected[::-1]
    assert expected[17] in faces and faces.index(expected[17]) == 17 and faces.count(expected[17]) == 1
    assert enumerate_faces(psi45_stages[1])[0] in faces
    assert enumerate_faces(psi45_stages[1]) != faces
    for i in (len(faces), -len(faces) - 1):
        with pytest.raises(IndexError):
            faces[i]
    with pytest.raises(TypeError):
        faces[0] = expected[0]


def test_each_face_is_built_once_and_kept(psi45_stages, built):
    faces = enumerate_faces(psi45_stages[2])
    assert built == []
    assert faces[5] is faces[5] is faces[5 - len(faces)]
    assert built == [faces[5]]
    assert faces[4:6][1] is faces[5] and built == [faces[5], faces[4]]
    assert [face for face in faces][5] is faces[5] and len(built) == len(faces)
    assert {id(face) for face in faces} == {id(face) for face in built}


@pytest.mark.parametrize("name", ["psm", "combo_k2", "jump_combo_k1"])
def test_sequence_pickles_and_copies(name, eager_faces):
    fn = with_f_breakpoint(FIXTURES[name])
    expected = eager_faces(fn)
    faces = enumerate_faces(fn)
    faces[3]  # one face read, the rest unread
    clones = [pickle.loads(pickle.dumps(faces, p)) for p in range(pickle.HIGHEST_PROTOCOL + 1)]
    clones += [copy.copy(faces), copy.deepcopy(faces)]
    for clone in clones:
        assert type(clone) is FaceSequence and clone == faces and clone == expected


@pytest.mark.parametrize("k,additive", [(3, 541), (4, 1617)])
def test_extremality_builds_only_the_additive_faces(psi45_stages, built, k, additive):
    fn = psi45_stages[k]
    assert extremality_test(fn).extreme
    read = list(built)
    assert len(read) == additive
    assert read == list(additivity_report(fn).additive_faces)


def test_a_certificate_builds_only_the_additive_faces(combo, built):
    verdict = extremality_test(combo)
    assert not verdict.extreme
    read = list(built)
    assert read == list(additivity_report(with_f_breakpoint(combo)).additive_faces)


def test_the_diagram_of_a_continuous_input_builds_only_the_additive_faces(psi45_stages, built):
    fn = psi45_stages[3]
    plot_2d_diagram(fn)
    read = list(built)
    assert read == list(additivity_report(fn).additive_faces)
    assert len(read) == 541


def test_a_discontinuous_classification_builds_only_the_additive_faces(psi45_stages, built):
    fn = with_f_breakpoint(affine_combine(F(1, 3), JUMP, F(2, 3), psi45_stages[2]).canonicalize())
    additive = additivity_report(fn).additive_faces
    assert 0 < len(built) < len(enumerate_faces(fn))
    assert built == list(additive)


def test_a_discontinuous_minimality_test_builds_only_its_witness_face(psi45_stages, built):
    fn = affine_combine(F(1, 3), JUMP, F(2, 3), psi45_stages[4])
    verdict = minimality_test(fn)
    assert not verdict.minimal and verdict.witness.face_vertices is not None
    assert len(enumerate_faces(with_f_breakpoint(fn.canonicalize()))) == 10409
    assert [face.vertices for face in built] == [verdict.witness.face_vertices]


def test_face_count_reads_the_rows(built):
    assert face_count_check(gmic(F(1, 2))).ok
    assert built == []
