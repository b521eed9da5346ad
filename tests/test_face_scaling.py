"""Each additive face's integers are read once.

``classify_additive`` reads the integer vertices each face keeps; the
covered intervals and the grid runs of the extremality test read the
projections the report keeps.  Both must be ``==`` to ``face_runs_reference``, which scales the
Fractions again, on psi_0 .. psi_4, the ½·gmic + ½·psi_1 midpoints and
generated functions, jumps included for the covered intervals.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import face_runs_reference as ref
from groupcut import (
    MinimalityVerdict,
    additivity_report,
    affine_combine,
    complex2d,
    enumerate_faces,
    extremality,
    gmic,
)
from groupcut.complex2d import _additive_face_runs, classify_additive
from test_faces_once import breakpoint_sets
from test_solver_reference import FIXTURES, stages
from test_solver_tail import midpoint

F = Fraction


def assert_same_readers(fn, ms=(3, 4)):
    report = additivity_report(fn)
    assert report.covered_intervals == ref.covered_intervals(report.additive_faces)
    assert all(type(x) is Fraction for pair in report.covered_intervals for x in pair)
    for m in ms:
        n = m * fn.denominator_lcm()
        expected = sorted(ref.additive_face_runs(report.additive_faces, n))
        assert sorted(_additive_face_runs(report, n)) == expected


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_fixtures(name):
    assert_same_readers(FIXTURES[name])


@pytest.mark.parametrize("q,num", [(10, 8), (51, 40), (501, 400)])
def test_midpoints(q, num):
    assert_same_readers(midpoint(q, num))


@given(breakpoint_sets())
@settings(max_examples=40, deadline=None, derandomize=True)
def test_generated_functions(fn):
    assert_same_readers(fn)


@given(
    st.sampled_from([F(1, 2), F(2, 3), F(3, 4), F(4, 5)]),
    st.integers(min_value=0, max_value=2),
    st.fractions(min_value=F(1, 10), max_value=F(9, 10), max_denominator=12),
)
@settings(max_examples=12, deadline=None, derandomize=True)
def test_generated_combinations(f, k, lam):
    assert_same_readers(affine_combine(lam, gmic(f), 1 - lam, stages(f, k)[k]))


def test_vertices_scaled_once(psi45_stages, monkeypatch):
    """From the faces to the grid runs, ``_scale`` runs only where
    ``enumerate_faces`` and ``classify_additive`` run it: the report and the
    runs scale no additive face again."""
    fn = psi45_stages[3]
    calls = []
    real = complex2d._scale

    def counted(x, q):
        calls.append(x)
        return real(x, q)

    monkeypatch.setattr(complex2d, "_scale", counted)
    monkeypatch.setattr(extremality, "_scale", counted, raising=False)
    classify_additive(fn, enumerate_faces(fn))
    expected = len(calls)
    calls.clear()
    # psi_3 is minimal and has f as a breakpoint: the minimality test of
    # ``_additive_system`` is left out, and the rest reads fn's own faces.
    monkeypatch.setattr(extremality, "minimality_test", lambda fn: MinimalityVerdict(True))
    extremality._additive_system(fn, 3)
    assert len(calls) == expected


def test_projections_once_per_additive_face(psi45_stages, monkeypatch):
    """``_projections`` runs once per additive face from the faces to the
    grid runs: the report keeps them for the covered intervals and the runs
    alike."""
    fn = psi45_stages[3]
    calls = []
    real = complex2d._projections

    def counted(verts):
        calls.append(verts)
        return real(verts)

    monkeypatch.setattr(complex2d, "_projections", counted)
    monkeypatch.setattr(extremality, "_projections", counted, raising=False)
    # As above: psi_3 is minimal, so its minimality test is left out.
    monkeypatch.setattr(extremality, "minimality_test", lambda fn: MinimalityVerdict(True))
    report = extremality._additive_system(fn, 3)[3]
    assert len(calls) == len(report.additive_faces)


def test_vertices_scaled_once_per_face(psi45_stages, monkeypatch):
    """``classify_additive`` reads each face's scaled vertices once, for the
    additivity test and the projections of the faces it keeps alike."""
    fn = psi45_stages[3]
    calls = []
    real = complex2d._vertices_at

    def counted(face, q):
        calls.append(face)
        return real(face, q)

    monkeypatch.setattr(complex2d, "_vertices_at", counted)
    report = additivity_report(fn)
    faces = enumerate_faces(fn)
    assert len(calls) == len(faces) == 2457
    assert len(report.additive_faces) < len(faces)
