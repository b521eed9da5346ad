"""``verify_witness`` re-checks a limit witness with the Fraction ``delta_pi``
alone, as the limit of Δπ along the segment from the witness's location to
the barycenter of its face's vertices (``minimality._segment_limit``).

On derandomized draws of functions with jumps (``jump_strategies``):
- every witness of ``minimality_test`` verifies, on the input and on a copy
  of it with redundant breakpoints at i/17, which ``minimality_test``
  canonicalizes away;
- on a minimal draw no witness is genuine, and none verifies: neither a
  limit read off a face at a point outside it, nor the segment formula read
  across a breakpoint, nor a point witness away from 0 or f;
- at every vertex of every face the segment limit is ``==`` to
  ``delta_pi_limit``, which reads the limits in integers: an oracle for the
  one-sided limits that shares no code with the integer evaluator.
"""

from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings

import complex2d_reference as ref
from groupcut import (
    PsiParams,
    affine_combine,
    delta_pi,
    delta_pi_limit,
    enumerate_faces,
    generate_eps,
    make_pwl,
    minimality_test,
    psi_stages,
    verify_witness,
    with_f_breakpoint,
)
from groupcut.minimality import (
    ORIGIN_VALUE,
    SUBADDITIVITY,
    SYMMETRY,
    MinimalityWitness,
    _segment_limit,
)
from jump_strategies import jump_functions

F = Fraction
F45 = F(4, 5)


def refine(fn, d):
    """The same function with a breakpoint at every i/d: not canonical."""
    bkpts = sorted(set(fn.breakpoints) | {F(i, d) for i in range(d)})
    return make_pwl(fn.f, bkpts, [fn.limits_at(x) for x in bkpts])


PSI = psi_stages(PsiParams(F45, tuple(generate_eps(F45, 2))))
JUMP = make_pwl(F45, [0], [(F(5, 4), 0, 0)])


@pytest.mark.parametrize("d", [6, 7, 10, 11, 13, 17])
@pytest.mark.parametrize("k", [1, 2])
def test_witness_verifies_with_redundant_breakpoints(k, d):
    # ⅓·jump + ⅔·psi_k: a symmetry limit on the face from (4/5, 1) to
    # (1, 4/5), which the lines through i/d cut.
    fn = affine_combine(F(1, 3), JUMP, F(2, 3), PSI[k])
    verdict = minimality_test(fn)
    assert verdict.witness.face_vertices is not None
    refined = refine(fn, d)
    assert minimality_test(refined) == verdict
    assert verify_witness(refined, verdict.witness)


@given(jump_functions(max_cuts=3))
@settings(max_examples=150, deadline=None, derandomize=True)
def test_generated_witnesses_verify_with_redundant_breakpoints(fn):
    verdict = minimality_test(fn)
    if verdict.minimal:
        return
    refined = refine(fn, 17)
    assert verify_witness(fn, verdict.witness)
    assert minimality_test(refined) == verdict
    assert verify_witness(refined, verdict.witness)


def segment_formula(fn, vertices, p):
    """2·Δπ(m) − Δπ(c) read without the rule that no breakpoint lies inside
    the ranges of the vertices."""
    n = len(vertices)
    cx, cy = sum(x for x, _ in vertices) / n, sum(y for _, y in vertices) / n
    return 2 * delta_pi(fn, (p[0] + cx) / 2, (p[1] + cy) / 2) - delta_pi(fn, cx, cy)


def on_symmetry_line(fn, vertices):
    return all((x + y - fn.f) % 1 == 0 for x, y in vertices)


@given(jump_functions(max_cuts=3))
@settings(max_examples=200, deadline=None, derandomize=True)
def test_no_forged_witness_verifies_on_a_minimal_draw(fn):
    if not minimality_test(fn).minimal:
        return
    fn = with_f_breakpoint(fn)
    for b, (_, value, _) in zip(fn.breakpoints, fn.limits):
        if value != 0:
            assert not verify_witness(fn, MinimalityWitness(ORIGIN_VALUE, b, value))
        if value != 1:
            assert not verify_witness(fn, MinimalityWitness(SYMMETRY, b, value))
    faces = enumerate_faces(fn)
    line = [v for face in faces if face.dim == 1 and on_symmetry_line(fn, face.vertices) for v in face.vertices]
    # Each face, and each face with the next one in the list, is named with
    # its own vertices, those of the next face, and on the symmetry line
    # every vertex of the line; the value is a limit read off the face at
    # that point, or the segment formula of the named vertices.
    for face, other in zip(faces, faces[1:] + faces[:1]):
        points = face.vertices + other.vertices
        if face.dim == 1 and on_symmetry_line(fn, face.vertices):
            points += tuple(line)
        for vertices in (face.vertices, face.vertices + other.vertices):
            for p in dict.fromkeys(points):
                for value in {ref.delta_pi_limit(fn, face, p), segment_formula(fn, vertices, p)}:
                    if value < 0:
                        assert not verify_witness(fn, MinimalityWitness(SUBADDITIVITY, p, value, vertices))
                    if value and on_symmetry_line(fn, [p]):
                        assert not verify_witness(fn, MinimalityWitness(SYMMETRY, p, value, vertices))


@given(jump_functions(max_cuts=3))
@settings(max_examples=100, deadline=None, derandomize=True)
def test_segment_limit_is_delta_pi_limit(fn):
    fn = with_f_breakpoint(fn)
    for face in enumerate_faces(fn):
        for p in face.vertices:
            assert _segment_limit(fn, face.vertices, p) == delta_pi_limit(fn, face, p), (face, p)


def test_unknown_kind_never_verifies():
    fn = make_pwl(F(1, 2), [0, F(1, 4), F(1, 2)], [(1, 0, 0), (F(5, 8), F(1, 2), F(3, 8)), (1, 1, 0)])
    witness = minimality_test(fn).witness
    assert verify_witness(fn, witness)
    for kind in ("bogus", "Subadditivity"):
        assert not verify_witness(fn, replace(witness, kind=kind))
