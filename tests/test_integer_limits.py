"""Limits of Δπ along the faces, read in integers from the one evaluator
``complex2d._scaled_pi``, against the Fraction route of
``complex2d_reference.delta_pi_limit`` (``PwlPeriodic.limit`` at the side
that ``_side`` reads off the face's Fraction projections).

``delta_pi_limit`` must be ``==`` to it at every vertex of every face and at
the midpoint of every edge of a face, on fixtures with and without jumps and
on derandomized draws of functions with jumps, symmetrized ones included.
The faces are both those of ``enumerate_faces`` and those of the reference,
which the public constructor builds at the scale of their own vertices.
With ``PwlPeriodic.limit`` made to raise, the minimality test, the
additivity report and the diagram still run on functions with jumps.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings

import complex2d_reference as ref
import minimality_reference
from groupcut import (
    PsiParams,
    additivity_report,
    affine_combine,
    delta_pi_limit,
    enumerate_faces,
    generate_eps,
    gmic,
    make_pwl,
    minimality_test,
    projected_sequential_merge,
    psi_stages,
    verify_witness,
    with_f_breakpoint,
)
from groupcut.complex2d import face_ring
from groupcut.pwl import PwlPeriodic
from groupcut.svg import plot_2d_diagram
from jump_strategies import jump_functions, reflect

F = Fraction
F45 = F(4, 5)


def symmetrize(g):
    """(g + 1 - g(f - x)) / 2, as in ``jump_strategies``."""
    half = make_pwl(g.f, [0], [(F(1, 2),) * 3])
    return affine_combine(1, affine_combine(F(1, 2), g, F(-1, 2), reflect(g)), 1, half)


def fixtures():
    psi = psi_stages(PsiParams(F45, tuple(generate_eps(F45, 2))))
    jump = make_pwl(F45, [0], [(F(5, 4), 0, 0)])
    out = {
        "gmic": gmic(F45),
        "psi_2": psi[2],
        "psm": projected_sequential_merge(gmic(F(1, 5)), 2),
        "jump_minimal": make_pwl(F(1, 2), [0, F(1, 2)], [(1, 0, 0), (1, 1, 0)]),
    }
    for k in (1, 2):
        g = affine_combine(F(1, 3), jump, F(2, 3), psi[k])
        out[f"jump_psi_{k}"] = g
        out[f"symmetrized_jump_psi_{k}"] = symmetrize(g)
    return out


FIXTURES = fixtures()


def points(face, ring):
    """The vertices of the face and the midpoint of each edge of its ring."""
    if len(ring) < 2:
        return list(face.vertices)
    edges = zip(ring, ring[1:] + ring[:1]) if len(ring) > 2 else [ring]
    return list(face.vertices) + [((a + c) / 2, (b + d) / 2) for (a, b), (c, d) in edges]


def assert_limits_match(fn, eager):
    fn = with_f_breakpoint(fn)
    for faces, ring in ((enumerate_faces(fn), face_ring), (eager(fn), ref.face_ring)):
        for face in faces:
            for pt in points(face, ring(face)):
                assert delta_pi_limit(fn, face, pt) == ref.delta_pi_limit(fn, face, pt), (face, pt)


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_fixture_limits_match_reference(name, eager_faces):
    assert_limits_match(FIXTURES[name], eager_faces)


@given(jump_functions(max_cuts=3))
@settings(max_examples=40, deadline=None, derandomize=True)
def test_generated_limits_match_reference(fn):
    assert_limits_match(fn, ref.enumerate_faces)


def test_coordinates_at_1_read_the_left_limit_stored_at_0():
    # x -> 5x/4 with a jump at 0, and f = 4/5 a breakpoint.  At (1, 4/5), from
    # inside the face with x in [4/5, 1] and x + y in [1, 9/5], x reaches 1
    # from below and reads the left limit stored at 0, 5/4; y and x + y read
    # π = 1 at 4/5 and at 9/5.  As a 0-D face the point reads π(1) = π(0) = 0.
    fn = with_f_breakpoint(make_pwl(F45, [0], [(F(5, 4), 0, 0)]))
    corner = (F(1), F45)
    faces = {face.vertices: face for face in enumerate_faces(fn)}
    inside = faces[((F45, F(1, 5)), (F45, F45), (F(1), F(0)), corner)]
    assert delta_pi_limit(fn, inside, corner) == F(5, 4) + 1 - 1
    assert delta_pi_limit(fn, faces[(corner,)], corner) == 0 + 1 - 1


def test_point_outside_the_face_is_refused():
    fn = with_f_breakpoint(make_pwl(F45, [0], [(F(5, 4), 0, 0)]))
    face = next(face for face in enumerate_faces(fn) if face.dim == 2)
    outside = (face.interval_x[1] + 1, face.interval_y[0])
    with pytest.raises(ValueError, match="not a point of the face"):
        delta_pi_limit(fn, face, outside)
    with pytest.raises(ValueError, match="not a point of the face"):
        delta_pi_limit(fn, face, (F(1, 7), F(6, 7)))


@pytest.mark.parametrize("name", [n for n in sorted(FIXTURES) if "jump" in n])
def test_jump_path_reads_no_fraction_limit(name, monkeypatch):
    fn = FIXTURES[name]
    expected_verdict = minimality_reference.minimality_test(fn)
    expected_faces = ref.additivity_report(with_f_breakpoint(fn)).additive_faces

    def refused(self, x, side):
        raise AssertionError("PwlPeriodic.limit was called")

    monkeypatch.setattr(PwlPeriodic, "limit", refused)
    verdict = minimality_test(fn)
    assert verdict == expected_verdict
    if verdict.witness is not None:
        assert verify_witness(fn, verdict.witness)
    assert additivity_report(with_f_breakpoint(fn)).additive_faces == expected_faces
    assert plot_2d_diagram(fn).startswith("<svg")
