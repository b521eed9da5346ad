"""The integer-scaled complex against the plain-Fraction reference.

Faces, additive faces, covered intervals, maximal and symmetry faces,
vertices and drawing rings must be ``==``-identical to the reference on the
fixtures and on bounded, derandomized draws of convex combinations and
``precompose_scale`` images.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import complex2d_reference as ref
from groupcut import (
    PsiParams,
    additivity_report,
    affine_combine,
    delta_vertices,
    enumerate_faces,
    generate_eps,
    gmic,
    make_pwl,
    minimality_test,
    precompose_scale,
    projected_sequential_merge,
    psi_stages,
    verify_witness,
    with_f_breakpoint,
)
from groupcut.complex2d import face_ring
from groupcut.minimality import SUBADDITIVITY, SYMMETRY, MinimalityWitness

F = Fraction
F45 = F(4, 5)


def jump_function(f=F45):
    """x -> x/f with a jump at 0: not symmetric, so never minimal."""
    return make_pwl(f, [0], [(1 / f, 0, 0)])


def jump_minimal():
    return make_pwl(F(1, 2), [0, F(1, 2)], [(1, 0, 0), (1, 1, 0)])


def stages(f, n):
    return psi_stages(PsiParams(f, tuple(generate_eps(f, n))))


def fixtures():
    psi = stages(F45, 3)
    g = gmic(F45)
    out = {"gmic": g}
    out.update({f"psi_{k}": psi[k] for k in range(4)})
    out["psm"] = projected_sequential_merge(gmic(F(1, 5)), 2)
    for k, lam in ((1, F(1, 2)), (2, F(1, 3)), (3, F(3, 4))):
        out[f"combo_k{k}"] = affine_combine(lam, g, 1 - lam, psi[k])
    for k, lam in ((1, F(1, 3)), (2, F(3, 5))):
        out[f"jump_combo_k{k}"] = affine_combine(lam, jump_function(), 1 - lam, psi[k])
    out["jump_minimal"] = jump_minimal()
    return out


FIXTURES = fixtures()


def assert_same_complex(fn, eager_faces=ref.enumerate_faces):
    fn = with_f_breakpoint(fn)
    faces, expected_faces = enumerate_faces(fn), eager_faces(fn)
    assert faces == expected_faces
    assert delta_vertices(fn) == ref.delta_vertices(fn)
    for face in faces:
        assert face_ring(face) == ref.face_ring(face)
    report, expected = additivity_report(fn), ref.additivity_report(fn, expected_faces)
    assert report.additive_faces == expected.additive_faces
    assert report.covered_intervals == expected.covered_intervals
    assert report.maximal_faces == expected.maximal_faces
    assert report.symmetry_faces == expected.symmetry_faces
    return faces


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_fixture_matches_reference(name, eager_faces):
    assert_same_complex(FIXTURES[name], eager_faces)


stage_draws = st.tuples(
    st.sampled_from([F(1, 2), F(2, 3), F(3, 4), F45]),
    st.integers(min_value=0, max_value=2),
)
lambdas = st.fractions(min_value=F(1, 10), max_value=F(9, 10), max_denominator=12)


@given(stage_draws, lambdas, st.booleans())
@settings(max_examples=12, deadline=None, derandomize=True)
def test_convex_combinations_match_reference(fk, lam, with_jump):
    f, k = fk
    other = jump_function(f) if with_jump else gmic(f)
    assert_same_complex(affine_combine(lam, other, 1 - lam, stages(f, k)[k]))


# (stage, scale factor): scaling by lam multiplies the breakpoint count by
# |lam|, so stage 1 is drawn with |lam| <= 2 only.
scalings = st.sampled_from([(0, -2), (0, -1), (0, 2), (0, 3), (1, -2), (1, -1), (1, 2)])


@given(st.sampled_from([F(1, 2), F(2, 3), F(3, 4), F45]), scalings)
@settings(max_examples=10, deadline=None, derandomize=True)
def test_precompose_scale_images_match_reference(f, scaling):
    k, lam = scaling
    assert_same_complex(precompose_scale(stages(f, k)[k], lam))


class TestFindFace:
    """Vertex sets that are no face of the complex, named by forged
    witnesses on gmic(4/5): it is minimal, so no witness is genuine, and
    none may verify, whatever face it names."""

    @pytest.mark.parametrize(
        "vertices",
        [
            # A triangle inside a face, not a face itself.
            ((F(0), F(0)), (F(0), F(2, 5)), (F(2, 5), F(0))),
            # The vertices of a face, out of order.
            ((F(0), F(0)), (F(4, 5), F(0)), (F(0), F(4, 5))),
            # A segment crossing the breakpoint line x = 4/5.
            ((F(1, 5), F(0)), (F(1), F(0))),
            # A point off the (1/q)Z^2 grid.
            ((F(1, 7), F(0)),),
            # Two vertices of different faces.
            ((F(0), F(0)), (F(4, 5), F(4, 5))),
            # Outside the unit square.
            ((F(-1, 5), F(0)),),
            (),
        ],
    )
    def test_non_face_vertex_sets(self, gmic45, vertices):
        fn = with_f_breakpoint(gmic45)
        assert ref.find_face_linear(fn, vertices) is None
        assert minimality_test(fn).minimal
        for point in vertices or [(F(0), F(0))]:
            for kind, value in ((SUBADDITIVITY, F(-1, 4)), (SYMMETRY, F(-1, 4)), (SYMMETRY, F(5, 2))):
                assert not verify_witness(fn, MinimalityWitness(kind, point, value, vertices))


def test_report_extras_are_lazy(gmic45):
    report = additivity_report(gmic45)
    assert "maximal_faces" not in vars(report)
    assert "symmetry_faces" not in vars(report)
    maximal = report.maximal_faces
    assert vars(report)["maximal_faces"] is maximal
    assert report.symmetry_faces
