"""ε from the vertices of the common complex against the grid scan kept in
``certificate_reference``, and the kink interpolation against
``pwl_from_values(...).canonicalize()``.

On a subadditive continuous fn, ``epsilon_ratio_test`` must return the grid
oracle's ε, or raise the same ``ValueError``, on derandomized draws: the
λ-combinations of gmic and psi_1..psi_3 with the direction gmic − psi_k,
their ``precompose_scale`` images, and perturbations with breakpoints on a
finer grid than fn's.  An argument with a jump is refused.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import certificate_reference as ref
from test_minimality_reference import forbid
from groupcut import (
    PsiParams,
    affine_combine,
    epsilon_ratio_test,
    extremality_test,
    generate_eps,
    gmic,
    interpolate_perturbation,
    make_pwl,
    perturbation_space_basis,
    precompose_scale,
    psi_stages,
    pwl_from_values,
    with_f_breakpoint,
)

F = Fraction
FS = (F(4, 5), F(2, 3))
STAGES = {f: psi_stages(PsiParams(f, tuple(generate_eps(f, 3)))) for f in FS}
BASES = {}


def outcome(test, fn, perturbation):
    """The ε, or the message of the ValueError raised."""
    try:
        return test(fn, perturbation)
    except ValueError as exc:
        return str(exc)


def assert_same_epsilon(fn, perturbation):
    got = outcome(epsilon_ratio_test, fn, perturbation)
    assert got == outcome(ref.epsilon_ratio_test, fn, perturbation)
    return got


def basis(fn):
    """The interpolated perturbation basis of fn on the grid (1/(3q))Z."""
    key = (fn.f, fn.breakpoints, fn.limits)
    if key not in BASES:
        b = perturbation_space_basis(fn)
        BASES[key] = [interpolate_perturbation(v, b.grid_n, fn.f) for v in b.vectors]
    return BASES[key]


@st.composite
def combinations(draw, max_stage=3):
    """(fn, gmic − psi_k) for fn = λ·gmic + (1 − λ)·psi_k, 0 < λ < 1."""
    f = draw(st.sampled_from(FS))
    k = draw(st.integers(min_value=1, max_value=max_stage))
    lam = draw(st.fractions(min_value=F(1, 12), max_value=F(11, 12), max_denominator=12))
    psi = STAGES[f][k]
    fn = with_f_breakpoint(affine_combine(lam, gmic(f), 1 - lam, psi))
    return fn, affine_combine(1, gmic(f), -1, psi)


@given(combinations(), st.sampled_from([F(1), F(-2), F(1, 3)]))
@settings(max_examples=30, deadline=None, derandomize=True)
def test_combination_directions(pair, c):
    fn, direction = pair
    eps = assert_same_epsilon(fn, affine_combine(c, direction, 0, direction))
    assert isinstance(eps, Fraction) and eps > 0


@given(combinations(max_stage=2), st.sampled_from([2, 3, -1, -2]))
@settings(max_examples=20, deadline=None, derandomize=True)
def test_precompose_scale_images(pair, lam):
    fn, direction = pair
    image = precompose_scale(fn, lam)
    eps = assert_same_epsilon(image, precompose_scale(direction, lam))
    # An automorphism of the group carries Δ to Δ, so ε does not move.
    assert eps == epsilon_ratio_test(fn, direction)


@st.composite
def finer_perturbations(draw):
    """(fn, perturbation) with the perturbation's breakpoints on (1/(mq))Z:
    an integer combination of fn's perturbation basis on (1/(3q))Z, plus,
    in some draws, a small generated bump on (1/(mq))Z that need not be
    additive where fn is."""
    fn, _ = draw(combinations(max_stage=2))
    vectors = basis(fn)
    coeffs = [draw(st.integers(min_value=-2, max_value=2)) for _ in vectors]
    perturbation = make_pwl(fn.f, [0], [(0, 0, 0)])
    for a, v in zip(coeffs, vectors):
        perturbation = affine_combine(1, perturbation, a, v)
    if draw(st.booleans()):
        n = draw(st.integers(min_value=2, max_value=4)) * fn.denominator_lcm()
        start = draw(st.integers(min_value=1, max_value=n - 2))
        height = draw(st.sampled_from([F(-1, 50), F(1, 100), F(1, 7)]))
        bump = pwl_from_values(
            fn.f, [(0, F(0)), (F(start, n), F(0)), (F(start + 1, n), height), (F(start + 2, n), F(0))]
        )
        perturbation = affine_combine(1, perturbation, 1, bump)
    return fn, perturbation


def test_finer_perturbations():
    seen = set()

    @given(finer_perturbations())
    @settings(max_examples=60, deadline=None, derandomize=True)
    def check(pair):
        fn, perturbation = pair
        got = assert_same_epsilon(fn, perturbation)
        finer = perturbation.denominator_lcm() > fn.denominator_lcm()
        seen.add((got if isinstance(got, str) else "epsilon", finer))

    check()
    assert seen >= {
        ("epsilon", True),
        ("perturbation is identically zero", False),
        ("perturbation is non-additive at a tight pair of the function", True),
    }


def test_midpoint_q51_certificate_direction():
    f = F(40, 51)
    fn = affine_combine(F(1, 2), gmic(f), F(1, 2), psi_stages(PsiParams(f, tuple(generate_eps(f, 1))))[1])
    fn_b = with_f_breakpoint(fn)
    eps = assert_same_epsilon(fn_b, basis(fn_b)[0])
    assert isinstance(eps, Fraction) and eps > 0


def test_both_refusals(gmic45):
    zero = make_pwl(gmic45.f, [0], [(0, 0, 0)])
    with pytest.raises(ValueError, match="identically zero"):
        epsilon_ratio_test(gmic45, zero)
    bump = pwl_from_values(F(4, 5), [(0, F(0)), (F(1, 5), F(1, 10)), (F(2, 5), F(0))])
    with pytest.raises(ValueError, match="tight pair"):
        epsilon_ratio_test(gmic45, bump)
    assert outcome(ref.epsilon_ratio_test, gmic45, bump) == outcome(epsilon_ratio_test, gmic45, bump)


def test_jumps_are_refused(gmic45, combo):
    jump = make_pwl(F(4, 5), [0], [(F(5, 4), 0, 0)])
    direction = affine_combine(1, gmic45, -1, combo)
    for fn, perturbation in ((jump, direction), (combo, jump)):
        with pytest.raises(ValueError, match="continuous functions only"):
            epsilon_ratio_test(fn, perturbation)


def test_non_subadditive_function_is_refused():
    # Not subadditive: Δfn(5/8, 5/8) = -1/4, where Δbump = 0.  The vertices
    # alone cannot tell what the grid oracle reads on such a function, so it
    # is refused.
    values = [0, 3, 6, 6, 6, 2, 5, 7]
    fn = pwl_from_values(F(1, 2), [(F(i, 8), F(v, 8)) for i, v in enumerate(values)])
    bump = pwl_from_values(F(1, 2), [(0, F(0)), (F(1, 4), F(0)), (F(3, 8), F(1)), (F(1, 2), F(0))])
    assert ref.epsilon_ratio_test(fn, bump) == F(1, 8)
    with pytest.raises(ValueError, match="requires a subadditive function"):
        epsilon_ratio_test(fn, bump)


# -- interpolation -------------------------------------------------------------


def assert_same_interpolant(vector, f):
    n = len(vector)
    got = interpolate_perturbation(vector, n, f)
    want = pwl_from_values(f, [(F(i, n), F(v)) for i, v in enumerate(vector)]).canonicalize()
    assert (got.f, got.breakpoints, got.limits) == (want.f, want.breakpoints, want.limits)


@pytest.mark.parametrize(
    "vector",
    [
        [F(0)] * 6,
        [F(3, 7)] * 6,
        [F(1)],
        [F(0), F(1)],
        # Kinks at 0 and 3.
        [F(0), F(1), F(2), F(3), F(2), F(1)],
        # Kinks at 1 and 3; 0 is kept though the slope does not change there.
        [F(1), F(2), F(1), F(0)],
        # Kinks at 0, 1 and n - 1.
        [F(1, 2), F(0), F(0), F(0), F(0)],
        # Kinks at 0, n - 2 and n - 1.
        [F(0), F(0), F(0), F(0), F(1, 2)],
    ],
)
def test_interpolation_edge_vectors(vector):
    assert_same_interpolant(vector, F(1, 2))


@given(
    st.lists(st.fractions(min_value=-2, max_value=2, max_denominator=6), min_size=1, max_size=40),
    st.sampled_from([F(1, 3), F(4, 5)]),
)
@settings(max_examples=100, deadline=None, derandomize=True)
def test_interpolation_generated(vector, f):
    assert_same_interpolant(vector, f)


@given(st.lists(st.integers(min_value=-3, max_value=3), min_size=1, max_size=20))
@settings(max_examples=50, deadline=None, derandomize=True)
def test_interpolation_of_sparse_kinks(slopes):
    # Piecewise constant steps make long straight runs between kinks.
    vector, v = [], F(0)
    for s in slopes:
        for _ in range(3):
            vector.append(v)
            v += s
    assert_same_interpolant(vector, F(2, 3))


# -- no grid scan on the certificate path --------------------------------------


def test_certificate_path_scans_no_grid(monkeypatch, gmic45, psi45_stages):
    fn = affine_combine(F(1, 3), gmic45, F(2, 3), psi45_stages[2])
    verdict = extremality_test(fn)
    assert verdict.certificate is not None
    forbid(monkeypatch, "min_slack_ratio")
    forbid(monkeypatch, "grid_values")
    assert extremality_test(fn) == verdict
