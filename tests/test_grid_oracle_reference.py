"""The grid oracle, which is the finite-group test of the restriction, against
the original grid oracle kept in ``grid_oracle_reference``.

Whole verdicts, witnesses included, must be ``==`` on the fixtures, on one
input for each witness kind, at refine 1 to 4, and on derandomized draws of
functions with jumps.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import grid_oracle_reference as ref
from jump_strategies import jump_functions
from groupcut import (
    PsiParams,
    affine_combine,
    generate_eps,
    gmic,
    make_pwl,
    minimality_grid_oracle,
    psi_stages,
    pwl_from_values,
)
from groupcut.minimality import NEGATIVITY, ORIGIN_VALUE, SUBADDITIVITY, SYMMETRY

F = Fraction
REFINES = (1, 2, 3, 4)


def assert_same_verdict(fn, refine):
    verdict = minimality_grid_oracle(fn, refine)
    assert verdict == ref.minimality_grid_oracle(fn, refine)
    return verdict


def jump_function(f):
    """x -> x/f with a jump at 0."""
    return make_pwl(f, [0], [(1 / f, 0, 0)])


def stage(f, k):
    return psi_stages(PsiParams(f, tuple(generate_eps(f, k))))[k]


@pytest.mark.parametrize("refine", REFINES)
def test_fixtures(refine, gmic45, psi45_stages, combo, psm15):
    jumps = [
        make_pwl(F(1, 2), [0, F(1, 2)], [(1, 0, 0), (1, 1, 0)]),
        affine_combine(F(1, 3), jump_function(F(4, 5)), F(2, 3), psi45_stages[1]),
    ]
    for fn in [gmic45, *psi45_stages, combo, psm15, *jumps]:
        assert_same_verdict(fn, refine)


# One input per witness kind; a symmetry witness is either f itself or a pair.
WITNESS_INPUTS = {
    "origin": (ORIGIN_VALUE, pwl_from_values(F(1, 2), [(0, F(1, 10)), (F(1, 2), F(1))])),
    "negativity": (
        NEGATIVITY,
        pwl_from_values(F(1, 2), [(0, F(0)), (F(1, 4), F(-1, 4)), (F(1, 2), F(1))]),
    ),
    "symmetry_at_f": (SYMMETRY, pwl_from_values(F(1, 2), [(0, F(0)), (F(1, 2), F(1, 2))])),
    "symmetry_pair": (
        SYMMETRY,
        pwl_from_values(F(1, 2), [(0, F(0)), (F(1, 4), F(1, 4)), (F(1, 2), F(1))]),
    ),
    "subadditivity": (
        SUBADDITIVITY,
        pwl_from_values(
            F(4, 5), [(0, F(0)), (F(1, 5), F(1, 10)), (F(3, 5), F(9, 10)), (F(4, 5), F(1))]
        ),
    ),
}


@pytest.mark.parametrize("refine", REFINES)
@pytest.mark.parametrize("name", sorted(WITNESS_INPUTS))
def test_each_witness_kind(name, refine):
    kind, fn = WITNESS_INPUTS[name]
    verdict = assert_same_verdict(fn, refine)
    assert not verdict.minimal
    assert verdict.witness.kind == kind
    at_pair = name in ("symmetry_pair", "subadditivity")
    assert isinstance(verdict.witness.location, tuple) == at_pair


@st.composite
def perturbed_combinations(draw):
    """λ·(jump function or gmic) + (1 − λ)·psi_k, sometimes plus a small tent."""
    f = draw(st.sampled_from([F(1, 2), F(2, 3), F(3, 4), F(4, 5)]))
    k = draw(st.integers(min_value=0, max_value=2))
    lam = draw(st.fractions(min_value=F(1, 10), max_value=F(9, 10), max_denominator=12))
    other = jump_function(f) if draw(st.booleans()) else gmic(f)
    fn = affine_combine(lam, other, 1 - lam, stage(f, k))
    height = draw(st.sampled_from([F(0), F(1, 20), F(-1, 20)]))
    if height:
        tent = pwl_from_values(f, [(0, F(0)), (f / 4, height), (f / 2, F(0))])
        fn = affine_combine(1, fn, 1, tent)
    return fn


@given(jump_functions(), st.sampled_from(REFINES))
@settings(max_examples=150, deadline=None, derandomize=True)
def test_generated_jump_functions(fn, refine):
    assert_same_verdict(fn, refine)


@given(perturbed_combinations(), st.sampled_from(REFINES))
@settings(max_examples=40, deadline=None, derandomize=True)
def test_generated_combinations(fn, refine):
    assert_same_verdict(fn, refine)


@pytest.mark.parametrize("refine", [0, -1])
def test_refine_below_one_is_refused(gmic45, refine):
    with pytest.raises(ValueError):
        minimality_grid_oracle(gmic45, refine)
