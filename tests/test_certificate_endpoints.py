"""The certificate's endpoints are ``affine_combine(1, π, ±ε, bar)``.

Each endpoint of an ``extremality_test`` certificate must be the Fraction
oracle ``pwl_reference.affine_combine(1, π, ±ε, bar)`` field for field (the
same canonical breakpoints and limit triples, so the same repr and JSON),
with ε that of the reference scan, and ``epsilon_ratio_test`` must read the
same ε, on the non-extreme fixtures and on generated λ·gmic + (1−λ)·psi_k.
On generated pairs of continuous functions, whose sums drop and keep
breakpoints of either, ``affine_combine(1, a, ±ε, b)`` must be the oracle's
for any ε.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import certificate_reference as ref
import pwl_reference
from groupcut import (
    affine_combine,
    epsilon_ratio_test,
    extremality_test,
    gmic,
    interpolate_perturbation,
    perturbation_space_basis,
    pwl_from_values,
    with_f_breakpoint,
)
from test_complex2d_reference import FIXTURES, stages

F = Fraction
NOT_EXTREME = ["combo_k1", "combo_k2", "combo_k3"]


def assert_same_function(got, want):
    assert (got.f, got.breakpoints, got.limits) == (want.f, want.breakpoints, want.limits)
    assert repr(got) == repr(want)


def assert_endpoints_are_combinations(fn):
    fn_b = with_f_breakpoint(fn.canonicalize())
    basis = perturbation_space_basis(fn_b)
    bar = interpolate_perturbation(basis.vectors[0], basis.grid_n, fn_b.f)
    eps = ref.epsilon_ratio_test(fn_b, bar)
    assert epsilon_ratio_test(fn_b, bar) == eps
    cert = extremality_test(fn).certificate
    assert_same_function(cert.pi_plus, pwl_reference.affine_combine(1, fn_b, eps, bar))
    assert_same_function(cert.pi_minus, pwl_reference.affine_combine(1, fn_b, -eps, bar))


@pytest.mark.parametrize("name", NOT_EXTREME)
def test_fixtures(name):
    assert_endpoints_are_combinations(FIXTURES[name])


@given(
    st.sampled_from([F(1, 2), F(2, 3), F(3, 4), F(4, 5)]),
    st.integers(min_value=1, max_value=2),
    st.fractions(min_value=F(1, 10), max_value=F(9, 10), max_denominator=12),
)
@settings(max_examples=12, deadline=None, derandomize=True)
def test_generated_combinations(f, k, lam):
    assert_endpoints_are_combinations(affine_combine(lam, gmic(f), 1 - lam, stages(f, k)[k]))


@st.composite
def continuous_functions(draw, f):
    """Continuous functions on (1/q)Z, q <= 24, with f = 1/2 on the grid."""
    q = 2 * draw(st.integers(min_value=1, max_value=12))
    cuts = draw(st.lists(st.integers(min_value=1, max_value=q - 1), max_size=5, unique=True))
    value = st.sampled_from([F(-1, 3), F(0), F(1, 4), F(1, 2), F(1)])
    return pwl_from_values(f, [(F(c, q), draw(value)) for c in sorted({0, *cuts})])


@given(
    continuous_functions(F(1, 2)),
    continuous_functions(F(1, 2)),
    st.fractions(min_value=F(-3), max_value=F(3), max_denominator=7).filter(bool),
)
@settings(max_examples=200, deadline=None, derandomize=True)
def test_endpoints_are_affine_combine_on_any_pair(fn, g, eps):
    # bar = (g - fn)/eps, so fn + eps·bar = g: fn's own breakpoints drop
    # where g has none, and the slope tests meet cancellations.
    bar = affine_combine(1 / eps, g, -1 / eps, fn)
    assert_same_function(bar, pwl_reference.affine_combine(1 / eps, g, -1 / eps, fn))
    for a, b in ((fn, bar), (fn, g)):
        for e in (eps, -eps):
            assert_same_function(affine_combine(1, a, e, b), pwl_reference.affine_combine(1, a, e, b))
