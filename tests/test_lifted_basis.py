"""The extremality test lifts only the first basis vector.

``perturbation_space`` lifts each basis vector to its grid values when it
is first read.  ``extremality_test`` reads the count and the first vector,
and scales the certificate's perturbation by ε directly.  On the continuous
fixtures, on generated λ·gmic + (1−λ)·psi_k and on the q = 501 midpoint:

- the verdict's basis dimension is the number of vectors of
  ``perturbation_space_basis``, and the extremality test lifted at most one;
  so did ``finite_extremality_test`` on restrictions, whose certificate
  perturbation is the first vector of ``finite_perturbation_basis``;
- the certificate's perturbation is ε times the interpolant of the first
  vector, byte for byte the ε·bar + 0·bar that ``affine_combine`` gave;
- ``perturbation_space_basis`` and ``finite_perturbation_basis`` still
  return every vector, ``==`` to the three-elimination tail reference.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import solver_tail_reference as tail
from groupcut import (
    affine_combine,
    epsilon_ratio_test,
    extremality,
    extremality_test,
    solver,
    finite_extremality_test,
    finite_perturbation_basis,
    gmic,
    interpolate_perturbation,
    perturbation_space_basis,
    restrict_to_finite_group,
    with_f_breakpoint,
)
from groupcut.finite import _additive_runs
from groupcut.serialize import dumps, serialize_pwl
from test_complex2d_reference import FIXTURES, stages
from test_solver_reference import solver_input
from test_solver_tail import midpoint

F = Fraction

CONTINUOUS = sorted(name for name, fn in FIXTURES.items() if fn.is_continuous())


def assert_first_vector_only(fn, monkeypatch):
    solved = []
    solve = extremality.perturbation_space

    def recorded(*args):
        solved.append(solve(*args))
        return solved[-1]

    monkeypatch.setattr(extremality, "perturbation_space", recorded)
    verdict = extremality_test(fn)
    assert solved[0]._lifted.keys() <= {0}
    basis = perturbation_space_basis(fn)
    assert verdict.basis_dimension == len(basis.vectors) == len(solved[0])
    assert list(basis.vectors) == list(map(tuple, tail.perturbation_space(*solver_input(fn))))
    if not basis.vectors:
        assert verdict.certificate is None
        return verdict
    fn_b = with_f_breakpoint(fn.canonicalize())
    bar = interpolate_perturbation(basis.vectors[0], basis.grid_n, fn_b.f)
    eps = epsilon_ratio_test(fn_b, bar)
    cert = verdict.certificate
    assert cert.epsilon == 1
    assert dumps(serialize_pwl(cert.perturbation)) == dumps(serialize_pwl(affine_combine(eps, bar, 0, bar)))
    return verdict


def assert_finite_first_vector_only(g, monkeypatch):
    solved = []
    solve = solver.perturbation_space

    def recorded(*args):
        solved.append(solve(*args))
        return solved[-1]

    monkeypatch.setattr(solver, "perturbation_space", recorded)
    verdict = finite_extremality_test(g)
    assert len(solved) == 1 and solved[0]._lifted.keys() <= {0}
    monkeypatch.undo()
    basis = finite_perturbation_basis(g)
    assert verdict.basis_dimension == len(basis) == len(solved[0])
    if basis:
        assert verdict.certificate.perturbation.values == tuple(basis[0])
    return verdict


@pytest.mark.parametrize("name", CONTINUOUS)
def test_fixtures_lift_the_first_vector(name, monkeypatch):
    assert_first_vector_only(FIXTURES[name], monkeypatch)


def test_midpoint_501_lifts_the_first_vector(monkeypatch):
    verdict = assert_first_vector_only(midpoint(501, 400), monkeypatch)
    assert verdict.basis_dimension == 150


@pytest.mark.parametrize("name", ["psi_1", "combo_k1", "combo_k2"])
def test_finite_extremality_lifts_the_first_vector(name, monkeypatch):
    fn = FIXTURES[name]
    g = restrict_to_finite_group(fn, fn.denominator_lcm(), 3)
    assert_finite_first_vector_only(g, monkeypatch)


def test_finite_midpoint_lifts_the_first_vector(monkeypatch):
    g = restrict_to_finite_group(midpoint(101, 80), 101, 3)
    verdict = assert_finite_first_vector_only(g, monkeypatch)
    assert not verdict.extreme and verdict.basis_dimension > 1


@given(
    st.sampled_from([F(1, 2), F(2, 3), F(3, 4), F(4, 5)]),
    st.integers(min_value=1, max_value=2),
    st.fractions(min_value=F(1, 10), max_value=F(9, 10), max_denominator=12),
)
@settings(max_examples=12, deadline=None, derandomize=True)
def test_generated_combinations_lift_the_first_vector(f, k, lam):
    with pytest.MonkeyPatch.context() as monkeypatch:
        assert_first_vector_only(affine_combine(lam, gmic(f), 1 - lam, stages(f, k)[k]), monkeypatch)


@pytest.mark.parametrize("name", ["psi_1", "psi_2", "combo_k1", "combo_k2"])
def test_finite_basis_returns_every_vector(name):
    fn = FIXTURES[name]
    g = restrict_to_finite_group(fn, fn.denominator_lcm(), 3)
    basis = finite_perturbation_basis(g)
    assert type(basis) is list
    assert basis == tail.perturbation_space(g.q, g.f_index, _additive_runs(g._integers[0]))
    assert len(basis) == finite_extremality_test(g).basis_dimension
