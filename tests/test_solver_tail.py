"""The solver solves once, over δ, and gives the basis the old tail gave.

``perturbation_space`` must be ``==`` to ``solver_tail_reference`` (the
three-elimination tail) on the fixtures, on synthetic and derandomized run
lists with extra pairs, and on the ½·gmic + ½·psi_1 midpoints at q = 51
and q = 501.  At q = 1251 the verdict and certificate are pinned by a
digest taken from the three-elimination solver, under a time budget.
"""

import hashlib
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import solver_reference as ref
import solver_tail_reference as tail
from groupcut import (
    PsiParams,
    affine_combine,
    extremality_test,
    generate_eps,
    gmic,
    psi_stages,
)
from groupcut.serialize import certificate_json, dumps, extremality_verdict_json
from groupcut.solver import _difference_classes, perturbation_space
from test_solver_reference import CASES, FIXTURES, SYNTHETIC, pair_runs, run_lists, solver_input

F = Fraction


def midpoint(q, num):
    """½·gmic + ½·psi_1 at f = num/q: minimal, not extreme."""
    f = F(num, q)
    return affine_combine(F(1, 2), gmic(f), F(1, 2), psi_stages(PsiParams(f, tuple(generate_eps(f, 1))))[1])


def assert_same_as_tail(n, f_index, runs, pairs=()):
    basis = perturbation_space(n, f_index, [*runs, *pair_runs(pairs)])
    assert basis == tail.perturbation_space(n, f_index, runs, pairs)
    assert all(type(x) is Fraction for row in basis for x in row)
    return basis


@pytest.mark.parametrize("name,m", CASES)
def test_fixture_matches_tail(name, m):
    assert_same_as_tail(*solver_input(FIXTURES[name], m))


@pytest.mark.parametrize("name", sorted(SYNTHETIC))
def test_synthetic_runs_match_tail(name):
    assert_same_as_tail(*SYNTHETIC[name], pairs=[(1, 2)])


@st.composite
def runs_with_pairs(draw):
    n, f_index, runs = draw(run_lists())
    grid = st.integers(min_value=0, max_value=n)
    return n, f_index, runs, draw(st.lists(st.tuples(grid, grid), max_size=4))


@given(runs_with_pairs())
@settings(max_examples=150, deadline=None, derandomize=True)
def test_generated_runs_match_tail(case):
    assert_same_as_tail(*case)


@pytest.mark.parametrize("q,num", [(51, 40), (501, 400)])
def test_midpoint_matches_tail(q, num):
    basis = assert_same_as_tail(*solver_input(midpoint(q, num)))
    assert len(basis) == 3 * q // 10


def test_last_class_first_met_at_the_last_step():
    # Shift 2 over [0, 3) unites {0, 2, 4} and {1, 3}; steps 5, 6 and 7 are
    # classes of their own, the last first met at step n - 1 = 7.
    n, f_index, runs = 8, 4, [("h", 2, 0, 3)]
    cls = _difference_classes(n, runs)
    assert cls == [0, 1, 0, 1, 0, 2, 3, 4]
    for pairs in ((), [(7, 1)], [(5, 3), (6, 6)]):
        basis = assert_same_as_tail(n, f_index, runs, pairs)
        assert basis == ref.perturbation_space(n, f_index, runs, pairs)
        assert basis


# sha256 of the canonical verdict and certificate JSON of the q = 1251
# midpoint, from the three-elimination solver.
MIDPOINT_1251_SHA256 = "059b5bc723ee27dff53f35977f533fbd6684747ffc45f467d2291e4203c551df"


def test_midpoint_1251_digest_within_budget():
    # On a 2-CPU machine (Python 3.11.7) the three-elimination tail took
    # 3.3 s and one solve over δ takes about 0.25 s.  The budget keeps the
    # headroom of the fine-grid gmic test, 40 times the time measured.
    fn = midpoint(1251, 1000)
    start = time.perf_counter()
    verdict = extremality_test(fn)
    elapsed = time.perf_counter() - start
    text = dumps(extremality_verdict_json(verdict)) + dumps(certificate_json(verdict.certificate))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == MIDPOINT_1251_SHA256
    assert verdict.grid_n == 3753 and verdict.basis_dimension == 375
    assert elapsed < 10, f"took {elapsed:.1f} s"
