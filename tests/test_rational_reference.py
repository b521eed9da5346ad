"""The fraction-free kernel against Fraction Gauss–Jordan elimination.

``rref``, ``rank`` and ``nullspace`` must be ``==`` to ``rational_reference``
(rows, pivots, the zero-row tail and the element type) on derandomized
draws of rational matrices, and on the matrix that the solver hands to
the kernel for convex combinations and finite restrictions.  The sparse
kernel must equal the dense one of ``dense_kernel_reference`` entry for
entry on the same draws scaled to integers.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dense_kernel_reference as dense
import rational_reference as ref
from groupcut import (
    PsiParams,
    RatMatrix,
    affine_combine,
    extremality_test,
    finite_extremality_test,
    generate_eps,
    gmic,
    nullspace,
    psi_stages,
    rank,
    restrict_to_finite_group,
    rref,
)
from groupcut import solver
from groupcut.rational import integer_nullspace, integer_rref, scale_to_integers

F = Fraction
F45 = F(4, 5)

entries = st.one_of(
    st.just(F(0)),
    st.integers(-3, 3).map(F),
    st.fractions(min_value=-5, max_value=5, max_denominator=12),
    # Large, mostly coprime denominators: numbers the kernel must keep exact.
    st.builds(F, st.integers(-10**15, 10**15), st.integers(1, 10**15)),
)

shapes = st.one_of(
    st.tuples(st.integers(0, 6), st.integers(0, 6)),
    st.tuples(st.integers(1, 3), st.integers(8, 14)),  # wide
    st.tuples(st.integers(8, 14), st.integers(1, 3)),  # tall
)


@st.composite
def matrices(draw):
    """Rational matrices with zero rows and columns, duplicate and negated
    rows and sums of rows mixed in at drawn positions."""
    n_rows, n_cols = draw(shapes)
    rows = [[draw(entries) for _ in range(n_cols)] for _ in range(n_rows)]
    if n_cols:
        for c in draw(st.lists(st.integers(0, n_cols - 1), max_size=2)):
            for row in rows:
                row[c] = F(0)
    for op in draw(st.lists(st.sampled_from(["zero", "dup", "neg", "sum"]), max_size=3)):
        if op == "zero" or not rows:
            new = [F(0)] * n_cols
        else:
            a = rows[draw(st.integers(0, len(rows) - 1))]
            b = rows[draw(st.integers(0, len(rows) - 1))]
            new = {
                "dup": a[:],
                "neg": [-x for x in a],
                "sum": [x + draw(entries) * y for x, y in zip(a, b)],
            }[op]
        rows.insert(draw(st.integers(0, len(rows))), new)
    return RatMatrix(rows, n_cols=n_cols)


def assert_matches_reference(matrix):
    rows, pivots = rref(matrix)
    want_rows, want_pivots = ref.rref(matrix)
    assert pivots == want_pivots
    assert rows == want_rows
    assert len(rows) == matrix.n_rows
    assert all(x == 0 for row in rows[len(pivots):] for x in row)
    assert all(type(x) is Fraction for row in rows for x in row)
    assert rank(matrix) == len(want_pivots)
    basis = nullspace(matrix)
    assert basis == ref.nullspace(matrix)
    assert all(type(x) is Fraction for vec in basis for x in vec)


@given(matrices())
@settings(max_examples=120, deadline=None, derandomize=True)
def test_generated_matrices_match_reference(matrix):
    assert_matches_reference(matrix)


@given(matrices())
@settings(max_examples=120, deadline=None, derandomize=True)
def test_sparse_kernel_equals_the_dense_kernel(matrix):
    # Each row scaled by the lcm of its denominators, as rref scales it.
    rows, n_cols = [scale_to_integers(row)[0] for row in matrix.rows], matrix.n_cols
    sparse = [{c: x for c, x in enumerate(row) if x} for row in rows]
    got, pivots = integer_rref(sparse, n_cols)
    want, want_pivots = dense.integer_rref(rows, n_cols)
    assert pivots == want_pivots
    assert len(got) == len(want)
    assert [[row.get(c, 0) for c in range(n_cols)] for row in got] == want
    assert all(0 not in row.values() for row in got)
    assert all(not row for row in got[len(pivots):])
    assert integer_nullspace(sparse, n_cols) == dense.integer_nullspace(rows, n_cols)


@pytest.mark.parametrize(
    "rows,n_cols",
    [
        ([], 0),
        ([], 4),  # no rows: an explicit column count, the standard null basis
        ([[]], 0),
        ([[0, 0], [0, 0]], 2),
        ([[0, 2, 4], [0, 1, 2], [0, -1, -2]], 3),  # zero column, parallel rows
        ([[F(1, 3), F(-2, 7)], [F(-1, 3), F(2, 7)], [F(1, 3), F(-2, 7)]], 2),
        ([[F(10**18 + 1, 10**18), F(-1, 10**18 + 3), F(7)], [F(1), F(0), F(1, 10**18)]], 3),
        ([[0, 0, 3], [0, 5, 0], [2, 0, 0]], 3),  # pivot rows arrive reversed
    ],
)
def test_hand_made_matrices_match_reference(rows, n_cols):
    assert_matches_reference(RatMatrix(rows, n_cols=n_cols))


def _combinations():
    psi = psi_stages(PsiParams(F45, tuple(generate_eps(F45, 4))))
    g = gmic(F45)
    lambdas = {1: F(1, 2), 2: F(1, 3), 3: F(1, 2)}
    return {k: affine_combine(lam, g, 1 - lam, psi[k]) for k, lam in lambdas.items()}


COMBOS = _combinations()


def _solver_matrix(monkeypatch, call):
    """The one integer matrix that the solver hands to the kernel during
    call, its sparse rows read densely."""
    seen = []
    original = solver.integer_nullspace

    def wrapper(rows, n_cols):
        rows = list(rows)
        seen.append(RatMatrix([[row.get(c, 0) for c in range(n_cols)] for row in rows], n_cols=n_cols))
        return original(rows, n_cols)

    monkeypatch.setattr(solver, "integer_nullspace", wrapper)
    call()
    assert len(seen) == 1
    return seen[0]


@pytest.mark.parametrize("k", sorted(COMBOS))
def test_solver_matrices_of_combinations_match_reference(monkeypatch, k):
    assert_matches_reference(_solver_matrix(monkeypatch, lambda: extremality_test(COMBOS[k])))


@pytest.mark.parametrize("k", [1, 2])
def test_solver_matrices_of_finite_restrictions_match_reference(monkeypatch, k):
    fn = COMBOS[k]
    g = restrict_to_finite_group(fn, fn.denominator_lcm(), 3)
    assert_matches_reference(_solver_matrix(monkeypatch, lambda: finite_extremality_test(g)))
