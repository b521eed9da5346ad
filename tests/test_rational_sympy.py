"""``rank``, ``rref`` and ``nullspace`` against ``sympy.Matrix``.

sympy is not a declared dependency, so the module is skipped without it.
sympy's null-space basis is compared up to its basis convention: both
bases must span the same space, which their reduced row echelon forms
decide.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings

from groupcut import RatMatrix, nullspace, rank, rref
from test_rational_reference import matrices

sympy = pytest.importorskip("sympy")


def to_sympy(matrix: RatMatrix):
    flat = [sympy.Rational(x.numerator, x.denominator) for row in matrix.rows for x in row]
    return sympy.Matrix(matrix.n_rows, matrix.n_cols, flat)


def from_sympy(m):
    return [[Fraction(int(x.p), int(x.q)) for x in m.row(i)] for i in range(m.rows)]


@given(matrices())
@settings(max_examples=60, deadline=None, derandomize=True)
def test_matches_sympy(matrix):
    m = to_sympy(matrix)
    assert rank(matrix) == m.rank()
    rows, pivots = rref(matrix)
    want_rows, want_pivots = m.rref()
    assert pivots == list(want_pivots)
    assert rows == from_sympy(want_rows)
    basis = nullspace(matrix)
    want_basis = [from_sympy(v.T)[0] for v in m.nullspace()]
    assert len(basis) == len(want_basis) == matrix.n_cols - len(pivots)
    if basis:
        assert rref(RatMatrix(basis)) == rref(RatMatrix(want_basis))
        assert all(x == 0 for row in RatMatrix(basis).rows for x in matrix.matvec(row))
