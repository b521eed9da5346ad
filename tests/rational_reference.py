"""Fraction Gauss–Jordan elimination, kept as the oracle for
``groupcut.rational``.

This is ``rref`` as it was before the fraction-free kernel: every entry a
Fraction, each pivot row divided by its pivot, and every other row reduced
by a Fraction multiple of it.  ``nullspace`` is the back-substitution that
used it.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Tuple

from groupcut.rational import RatMatrix


def rref(matrix: RatMatrix) -> Tuple[List[List[Fraction]], List[int]]:
    """Reduced row echelon form; returns (rows, pivot column indices).

    Pivot selection is the first row with a nonzero entry in the scan column.
    """
    m = [row[:] for row in matrix.rows]
    n_rows, n_cols = len(m), matrix.n_cols
    pivots: List[int] = []
    r = 0
    for c in range(n_cols):
        pivot_row = next((i for i in range(r, n_rows) if m[i][c] != 0), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        inv = m[r][c]
        m[r] = [v / inv for v in m[r]]
        for i in range(n_rows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == n_rows:
            break
    return m, pivots


def nullspace(matrix: RatMatrix) -> List[List[Fraction]]:
    """Free variables in ascending column order, each set to 1 in turn."""
    m, pivots = rref(matrix)
    n_cols = matrix.n_cols
    pivot_set = set(pivots)
    basis: List[List[Fraction]] = []
    for fc in (c for c in range(n_cols) if c not in pivot_set):
        vec = [Fraction(0)] * n_cols
        vec[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            vec[pc] = -m[r][fc]
        basis.append(vec)
    return basis
