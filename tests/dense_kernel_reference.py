"""The integer Gauss–Jordan kernel on dense rows, kept as the oracle for
the sparse kernel of ``groupcut.rational``.

Rows are lists of integers over every column.  The pivot is the first row
with a nonzero entry in the scan column, and each other row becomes
p·row − a·pivot_row over its gcd, as in fraction-free elimination
(Bareiss, Math. Comp. 22, 1968).  The reference solvers of
``solver_tail_reference`` and ``solver_loops_reference`` run on it.
"""

from __future__ import annotations

from math import gcd, lcm
from typing import List, Sequence, Tuple


def eliminate(row: List[int], pivot_row: List[int], col: int) -> List[int]:
    """p·row − a·pivot_row, p and a the entries at col over their gcd, divided
    by the gcd of its entries."""
    p, a = pivot_row[col], row[col]
    g = gcd(p, a)
    new = [p // g * x - a // g * y for x, y in zip(row, pivot_row)]
    g = gcd(*new)
    return [x // g for x in new] if g > 1 else new


def integer_rref(rows: Sequence[List[int]], n_cols: int) -> Tuple[List[List[int]], List[int]]:
    """Fraction-free Gauss–Jordan elimination; returns (rows, pivot columns).

    Row r < len(pivots), divided by its entry at pivots[r], is row r of the
    reduced row echelon form; the rows after them are zero.
    """
    m = [list(row) for row in rows]
    n_rows = len(m)
    pivots: List[int] = []
    r = 0
    for c in range(n_cols):
        pivot_row = next((i for i in range(r, n_rows) if m[i][c]), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        for i in range(n_rows):
            if i != r and m[i][c]:
                m[i] = eliminate(m[i], m[r], c)
        pivots.append(c)
        r += 1
        if r == n_rows:
            break
    return m, pivots


def integer_nullspace(rows: Sequence[List[int]], n_cols: int) -> Tuple[int, List[List[int]]]:
    """(d, vectors): the null space of the integer matrix, times d > 0, free
    columns in ascending order."""
    m, pivots = integer_rref(rows, n_cols)
    d = lcm(*(m[r][c] for r, c in enumerate(pivots)))
    basis: List[List[int]] = []
    for fc in sorted(set(range(n_cols)) - set(pivots)):
        vec = [0] * n_cols
        vec[fc] = d
        for r, pc in enumerate(pivots):
            vec[pc] = -m[r][fc] * (d // m[r][pc])
        basis.append(vec)
    return d, basis
