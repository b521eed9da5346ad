"""Exact rational scalars and fraction-free exact linear algebra.

Rationals are :class:`fractions.Fraction` throughout the package; the stdlib
type already guarantees the canonical-form invariants we rely on (reduced
terms, positive denominator, exact field arithmetic, ``p/q`` string form).
This module adds the strict parser used by the JSON layer and one integer
Gauss–Jordan kernel behind ``rref``, ``rank`` and ``nullspace``: rows are
scaled by the lcm of their denominators, the pivot is the first row with a
nonzero entry in the scan column, and each other row becomes
p·row − a·pivot_row over its gcd, as in fraction-free elimination (Bareiss,
Math. Comp. 22, 1968).  These row operations keep the row space, and at the
end each pivot row, divided by its pivot, is a row of a matrix in reduced
row echelon form; that form of a row space is unique, so the output is the
one Fraction elimination gives.

``least_ratio`` holds the one rule that picks the ε of a certificate, in
the infinite and the finite group alike: the first least slack / |Δ| over
the pairs where Δ ≠ 0, compared by integer cross products, refusing a pair
where Δ ≠ 0 and slack <= 0.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, List, Sequence, Tuple

Rat = Fraction

_RAT_RE = re.compile(r"^-?\d+(/\d+)?$")

# Dense elimination beyond this many entries would exhaust memory long before
# it finished; fail with a clear message instead.
_MAX_ENTRIES = 40_000_000
_MAX_COLS = 20_000


def rat_parse(text: str) -> Fraction:
    """Parse ``"p/q"`` or ``"p"`` into a canonical rational.

    Only the integer and slash forms are accepted; decimals, whitespace and
    exponents are rejected so that serialized files round-trip exactly.
    """
    if not isinstance(text, str) or not _RAT_RE.match(text):
        raise ValueError(f"not a rational literal: {text!r}")
    num, _, den = text.partition("/")
    if den == "":
        return Fraction(int(num))
    if int(den) == 0:
        raise ZeroDivisionError(f"zero denominator: {text!r}")
    return Fraction(int(num), int(den))


def rat_str(value: Fraction) -> str:
    """Serialize a rational as ``p/q`` (or ``p`` for integers)."""
    return str(Fraction(value))


class RatMatrix:
    """Dense matrix of rationals stored row-major as lists of Fractions."""

    def __init__(self, rows: Sequence[Sequence[Fraction]], n_cols: int | None = None):
        self.rows: List[List[Fraction]] = [[Fraction(v) for v in row] for row in rows]
        if self.rows:
            width = len(self.rows[0])
            for row in self.rows:
                if len(row) != width:
                    raise ValueError("inconsistent row width")
            if n_cols is not None and n_cols != width:
                raise ValueError("n_cols disagrees with row width")
            self.n_cols = width
        else:
            if n_cols is None:
                raise ValueError("empty matrix needs an explicit column count")
            self.n_cols = n_cols
        if self.n_cols > _MAX_COLS or len(self.rows) * self.n_cols > _MAX_ENTRIES:
            raise ValueError(
                f"matrix of {len(self.rows)}x{self.n_cols} exceeds the dense-size bound"
            )

    @property
    def n_rows(self) -> int:
        return len(self.rows)

    def matvec(self, vec: Sequence[Fraction]) -> List[Fraction]:
        if len(vec) != self.n_cols:
            raise ValueError("dimension mismatch in matvec")
        return [sum((a * b for a, b in zip(row, vec)), Fraction(0)) for row in self.rows]


def scale_to_integers(values: Sequence[Fraction]) -> Tuple[List[int], int]:
    """(ints, d): d the lcm of the denominators, ints the values times d."""
    d = lcm(*(x.denominator for x in values))
    return [x.numerator * (d // x.denominator) for x in values], d


def least_ratio(pairs: Iterable[Tuple[int, int]], s: int = 1, d: int = 0) -> Tuple[int, int]:
    """(s, d) for the first least ratio s/d of slack / |delta| over the
    (slack, delta) integer pairs where delta ≠ 0, taking the start s/d in
    front of them; 1/0 means no ratio yet.  A later pair replaces the least
    only if its ratio is strictly smaller, so a tie keeps the earlier one.
    Raises ValueError where delta ≠ 0 and slack <= 0, since no ε > 0 keeps
    such a pair subadditive on both sides.
    """
    for slack, delta in pairs:
        if not delta:
            continue
        if slack <= 0:
            raise ValueError("perturbation is non-additive at a tight pair of the function")
        if delta < 0:
            delta = -delta
        if slack * d < s * delta:
            s, d = slack, delta
    return s, d


def _integer_rows(matrix: RatMatrix) -> List[List[int]]:
    return [scale_to_integers(row)[0] for row in matrix.rows]


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
    """(d, vectors): ``nullspace`` of the integer matrix, times d > 0."""
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


def rref(matrix: RatMatrix) -> Tuple[List[List[Fraction]], List[int]]:
    """Reduced row echelon form; returns (rows, pivot column indices).

    The pivot rows come first, in pivot order, followed by the zero rows.
    """
    m, pivots = integer_rref(_integer_rows(matrix), matrix.n_cols)
    out = [[Fraction(x, row[c]) for x in row] for row, c in zip(m, pivots)]
    out.extend([Fraction(0)] * matrix.n_cols for _ in m[len(pivots):])
    return out, pivots


def rank(matrix: RatMatrix) -> int:
    return len(integer_rref(_integer_rows(matrix), matrix.n_cols)[1])


def nullspace(matrix: RatMatrix) -> List[List[Fraction]]:
    """Deterministic null-space basis.

    Free variables are taken in ascending column order and set to 1 one at a
    time; pivot variables are back-substituted from the RREF.  A matrix with
    no rows yields the standard basis.
    """
    d, basis = integer_nullspace(_integer_rows(matrix), matrix.n_cols)
    return [[Fraction(x, d) for x in vec] for vec in basis]
