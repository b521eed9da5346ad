"""Reference grid oracle: a frozen copy of the original
``minimality_grid_oracle``, which checked the minimality conditions on the
values of fn over ((1/(refine*q))Z)^2 in its own loops.  The library's
oracle is now the finite-group test of the restriction to that grid; the
tests compare the two verdict for verdict, witnesses included.
"""

from __future__ import annotations

from fractions import Fraction

from groupcut.minimality import (
    NEGATIVITY,
    ORIGIN_VALUE,
    SUBADDITIVITY,
    SYMMETRY,
    MinimalityVerdict,
    MinimalityWitness,
)
from groupcut.finite import first_subadditivity_violation
from groupcut.pwl import PwlPeriodic, grid_values
from groupcut.rational import scale_to_integers


def minimality_grid_oracle(fn: PwlPeriodic, refine: int = 3) -> MinimalityVerdict:
    q = fn.denominator_lcm()
    n = refine * q
    vals = grid_values(fn, n)
    iv, denom = scale_to_integers(vals)
    one = denom

    if iv[0] != 0:
        return MinimalityVerdict(False, MinimalityWitness(ORIGIN_VALUE, Fraction(0), vals[0]))
    for i, v in enumerate(iv):
        if v < 0:
            return MinimalityVerdict(
                False, MinimalityWitness(NEGATIVITY, Fraction(i, n), vals[i])
            )
    f_idx = int(fn.f * n)
    if iv[f_idx] != one:
        return MinimalityVerdict(False, MinimalityWitness(SYMMETRY, fn.f, vals[f_idx]))
    for i in range(n):
        j = (f_idx - i) % n
        if iv[i] + iv[j] != one:
            return MinimalityVerdict(
                False,
                MinimalityWitness(
                    SYMMETRY,
                    (Fraction(i, n), Fraction(j, n)),
                    Fraction(iv[i] + iv[j] - one, denom),
                ),
            )
    pair = first_subadditivity_violation(iv)
    if pair is not None:
        i, j = pair
        return MinimalityVerdict(
            False,
            MinimalityWitness(
                SUBADDITIVITY,
                (Fraction(i, n), Fraction(j, n)),
                Fraction(iv[i] + iv[j] - iv[(i + j) % n], denom),
            ),
        )
    return MinimalityVerdict(True)
