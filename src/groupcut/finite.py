"""Finite cyclic group restrictions of periodic functions.

A finite group function lives on (1/q)Z / Z and is stored as its q values.
Restriction samples an infinite-group function on the grid; interpolation
joins the sampled values by straight segments.  Minimality and extremality
over the finite group reduce to finitely many equations and an exact null
space computation.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Tuple

from .minimality import (
    NEGATIVITY,
    ORIGIN_VALUE,
    SUBADDITIVITY,
    SYMMETRY,
    MinimalityVerdict,
    MinimalityWitness,
    first_subadditivity_violation,
    min_slack_ratio,
)
from .pwl import PwlPeriodic, grid_values, pwl_from_values
from .rational import scale_to_integers


@dataclass(frozen=True)
class FiniteGroupFn:
    q: int
    f_index: int
    values: Tuple[Fraction, ...]

    def __post_init__(self):
        if self.q < 2:
            raise ValueError("group order must be at least 2")
        if not 0 < self.f_index < self.q:
            raise ValueError("f_index must lie strictly between 0 and q")
        if len(self.values) != self.q:
            raise ValueError("need exactly q values")
        object.__setattr__(self, "values", tuple(Fraction(v) for v in self.values))

    @property
    def f(self) -> Fraction:
        return Fraction(self.f_index, self.q)


def restrict_to_finite_group(fn: PwlPeriodic, q: int, m: int = 1) -> FiniteGroupFn:
    """Sample fn on (1/(mq))Z; f must lie on that grid."""
    n = m * q
    f_index = fn.f * n
    if f_index.denominator != 1:
        raise ValueError(f"f={fn.f} does not lie on the (1/{n})Z grid")
    values = tuple(grid_values(fn, n))
    return FiniteGroupFn(q=n, f_index=int(f_index), values=values)


def interpolate_to_infinite_group(g: FiniteGroupFn) -> PwlPeriodic:
    """Continuous piecewise linear interpolant through the grid values."""
    pts = [(Fraction(i, g.q), v) for i, v in enumerate(g.values)]
    return pwl_from_values(g.f, pts).canonicalize()


def _scaled(g: FiniteGroupFn) -> Tuple[List[int], int]:
    return scale_to_integers(g.values)


def finite_minimality_test(g: FiniteGroupFn) -> MinimalityVerdict:
    """Minimality over the finite group, same witness conventions as the
    infinite test (locations reported as grid fractions)."""
    q = g.q
    iv, denom = _scaled(g)
    one = denom
    if iv[0] != 0:
        return MinimalityVerdict(False, MinimalityWitness(ORIGIN_VALUE, Fraction(0), g.values[0]))
    for i, v in enumerate(iv):
        if v < 0:
            return MinimalityVerdict(False, MinimalityWitness(NEGATIVITY, Fraction(i, q), g.values[i]))
    if iv[g.f_index] != one:
        return MinimalityVerdict(False, MinimalityWitness(SYMMETRY, g.f, g.values[g.f_index]))
    for i in range(q):
        j = (g.f_index - i) % q
        if iv[i] + iv[j] != one:
            return MinimalityVerdict(
                False,
                MinimalityWitness(
                    SYMMETRY, (Fraction(i, q), Fraction(j, q)), Fraction(iv[i] + iv[j] - one, denom)
                ),
            )
    pair = first_subadditivity_violation(iv)
    if pair is not None:
        i, j = pair
        return MinimalityVerdict(
            False,
            MinimalityWitness(
                SUBADDITIVITY,
                (Fraction(i, q), Fraction(j, q)),
                Fraction(iv[i] + iv[j] - iv[(i + j) % q], denom),
            ),
        )
    return MinimalityVerdict(True)


@dataclass(frozen=True)
class FiniteCertificate:
    perturbation: FiniteGroupFn
    epsilon: Fraction
    g_plus: FiniteGroupFn
    g_minus: FiniteGroupFn


@dataclass(frozen=True)
class FiniteExtremalityVerdict:
    extreme: bool
    basis_dimension: int
    certificate: Optional[FiniteCertificate] = None


def _additive_runs(iv: List[int], q: int) -> List[Tuple[str, int, int, int]]:
    """Maximal horizontal runs of additive pairs (i, j), i scanned per j."""
    runs = []
    for j in range(q):
        vj = iv[j]
        start = None
        for i in range(q):
            tight = iv[i] + vj == iv[(i + j) % q]
            if tight and start is None:
                start = i
            elif not tight and start is not None:
                runs.append(("h", j, start, i - 1))
                start = None
        if start is not None:
            runs.append(("h", j, start, q - 1))
    return runs


def finite_perturbation_basis(g: FiniteGroupFn) -> List[List[Fraction]]:
    """Basis of grid perturbations additive on every tight pair of g."""
    from .solver import perturbation_space  # so that a restriction alone never loads the solver

    iv, _ = _scaled(g)
    runs = _additive_runs(iv, g.q)
    return perturbation_space(g.q, g.f_index, runs)


def finite_extremality_test(g: FiniteGroupFn) -> FiniteExtremalityVerdict:
    """Extreme iff the only additive perturbation vanishing at 0 and f is 0."""
    mv = finite_minimality_test(g)
    if not mv.minimal:
        raise ValueError(f"finite extremality test requires a minimal function: {mv.witness}")
    basis = finite_perturbation_basis(g)
    if not basis:
        return FiniteExtremalityVerdict(extreme=True, basis_dimension=0)

    bar = basis[0]
    q = g.q
    # Ratio test: half the minimum slack-to-perturbation ratio over pairs
    # where the perturbation is not additive.
    iv, dv = _scaled(g)
    ib, db = scale_to_integers(bar)
    pair = min_slack_ratio(iv, ib)
    eps = Fraction(1) if pair is None else Fraction(pair[0] * db, 2 * dv * pair[1])
    for _ in range(64):
        g_plus = FiniteGroupFn(q, g.f_index, tuple(v + eps * b for v, b in zip(g.values, bar)))
        g_minus = FiniteGroupFn(q, g.f_index, tuple(v - eps * b for v, b in zip(g.values, bar)))
        if finite_minimality_test(g_plus).minimal and finite_minimality_test(g_minus).minimal:
            cert = FiniteCertificate(
                perturbation=_pert_fn(g, bar),
                epsilon=eps,
                g_plus=g_plus,
                g_minus=g_minus,
            )
            return FiniteExtremalityVerdict(extreme=False, basis_dimension=len(basis), certificate=cert)
        eps /= 2
    raise RuntimeError("could not validate a finite perturbation certificate")


def _pert_fn(g: FiniteGroupFn, bar: List[Fraction]) -> FiniteGroupFn:
    """Wrap a raw perturbation vector; f_index reused for bookkeeping only."""
    return FiniteGroupFn(g.q, g.f_index, tuple(bar))
