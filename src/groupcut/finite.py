"""Finite cyclic group restrictions of periodic functions.

A finite group function lives on (1/q)Z / Z and is stored as its q values.
Restriction samples an infinite-group function on the grid; interpolation
joins the sampled values by straight segments.  Minimality and extremality
over the finite group reduce to finitely many equations and an exact null
space computation.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import TYPE_CHECKING, Callable, List, Optional, Sequence, Tuple

from .pwl import PwlPeriodic, check_grid_size, grid_values, interpolate_grid
from .rational import least_ratio, scale_to_integers

if TYPE_CHECKING:
    from .minimality import MinimalityVerdict


@dataclass(frozen=True)
class FiniteGroupFn:
    q: int
    f_index: int
    values: Tuple[Fraction, ...]

    def __post_init__(self):
        if type(self.q) is not int or type(self.f_index) is not int:
            raise ValueError(f"q and f_index must be integers, got {self.q!r}, {self.f_index!r}")
        if self.q < 2:
            raise ValueError("group order must be at least 2")
        if not 0 < self.f_index < self.q:
            raise ValueError("f_index must lie strictly between 0 and q")
        if len(self.values) != self.q:
            raise ValueError("need exactly q values")
        # Fraction(v) would copy every value that is already a Fraction.
        values = tuple(v if type(v) is Fraction else Fraction(v) for v in self.values)
        object.__setattr__(self, "values", values)

    @property
    def f(self) -> Fraction:
        return Fraction(self.f_index, self.q)

    @cached_property
    def _integers(self) -> Tuple[Tuple[int, ...], int]:
        """(ints, d): the values times d, the lcm of their denominators,
        scaled once for every test that reads them."""
        iv, d = scale_to_integers(self.values)
        return tuple(iv), d


# The finite tests read all q² pairs of the group: a larger q is refused first.
MAX_FINITE_Q = 3_000


def _check_order(q: int) -> None:
    """Raise ValueError, naming the bound, if q exceeds ``MAX_FINITE_Q``."""
    if q > MAX_FINITE_Q:
        raise ValueError(f"group order {q} exceeds the bound of {MAX_FINITE_Q} for the finite scans")


def _grid_n(q: int, m: int) -> int:
    """n = mq for integers q, m >= 1, at most MAX_GRID_N."""
    for name, k in (("q", q), ("m", m)):
        if type(k) is not int or k < 1:
            raise ValueError(f"{name} must be a positive integer, got {k!r}")
    check_grid_size(m * q)
    return m * q


def restrict_to_finite_group(fn: PwlPeriodic, q: int, m: int = 1) -> FiniteGroupFn:
    """Sample fn on (1/(mq))Z for integers q, m >= 1; f must lie on it, and
    mq be at most MAX_GRID_N."""
    n = _grid_n(q, m)
    f_index = fn.f * n
    if f_index.denominator != 1:
        raise ValueError(f"f={fn.f} does not lie on the (1/{n})Z grid")
    values = tuple(grid_values(fn, n))
    return FiniteGroupFn(q=n, f_index=int(f_index), values=values)


def interpolate_to_infinite_group(g: FiniteGroupFn) -> PwlPeriodic:
    """Canonical continuous interpolant of the grid values (``interpolate_grid``)."""
    return interpolate_grid(g.values, g.q, g.f)


def _slack_rows(iv: Sequence[int]) -> Tuple[int, Callable[[int, int], Tuple[int, int]]]:
    """Rows of Δ(i, j) = iv[i] + iv[j] - iv[(i + j) mod n] on packed integer
    lanes, for a non-empty iv: (nbytes, row), where row(i, j0) returns
    (lanes, high), lane j - j0 of lanes holding half + Δ(i, j) for
    j = j0, ..., n - 1 and each lane of high holding half; lanes are
    w = 8·nbytes bits wide and half = 2**(w - 1).

    The values, shifted by their minimum to a[j] >= 0, are packed into lanes,
    and lanes = a[j] + (half + iv[i]) - a[(i + j) mod n] lane by lane.  As
    |Δ| <= max(a) + max|iv| < half, each lane stays inside (0, 2**w), so no
    lane carries into or borrows from the next: the top bit of a lane is
    clear exactly where Δ < 0, and the lane is half exactly where Δ = 0.
    """
    n = len(iv)
    lo = min(iv)
    a = [v - lo for v in iv]
    nbytes = (max(a) + max(map(abs, iv))).bit_length() // 8 + 1
    w = 8 * nbytes
    half = 1 << (w - 1)

    def pack(values) -> int:
        return int.from_bytes(b"".join(v.to_bytes(nbytes, "little") for v in values), "little")

    packed, doubled, ones = pack(a), pack(a + a), pack([1] * n)

    def row(i: int, j0: int) -> Tuple[int, int]:
        ones_j = ones >> (w * j0)  # a 1 in each lane j = j0, ..., n - 1
        rotated = (doubled >> (w * ((i + j0) % n))) & ((1 << (w * (n - j0))) - 1)
        return (packed >> (w * j0)) + (half + iv[i]) * ones_j - rotated, ones_j << (w - 1)

    return nbytes, row


def _flagged_row(vectors: Sequence[Sequence[int]], start: int) -> Optional[int]:
    """The first row i >= start where the Δ of one of the vectors, all of
    one length n, is negative at a pair (i, j), i <= j; None if there is
    none.  Row i of ``_slack_rows`` from j0 = i has a clear top bit exactly
    in those lanes.  Nothing is packed when start >= n.
    """
    n = len(vectors[0])
    rows = [_slack_rows(v)[1] for v in vectors] if start < n else []
    for i in range(start, n):
        for row in rows:
            lanes, high = row(i, i)
            if lanes & high != high:
                return i
    return None


def first_subadditivity_violation(iv: Sequence[int]) -> Optional[Tuple[int, int]]:
    """The first pair (i, j), i <= j, in ascending order of i and then j,
    with iv[i] + iv[j] < iv[(i + j) mod n]; None if there is none.  Only
    the first ``_flagged_row`` is scanned pair by pair.
    """
    i = _flagged_row([iv], 0)
    if i is None:
        return None
    n, vi = len(iv), iv[i]
    return i, next(j for j in range(i, n) if vi + iv[j] < iv[(i + j) % n])


def min_slack_ratio(iv: Sequence[int], ib: Sequence[int]) -> Optional[Tuple[int, int]]:
    """The first pair (slack, |Δb|), in the order of the subadditivity scan,
    with the least slack / |Δb| over i <= j where Δb, the Δ of ib at (i, j),
    is nonzero and slack is the Δ of iv there; None if there is none.
    Raises ValueError where Δb ≠ 0 and slack <= 0 (``least_ratio``).

    With s/d the least ratio so far (1/0 before any), a pair lowers it or
    is refused exactly where d·slack ∓ s·Δb < 0 for one sign, that is where
    the Δ of d·iv ∓ s·ib is negative.  So only the rows that
    ``_flagged_row`` finds go through ``least_ratio``, each whole and in
    order; a row left out holds no pair below s/d, so a tie keeps the
    first least pair.
    """
    n = len(iv)
    s, d, i = 1, 0, -1
    while (i := _flagged_row([[d * v + t * b for v, b in zip(iv, ib)] for t in (-s, s)], i + 1)) is not None:
        vi, bi = iv[i], ib[i]
        pairs = ((vi + iv[j] - iv[(i + j) % n], bi + ib[j] - ib[(i + j) % n]) for j in range(i, n))
        s, d = least_ratio(pairs, s, d)
    return (s, d) if d else None


def finite_minimality_test(g: FiniteGroupFn) -> MinimalityVerdict:
    """Minimality over the finite group, same witness conventions as the
    infinite test (locations reported as grid fractions); q <= MAX_FINITE_Q."""
    # Imported here so that a restriction or an interpolation never loads the complex.
    from .minimality import (
        NEGATIVITY,
        ORIGIN_VALUE,
        SUBADDITIVITY,
        SYMMETRY,
        MinimalityVerdict,
        MinimalityWitness,
    )

    q = g.q
    _check_order(q)
    iv, denom = g._integers
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


def _additive_runs(iv: Sequence[int]) -> List[Tuple[str, int, int, int]]:
    """Maximal runs ("h", j, lo, hi) of the tight pairs (i, j), lo <= i <= hi,
    in order of j and then i.  Row j of ``_slack_rows`` from j0 = 0 holds
    half + Δ(i, j) in lane i, so t = lanes ^ high is zero exactly at the tight
    pairs; with low = half - 1 in each lane, ((t & low) + low) | t sets the
    top bit of every other lane and carries into none.
    """
    q = len(iv)
    nbytes, row = _slack_rows(iv)
    high = row(0, 0)[1]
    low = high - (high >> (8 * nbytes - 1))
    runs = []
    for j in range(q):
        t = row(j, 0)[0] ^ high
        marks = (((t & low) + low) | t) & high
        top = marks.to_bytes(q * nbytes, "little")[nbytes - 1 :: nbytes]
        runs.extend(("h", j, m.start(), m.end() - 1) for m in re.finditer(b"\x00+", top))
    return runs


def finite_perturbation_basis(g: FiniteGroupFn) -> List[List[Fraction]]:
    """Basis of grid perturbations additive on every tight pair of g."""
    from .solver import perturbation_space  # so that a restriction alone never loads the solver

    _check_order(g.q)
    runs = _additive_runs(g._integers[0])
    return list(perturbation_space(g.q, g.f_index, runs))


def finite_extremality_test(g: FiniteGroupFn) -> FiniteExtremalityVerdict:
    """Extreme iff the only additive perturbation vanishing at 0 and f is 0.

    A certificate's endpoints g± = g ± ε·bar are minimal for ε half the least
    slack / |Δbar| where Δbar ≠ 0: Δg± >= 0 at every pair; bar(0) = bar(f) = 0
    and bar is additive on the tight pairs i + j = f; and
    0 = g±(q·i) <= q·g±(i).  A failed re-check raises.  Δbar ≠ 0 somewhere:
    a bar additive at every pair would be a homomorphism Z_q -> Q, hence 0,
    and the solver returns no zero vector.  The values of g are scaled to
    integers once, for the minimality test, the basis and ε alike.
    """
    mv = finite_minimality_test(g)
    if not mv.minimal:
        raise ValueError(f"finite extremality test requires a minimal function: {mv.witness}")
    basis = finite_perturbation_basis(g)
    if not basis:
        return FiniteExtremalityVerdict(extreme=True, basis_dimension=0)

    bar = basis[0]
    q = g.q
    iv, dv = g._integers
    ib, db = scale_to_integers(bar)
    pair = min_slack_ratio(iv, ib)
    eps = Fraction(pair[0] * db, 2 * dv * pair[1])
    g_plus = FiniteGroupFn(q, g.f_index, tuple(v + eps * b for v, b in zip(g.values, bar)))
    g_minus = FiniteGroupFn(q, g.f_index, tuple(v - eps * b for v, b in zip(g.values, bar)))
    if not (finite_minimality_test(g_plus).minimal and finite_minimality_test(g_minus).minimal):
        raise RuntimeError("could not validate a finite perturbation certificate")
    # The perturbation reuses f_index for bookkeeping only.
    cert = FiniteCertificate(FiniteGroupFn(q, g.f_index, tuple(bar)), eps, g_plus, g_minus)
    return FiniteExtremalityVerdict(extreme=False, basis_dimension=len(basis), certificate=cert)

