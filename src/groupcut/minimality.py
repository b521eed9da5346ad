"""Minimality test for periodic piecewise linear functions.

A function is minimal when it vanishes at 0, is subadditive, and satisfies
the symmetry condition pi(x) + pi(f - x) = 1.  Subadditivity and symmetry
only need to be checked at the vertices of the two-dimensional complex
(plus one-sided limits along incident faces when the function has jumps),
because the slack Δπ is affine on the relative interior of every face.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import sub
from typing import Optional, Sequence, Tuple, Union

from .complex2d import (
    delta_pi,
    delta_pi_limit,
    enumerate_faces,
    find_face,
    vertex_slacks,
)
from .pwl import AT, LEFT, RIGHT, PwlPeriodic, grid_values
from .rational import scale_to_integers

ORIGIN_VALUE = "originValue"
NEGATIVITY = "negativity"
SYMMETRY = "symmetry"
SUBADDITIVITY = "subadditivity"

Location = Union[Fraction, Tuple[Fraction, Fraction]]


@dataclass(frozen=True)
class MinimalityWitness:
    kind: str
    location: Location
    value: Fraction
    # For limit witnesses, the vertex set of the face along which the
    # violating one-sided limit was taken; None for plain value witnesses.
    face_vertices: Optional[Tuple[Tuple[Fraction, Fraction], ...]] = None


@dataclass(frozen=True)
class MinimalityVerdict:
    minimal: bool
    witness: Optional[MinimalityWitness] = None


def with_f_breakpoint(fn: PwlPeriodic) -> PwlPeriodic:
    """Insert f into the breakpoint list if it is not already present."""
    if fn.f in fn.breakpoints:
        return fn
    bkpts = sorted(set(fn.breakpoints) | {fn.f})
    trips = [tuple(fn.limit(x, s) for s in (LEFT, AT, RIGHT)) for x in bkpts]
    return PwlPeriodic(fn.f, bkpts, trips)


def _on_symmetry_line(fn: PwlPeriodic, u: Fraction, v: Fraction) -> bool:
    return (u + v - fn.f) % 1 == 0


def minimality_test(fn: PwlPeriodic) -> MinimalityVerdict:
    """Decide minimality; on failure return the first witness found.

    Witness kinds are scanned in the fixed priority order originValue,
    negativity, symmetry, subadditivity; within each kind, locations are
    scanned in ascending order, so the verdict is deterministic.
    """
    fn = with_f_breakpoint(fn.canonicalize())

    if fn(0) != 0:
        return MinimalityVerdict(False, MinimalityWitness(ORIGIN_VALUE, Fraction(0), fn(0)))

    for x, (l, v, r) in zip(fn.breakpoints, fn.limits):
        for val in (v, l, r):
            if val < 0:
                return MinimalityVerdict(False, MinimalityWitness(NEGATIVITY, x, val))

    if fn(fn.f) != 1:
        return MinimalityVerdict(False, MinimalityWitness(SYMMETRY, fn.f, fn(fn.f)))

    continuous = fn.is_continuous()
    vertices = vertex_slacks(fn)
    faces = None if continuous else enumerate_faces(fn)

    # Symmetry: Δπ must vanish on the line x + y = f (mod 1).
    for vert, on_line, slack in vertices:
        if on_line and slack != 0:
            return MinimalityVerdict(False, MinimalityWitness(SYMMETRY, vert, slack))
    if not continuous:
        for face in faces:
            if face.dim != 1:
                continue
            if not all(_on_symmetry_line(fn, u, v) for u, v in face.vertices):
                continue
            for vert in face.vertices:
                slack = delta_pi_limit(fn, face, vert)
                if slack != 0:
                    return MinimalityVerdict(
                        False,
                        MinimalityWitness(SYMMETRY, vert, slack, face.vertices),
                    )

    # Subadditivity: Δπ >= 0 at every vertex, including one-sided limits
    # along every incident face when there are jumps.
    if continuous:
        for vert, _, slack in vertices:
            if slack < 0:
                return MinimalityVerdict(
                    False, MinimalityWitness(SUBADDITIVITY, vert, slack)
                )
    else:
        for face in faces:
            for vert in face.vertices:
                slack = delta_pi_limit(fn, face, vert)
                if slack < 0:
                    return MinimalityVerdict(
                        False,
                        MinimalityWitness(SUBADDITIVITY, vert, slack, face.vertices),
                    )

    return MinimalityVerdict(True)


def verify_witness(fn: PwlPeriodic, witness: MinimalityWitness) -> bool:
    """Recompute a witness from scratch and confirm it still violates."""
    fn = with_f_breakpoint(fn)
    if witness.kind == ORIGIN_VALUE:
        return fn(witness.location) == witness.value != 0
    if witness.kind == NEGATIVITY:
        x = witness.location
        return witness.value < 0 and witness.value in (
            fn.limit(x, LEFT),
            fn.limit(x, AT),
            fn.limit(x, RIGHT),
        )
    if witness.kind == SYMMETRY:
        if isinstance(witness.location, tuple):
            u, v = witness.location
            if not _on_symmetry_line(fn, u, v):
                return False
            if witness.face_vertices is None:
                return delta_pi(fn, u, v) == witness.value != 0
            face = find_face(fn, witness.face_vertices)
            return face is not None and delta_pi_limit(fn, face, (u, v)) == witness.value != 0
        return fn(witness.location) == witness.value != 1
    if witness.kind == SUBADDITIVITY:
        u, v = witness.location
        if witness.face_vertices is None:
            return delta_pi(fn, u, v) == witness.value < 0
        face = find_face(fn, witness.face_vertices)
        return face is not None and delta_pi_limit(fn, face, (u, v)) == witness.value < 0
    return False


def minimality_grid_oracle(fn: PwlPeriodic, refine: int = 3) -> MinimalityVerdict:
    """Brute-force check of the minimality conditions on ((1/(refine*q))Z)^2.

    Only function *values* on the grid are inspected.  For continuous
    functions with denominator q this is equivalent to the vertex test; it
    exists as an independent cross-check.
    """
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


def first_subadditivity_violation(iv: Sequence[int]) -> Optional[Tuple[int, int]]:
    """The first pair (i, j), i <= j, in ascending order of i and then j,
    with iv[i] + iv[j] < iv[(i + j) mod n]; None if there is none.

    Each row i is compared at once: iv[j] - iv[(i + j) mod n] for j >= i
    against -iv[i], in list operations that run in C.
    """
    n = len(iv)
    doubled = list(iv) * 2
    for i in range(n):
        start = 2 * i % n
        diffs = list(map(sub, iv[i:], doubled[start:start + n - i]))
        bound = -iv[i]
        if min(diffs) < bound:
            k = next(k for k, d in enumerate(diffs) if d < bound)
            return i, i + k
    return None


def min_slack_ratio(iv: Sequence[int], ib: Sequence[int]) -> Optional[Tuple[int, int]]:
    """The first pair (slack, |Δb|), in the order of the subadditivity scan,
    with the least slack / |Δb| over i <= j where Δb, the Δ of ib at (i, j),
    is nonzero and slack is the Δ of iv there; None if there is none.
    Compared by cross products.  Raises ValueError where Δb ≠ 0 and
    slack <= 0, since no ε > 0 keeps that pair subadditive.
    """
    n = len(iv)
    iv2, ib2 = list(iv) * 2, list(ib) * 2
    best_s = best_d = 0
    for i in range(n):
        vi, bi = iv[i], ib[i]
        start = 2 * i % n
        stop = start + n - i
        for vj, vk, bj, bk in zip(iv[i:], iv2[start:stop], ib[i:], ib2[start:stop]):
            d = bi + bj - bk
            if not d:
                continue
            slack = vi + vj - vk
            if slack <= 0:
                raise ValueError("perturbation is non-additive at a tight pair of the function")
            if d < 0:
                d = -d
            if not best_d or slack * best_d < best_s * d:
                best_s, best_d = slack, d
    return (best_s, best_d) if best_d else None
