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
from typing import Callable, Optional, Sequence, Tuple, Union

from .complex2d import (
    delta_pi,
    delta_pi_limit,
    enumerate_faces,
    find_face,
    scaled_slacks,
    scaled_vertices,
)
from .pwl import PwlPeriodic

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
    return PwlPeriodic(fn.f, bkpts, [fn.limits_at(x) for x in bkpts])


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
    faces = None if continuous else enumerate_faces(fn)
    # Δπ at the vertices as integers over d; Fractions only for a witness.
    q, verts = scaled_vertices(fn)
    slacks, d = scaled_slacks(fn, q, verts)
    f = int(fn.f * q)

    def vertex_witness(kind: str, i: int) -> MinimalityVerdict:
        x, y = verts[i]
        return MinimalityVerdict(
            False, MinimalityWitness(kind, (Fraction(x, q), Fraction(y, q)), Fraction(slacks[i], d))
        )

    # Symmetry: Δπ must vanish on the line x + y = f (mod 1).
    for i, ((x, y), slack) in enumerate(zip(verts, slacks)):
        if slack and (x + y - f) % q == 0:
            return vertex_witness(SYMMETRY, i)
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
        for i, slack in enumerate(slacks):
            if slack < 0:
                return vertex_witness(SUBADDITIVITY, i)
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
        return witness.value < 0 and witness.value in fn.limits_at(witness.location)
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
    """Brute-force check of the minimality conditions on ((1/(refine*q))Z)^2:
    the finite-group test of the restriction of fn to that grid.

    Only function *values* on the grid are inspected.  For continuous
    functions with denominator q this is equivalent to the vertex test; it
    exists as an independent cross-check.  Raises ValueError if refine < 1.
    """
    # Imported here because finite imports this module.
    from .finite import finite_minimality_test, restrict_to_finite_group

    return finite_minimality_test(restrict_to_finite_group(fn, fn.denominator_lcm(), refine))


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


def first_subadditivity_violation(iv: Sequence[int]) -> Optional[Tuple[int, int]]:
    """The first pair (i, j), i <= j, in ascending order of i and then j,
    with iv[i] + iv[j] < iv[(i + j) mod n]; None if there is none.  Row i of
    ``_slack_rows`` from j0 = i has a clear top bit exactly in the lanes of
    violations; only the first row with one is scanned pair by pair.
    """
    n = len(iv)
    if not n:
        return None
    _, row = _slack_rows(iv)
    for i in range(n):
        lanes, high = row(i, i)
        if lanes & high != high:
            vi = iv[i]
            return i, next(j for j in range(i, n) if vi + iv[j] < iv[(i + j) % n])
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
