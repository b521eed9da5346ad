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
from typing import Optional, Tuple, Union

from .complex2d import (
    _face_limits,
    _on_symmetry_line,
    _scaled_pi,
    delta_pi,
    delta_pi_limit,
    enumerate_faces,
    find_face,
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

    # Δπ and its limits at the vertices as integers over d; Fractions only
    # for a witness.
    q, verts = scaled_vertices(fn)
    lim, d = _scaled_pi(fn, q, verts)
    slacks = [lim[x][1] + lim[y][1] - lim[(x + y) % q][1] for x, y in verts]
    f = int(fn.f * q)

    def witness(kind: str, location, slack: int, face=None) -> MinimalityVerdict:
        face_vertices = None if face is None else face.vertices
        return MinimalityVerdict(False, MinimalityWitness(kind, location, Fraction(slack, d), face_vertices))

    # Symmetry: Δπ must vanish on the line x + y = f (mod 1).
    for (x, y), slack in zip(verts, slacks):
        if slack and (x + y - f) % q == 0:
            return witness(SYMMETRY, (Fraction(x, q), Fraction(y, q)), slack)
    # Subadditivity: Δπ >= 0 at every vertex.
    if fn.is_continuous():
        for (x, y), slack in zip(verts, slacks):
            if slack < 0:
                return witness(SUBADDITIVITY, (Fraction(x, q), Fraction(y, q)), slack)
        return MinimalityVerdict(True)

    # With jumps, the same for the one-sided limits along the faces: on the
    # 1-D faces of the symmetry line, and along every face.
    faces = enumerate_faces(fn)
    for face in faces:
        if face.dim == 1 and _on_symmetry_line(face, fn.f):
            for i, slack in enumerate(_face_limits(lim, q, face)):
                if slack:
                    return witness(SYMMETRY, face.vertices[i], slack, face)
    for face in faces:
        for i, slack in enumerate(_face_limits(lim, q, face)):
            if slack < 0:
                return witness(SUBADDITIVITY, face.vertices[i], slack, face)
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
            if (u + v - fn.f) % 1:
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
