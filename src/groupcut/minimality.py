"""Minimality test for periodic piecewise linear functions.

A function is minimal when it vanishes at 0, is subadditive, and satisfies
the symmetry condition pi(x) + pi(f - x) = 1.  Subadditivity and symmetry
only need to be checked at the vertices of the two-dimensional complex
(plus one-sided limits along incident faces when the function has jumps),
because the slack Δπ is affine on the relative interior of every face.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from itertools import chain
from typing import Iterator, Optional, Sequence, Tuple, Union

from .complex2d import (
    DeltaFace,
    IntPoint,
    _face_limits,
    _face_rows,
    _on_symmetry_line,
    _scaled_pi,
    _vertex_slacks,
    delta_pi,
    enumerate_faces,
    scaled_vertices,
)
from .pwl import PwlPeriodic, _Record

ORIGIN_VALUE = "originValue"
NEGATIVITY = "negativity"
SYMMETRY = "symmetry"
SUBADDITIVITY = "subadditivity"

Location = Union[Fraction, Tuple[Fraction, Fraction]]


class MinimalityWitness(_Record):
    _fields = ("kind", "location", "value", "face_vertices")
    kind: str
    location: Location
    value: Fraction
    # For limit witnesses, the vertex set of the face along which the
    # violating one-sided limit was taken; None for plain value witnesses.
    face_vertices: Optional[Tuple[Tuple[Fraction, Fraction], ...]] = None


class MinimalityVerdict(_Record):
    _fields = ("minimal", "witness")
    minimal: bool
    witness: Optional[MinimalityWitness] = None


def with_f_breakpoint(fn: PwlPeriodic) -> PwlPeriodic:
    """Insert f into the breakpoint list if it is not already present."""
    if fn.f in fn.breakpoints:
        return fn
    bkpts = sorted(set(fn.breakpoints) | {fn.f})
    return PwlPeriodic(fn.f, bkpts, [fn.limits_at(x) for x in bkpts])


_Failure = Tuple[str, IntPoint, Fraction, Optional[DeltaFace]]


def _failures(
    fn: PwlPeriodic, faces: Optional[Sequence[DeltaFace]] = None
) -> Tuple[Iterator[_Failure], Iterator[_Failure]]:
    """Where Δπ breaks symmetry, and where it breaks subadditivity: two lazy
    passes, each in the order ``minimality_test`` reports it (it chains
    them), of (kind, vertex scaled by q, Δπ or its limit there, the limit's
    face or None), for fn canonical with f a breakpoint.  Symmetry: the
    vertices on x + y ≡ f with Δπ ≠ 0, then, with jumps, the nonzero limits
    along the 1-D faces of the symmetry line.  Subadditivity: for a
    continuous π the vertices with Δπ < 0; with jumps, the negative limits
    along every face (at a 0-D face, Δπ).  The faces are ``faces`` =
    ``enumerate_faces(fn)``, enumerated by the first pass that needs them
    if not given; the passes read their integer rows, and build a face only
    where it yields a failure.
    """
    q, verts = scaled_vertices(fn)
    lim, d = _scaled_pi(fn, q, verts)
    slacks = _vertex_slacks(lim, q, verts)
    f = int(fn.f * q)
    on_line = (
        (SYMMETRY, v, Fraction(s, d), None) for v, s in zip(verts, slacks) if s and (v[0] + v[1] - f) % q == 0
    )
    if fn.is_continuous():
        return on_line, ((SUBADDITIVITY, v, Fraction(s, d), None) for v, s in zip(verts, slacks) if s < 0)

    def along_faces(symmetry: bool) -> Iterator[_Failure]:
        nonlocal faces
        faces = enumerate_faces(fn) if faces is None else faces
        kind = SYMMETRY if symmetry else SUBADDITIVITY
        for k, (dim, ints) in enumerate(_face_rows(faces, q)):
            sv = ints[0]
            if symmetry and not (dim == 1 and _on_symmetry_line(sv, q, fn.f)):
                continue
            for v, slack in zip(sv, _face_limits(lim, q, sv)):
                if slack < 0 or symmetry and slack:
                    yield kind, v, Fraction(slack, d), faces[k]

    return chain(on_line, along_faces(True)), along_faces(False)


def minimality_test(fn: PwlPeriodic) -> MinimalityVerdict:
    """Decide minimality; on failure return the first witness found.

    Witness kinds are scanned in the fixed priority order originValue,
    negativity, symmetry, subadditivity; within each kind, locations are
    scanned in ascending order, so the verdict is deterministic.  The
    symmetry and subadditivity witnesses come from the scan ``_failures``.
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

    for kind, (x, y), value, face in chain(*_failures(fn)):
        q = fn.denominator_lcm()
        face_vertices = None if face is None else face.vertices
        return MinimalityVerdict(False, MinimalityWitness(kind, (Fraction(x, q), Fraction(y, q)), value, face_vertices))
    return MinimalityVerdict(True)


def verify_witness(fn: PwlPeriodic, witness: MinimalityWitness) -> bool:
    """Recompute a witness from scratch and confirm it still violates.

    fn is read canonical and with f a breakpoint, as ``minimality_test``
    reads it.  An ``originValue`` must sit at 0 and a one-point ``symmetry``
    at f (mod 1).  A face witness is checked with ``delta_pi`` alone: its
    value must be the ``_segment_limit`` L at its location p, with L < 0,
    or for ``symmetry`` L ≠ 0 and every vertex on one line x + y ≡ f.  Δπ
    is affine on (p, c], so Δπ < 0 (≠ 0) at its points near p: real
    violations, even if the vertices are no face.  The witnesses of
    ``minimality_test`` pass: (p, c] runs inside their face, and no b + k
    lies inside its projections.
    """
    fn = with_f_breakpoint(fn.canonicalize())
    kind, location, value, face = witness.kind, witness.location, witness.value, witness.face_vertices
    if kind == ORIGIN_VALUE:
        return location % 1 == 0 and fn(location) == value != 0
    if kind == NEGATIVITY:
        return value < 0 and value in fn.limits_at(location)
    if kind == SYMMETRY and not isinstance(location, tuple):
        return (location - fn.f) % 1 == 0 and fn(location) == value != 1
    if kind not in (SYMMETRY, SUBADDITIVITY):
        return False
    u, v = location
    slack = delta_pi(fn, u, v) if face is None else _segment_limit(fn, face, (u, v))
    if kind == SUBADDITIVITY:
        return slack == value < 0
    on_line = face is None or len({x + y for x, y in face}) == 1
    return on_line and (u + v - fn.f) % 1 == 0 and slack == value != 0


def _segment_limit(fn: PwlPeriodic, vertices, point) -> Optional[Fraction]:
    """2·Δπ(m) − Δπ(c), the limit of Δπ at p = point along (p, c], with c
    the barycenter of the vertices and m the midpoint of p and c.  None
    unless p lies in the closed ranges of x, y and x + y over the vertices,
    and no b + k (b a breakpoint, k an integer) lies inside any of them.
    Then on (p, c] each of x, y and x + y is one constant or runs inside its
    range (c's is the mean), where π is one line: Δπ(p + t·(c − p)) is
    α + β·t for t in (0, 1], whose limit at p is α = 2·(α + β/2) − (α + β).
    """
    if not vertices:
        return None
    u, v = point
    xs, ys = [x for x, _ in vertices], [y for _, y in vertices]
    bkpts = fn.breakpoints
    for t, ts in ((u, xs), (v, ys), (u + v, [x + y for x, y in vertices])):
        lo, hi = min(ts), max(ts)
        k = lo // 1
        i = bisect_right(bkpts, lo - k)
        if not lo <= t <= hi or k + (bkpts[i] if i < len(bkpts) else 1) < hi:
            return None
    cx, cy = Fraction(sum(xs), len(xs)), Fraction(sum(ys), len(ys))
    return 2 * delta_pi(fn, (u + cx) / 2, (v + cy) / 2) - delta_pi(fn, cx, cy)


def minimality_grid_oracle(fn: PwlPeriodic, refine: int = 3) -> MinimalityVerdict:
    """Brute-force check of the minimality conditions on ((1/(refine*q))Z)^2,
    q that of the canonical fn (one answer for inputs equal under ``==``):
    the finite-group test of the restriction of fn to that grid.

    Only function *values* on the grid are inspected.  For continuous
    functions with denominator q this is equivalent to the vertex test; it
    exists as an independent cross-check.  Raises ValueError, before it
    samples, for refine not an int >= 1, or refine·q above MAX_GRID_N or
    MAX_FINITE_Q.
    """
    # Imported here so that the minimality test alone never loads finite.
    from .finite import _check_order, _grid_n, finite_minimality_test, restrict_to_finite_group

    q = fn.canonicalize().denominator_lcm()
    _check_order(_grid_n(q, refine))
    return finite_minimality_test(restrict_to_finite_group(fn, q, refine))
