"""Reference implementation of the 2-D complex in plain Fraction arithmetic.

A frozen copy of the original, unscaled ``enumerate_faces`` and
``additivity_report``: every face is clipped with ``Fraction`` coordinates
and every (I, J, K) triple is scanned.  The tests compare the library's
integer-scaled kernel against it face by face.  The projections p1, p2 and
p3 of a face, and the limits of Δπ that read them, are taken from the
Fraction vertices, as ``DeltaFace`` took them before it read its integers.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Sequence, Tuple

from groupcut.complex2d import DeltaFace, delta_pi
from groupcut.pwl import AT, LEFT, RIGHT, PwlPeriodic

Point = Tuple[Fraction, Fraction]
Interval = Tuple[Fraction, Fraction]


def _interval_faces(bkpts: Sequence[Fraction]) -> List[Interval]:
    """Points and closed intervals of the breakpoint complex on [0,1]."""
    faces = [(b, b) for b in bkpts]
    ext = list(bkpts) + [Fraction(1)]
    faces += [(a, b) for a, b in zip(ext, ext[1:])]
    return faces


def _sum_faces(bkpts: Sequence[Fraction]) -> List[Interval]:
    """Faces of the complex translated to cover [0,2] for the x+y family."""
    out = []
    for t in (0, 1):
        for lo, hi in _interval_faces(bkpts):
            out.append((lo + t, hi + t))
    out.append((Fraction(2), Fraction(2)))
    return sorted(set(out))


def _clip(poly: List[Point], a: int, b: int, c: Fraction) -> List[Point]:
    """Clip a convex ring against a*x + b*y <= c (exact)."""
    if not poly:
        return []
    if len(poly) == 1:
        x, y = poly[0]
        return poly if a * x + b * y <= c else []
    out: List[Point] = []
    n = len(poly)
    for i in range(n):
        p, q = poly[i], poly[(i + 1) % n]
        fp = a * p[0] + b * p[1] - c
        fq = a * q[0] + b * q[1] - c
        if fp <= 0:
            out.append(p)
        if (fp < 0 < fq) or (fq < 0 < fp):
            t = fp / (fp - fq)
            out.append((p[0] + t * (q[0] - p[0]), p[1] + t * (q[1] - p[1])))
    dedup: List[Point] = []
    for p in out:
        if not dedup or dedup[-1] != p:
            dedup.append(p)
    if len(dedup) > 1 and dedup[0] == dedup[-1]:
        dedup.pop()
    return dedup


def _face_polygon(ix: Interval, iy: Interval, iz: Interval) -> List[Point]:
    ring: List[Point] = [
        (ix[0], iy[0]),
        (ix[1], iy[0]),
        (ix[1], iy[1]),
        (ix[0], iy[1]),
    ]
    ring = [p for i, p in enumerate(ring) if p not in ring[:i]]
    ring = _clip(ring, 1, 1, iz[1])
    ring = _clip(ring, -1, -1, -iz[0])
    return ring


def _collinear(pts: Sequence[Point]) -> bool:
    if len(pts) < 3:
        return True
    (x0, y0), (x1, y1) = pts[0], pts[1]
    return all((x1 - x0) * (y - y0) == (y1 - y0) * (x - x0) for x, y in pts[2:])


def _make_face(ix: Interval, iy: Interval, iz: Interval) -> DeltaFace | None:
    ring = _face_polygon(ix, iy, iz)
    if not ring:
        return None
    unique = sorted(set(ring))
    if len(unique) == 1:
        dim = 0
    elif _collinear(unique):
        dim = 1
        unique = [unique[0], unique[-1]]
        if unique[0] == unique[1]:
            unique = unique[:1]
            dim = 0
    else:
        dim = 2
    return DeltaFace(dim, ix, iy, iz, tuple(unique))


def face_ring(face: DeltaFace) -> List[Point]:
    """Vertices of the face in counter-clockwise ring order (for drawing)."""
    return _face_polygon(face.interval_x, face.interval_y, face.interval_z)


def enumerate_faces(fn: PwlPeriodic) -> List[DeltaFace]:
    """All distinct faces of the complex, sorted by (dim, vertex list)."""
    bkpts = fn.breakpoints
    faces_xy = _interval_faces(bkpts)
    faces_z = _sum_faces(bkpts)
    seen = {}
    for ix in faces_xy:
        for iy in faces_xy:
            s_lo, s_hi = ix[0] + iy[0], ix[1] + iy[1]
            for iz in faces_z:
                if iz[1] < s_lo or iz[0] > s_hi:
                    continue
                face = _make_face(ix, iy, iz)
                if face is None:
                    continue
                if face.vertices not in seen:
                    seen[face.vertices] = face
    return sorted(seen.values(), key=lambda f: (f.dim, f.vertices))


def projections(face: DeltaFace) -> Tuple[Interval, Interval, Interval]:
    """(p1, p2, p3): min and max of x, of y and of x + y over the vertices."""
    xs = [x for x, _ in face.vertices]
    ys = [y for _, y in face.vertices]
    zs = [x + y for x, y in face.vertices]
    return (min(xs), max(xs)), (min(ys), max(ys)), (min(zs), max(zs))


def _side(coord: Fraction, proj: Interval) -> str:
    lo, hi = proj
    if lo == hi:
        return AT
    if coord == lo:
        return RIGHT
    if coord == hi:
        return LEFT
    return AT


def delta_pi_limit(fn: PwlPeriodic, face: DeltaFace, vertex: Point) -> Fraction:
    """Limit of Δπ at a vertex from the relative interior of the face."""
    u, v = vertex
    sides = [_side(c, p) for c, p in zip((u, v, u + v), projections(face))]
    return fn.limit(u, sides[0]) + fn.limit(v, sides[1]) - fn.limit(u + v, sides[2])


def _relint_sample(fn: PwlPeriodic, face: DeltaFace) -> Point | None:
    """A relative-interior point whose x, y, x+y avoid all breakpoint lines."""
    verts = face.vertices
    n = len(verts)
    bx = sum(v[0] for v in verts) / n
    by = sum(v[1] for v in verts) / n
    lines = set()
    for b in fn.breakpoints:
        lines.add(b)
        lines.add(b + 1)
    candidates = [(bx, by)]
    for t in (Fraction(1, 3), Fraction(2, 7), Fraction(3, 11)):
        for vx, vy in verts:
            candidates.append((bx + t * (vx - bx), by + t * (vy - by)))
    for x, y in candidates:
        if face.dim == 2 and (x in lines or y in lines or (x + y) in lines):
            continue
        return (x, y)
    return None


def is_additive_face(fn: PwlPeriodic, face: DeltaFace) -> bool:
    """Whether Δπ vanishes on the relative interior of the face."""
    if fn.is_continuous():
        return all(delta_pi(fn, *v) == 0 for v in face.vertices)
    if any(delta_pi_limit(fn, face, v) != 0 for v in face.vertices):
        return False
    sample = _relint_sample(fn, face)
    if sample is not None and face.dim == 2:
        if delta_pi(fn, *sample) != 0:
            return False
    return True


@dataclass(frozen=True)
class AdditivityReport:
    additive_faces: Tuple[DeltaFace, ...]
    maximal_faces: Tuple[DeltaFace, ...]
    symmetry_faces: Tuple[DeltaFace, ...]
    covered_intervals: Tuple[Interval, ...]


def _merge_intervals(intervals: List[Interval]) -> Tuple[Interval, ...]:
    merged: List[List[Fraction]] = []
    for lo, hi in sorted(intervals):
        if merged and lo <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], hi)
        else:
            merged.append([lo, hi])
    return tuple((lo, hi) for lo, hi in merged)


def _reduce_mod_1(lo: Fraction, hi: Fraction) -> List[Interval]:
    """Reduce an interval of sums (inside [0,2]) to [0,1] pieces."""
    if hi <= 1:
        return [(lo, hi)]
    if lo >= 1:
        return [(lo - 1, hi - 1)]
    return [(lo, Fraction(1)), (Fraction(0), hi - 1)]


def additivity_report(fn: PwlPeriodic, faces: Sequence[DeltaFace] | None = None) -> AdditivityReport:
    """Classify the additive part of the complex and the covered intervals;
    ``faces``, if given, is ``enumerate_faces(fn)``."""
    if faces is None:
        faces = enumerate_faces(fn)
    additive = [f for f in faces if is_additive_face(fn, f)]
    maximal = []
    for f in additive:
        is_max = True
        for g in additive:
            if g is f or g.dim < f.dim:
                continue
            if g.vertices != f.vertices and all(g.contains(v) for v in f.vertices):
                is_max = False
                break
        if is_max:
            maximal.append(f)
    sym_targets = (fn.f, fn.f + 1)
    symmetry = [
        f for f in additive if all(v[0] + v[1] in sym_targets for v in f.vertices)
    ]
    covered: List[Interval] = []
    for f in additive:
        if f.dim != 2:
            continue
        p1, p2, p3 = projections(f)
        covered += [p1, p2, *_reduce_mod_1(*p3)]
    return AdditivityReport(
        additive_faces=tuple(additive),
        maximal_faces=tuple(maximal),
        symmetry_faces=tuple(symmetry),
        covered_intervals=_merge_intervals(covered),
    )


def delta_vertices(fn: PwlPeriodic) -> List[Point]:
    """Vertices of the complex inside [0,1)^2.

    Every vertex is the intersection of two lines from distinct families, so
    at least two of x, y, x+y (mod 1) land on breakpoints.
    """
    bkpts = fn.breakpoints
    zs = sorted({b + t for b in bkpts for t in (0, 1)})
    verts = set()
    for bx in bkpts:
        for by in bkpts:
            verts.add((bx, by))
    for bx in bkpts:
        for z in zs:
            y = z - bx
            if 0 <= y < 1:
                verts.add((bx, y))
    for by in bkpts:
        for z in zs:
            x = z - by
            if 0 <= x < 1:
                verts.add((x, by))
    return sorted(verts)


def find_face_linear(fn: PwlPeriodic, vertices, faces=None) -> DeltaFace | None:
    """The face with exactly this vertex tuple, or None: a scan of the
    whole complex (``faces``, when the caller already enumerated it)."""
    for face in enumerate_faces(fn) if faces is None else faces:
        if face.vertices == tuple(vertices):
            return face
    return None
