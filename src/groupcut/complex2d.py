"""Two-dimensional complex underlying the subadditivity slack Δπ.

The unit square is cut by the three line families x = b, y = b and
x + y = b (b ranging over the breakpoints and their integer translates).
Faces are the sets F(I,J,K) = {(x,y) : x in I, y in J, x+y in K} for I, J, K
one-dimensional faces of the breakpoint interval complex; Δπ restricted to
the relative interior of any face is affine, which is what every test in the
package leans on.

Every vertex of the complex lies in (1/q)Z², where q = fn.denominator_lcm()
is the lcm of the denominators of f and the breakpoints: a vertex is where
two lines of distinct families meet, and x = b, y = b′ and x + y = b″ with
b, b′, b″ in (1/q)Z meet only at points of (1/q)Z².  So the kernel scales
every breakpoint by q and runs in integers.  A face needs no polygon
clipping: the lines x + y = c are parallel, so every vertex of F(I,J,K) lies
on a side of the box I×J, where the strip x + y ∈ K cuts one interval with
integer ends; walking the four sides lists the vertices in order, and their
number gives the dimension.  Fractions are built only for the faces and
vertices handed back to the caller; dividing by q > 0 keeps every order the
kernel sorts by.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .pwl import AT, LEFT, RIGHT, PwlPeriodic

Point = Tuple[Fraction, Fraction]
Interval = Tuple[Fraction, Fraction]
# Scaled by q: coordinates are integers.
IntPoint = Tuple[int, int]
IntInterval = Tuple[int, int]


@dataclass(frozen=True)
class DeltaFace:
    """One face F(I,J,K) of the complex, stored with its vertex set."""

    dim: int
    interval_x: Interval
    interval_y: Interval
    interval_z: Interval
    vertices: Tuple[Point, ...]

    @property
    def p1(self) -> Interval:
        xs = [v[0] for v in self.vertices]
        return (min(xs), max(xs))

    @property
    def p2(self) -> Interval:
        ys = [v[1] for v in self.vertices]
        return (min(ys), max(ys))

    @property
    def p3(self) -> Interval:
        zs = [v[0] + v[1] for v in self.vertices]
        return (min(zs), max(zs))

    def contains(self, pt: Point) -> bool:
        x, y = pt
        return (
            self.interval_x[0] <= x <= self.interval_x[1]
            and self.interval_y[0] <= y <= self.interval_y[1]
            and self.interval_z[0] <= x + y <= self.interval_z[1]
        )


# -- integer-scaled kernel -----------------------------------------------------


def _scale(x: Fraction, q: int) -> int:
    """q * x for x in (1/q)Z, in integer arithmetic."""
    return x.numerator * (q // x.denominator)


def _scaled_breakpoints(fn: PwlPeriodic) -> Tuple[int, List[int]]:
    """q and the breakpoints scaled by q: sorted integers in [0, q)."""
    q = fn.denominator_lcm()
    return q, [_scale(b, q) for b in fn.breakpoints]


def _unscaler(q: int) -> Callable[[IntPoint], Point]:
    """(a, b) -> (a/q, b/q) for points and intervals alike, memoized so that
    equal pairs share one tuple of shared Fractions."""
    coords: Dict[int, Fraction] = {}
    pairs: Dict[IntPoint, Point] = {}

    def coord(x: int) -> Fraction:
        r = coords.get(x)
        if r is None:
            r = coords[x] = Fraction(x, q)
        return r

    def unscale(pair: IntPoint) -> Point:
        r = pairs.get(pair)
        if r is None:
            r = pairs[pair] = (coord(pair[0]), coord(pair[1]))
        return r

    return unscale


def _interval_faces(pts: Sequence[int], q: int) -> List[IntInterval]:
    """Points and closed intervals of the breakpoint complex on [0, q]."""
    ext = list(pts) + [q]
    return [(b, b) for b in pts] + list(zip(ext, ext[1:]))


def _sum_ends(pts: Sequence[int], q: int) -> List[int]:
    """Vertices of the complex translated to cover [0, 2q] for x + y."""
    return sorted({b + t for b in pts for t in (0, q)} | {2 * q})


def _sum_faces(ends: Sequence[int]) -> List[IntInterval]:
    """Points and intervals over the sorted ends, sorted by (lo, hi).

    Both lo and hi are nondecreasing along the list.
    """
    out = []
    for a, b in zip(ends, ends[1:]):
        out += [(a, a), (a, b)]
    out.append((ends[-1], ends[-1]))
    return out


def _ring(ix: IntInterval, iy: IntInterval, iz: IntInterval) -> List[IntPoint]:
    """F(ix, iy, iz) = {x in ix, y in iy, x + y in iz} as a counter-clockwise
    ring of its distinct vertices; empty if the face is.

    The lines x + y = z0 and x + y = z1 are parallel, so every vertex lies
    on a side of the box ix×iy, and on each side the part inside the strip
    is one closed interval.  Walking the ends of these intervals along the
    bottom, right, top and left sides lists the vertices in order.
    """
    (x0, x1), (y0, y1), (z0, z1) = ix, iy, iz
    walk: List[IntPoint] = []
    lo, hi = max(x0, z0 - y0), min(x1, z1 - y0)
    if lo <= hi:
        walk += [(lo, y0), (hi, y0)]
    lo, hi = max(y0, z0 - x1), min(y1, z1 - x1)
    if lo <= hi:
        walk += [(x1, lo), (x1, hi)]
    lo, hi = max(x0, z0 - y1), min(x1, z1 - y1)
    if lo <= hi:
        walk += [(hi, y1), (lo, y1)]
    lo, hi = max(y0, z0 - x0), min(y1, z1 - x0)
    if lo <= hi:
        walk += [(x0, hi), (x0, lo)]
    ring = [p for i, p in enumerate(walk) if not i or p != walk[i - 1]]
    if len(ring) > 1 and ring[0] == ring[-1]:
        ring.pop()
    return ring


def _to_face(
    dim: int,
    ix: IntInterval,
    iy: IntInterval,
    iz: IntInterval,
    verts: Sequence[IntPoint],
    u: Callable[[IntPoint], Point],
) -> DeltaFace:
    return DeltaFace(dim, u(ix), u(iy), u(iz), tuple(u(v) for v in verts))


def enumerate_faces(fn: PwlPeriodic) -> List[DeltaFace]:
    """All distinct faces of the complex, sorted by (dim, vertex list).

    Triples (I, J, K) are visited with I and J in breakpoint-complex order
    (points first, then intervals) and K in sorted order; a face is kept
    with the first triple that produces its vertex set.  For each (I, J)
    cell only the K faces that meet [min I + min J, max I + max J] are
    visited: both ends of the K faces increase along the sorted list, so
    those faces form one slice, found by bisection.
    """
    q, pts = _scaled_breakpoints(fn)
    faces_xy = _interval_faces(pts, q)
    faces_z = _sum_faces(_sum_ends(pts, q))
    z_lo = [lo for lo, _ in faces_z]
    z_hi = [hi for _, hi in faces_z]
    seen: Dict[Tuple[IntPoint, ...], Tuple] = {}
    for ix in faces_xy:
        for iy in faces_xy:
            first = bisect_left(z_hi, ix[0] + iy[0])
            last = bisect_right(z_lo, ix[1] + iy[1])
            for iz in faces_z[first:last]:
                ring = _ring(ix, iy, iz)
                if not ring:
                    continue
                verts = tuple(sorted(ring))
                if verts not in seen:
                    seen[verts] = (min(len(ring) - 1, 2), ix, iy, iz)
    u = _unscaler(q)
    order = sorted(seen, key=lambda verts: (seen[verts][0], verts))
    return [_to_face(*seen[verts], verts, u) for verts in order]


def face_ring(face: DeltaFace) -> List[Point]:
    """Vertices of the face in counter-clockwise ring order (for drawing)."""
    ends = face.interval_x + face.interval_y + face.interval_z
    q = lcm(*(e.denominator for e in ends))
    x0, x1, y0, y1, z0, z1 = (_scale(e, q) for e in ends)
    ring = _ring((x0, x1), (y0, y1), (z0, z1))
    return [(Fraction(x, q), Fraction(y, q)) for x, y in ring]


def _smallest_face(
    ends: Sequence[int], last_is_point: bool, lo: int, hi: int
) -> Optional[IntInterval]:
    """Smallest face of the 1-D complex on the sorted ``ends`` containing
    [lo, hi]; every end but possibly the last is a 0-face."""
    if lo < ends[0] or hi > ends[-1]:
        return None
    i = bisect_right(ends, lo) - 1
    if lo == hi == ends[i] and (i < len(ends) - 1 or last_is_point):
        return (lo, lo)
    i = min(i, len(ends) - 2)
    if hi > ends[i + 1]:
        return None
    return (ends[i], ends[i + 1])


def find_face(fn: PwlPeriodic, vertices) -> Optional[DeltaFace]:
    """The face of the complex with exactly this vertex tuple, or None.

    Built directly instead of searched for.  If P = I×J ∩ {x+y ∈ K} is a
    face and I′ is an elementary face with proj_x(P) ⊆ I′ ⊆ I, then
    P ⊆ I′×J ∩ {x+y ∈ K} ⊆ P, so shrinking I to I′ leaves P unchanged; the
    same holds for J and K.  Hence P is cut out by the smallest elementary
    faces I0, J0, K0 containing its projections, which the vertices give,
    and F(I0, J0, K0) is the only candidate.  The triple returned may be
    smaller than the representative that ``enumerate_faces`` keeps for the
    same vertex set; the vertices, and so every limit of Δπ along the face,
    are the same.
    """
    target = tuple(vertices)
    if not target:
        return None
    q, pts = _scaled_breakpoints(fn)
    scaled = []
    for x, y in target:
        if q % x.denominator or q % y.denominator:
            return None
        scaled.append((_scale(x, q), _scale(y, q)))
    xs = [x for x, _ in scaled]
    ys = [y for _, y in scaled]
    zs = [x + y for x, y in scaled]
    xy_ends = pts + [q]
    ix = _smallest_face(xy_ends, False, min(xs), max(xs))
    iy = _smallest_face(xy_ends, False, min(ys), max(ys))
    iz = _smallest_face(_sum_ends(pts, q), True, min(zs), max(zs))
    if ix is None or iy is None or iz is None:
        return None
    ring = _ring(ix, iy, iz)
    verts = tuple(sorted(ring))
    if verts != tuple(scaled):
        return None
    return _to_face(min(len(ring) - 1, 2), ix, iy, iz, verts, _unscaler(q))


def scaled_vertices(*fns: PwlPeriodic) -> Tuple[int, List[IntPoint]]:
    """(n, vertices): n the lcm of the functions' ``denominator_lcm()``, and
    the vertices in [0, n)² of the complex on the union of their
    breakpoints, scaled by n, in sorted order.

    Every vertex is the intersection of two lines from distinct families, so
    at least two of x, y, x+y (mod n) land on breakpoints.
    """
    n = lcm(*(fn.denominator_lcm() for fn in fns))
    pts = sorted({_scale(b, n) for fn in fns for b in fn.breakpoints})
    verts = {(bx, by) for bx in pts for by in pts}
    sums = _sum_ends(pts, n)
    for b in pts:
        for z in sums:
            c = z - b
            if 0 <= c < n:
                verts.add((b, c))
                verts.add((c, b))
    return n, sorted(verts)


def scaled_slacks(fn: PwlPeriodic, n: int, verts: Sequence[IntPoint]) -> Tuple[List[int], int]:
    """(slacks, d): d·Δπ at each scaled vertex (x, y) of ``verts``, as
    integers over one common denominator d > 0.  n must be a multiple of
    ``fn.denominator_lcm()``.

    fn is evaluated once per distinct coordinate t of x, y and x + y (mod n),
    never on the whole grid: on the piece [b, b′) the value at t/n is
    c + m·t for rationals c and m, so with every c, m and breakpoint value
    over d, the value at t is the integer c·d + m·d·t, or the value stored
    at b when t/n = b.
    """
    pts = [_scale(b, n) for b in fn.breakpoints]
    starts = [r - s * b for b, (_, _, r), s in zip(fn.breakpoints, fn.limits, fn.slopes)]
    steps = [s / n for s in fn.slopes]
    ats = [v for _, v, _ in fn.limits]
    d = lcm(*(x.denominator for x in starts + steps + ats))

    def scaled(xs: List[Fraction]) -> List[int]:
        return [x.numerator * (d // x.denominator) for x in xs]

    starts, steps, ats = scaled(starts), scaled(steps), scaled(ats)
    value: Dict[int, int] = {}
    for t in {t for x, y in verts for t in (x, y, (x + y) % n)}:
        i = bisect_right(pts, t) - 1
        value[t] = ats[i] if pts[i] == t else starts[i] + steps[i] * t
    return [value[x] + value[y] - value[(x + y) % n] for x, y in verts], d


def delta_vertices(fn: PwlPeriodic) -> List[Point]:
    """Vertices of the complex inside [0,1)^2, in sorted order."""
    q, verts = scaled_vertices(fn)
    u = _unscaler(q)
    return [u(v) for v in verts]


def vertex_slacks(fn: PwlPeriodic) -> List[Tuple[Point, bool, Fraction]]:
    """The vertices of ``delta_vertices(fn)`` in its order, each with whether
    it lies on the symmetry line x + y = f (mod 1) and with Δπ there.

    The value of Δπ is ``delta_pi`` at the vertex, read from
    ``scaled_slacks``.
    """
    q, verts = scaled_vertices(fn)
    slacks, d = scaled_slacks(fn, q, verts)
    f = _scale(fn.f, q)
    u = _unscaler(q)
    return [
        (u(v), (v[0] + v[1] - f) % q == 0, Fraction(s, d)) for v, s in zip(verts, slacks)
    ]


# -- Δπ and additivity ---------------------------------------------------------


def delta_pi(fn: PwlPeriodic, x, y) -> Fraction:
    """Pointwise subadditivity slack fn(x) + fn(y) - fn(x+y)."""
    return fn(x) + fn(y) - fn(Fraction(x) + Fraction(y))


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
    """Limit of Δπ at a vertex approached from the relative interior of face.

    The approach direction of each of x, y and x+y is read off from the
    position of the vertex inside the corresponding projection of the face;
    coordinates interior to a projection are continuity points of fn.
    """
    u, v = vertex
    w = u + v
    s1 = _side(u, face.p1)
    s2 = _side(v, face.p2)
    s3 = _side(w, face.p3)
    return fn.limit(u, s1) + fn.limit(v, s2) - fn.limit(w, s3)


def _is_additive_with_limits(fn: PwlPeriodic, face: DeltaFace) -> bool:
    """Whether Δπ vanishes on the relative interior of a face of a function
    with jumps: every limit along the face, and for a 2-D face its value at
    the barycenter of the vertices.

    A 2-D face is F(I, J, K) with I, J and K elementary intervals of the
    breakpoints (were one a single point, the face would lie on a line), so
    its interior lies strictly inside I, J and K.  The barycenter of the
    vertices of a polygon is an interior point; hence its x, y and x + y avoid
    every breakpoint line, and fn is continuous at each of them.
    """
    verts = face.vertices
    if any(delta_pi_limit(fn, face, v) != 0 for v in verts):
        return False
    if face.dim != 2:
        return True
    n = len(verts)
    return delta_pi(fn, sum(x for x, _ in verts) / n, sum(y for _, y in verts) / n) == 0


def classify_additive(fn: PwlPeriodic, faces: Sequence[DeltaFace]) -> List[DeltaFace]:
    """The faces (of ``enumerate_faces(fn)``) on whose relative interior Δπ
    vanishes, in their given order.

    For a continuous function Δπ is affine on each face, so it vanishes on
    the face exactly when it vanishes at the vertices.  Δπ is read once per
    vertex from ``scaled_slacks``; it is periodic in x and y, so a face
    vertex is looked up by its coordinates mod 1, and the cost follows the
    number of vertices, not q.
    """
    if not fn.is_continuous():
        return [face for face in faces if _is_additive_with_limits(fn, face)]
    q, verts = scaled_vertices(fn)
    slacks, _ = scaled_slacks(fn, q, verts)
    zero = {v for v, s in zip(verts, slacks) if not s}
    return [
        face
        for face in faces
        if all((_scale(x, q) % q, _scale(y, q) % q) in zero for x, y in face.vertices)
    ]


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


@dataclass(frozen=True)
class AdditivityReport:
    """Additive faces and covered intervals of a function's complex.

    ``maximal_faces`` and ``symmetry_faces`` are computed on first access:
    the extremality test reads neither.
    """

    additive_faces: Tuple[DeltaFace, ...]
    covered_intervals: Tuple[Interval, ...]
    f: Fraction

    @cached_property
    def maximal_faces(self) -> Tuple[DeltaFace, ...]:
        """Additive faces contained in no other additive face."""
        additive = self.additive_faces
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
        return tuple(maximal)

    @cached_property
    def symmetry_faces(self) -> Tuple[DeltaFace, ...]:
        """Additive faces lying on the line x + y = f (mod 1)."""
        targets = (self.f, self.f + 1)
        return tuple(
            face
            for face in self.additive_faces
            if all(v[0] + v[1] in targets for v in face.vertices)
        )


def additivity_report(fn: PwlPeriodic) -> AdditivityReport:
    """Classify the additive part of the complex and the covered intervals."""
    additive = classify_additive(fn, enumerate_faces(fn))
    covered: List[Interval] = []
    for face in additive:
        if face.dim != 2:
            continue
        covered.append(face.p1)
        covered.append(face.p2)
        covered.extend(_reduce_mod_1(*face.p3))
    return AdditivityReport(
        additive_faces=tuple(additive),
        covered_intervals=_merge_intervals(covered),
        f=fn.f,
    )


@dataclass(frozen=True)
class FaceCountCheck:
    q: int
    two_faces: int
    expected: int
    ok: bool


def face_count_check(fn: PwlPeriodic) -> FaceCountCheck:
    """For uniform breakpoints (1/q)Z the complex has exactly 2q^2 two-faces."""
    q = fn.denominator_lcm()
    uniform = tuple(Fraction(i, q) for i in range(q))
    if fn.breakpoints != uniform:
        raise ValueError("face_count_check requires uniform (1/q)Z breakpoints")
    count = sum(1 for f in enumerate_faces(fn) if f.dim == 2)
    return FaceCountCheck(q=q, two_faces=count, expected=2 * q * q, ok=count == 2 * q * q)
