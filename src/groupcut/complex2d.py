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
clipping: the lines x + y = c are parallel, so F(I,J,K) is the box I×J cut
by at most two of them, and its vertices, in sorted order, are closed forms
in the box's corners and the points where those lines cross its sides; the
kinds of I, J and K give the dimension.  Each face is built once, by the
one cell I×J that owns it, so no face is built twice and dropped as a
duplicate, and each dimension is sorted on one packed integer key.
The enumeration is a read-only ``FaceSequence`` of (dim, integers) rows
that builds a face when it is first read and keeps it: the
classification, the face count and the failure scan read the rows, and
build only the faces they return.  Each face keeps its integers, its sorted vertices and its triple scaled by
q, and builds its Fraction fields on first read through one memoizing
unscaler that the whole enumeration shares; dividing by q > 0 keeps every
order the kernel sorts by.  One evaluator, ``_scaled_pi``, reads π at the
scaled coordinates from the integer form that ``pwl`` fills once per
function, over one denominator: its value, and at a breakpoint its two
one-sided limits.  Δπ at the vertices and every limit of Δπ along
a face read it, each side taken from the face's integer projections: the
minimality test and the additivity classification build no Fraction but
a witness's.  The drawing ring is rebuilt from the sorted vertices, and
the report keeps each additive face's integer projections for the covered
intervals and the grid runs.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections.abc import Sequence as _Sequence
from fractions import Fraction
from functools import cached_property
from itertools import compress, repeat
from math import lcm
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .pwl import IntTriple, PwlPeriodic, _Record, _scaled_limits

Point = Tuple[Fraction, Fraction]
Interval = Tuple[Fraction, Fraction]
# Scaled by q: coordinates are integers.
IntPoint = Tuple[int, int]
IntInterval = Tuple[int, int]
_Projections = Tuple[int, int, int, int, int, int]


class _Scaled:
    # What a face is built from: ``_u``, the unscaler of its scale q, and
    # ``_ints``, its sorted vertices and its triple (I, J, K) scaled by q.
    __slots__ = ("_u", "_ints")


class DeltaFace(_Scaled, _Record):
    """One face F(I,J,K) of the complex, stored with its vertex set.

    A face of ``enumerate_faces`` builds each Fraction field from its
    integers on first read; one built from Fractions derives its integers
    in ``__post_init__``.
    """

    _fields = ("dim", "interval_x", "interval_y", "interval_z", "vertices")
    __slots__ = _fields
    dim: int
    interval_x: Interval
    interval_y: Interval
    interval_z: Interval
    vertices: Tuple[Point, ...]

    def __post_init__(self) -> None:
        ends = self.interval_x + self.interval_y + self.interval_z
        q = lcm(*(c.denominator for c in ends), *(c.denominator for v in self.vertices for c in v))
        x0, x1, y0, y1, z0, z1 = (_scale(c, q) for c in ends)
        verts = tuple(sorted((_scale(x, q), _scale(y, q)) for x, y in self.vertices))
        _set_u(self, _Unscaler(q))
        _set_ints(self, (verts, (x0, x1), (y0, y1), (z0, z1)))

    def __getattr__(self, name: str):
        # Only a field not read yet gets here: build it and keep it.
        i = _LAZY_FIELDS.get(name)
        if i is None:
            raise AttributeError(f"'DeltaFace' object has no attribute {name!r}")
        u, ints = self._u, self._ints[i]
        value = tuple(map(u.__getitem__, ints)) if i == 0 else u[ints]
        object.__setattr__(self, name, value)
        return value

    @property
    def p1(self) -> Interval:
        return self._u[_projections(self._ints[0])[:2]]

    @property
    def p2(self) -> Interval:
        return self._u[_projections(self._ints[0])[2:4]]

    @property
    def p3(self) -> Interval:
        return self._u[_projections(self._ints[0])[4:]]

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


# The complex has O(B²) vertices and faces for B breakpoints; a larger B is
# refused before any of them is built.
MAX_BREAKPOINTS = 256


def _check_breakpoints(count: int) -> None:
    """Raise ValueError, naming the bound, if count exceeds ``MAX_BREAKPOINTS``."""
    if count > MAX_BREAKPOINTS:
        raise ValueError(f"{count} breakpoints exceed the bound of {MAX_BREAKPOINTS} for the complex")


def _scaled_breakpoints(fn: PwlPeriodic) -> Tuple[int, List[int]]:
    """q and the breakpoints scaled by q: sorted integers in [0, q)."""
    q = fn.denominator_lcm()
    return q, [_scale(b, q) for b in fn.breakpoints]


class _Unscaler(dict):
    """u[(a, b)] = (a/q, b/q) for points and intervals alike, memoized so
    that equal pairs share one tuple of shared Fractions."""

    __slots__ = ("q", "_coords")

    def __init__(self, q: int) -> None:
        self.q, self._coords = q, {}

    def __missing__(self, pair: IntPoint) -> Point:
        c = self._coords
        r = self[pair] = tuple(c[a] if a in c else c.setdefault(a, Fraction(a, self.q)) for a in pair)
        return r


# The index in ``_ints`` of each Fraction field a face builds on first read.
_LAZY_FIELDS = {"vertices": 0, "interval_x": 1, "interval_y": 2, "interval_z": 3}
_new_face = object.__new__
_set_dim, _set_u, _set_ints = DeltaFace.dim.__set__, _Scaled._u.__set__, _Scaled._ints.__set__


def _face(dim: int, ints: tuple, u: _Unscaler) -> DeltaFace:
    """A face held as its integers (``_Scaled``), scaled by ``u.q``."""
    face = _new_face(DeltaFace)
    _set_dim(face, dim)
    _set_u(face, u)
    _set_ints(face, ints)
    return face


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


def enumerate_faces(fn: PwlPeriodic) -> FaceSequence:
    """All distinct faces of the complex, sorted by (dim, vertex list), as a
    ``FaceSequence`` that builds each face when it is first read.

    Each face is built once, as F(I, J, K) by the one cell I×J that owns it.
    Its triple is the representative: the first triple that gives its
    vertex set when I and J run in breakpoint-complex order (points first,
    then intervals) and K in sorted order.  Scaled by q, the cell I×J has
    the sum range [s0, s1] = [min I + min J, max I + max J].  Both ends of
    the K faces increase along the sorted list, so each slice below is
    found by bisection.

    - A point cell (I and J points) takes the first K that meets s0.
    - Any other cell takes each K whose relative interior meets (s0, s1).
    - Such a cell whose I and J each are a point or end at q also takes
      K = {s1}, for its far corner (x1, y1), which lies on x = q or y = q.

    Why this builds each face once, with its representative triple.  Let P
    be a face and I0, J0 the smallest faces of the breakpoint complex that
    contain its projections.  Any triple that gives P has I ⊇ I0, and I is
    I0 or an interval that contains the point I0 and so comes after it;
    likewise for J.  No cell before I0×J0 gives P, and I0×J0 does: if
    P = F(I, J, K) and proj_x(P) ⊆ I′ ⊆ I, then P ⊆ F(I′, J, K) ⊆ P; the
    same holds for J, so F(I0, J0, K) = P.

    - P meets the relative interior of exactly one cell, I0×J0, unless P
      lies on x = q or y = q.  A projection of P is a breakpoint below q
      (then I0 or J0 is that point), or its relative interior lies in that
      of I0 or J0, or it is q, which is no point of the breakpoint complex.
      The relative interiors of the cells are disjoint.  A P on x = q (the
      case y = q is alike) is the far corner (q, max J0) of I0×J0: from a
      point (q, y) with y < max J0 the box runs on along x + y = y + q to
      smaller x, so P would leave the line.  J0 is then a point or ends at
      q, so I0×J0 is the one cell that takes P, and no point cell
      precedes it.
    - Within I0×J0 exactly one K gives P.  The K whose relative interiors
      meet (s0, s1) cut the open range into disjoint pieces, so each gives
      a face of its own.  A K that misses (s0, s1) gives a corner: the one
      at s0 is a point cell, and at s1, {s1} comes before (s1, b), the
      other K that gives that corner alone.  A point cell is the
      exception: every K of its slice gives the same vertex, and the first
      K is the one kept.

    The vertices in closed form.  Write I×J = [x0, x1]×[y0, y1].  The box
    meets the line x + y = c, s0 <= c <= s1, where max(x0, c − y1) <= x <=
    min(x1, c − y0): in the chord from P(c) = (max(x0, c − y1), ·) on its
    left or top side to Q(c) = (min(x1, c − y0), ·) on its bottom or right
    side, each second coordinate being c minus the first.  For s0 < c < s1
    in a box cell (x0 < x1 and y0 < y1) each lower bound on x is below each
    upper one, so P(c) comes before Q(c); in a segment cell they are one
    point.  So a point K = {c} gives the point P(c) of a segment cell, or
    the chord P(c)Q(c) of a box cell.  An interval K = (a, b) gives the
    segment of a segment cell from its point at a′ = max(a, s0) to that at
    b′ = min(b, s1), and in a box cell the polygon between the chords at a′
    and b′.  Its vertices are the ends of the two chords and the corners of
    the box strictly inside the strip a < x + y < b: (x0, y0) and (x1, y1)
    are inside only as the one-point chords P(s0) = Q(s0) and
    P(s1) = Q(s1), and (x0, y1) and (x1, y0) lie on no chord then.  Each is
    a vertex, where the chord's direction (1, −1) meets a side's or two
    sides meet.  Sorted, they are P(a′), [(x0, y1)], Q(a′) and P(b′) in
    either order, [(x1, y0)], Q(b′), a one-point chord listed once: P(a′)
    has the least x, and the least y at that x; (x0, y1), when inside, is
    the only other point at x = x0, as P(b′) then lies on the top side and
    Q(a′) right of x0; alike (x1, y0) and Q(b′) at x = x1.

    The sort.  A vertex has coordinates in [0, q], so the digits of an
    integer in base q + 1 order its vertices as tuples.  A 0-D face is keyed
    by its vertex, a 1-D face by its two and a 2-D face by its first three:
    no three vertices of a convex polygon lie on one line, and two distinct
    2-D faces of the complex meet in at most one edge, so no two share
    three vertices, and the key order is the order of the vertex tuples.
    """
    q, pts = _scaled_breakpoints(fn)
    _check_breakpoints(len(pts))
    faces_xy = _interval_faces(pts, q)
    faces_z = _sum_faces(_sum_ends(pts, q))
    z_lo = [lo for lo, _ in faces_z]
    z_hi = [hi for _, hi in faces_z]
    r = q + 1
    # The faces of each dimension, by their packed key.
    points: Dict[int, tuple] = {}
    segments: Dict[int, tuple] = {}
    polygons: Dict[int, tuple] = {}
    for ix in faces_xy:
        x0, x1 = ix
        for iy in faces_xy:
            y0, y1 = iy
            s0, s1 = x0 + y0, x1 + y1
            if s0 == s1:
                points[x0 * r + y0] = (((x0, y0),), ix, iy, faces_z[bisect_left(z_hi, s0)])
                continue
            first, last = bisect_right(z_hi, s0), bisect_left(z_lo, s1)
            if x0 == x1:
                for iz in faces_z[first:last]:
                    a, b = iz
                    if a == b:
                        points[x0 * r + a - x0] = (((x0, a - x0),), ix, iy, iz)
                    else:
                        lo = a - x0 if a > s0 else y0
                        hi = b - x0 if b < s1 else y1
                        segments[((x0 * r + lo) * r + x0) * r + hi] = (((x0, lo), (x0, hi)), ix, iy, iz)
                corner = y1 == q
            elif y0 == y1:
                for iz in faces_z[first:last]:
                    a, b = iz
                    if a == b:
                        points[(a - y0) * r + y0] = (((a - y0, y0),), ix, iy, iz)
                    else:
                        lo = a - y0 if a > s0 else x0
                        hi = b - y0 if b < s1 else x1
                        segments[((lo * r + y0) * r + hi) * r + y0] = (((lo, y0), (hi, y0)), ix, iy, iz)
                corner = x1 == q
            else:
                top_left, bottom_right = x0 + y1, x1 + y0
                for iz in faces_z[first:last]:
                    a, b = iz
                    if a == b:
                        p = (x0, a - x0) if a - y1 <= x0 else (a - y1, y1)
                        t = (a - y0, y0) if a - y0 <= x1 else (x1, a - x1)
                        segments[((p[0] * r + p[1]) * r + t[0]) * r + t[1]] = ((p, t), ix, iy, iz)
                        continue
                    # P(a′), [(x0, y1)], Q(a′) and P(b′) sorted, [(x1, y0)], Q(b′).
                    if a > s0:
                        verts = [(x0, a - x0) if a - y1 <= x0 else (a - y1, y1)]
                        inner = [(a - y0, y0) if a - y0 <= x1 else (x1, a - x1)]
                    else:
                        verts, inner = [(x0, y0)], []
                    if a < top_left < b:
                        verts.append((x0, y1))
                    if b < s1:
                        inner.append((x0, b - x0) if b - y1 <= x0 else (b - y1, y1))
                        inner.sort()
                        end = (b - y0, y0) if b - y0 <= x1 else (x1, b - x1)
                    else:
                        end = (x1, y1)
                    verts += inner
                    if a < bottom_right < b:
                        verts.append((x1, y0))
                    verts.append(end)
                    (ax, ay), (bx, by), (cx, cy) = verts[:3]
                    polygons[((((ax * r + ay) * r + bx) * r + by) * r + cx) * r + cy] = (tuple(verts), ix, iy, iz)
                corner = x1 == q and y1 == q
            if corner:
                points[x1 * r + y1] = (((x1, y1),), ix, iy, faces_z[last])
    rows = []
    for dim, found in enumerate((points, segments, polygons)):
        rows += [(dim, found[key]) for key in sorted(found)]
        found.clear()  # its keys are read: free them before the next dimension's rows
    return FaceSequence(rows, q)


class FaceSequence(_Sequence):
    """The faces of ``enumerate_faces``, held as (dim, integers) rows and
    each built as a ``DeltaFace`` on first read and kept, so that
    ``faces[i] is faces[i]``: a reader of the integers alone builds no face.
    Read-only; it compares equal to the list of its faces, and pickles and
    copies as its rows and q."""

    __slots__ = ("_rows", "_u", "_built")

    def __init__(self, rows: List[Tuple[int, tuple]], q: int) -> None:
        self._rows, self._u, self._built = rows, _Unscaler(q), [None] * len(rows)

    def __len__(self) -> int:
        return len(self._rows)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[k] for k in range(len(self._rows))[i]]
        face = self._built[i]
        if face is None:
            dim, ints = self._rows[i]
            face = self._built[i] = _face(dim, ints, self._u)
        return face

    def __iter__(self):
        return map(self.__getitem__, range(len(self._rows)))

    def __eq__(self, other) -> bool:
        return list(self) == other

    def __reduce__(self):
        return FaceSequence, (self._rows, self._u.q)


def _face_rows(faces: Sequence[DeltaFace], q: int) -> Sequence[Tuple[int, tuple]]:
    """(dim, integers) of each face scaled by q, its sorted vertices first:
    the rows of an enumeration at scale q, read without building a face, or
    else the dimension and ``_vertices_at`` of each face."""
    if isinstance(faces, FaceSequence) and faces._u.q == q:
        return faces._rows
    return [(face.dim, (_vertices_at(face, q),)) for face in faces]


def face_ring(face: DeltaFace) -> List[Point]:
    """Vertices of the face in counter-clockwise ring order (for drawing),
    from its lowest vertex, the leftmost of those.  Sorted, a convex
    polygon's vertices below the line from its first to its last one form
    the lower chain, and those above it, in reverse, the upper."""
    verts = face._ints[0]
    (px, py), (lx, ly) = verts[0], verts[-1]
    lower, upper = [verts[0]], []
    for x, y in verts[1:-1]:
        (lower if (lx - px) * (y - py) < (ly - py) * (x - px) else upper).append((x, y))
    ring = lower + [verts[-1]] * (len(verts) > 1) + upper[::-1]
    start = ring.index(min(ring, key=lambda v: (v[1], v[0])))
    return [face._u[v] for v in ring[start:] + ring[:start]]


def scaled_vertices(*fns: PwlPeriodic) -> Tuple[int, List[IntPoint]]:
    """(n, vertices): n the lcm of the functions' ``denominator_lcm()``, and
    the vertices in [0, n)² of the complex on the union of their
    breakpoints, scaled by n, in sorted order.

    Every vertex is the intersection of two lines from distinct families, so
    at least two of x, y, x+y (mod n) land on breakpoints.
    """
    n = lcm(*(fn.denominator_lcm() for fn in fns))
    pts = sorted({_scale(b, n) for fn in fns for b in fn.breakpoints})
    _check_breakpoints(len(pts))
    sums = _sum_ends(pts, n)
    verts = {(bx, by) for bx in pts for by in pts}
    for b in pts:
        for z in sums:
            c = z - b
            if 0 <= c < n:
                verts.add((b, c))
                verts.add((c, b))
    return n, sorted(verts)


def _scaled_pi(fn: PwlPeriodic, n: int, points: Iterable[IntPoint]) -> Tuple[Dict[int, IntTriple], int]:
    """``pwl._scaled_limits`` of fn at each t among x, y and x + y (mod n)
    of the scaled points in [0, n)², n a multiple of ``fn.denominator_lcm()``."""
    return _scaled_limits(fn, n, {t for x, y in points for t in (x, y, (x + y) % n)})


def scaled_slacks(fn: PwlPeriodic, n: int, verts: Sequence[IntPoint]) -> Tuple[List[int], int]:
    """(slacks, d): d·Δπ at each scaled vertex (x, y) in [0, n)² of ``verts``
    as integers, over the d > 0 of ``_scaled_pi``."""
    lim, d = _scaled_pi(fn, n, verts)
    return _vertex_slacks(lim, n, verts), d


def _vertex_slacks(lim: Dict[int, IntTriple], n: int, verts: Sequence[IntPoint]) -> List[int]:
    """d·Δπ at each scaled vertex (x, y) of ``verts``, from the values of
    ``lim`` at scale n (``_scaled_pi``)."""
    return [lim[x][1] + lim[y][1] - lim[(x + y) % n][1] for x, y in verts]


def _face_limits(lim: Dict[int, IntTriple], n: int, sv: Sequence[IntPoint], points=None) -> List[int]:
    """d·the limit of Δπ from the relative interior of a face at each
    scaled point, by default at each of its sorted vertices sv, all scaled
    by n; ``lim`` and d are those of ``_scaled_pi`` at scale n.

    Each of x, y and x + y reads the right limit at the low end of its
    projection, the left limit at the high end, and the value elsewhere or
    on a projection that is one point: index 1 + (c == lo) − (c == hi) of
    its triple.  Inside a projection of F(I, J, K) a coordinate lies inside
    the interval I, J or K, off every breakpoint, where π is continuous.
    """
    x0, x1, y0, y1, z0, z1 = _projections(sv)
    return [
        lim[x % n][1 + (x == x0) - (x == x1)]
        + lim[y % n][1 + (y == y0) - (y == y1)]
        - lim[(x + y) % n][1 + (x + y == z0) - (x + y == z1)]
        for x, y in (sv if points is None else points)
    ]


def delta_vertices(fn: PwlPeriodic) -> List[Point]:
    """Vertices of the complex inside [0,1)^2, in sorted order."""
    q, verts = scaled_vertices(fn)
    u = _Unscaler(q)
    return [u[v] for v in verts]


# -- Δπ and additivity ---------------------------------------------------------


def delta_pi(fn: PwlPeriodic, x, y) -> Fraction:
    """Pointwise subadditivity slack fn(x) + fn(y) - fn(x+y)."""
    return fn(x) + fn(y) - fn(Fraction(x) + Fraction(y))


def delta_pi_limit(fn: PwlPeriodic, face: DeltaFace, point: Point) -> Fraction:
    """Limit of Δπ at a point of the face from its relative interior, read at
    the scale n that the complex, the face and the point share.  Raises
    ValueError for a point outside the face."""
    x, y = map(Fraction, point)
    if not face.contains((x, y)):
        raise ValueError(f"({x}, {y}) is not a point of the face")
    n = lcm(fn.denominator_lcm(), face._u.q, x.denominator, y.denominator)
    pt = (_scale(x, n), _scale(y, n))
    lim, d = _scaled_pi(fn, n, [(pt[0] % n, pt[1] % n)])
    return Fraction(_face_limits(lim, n, _vertices_at(face, n), [pt])[0], d)


def _additive_scaled(
    fn: PwlPeriodic, faces: Sequence[DeltaFace]
) -> Tuple[int, List[DeltaFace], List[_Projections]]:
    """q = ``fn.denominator_lcm()``, the faces of ``classify_additive`` and
    their ``_projections`` scaled by q, from each face's integers read once;
    of an enumeration, only the faces kept are built."""
    q = fn.denominator_lcm()
    _, verts = scaled_vertices(fn)
    scaled = [ints[0] for _, ints in _face_rows(faces, q)]
    if fn.is_continuous():
        slacks, _ = scaled_slacks(fn, q, verts)
        # Δπ is periodic: a vertex on x = q or y = q reads the slack at 0.
        zero = {v for v, s in zip(verts, slacks) if not s}
        zero |= {(q, y) for x, y in zero if not x}
        zero |= {(x, q) for x, y in zero if not y}
        keep = list(map(zero.issuperset, scaled))
    else:
        lim, _ = _scaled_pi(fn, q, verts)
        keep = [not any(_face_limits(lim, q, sv)) for sv in scaled]
    kept = list(compress(range(len(scaled)), keep))
    return q, [faces[i] for i in kept], [_projections(scaled[i]) for i in kept]


def _vertices_at(face: DeltaFace, q: int) -> Tuple[IntPoint, ...]:
    """The face's sorted vertices scaled by q, a multiple of its own scale."""
    m, r = divmod(q, face._u.q)
    if r:
        raise ValueError("the face is not a face of this complex")
    return face._ints[0] if m == 1 else tuple((m * x, m * y) for x, y in face._ints[0])


def classify_additive(fn: PwlPeriodic, faces: Sequence[DeltaFace]) -> List[DeltaFace]:
    """The faces (of ``enumerate_faces(fn)``) on whose relative interior Δπ
    vanishes, in their given order.

    For a continuous function Δπ is affine on each face, so it vanishes on
    the face exactly when it vanishes at the vertices.  Δπ is read once per
    vertex from ``scaled_slacks``; it is periodic in x and y, so the
    vertices where it vanishes are kept with their translates onto x = 1
    and y = 1, each face is one subset test of its integer vertices, and
    the cost follows the number of vertices, not q.

    With jumps, the same holds for the limits of Δπ at the vertices: inside
    F(I, J, K) each of x, y and x + y is one constant or runs off the
    breakpoints, so Δπ is affine, L_I(x) + L_J(y) − L_K(x + y), and the
    vertex limits are its values at the vertices.
    """
    return _additive_scaled(fn, faces)[1]


def _projections(verts: Sequence[IntPoint]) -> _Projections:
    """min and max of x, of y and of x + y over a face's sorted vertices.
    Every edge runs along x = c, y = c or x + y = c, and none leaves the first
    vertex p with dx < 0 or along (0, -1): the edges at p run along (1, 0),
    (0, 1) or (1, -1), where x and x + y fall along none.  The convex face
    lies in their cone, so both are least at p and alike greatest at the
    last vertex; only y needs a pass."""
    (x0, y_first), (x1, y_last) = verts[0], verts[-1]
    y0 = y1 = y_first
    for _, y in verts:
        if y < y0:
            y0 = y
        elif y > y1:
            y1 = y
    return x0, x1, y0, y1, x0 + y_first, x1 + y_last


def _on_symmetry_line(verts: Sequence[IntPoint], q: int, f: Fraction) -> bool:
    """Whether the face with sorted vertices verts, scaled by q, lies on
    x + y = f (mod 1), read from its end vertices, where x + y is least and
    greatest (see ``_projections``).  No face meets two such lines: its
    x + y range is shorter than q, or is [kq, kq + q] when 0 is the only
    breakpoint, and qf is not 0 (mod q)."""
    (x0, y0), (x1, y1) = verts[0], verts[-1]
    if x0 + y0 != x1 + y1:
        return False
    t, r = divmod(f.numerator * q, f.denominator)
    return not r and (x0 + y0 - t) % q == 0


def _merge_intervals(intervals: Iterable[IntInterval]) -> List[List[int]]:
    """Ranges in one sort, those that overlap or touch merged."""
    merged: List[List[int]] = []
    for lo, hi in sorted(intervals):
        if merged and lo <= merged[-1][1]:
            if hi > merged[-1][1]:
                merged[-1][1] = hi
        else:
            merged.append([lo, hi])
    return merged


class AdditivityReport(_Record):
    """Additive faces and covered intervals of a function's complex.

    ``maximal_faces`` and ``symmetry_faces`` are computed on first access
    and kept in the instance's ``__dict__``: the extremality test reads
    neither.
    """

    _fields = ("additive_faces", "covered_intervals", "f", "_scaled")
    additive_faces: Tuple[DeltaFace, ...]
    covered_intervals: Tuple[Interval, ...]
    f: Fraction
    # q and the projections of each additive face scaled by q, in order,
    # computed once per face for the covered intervals and the grid runs;
    # private, so it stays out of ==, hash and repr.
    _scaled: Optional[Tuple[int, Tuple[_Projections, ...]]] = None

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
        return tuple(
            face for face in self.additive_faces if _on_symmetry_line(face._ints[0], face._u.q, self.f)
        )


def additivity_report(fn: PwlPeriodic) -> AdditivityReport:
    """Classify the additive part of the complex and the covered intervals.

    The covered intervals are the projections p1, p2 and p3 (mod 1) of the
    2-D additive faces, merged in integers and divided by q once.  0 is a
    breakpoint, so 1 is a vertex of the sums, and p3 lies in [0, 1] or in
    [1, 2].
    """
    q, additive, scaled = _additive_scaled(fn, enumerate_faces(fn))
    covered: List[IntInterval] = []
    for x0, x1, y0, y1, z0, z1 in scaled:
        if x0 == x1 or y0 == y1 or z0 == z1:
            continue  # a point or a segment
        t = q if z0 >= q else 0
        covered += [(x0, x1), (y0, y1), (z0 - t, z1 - t)]
    return AdditivityReport(
        additive_faces=tuple(additive),
        covered_intervals=tuple(
            (Fraction(lo, q), Fraction(hi, q)) for lo, hi in _merge_intervals(covered)
        ),
        f=fn.f,
        _scaled=(q, tuple(scaled)),
    )


def _additive_face_runs(report: AdditivityReport, n: int) -> List[Tuple[str, int, int, int]]:
    """The solver's unit-step runs covering every grid pair inside the
    additive faces, each once, in no fixed order.  The report holds each face's
    projections scaled by q, and q | n: the grid coordinates are those times
    m = n/q.  y0 = y1 gives a point or an h run, x0 = x1 a v run and z0 = z1 a
    d run; any other face is 2-D and convex, {x in p1, y in p2, x + y in p3},
    so its row y = j, j in p2, is max(x0, z0 - j) = lo <= x <= hi = min(x1, z1 - j).
    lo falls by one a row up to j = z0 - x0, the first vertex's row (see
    ``_projections``), and is x0 after; hi is x1 up to j = z1 - x1, the last
    vertex's row, and falls after: cut there, the rows are three zipped ranges.
    """
    q, faces = report._scaled
    m = n // q
    runs = []
    for x0, x1, y0, y1, z0, z1 in faces:
        x0, x1, y0, y1, z0, z1 = m * x0, m * x1, m * y0, m * y1, m * z0, m * z1
        if y0 == y1:
            runs.append(("h", y0, x0, x1))
        elif x0 == x1:
            runs.append(("v", x0, y0, y1))
        elif z0 == z1:
            runs.append(("d", z0, x0, x1))
        else:
            cuts = sorted({y0, y1 + 1, z0 - x0 + 1, z1 - x1 + 1})
            for a, b in zip(cuts, cuts[1:]):
                lo = range(z0 - a, z0 - b, -1) if a <= z0 - x0 else repeat(x0)
                hi = repeat(x1) if a <= z1 - x1 else range(z1 - a, z1 - b, -1)
                runs += zip(repeat("h"), range(a, b), lo, hi)
    return list(dict.fromkeys(runs))


class FaceCountCheck(_Record):
    _fields = ("q", "two_faces", "expected", "ok")
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
    count = sum(1 for dim, _ in enumerate_faces(fn)._rows if dim == 2)
    return FaceCountCheck(q=q, two_faces=count, expected=2 * q * q, ok=count == 2 * q * q)
