"""Reference enumeration of the 2-D complex by a walk around each cell.

A frozen copy of ``enumerate_faces`` as it was before each cell read its
faces from closed forms: for every K of a cell's slice, ``_ring`` walks the
four sides of the box I×J, lists the distinct vertices of F(I, J, K) in
counter-clockwise order, and their number gives the dimension; each
dimension is then sorted on its vertex tuples.  The library's enumerator
must equal it face for face, and the drawing ring ``face_ring`` must equal
``_ring``.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import List, Tuple

from groupcut.complex2d import (
    IntInterval,
    IntPoint,
    _face,
    _interval_faces,
    _scaled_breakpoints,
    _sum_ends,
    _sum_faces,
    _Unscaler,
)


def _ring(ix: IntInterval, iy: IntInterval, iz: IntInterval) -> List[IntPoint]:
    """F(ix, iy, iz) = {x in ix, y in iy, x + y in iz} as a counter-clockwise
    ring of its distinct vertices; empty if the face is.

    The lines x + y = z0 and x + y = z1 are parallel, so every vertex lies
    on a side of the box ix×iy, and on each side the part inside the strip
    is one closed interval [lo, hi].  Walking the ends of these intervals
    along the bottom, right, top and left sides lists the vertices in order;
    a point equal to the one before it, or the last equal to the first, is
    a corner met twice and is listed once.
    """
    (x0, x1), (y0, y1), (z0, z1) = ix, iy, iz
    ring: List[IntPoint] = []
    lo, hi = z0 - y0, z1 - y0
    if lo < x0:
        lo = x0
    if hi > x1:
        hi = x1
    if lo <= hi:
        ring.append((lo, y0))
        if lo != hi:
            ring.append((hi, y0))
    lo, hi = z0 - x1, z1 - x1
    if lo < y0:
        lo = y0
    if hi > y1:
        hi = y1
    if lo <= hi:
        if not ring or ring[-1] != (x1, lo):
            ring.append((x1, lo))
        if lo != hi:
            ring.append((x1, hi))
    lo, hi = z0 - y1, z1 - y1
    if lo < x0:
        lo = x0
    if hi > x1:
        hi = x1
    if lo <= hi:
        if not ring or ring[-1] != (hi, y1):
            ring.append((hi, y1))
        if lo != hi:
            ring.append((lo, y1))
    lo, hi = z0 - x0, z1 - x0
    if lo < y0:
        lo = y0
    if hi > y1:
        hi = y1
    if lo <= hi:
        if not ring or ring[-1] != (x0, hi):
            ring.append((x0, hi))
        if lo != hi:
            ring.append((x0, lo))
    if len(ring) > 1 and ring[0] == ring[-1]:
        ring.pop()
    return ring


def enumerate_faces(fn):
    """All distinct faces of the complex, sorted by (dim, vertex list), each
    built by the one cell I×J that owns it from the ring of F(I, J, K)."""
    q, pts = _scaled_breakpoints(fn)
    faces_xy = _interval_faces(pts, q)
    faces_z = _sum_faces(_sum_ends(pts, q))
    z_lo = [lo for lo, _ in faces_z]
    z_hi = [hi for _, hi in faces_z]
    by_dim: Tuple[List, List, List] = ([], [], [])
    for ix in faces_xy:
        x0, x1 = ix
        for iy in faces_xy:
            y0, y1 = iy
            if x0 == x1 and y0 == y1:
                first = bisect_left(z_hi, x0 + y0)
                last = first + 1
            else:
                first = bisect_right(z_hi, x0 + y0)
                last = bisect_left(z_lo, x1 + y1)
                if (x1 == q or x0 == x1) and (y1 == q or y0 == y1):
                    last += 1
            for iz in faces_z[first:last]:
                ring = _ring(ix, iy, iz)
                n = len(ring)
                by_dim[2 if n > 2 else n - 1].append((tuple(sorted(ring)), ix, iy, iz))
    u = _Unscaler(q)
    faces = []
    for dim, entries in enumerate(by_dim):
        entries.sort()  # vertex tuples are distinct: no comparison goes past them
        faces += [_face(dim, ints, u) for ints in entries]
    return faces
