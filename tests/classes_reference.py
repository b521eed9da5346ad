"""``solver._difference_classes`` as it was before it united whole step
ranges, kept as the oracle for the range-union version.

Each shift's ranges are merged on their own, targets are linked through skip
pointers one neighbour link at a time, the shortcut of a relation tests
whether one side is neighbour-linked by every link made so far, and the
classes are numbered through a sorted set of roots.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from complex2d_reference import _merge_intervals
from groupcut.solver import Run


class _UnionFind:
    """Union-find over the n cyclic unit steps, with skip pointers over the
    links t - 1 ~ t between neighbouring steps."""

    def __init__(self, n: int):
        self.n = n
        self.parent = list(range(n))
        # skip leads from t to the first step >= t not yet linked to its
        # predecessor; n is the sentinel.
        self.skip = list(range(n + 1))

    def find(self, a: int) -> int:
        parent = self.parent
        root = a
        while parent[root] != root:
            root = parent[root]
        while parent[a] != root:
            parent[a], a = root, parent[a]
        return root

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            if rb < ra:
                ra, rb = rb, ra
            self.parent[rb] = ra

    def _unlinked(self, t: int) -> int:
        skip = self.skip
        root = t
        while skip[root] != root:
            root = skip[root]
        while skip[t] != root:
            skip[t], t = root, skip[t]
        return root

    def _pieces(self, a: int, b: int) -> List[Tuple[int, int]]:
        """The links a+1 .. b (mod n) of the steps a .. b, as ranges [x, y)
        inside [0, n)."""
        n = self.n
        if b - a >= n:
            return [(0, n)]
        x = (a + 1) % n
        y = x + b - a
        return [(x, y)] if y <= n else [(x, n), (0, y - n)]

    def linked(self, a: int, b: int) -> bool:
        """Whether the steps a .. b (mod n, a <= b) are linked into one range."""
        return all(self._unlinked(x) >= y for x, y in self._pieces(a, b))

    def link(self, a: int, b: int) -> None:
        """Unite the steps a .. b (mod n, a <= b) through neighbour links."""
        n = self.n
        for x, y in self._pieces(a, b):
            t = self._unlinked(x)
            while t < y:
                self.union((t - 1) % n, t)
                self.skip[t] = t + 1
                t = self._unlinked(t + 1)


def difference_classes(n: int, runs: Sequence[Run]) -> List[int]:
    """Class index of every unit step, classes numbered by first step."""
    uf = _UnionFind(n)
    shifts: Dict[int, Sequence[Tuple[int, int]]] = {0: [(0, n)]}
    mirrors: List[Tuple[int, int, int, int]] = []
    for kind, c, lo, hi in runs:
        if lo >= hi:
            continue
        if kind == "d":
            mirrors.append((lo, c - 1 - lo, -1, hi - lo))
        else:
            shifts.setdefault(c % n, []).append((lo, hi))
    shifts = {s: _merge_intervals(ranges) for s, ranges in shifts.items()}

    for s, ranges in shifts.items():
        other = shifts.get((s + 1) % n)
        if other is None:
            continue
        i = j = 0
        while i < len(ranges) and j < len(other):
            a = max(ranges[i][0], other[j][0])
            b = min(ranges[i][1], other[j][1])
            if a < b:
                uf.link(a + s, b + s)
            if ranges[i][1] < other[j][1]:
                i += 1
            else:
                j += 1

    relations = [(a, a + s, 1, b - a) for s, ranges in shifts.items() if s for a, b in ranges]
    for src, dst, sign, length in relations + mirrors:
        last = length - 1
        dst_lo = min(dst, dst + sign * last)
        if uf.linked(dst_lo, dst_lo + last):
            uf.link(src, src + last)
        elif uf.linked(src, src + last):
            uf.link(dst_lo, dst_lo + last)
        else:
            for k in range(length):
                uf.union((src + k) % n, (dst + sign * k) % n)
            continue
        uf.union(src % n, dst % n)

    roots = sorted({uf.find(t) for t in range(n)})
    class_of_root = {r: idx for idx, r in enumerate(roots)}
    return [class_of_root[uf.find(t)] for t in range(n)]
