"""The per-unit union-find solver, kept as the oracle for ``groupcut.solver``.

This is the solver as it was before difference classes followed the
interval lemma: one union per unit step of every run, and a final ``rref``
over the length-n grid basis.  ``perturbation_space`` is unchanged;
``difference_classes`` is its union loop on its own, so that tests can
compare partitions and not only bases.  ``additive_face_runs`` is the
expansion of additive faces into grid rows as it was, with Fraction
``ceil`` and ``floor``.
"""

from __future__ import annotations

from fractions import Fraction
from math import ceil, floor
from typing import Iterable, List, Sequence, Tuple

from groupcut.rational import RatMatrix, nullspace, rref

# Run encodings: ("h", j, lo, hi) covers pairs (i, j) for lo <= i <= hi;
# ("v", i0, lo, hi) covers (i0, j) for lo <= j <= hi;
# ("d", k0, lo, hi) covers (i, k0 - i) for lo <= i <= hi.
Run = Tuple[str, int, int, int]


class _UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))

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


def perturbation_space(
    n: int,
    f_index: int,
    runs: Iterable[Run],
    pairs: Iterable[Tuple[int, int]] = (),
) -> List[List[Fraction]]:
    """Basis of grid vectors e (length n) solving the additive system.

    All pair coordinates are grid indices in [0, n]; sums may reach 2n and
    are *not* reduced modulo n here — the periodicity row makes the wrapped
    and unwrapped forms of each equation equivalent.
    """
    uf = _UnionFind(n)
    anchors: List[Tuple[int, int]] = []

    for kind, c, lo, hi in runs:
        if lo > hi:
            continue
        if kind == "h":
            anchors.append((lo, c))
            for i in range(lo, hi):
                uf.union(i % n, (i + c) % n)
        elif kind == "v":
            anchors.append((c, lo))
            for j in range(lo, hi):
                uf.union(j % n, (c + j) % n)
        elif kind == "d":
            anchors.append((lo, c - lo))
            for i in range(lo, hi):
                uf.union(i % n, (c - 1 - i) % n)
        else:
            raise ValueError(f"unknown run kind {kind!r}")
    anchors.extend(pairs)

    roots = sorted({uf.find(t) for t in range(n)})
    class_of_root = {r: idx for idx, r in enumerate(roots)}
    cls = [class_of_root[uf.find(t)] for t in range(n)]
    n_classes = len(roots)

    # Prefix class-count vectors A[k][c] = #{t < k : cls[t mod n] = c} are
    # only materialized at the indices the equations actually mention.
    needed = {0, f_index % n, n}
    for u, v in anchors:
        needed.update((u, v, u + v))
    counts = [0] * n_classes
    prefix = {}
    order = sorted(needed)
    pos = 0
    for t in range(2 * n + 1):
        while pos < len(order) and order[pos] == t:
            prefix[t] = counts[:]
            pos += 1
        if pos == len(order):
            break
        if t < 2 * n:
            counts[cls[t % n]] += 1

    def row_for(u: int, v: int) -> Tuple[int, ...]:
        a, b, c = prefix[u], prefix[v], prefix[u + v]
        return tuple(a[i] + b[i] - c[i] for i in range(n_classes))

    rows = {row_for(u, v) for u, v in anchors}
    rows.add(tuple(prefix[f_index % n]))
    rows.add(tuple(prefix[n]))  # periodicity: e(n) = e(0) = 0
    rows.discard(tuple([0] * n_classes))

    # Incremental forward elimination with early exit once full rank is hit.
    pivot_rows: List[List[Fraction]] = []
    pivot_cols: List[int] = []
    for row in sorted(rows):
        r = [Fraction(x) for x in row]
        for col, prow in zip(pivot_cols, pivot_rows):
            if r[col] != 0:
                factor = r[col]
                r = [a - factor * b for a, b in zip(r, prow)]
        lead = next((c for c, x in enumerate(r) if x != 0), None)
        if lead is None:
            continue
        inv = r[lead]
        pivot_rows.append([x / inv for x in r])
        pivot_cols.append(lead)
        if len(pivot_cols) == n_classes:
            return []

    gamma_basis = nullspace(RatMatrix(pivot_rows, n_cols=n_classes))
    basis: List[List[Fraction]] = []
    for gamma in gamma_basis:
        e = [Fraction(0)] * (n + 1)
        for t in range(n):
            e[t + 1] = e[t] + gamma[cls[t]]
        assert e[n] == 0
        basis.append(e[:n])
    if not basis:
        return []
    reduced, _ = rref(RatMatrix(basis))
    return [row for row in reduced if any(x != 0 for x in row)]


def difference_classes(n: int, runs: Iterable[Run]) -> List[int]:
    """Class index of every unit step, as ``perturbation_space`` numbers them."""
    uf = _UnionFind(n)
    for kind, c, lo, hi in runs:
        if lo > hi:
            continue
        for i in range(lo, hi):
            if kind == "d":
                uf.union(i % n, (c - 1 - i) % n)
            else:
                uf.union(i % n, (i + c) % n)
    roots = sorted({uf.find(t) for t in range(n)})
    class_of_root = {r: idx for idx, r in enumerate(roots)}
    return [class_of_root[uf.find(t)] for t in range(n)]


def additive_face_runs(faces, n: int) -> List[Run]:
    """``complex2d._additive_face_runs`` with Fraction ``ceil``/``floor``."""
    runs: List[Run] = []
    for face in faces:
        if face.dim == 0:
            (x, y), = face.vertices
            runs.append(("h", int(y * n), int(x * n), int(x * n)))
        elif face.dim == 1:
            (x0, y0), (x1, y1) = face.vertices
            if y0 == y1:
                runs.append(("h", int(y0 * n), int(x0 * n), int(x1 * n)))
            elif x0 == x1:
                runs.append(("v", int(x0 * n), int(min(y0, y1) * n), int(max(y0, y1) * n)))
            else:
                runs.append(("d", int((x0 + y0) * n), int(min(x0, x1) * n), int(max(x0, x1) * n)))
        else:
            (ix0, ix1) = face.interval_x
            (iy0, iy1) = face.interval_y
            (iz0, iz1) = face.interval_z
            for j in range(ceil(iy0 * n), floor(iy1 * n) + 1):
                lo = max(ix0 * n, iz0 * n - j)
                hi = min(ix1 * n, iz1 * n - j)
                lo_i, hi_i = ceil(lo), floor(hi)
                if lo_i <= hi_i:
                    runs.append(("h", j, lo_i, hi_i))
    return sorted(set(runs))
