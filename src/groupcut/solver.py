"""Exact solver for the space of additive perturbations on a cyclic grid.

The linear system consists of e(0) = 0, e(f) = 0, periodicity, and the
additivity equations e(u) + e(v) = e(u+v) over a (possibly very large) set
of grid pairs.  Assembling one dense row per pair is hopeless at fine grid
resolutions, so the pairs are supplied as maximal unit-step *runs*.  Within
a run, consecutive equations differ by a relation g(a) = g(b) between the
forward differences g(t) = e(t+1) - e(t); those relations are absorbed by
union-find over difference classes, leaving one anchor equation per run.
The reduced system over the class variables is exactly equivalent to the
original one (anchor plus telescoped differences reconstruct every equation
of the run), and it is small enough for exact rational elimination.

Difference classes follow the interval lemma.  On a 2-D additive face the
perturbation is affine on the three projections, with one slope
(Basu-Hildebrand-Köppe, *Equivariant perturbation in Gomory and Johnson's
infinite group problem I*, arXiv:1206.2079; the covered components of the
SageMath package cutgeneratingfunctionology rest on the same lemma).  On the
grid, an ``h`` or ``v`` run of shift s relates g(i) ~ g(i + s) for i in
[lo, hi), and a ``d`` run relates g(i) ~ g(c - 1 - i).  The face arrives as
one run per grid row, with shifts s and s + 1 on neighbouring rows, so the
lemma is recovered from the runs instead of being emitted:

1. Where the i-ranges of shifts s and s + 1 overlap on [a, b), the chain
   g(i + s) ~ g(i) ~ g(i + s + 1) links every step of a + s .. b + s to its
   predecessor.  Links are made through skip pointers ("next step not yet
   linked to its predecessor"), so all links together cost O(n α(n)).
2. The i-ranges of each shift are merged first.  A run whose target steps
   are already linked into one range links its source steps and makes one
   union; so does a run whose source steps are.
3. Only a run where neither range is linked unites step by step.

*Partition identity.*  Let ~ be the equivalence generated by the runs'
unit relations.  Every link of (1) is two relations of ~, and the links and
the union of (2) follow from the run's relations and links made earlier, so
nothing is united that ~ does not unite.  Conversely, after (2) each source
step i is linked to lo, lo is united with its partner, and the partner is
linked to the partner of i, so every relation of the run holds; (3) makes
the relations themselves.  So the partition is that of ~.  Unions keep the
smaller root, so each class is rooted at its first step and classes are
numbered in order of first occurrence, which the partition alone fixes.

*Basis in class space.*  A solution is a vector γ over the classes, lifted
to e(t) = Σ_{s<t} γ(cls(s)); let t_c be the first step of class c and
δ(c) = e(t_c + 1).  Column 0 of the lifted basis matrix E is zero, and
column t + 1 is column t plus column t_c + 1 minus column t_c, c = cls(t),
t_c <= t; so each column is a combination of the columns S = {t_c + 1} at
or left of it, a lifted row is zero up to its first nonzero δ entry, and
the lift of the reduced echelon basis over δ is rref(E), that form of a
row space being unique.  So the system is solved once, over δ:

1. one ``integer_rref`` reduces the rows over γ;
2. L[c] = A[t_c + 1] counts the classes of the steps up to t_c, numbered c
   or lower with c once, so L is unit lower triangular, δ = L·γ, and back
   substitution maps a row a over γ to a·L⁻¹ over δ;
3. ``integer_nullspace`` of these rows with their columns reversed, read
   back reversed and in reverse order, has d at each vector's free column,
   zeros at the other free columns and its other entries to the right: it
   is d times rref over δ;
4. one walk over cls lifts each vector, with γ(c) = δ(c) - e(t_c) at t_c.

A class first met at step n - 1 has t_c + 1 = n, where periodicity makes δ
vanish.  All of it runs in the integer kernel of :mod:`groupcut.rational`;
only the basis entries, the lifted vectors over d, are Fractions.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add, sub
from typing import Dict, Iterable, List, Sequence, Tuple

from .complex2d import _merge_intervals
from .rational import integer_nullspace, integer_rref

# Run encodings: ("h", j, lo, hi) covers pairs (i, j) for lo <= i <= hi;
# ("v", i0, lo, hi) covers (i0, j) for lo <= j <= hi;
# ("d", k0, lo, hi) covers (i, k0 - i) for lo <= i <= hi.
Run = Tuple[str, int, int, int]


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


def _difference_classes(n: int, runs: Sequence[Run]) -> List[int]:
    """Class index of every unit step, classes numbered by first step."""
    uf = _UnionFind(n)
    # shifts[s]: ranges [lo, hi) of i with g(i) ~ g(i + s); touching ranges
    # merge, since their relations then form one range.  mirrors: the d
    # runs, as relations of (2) with g(i) ~ g(c - 1 - i).
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

    # (1) Neighbouring shifts over a common range link their targets.
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

    # (2) A linked source or target costs one union; (3) else unit steps.
    # A relation (src, dst, sign, length) relates the steps src + k and
    # dst + sign * k for k < length.
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


def perturbation_space(n: int, f_index: int, runs: Iterable[Run]) -> List[List[Fraction]]:
    """Basis of grid vectors e (length n) solving the additive system.

    All pair coordinates are grid indices in [0, n]; sums may reach 2n and
    are *not* reduced modulo n here — the periodicity row makes the wrapped
    and unwrapped forms of each equation equivalent.  The basis is returned
    in reduced row echelon form.
    """
    runs = list(runs)
    anchors: List[Tuple[int, int]] = []
    for kind, c, lo, hi in runs:
        if lo > hi:
            continue
        if kind == "h":
            anchors.append((lo, c))
        elif kind == "v":
            anchors.append((c, lo))
        elif kind == "d":
            anchors.append((lo, c - lo))
        else:
            raise ValueError(f"unknown run kind {kind!r}")
    cls = _difference_classes(n, runs)
    n_classes = max(cls) + 1
    # t_c + 1 for the first step t_c of each class c.
    firsts: List[int] = []
    for t, c in enumerate(cls):
        if c == len(firsts):
            firsts.append(t + 1)

    # Prefix class-count vectors A[k][c] = #{t < k : cls[t mod n] = c} are
    # only materialized at the indices the equations and δ mention.
    needed = {0, f_index % n, n, *firsts}
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
        return tuple(map(sub, map(add, a, b), c))

    rows = {row_for(u, v) for u, v in anchors}
    rows.add(tuple(prefix[f_index % n]))
    rows.add(tuple(prefix[n]))  # periodicity: e(n) = e(0) = 0
    reduced, pivots = integer_rref(sorted(rows), n_classes)

    # Over δ = L·γ, L[c] = A[t_c + 1] unit lower triangular, a row a is a·L⁻¹;
    # its columns are reversed for the null space (see the module docstring).
    lower = [prefix[t] for t in firsts]
    reversed_rows: List[List[int]] = []
    for a in reduced[: len(pivots)]:
        b = list(a)
        for c in range(n_classes - 1, 0, -1):
            x = b[c]
            if x:
                b[:c] = [y - x * z for y, z in zip(b[:c], lower[c])]
        reversed_rows.append(b[::-1])
    d, vectors = integer_nullspace(reversed_rows, n_classes)

    basis: List[List[Fraction]] = []
    for v in reversed(vectors):
        delta = v[::-1]
        # e(t_c + 1) = δ(c) fixes γ(c) at the first step of c.
        e: List[int] = []
        gamma: List[int] = []
        x = 0
        for c in cls:
            e.append(x)
            if c == len(gamma):
                gamma.append(delta[c] - x)
            x += gamma[c]
        assert x == 0
        # A basis vector takes few distinct values; build each Fraction once.
        value = {y: Fraction(y, d) for y in set(e)}
        basis.append(list(map(value.__getitem__, e)))
    return basis
