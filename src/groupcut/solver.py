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

The steps are united in whole ranges, in three passes:

1. Every shift's i-ranges are merged in one sort; touching ranges merge,
   since their relations then form one range.  Where the i-ranges of
   shifts s and s + 1 overlap on [a, b), the chain
   g(i + s) ~ g(i) ~ g(i + s + 1) links every step of a + s .. b + s to its
   predecessor.  These links are merged in one more sort into stretches,
   and each stretch becomes one class, rooted at its first step, by one
   slice assignment of the parent array.  Link 0 joins step n - 1 to step 0.
2. A relation is a merged i-range of a shift, or a ``d`` run.  Whether a
   side lies in one class of (1) is an O(1) test: over the steps
   0 .. 2n - 1, with the stretches laid out twice and the last joined to
   the copy of the first through link 0, each class of (1) is one range
   with a label of its own, and a side lies in it when its two ends carry
   the same label.  Below n the label of a step is its root after (1), a
   step of its class.  A relation both of whose sides lie in one class of
   (1) only unites those two classes: its pair of labels goes into a set,
   and each distinct pair is united once.  If only one side lies in one
   class of (1), the relation needs that the other side be linked into
   one class and one union of its first steps.  Those other sides are
   merged in one sort, and each merged range is united at once: a slice of
   the parent array gives the roots its steps reach, all of them point at
   the smallest, and one slice assignment flattens the range.
3. Only a relation neither of whose sides lies in one class of (1) unites
   step by step.  Steps past the n-th of a relation repeat the first n.

*Partition identity.*  Let ~ be the equivalence generated by the runs'
unit relations.  Every link of (1) is two relations of ~.  In (2) a side
that lies in one class of (1) lies in one class of ~ by the links of (1)
alone.  So a relation with a pair of labels makes its two classes ~,
since it relates its first steps and each label is a step of its side's
class; and a relation with one such side makes the steps of its other
side ~ each other and its first steps ~.  Every link and union of (2)
follows from ~ and (1), in whatever order they are made, so nothing is
united that ~ does not unite.  Conversely, after (2) each step src + k is
in the class of src, src in that of its partner, and the partner in that
of the partner of src + k, so every relation holds: for a pair of labels,
because both sides are in one class each and those two are united.  (3)
makes the relations themselves.  So the partition is that of ~.  Unions
keep the smaller root, so every parent is at or left of its step and
each class is rooted at its first step.  Pointer jumping, parent[t] ←
parent[parent[t]] over the whole array until nothing changes, gives every
step its root, and the roots in order of first occurrence number the
classes, an order the partition alone fixes.

*Rows on packed lanes.*  A[k][c] = #{t < k : cls(t mod n) = c} counts the
classes of the steps before k, 0 <= k <= 2n.  P[k] = Σ_c A[k][c]·2^(wc)
packs them into one integer, with lanes of w bits, 2^w > 2n, and one
``accumulate`` over cls laid out twice gives every P[k]; only the indices
the rows read are kept.  The anchor (u, v) of a run gives the row
A[u] + A[v] - A[u+v], whose entry at c is A[u][c] minus the count of c
among the steps v .. u + v - 1, so it lies in [-u, u], and likewise in
[-v, v]; as u + v <= 2n, in [-n, n].  So with bias = n·Σ_c 2^(wc), each
entry plus n lies in [0, 2n] ⊂ [0, 2^w), and these are the base-2^w
digits of the one integer P[u] + P[v] - P[u+v] + bias: no lane carries
into or borrows from the next.  Equal rows are then equal integers, the
distinct integers are read back lane by lane, and a grid whose anchors
give few rows unpacks few.  The rows e(f) = 0 and e(n) = 0 are A[f] and
A[n], and the rows of L below are A[t_c + 1], all with entries in
[0, n], read back the same way.

*Basis in class space.*  A solution is a vector γ over the classes, lifted
to e(t) = Σ_{s<t} γ(cls(s)); let t_c be the first step of class c and
δ(c) = e(t_c + 1).  Column 0 of the lifted basis matrix E is zero, and
column t + 1 is column t plus column t_c + 1 minus column t_c, c = cls(t),
t_c <= t; so each column is a combination of the columns S = {t_c + 1} at
or left of it, a lifted row is zero up to its first nonzero δ entry, and
the lift of the reduced echelon basis over δ is rref(E), that form of a
row space being unique.  So the system is solved once, over δ:

1. L[c] = A[t_c + 1] counts the classes of the steps up to t_c, numbered c
   or lower with c once, so L is unit lower triangular, δ = L·γ, and back
   substitution maps each raw row a over γ to a·L⁻¹ over δ;
2. one ``integer_nullspace`` of these rows, sparse and with their columns
   reversed, read back reversed and in reverse order, has d at each
   vector's free column, zeros at the other free columns and its other
   entries to the right: it is d times rref over δ;
3. each vector is lifted in O(n), on its first read, so that a caller
   that reads only the first pays for one: γ(c) = δ(c) - e(t_c), where
   e(t_c) is e(t_{c-1}) plus the γ of the steps t_{c-1} .. t_c - 1, whose
   classes are below c, summed in one pass over those steps; one
   ``accumulate`` over cls then gives e.

A class first met at step n - 1 has t_c + 1 = n, where periodicity makes δ
vanish.  All of it runs in the integer kernel of :mod:`groupcut.rational`;
only the basis entries, the lifted vectors over d, are Fractions.
"""

from __future__ import annotations

from collections.abc import Sequence as _Sequence
from fractions import Fraction
from itertools import accumulate, chain, compress
from operator import add, sub
from sys import byteorder
from typing import Callable, Dict, Iterable, List, Sequence, Set, Tuple

from .complex2d import _merge_intervals
from .rational import integer_nullspace

# Run encodings: ("h", j, lo, hi) covers pairs (i, j) for lo <= i <= hi;
# ("v", i0, lo, hi) covers (i0, j) for lo <= j <= hi;
# ("d", k0, lo, hi) covers (i, k0 - i) for lo <= i <= hi.
Run = Tuple[str, int, int, int]


def _pieces(n: int, a: int, last: int) -> List[Tuple[int, int]]:
    """The links a+1 .. a+last (mod n) of the steps a .. a+last, as ranges
    [x, y) inside [0, n); link t joins step t - 1 (mod n) to step t.  last
    is never 0: ``_stretches`` passes b - a with a < b, and
    ``_difference_classes`` passes it only where exactly one side of a
    relation lies in one class of (1), while with last = 0 both do."""
    if last >= n:
        return [(0, n)]
    x = (a + 1) % n
    y = x + last
    return [(x, y)] if y <= n else [(x, n), (0, y - n)]


def _shifts(
    n: int, runs: Sequence[Run]
) -> Tuple[Dict[int, List[List[int]]], List[Tuple[int, int, int, int]]]:
    """(shifts, mirrors).  shifts[s] holds the i-ranges [lo, hi) with
    g(i) ~ g(i + s), every shift's in one sort, and shift 0 over the circle,
    which makes shifts 1 and n - 1 neighbour links in (1).  mirrors holds
    the d runs as relations (lo, c - 1 - lo, -1, hi - lo)."""
    ranges = [(0, 0, n)]
    mirrors: List[Tuple[int, int, int, int]] = []
    for kind, c, lo, hi in runs:
        if lo >= hi:
            continue
        if kind == "d":
            mirrors.append((lo, c - 1 - lo, -1, hi - lo))
        else:
            ranges.append((c % n, lo, hi))
    ranges.sort()
    shifts: Dict[int, List[List[int]]] = {}
    for s, lo, hi in ranges:
        mine = shifts.get(s)
        if mine is None:
            shifts[s] = [[lo, hi]]
        elif lo <= mine[-1][1]:
            if hi > mine[-1][1]:
                mine[-1][1] = hi
        else:
            mine.append([lo, hi])
    return shifts, mirrors


def _stretches(n: int, shifts: Dict[int, List[List[int]]]) -> List[List[int]]:
    """(1): the links of the targets of neighbouring shifts over a common
    range, merged into stretches [x, y)."""
    links: List[Tuple[int, int]] = []
    for s, mine in shifts.items():
        other = shifts.get((s + 1) % n)
        if other is None:
            continue
        i = j = 0
        ni, nj = len(mine), len(other)
        while i < ni and j < nj:
            (a, b), (c, d) = mine[i], other[j]
            if b < d:
                i += 1
            else:
                j += 1
            if c > a:
                a = c
            if d < b:
                b = d
            if a < b:
                links += _pieces(n, a + s, b - a)
    return _merge_intervals(links)


def _difference_classes(n: int, runs: Sequence[Run]) -> List[int]:
    """Class index of every unit step, classes numbered by first step."""
    shifts, mirrors = _shifts(n, runs)
    parent = list(range(n))

    def find(a: int) -> int:
        root = a
        while parent[root] != root:
            root = parent[root]
        while parent[a] != root:
            parent[a], a = root, parent[a]
        return root

    def union(a: int, b: int) -> None:
        ra, rb = find(a), find(b)
        if ra < rb:
            parent[rb] = ra
        elif rb < ra:
            parent[ra] = rb

    # (1) Each stretch [x, y) of links makes the steps x - 1 .. y - 1 one
    # class.  ext labels the steps 0 .. 2n - 1: the steps a .. a + last
    # (0 <= a < n, last < n) lie in one class of (1) when
    # ext[a] == ext[a + last].  Link 0 joins step n - 1 to step 0.
    stretches = _stretches(n, shifts)
    for x, y in stretches:
        lo = x - 1 if x else 0
        parent[lo:y] = [lo] * (y - lo)
    ext = parent + list(map(n.__add__, parent))
    if stretches and not stretches[0][0]:
        y = stretches[0][1]
        ext[n : n + y] = [parent[n - 1]] * y
        union(n - 1, 0)

    # (2) and (3), in any order, since only the partition counts.  A
    # relation (src, dst, sign, length) relates the steps src + k and
    # dst + sign * k for k < length.  One whose sides both lie in one class
    # of (1) only unites those classes, once per pair of labels.
    relations = ((a, a + s, 1, b - a) for s, mine in shifts.items() if s for a, b in mine)
    linked: List[Tuple[int, int]] = []
    labels: Set[Tuple[int, int]] = set()
    for src, dst, sign, length in chain(relations, mirrors):
        last = min(length, n) - 1
        a = src % n
        b = (dst if sign > 0 else dst - last) % n
        if ext[b] == ext[b + last]:
            if ext[a] == ext[a + last]:
                labels.add((ext[a], ext[b]))
                continue
            linked += _pieces(n, a, last)
        elif ext[a] == ext[a + last]:
            linked += _pieces(n, b, last)
        else:
            for k in range(last + 1):
                union((a + k) % n, (dst + sign * k) % n)
            continue
        union(a, dst % n)
    for a, b in labels:
        union(a, b)
    for x, y in _merge_intervals(linked):
        lo = x - 1 if x else 0
        roots = {find(t) for t in set(parent[lo:y])}
        if not x:
            roots.add(find(n - 1))
        r = min(roots)
        for t in roots:
            parent[t] = r
        parent[lo:y] = [r] * (y - lo)

    # Every parent is at or left of its step: pointer jumping leaves each
    # step's root, its class's first step, and the roots in order of first
    # occurrence number the classes.
    up = list(map(parent.__getitem__, parent))
    while up != parent:
        parent, up = up, list(map(up.__getitem__, up))
    number = {r: c for c, r in enumerate(dict.fromkeys(parent))}
    return list(map(number.__getitem__, parent))


class LiftedBasis(_Sequence):
    """The basis over δ, each vector lifted to its n grid values on first
    read and kept: a caller that reads one vector pays one O(n) lift, not
    one per vector.  It compares equal to the list of its lifted vectors."""

    __slots__ = ("_lift", "_vectors", "_lifted")

    def __init__(self, lift: Callable[[List[int]], List[Fraction]], vectors: List[List[int]]) -> None:
        self._lift, self._vectors, self._lifted = lift, vectors, {}

    def __len__(self) -> int:
        return len(self._vectors)

    def __getitem__(self, i: int) -> List[Fraction]:
        i = range(len(self._vectors))[i]
        lifted = self._lifted.get(i)
        if lifted is None:
            lifted = self._lifted[i] = self._lift(self._vectors[i])
        return lifted

    def __eq__(self, other) -> bool:
        return list(self) == other


def perturbation_space(n: int, f_index: int, runs: Iterable[Run]) -> LiftedBasis:
    """Basis of grid vectors e (length n) solving the additive system.

    All pair coordinates are grid indices in [0, n]; sums may reach 2n and
    are *not* reduced modulo n here — the periodicity row makes the wrapped
    and unwrapped forms of each equation equivalent.  The basis is returned
    in reduced row echelon form, each vector lifted when it is first read.
    """
    runs = list(runs)
    # The anchor (u, v) of every run, as the lists us and vs.
    us: List[int] = []
    vs: List[int] = []
    for kind, c, lo, hi in runs:
        if lo > hi:
            continue
        # A[u] + A[v] - A[u + v] is symmetric: a v run's anchor (c, lo) is (lo, c).
        if kind == "h" or kind == "v":
            vs.append(c)
        elif kind == "d":
            vs.append(c - lo)
        else:
            raise ValueError(f"unknown run kind {kind!r}")
        us.append(lo)
    cls = _difference_classes(n, runs)
    # t_c, the first step of each class c: the last value a dict keeps.
    first = dict(zip(reversed(cls), range(n - 1, -1, -1)))
    n_classes = len(first)
    starts = list(map(first.__getitem__, range(n_classes)))

    # The rows on packed lanes (see the module docstring): P[k] holds A[k][c]
    # in lane c, kept at the indices the rows read.
    ws = list(map(add, us, vs))
    f = f_index % n
    lower_at = [t + 1 for t in starts]
    mask = bytearray(2 * n + 1)
    for k in chain((f, n), lower_at, us, vs, ws):
        mask[k] = 1
    nbytes = next(k for k in (1, 2, 4, 8) if 2 * n < 1 << 8 * k)
    w = 8 * nbytes
    lane = [1 << w * c for c in range(n_classes)]
    steps = accumulate(map(lane.__getitem__, chain(cls, cls)), initial=0)
    prefix = dict(zip(compress(range(2 * n + 1), mask), compress(steps, mask)))
    at = prefix.__getitem__
    bias = n * ((1 << w * n_classes) - 1) // ((1 << w) - 1)
    fmt = {1: "B", 2: "H", 4: "I", 8: "Q"}[nbytes]

    def unpack(packed: int) -> Tuple[int, ...]:
        lanes = memoryview((packed + bias).to_bytes(nbytes * n_classes, byteorder)).cast(fmt)
        return tuple(map(n.__rsub__, lanes))

    rows = set(map(sub, map(add, map(at, us), map(at, vs)), map(at, ws)))
    rows.add(prefix[f])
    rows.add(prefix[n])  # periodicity: e(n) = e(0) = 0

    # Over δ = L·γ, L[c] = A[t_c + 1] unit lower triangular, a row a is a·L⁻¹;
    # its columns are reversed for the null space (see the module docstring).
    lower = [unpack(prefix[t]) for t in lower_at]
    reversed_rows: List[Dict[int, int]] = []
    for a in sorted(map(unpack, rows)):
        b = list(a)
        for c in range(n_classes - 1, 0, -1):
            x = b[c]
            if x:
                b[:c] = [y - x * z for y, z in zip(b[:c], lower[c])]
        reversed_rows.append({c: x for c, x in enumerate(b[::-1]) if x})
    d, vectors = integer_nullspace(reversed_rows, n_classes)

    # e(t_c) sums γ over the steps before t_c, whose classes are below c.
    between = [cls[a:b] for a, b in zip(starts, starts[1:])]

    def lift(v: List[int]) -> List[Fraction]:
        delta = v[::-1]
        gamma = [delta[0]]
        get, push = gamma.__getitem__, gamma.append
        x = 0
        for dc, seg in zip(delta[1:], between):
            x += sum(map(get, seg))
            push(dc - x)
        e = [0, *accumulate(map(get, cls))]
        assert e.pop() == 0
        # A basis vector takes few distinct values; build each Fraction once.
        value = {y: Fraction(y, d) for y in set(e)}
        return list(map(value.__getitem__, e))

    return LiftedBasis(lift, vectors[::-1])
