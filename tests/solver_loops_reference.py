"""``solver._difference_classes`` and ``solver.perturbation_space`` as they
were before they ran as bulk integer passes, kept as the oracle for them.

Stage (2) of the classes tests and links every relation one at a time, and
the numbering pass walks the parents step by step.  The solver copies the
prefix class counts at each index an equation needs, builds one tuple row
per anchor, and lifts each basis vector in one walk over the steps that
appends e(t) and γ(c) one at a time.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from operator import add, sub
from typing import Dict, Iterable, List, Sequence, Tuple

from groupcut.complex2d import _merge_intervals
from groupcut.rational import integer_nullspace, integer_rref
from groupcut.solver import Run


def _pieces(n: int, a: int, last: int) -> List[Tuple[int, int]]:
    """The links a+1 .. a+last (mod n) of the steps a .. a+last, as ranges
    [x, y) inside [0, n); link t joins step t - 1 (mod n) to step t."""
    if last >= n:
        return [(0, n)]
    if not last:
        return []
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


def difference_classes(n: int, runs: Sequence[Run]) -> List[int]:
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
    ext = parent + [r + n for r in parent]
    if stretches and not stretches[0][0]:
        y = stretches[0][1]
        ext[n : n + y] = [parent[n - 1]] * y
        union(n - 1, 0)

    # (2) and (3), in any order, since only the partition counts.  A
    # relation (src, dst, sign, length) relates the steps src + k and
    # dst + sign * k for k < length.
    relations = ((a, a + s, 1, b - a) for s, mine in shifts.items() if s for a, b in mine)
    linked: List[Tuple[int, int]] = []
    for src, dst, sign, length in chain(relations, mirrors):
        last = min(length, n) - 1
        a = src % n
        b = (dst if sign > 0 else dst - last) % n
        if ext[b] == ext[b + last]:
            linked += _pieces(n, a, last)
        elif ext[a] == ext[a + last]:
            linked += _pieces(n, b, last)
        else:
            for k in range(last + 1):
                union((a + k) % n, (dst + sign * k) % n)
            continue
        union(a, dst % n)
    for x, y in _merge_intervals(linked):
        lo = x - 1 if x else 0
        roots = {find(t) for t in set(parent[lo:y])}
        if not x:
            roots.add(find(n - 1))
        r = min(roots)
        for t in roots:
            parent[t] = r
        parent[lo:y] = [r] * (y - lo)

    # Every parent is at or left of its step, so the pass reads the class
    # of a step's parent before the step.
    cls = [0] * n
    count = 0
    for t, p in enumerate(parent):
        if p == t:
            cls[t] = count
            count += 1
        else:
            cls[t] = cls[p]
    return cls


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
    cls = difference_classes(n, runs)
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
