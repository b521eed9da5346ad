"""The solver's tail as it was before it solved once over δ, kept as an
oracle for ``solver.perturbation_space``.

After the difference classes, it runs three eliminations: an incremental
forward pass over the deduplicated rows with an early exit at full rank,
``integer_nullspace`` of the pivot rows, and an ``integer_rref`` of
[E_S | Γ] (the lifted basis at the columns t_c + 1 beside the γ rows) that
reduces the answer again in class space before it is lifted.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate
from operator import add, sub
from typing import Iterable, List, Sequence, Tuple

from dense_kernel_reference import eliminate, integer_nullspace, integer_rref
from groupcut.solver import Run, _difference_classes


def _lift(gamma: Sequence[int], cls: Sequence[int]) -> List[int]:
    """e(t) = sum of gamma over the classes of the steps before t, t <= n."""
    return [0, *accumulate(map(gamma.__getitem__, cls))]


def perturbation_space(
    n: int,
    f_index: int,
    runs: Iterable[Run],
    pairs: Iterable[Tuple[int, int]] = (),
) -> List[List[Fraction]]:
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
    anchors.extend(pairs)
    cls = _difference_classes(n, runs)
    n_classes = max(cls) + 1

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
        return tuple(map(sub, map(add, a, b), c))

    rows = {row_for(u, v) for u, v in anchors}
    rows.add(tuple(prefix[f_index % n]))
    rows.add(tuple(prefix[n]))
    rows.discard(tuple([0] * n_classes))

    pivot_rows: List[List[int]] = []
    pivot_cols: List[int] = []
    for row in sorted(rows):
        r = list(row)
        for col, prow in zip(pivot_cols, pivot_rows):
            if r[col]:
                r = eliminate(r, prow, col)
        lead = next((c for c, x in enumerate(r) if x), None)
        if lead is None:
            continue
        pivot_rows.append(r)
        pivot_cols.append(lead)
        if len(pivot_cols) == n_classes:
            return []

    _, gammas = integer_nullspace(pivot_rows, n_classes)
    if not gammas:
        return []
    firsts: List[int] = []
    for t, c in enumerate(cls[:-1]):
        if c == len(firsts):
            firsts.append(t + 1)
    lifts = [_lift(g, cls) for g in gammas]
    reduced, pivots = integer_rref(
        [[e[t] for t in firsts] + g for e, g in zip(lifts, gammas)], len(firsts) + n_classes
    )
    assert len(pivots) == len(gammas) and pivots[-1] < len(firsts)
    basis: List[List[Fraction]] = []
    for row, pc in zip(reduced, pivots):
        e = _lift(row[len(firsts):], cls)
        assert e[n] == 0
        value = {x: Fraction(x, row[pc]) for x in set(e)}
        basis.append(list(map(value.__getitem__, e[:n])))
    return basis
