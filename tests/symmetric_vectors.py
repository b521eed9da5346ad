"""Derandomized integer vectors symmetric about f, for the finite scans.

The scans of ``groupcut.finite`` read only the pairs i <= j <= k of the
triples i + j + k ≡ f, which holds the full scan's answer only for a vector
v with v(x) + v(f - x) constant.  ``symmetric_vectors`` draws such vectors
for every n = 2..40 and every f in [0, n): small values shifted into lanes
up to 80 bits wide, and tents at the edge of their lanes, made symmetric and
dented.  ``symmetric_pairs`` draws (iv, ib) for the finite ε.  The tests
check that the draws reach the cases the triple argument has to cover.
"""

from __future__ import annotations

import random
from typing import Iterator, List, Sequence, Tuple


def symmetric(values: Sequence[int], f: int, c: int) -> List[int]:
    """values made symmetric about f with constant c (even): of each pair
    {x, (f - x) mod n}, the lower index keeps its value and the other gets c
    minus it; a fixed point, 2x ≡ f, gets c / 2."""
    n = len(values)
    out = list(values)
    for x in range(n):
        y = (f - x) % n
        if x == y:
            out[x] = c // 2
        elif x < y:
            out[y] = c - out[x]
    return out


def is_symmetric(v: Sequence[int], f: int) -> bool:
    n = len(v)
    return len({v[x] + v[(f - x) % n] for x in range(n)}) == 1


def symmetric_vectors(seed: int = 26) -> Iterator[Tuple[List[int], int]]:
    """(iv, f) for every n = 2..40 and f = 0..n-1, four vectors each:

    - small values in [-3, 6], shifted left by 0 to 80 bits;
    - a tent whose top is 2**bits - 2, bits up to 70, made symmetric, so its
      lanes are as full as their width allows;
    - that tent with one entry pushed up to the top of its lane, or with
      -top at 0, and made symmetric again, which breaks subadditivity far
      from row 0 or in it.
    """
    rng = random.Random(seed)
    for n in range(2, 41):
        for f in range(n):
            bits = rng.randint(0, 80)
            small = [rng.randint(-3, 6) << bits for _ in range(n)]
            yield symmetric(small, f, 2 * rng.randint(-3, 6) << bits), f
            top = (1 << rng.randint(1, 70)) - 2
            tent = [top * min(i, n - i) // max(1, n // 2) for i in range(n)]
            yield symmetric(tent, f, top), f
            for at, value in ((rng.randrange(n), top), (0, -top)):
                dent = list(tent)
                dent[at] = value
                yield symmetric(dent, f, top), f


def symmetric_pairs(count: int = 400, seed: int = 26) -> Iterator[Tuple[List[int], List[int], int]]:
    """(iv, ib, f), n = 2..40, both symmetric about f.  In two draws of
    three, iv is 0 at 0, 2h at f and h plus noise up to e elsewhere, with
    e < h/3 (subadditive, tight only on the triples through 0) or larger,
    and ib vanishes at 0 and f, as the finite ε's perturbation does; in
    the third, both are any small values.  ib is small, so ratios often
    tie."""
    rng = random.Random(seed)
    for t in range(count):
        n = rng.randint(2, 40)
        f = rng.randrange(n)
        ib = [rng.randint(-2, 2) for _ in range(n)]
        if t % 3:
            h = rng.randint(3, 30)
            e = rng.choice([0, 1, h // 3 - 1, h // 3, h])
            iv = symmetric([0] + [h + rng.randint(-e, e) for _ in range(1, n)], f, 2 * h)
            ib[0] = 0
            yield iv, symmetric(ib, f, 0), f
        else:
            iv = symmetric([rng.randint(-3, 6) for _ in range(n)], f, 2 * rng.randint(-3, 6))
            yield iv, symmetric(ib, f, 2 * rng.randint(-1, 1)), f
