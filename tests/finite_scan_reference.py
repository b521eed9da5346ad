"""The finite scans as they were before they read each symmetric triple
once: ``first_subadditivity_violation`` and ``min_slack_ratio`` over all
pairs i <= j of the packed rows, for any integer vector.  They are the
oracles of the symmetric scans of ``groupcut.finite``, which must return the
same pair, ratio or refusal on every vector symmetric about f.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence, Tuple

from groupcut.rational import least_ratio


def _slack_rows(iv: Sequence[int]) -> Tuple[int, Callable[[int, int], Tuple[int, int]]]:
    """Rows of Δ(i, j) = iv[i] + iv[j] - iv[(i + j) mod n] on packed integer
    lanes, for a non-empty iv: (nbytes, row), where row(i, j0) returns
    (lanes, high), lane j - j0 of lanes holding half + Δ(i, j) for
    j = j0, ..., n - 1 and each lane of high holding half; lanes are
    w = 8·nbytes bits wide and half = 2**(w - 1).

    The values, shifted by their minimum to a[j] >= 0, are packed into lanes,
    and lanes = a[j] + (half + iv[i]) - a[(i + j) mod n] lane by lane.  As
    |Δ| <= max(a) + max|iv| < half, each lane stays inside (0, 2**w), so no
    lane carries into or borrows from the next: the top bit of a lane is
    clear exactly where Δ < 0, and the lane is half exactly where Δ = 0.
    """
    n = len(iv)
    lo = min(iv)
    a = [v - lo for v in iv]
    nbytes = (max(a) + max(map(abs, iv))).bit_length() // 8 + 1
    w = 8 * nbytes
    half = 1 << (w - 1)

    def pack(values) -> int:
        return int.from_bytes(b"".join(v.to_bytes(nbytes, "little") for v in values), "little")

    packed, doubled, ones = pack(a), pack(a + a), pack([1] * n)

    def row(i: int, j0: int) -> Tuple[int, int]:
        ones_j = ones >> (w * j0)  # a 1 in each lane j = j0, ..., n - 1
        rotated = (doubled >> (w * ((i + j0) % n))) & ((1 << (w * (n - j0))) - 1)
        return (packed >> (w * j0)) + (half + iv[i]) * ones_j - rotated, ones_j << (w - 1)

    return nbytes, row


def _flagged_row(vectors: Sequence[Sequence[int]], start: int) -> Optional[int]:
    """The first row i >= start where the Δ of one of the vectors, all of
    one length n, is negative at a pair (i, j), i <= j; None if there is
    none.  Row i of ``_slack_rows`` from j0 = i has a clear top bit exactly
    in those lanes.  Nothing is packed when start >= n.
    """
    n = len(vectors[0])
    rows = [_slack_rows(v)[1] for v in vectors] if start < n else []
    for i in range(start, n):
        for row in rows:
            lanes, high = row(i, i)
            if lanes & high != high:
                return i
    return None


def first_subadditivity_violation(iv: Sequence[int]) -> Optional[Tuple[int, int]]:
    """The first pair (i, j), i <= j, in ascending order of i and then j,
    with iv[i] + iv[j] < iv[(i + j) mod n]; None if there is none.  Only
    the first ``_flagged_row`` is scanned pair by pair.
    """
    i = _flagged_row([iv], 0)
    if i is None:
        return None
    n, vi = len(iv), iv[i]
    return i, next(j for j in range(i, n) if vi + iv[j] < iv[(i + j) % n])


def min_slack_ratio(iv: Sequence[int], ib: Sequence[int]) -> Optional[Tuple[int, int]]:
    """The first pair (slack, |Δb|), in the order of the subadditivity scan,
    with the least slack / |Δb| over i <= j where Δb, the Δ of ib at (i, j),
    is nonzero and slack is the Δ of iv there; None if there is none.
    Raises ValueError where Δb ≠ 0 and slack <= 0 (``least_ratio``).

    With s/d the least ratio so far (1/0 before any), a pair lowers it or
    is refused exactly where d·slack ∓ s·Δb < 0 for one sign, that is where
    the Δ of d·iv ∓ s·ib is negative.  So only the rows that
    ``_flagged_row`` finds go through ``least_ratio``, each whole and in
    order; a row left out holds no pair below s/d, so a tie keeps the
    first least pair.
    """
    n = len(iv)
    s, d, i = 1, 0, -1
    while (i := _flagged_row([[d * v + t * b for v, b in zip(iv, ib)] for t in (-s, s)], i + 1)) is not None:
        vi, bi = iv[i], ib[i]
        pairs = ((vi + iv[j] - iv[(i + j) % n], bi + ib[j] - ib[(i + j) % n]) for j in range(i, n))
        s, d = least_ratio(pairs, s, d)
    return (s, d) if d else None

