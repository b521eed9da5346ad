"""The tight-pair run generator of the finite path as it was before it read
the packed lanes of the subadditivity kernel, kept as an oracle for
``finite._additive_runs``: one Python comparison per pair (i, j).
"""

from __future__ import annotations

from typing import List, Tuple


def additive_runs(iv: List[int], q: int) -> List[Tuple[str, int, int, int]]:
    """Maximal horizontal runs of additive pairs (i, j), i scanned per j."""
    runs = []
    for j in range(q):
        vj = iv[j]
        start = None
        for i in range(q):
            tight = iv[i] + vj == iv[(i + j) % q]
            if tight and start is None:
                start = i
            elif not tight and start is not None:
                runs.append(("h", j, start, i - 1))
                start = None
        if start is not None:
            runs.append(("h", j, start, q - 1))
    return runs
