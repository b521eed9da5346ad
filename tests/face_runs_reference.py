"""The two readers of the additive faces as they were before each face
vertex was scaled once, kept as oracles: ``additive_face_runs`` scales the
Fraction triple of every face by n again, and ``covered_intervals`` compares
the Fraction projections p1, p2 and p3 of the 2-D faces and merges them.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Sequence, Tuple

from complex2d_reference import _merge_intervals, _reduce_mod_1, projections
from groupcut.complex2d import DeltaFace
from groupcut.solver import Run

Interval = Tuple[Fraction, Fraction]


def _scale(x: Fraction, q: int) -> int:
    return x.numerator * (q // x.denominator)


def additive_face_runs(faces: Sequence[DeltaFace], n: int) -> List[Run]:
    """Unit-step runs covering every grid pair inside the additive faces."""
    runs: List[Run] = []
    for face in faces:
        if face.dim == 0:
            (x, y), = face.vertices
            runs.append(("h", _scale(y, n), _scale(x, n), _scale(x, n)))
        elif face.dim == 1:
            (x0, y0), (x1, y1) = face.vertices
            if y0 == y1:
                runs.append(("h", _scale(y0, n), _scale(x0, n), _scale(x1, n)))
            elif x0 == x1:
                runs.append(("v", _scale(x0, n), _scale(min(y0, y1), n), _scale(max(y0, y1), n)))
            else:
                runs.append(("d", _scale(x0 + y0, n), *sorted((_scale(x0, n), _scale(x1, n)))))
        else:
            x_lo, x_hi = (_scale(v, n) for v in face.interval_x)
            y_lo, y_hi = (_scale(v, n) for v in face.interval_y)
            z_lo, z_hi = (_scale(v, n) for v in face.interval_z)
            for j in range(y_lo, y_hi + 1):
                lo = max(x_lo, z_lo - j)
                hi = min(x_hi, z_hi - j)
                if lo <= hi:
                    runs.append(("h", j, lo, hi))
    return sorted(set(runs))


def covered_intervals(faces: Sequence[DeltaFace]) -> Tuple[Interval, ...]:
    """The merged projections of the 2-D faces, sums reduced mod 1."""
    covered: List[Interval] = []
    for face in faces:
        if face.dim != 2:
            continue
        p1, p2, p3 = projections(face)
        covered += [p1, p2, *_reduce_mod_1(*p3)]
    return _merge_intervals(covered)
