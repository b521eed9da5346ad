"""Reference vertex test: a frozen copy of ``minimality_test`` as it was
when it read Δπ at the vertices as Fractions.  Here the vertices come from
the Fraction reference complex and Δπ from three evaluations of fn per
vertex, so nothing is shared with the integer vertex kernel.  The library's
test now scans integer slacks from ``scaled_slacks``; the tests
compare the two verdict for verdict, witnesses included.
"""

from __future__ import annotations

from fractions import Fraction

from complex2d_reference import delta_pi_limit, delta_vertices
from groupcut.complex2d import delta_pi, enumerate_faces
from groupcut.minimality import (
    NEGATIVITY,
    ORIGIN_VALUE,
    SUBADDITIVITY,
    SYMMETRY,
    MinimalityVerdict,
    MinimalityWitness,
    with_f_breakpoint,
)
from groupcut.pwl import PwlPeriodic


def _on_symmetry_line(fn: PwlPeriodic, u: Fraction, v: Fraction) -> bool:
    return (u + v - fn.f) % 1 == 0


def vertex_slacks(fn: PwlPeriodic):
    """(vertex, on the symmetry line, Δπ) with three evaluations per vertex."""
    return [(v, _on_symmetry_line(fn, *v), delta_pi(fn, *v)) for v in delta_vertices(fn)]


def minimality_test(fn: PwlPeriodic) -> MinimalityVerdict:
    fn = with_f_breakpoint(fn.canonicalize())

    if fn(0) != 0:
        return MinimalityVerdict(False, MinimalityWitness(ORIGIN_VALUE, Fraction(0), fn(0)))

    for x, (l, v, r) in zip(fn.breakpoints, fn.limits):
        for val in (v, l, r):
            if val < 0:
                return MinimalityVerdict(False, MinimalityWitness(NEGATIVITY, x, val))

    if fn(fn.f) != 1:
        return MinimalityVerdict(False, MinimalityWitness(SYMMETRY, fn.f, fn(fn.f)))

    continuous = fn.is_continuous()
    vertices = vertex_slacks(fn)
    faces = None if continuous else enumerate_faces(fn)

    for vert, on_line, slack in vertices:
        if on_line and slack != 0:
            return MinimalityVerdict(False, MinimalityWitness(SYMMETRY, vert, slack))
    if not continuous:
        for face in faces:
            if face.dim != 1:
                continue
            if not all(_on_symmetry_line(fn, u, v) for u, v in face.vertices):
                continue
            for vert in face.vertices:
                slack = delta_pi_limit(fn, face, vert)
                if slack != 0:
                    return MinimalityVerdict(
                        False,
                        MinimalityWitness(SYMMETRY, vert, slack, face.vertices),
                    )

    if continuous:
        for vert, _, slack in vertices:
            if slack < 0:
                return MinimalityVerdict(
                    False, MinimalityWitness(SUBADDITIVITY, vert, slack)
                )
    else:
        for face in faces:
            for vert in face.vertices:
                slack = delta_pi_limit(fn, face, vert)
                if slack < 0:
                    return MinimalityVerdict(
                        False,
                        MinimalityWitness(SUBADDITIVITY, vert, slack, face.vertices),
                    )

    return MinimalityVerdict(True)
