"""Deterministic SVG renderings of functions and their two-dimensional
additivity diagrams.

Rational coordinates are truncated (not rounded) to six decimals straight
from integer arithmetic, so the same input always yields byte-identical
output.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List

from .complex2d import (
    classify_additive,
    delta_pi_limit,
    enumerate_faces,
    face_ring,
    vertex_slacks,
)
from .minimality import with_f_breakpoint
from .pwl import PwlPeriodic

_SCALE = 10**6


def _fmt(x) -> str:
    """Six-decimal truncation of a rational, computed in integers."""
    n = abs(x.numerator) * _SCALE // x.denominator
    sign = "-" if x.numerator < 0 and n else ""
    return f"{sign}{n // _SCALE}.{n % _SCALE:06d}"


class _Svg:
    def __init__(self, width: int, height: int):
        self.width = width
        self.height = height
        self.parts: List[str] = [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
            f'height="{height}" viewBox="0 0 {width} {height}">'
        ]

    def line(self, x1, y1, x2, y2, stroke="black", width="1", dash=None):
        d = f' stroke-dasharray="{dash}"' if dash else ""
        self.parts.append(
            f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" y2="{_fmt(y2)}" '
            f'stroke="{stroke}" stroke-width="{width}"{d}/>'
        )

    def polygon(self, pts, fill, stroke="none", opacity=None):
        coords = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in pts)
        op = f' fill-opacity="{opacity}"' if opacity else ""
        self.parts.append(
            f'<polygon points="{coords}" fill="{fill}" stroke="{stroke}"{op}/>'
        )

    def circle(self, cx, cy, r, fill, stroke="none"):
        self.parts.append(
            f'<circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" r="{r}" fill="{fill}" stroke="{stroke}"/>'
        )

    def render(self) -> str:
        return "\n".join(self.parts + ["</svg>"]) + "\n"


def _graph_segments(fn: PwlPeriodic):
    """(x0, y0, x1, y1) per affine piece, plus the jump dots."""
    bk = list(fn.breakpoints) + [Fraction(1)]
    segs = []
    dots = []
    n = len(fn.breakpoints)
    for i in range(n):
        x0, x1 = bk[i], bk[i + 1]
        y0 = fn.limits[i][2]
        y1 = fn.limits[i + 1][0] if i + 1 < n else fn.limits[0][0]
        segs.append((x0, y0, x1, y1))
    for x, (l, v, r) in zip(fn.breakpoints, fn.limits):
        dots.append((x, v, "closed"))
        if l != v:
            dots.append((x, l, "open"))
        if r != v:
            dots.append((x, r, "open"))
    return segs, dots


def plot_function(fn: PwlPeriodic, width: int = 640, height: int = 360) -> str:
    """Graph of one period with open/closed dots at jump discontinuities."""
    fn = fn.canonicalize()
    margin = 40
    ys = [y for (l, v, r) in fn.limits for y in (l, v, r)]
    y_lo, y_hi = min(ys + [Fraction(0)]), max(ys + [Fraction(1)])
    if y_lo == y_hi:
        y_hi = y_lo + 1
    span_x = width - 2 * margin
    span_y = height - 2 * margin

    def px(x):
        return margin + Fraction(x) * span_x

    def py(y):
        return height - margin - (Fraction(y) - y_lo) * span_y / (y_hi - y_lo)

    svg = _Svg(width, height)
    svg.line(px(0), py(0), px(1), py(0), stroke="#888888")
    svg.line(px(0), py(y_lo), px(0), py(y_hi), stroke="#888888")
    svg.line(px(fn.f), py(y_lo), px(fn.f), py(y_hi), stroke="#888888", dash="4 3")
    segs, dots = _graph_segments(fn)
    for x0, y0, x1, y1 in segs:
        svg.line(px(x0), py(y0), px(x1), py(y1), stroke="blue", width="2")
    for x, y, kind in dots:
        if kind == "closed":
            svg.circle(px(x), py(y), 4, fill="blue")
        else:
            svg.circle(px(x), py(y), 4, fill="white", stroke="blue")
    return svg.render()


def plot_2d_diagram(fn: PwlPeriodic, size: int = 720) -> str:
    """Additivity diagram on the unit square.

    Additive faces are green (two-dimensional filled, lower-dimensional
    drawn as lines/dots), the symmetry line is heavy, subadditivity
    violations are red dots, projections of two-dimensional additive faces
    are gray shadows on the borders, and the function graph runs along the
    top and left margins.
    """
    fn = with_f_breakpoint(fn.canonicalize())
    margin = 90
    span = size - 2 * margin

    def px(x):
        return margin + Fraction(x) * span

    def py(y):
        return size - margin - Fraction(y) * span

    svg = _Svg(size, size)
    faces = enumerate_faces(fn)
    additive = classify_additive(fn, faces)

    # Complex grid lines.
    for b in fn.breakpoints:
        svg.line(px(b), py(0), px(b), py(1), stroke="#cccccc")
        svg.line(px(0), py(b), px(1), py(b), stroke="#cccccc")
    zs = sorted({b + t for b in fn.breakpoints for t in (0, 1)})
    for z in zs:
        x0, x1 = max(Fraction(0), z - 1), min(Fraction(1), z)
        if x0 <= x1:
            svg.line(px(x0), py(z - x0), px(x1), py(z - x1), stroke="#cccccc")

    # Additive faces in green.
    for face in additive:
        if face.dim == 2:
            ring = face_ring(face)
            svg.polygon(
                [(px(x), py(y)) for x, y in ring],
                fill="#00aa00",
                stroke="#007700",
                opacity="0.45",
            )
    for face in additive:
        if face.dim == 1:
            (x0, y0), (x1, y1) = face.vertices
            svg.line(px(x0), py(y0), px(x1), py(y1), stroke="#007700", width="3")
    for face in additive:
        if face.dim == 0:
            (x, y), = face.vertices
            svg.circle(px(x), py(y), 3, fill="#007700")

    # Gray projection shadows of the two-dimensional additive faces.
    for face in additive:
        if face.dim != 2:
            continue
        (a, b) = face.p1
        svg.line(px(a), margin - 6, px(b), margin - 6, stroke="#999999", width="5")
        (a, b) = face.p2
        svg.line(margin - 6, py(a), margin - 6, py(b), stroke="#999999", width="5")
        (a, b) = face.p3
        svg.line(px(a % 1), size - margin + 6, px(a % 1 + (b - a)), size - margin + 6, stroke="#999999", width="5")

    # Heavy symmetry line x + y = f (mod 1).
    for z in (fn.f, fn.f + 1):
        x0, x1 = max(Fraction(0), z - 1), min(Fraction(1), z)
        if x0 <= x1:
            svg.line(px(x0), py(z - x0), px(x1), py(z - x1), stroke="black", width="3")

    # Red dots at subadditivity violations.
    violations = set()
    if fn.is_continuous():
        violations.update(vert for vert, _, slack in vertex_slacks(fn) if slack < 0)
    else:
        for face in faces:
            for vert in face.vertices:
                if delta_pi_limit(fn, face, vert) < 0:
                    violations.add((vert[0] % 1, vert[1] % 1))
    for u, v in sorted(violations):
        svg.circle(px(u), py(v), 5, fill="red")

    # Function graphs along the top and left margins.
    segs, _ = _graph_segments(fn)
    ys = [y for (l, v, r) in fn.limits for y in (l, v, r)]
    y_lo, y_hi = min(ys), max(ys)
    if y_lo == y_hi:
        y_hi = y_lo + 1
    band = margin - 20

    def gy(y):
        return 10 + (y_hi - Fraction(y)) * band / (y_hi - y_lo)

    for x0, y0, x1, y1 in segs:
        svg.line(px(x0), gy(y0), px(x1), gy(y1), stroke="blue", width="2")
        svg.line(gy(y0), py(x0), gy(y1), py(x1), stroke="blue", width="2")
    svg.line(px(0), py(0), px(1), py(0), stroke="black")
    svg.line(px(0), py(0), px(0), py(1), stroke="black")
    svg.line(px(1), py(0), px(1), py(1), stroke="black")
    svg.line(px(0), py(1), px(1), py(1), stroke="black")
    return svg.render()
