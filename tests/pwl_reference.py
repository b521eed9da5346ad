"""Reference pwl reads: frozen copies of the original ``PwlPeriodic.__call__``
and ``limit``, ``affine_combine``, ``precompose_scale``, ``compose_pwl``,
``sup_norm_distance`` and ``minimality.with_f_breakpoint``, which located a
point once per side and carried their own locators and slope formulas.  The
library's versions read all three limits from one ``limits_at``; the tests
compare the two output for output, field by field.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from math import ceil, floor
from typing import Sequence, Tuple

from groupcut.pwl import AT, LEFT, RIGHT, PwlPeriodic


def _locate(fn: PwlPeriodic, x: Fraction) -> Tuple[int, Fraction]:
    x = Fraction(x) % 1
    i = bisect_right(fn.breakpoints, x) - 1
    return i, x


def call(fn: PwlPeriodic, x) -> Fraction:
    i, x = _locate(fn, Fraction(x))
    b = fn.breakpoints[i]
    if x == b:
        return fn.limits[i][1]
    return fn.limits[i][2] + fn.slopes[i] * (x - b)


def limit(fn: PwlPeriodic, x, side: str) -> Fraction:
    i, x = _locate(fn, Fraction(x))
    b = fn.breakpoints[i]
    if x == b:
        l, v, r = fn.limits[i]
        if side == LEFT:
            return l
        if side == RIGHT:
            return r
        if side == AT:
            return v
        raise ValueError(f"unknown side {side!r}")
    if side not in (LEFT, AT, RIGHT):
        raise ValueError(f"unknown side {side!r}")
    return fn.limits[i][2] + fn.slopes[i] * (x - b)


def _merged_breakpoints(*fns: PwlPeriodic):
    return sorted({b for fn in fns for b in fn.breakpoints})


def affine_combine(a, fn1: PwlPeriodic, b, fn2: PwlPeriodic) -> PwlPeriodic:
    if fn1.f != fn2.f:
        raise ValueError(f"cannot combine functions with f={fn1.f} and f={fn2.f}")
    a, b = Fraction(a), Fraction(b)
    bkpts = _merged_breakpoints(fn1, fn2)
    trips = []
    for x in bkpts:
        trips.append(
            tuple(a * limit(fn1, x, s) + b * limit(fn2, x, s) for s in (LEFT, AT, RIGHT))
        )
    return PwlPeriodic(fn1.f, bkpts, trips).canonicalize()


def precompose_scale(fn: PwlPeriodic, lam) -> PwlPeriodic:
    lam = int(lam)
    if lam == 0:
        raise ValueError("scale factor must be nonzero")
    pre = sorted({((b + t) / lam) % 1 for b in fn.breakpoints for t in range(abs(lam))})
    trips = []
    for y in pre:
        if lam > 0:
            trips.append(tuple(limit(fn, lam * y, s) for s in (LEFT, AT, RIGHT)))
        else:
            trips.append(tuple(limit(fn, lam * y, s) for s in (RIGHT, AT, LEFT)))
    f_new = min(((fn.f + t) / lam) % 1 for t in range(abs(lam)))
    return PwlPeriodic(f_new, pre, trips).canonicalize()


def compose_pwl(outer: PwlPeriodic, inner_xs: Sequence, inner_ys: Sequence, f_new=None) -> PwlPeriodic:
    xs = [Fraction(x) for x in inner_xs]
    ys = [Fraction(y) for y in inner_ys]
    if len(xs) != len(ys) or len(xs) < 2 or xs[0] != 0 or xs[-1] != 1:
        raise ValueError("inner map must cover [0,1] with matching value list")
    for a, b in zip(xs, xs[1:]):
        if not a < b:
            raise ValueError("inner breakpoints must be strictly increasing")
    if (ys[-1] - ys[0]).denominator != 1:
        raise ValueError("inner(1) - inner(0) must be an integer")

    def inner_at(x: Fraction) -> Fraction:
        i = bisect_right(xs, x) - 1
        if i == len(xs) - 1:
            i -= 1
        s = (ys[i + 1] - ys[i]) / (xs[i + 1] - xs[i])
        return ys[i] + s * (x - xs[i])

    cut = set(x % 1 for x in xs[:-1])
    for i in range(len(xs) - 1):
        x0, x1, y0, y1 = xs[i], xs[i + 1], ys[i], ys[i + 1]
        if y0 == y1:
            continue
        s = (y1 - y0) / (x1 - x0)
        lo, hi = min(y0, y1), max(y0, y1)
        for b in outer.breakpoints:
            t0 = ceil(lo - b)
            t1 = floor(hi - b)
            for t in range(t0, t1 + 1):
                x = x0 + (b + t - y0) / s
                if x0 <= x <= x1:
                    cut.add(x % 1)
    bkpts = sorted(cut)

    def piece_slope_sign(x: Fraction, side: str) -> int:
        xx = x % 1
        if side == RIGHT:
            i = bisect_right(xs, xx) - 1
            if i == len(xs) - 1:
                i = 0
        else:
            if xx == 0:
                xx = Fraction(1)
            i = bisect_right(xs, xx) - 1
            if xs[i] == xx:
                i -= 1
        s = (ys[i + 1] - ys[i]) / (xs[i + 1] - xs[i])
        return (s > 0) - (s < 0)

    trips = []
    for x in bkpts:
        y = inner_at(x)
        v = limit(outer, y, AT)
        sgn_r = piece_slope_sign(x, RIGHT)
        sgn_l = piece_slope_sign(x, LEFT)
        r = limit(outer, y, RIGHT if sgn_r > 0 else LEFT if sgn_r < 0 else AT)
        l = limit(outer, y, LEFT if sgn_l > 0 else RIGHT if sgn_l < 0 else AT)
        trips.append((l, v, r))

    if f_new is None:
        candidates = []
        for i in range(len(xs) - 1):
            x0, x1, y0, y1 = xs[i], xs[i + 1], ys[i], ys[i + 1]
            if y0 == y1:
                if (y0 - outer.f).denominator == 1:
                    candidates.append(x0)
                continue
            s = (y1 - y0) / (x1 - x0)
            lo, hi = min(y0, y1), max(y0, y1)
            t0 = ceil(lo - outer.f)
            t1 = floor(hi - outer.f)
            for t in range(t0, t1 + 1):
                x = x0 + (outer.f + t - y0) / s
                if x0 <= x <= x1 and 0 < x % 1:
                    candidates.append(x % 1)
        if not candidates:
            raise ValueError("no preimage of outer.f available for the result's f")
        f_new = min(candidates)
    return PwlPeriodic(f_new, bkpts, trips).canonicalize()


def sup_norm_distance(fn1: PwlPeriodic, fn2: PwlPeriodic) -> Fraction:
    pts = _merged_breakpoints(fn1, fn2)
    best = Fraction(0)
    for x in pts:
        for s in (LEFT, AT, RIGHT):
            best = max(best, abs(limit(fn1, x, s) - limit(fn2, x, s)))
    return best


def with_f_breakpoint(fn: PwlPeriodic) -> PwlPeriodic:
    if fn.f in fn.breakpoints:
        return fn
    bkpts = sorted(set(fn.breakpoints) | {fn.f})
    trips = [tuple(limit(fn, x, s) for s in (LEFT, AT, RIGHT)) for x in bkpts]
    return PwlPeriodic(fn.f, bkpts, trips)
