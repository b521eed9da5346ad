"""Z-periodic piecewise linear functions with exact rational data.

A function is stored by its breakpoints in [0,1) (always starting with 0)
together with a (left limit, value, right limit) triple at each breakpoint.
Slopes on the open intervals between breakpoints are derived from the
adjacent one-sided limits, so the representation is closed under all of the
algebraic operations below and never needs a separate consistency field.

The left limit stored at breakpoint 0 is the limit from below at 0, i.e. the
limit from below at 1 of the periodic extension.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from math import ceil, floor, lcm
from typing import List, Sequence, Tuple

from .rational import scale_to_integers

Triple = Tuple[Fraction, Fraction, Fraction]

LEFT, AT, RIGHT = "left", "at", "right"


class PwlPeriodic:
    """Immutable Z-periodic piecewise linear function."""

    __slots__ = ("f", "breakpoints", "limits", "_slopes")

    def __init__(self, f, breakpoints: Sequence, limits: Sequence):
        f = Fraction(f)
        if not 0 < f < 1:
            raise ValueError(f"f must lie strictly between 0 and 1, got {f}")
        bkpts = tuple(Fraction(b) for b in breakpoints)
        trips = tuple((Fraction(l), Fraction(v), Fraction(r)) for (l, v, r) in limits)
        if not bkpts or bkpts[0] != 0:
            raise ValueError("breakpoints must start with 0")
        if len(bkpts) != len(trips):
            raise ValueError("breakpoints and limit triples disagree in length")
        for a, b in zip(bkpts, bkpts[1:]):
            if not a < b:
                raise ValueError("breakpoints must be strictly increasing")
        if bkpts[-1] >= 1:
            raise ValueError("breakpoints must lie in [0,1)")
        self.f = f
        self.breakpoints = bkpts
        self.limits = trips
        self._slopes = None

    # -- basic queries ----------------------------------------------------

    @property
    def slopes(self) -> Tuple[Fraction, ...]:
        """Slope on each interval (b_i, b_{i+1}), wrapping to (b_last, 1)."""
        if self._slopes is None:
            n = len(self.breakpoints)
            out = []
            for i in range(n):
                x0 = self.breakpoints[i]
                x1 = self.breakpoints[i + 1] if i + 1 < n else Fraction(1)
                y0 = self.limits[i][2]
                y1 = self.limits[i + 1][0] if i + 1 < n else self.limits[0][0]
                out.append((y1 - y0) / (x1 - x0))
            self._slopes = tuple(out)
        return self._slopes

    def is_continuous(self) -> bool:
        return all(l == v == r for (l, v, r) in self.limits)

    def _locate(self, x: Fraction) -> Tuple[int, Fraction]:
        """Reduce x mod 1 and return (interval index, reduced x)."""
        x = Fraction(x) % 1
        i = bisect_right(self.breakpoints, x) - 1
        return i, x

    def __call__(self, x) -> Fraction:
        i, x = self._locate(Fraction(x))
        b = self.breakpoints[i]
        if x == b:
            return self.limits[i][1]
        return self.limits[i][2] + self.slopes[i] * (x - b)

    def limit(self, x, side: str) -> Fraction:
        """One-sided limit (or value) of the periodic extension at x."""
        i, x = self._locate(Fraction(x))
        b = self.breakpoints[i]
        if x == b:
            l, v, r = self.limits[i]
            if side == LEFT:
                return l
            if side == RIGHT:
                return r
            if side == AT:
                return v
            raise ValueError(f"unknown side {side!r}")
        if side not in (LEFT, AT, RIGHT):
            raise ValueError(f"unknown side {side!r}")
        return self.limits[i][2] + self.slopes[i] * (x - b)

    # -- canonical form and equality --------------------------------------

    def canonicalize(self) -> "PwlPeriodic":
        """Drop breakpoints that carry no jump and no slope change.

        Breakpoint 0 is always kept so the invariant 'breakpoints begin
        with 0' survives canonicalization.
        """
        n = len(self.breakpoints)
        keep = [0]
        for i in range(1, n):
            l, v, r = self.limits[i]
            if not (l == v == r and self.slopes[i - 1] == self.slopes[i]):
                keep.append(i)
        if len(keep) == n:
            return self
        return PwlPeriodic(
            self.f,
            [self.breakpoints[i] for i in keep],
            [self.limits[i] for i in keep],
        )

    def _canonical_key(self):
        c = self.canonicalize()
        return (c.f, c.breakpoints, c.limits)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PwlPeriodic):
            return NotImplemented
        return self._canonical_key() == other._canonical_key()

    def __hash__(self):
        return hash(self._canonical_key())

    def __repr__(self):
        return (
            f"PwlPeriodic(f={self.f}, breakpoints={list(self.breakpoints)}, "
            f"limits={list(self.limits)})"
        )

    def denominator_lcm(self) -> int:
        """lcm of the denominators of all breakpoints and f."""
        return lcm(self.f.denominator, *(b.denominator for b in self.breakpoints))


def make_pwl(f, breakpoints: Sequence, limits: Sequence) -> PwlPeriodic:
    """Construct a function from breakpoints and limit triples."""
    return PwlPeriodic(f, breakpoints, limits)


def pwl_from_values(f, points: Sequence[Tuple[Fraction, Fraction]]) -> PwlPeriodic:
    """Continuous function through (x, value) pairs; x in [0,1), first x = 0."""
    bkpts = [Fraction(x) for x, _ in points]
    vals = [Fraction(v) for _, v in points]
    return PwlPeriodic(f, bkpts, [(v, v, v) for v in vals])


def eval_pwl(fn: PwlPeriodic, x) -> Fraction:
    return fn(x)


def limit(fn: PwlPeriodic, x, side: str) -> Fraction:
    return fn.limit(x, side)


# The largest grid n = m·q sampled or solved on.  Sampling costs n Fractions
# and the extremality solver O(n^2) unit unions (about 18 million at n = 6,000),
# so a larger grid would run for minutes.  gmic(9999/10000) needs n = 30,000.
MAX_GRID_N = 1_000_000


def check_grid_size(n: int) -> None:
    """Raise ValueError, naming the bound, if n exceeds ``MAX_GRID_N``."""
    if n > MAX_GRID_N:
        raise ValueError(f"grid of {n} points exceeds the bound of {MAX_GRID_N} points")


def interpolate_grid(values: Sequence[Fraction], n: int, f) -> PwlPeriodic:
    """Continuous periodic interpolant of ``values[i]`` at i/n, in canonical
    form: ``pwl_from_values(f, [(i/n, values[i])]).canonicalize()``.

    Its breakpoints are 0 and the grid points where the slope changes, found
    by one pass of integer second differences over the periodic vector.
    """
    iv, _ = scale_to_integers(values)
    k = len(iv)
    kinks = [0] + [i for i in range(1, k) if iv[i - 1] - 2 * iv[i] + iv[(i + 1) % k]]
    return PwlPeriodic(f, [Fraction(i, n) for i in kinks], [(values[i],) * 3 for i in kinks])


def grid_values(fn: PwlPeriodic, n: int) -> List[Fraction]:
    """``[fn(Fraction(i, n)) for i in range(n)]`` in one walk over the pieces.

    On the piece [b, b') the values r + s·(i/n − b) form an arithmetic
    progression in i.  With its start and step over one common denominator
    d, each value is ``Fraction(integer, d)``; a grid point on b takes the
    value stored there.
    """
    out: List[Fraction] = []
    ends = fn.breakpoints[1:] + (1,)
    for b, end, (_, at, right), s in zip(fn.breakpoints, ends, fn.limits, fn.slopes):
        lo, hi = ceil(b * n), ceil(end * n)  # the grid points i/n in [b, end)
        if lo >= hi:
            continue
        if lo == b * n:
            out.append(at)
            lo += 1
        start, step = right - s * b, s / n
        d = lcm(start.denominator, step.denominator)
        c = start.numerator * (d // start.denominator)
        t = step.numerator * (d // step.denominator)
        out.extend(Fraction(c + t * i, d) for i in range(lo, hi))
    return out


def _merged_breakpoints(*fns: PwlPeriodic) -> List[Fraction]:
    return sorted({b for fn in fns for b in fn.breakpoints})


def affine_combine(a, fn1: PwlPeriodic, b, fn2: PwlPeriodic) -> PwlPeriodic:
    """a*fn1 + b*fn2 on the merged breakpoint set (requires equal f)."""
    if fn1.f != fn2.f:
        raise ValueError(f"cannot combine functions with f={fn1.f} and f={fn2.f}")
    a, b = Fraction(a), Fraction(b)
    bkpts = _merged_breakpoints(fn1, fn2)
    trips = []
    for x in bkpts:
        trips.append(
            tuple(
                a * fn1.limit(x, s) + b * fn2.limit(x, s) for s in (LEFT, AT, RIGHT)
            )
        )
    return PwlPeriodic(fn1.f, bkpts, trips).canonicalize()


def precompose_scale(fn: PwlPeriodic, lam) -> PwlPeriodic:
    """x -> fn(lam * x) for a nonzero integer lam (group automorphism).

    The new f is the smallest positive representative f' with
    lam * f' = fn.f (mod 1).
    """
    lam = int(lam)
    if lam == 0:
        raise ValueError("scale factor must be nonzero")
    # Preimages of the breakpoints, reduced to [0,1).
    pre = sorted({((b + t) / lam) % 1 for b in fn.breakpoints for t in range(abs(lam))})
    trips = []
    for y in pre:
        if lam > 0:
            trips.append(tuple(fn.limit(lam * y, s) for s in (LEFT, AT, RIGHT)))
        else:
            trips.append(tuple(fn.limit(lam * y, s) for s in (RIGHT, AT, LEFT)))
    f_new = min(((fn.f + t) / lam) % 1 for t in range(abs(lam)))
    return PwlPeriodic(f_new, pre, trips).canonicalize()


def compose_pwl(
    outer: PwlPeriodic,
    inner_xs: Sequence,
    inner_ys: Sequence,
    f_new=None,
) -> PwlPeriodic:
    """outer(inner(x)) where inner is continuous piecewise affine on [0,1].

    ``inner_xs``/``inner_ys`` describe inner by its breakpoints (0 = xs[0],
    1 = xs[-1]) and values.  inner(1) - inner(0) must be an integer so the
    composite is well defined on R/Z.  The result's f defaults to the
    smallest x in (0,1) with inner(x) = outer.f (mod 1).
    """
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

    # Breakpoints of the composite: inner's own plus preimages of outer's.
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
        """Sign of inner's slope just left/right of x (periodically)."""
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
        v = outer.limit(y, AT)
        sgn_r = piece_slope_sign(x, RIGHT)
        sgn_l = piece_slope_sign(x, LEFT)
        r = outer.limit(y, RIGHT if sgn_r > 0 else LEFT if sgn_r < 0 else AT)
        l = outer.limit(y, LEFT if sgn_l > 0 else RIGHT if sgn_l < 0 else AT)
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


class SlopeReport:
    """Distinct slopes and continuity summary of a function."""

    __slots__ = ("distinct_slopes", "is_continuous", "left_continuous_at_0", "right_continuous_at_0")

    def __init__(self, fn: PwlPeriodic):
        self.distinct_slopes = tuple(sorted(set(fn.slopes)))
        self.is_continuous = fn.is_continuous()
        l, v, r = fn.limits[0]
        self.left_continuous_at_0 = l == v
        self.right_continuous_at_0 = r == v


def slope_report(fn: PwlPeriodic) -> SlopeReport:
    return SlopeReport(fn.canonicalize())


def sup_norm_distance(fn1: PwlPeriodic, fn2: PwlPeriodic) -> Fraction:
    """Exact sup norm of fn1 - fn2 (values and one-sided limits)."""
    pts = _merged_breakpoints(fn1, fn2)
    best = Fraction(0)
    for x in pts:
        for s in (LEFT, AT, RIGHT):
            best = max(best, abs(fn1.limit(x, s) - fn2.limit(x, s)))
    return best
