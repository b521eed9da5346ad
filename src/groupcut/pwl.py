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

_SIDES = LEFT, AT, RIGHT = "left", "at", "right"


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

    def limits_at(self, x) -> Triple:
        """(left limit, value, right limit) of the periodic extension at x."""
        x = Fraction(x) % 1
        i = bisect_right(self.breakpoints, x) - 1
        b = self.breakpoints[i]
        if x == b:
            return self.limits[i]
        y = self.limits[i][2] + self.slopes[i] * (x - b)
        return y, y, y

    def __call__(self, x) -> Fraction:
        return self.limits_at(x)[1]

    def limit(self, x, side: str) -> Fraction:
        """One-sided limit (or value) of the periodic extension at x."""
        if side not in _SIDES:
            raise ValueError(f"unknown side {side!r}")
        return self.limits_at(x)[_SIDES.index(side)]

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


# The largest grid n = m·q sampled or solved on, and the most breakpoints a
# construction (``precompose_scale``, psi_n) builds.  Sampling costs n Fractions,
# and extremality is linear in n: extremality_test(gmic((d-1)/d)) took 0.58 s
# at n = 30,000 and 5.0 s at n = 300,000 (2 CPUs, Python 3.11), so about 17 s
# at the bound.
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
    Raises ValueError unless n is an ``int`` >= 1 and there are n values.
    """
    if type(n) is not int or n < 1:
        raise ValueError(f"n must be an integer of at least 1, got {n!r}")
    if len(values) != n:
        raise ValueError(f"need n = {n} values, got {len(values)}")
    iv, _ = scale_to_integers(values)
    kinks = [0] + [i for i in range(1, n) if iv[i - 1] - 2 * iv[i] + iv[(i + 1) % n]]
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
        (c, t), d = scale_to_integers((right - s * b, s / n))
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
    trips = [
        tuple(a * u + b * v for u, v in zip(fn1.limits_at(x), fn2.limits_at(x))) for x in bkpts
    ]
    return PwlPeriodic(fn1.f, bkpts, trips).canonicalize()


def precompose_scale(fn: PwlPeriodic, lam: int) -> PwlPeriodic:
    """x -> fn(lam * x) for a nonzero integer lam (group automorphism).

    The new f is the smallest positive representative f' with
    lam * f' = fn.f (mod 1).  The |lam| preimages of each breakpoint are
    distinct, so a result of more than ``MAX_GRID_N`` of them is refused
    before any is built.
    """
    if type(lam) is not int:
        raise ValueError(f"scale factor lam must be an integer, got {lam!r}")
    if lam == 0:
        raise ValueError("scale factor must be nonzero")
    count = abs(lam) * len(fn.breakpoints)
    if count > MAX_GRID_N:
        raise ValueError(f"x -> fn({lam}x) has {count} breakpoints, more than the bound of {MAX_GRID_N}")
    # Preimages of the breakpoints, reduced to [0,1); a negative lam swaps
    # the left and right limits.
    pre = sorted({((b + t) / lam) % 1 for b in fn.breakpoints for t in range(abs(lam))})
    trips = [fn.limits_at(lam * y)[::1 if lam > 0 else -1] for y in pre]
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
    smallest x in (0,1) with inner(x) = outer.f (mod 1); if inner is
    constant and = outer.f on its first piece, no smallest x exists, and
    f_new must be given.
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
    slopes = [(y1 - y0) / (x1 - x0) for x0, x1, y0, y1 in zip(xs, xs[1:], ys, ys[1:])]

    def preimages(c: Fraction):
        """The x mod 1 with inner(x) = c (mod 1) on the pieces that are not constant."""
        for x0, y0, y1, s in zip(xs, ys, ys[1:], slopes):
            if s:
                for t in range(ceil(min(y0, y1) - c), floor(max(y0, y1) - c) + 1):
                    yield (x0 + (c + t - y0) / s) % 1

    # Breakpoints of the composite: inner's own plus preimages of outer's.
    bkpts = sorted({*xs[:-1], *(x for b in outer.breakpoints for x in preimages(b))})
    trips = []
    for x in bkpts:
        # x < 1 = xs[-1], so x lies on piece i, [xs[i], xs[i + 1]).
        i = bisect_right(xs, x) - 1
        s_right = slopes[i]
        s_left = slopes[i - 1] if x == xs[i] else s_right  # slopes[-1] wraps at 0
        trip = outer.limits_at(ys[i] + s_right * (x - xs[i]))
        # Where inner rises, outer is approached from the same side; where it falls, from the other.
        trips.append((trip[1 - _sign(s_left)], trip[1], trip[1 + _sign(s_right)]))

    if f_new is None:
        if not slopes[0] and (ys[0] - outer.f).denominator == 1:
            raise ValueError(
                f"inner(x) = outer.f (mod 1) for every x in (0, {xs[1]}], so no smallest "
                "such x exists; pass f_new"
            )
        candidates = [x for x in preimages(outer.f) if x]
        candidates += [
            x0 for x0, y0, s in zip(xs, ys, slopes) if not s and (y0 - outer.f).denominator == 1
        ]
        if not candidates:
            raise ValueError("no preimage of outer.f available for the result's f")
        f_new = min(candidates)
    return PwlPeriodic(f_new, bkpts, trips).canonicalize()


def _sign(s: Fraction) -> int:
    return (s > 0) - (s < 0)


class SlopeReport:
    """Distinct slopes and continuity summary of a function."""

    __slots__ = ("distinct_slopes", "is_continuous", "left_continuous_at_0", "right_continuous_at_0")

    def __init__(self, fn: PwlPeriodic):
        self.distinct_slopes = tuple(sorted(set(fn.slopes)))
        self.is_continuous = fn.is_continuous()
        l, v, r = fn.limits[0]
        self.left_continuous_at_0 = l == v
        self.right_continuous_at_0 = r == v


class _Record:
    """Base of the package's immutable records, in place of frozen dataclasses.

    A record class names its fields in order in the class tuple ``_fields``;
    a class attribute named after a trailing field is that field's default.
    Records are built from positional or keyword fields, then run
    ``__post_init__``; they compare equal to records of their own class only,
    and hash, print and pickle by their fields, as the frozen dataclass does;
    assignment and deletion raise ``AttributeError``.  A field whose name
    starts with ``_`` stays out of ``==``, ``hash`` and ``repr``.  The
    methods are written here once; no class generates its own.
    """

    __slots__ = ()
    _fields: Tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        own = vars(cls)
        slots = own.get("__slots__", ())
        cls._defaults = {name: own[name] for name in cls._fields if name in own and name not in slots}
        cls._compared = tuple(name for name in cls._fields if not name.startswith("_"))

    def __init__(self, *args, **kwargs) -> None:
        cls = type(self)
        names = cls._fields
        if len(args) > len(names):
            raise TypeError(f"{cls.__name__}() takes {len(names)} fields, got {len(args)}")
        for name, value in zip(names, args):
            object.__setattr__(self, name, value)
        for name in names[len(args) :]:
            if name in kwargs:
                value = kwargs.pop(name)
            elif name in cls._defaults:
                value = cls._defaults[name]
            else:
                raise TypeError(f"{cls.__name__}() missing field {name!r}")
            object.__setattr__(self, name, value)
        if kwargs:
            raise TypeError(f"{cls.__name__}() got an unexpected field {next(iter(kwargs))!r}")
        self.__post_init__()

    def __post_init__(self) -> None:
        pass

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self._compared)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._compared)
        return f"{type(self).__qualname__}({shown})"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self._fields)


def slope_report(fn: PwlPeriodic) -> SlopeReport:
    return SlopeReport(fn.canonicalize())


def sup_norm_distance(fn1: PwlPeriodic, fn2: PwlPeriodic) -> Fraction:
    """Exact sup norm of fn1 - fn2 (values and one-sided limits)."""
    return max(
        abs(u - v)
        for x in _merged_breakpoints(fn1, fn2)
        for u, v in zip(fn1.limits_at(x), fn2.limits_at(x))
    )
