"""Constructions of known minimal/extreme function families.

Everything here produces exact rational `PwlPeriodic` objects: the basic
mixed-integer cut, the two-slope limit family psi_n, sequential merges and
their one-dimensional projections, two-slope fill-in of finite group
functions, and the group automorphisms.  A registry maps family names to
constructors; families that are catalogued but have no constructor in this
version raise a descriptive error.
"""

from __future__ import annotations

from fractions import Fraction
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

from . import pwl
from .pwl import (
    PwlPeriodic,
    _Record,
    affine_combine,
    compose_pwl,
    precompose_scale,
    pwl_from_values,
)

if TYPE_CHECKING:
    from .finite import FiniteGroupFn


def gmic(f) -> PwlPeriodic:
    """Basic mixed-integer cut: rises to 1 at f, falls back to 0 at 1."""
    f = Fraction(f)
    if not 0 < f < 1:
        raise ValueError(f"f must lie strictly between 0 and 1, got {f}")
    return pwl_from_values(f, [(Fraction(0), Fraction(0)), (f, Fraction(1))])


MU_LT_1 = "mu_lt_1"
MU_EQ_1 = "mu_eq_1"


def _check_psi_size(n: int) -> None:
    """Refuse psi_n, which has 2^(n+1) breakpoints, above ``MAX_GRID_N``
    breakpoints, without building 2^(n+1): 2^k > M exactly when k is at
    least the bit length of M."""
    if n + 1 >= pwl.MAX_GRID_N.bit_length():
        raise ValueError(f"psi_{n} has 2^{n + 1} breakpoints, more than the bound of {pwl.MAX_GRID_N}")


def generate_eps(f, n: int, variant: str = MU_LT_1) -> List[Fraction]:
    """Standard geometric bump amplitudes eps_1..eps_n for psi_n; an n whose
    psi_n would pass ``MAX_GRID_N`` breakpoints is refused."""
    f = Fraction(f)
    if type(n) is not int or n < 0:
        raise ValueError(f"n must be a nonnegative integer, got {n!r}")
    _check_psi_size(n)
    if variant == MU_LT_1:
        if not 0 < f <= Fraction(4, 5):
            raise ValueError(f"variant {variant} requires 0 < f <= 4/5, got {f}")
        return [f * Fraction(1, 4) ** i for i in range(1, n + 1)]
    if variant == MU_EQ_1:
        if not 0 < f <= Fraction(1, 2):
            raise ValueError(f"variant {variant} requires 0 < f <= 1/2, got {f}")
        return [2 * f * Fraction(1, 4) ** i for i in range(1, n + 1)]
    raise ValueError(f"unknown variant {variant!r}")


class PsiParams(_Record):
    """Parameters of the psi construction: f and bump amplitudes eps_i."""

    _fields = ("f", "eps")
    f: Fraction
    eps: Tuple[Fraction, ...]

    def __post_init__(self):
        f = Fraction(self.f)
        eps = tuple(Fraction(e) for e in self.eps)
        object.__setattr__(self, "f", f)
        object.__setattr__(self, "eps", eps)
        if not 0 < f < 1:
            raise ValueError(f"f must lie strictly between 0 and 1, got {f}")
        if any(e <= 0 for e in eps):
            raise ValueError("amplitudes must be positive")
        if any(a <= b for a, b in zip(eps, eps[1:])):
            raise ValueError("amplitudes must be strictly decreasing")
        if eps and eps[0] > 1 - f:
            raise ValueError("eps_1 must not exceed 1 - f")
        total = (1 - f) + sum(2**i * e for i, e in enumerate(eps))
        if total > 1:
            raise ValueError("negative-slope mass (1-f) + sum 2^(i-1) eps_i exceeds 1")


def psi_stages(params: PsiParams) -> List[PwlPeriodic]:
    """The sequence psi_0, psi_1, ..., psi_n of two-slope approximations.

    Each step replaces every maximal positive-slope segment [a, b] by a
    rise to ((a+b-eps)/2, mid + eps/(2(1-f))), a fall to
    ((a+b+eps)/2, mid - eps/(2(1-f))), and a rise back to (b, psi(b)),
    where mid is the old value at (a+b)/2.  Every stage doubles the
    positive-slope segments, so psi_n has 2^(n+1) breakpoints; above
    ``MAX_GRID_N`` of them it is refused before any stage is built.
    """
    _check_psi_size(len(params.eps))
    f = params.f
    pts: List[Tuple[Fraction, Fraction]] = [
        (Fraction(0), Fraction(0)),
        (f, Fraction(1)),
        (Fraction(1), Fraction(0)),
    ]
    stages = [pwl_from_values(f, pts[:-1])]
    for eps in params.eps:
        new_pts: List[Tuple[Fraction, Fraction]] = []
        for (x0, v0), (x1, v1) in zip(pts, pts[1:]):
            new_pts.append((x0, v0))
            if v1 > v0:
                if eps >= x1 - x0:
                    raise ValueError("amplitude too large for a positive-slope segment")
                mid_v = (v0 + v1) / 2
                bump = eps / (2 * (1 - f))
                new_pts.append(((x0 + x1 - eps) / 2, mid_v + bump))
                new_pts.append(((x0 + x1 + eps) / 2, mid_v - bump))
        new_pts.append(pts[-1])
        pts = new_pts
        stages.append(pwl_from_values(f, pts[:-1]))
    return stages


def psi_n(params: PsiParams) -> PwlPeriodic:
    """Final stage of the psi construction."""
    return psi_stages(params)[-1]


class SequentialMerge(_Record):
    """Bivariate sequential merge of an outer function with an inner one.

    value(x1, x2) evaluates the merged function; lifting(x1) is the
    representation x1 - inner(x1) * f_inner used in the merge formula.
    """

    _fields = ("outer", "inner")
    outer: PwlPeriodic
    inner: PwlPeriodic

    @property
    def f_total(self) -> Fraction:
        return self.inner.f + self.outer.f

    def lifting(self, x1) -> Fraction:
        return Fraction(x1) - self.inner(x1) * self.inner.f

    def value(self, x1, x2) -> Fraction:
        f1, f2 = self.inner.f, self.outer.f
        inner_val = self.inner(x1)
        return (inner_val * f1 + f2 * self.outer(Fraction(x1) + Fraction(x2) - inner_val * f1)) / (
            f1 + f2
        )


def sequential_merge(outer: PwlPeriodic, inner: PwlPeriodic) -> SequentialMerge:
    return SequentialMerge(outer=outer, inner=inner)


def projected_sequential_merge(pi: PwlPeriodic, n: int) -> PwlPeriodic:
    """Diagonal projection of a sequential merge, landing at f' = n * pi.f.

    The merged function pairs pi (sampled at n*x) with a basic cut whose
    parameter f0 must satisfy n*f0 = pi.f (mod 1) for the projection to be
    minimal.  Two branches achieve f' = n*pi.f exactly:
    with f = pi.f, either (n^2-1)*f is an integer (build at f0 = n*f
    directly) or (n^2+1)*f is an integer (build at f0 = 1 - n*f, then apply
    the negation automorphism).  Other parameters are rejected.
    """
    f = pi.f
    if type(n) is not int or n < 1:
        raise ValueError(f"n must be a positive integer, got {n!r}")
    if not n * f < 1:
        raise ValueError(f"need pi.f < 1/n, got f={f}, n={n}")
    if not pi.is_continuous():
        raise ValueError("projected sequential merge requires a continuous function")
    if ((n * n - 1) * f).denominator == 1:
        f0, negate = n * f, False
    elif ((n * n + 1) * f).denominator == 1:
        f0, negate = 1 - n * f, True
    else:
        raise ValueError(
            f"no admissible merge parameter: neither (n^2-1)*f nor (n^2+1)*f "
            f"is an integer for f={f}, n={n}"
        )
    xi = gmic(f0)
    term1 = precompose_scale(pi, n)

    # Inner map of the composed term: x -> (n+1)x - f * pi(n x).
    xs = sorted(set(term1.breakpoints) | {Fraction(1)})
    ys = [(n + 1) * x - f * pi(n * x) for x in xs]
    term2 = compose_pwl(xi, xs, ys, f_new=Fraction(1, 2))

    w1 = f / (f + f0)
    w2 = f0 / (f + f0)
    bset = sorted(set(term1.breakpoints) | set(term2.breakpoints))
    pts = [(b, w1 * term1(b) + w2 * term2(b)) for b in bset]
    sigma = pwl_from_values(f0, pts).canonicalize()
    if sigma(f0) != 1 or sigma(0) != 0:
        raise RuntimeError("projected sequential merge produced an invalid function")
    if negate:
        sigma = precompose_scale(sigma, -1)
    return sigma


def two_slope_fill_in(g: FiniteGroupFn, s_plus, s_minus) -> PwlPeriodic:
    """Connect consecutive grid values using only the slopes s_plus/s_minus."""
    s_plus, s_minus = Fraction(s_plus), Fraction(s_minus)
    if not s_minus < s_plus:
        raise ValueError("need s_minus < s_plus")
    q = g.q
    pts: List[Tuple[Fraction, Fraction]] = []
    for i in range(q):
        x0, x1 = Fraction(i, q), Fraction(i + 1, q)
        v0 = g.values[i]
        v1 = g.values[(i + 1) % q]
        s = (v1 - v0) * q
        if not s_minus <= s <= s_plus:
            raise ValueError(
                f"segment slope {s} on [{x0},{x1}] falls outside [{s_minus},{s_plus}]"
            )
        pts.append((x0, v0))
        x_star = (v1 - v0 + s_plus * x0 - s_minus * x1) / (s_plus - s_minus)
        if x0 < x_star < x1:
            pts.append((x_star, v0 + s_plus * (x_star - x0)))
    return pwl_from_values(g.f, pts).canonicalize()


def multiplicative_homomorphism(fn: PwlPeriodic, lam: int) -> PwlPeriodic:
    """Group automorphism x -> lam * x applied to the function's argument."""
    return precompose_scale(fn, lam)


def negation(fn: PwlPeriodic) -> PwlPeriodic:
    return precompose_scale(fn, -1)


# --- registry ---------------------------------------------------------------


def _construct_gmic(params) -> PwlPeriodic:
    return gmic(params["f"])


def _construct_psi_n(params) -> PwlPeriodic:
    f = Fraction(params["f"])
    variant = params.get("variant", MU_LT_1)
    return psi_n(PsiParams(f, tuple(generate_eps(f, params["n"], variant))))


def _construct_psm(params) -> PwlPeriodic:
    pi = params.get("pi")
    if pi is None:
        pi = gmic(params["f"])
    return projected_sequential_merge(pi, params["n"])


def _construct_two_slope_fill_in(params) -> PwlPeriodic:
    g = params.get("g")
    if g is None:
        from .finite import FiniteGroupFn

        g = FiniteGroupFn(
            q=params["q"],
            f_index=params["f_index"],
            values=tuple(Fraction(v) for v in params["values"]),
        )
    return two_slope_fill_in(g, params["s_plus"], params["s_minus"])


def _construct_mult_hom(params) -> PwlPeriodic:
    return multiplicative_homomorphism(params["fn"], params["lam"])


def _construct_negation(params) -> PwlPeriodic:
    return negation(params["fn"])


def _construct_affine_combine(params) -> PwlPeriodic:
    return affine_combine(
        Fraction(params["a"]), params["fn1"], Fraction(params["b"]), params["fn2"]
    )


class RegistryEntry(_Record):
    _fields = ("name", "description", "parameters", "builder")
    name: str
    description: str
    parameters: Tuple[str, ...]
    builder: Optional[Callable[[dict], PwlPeriodic]]

    @property
    def constructible(self) -> bool:
        return self.builder is not None


_ENTRIES: List[RegistryEntry] = [
    RegistryEntry("gmic", "basic mixed-integer cut (2 slopes, extreme)", ("f",), _construct_gmic),
    RegistryEntry(
        "psi_n",
        "two-slope staircase limit family, stage n",
        ("f", "n", "variant"),
        _construct_psi_n,
    ),
    RegistryEntry(
        "projected_sequential_merge",
        "diagonal projection of a sequential merge onto one variable",
        ("f", "n"),
        _construct_psm,
    ),
    RegistryEntry(
        "dg_2_step_mir",
        "two-step mixed-integer-rounding cut (projected sequential merge form)",
        ("f", "n"),
        _construct_psm,
    ),
    RegistryEntry(
        "two_slope_fill_in",
        "two-slope interpolation of a finite group function",
        ("q", "f_index", "values", "s_plus", "s_minus"),
        _construct_two_slope_fill_in,
    ),
    RegistryEntry(
        "multiplicative_homomorphism",
        "precompose with x -> lam * x",
        ("fn", "lam"),
        _construct_mult_hom,
    ),
    RegistryEntry("negation", "precompose with x -> -x", ("fn",), _construct_negation),
    RegistryEntry(
        "affine_combine",
        "a * fn1 + b * fn2 for functions sharing f",
        ("a", "fn1", "b", "fn2"),
        _construct_affine_combine,
    ),
    # Catalogued families without a constructor in this version.
    RegistryEntry("gj_2_slope", "general two-slope extreme family", ("f", "lambda"), None),
    RegistryEntry("gj_forward_3_slope", "forward three-slope extreme family", ("f", "lambda"), None),
    RegistryEntry("drlm_backward_3_slope", "backward three-slope family", ("f", "bkpt"), None),
    RegistryEntry("drlm_not_extreme_1", "minimal non-extreme example", ("f",), None),
    RegistryEntry(
        "dr_projected_sequential_merge_3_slope",
        "three-slope projected sequential merge family",
        ("f", "n"),
        None,
    ),
    RegistryEntry("ll_strong_fractional", "discontinuous strong fractional cut", ("f",), None),
    RegistryEntry("kf_n_step_mir", "n-step mixed-integer-rounding family", ("f", "steps"), None),
    RegistryEntry("bhk_irrational", "irrational-breakpoint extreme family", ("f", "d1", "d2"), None),
    RegistryEntry("chen_4_slope", "four-slope extreme family", ("f", "s_pos", "s_neg"), None),
]

REGISTRY: Dict[str, RegistryEntry] = {e.name: e for e in _ENTRIES}


def list_registry() -> List[RegistryEntry]:
    return list(_ENTRIES)


def construct(name: str, **params) -> PwlPeriodic:
    """Build a registry family by name; stub families raise with a message."""
    entry = REGISTRY.get(name)
    if entry is None:
        raise KeyError(f"unknown family {name!r}")
    if entry.builder is None:
        raise NotImplementedError(
            f"family {name!r} is catalogued but has no constructor in this version"
        )
    return entry.builder(params)
