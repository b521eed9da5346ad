"""Extremality test via an oversampled finite restriction.

For a continuous minimal piecewise linear function with breakpoints in
(1/q)Z, extremality is equivalent to the triviality of the space of
perturbations that vanish at 0 and f and are additive wherever the function
is; sampling that space on the grid (1/(mq))Z with m >= 3 loses nothing.
The additive grid pairs are read off the additive faces of the complex
(never by scanning all (mq)^2 pairs) and handed to the run-compressed
solver; a nontrivial solution is turned into a certificate consisting of an
interpolated perturbation and an exact ε with both endpoints minimal.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from .complex2d import (
    AdditivityReport,
    _additive_face_runs,
    additivity_report,
    scaled_slacks,
    scaled_vertices,
)
from .minimality import minimality_test, with_f_breakpoint
from .pwl import MAX_GRID_N  # noqa: F401 -- re-exported as extremality.MAX_GRID_N
from .pwl import PwlPeriodic, _Record, affine_combine, check_grid_size, interpolate_grid
from .rational import least_ratio
from .solver import Run, perturbation_space


class PerturbationBasis(_Record):
    _fields = ("grid_n", "f_index", "vectors")
    grid_n: int
    f_index: int
    vectors: Tuple[Tuple[Fraction, ...], ...]


class PerturbationCertificate(_Record):
    _fields = ("perturbation", "epsilon", "pi_plus", "pi_minus")
    perturbation: PwlPeriodic
    epsilon: Fraction
    pi_plus: PwlPeriodic
    pi_minus: PwlPeriodic


class ExtremalityVerdict(_Record):
    _fields = ("extreme", "oversampling", "grid_n", "basis_dimension", "covered_intervals", "certificate")
    extreme: bool
    oversampling: int
    grid_n: int
    basis_dimension: int
    covered_intervals: Tuple[Tuple[Fraction, Fraction], ...]
    certificate: Optional[PerturbationCertificate] = None


def _additive_system(
    fn: PwlPeriodic, oversampling: int
) -> Tuple[PwlPeriodic, int, int, AdditivityReport, List[Run]]:
    """fn canonical and with f as a breakpoint, so that inputs equal under
    ``==`` get one answer; the grid n = oversampling·q, the index of f on
    it, the additivity report and the additive runs on the grid.

    A discontinuous fn, an oversampling factor that is not an ``int`` or is
    below 3, and a grid n above ``MAX_GRID_N`` are refused before the
    minimality test runs.
    """
    if not fn.is_continuous():
        raise ValueError("extremality test supports continuous functions only")
    if type(oversampling) is not int:
        raise ValueError(f"oversampling must be an integer, got {oversampling!r}")
    if oversampling < 3:
        raise ValueError("oversampling factor must be at least 3")
    fn = with_f_breakpoint(fn.canonicalize())
    n = oversampling * fn.denominator_lcm()
    check_grid_size(n)
    mv = minimality_test(fn)
    if not mv.minimal:
        raise ValueError(f"extremality test requires a minimal function: {mv.witness}")
    report = additivity_report(fn)
    return fn, n, int(fn.f * n), report, _additive_face_runs(report, n)


def restriction_additive_pairs(fn: PwlPeriodic, oversampling: int = 3):
    """All additive grid pairs E(π) ∩ ((1/(mq))Z)^2 as fractions in [0,1)."""
    _, n, _, _, runs = _additive_system(fn, oversampling)
    pairs = set()
    for kind, c, lo, hi in runs:
        for t in range(lo, hi + 1):
            if kind == "h":
                i, j = t, c
            elif kind == "v":
                i, j = c, t
            else:
                i, j = t, c - t
            pairs.add((Fraction(i % n, n), Fraction(j % n, n)))
    return sorted(pairs)


def perturbation_space_basis(fn: PwlPeriodic, oversampling: int = 3) -> PerturbationBasis:
    """Deterministic basis of the additive perturbation space on the grid."""
    _, n, f_index, _, runs = _additive_system(fn, oversampling)
    basis = perturbation_space(n, f_index, runs)
    return PerturbationBasis(
        grid_n=n, f_index=f_index, vectors=tuple(tuple(v) for v in basis)
    )


def interpolate_perturbation(vector: Sequence[Fraction], grid_n: int, f) -> PwlPeriodic:
    """Canonical continuous interpolant of a grid vector (``interpolate_grid``)."""
    return interpolate_grid(vector, grid_n, f)


def epsilon_ratio_test(fn: PwlPeriodic, perturbation: PwlPeriodic) -> Fraction:
    """Largest ε with Δ(fn ± ε·perturbation) >= 0 wherever Δ(perturbation) ≠ 0,
    for continuous fn and perturbation and a subadditive fn.

    Both Δfn and Δperturbation are affine on each face of the complex on
    the union of the two breakpoint sets, so Δfn ± ε·Δperturbation is >= 0
    on the grid (1/n)Z², n the lcm of the two denominators, exactly when it
    is >= 0 at the vertices of that complex, which lie on the grid.  So ε is
    the least slack / |Δperturbation| over those vertices, where
    Δperturbation ≠ 0.  Raises ValueError if either function has a jump,
    if the perturbation is identically zero, if it is non-additive at a
    tight pair of fn, or if fn is not subadditive.  A perturbation not
    identically zero has Δ ≠ 0 at some vertex: else Δ would vanish on each
    face, where it is affine, and it would be continuous and additive on
    R/Z, hence 0.
    """
    if not (fn.is_continuous() and perturbation.is_continuous()):
        raise ValueError("epsilon ratio test supports continuous functions only")
    if not any(v for _, v, _ in perturbation.limits):
        raise ValueError("perturbation is identically zero")
    n, verts = scaled_vertices(fn, perturbation)
    verts = [(x, y) for x, y in verts if x <= y]
    slacks, dv = scaled_slacks(fn, n, verts)
    deltas, db = scaled_slacks(perturbation, n, verts)
    best_s, best_d = least_ratio(zip(slacks, deltas))
    # least_ratio refused every slack <= 0 where Δb ≠ 0.
    if min(slacks) < 0:
        raise ValueError("epsilon ratio test requires a subadditive function")
    # The ratio at a vertex is (slack/dv) / (|Δb|/db).
    return Fraction(best_s * db, dv * best_d)


def extremality_test(fn: PwlPeriodic, oversampling: int = 3) -> ExtremalityVerdict:
    """Decide extremality; non-extreme functions come with a certificate.

    Its endpoints π± = π ± ε·bar are minimal for the ε of ``epsilon_ratio_test``:
    Δπ± >= 0 at the vertices of the common complex, so everywhere; bar(0) =
    bar(f) = 0 and bar is additive on the symmetry line, as π is; and
    0 = π±(k·x) <= k·π±(x) for x in (1/k)Z.  A failed re-check raises.
    """
    fn_b, n, f_index, report, runs = _additive_system(fn, oversampling)
    basis = perturbation_space(n, f_index, runs)
    if not basis:
        return ExtremalityVerdict(
            extreme=True,
            oversampling=oversampling,
            grid_n=n,
            basis_dimension=0,
            covered_intervals=report.covered_intervals,
        )
    # perturbation_space returns its basis in reduced row echelon form, and
    # lifts only the vectors read: here the first.
    bar = interpolate_perturbation(basis[0], n, fn_b.f)
    eps = epsilon_ratio_test(fn_b, bar)
    pi_plus = affine_combine(1, fn_b, eps, bar)
    pi_minus = affine_combine(1, fn_b, -eps, bar)
    if not (minimality_test(pi_plus).minimal and minimality_test(pi_minus).minimal):
        raise RuntimeError("could not validate a perturbation certificate")
    # Normalize so the certified interval is fn ± 1 * perturbation;
    # the admissible magnitude is absorbed into the perturbation.  bar is
    # continuous and canonical, and ε > 0 keeps every change of slope.
    scaled_bar = PwlPeriodic(bar.f, bar.breakpoints, [(eps * v,) * 3 for _, v, _ in bar.limits])
    return ExtremalityVerdict(
        extreme=False,
        oversampling=oversampling,
        grid_n=n,
        basis_dimension=len(basis),
        covered_intervals=report.covered_intervals,
        certificate=PerturbationCertificate(
            perturbation=scaled_bar, epsilon=Fraction(1), pi_plus=pi_plus, pi_minus=pi_minus
        ),
    )


def facetness_test(fn: PwlPeriodic, oversampling: int = 3) -> ExtremalityVerdict:
    """Facetness coincides with extremality for continuous rational
    piecewise linear minimal functions; the verdict is shared."""
    return extremality_test(fn, oversampling)
