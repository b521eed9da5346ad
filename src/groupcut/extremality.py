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

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import List, Optional, Sequence, Tuple

from .complex2d import DeltaFace, additivity_report
from .minimality import min_slack_ratio, minimality_test, with_f_breakpoint
from .pwl import PwlPeriodic, affine_combine, grid_values, pwl_from_values
from .rational import scale_to_integers
from .solver import Run, perturbation_space


@dataclass(frozen=True)
class PerturbationBasis:
    grid_n: int
    f_index: int
    vectors: Tuple[Tuple[Fraction, ...], ...]


@dataclass(frozen=True)
class PerturbationCertificate:
    perturbation: PwlPeriodic
    epsilon: Fraction
    pi_plus: PwlPeriodic
    pi_minus: PwlPeriodic


@dataclass(frozen=True)
class ExtremalityVerdict:
    extreme: bool
    oversampling: int
    grid_n: int
    basis_dimension: int
    covered_intervals: Tuple[Tuple[Fraction, Fraction], ...]
    certificate: Optional[PerturbationCertificate] = None


def _additive_face_runs(faces: Sequence[DeltaFace], n: int) -> List[Run]:
    """Unit-step runs covering every grid pair inside the additive faces.

    Face vertices lie on (1/q)Z and q | n, so all scaled coordinates are
    integers and two-dimensional faces decompose exactly into grid rows;
    the rows are computed in integer arithmetic.
    """

    def at(x: Fraction) -> int:
        return x.numerator * (n // x.denominator)

    runs: List[Run] = []
    for face in faces:
        if face.dim == 0:
            (x, y), = face.vertices
            runs.append(("h", at(y), at(x), at(x)))
        elif face.dim == 1:
            (x0, y0), (x1, y1) = face.vertices
            if y0 == y1:
                runs.append(("h", at(y0), at(x0), at(x1)))
            elif x0 == x1:
                runs.append(("v", at(x0), at(min(y0, y1)), at(max(y0, y1))))
            else:
                runs.append(("d", at(x0 + y0), at(min(x0, x1)), at(max(x0, x1))))
        else:
            x_lo, x_hi = map(at, face.interval_x)
            y_lo, y_hi = map(at, face.interval_y)
            z_lo, z_hi = map(at, face.interval_z)
            for j in range(y_lo, y_hi + 1):
                lo = max(x_lo, z_lo - j)
                hi = min(x_hi, z_hi - j)
                if lo <= hi:
                    runs.append(("h", j, lo, hi))
    return sorted(set(runs))


def _grid_check(fn: PwlPeriodic, oversampling: int) -> Tuple[PwlPeriodic, int, int]:
    mv = minimality_test(fn)
    if not mv.minimal:
        raise ValueError(f"extremality test requires a minimal function: {mv.witness}")
    if not fn.is_continuous():
        raise ValueError("extremality test supports continuous functions only")
    if oversampling < 3:
        raise ValueError("oversampling factor must be at least 3")
    fn = with_f_breakpoint(fn)
    q = fn.denominator_lcm()
    return fn, q, oversampling * q


def restriction_additive_pairs(fn: PwlPeriodic, oversampling: int = 3):
    """All additive grid pairs E(π) ∩ ((1/(mq))Z)^2 as fractions in [0,1)."""
    fn, _, n = _grid_check(fn, oversampling)
    report = additivity_report(fn)
    pairs = set()
    for kind, c, lo, hi in _additive_face_runs(report.additive_faces, n):
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
    fn, _, n = _grid_check(fn, oversampling)
    report = additivity_report(fn)
    runs = _additive_face_runs(report.additive_faces, n)
    f_index = int(fn.f * n)
    basis = perturbation_space(n, f_index, runs)
    return PerturbationBasis(
        grid_n=n, f_index=f_index, vectors=tuple(tuple(v) for v in basis)
    )


def interpolate_perturbation(vector: Sequence[Fraction], grid_n: int, f) -> PwlPeriodic:
    """Continuous interpolant of a grid perturbation vector."""
    pts = [(Fraction(i, grid_n), Fraction(v)) for i, v in enumerate(vector)]
    return pwl_from_values(Fraction(f), pts).canonicalize()


def epsilon_ratio_test(fn: PwlPeriodic, perturbation: PwlPeriodic) -> Fraction:
    """Largest ε with Δ(fn ± ε·perturbation) >= 0 wherever Δ(perturbation) ≠ 0.

    Both functions are sampled on their common refinement grid, where the
    vertices of the refined complex live.  Raises if the perturbation is
    identically zero or is non-additive at a tight pair of fn.
    """
    n = lcm(fn.denominator_lcm(), perturbation.denominator_lcm())
    iv, dv = scale_to_integers(grid_values(fn, n))
    ib, db = scale_to_integers(grid_values(perturbation, n))
    if not any(ib):
        raise ValueError("perturbation is identically zero")
    # The ratio at a pair is (slack/dv) / (|Δb|/db); the factor db/dv > 0
    # does not change which pair is least.
    pair = min_slack_ratio(iv, ib)
    if pair is None:
        raise ValueError("perturbation has no non-additive pair; ratio is unbounded")
    slack, dbar = pair
    return Fraction(slack * db, dv * dbar)


def extremality_test(fn: PwlPeriodic, oversampling: int = 3) -> ExtremalityVerdict:
    """Decide extremality; non-extreme functions come with a certificate."""
    fn_b, _, n = _grid_check(fn, oversampling)
    report = additivity_report(fn_b)
    runs = _additive_face_runs(report.additive_faces, n)
    f_index = int(fn_b.f * n)
    basis = perturbation_space(n, f_index, runs)
    if not basis:
        return ExtremalityVerdict(
            extreme=True,
            oversampling=oversampling,
            grid_n=n,
            basis_dimension=0,
            covered_intervals=report.covered_intervals,
        )
    # perturbation_space returns its basis in reduced row echelon form.
    bar = interpolate_perturbation(basis[0], n, fn_b.f)
    eps = epsilon_ratio_test(fn_b, bar)
    for _ in range(64):
        pi_plus = affine_combine(1, fn_b, eps, bar)
        pi_minus = affine_combine(1, fn_b, -eps, bar)
        if minimality_test(pi_plus).minimal and minimality_test(pi_minus).minimal:
            # Normalize so the certified interval is fn ± 1 * perturbation;
            # the admissible magnitude is absorbed into the perturbation.
            scaled_bar = affine_combine(eps, bar, 0, bar)
            cert = PerturbationCertificate(
                perturbation=scaled_bar, epsilon=Fraction(1), pi_plus=pi_plus, pi_minus=pi_minus
            )
            return ExtremalityVerdict(
                extreme=False,
                oversampling=oversampling,
                grid_n=n,
                basis_dimension=len(basis),
                covered_intervals=report.covered_intervals,
                certificate=cert,
            )
        eps /= 2
    raise RuntimeError("could not validate a perturbation certificate")


def facetness_test(fn: PwlPeriodic, oversampling: int = 3) -> ExtremalityVerdict:
    """Facetness coincides with extremality for continuous rational
    piecewise linear minimal functions; the verdict is shared."""
    return extremality_test(fn, oversampling)
