"""Passes that were dropped because an earlier step already did the work."""

from fractions import Fraction
from math import lcm
from typing import Optional

import pytest

from groupcut import (
    RatMatrix,
    affine_combine,
    delta_pi,
    delta_vertices,
    epsilon_ratio_test,
    interpolate_perturbation,
    make_pwl,
    perturbation_space_basis,
    projected_sequential_merge,
    rref,
    gmic,
    with_f_breakpoint,
)
from groupcut.complex2d import scaled_slacks, scaled_vertices

F = Fraction


def epsilon_ratio_reference(fn, perturbation) -> Fraction:
    """The ratio scan with one Fraction per non-additive pair."""
    n = lcm(fn.denominator_lcm(), perturbation.denominator_lcm())
    v = [fn(F(i, n)) for i in range(n)]
    b = [perturbation(F(i, n)) for i in range(n)]
    dv = lcm(*(x.denominator for x in v))
    db = lcm(*(x.denominator for x in b))
    iv = [int(x * dv) for x in v]
    ib = [int(x * db) for x in b]
    best: Optional[Fraction] = None
    for i in range(n):
        for j in range(i, n):
            dbar = ib[i] + ib[j] - ib[(i + j) % n]
            if dbar == 0:
                continue
            ratio = F(iv[i] + iv[j] - iv[(i + j) % n], dv) / F(abs(dbar), db)
            if best is None or ratio < best:
                best = ratio
    return best


@pytest.fixture(scope="module")
def combos(gmic45, psi45_stages):
    return [
        affine_combine(lam, gmic45, 1 - lam, psi45_stages[k])
        for k, lam in ((1, F(1, 2)), (2, F(1, 3)), (3, F(3, 4)))
    ]


def test_basis_is_already_reduced(combos):
    for fn in combos:
        basis = [list(v) for v in perturbation_space_basis(fn).vectors]
        assert basis
        reduced, _ = rref(RatMatrix(basis))
        assert reduced == basis


def test_epsilon_matches_fraction_scan(combos):
    for fn in combos:
        basis = perturbation_space_basis(fn)
        bar = interpolate_perturbation(basis.vectors[0], basis.grid_n, fn.f)
        fn_b = with_f_breakpoint(fn)
        assert epsilon_ratio_test(fn_b, bar) == epsilon_ratio_reference(fn_b, bar)


@pytest.mark.parametrize(
    "fn",
    [
        gmic(F(4, 5)),
        # f = 2/5 is not a breakpoint, and 1/5 carries no kink.
        make_pwl(F(2, 5), [0, F(1, 5), F(1, 2)], [(0, 0, 0), (F(2, 5),) * 3, (1, 1, 1)]),
        projected_sequential_merge(gmic(F(1, 5)), 2),
        make_pwl(F(4, 5), [0], [(F(5, 4), 0, 0)]),
    ],
)
def test_single_f_insertion_is_the_double_one(fn):
    once = with_f_breakpoint(fn.canonicalize())
    twice = with_f_breakpoint(with_f_breakpoint(fn).canonicalize())
    assert (once.f, once.breakpoints, once.limits) == (twice.f, twice.breakpoints, twice.limits)


def test_vertex_slacks_are_delta_pi(combos):
    # One fn evaluation per scaled coordinate gives Δπ exactly as three
    # evaluations per vertex did, in the vertex order of delta_vertices.
    # Subtracting a sawtooth, which has a jump, makes some slacks negative.
    sawtooth = make_pwl(F(4, 5), [0], [(1, 0, 0)])
    fns = combos + [affine_combine(1, fn, -F(1, 3), sawtooth) for fn in combos]
    negative = 0
    for fn in map(with_f_breakpoint, fns):
        q, verts = scaled_vertices(fn)
        slacks, d = scaled_slacks(fn, q, verts)
        vertices = delta_vertices(fn)
        assert [(F(x, q), F(y, q)) for x, y in verts] == vertices
        expected = [delta_pi(fn, *v) for v in vertices]
        assert [F(s, d) for s in slacks] == expected
        negative += any(slack < 0 for slack in expected)
    assert negative
