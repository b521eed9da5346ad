"""The two ε ratio scans as they were before they shared one integer scan,
kept as oracles for ``epsilon_ratio_test`` and ``finite_extremality_test``,
and the all-pairs loop of ``min_slack_ratio`` as it was before it read only
the rows that can lower its ratio.

``epsilon_ratio_test`` indexes the sampled lists pair by pair and keeps its
running minimum as integer cross products.  ``finite_extremality_test``
builds one Fraction ratio per non-additive pair; at a tight pair where the
perturbation is not additive its ε is 0, and it returns a "certificate"
whose endpoints are the input itself.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from groupcut import (
    FiniteExtremalityVerdict,
    FiniteGroupFn,
    PwlPeriodic,
    finite_minimality_test,
    finite_perturbation_basis,
)
from groupcut.finite import FiniteCertificate


def epsilon_ratio_test(fn: PwlPeriodic, perturbation: PwlPeriodic) -> Fraction:
    n = lcm(fn.denominator_lcm(), perturbation.denominator_lcm())
    v = [fn(Fraction(i, n)) for i in range(n)]
    b = [perturbation(Fraction(i, n)) for i in range(n)]
    dv = lcm(*(x.denominator for x in v))
    db = lcm(*(x.denominator for x in b))
    iv = [int(x * dv) for x in v]
    ib = [int(x * db) for x in b]
    if all(x == 0 for x in ib):
        raise ValueError("perturbation is identically zero")
    best_s, best_d = 0, 0
    for i in range(n):
        vi, bi = iv[i], ib[i]
        for j in range(i, n):
            dbar = bi + ib[j] - ib[(i + j) % n]
            if dbar == 0:
                continue
            slack = vi + iv[j] - iv[(i + j) % n]
            if slack <= 0:
                raise ValueError(
                    "perturbation is non-additive at a tight pair of the function"
                )
            dbar = abs(dbar)
            if best_d == 0 or slack * best_d < best_s * dbar:
                best_s, best_d = slack, dbar
    if best_d == 0:
        raise ValueError("perturbation has no non-additive pair; ratio is unbounded")
    return Fraction(best_s * db, dv * best_d)


def min_slack_ratio(iv, ib, drops=None):
    """``finite.min_slack_ratio`` by one loop over all pairs; the row of
    each pair that lowers the running least ratio is appended to ``drops``
    when given."""
    n = len(iv)
    iv2, ib2 = list(iv) * 2, list(ib) * 2
    best_s = best_d = 0
    for i in range(n):
        vi, bi = iv[i], ib[i]
        start = 2 * i % n
        stop = start + n - i
        for vj, vk, bj, bk in zip(iv[i:], iv2[start:stop], ib[i:], ib2[start:stop]):
            d = bi + bj - bk
            if not d:
                continue
            slack = vi + vj - vk
            if slack <= 0:
                raise ValueError("perturbation is non-additive at a tight pair of the function")
            if d < 0:
                d = -d
            if not best_d or slack * best_d < best_s * d:
                best_s, best_d = slack, d
                if drops is not None:
                    drops.append(i)
    return (best_s, best_d) if best_d else None


def finite_epsilon(g: FiniteGroupFn, bar) -> Fraction:
    """Half the least slack-to-perturbation ratio, one Fraction per pair."""
    q = g.q
    eps = None
    for i in range(q):
        for j in range(i, q):
            dbar = bar[i] + bar[j] - bar[(i + j) % q]
            if dbar != 0:
                slack = g.values[i] + g.values[j] - g.values[(i + j) % q]
                ratio = slack / abs(dbar)
                if eps is None or ratio < eps:
                    eps = ratio
    return Fraction(1) if eps is None else eps / 2


def finite_extremality_test(g: FiniteGroupFn, basis=None) -> FiniteExtremalityVerdict:
    """The finite test with ``finite_epsilon``; ``basis`` replaces the
    solver's basis when given."""
    mv = finite_minimality_test(g)
    if not mv.minimal:
        raise ValueError(f"finite extremality test requires a minimal function: {mv.witness}")
    if basis is None:
        basis = finite_perturbation_basis(g)
    if not basis:
        return FiniteExtremalityVerdict(extreme=True, basis_dimension=0)
    bar = basis[0]
    q = g.q
    eps = finite_epsilon(g, bar)
    for _ in range(64):
        g_plus = FiniteGroupFn(q, g.f_index, tuple(v + eps * b for v, b in zip(g.values, bar)))
        g_minus = FiniteGroupFn(q, g.f_index, tuple(v - eps * b for v, b in zip(g.values, bar)))
        if finite_minimality_test(g_plus).minimal and finite_minimality_test(g_minus).minimal:
            perturbation = FiniteGroupFn(q, g.f_index, tuple(bar))
            cert = FiniteCertificate(perturbation=perturbation, epsilon=eps, g_plus=g_plus, g_minus=g_minus)
            return FiniteExtremalityVerdict(extreme=False, basis_dimension=len(basis), certificate=cert)
        eps /= 2
    raise RuntimeError("could not validate a finite perturbation certificate")
