"""The shared integer ε scan against the two scans it replaced.

ε and whole verdicts, certificates included, must be ``==`` to
``certificate_reference`` on the m = 3 restrictions of λ·gmic + (1−λ)·psi_k
and on the infinite combinations.  A perturbation that is not additive at a
tight pair must be refused in both settings.
"""

from fractions import Fraction

import pytest

import certificate_reference as ref
from groupcut import (
    FiniteGroupFn,
    PsiParams,
    affine_combine,
    epsilon_ratio_test,
    extremality_test,
    finite_extremality_test,
    generate_eps,
    gmic,
    interpolate_perturbation,
    make_pwl,
    perturbation_space_basis,
    psi_stages,
    restrict_to_finite_group,
    with_f_breakpoint,
)
from groupcut import extremality, finite
from groupcut.finite import min_slack_ratio
from groupcut.rational import scale_to_integers

F = Fraction
F45 = F(4, 5)
LAMBDAS = (F(1, 4), F(1, 2), F(2, 3))
PSI = psi_stages(PsiParams(F45, tuple(generate_eps(F45, 4))))


def combination(k, lam):
    return affine_combine(lam, gmic(F45), 1 - lam, PSI[k])


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("lam", LAMBDAS)
def test_finite_restriction_matches_reference(k, lam):
    fn = combination(k, lam)
    g = restrict_to_finite_group(fn, fn.denominator_lcm(), 3)
    verdict = finite_extremality_test(g)
    assert not verdict.extreme
    assert verdict == ref.finite_extremality_test(g)
    bar = finite.finite_perturbation_basis(g)[0]
    iv, dv = scale_to_integers(g.values)
    ib, db = scale_to_integers(bar)
    slack, dbar = min_slack_ratio(iv, ib)
    assert F(slack * db, 2 * dv * dbar) == ref.finite_epsilon(g, bar)


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("lam", LAMBDAS)
def test_combination_matches_reference(monkeypatch, k, lam):
    fn = combination(k, lam)
    basis = perturbation_space_basis(fn)
    bar = interpolate_perturbation(basis.vectors[0], basis.grid_n, fn.f)
    fn_b = with_f_breakpoint(fn)
    assert epsilon_ratio_test(fn_b, bar) == ref.epsilon_ratio_test(fn_b, bar)
    verdict = extremality_test(fn)
    assert not verdict.extreme
    monkeypatch.setattr(extremality, "epsilon_ratio_test", ref.epsilon_ratio_test)
    assert verdict == extremality_test(fn)


# gmic(4/5) on (1/5)Z: values 0, 1/4, 1/2, 3/4, 1.  The pair (1/5, 1/5) is
# tight (1/4 + 1/4 = 1/2), and this perturbation vanishes at 0 and f but has
# Δ = 2 there.
GMIC5 = FiniteGroupFn(5, 4, tuple(F(i, 4) for i in range(5)))
NOT_ADDITIVE_AT_TIGHT_PAIR = [F(0), F(1), F(0), F(0), F(0)]


def test_scan_refuses_a_tight_pair_in_the_finite_setting():
    iv, _ = scale_to_integers(GMIC5.values)
    ib, _ = scale_to_integers(NOT_ADDITIVE_AT_TIGHT_PAIR)
    with pytest.raises(ValueError, match="tight pair"):
        min_slack_ratio(iv, ib)


def test_finite_test_refuses_a_tight_pair(monkeypatch):
    # The per-pair scan read ε = 0 here: both endpoints of its certificate were g.
    old = ref.finite_extremality_test(GMIC5, basis=[NOT_ADDITIVE_AT_TIGHT_PAIR])
    assert old.certificate.epsilon == 0
    assert old.certificate.g_plus == old.certificate.g_minus == GMIC5
    monkeypatch.setattr(finite, "_finite_basis", lambda g: [NOT_ADDITIVE_AT_TIGHT_PAIR])
    with pytest.raises(ValueError, match="tight pair"):
        finite_extremality_test(GMIC5)


def test_scan_refuses_a_tight_pair_in_the_infinite_setting():
    fn = gmic(F45)
    bump = make_pwl(F45, [0, F(1, 5), F(2, 5)], [(0, 0, 0), (F(1, 5),) * 3, (0, 0, 0)])
    n = 5
    iv, _ = scale_to_integers([fn(F(i, n)) for i in range(n)])
    ib, _ = scale_to_integers([bump(F(i, n)) for i in range(n)])
    with pytest.raises(ValueError, match="tight pair"):
        min_slack_ratio(iv, ib)
    with pytest.raises(ValueError, match="tight pair"):
        epsilon_ratio_test(fn, bump)
    with pytest.raises(ValueError, match="tight pair"):
        ref.epsilon_ratio_test(fn, bump)


def test_scan_keeps_the_first_least_ratio():
    assert min_slack_ratio([0, 2, 1, 1], [0, 0, 0, 0]) is None
    # In scan order the non-additive pairs give (slack, |Δb|) = (3, 2),
    # (2, 4), (3, 2), (2, 4), (1, 2); the least ratio 1/2 is first met as
    # (2, 4), and the later tie (1, 2) does not replace it.
    assert min_slack_ratio([0, 2, 1, 1], [0, -2, -2, 0]) == (2, 4)
