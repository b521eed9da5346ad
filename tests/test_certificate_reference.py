"""The shared integer ε scan against the two scans it replaced.

ε and whole verdicts, certificates included, must be ``==`` to
``certificate_reference`` on the m = 3 restrictions of λ·gmic + (1−λ)·psi_k
and on the infinite combinations, whose endpoints must be the
``affine_combine`` of the reference ε.  A perturbation that is not additive
at a tight pair must be refused in both settings; the finite scan refuses
a vector not symmetric about f too.
"""

from fractions import Fraction

import pytest

import certificate_reference as ref
from groupcut import (
    ExtremalityVerdict,
    FiniteGroupFn,
    PerturbationCertificate,
    PsiParams,
    additivity_report,
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
from groupcut import finite
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
    slack, dbar = min_slack_ratio(iv, ib, g.f_index)
    assert F(slack * db, 2 * dv * dbar) == ref.finite_epsilon(g, bar)


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("lam", LAMBDAS)
def test_combination_matches_reference(k, lam):
    fn = combination(k, lam)
    basis = perturbation_space_basis(fn)
    bar = interpolate_perturbation(basis.vectors[0], basis.grid_n, fn.f)
    fn_b = with_f_breakpoint(fn)
    assert epsilon_ratio_test(fn_b, bar) == ref.epsilon_ratio_test(fn_b, bar)
    verdict = extremality_test(fn)
    assert not verdict.extreme
    # The verdict the reference ε gives, with endpoints from affine_combine.
    eps = ref.epsilon_ratio_test(fn_b, bar)
    expected = ExtremalityVerdict(
        extreme=False,
        oversampling=3,
        grid_n=basis.grid_n,
        basis_dimension=len(basis.vectors),
        covered_intervals=verdict.covered_intervals,
        certificate=PerturbationCertificate(
            perturbation=make_pwl(bar.f, bar.breakpoints, [(eps * v,) * 3 for _, v, _ in bar.limits]),
            epsilon=F(1),
            pi_plus=affine_combine(1, fn_b, eps, bar),
            pi_minus=affine_combine(1, fn_b, -eps, bar),
        ),
    )
    assert verdict == expected
    assert repr(verdict) == repr(expected)
    assert verdict.covered_intervals == additivity_report(fn_b).covered_intervals


# gmic(4/5) on (1/5)Z: values 0, 1/4, 1/2, 3/4, 1.  The pair (1/5, 1/5) is
# tight (1/4 + 1/4 = 1/2), and both perturbations vanish at 0 and f but have
# Δ = 2 there.  The second is symmetric about f, b(x) + b(f - x) = 0; the
# first is not.
GMIC5 = FiniteGroupFn(5, 4, tuple(F(i, 4) for i in range(5)))
NOT_ADDITIVE_AT_TIGHT_PAIR = [F(0), F(1), F(0), F(0), F(0)]
SYMMETRIC_NOT_ADDITIVE_AT_TIGHT_PAIR = [F(0), F(1), F(0), F(-1), F(0)]
NOT_SYMMETRIC = "v\\(x\\) \\+ v\\(f - x\\) constant"


def test_scan_refuses_a_tight_pair_in_the_finite_setting():
    iv, _ = scale_to_integers(GMIC5.values)
    ib, _ = scale_to_integers(SYMMETRIC_NOT_ADDITIVE_AT_TIGHT_PAIR)
    with pytest.raises(ValueError, match="tight pair"):
        min_slack_ratio(iv, ib, GMIC5.f_index)
    ib, _ = scale_to_integers(NOT_ADDITIVE_AT_TIGHT_PAIR)
    with pytest.raises(ValueError, match=NOT_SYMMETRIC):
        min_slack_ratio(iv, ib, GMIC5.f_index)


def test_finite_test_refuses_a_tight_pair(monkeypatch):
    for bar, refusal in (
        (SYMMETRIC_NOT_ADDITIVE_AT_TIGHT_PAIR, "tight pair"),
        (NOT_ADDITIVE_AT_TIGHT_PAIR, NOT_SYMMETRIC),
    ):
        # The per-pair scan read ε = 0 here: both endpoints of its certificate were g.
        old = ref.finite_extremality_test(GMIC5, basis=[bar])
        assert old.certificate.epsilon == 0
        assert old.certificate.g_plus == old.certificate.g_minus == GMIC5
        monkeypatch.setattr(finite, "_finite_basis", lambda g: [bar])
        with pytest.raises(ValueError, match=refusal):
            finite_extremality_test(GMIC5)


def test_scan_refuses_a_tight_pair_in_the_infinite_setting():
    fn = gmic(F45)
    bump = make_pwl(F45, [0, F(1, 5), F(2, 5)], [(0, 0, 0), (F(1, 5),) * 3, (0, 0, 0)])
    n = 5
    iv, _ = scale_to_integers([fn(F(i, n)) for i in range(n)])
    ib, _ = scale_to_integers([bump(F(i, n)) for i in range(n)])
    # The bump is not symmetric about f, so the finite scan refuses it for that.
    with pytest.raises(ValueError, match=NOT_SYMMETRIC):
        min_slack_ratio(iv, ib, 4)
    ib, _ = scale_to_integers(SYMMETRIC_NOT_ADDITIVE_AT_TIGHT_PAIR)
    with pytest.raises(ValueError, match="tight pair"):
        min_slack_ratio(iv, ib, 4)
    with pytest.raises(ValueError, match="tight pair"):
        epsilon_ratio_test(fn, bump)
    with pytest.raises(ValueError, match="tight pair"):
        ref.epsilon_ratio_test(fn, bump)


def test_scan_keeps_the_first_least_ratio():
    # Both vectors are symmetric about f = 1.
    assert min_slack_ratio([0, 2, 1, 1], [0, 0, 0, 0], 1) is None
    # In the order of the all-pairs scan the non-additive pairs give
    # (slack, |Δb|) = (3, 2), (2, 4), (3, 2), (2, 4), (1, 2); the least ratio
    # 1/2 is first met as (2, 4), and the later tie (1, 2) does not replace
    # it.  The triple scan reads (3, 2), (2, 4) and (1, 2), from (1, 1),
    # (1, 2) and (3, 3), and keeps (2, 4) as well.
    assert min_slack_ratio([0, 2, 1, 1], [0, -2, -2, 0], 1) == (2, 4)
    assert ref.min_slack_ratio([0, 2, 1, 1], [0, -2, -2, 0]) == (2, 4)
