from fractions import Fraction

import pytest

from groupcut import (
    FiniteGroupFn,
    PsiParams,
    construct,
    generate_eps,
    gmic,
    list_registry,
    make_pwl,
    minimality_test,
    multiplicative_homomorphism,
    negation,
    projected_sequential_merge,
    psi_n,
    psi_stages,
    restrict_to_finite_group,
    sequential_merge,
    slope_report,
    two_slope_fill_in,
)
from groupcut.compendium import MU_EQ_1, MU_LT_1

F = Fraction


class TestGmic:
    def test_shape(self):
        fn = gmic(F(2, 3))
        assert fn(0) == 0
        assert fn(F(2, 3)) == 1
        assert fn.slopes == (F(3, 2), F(-3))

    def test_domain(self):
        with pytest.raises(ValueError):
            gmic(0)
        with pytest.raises(ValueError):
            gmic(1)


class TestGenerateEps:
    def test_geometric(self):
        eps = generate_eps(F(4, 5), 3)
        assert eps == [F(1, 5), F(1, 20), F(1, 80)]

    def test_variant_mu_eq_1(self):
        eps = generate_eps(F(1, 2), 2, MU_EQ_1)
        assert eps == [F(1, 4), F(1, 16)]

    def test_variant_bounds(self):
        with pytest.raises(ValueError):
            generate_eps(F(9, 10), 2, MU_LT_1)
        with pytest.raises(ValueError):
            generate_eps(F(3, 5), 2, MU_EQ_1)
        with pytest.raises(ValueError):
            generate_eps(F(1, 2), -1)
        with pytest.raises(ValueError):
            generate_eps(F(1, 2), 1, "other")


class TestPsiParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            PsiParams(F(1, 2), (F(0),))
        with pytest.raises(ValueError):
            PsiParams(F(1, 2), (F(1, 8), F(1, 8)))
        with pytest.raises(ValueError):
            PsiParams(F(1, 2), (F(3, 4),))
        # Total negative-slope mass exceeding 1 is rejected.
        with pytest.raises(ValueError):
            PsiParams(F(1, 5), (F(2, 5), F(39, 100)))
        with pytest.raises(ValueError, match="f must lie strictly between 0 and 1, got 1"):
            PsiParams(F(1), (F(1, 8),))

    def test_amplitude_too_large_for_a_segment(self):
        # eps_1 = f passes the mass check, (1 - f) + eps_1 = 1, but fills the
        # whole positive-slope segment [0, f].
        with pytest.raises(ValueError, match="amplitude too large for a positive-slope segment"):
            psi_stages(PsiParams(F(1, 5), (F(1, 5),)))

    def test_accepts_standard(self):
        PsiParams(F(4, 5), tuple(generate_eps(F(4, 5), 4)))


class TestPsiStages:
    def test_stage_zero_is_gmic(self, psi45_stages, gmic45):
        assert psi45_stages[0] == gmic45

    def test_two_slopes_throughout(self, psi45_stages):
        # The falling slope is always -1/(1-f); the rising slope steepens
        # as each stage packs the same climb into less horizontal room.
        for stage in psi45_stages:
            report = slope_report(stage)
            assert len(report.distinct_slopes) == 2
            assert report.distinct_slopes[0] == F(-5)
            assert report.distinct_slopes[1] > 0

    def test_negative_interval_doubling(self, psi45_stages):
        for n, stage in enumerate(psi45_stages):
            slopes = stage.canonicalize().slopes
            runs = sum(
                1
                for i, s in enumerate(slopes)
                if s < 0 and (i == 0 or slopes[i - 1] >= 0)
            )
            assert runs == 2**n

    def test_denominators(self, psi45_stages):
        assert [s.denominator_lcm() for s in psi45_stages] == [5, 10, 40, 160, 640]

    def test_psi_n_is_last_stage(self, psi45_stages):
        params = PsiParams(F(4, 5), tuple(generate_eps(F(4, 5), 4)))
        assert psi_n(params) == psi45_stages[-1]


class TestSequentialMerge:
    def test_boundary_values(self, gmic45):
        inner = gmic(F(1, 5))
        merge = sequential_merge(gmic(F(1, 4)), inner)
        assert merge.f_total == F(1, 5) + F(1, 4)
        assert merge.value(0, 0) == 0
        assert merge.lifting(0) == 0
        assert merge.lifting(F(1, 5)) == F(1, 5) - F(1, 5)

    def test_value_formula(self):
        inner, outer = gmic(F(1, 5)), gmic(F(1, 4))
        merge = sequential_merge(outer, inner)
        x1, x2 = F(1, 10), F(1, 8)
        expected = (
            inner(x1) * inner.f + outer.f * outer(x1 + x2 - inner(x1) * inner.f)
        ) / (inner.f + outer.f)
        assert merge.value(x1, x2) == expected


class TestProjectedSequentialMerge:
    def test_known_instance(self, psm15):
        assert psm15.f == F(2, 5)
        assert slope_report(psm15).distinct_slopes == (F(-15, 4), F(115, 16))
        assert minimality_test(psm15).minimal

    def test_direct_branch(self, gmic45):
        # n = 1 keeps f: (n^2 - 1) f is always an integer.
        out = projected_sequential_merge(gmic45, 1)
        assert out.f == F(4, 5)
        assert minimality_test(out).minimal

    def test_inadmissible_parameters(self):
        with pytest.raises(ValueError, match="admissible"):
            projected_sequential_merge(gmic(F(1, 7)), 2)

    def test_bad_n(self, gmic45):
        with pytest.raises(ValueError):
            projected_sequential_merge(gmic45, 0)
        with pytest.raises(ValueError):
            projected_sequential_merge(gmic45, 2)

    def test_discontinuous_refused(self):
        # π(x) = x on [0, 1) jumps at 0; f = 1/5 passes the check n·f < 1.
        jump = make_pwl(F(1, 5), [0], [(F(1), 0, 0)])
        with pytest.raises(ValueError, match="requires a continuous function"):
            projected_sequential_merge(jump, 2)


class TestTwoSlopeFillIn:
    def test_reproduces_gmic(self, gmic45):
        g = restrict_to_finite_group(gmic45, 5)
        assert two_slope_fill_in(g, F(5, 4), F(-5)) == gmic45

    def test_slope_order_required(self, gmic45):
        g = restrict_to_finite_group(gmic45, 5)
        with pytest.raises(ValueError):
            two_slope_fill_in(g, F(-5), F(5, 4))

    def test_segment_slope_outside_range(self, gmic45):
        g = restrict_to_finite_group(gmic45, 5)
        with pytest.raises(ValueError):
            two_slope_fill_in(g, F(1), F(-1))


class TestAutomorphisms:
    def test_multiplicative(self, gmic45):
        fn = multiplicative_homomorphism(gmic45, 3)
        for x in (F(1, 10), F(2, 7)):
            assert fn(x) == gmic45(3 * x)

    def test_negation_preserves_minimality(self, gmic45):
        assert minimality_test(negation(gmic45)).minimal


class TestRegistry:
    def test_listing(self):
        entries = list_registry()
        names = [e.name for e in entries]
        assert "gmic" in names and "psi_n" in names
        assert len(names) == len(set(names))

    def test_construct_gmic(self, gmic45):
        assert construct("gmic", f=F(4, 5)) == gmic45

    def test_construct_affine_combine(self, gmic45, psi45_stages, combo):
        assert construct("affine_combine", a=F(1, 2), fn1=gmic45, b=F(1, 2), fn2=psi45_stages[1]) == combo

    def test_construct_psi(self, psi45_stages):
        assert construct("psi_n", f=F(4, 5), n=2) == psi45_stages[2]

    def test_construct_two_slope_fill_in(self, gmic45):
        fn = construct(
            "two_slope_fill_in",
            q=5,
            f_index=4,
            values=[F(0), F(1, 4), F(1, 2), F(3, 4), F(1)],
            s_plus=F(25, 16),
            s_minus=F(-5),
        )
        assert slope_report(fn).distinct_slopes == (F(-5), F(25, 16))

    def test_alias_matches(self, psm15):
        assert construct("dg_2_step_mir", f=F(1, 5), n=2) == psm15

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            construct("no_such_family")

    def test_stub_families_raise(self):
        for entry in list_registry():
            if not entry.constructible:
                with pytest.raises(NotImplementedError):
                    construct(entry.name)
