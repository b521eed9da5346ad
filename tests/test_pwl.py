from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupcut import (
    PwlPeriodic,
    affine_combine,
    compose_pwl,
    eval_pwl,
    gmic,
    limit,
    make_pwl,
    precompose_scale,
    pwl_from_values,
    slope_report,
    sup_norm_distance,
)
from groupcut.pwl import AT, LEFT, RIGHT

F = Fraction


def frac_cut():
    """The discontinuous single-slope cut x -> 5x/4 on [0,1)."""
    return make_pwl(F(4, 5), [0], [(F(5, 4), 0, 0)])


class TestConstruction:
    def test_basic_invariants(self):
        with pytest.raises(ValueError):
            make_pwl(0, [0], [(0, 0, 0)])
        with pytest.raises(ValueError):
            make_pwl(F(1, 2), [F(1, 4)], [(0, 0, 0)])
        with pytest.raises(ValueError):
            make_pwl(F(1, 2), [0, F(1, 2), F(1, 4)], [(0, 0, 0)] * 3)
        with pytest.raises(ValueError):
            make_pwl(F(1, 2), [0, 1], [(0, 0, 0)] * 2)
        with pytest.raises(ValueError):
            make_pwl(F(1, 2), [0], [(0, 0, 0), (1, 1, 1)])

    def test_repr_and_foreign_equality(self, gmic45):
        assert repr(gmic45) == (
            "PwlPeriodic(f=4/5, breakpoints=[Fraction(0, 1), Fraction(4, 5)], "
            "limits=[(Fraction(0, 1), Fraction(0, 1), Fraction(0, 1)), "
            "(Fraction(1, 1), Fraction(1, 1), Fraction(1, 1))])"
        )
        assert gmic45.__eq__("gmic") is NotImplemented
        assert gmic45 != "gmic"

    def test_denominator_lcm(self):
        assert gmic(F(4, 5)).denominator_lcm() == 5
        assert make_pwl(F(1, 2), [0, F(1, 3)], [(0, 0, 0), (1, 1, 1)]).denominator_lcm() == 6


class TestEvaluation:
    def test_gmic_values(self, gmic45):
        assert gmic45(0) == 0
        assert gmic45(F(1, 5)) == F(1, 4)
        assert gmic45(F(4, 5)) == 1
        assert gmic45(F(9, 10)) == F(1, 2)
        assert eval_pwl(gmic45, F(1, 5)) == F(1, 4)

    def test_periodicity(self, gmic45):
        for x in (F(1, 7), F(3, 5), F(9, 10)):
            assert gmic45(x + 1) == gmic45(x)
            assert gmic45(x - 2) == gmic45(x)

    def test_slopes(self, gmic45):
        assert gmic45.slopes == (F(5, 4), F(-5))
        report = slope_report(gmic45)
        assert report.distinct_slopes == (F(-5), F(5, 4))
        assert report.is_continuous

    def test_limits_at_jump(self):
        fn = frac_cut()
        assert fn(0) == 0
        assert limit(fn, 0, LEFT) == F(5, 4)
        assert limit(fn, 0, RIGHT) == 0
        assert limit(fn, 1, LEFT) == F(5, 4)
        assert limit(fn, F(1, 2), AT) == F(5, 8)
        assert not fn.is_continuous()
        with pytest.raises(ValueError):
            fn.limit(0, "up")


class TestCanonicalize:
    def test_drops_redundant_breakpoint(self):
        fn = pwl_from_values(F(1, 2), [(0, F(0)), (F(1, 4), F(1, 2)), (F(1, 2), F(1))])
        assert fn.canonicalize().breakpoints == (0, F(1, 2))

    def test_keeps_zero(self):
        fn = pwl_from_values(F(1, 2), [(0, F(0)), (F(1, 2), F(1))])
        assert fn.canonicalize().breakpoints[0] == 0

    def test_equality_mod_canonical_form(self, gmic45):
        fat = pwl_from_values(
            F(4, 5), [(0, F(0)), (F(2, 5), F(1, 2)), (F(4, 5), F(1))]
        )
        assert fat == gmic45
        assert hash(fat) == hash(gmic45)
        assert fat != gmic(F(1, 2))


class TestAffineCombine:
    def test_midpoint(self, gmic45, psi45_stages):
        mid = affine_combine(F(1, 2), gmic45, F(1, 2), psi45_stages[1])
        x = F(3, 7)
        assert mid(x) == (gmic45(x) + psi45_stages[1](x)) / 2

    def test_f_mismatch(self, gmic45):
        with pytest.raises(ValueError):
            affine_combine(1, gmic45, 1, gmic(F(1, 2)))

    def test_identity(self, gmic45):
        assert affine_combine(1, gmic45, 0, gmic45) == gmic45


class TestPrecomposeScale:
    def test_double(self, gmic45):
        doubled = precompose_scale(gmic45, 2)
        assert doubled.f == F(2, 5)
        assert len(doubled.breakpoints) == 4
        for x in (F(0), F(1, 5), F(2, 5), F(13, 20)):
            assert doubled(x) == gmic45(2 * x)

    def test_negate(self, gmic45):
        neg = precompose_scale(gmic45, -1)
        assert neg.f == F(1, 5)
        for x in (F(1, 10), F(1, 5), F(2, 3)):
            assert neg(x) == gmic45(-x)

    def test_negate_swaps_limit_sides(self):
        neg = precompose_scale(frac_cut(), -1)
        assert neg.limit(0, RIGHT) == F(5, 4)
        assert neg.limit(0, LEFT) == 0

    def test_zero_rejected(self, gmic45):
        with pytest.raises(ValueError):
            precompose_scale(gmic45, 0)

    def test_agrees_with_compose(self, gmic45):
        assert compose_pwl(gmic45, [0, 1], [0, 2]) == precompose_scale(gmic45, 2)


class TestComposePwl:
    def test_identity_inner(self, gmic45):
        assert compose_pwl(gmic45, [0, 1], [0, 1]) == gmic45

    def test_shift_winding_required(self, gmic45):
        with pytest.raises(ValueError):
            compose_pwl(gmic45, [0, 1], [0, F(1, 2)])

    def test_bad_inner(self, gmic45):
        with pytest.raises(ValueError):
            compose_pwl(gmic45, [0, F(1, 2)], [0, 1])

    def test_inner_breakpoints_must_increase(self, gmic45):
        with pytest.raises(ValueError, match="inner breakpoints must be strictly increasing"):
            compose_pwl(gmic45, [0, F(1, 2), F(1, 2), 1], [0, 1, 1, 2])

    def test_tent_map(self, gmic45):
        # inner rises 0 -> 1 on [0,1/2] then returns to 0: composite is
        # gmic folded symmetrically.
        fn = compose_pwl(gmic45, [0, F(1, 2), 1], [0, 1, 0], f_new=F(2, 5))
        assert fn(F(2, 5)) == 1
        assert fn(F(3, 5)) == 1
        assert fn(F(1, 10)) == gmic45(F(1, 5))

    def test_constant_first_piece_at_f_needs_f_new(self, gmic45):
        # inner = 4/5 = f on all of (0, 1/2]: no smallest preimage of f.
        xs, ys = [0, F(1, 2), 1], [F(4, 5), F(4, 5), F(9, 5)]
        with pytest.raises(ValueError, match=r"every x in \(0, 1/2\].*pass f_new"):
            compose_pwl(gmic45, xs, ys)
        assert compose_pwl(gmic45, xs, ys, f_new=F(1, 2)).f == F(1, 2)

    def test_constant_later_piece_at_f_gives_its_start(self, gmic45):
        # inner rises to f = 4/5 at x = 1/4 and stays there until 3/4.
        fn = compose_pwl(gmic45, [0, F(1, 4), F(3, 4), 1], [0, F(4, 5), F(4, 5), 1])
        assert fn.f == F(1, 4)


class TestSupNorm:
    def test_zero_on_equal(self, gmic45):
        assert sup_norm_distance(gmic45, gmic45) == 0

    def test_known_distance(self, gmic45, psi45_stages):
        # The stage-1 bump peaks at x = 3/10 (value 1 vs gmic's 3/8) and
        # troughs at x = 1/2 (value 0 vs gmic's 5/8).
        assert sup_norm_distance(gmic45, psi45_stages[1]) == F(5, 8)

    def test_sees_jumps(self, gmic45):
        assert sup_norm_distance(frac_cut(), frac_cut()) == 0
        # The two functions agree on [0, 4/5]; the gap opens on the final
        # piece and peaks at the left limit at 1 (5/4 versus 0).
        assert sup_norm_distance(frac_cut(), gmic(F(4, 5))) == F(5, 4)


@given(st.fractions(min_value=0, max_value=2, max_denominator=40))
@settings(max_examples=80, deadline=None)
def test_combination_is_pointwise(x):
    g = gmic(F(4, 5))
    h = gmic(F(4, 5))
    combo = affine_combine(F(2, 3), g, F(1, 3), h)
    assert combo(x) == g(x)
