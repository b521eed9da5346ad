from fractions import Fraction

import pytest

from groupcut import (
    FiniteGroupFn,
    finite_extremality_test,
    finite_minimality_test,
    finite_perturbation_basis,
    gmic,
    interpolate_to_infinite_group,
    restrict_to_finite_group,
)
from groupcut.minimality import NEGATIVITY, ORIGIN_VALUE, SUBADDITIVITY, SYMMETRY

F = Fraction


class TestFiniteGroupFn:
    def test_validation(self):
        with pytest.raises(ValueError):
            FiniteGroupFn(q=1, f_index=0, values=(F(0),))
        with pytest.raises(ValueError):
            FiniteGroupFn(q=4, f_index=0, values=(F(0),) * 4)
        with pytest.raises(ValueError):
            FiniteGroupFn(q=4, f_index=4, values=(F(0),) * 4)
        with pytest.raises(ValueError):
            FiniteGroupFn(q=4, f_index=2, values=(F(0),) * 3)

    def test_f_property(self):
        g = FiniteGroupFn(q=4, f_index=3, values=(F(0), F(1, 3), F(2, 3), F(1)))
        assert g.f == F(3, 4)


class TestRestrict:
    def test_gmic_oversampled(self, gmic45):
        g = restrict_to_finite_group(gmic45, 5, m=3)
        assert g.q == 15
        assert g.f_index == 12
        assert g.values == tuple(
            [F(i, 12) for i in range(13)] + [F(2, 3), F(1, 3)]
        )

    def test_f_off_grid(self, gmic45):
        with pytest.raises(ValueError):
            restrict_to_finite_group(gmic45, 3)

    def test_interpolate_round_trip(self, gmic45, psm15):
        for fn in (gmic45, psm15):
            q = fn.denominator_lcm()
            assert interpolate_to_infinite_group(restrict_to_finite_group(fn, q)) == fn


class TestFiniteMinimality:
    def test_gmic_restriction_minimal(self, gmic45):
        g = restrict_to_finite_group(gmic45, 5)
        assert finite_minimality_test(g).minimal

    def test_origin(self):
        g = FiniteGroupFn(q=4, f_index=2, values=(F(1, 8), F(1, 2), F(1), F(1, 2)))
        v = finite_minimality_test(g)
        assert not v.minimal and v.witness.kind == ORIGIN_VALUE

    def test_negativity(self):
        g = FiniteGroupFn(q=4, f_index=2, values=(F(0), F(-1, 2), F(1), F(3, 2)))
        v = finite_minimality_test(g)
        assert not v.minimal and v.witness.kind == NEGATIVITY
        assert v.witness.location == F(1, 4)

    def test_symmetry(self):
        g = FiniteGroupFn(q=4, f_index=2, values=(F(0), F(1, 4), F(1), F(1, 4)))
        v = finite_minimality_test(g)
        assert not v.minimal and v.witness.kind == SYMMETRY
        assert v.witness.location == (F(1, 4), F(1, 4))
        assert v.witness.value == F(-1, 2)

    def test_subadditivity(self):
        g = FiniteGroupFn(
            q=5, f_index=4, values=(F(0), F(1, 8), F(1, 2), F(7, 8), F(1))
        )
        v = finite_minimality_test(g)
        assert not v.minimal and v.witness.kind == SUBADDITIVITY
        assert v.witness.location == (F(1, 5), F(1, 5))
        assert v.witness.value == F(-1, 4)


class TestFiniteExtremality:
    def test_gmic_restriction_extreme(self, gmic45):
        verdict = finite_extremality_test(restrict_to_finite_group(gmic45, 5))
        assert verdict.extreme
        assert verdict.basis_dimension == 0

    def test_requires_minimal(self):
        g = FiniteGroupFn(q=4, f_index=2, values=(F(1, 8), F(1, 2), F(1), F(1, 2)))
        with pytest.raises(ValueError):
            finite_extremality_test(g)

    def test_combo_restriction_certificate(self, combo):
        g = restrict_to_finite_group(combo, combo.denominator_lcm(), m=3)
        verdict = finite_extremality_test(g)
        assert not verdict.extreme
        cert = verdict.certificate
        assert cert is not None
        assert cert.epsilon > 0
        assert finite_minimality_test(cert.g_plus).minimal
        assert finite_minimality_test(cert.g_minus).minimal
        for vp, vm, v in zip(cert.g_plus.values, cert.g_minus.values, g.values):
            assert (vp + vm) / 2 == v

    def test_basis_vectors_additive(self, combo):
        g = restrict_to_finite_group(combo, combo.denominator_lcm(), m=3)
        basis = finite_perturbation_basis(g)
        assert basis
        q = g.q
        for vec in basis:
            assert vec[0] == 0 and vec[g.f_index] == 0
            for i in range(q):
                for j in range(i, q):
                    if g.values[i] + g.values[j] == g.values[(i + j) % q]:
                        assert vec[i] + vec[j] == vec[(i + j) % q]

    def test_values_scaled_once(self, combo, monkeypatch):
        """g's values are scaled to integers once, not once each by the
        minimality test, the basis and ε; bar and the re-checked g± are
        scaled once each."""
        from groupcut import finite

        scaled = []
        real = finite.scale_to_integers

        def counted(values):
            scaled.append(values)
            return real(values)

        monkeypatch.setattr(finite, "scale_to_integers", counted)
        g = restrict_to_finite_group(combo, combo.denominator_lcm(), m=3)
        verdict = finite_extremality_test(g)
        assert not verdict.extreme
        assert sum(values is g.values for values in scaled) == 1
        assert len(scaled) == 4
