from fractions import Fraction

import pytest

from groupcut import (
    epsilon_ratio_test,
    extremality_test,
    facetness_test,
    gmic,
    interpolate_perturbation,
    make_pwl,
    minimality_test,
    perturbation_space_basis,
    pwl_from_values,
    restriction_additive_pairs,
    affine_combine,
)
from groupcut.complex2d import delta_pi

F = Fraction


class TestExtremeFunctions:
    def test_gmic(self, gmic45):
        verdict = extremality_test(gmic45)
        assert verdict.extreme
        assert verdict.basis_dimension == 0
        assert verdict.certificate is None
        assert verdict.grid_n == 15
        assert verdict.covered_intervals == ((F(0), F(1)),)

    def test_psi_1(self, psi45_stages):
        assert extremality_test(psi45_stages[1]).extreme

    def test_facetness_shares_verdict(self, gmic45):
        assert facetness_test(gmic45).extreme


class TestNonExtreme:
    def test_combo_certificate(self, combo, gmic45, psi45_stages):
        verdict = extremality_test(combo)
        assert not verdict.extreme
        assert verdict.basis_dimension >= 1
        cert = verdict.certificate
        assert cert is not None
        assert cert.epsilon == 1
        # The perturbation is nonzero and both endpoints are minimal.
        assert cert.perturbation != affine_combine(0, combo, 0, combo)
        assert minimality_test(cert.pi_plus).minimal
        assert minimality_test(cert.pi_minus).minimal
        # The endpoints average back to the function exactly.
        mean = affine_combine(F(1, 2), cert.pi_plus, F(1, 2), cert.pi_minus)
        assert mean == combo
        assert cert.pi_plus == affine_combine(1, combo, cert.epsilon, cert.perturbation)
        assert cert.pi_minus == affine_combine(1, combo, -cert.epsilon, cert.perturbation)

    def test_requires_minimal(self):
        fn = make_pwl(F(4, 5), [0], [(F(5, 4), 0, 0)])
        with pytest.raises(ValueError):
            extremality_test(fn)

    def test_requires_minimal_continuous(self, gmic45, psi45_stages):
        # 2·gmic − psi_1 is continuous and not minimal (it is negative at 3/10).
        dent = affine_combine(2, gmic45, -1, psi45_stages[1])
        with pytest.raises(ValueError, match="requires a minimal function"):
            extremality_test(dent)

    def test_rejects_discontinuous(self):
        fn = make_pwl(F(1, 2), [0, F(1, 2)], [(1, 0, 0), (1, 1, 0)])
        with pytest.raises(ValueError, match="continuous"):
            extremality_test(fn)

    def test_rejects_small_oversampling(self, gmic45):
        with pytest.raises(ValueError):
            extremality_test(gmic45, oversampling=2)


class TestPerturbationSpace:
    def test_gmic_trivial(self, gmic45):
        basis = perturbation_space_basis(gmic45)
        assert basis.vectors == ()
        assert basis.grid_n == 15
        assert basis.f_index == 12

    def test_combo_vectors_additive_on_tight_pairs(self, combo):
        basis = perturbation_space_basis(combo)
        assert len(basis.vectors) >= 1
        n = basis.grid_n
        pairs = restriction_additive_pairs(combo)
        for vec in basis.vectors:
            assert vec[0] == 0
            assert vec[basis.f_index] == 0
            for x, y in pairs:
                i, j = int(x * n), int(y * n)
                assert vec[i] + vec[j] - vec[(i + j) % n] == 0

    def test_additive_pairs_match_brute_force(self, gmic45):
        pairs = set(restriction_additive_pairs(gmic45, oversampling=3))
        n = 15
        expected = {
            (F(i, n), F(j, n))
            for i in range(n)
            for j in range(n)
            if i <= j and delta_pi(gmic45, F(i, n), F(j, n)) == 0
        }
        # restriction_additive_pairs reports unordered pairs both ways or
        # sorted; normalize to i <= j before comparing.
        normalized = {tuple(sorted(p)) for p in pairs}
        assert normalized == expected


class TestEpsilonRatio:
    def test_combo_direction(self, combo, gmic45, psi45_stages):
        direction = affine_combine(F(1, 2), gmic45, F(-1, 2), psi45_stages[1])
        assert epsilon_ratio_test(combo, direction) == 1

    def test_zero_perturbation(self, gmic45):
        zero = affine_combine(0, gmic45, 0, gmic45)
        with pytest.raises(ValueError, match="identically zero"):
            epsilon_ratio_test(gmic45, zero)

    def test_non_additive_at_tight_pair(self, gmic45):
        bump = pwl_from_values(
            F(4, 5), [(0, F(0)), (F(1, 5), F(1, 10)), (F(2, 5), F(0))]
        )
        with pytest.raises(ValueError, match="tight pair"):
            epsilon_ratio_test(gmic45, bump)


class TestInterpolatePerturbation:
    def test_round_trip(self):
        vec = [F(0), F(1, 2), F(0), F(-1, 2), F(0), F(0)]
        fn = interpolate_perturbation(vec, 6, F(1, 2))
        for i, v in enumerate(vec):
            assert fn(F(i, 6)) == v


class TestRefusedBeforeWork:
    """Inputs the test cannot decide are refused before the minimality
    test runs, so a refusal costs no face enumeration."""

    @pytest.fixture(autouse=True)
    def no_minimality_test(self, monkeypatch):
        from groupcut import extremality

        def fail(fn):
            raise AssertionError("minimality_test ran before the input was refused")

        monkeypatch.setattr(extremality, "minimality_test", fail)

    ENTRIES = [extremality_test, perturbation_space_basis, restriction_additive_pairs]

    @pytest.mark.parametrize("entry", ENTRIES)
    def test_discontinuous(self, entry):
        fn = make_pwl(F(1, 2), [0, F(1, 2)], [(1, 0, 0), (1, 1, 0)])
        with pytest.raises(ValueError, match="continuous functions only"):
            entry(fn)

    @pytest.mark.parametrize("entry", ENTRIES)
    def test_small_oversampling(self, gmic45, entry):
        with pytest.raises(ValueError, match="oversampling factor must be at least 3"):
            entry(gmic45, oversampling=2)

    @pytest.mark.parametrize("oversampling", [3.0, F(7, 2), F(3), True, "3"])
    @pytest.mark.parametrize("entry", ENTRIES)
    def test_non_integer_oversampling(self, gmic45, entry, oversampling):
        with pytest.raises(ValueError, match="oversampling must be an integer"):
            entry(gmic45, oversampling=oversampling)
