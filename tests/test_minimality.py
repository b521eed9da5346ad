from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import finite_scan_reference as ref_scan
from groupcut import (
    gmic,
    make_pwl,
    minimality_grid_oracle,
    minimality_test,
    pwl_from_values,
    verify_witness,
    with_f_breakpoint,
)
from groupcut.minimality import (
    NEGATIVITY,
    ORIGIN_VALUE,
    SUBADDITIVITY,
    SYMMETRY,
    MinimalityWitness,
)
from groupcut.finite import first_subadditivity_violation
from symmetric_vectors import symmetric

F = Fraction


def frac_cut():
    return make_pwl(F(4, 5), [0], [(F(5, 4), 0, 0)])


def jump_minimal():
    """Discontinuous minimal example: indicator-style two-piece function."""
    return make_pwl(F(1, 2), [0, F(1, 2)], [(1, 0, 0), (1, 1, 0)])


def jump_subadd_violator(delta=F(1, 8)):
    """Like jump_minimal but the middle value is pushed down on one side."""
    return make_pwl(
        F(1, 2),
        [0, F(1, 4), F(1, 2)],
        [(1, 0, 0), (F(1, 2) + delta, F(1, 2), F(1, 2) - delta), (1, 1, 0)],
    )


class TestMinimalFunctions:
    def test_gmic(self, gmic45):
        assert minimality_test(gmic45).minimal

    def test_psi_stages(self, psi45_stages):
        for stage in psi45_stages:
            assert minimality_test(stage).minimal

    def test_combo(self, combo):
        assert minimality_test(combo).minimal

    def test_discontinuous_minimal(self):
        verdict = minimality_test(jump_minimal())
        assert verdict.minimal


class TestWitnesses:
    def test_origin_value(self):
        fn = pwl_from_values(F(1, 2), [(0, F(1, 4)), (F(1, 2), F(1))])
        verdict = minimality_test(fn)
        assert not verdict.minimal
        assert verdict.witness.kind == ORIGIN_VALUE
        assert verdict.witness.value == F(1, 4)
        assert verify_witness(fn, verdict.witness)

    def test_negativity(self):
        fn = pwl_from_values(
            F(1, 2), [(0, F(0)), (F(1, 4), F(-1, 4)), (F(1, 2), F(1))]
        )
        verdict = minimality_test(fn)
        assert not verdict.minimal
        assert verdict.witness.kind == NEGATIVITY
        assert verdict.witness.location == F(1, 4)
        assert verdict.witness.value == F(-1, 4)
        assert verify_witness(fn, verdict.witness)

    def test_value_at_f(self):
        fn = pwl_from_values(F(1, 2), [(0, F(0)), (F(1, 2), F(3, 4))])
        verdict = minimality_test(fn)
        assert not verdict.minimal
        assert verdict.witness.kind == SYMMETRY
        assert verdict.witness.location == F(1, 2)
        assert verdict.witness.value == F(3, 4)

    def test_fractional_cut_symmetry(self):
        fn = frac_cut()
        verdict = minimality_test(fn)
        assert not verdict.minimal
        assert verdict.witness.kind == SYMMETRY
        assert verdict.witness.value == F(5, 4)
        assert verify_witness(fn, verdict.witness)

    def test_subadditivity_continuous(self):
        # Symmetric about x + y = 4/5 but sagging at 1/5, so
        # pi(1/5) + pi(1/5) < pi(2/5) while every symmetry pair sums to 1.
        fn = pwl_from_values(
            F(4, 5),
            [(0, F(0)), (F(1, 5), F(1, 10)), (F(3, 5), F(9, 10)), (F(4, 5), F(1))],
        )
        verdict = minimality_test(fn)
        assert not verdict.minimal
        assert verdict.witness.kind == SUBADDITIVITY
        assert verify_witness(fn, verdict.witness)

    def test_subadditivity_limit(self):
        fn = jump_subadd_violator()
        verdict = minimality_test(fn)
        assert not verdict.minimal
        assert verdict.witness.kind == SUBADDITIVITY
        assert verdict.witness.location == (F(1, 4), F(1, 2))
        assert verdict.witness.value == F(-1, 8)
        assert verdict.witness.face_vertices is not None
        assert verify_witness(fn, verdict.witness)

    def test_origin_value_away_from_0_rejected(self, gmic45):
        # gmic(4/5) is minimal; π(1/2) = 5/8 is no value at 0.
        assert not verify_witness(gmic45, MinimalityWitness(ORIGIN_VALUE, F(1, 2), F(5, 8)))

    def test_symmetry_point_away_from_f_rejected(self, gmic45):
        # π(0) = 0 ≠ 1, but 0 is not f = 4/5.
        assert not verify_witness(gmic45, MinimalityWitness(SYMMETRY, F(0), F(0)))

    def test_tampered_witness_rejected(self, gmic45):
        fn = frac_cut()
        witness = minimality_test(fn).witness
        assert not verify_witness(gmic45, witness)


class TestGridOracle:
    @pytest.mark.parametrize(
        "builder",
        [
            lambda: gmic(F(4, 5)),
            lambda: gmic(F(1, 3)),
            frac_cut,
            jump_minimal,
            jump_subadd_violator,
            lambda: pwl_from_values(
                F(4, 5),
                [(0, F(0)), (F(1, 5), F(1, 10)), (F(3, 5), F(9, 10)), (F(4, 5), F(1))],
            ),
        ],
    )
    def test_agrees_with_vertex_test(self, builder):
        fn = builder()
        assert minimality_grid_oracle(fn).minimal == minimality_test(fn).minimal


class TestWithFBreakpoint:
    def test_inserts_f(self):
        fn = pwl_from_values(F(1, 4), [(0, F(0)), (F(1, 2), F(1))])
        out = with_f_breakpoint(fn)
        assert F(1, 4) in out.breakpoints
        assert out(F(1, 8)) == fn(F(1, 8))

    def test_noop_when_present(self, gmic45):
        assert with_f_breakpoint(gmic45) is gmic45


def first_violation_by_loops(iv):
    """The subadditivity scan of the grid oracle, one pair at a time."""
    n = len(iv)
    for i in range(n):
        for j in range(i, n):
            if iv[i] + iv[j] < iv[(i + j) % n]:
                return i, j
    return None


@given(
    st.lists(st.integers(min_value=-3, max_value=6), min_size=1, max_size=40),
    st.integers(min_value=0, max_value=39),
)
@settings(max_examples=200, deadline=None, derandomize=True)
def test_row_scan_finds_the_first_violation(iv, f):
    # The all-pairs scan on any vector; the triple scan on it made symmetric about f.
    assert ref_scan.first_subadditivity_violation(iv) == first_violation_by_loops(iv)
    f %= len(iv)
    sym = symmetric(iv, f, 2 * iv[0])
    assert first_subadditivity_violation(sym, f) == first_violation_by_loops(sym)


def test_row_scan_on_a_subadditive_vector_and_a_dent():
    # gmic on Z/60 with f = 48, scaled to integers: subadditive and symmetric.
    n, f = 60, 48
    g = [x * (n - f) if x <= f else (n - x) * f for x in range(n)]
    assert first_subadditivity_violation(g, f) is None
    # A dent at 58, and its mirror at f - 58 = 50 (mod 60), to stay symmetric.
    g[n - 2] -= 3
    g[(f - (n - 2)) % n] += 3
    # The first violation lies in the second lane window of row 51, across the wrap.
    assert first_subadditivity_violation(g, f) == first_violation_by_loops(g) == (51, 58)
