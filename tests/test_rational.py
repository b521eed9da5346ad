from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupcut import RatMatrix, nullspace, rank, rat_parse, rat_str, rref

F = Fraction


class TestRatParse:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("3/4", F(3, 4)),
            ("-3/4", F(-3, 4)),
            ("7", F(7)),
            ("-7", F(-7)),
            ("0", F(0)),
            ("6/8", F(3, 4)),
            ("0/5", F(0)),
        ],
    )
    def test_accepts(self, text, expected):
        assert rat_parse(text) == expected

    @pytest.mark.parametrize(
        "text", ["0.5", "1e3", " 1", "1 ", "1/ 2", "+1", "1/-2", "", "a", "1//2", "--1"]
    )
    def test_rejects(self, text):
        with pytest.raises(ValueError):
            rat_parse(text)

    def test_zero_denominator(self):
        with pytest.raises(ZeroDivisionError):
            rat_parse("1/0")

    def test_non_string(self):
        with pytest.raises(ValueError):
            rat_parse(3)

    @given(st.fractions())
    def test_round_trip(self, x):
        assert rat_parse(rat_str(x)) == x

    def test_str_forms(self):
        assert rat_str(F(3, 4)) == "3/4"
        assert rat_str(F(-6, 8)) == "-3/4"
        assert rat_str(F(5)) == "5"
        assert rat_str(F(0)) == "0"


class TestRatMatrix:
    def test_inconsistent_width(self):
        with pytest.raises(ValueError):
            RatMatrix([[1, 2], [3]])

    def test_empty_needs_n_cols(self):
        with pytest.raises(ValueError):
            RatMatrix([])
        assert RatMatrix([], n_cols=4).n_cols == 4

    def test_n_cols_must_match_the_rows(self):
        with pytest.raises(ValueError, match="n_cols disagrees with row width"):
            RatMatrix([[1, 2]], n_cols=3)

    def test_size_bound(self):
        with pytest.raises(ValueError):
            RatMatrix([], n_cols=30_000)

    def test_matvec(self):
        m = RatMatrix([[1, 2], [F(1, 2), 0]])
        assert m.matvec([F(1), F(3)]) == [F(7), F(1, 2)]
        with pytest.raises(ValueError):
            m.matvec([1])


class TestRref:
    def test_identity(self):
        rows, pivots = rref(RatMatrix([[2, 0], [0, 3]]))
        assert rows == [[1, 0], [0, 1]]
        assert pivots == [0, 1]

    def test_dependent_rows(self):
        rows, pivots = rref(RatMatrix([[1, 2, 3], [2, 4, 6], [0, 1, 1]]))
        assert pivots == [0, 1]
        assert rows[0] == [1, 0, 1]
        assert rows[1] == [0, 1, 1]
        assert rows[2] == [0, 0, 0]

    def test_rank(self):
        assert rank(RatMatrix([[1, 2], [2, 4]])) == 1
        assert rank(RatMatrix([], n_cols=3)) == 0


class TestNullspace:
    def test_empty_matrix_standard_basis(self):
        basis = nullspace(RatMatrix([], n_cols=3))
        assert basis == [
            [1, 0, 0],
            [0, 1, 0],
            [0, 0, 1],
        ]

    def test_known_kernel(self):
        # x + y + z = 0, y - z = 0  ->  kernel spanned by (-2, 1, 1).
        m = RatMatrix([[1, 1, 1], [0, 1, -1]])
        basis = nullspace(m)
        assert basis == [[F(-2), F(1), F(1)]]

    matrices = st.integers(1, 5).flatmap(
        lambda n: st.lists(
            st.lists(st.fractions(max_denominator=8), min_size=n, max_size=n),
            min_size=1,
            max_size=5,
        )
    )

    @given(matrices)
    @settings(max_examples=60, deadline=None)
    def test_rank_nullity_and_membership(self, rows):
        m = RatMatrix(rows)
        basis = nullspace(m)
        assert rank(m) + len(basis) == m.n_cols
        zero = [F(0)] * m.n_rows
        for vec in basis:
            assert m.matvec(vec) == zero

    @given(matrices)
    @settings(max_examples=30, deadline=None)
    def test_deterministic(self, rows):
        m1 = RatMatrix(rows)
        m2 = RatMatrix(rows)
        assert nullspace(m1) == nullspace(m2)
