"""``pwl.grid_values`` against pointwise evaluation."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from groupcut import make_pwl, restrict_to_finite_group
from groupcut.pwl import grid_values

F = Fraction


def sampled(fn, n):
    """The oracle: one evaluation (a bisection) per grid point."""
    return [fn(F(i, n)) for i in range(n)]


def jump_function():
    return make_pwl(
        F(1, 2),
        [0, F(1, 3), F(1, 2)],
        [(F(1), F(0), F(1, 7)), (F(2, 5), F(1, 9), F(3, 4)), (F(1), F(1), F(1, 2))],
    )


def grids(fn):
    q = fn.denominator_lcm()
    return sorted({1, 2, 3, 7, 11, q, 2 * q, 3 * q, 3 * q + 1})


def check(fn, n):
    got = grid_values(fn, n)
    assert got == sampled(fn, n)
    assert all(type(v) is Fraction for v in got)


def test_empty_grid(gmic45):
    for n in (0, -3):
        assert grid_values(gmic45, n) == sampled(gmic45, n) == []


def test_fixtures(gmic45, psi45_stages, combo, psm15):
    for fn in [gmic45, *psi45_stages, combo, psm15, jump_function()]:
        for n in grids(fn):
            check(fn, n)


@st.composite
def functions(draw):
    """Functions with up to six breakpoints, jumps and mixed denominators."""
    rat = st.fractions(min_value=-3, max_value=3, max_denominator=12)
    cuts = draw(st.lists(st.fractions(min_value=0, max_value=1, max_denominator=30),
                         min_size=0, max_size=5, unique=True))
    bkpts = sorted({F(0), *(c for c in cuts if c < 1)})
    limits = [(draw(rat), draw(rat), draw(rat)) for _ in bkpts]
    f = draw(st.fractions(min_value=F(1, 40), max_value=F(39, 40), max_denominator=40))
    return make_pwl(f, bkpts, limits)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(functions(), st.integers(min_value=1, max_value=150))
def test_generated(fn, n):
    check(fn, n)
    q = fn.denominator_lcm()
    if q <= 1000:  # the grid on which every breakpoint lies
        check(fn, q)


def test_restriction_reads_the_grid(combo):
    # Of the other callers, epsilon_ratio_test is checked against its
    # pointwise-sampling version in test_certificate_reference, and
    # minimality_grid_oracle against the vertex test in test_minimality.
    q = combo.denominator_lcm()
    for m in (1, 3):
        assert restrict_to_finite_group(combo, q, m=m).values == tuple(sampled(combo, m * q))
