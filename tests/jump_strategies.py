"""A hypothesis strategy for periodic functions with jumps, shared by the
tests that check a decision procedure against a reference on generated
inputs."""

from fractions import Fraction

from hypothesis import strategies as st

from groupcut import affine_combine, make_pwl

F = Fraction


def reflect(g):
    """x -> g(f - x) for g with f among its breakpoints."""
    sides = {(g.f - b) % 1: (r, a, l) for b, (l, a, r) in zip(g.breakpoints, g.limits)}
    return make_pwl(g.f, sorted(sides), [sides[c] for c in sorted(sides)])


@st.composite
def jump_functions(draw, max_cuts=4):
    """Functions on (1/q)Z with jumps and values from a small set, with
    breakpoints at 0, f and up to max_cuts other points.  Half of the draws
    are symmetrized, pi(x) = (g(x) + 1 - g(f - x)) / 2, so that the
    subadditivity check is reached as well."""
    q = draw(st.integers(min_value=2, max_value=24))
    index = st.integers(min_value=1, max_value=q - 1)
    f_index = draw(index)
    cuts = draw(st.lists(index, max_size=max_cuts, unique=True))
    bkpts = [F(c, q) for c in sorted({0, f_index, *cuts})]
    value = st.sampled_from([F(-1, 4), F(0), F(1, 4), F(1, 2), F(3, 4), F(1)])
    limits = [[draw(value), draw(value), draw(value)] for _ in bkpts]
    symmetrize = draw(st.booleans())
    if symmetrize or draw(st.booleans()):
        limits[0][1] = F(0)
        limits[bkpts.index(F(f_index, q))][1] = F(1)
    g = make_pwl(F(f_index, q), bkpts, [tuple(t) for t in limits])
    if not symmetrize:
        return g
    half = make_pwl(g.f, [0], [(F(1, 2),) * 3])
    return affine_combine(1, affine_combine(F(1, 2), g, F(-1, 2), reflect(g)), 1, half)
