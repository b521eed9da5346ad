"""The pwl reads through ``limits_at`` against the frozen originals in
``pwl_reference``.

Point reads must be equal, and every built function must have the same
``f``, ``breakpoints`` and ``limits`` field for field, not merely be ``==``
after canonicalization; fn − fn is the constant 0 with breakpoint 0 only.
Inputs: the fixtures and their pairs, derandomized draws of functions with jumps, scale
factors ±1 to ±4, and inner maps with constant pieces and slope-sign
changes.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pwl_reference as ref
from jump_strategies import jump_functions, reflect
from groupcut import (
    PsiParams,
    affine_combine,
    compose_pwl,
    generate_eps,
    gmic,
    make_pwl,
    precompose_scale,
    projected_sequential_merge,
    psi_stages,
    sup_norm_distance,
    with_f_breakpoint,
)
from groupcut.pwl import AT, LEFT, RIGHT

F = Fraction
F45 = F(4, 5)
SCALES = [k * sign for k in range(1, 5) for sign in (1, -1)]


def fixtures():
    psi = psi_stages(PsiParams(F45, tuple(generate_eps(F45, 3))))
    g = gmic(F45)
    jump = make_pwl(F45, [0], [(F(5, 4), 0, 0)])
    out = {"gmic": g, "psm": projected_sequential_merge(gmic(F(1, 5)), 2)}
    out.update({f"psi_{k}": psi[k] for k in range(4)})
    for k, lam in ((1, F(1, 2)), (2, F(1, 3)), (3, F(3, 4))):
        out[f"combo_k{k}"] = affine_combine(lam, g, 1 - lam, psi[k])
    for k, lam in ((1, F(1, 3)), (2, F(3, 5))):
        out[f"jump_combo_k{k}"] = affine_combine(lam, jump, 1 - lam, psi[k])
    return out


FIXTURES = fixtures()


def assert_identical(fn, expected):
    assert (fn.f, fn.breakpoints, fn.limits) == (expected.f, expected.breakpoints, expected.limits)


def outcome(build, *args):
    """The function built, or the type and message of the error raised."""
    try:
        return build(*args)
    except ValueError as exc:
        return type(exc), str(exc)


def assert_same_outcome(build, reference, *args):
    got, expected = outcome(build, *args), outcome(reference, *args)
    if isinstance(expected, tuple):
        assert got == expected
    else:
        assert_identical(got, expected)


def probe_points(fn):
    """Breakpoints, the midpoints between them, f, and shifts by integers."""
    ends = fn.breakpoints[1:] + (1,)
    mids = [(a + b) / 2 for a, b in zip(fn.breakpoints, ends)]
    base = [*fn.breakpoints, *mids, fn.f]
    return [0, 1, -1, *base, *(x + k for x in base for k in (-2, 1))]


def assert_same_reads(fn):
    for x in probe_points(fn):
        trip = fn.limits_at(x)
        assert trip == tuple(ref.limit(fn, x, s) for s in (LEFT, AT, RIGHT))
        assert fn(x) == ref.call(fn, x) == trip[1]
        assert [fn.limit(x, s) for s in (LEFT, AT, RIGHT)] == list(trip)


def assert_same_builds(fn, other):
    """Every build that reads fn, with other (same f) as second argument."""
    assert_identical(with_f_breakpoint(fn), ref.with_f_breakpoint(fn))
    for a, b in ((1, 0), (0, 1), (F(1, 3), F(2, 3)), (F(-1, 2), 2)):
        assert_identical(affine_combine(a, fn, b, other), ref.affine_combine(a, fn, b, other))
    zero = affine_combine(1, fn, -1, fn)
    assert_identical(zero, ref.affine_combine(1, fn, -1, fn))
    assert (zero.breakpoints, zero.limits) == ((0,), ((0, 0, 0),))
    assert sup_norm_distance(fn, other) == ref.sup_norm_distance(fn, other)
    for lam in SCALES:
        image = precompose_scale(fn, lam)
        assert_identical(image, ref.precompose_scale(fn, lam))
        assert_identical(with_f_breakpoint(image), ref.with_f_breakpoint(image))


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_fixtures(name):
    fn = FIXTURES[name]
    assert_same_reads(fn)
    assert_same_builds(fn, reflect(with_f_breakpoint(fn)))


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_pairs_of_fixtures(name):
    # Unlike fn and its reflection, two fixtures read over different scales
    # and denominators.
    fn, a, b = FIXTURES[name], F(1, 3), F(-2, 7)
    for other in FIXTURES.values():
        assert sup_norm_distance(fn, other) == ref.sup_norm_distance(fn, other)
        if other.f == fn.f:
            assert_identical(affine_combine(a, fn, b, other), ref.affine_combine(a, fn, b, other))


@pytest.mark.parametrize("name", ["gmic", "jump_combo_k1"])
def test_unknown_side_is_refused(name):
    fn = FIXTURES[name]
    for x in (0, F(1, 7)):
        with pytest.raises(ValueError, match="unknown side"):
            fn.limit(x, "up")


@given(jump_functions())
@settings(max_examples=60, deadline=None, derandomize=True)
def test_jump_functions(fn):
    assert_same_reads(fn)
    assert_same_builds(fn, reflect(with_f_breakpoint(fn)))


@st.composite
def inner_maps(draw):
    """Continuous inner maps on [0, 1] whose values come from a small set,
    so that constant pieces and changes of slope sign are common, and
    whose winding inner(1) - inner(0) is an integer in [-2, 2]."""
    cuts = draw(st.lists(st.integers(min_value=1, max_value=11), max_size=4, unique=True))
    xs = [F(0), *(F(c, 12) for c in sorted(cuts)), F(1)]
    value = st.sampled_from([F(-1, 2), F(0), F(1, 5), F(1, 3), F(1, 2), F(4, 5), F(1), F(3, 2)])
    ys = [draw(value) for _ in xs[:-1]]
    ys.append(ys[0] + draw(st.integers(min_value=-2, max_value=2)))
    return xs, ys


@given(jump_functions(), inner_maps(), st.booleans())
@settings(max_examples=80, deadline=None, derandomize=True)
def test_compose_generated_inner_maps(outer, inner, default_f):
    xs, ys = inner
    f_new = None if default_f else F(1, 2)
    assert_same_outcome(compose_pwl, ref.compose_pwl, outer, xs, ys, f_new)


TENT = ([0, F(1, 2), 1], [0, 1, 0])
PLATEAU = ([0, F(1, 4), F(3, 4), 1], [0, F(1, 2), F(1, 2), 1])


@pytest.mark.parametrize("inner", [TENT, PLATEAU], ids=["tent", "plateau"])
@pytest.mark.parametrize("name", ["jump_combo_k1", "jump_combo_k2"])
def test_compose_jump_outer(name, inner):
    outer = FIXTURES[name]
    for f_new in (None, F(2, 5)):
        assert_same_outcome(compose_pwl, ref.compose_pwl, outer, *inner, f_new)


@given(jump_functions(), st.sampled_from([1, -1, 2, -2, 3, -3]))
@settings(max_examples=60, deadline=None, derandomize=True)
def test_compose_linear_inner_is_precompose_scale(fn, lam):
    image = precompose_scale(fn, lam)
    assert compose_pwl(fn, [0, 1], [0, lam], f_new=image.f) == image
