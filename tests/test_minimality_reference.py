"""The vertex test, which scans integer slacks from the vertex kernel, against
the Fraction vertex test kept in ``minimality_reference``.

Whole verdicts, witnesses included, must be ``==`` on the fixtures, on
derandomized draws of continuous functions that reach every witness kind,
and on derandomized draws of functions with jumps.
gmic((d−1)/d) must be decided without sampling a grid, up to d = 10¹².
"""

import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import minimality_reference as ref
from jump_strategies import jump_functions, reflect
from groupcut import (
    PsiParams,
    affine_combine,
    generate_eps,
    gmic,
    make_pwl,
    minimality_test,
    psi_stages,
    pwl_from_values,
    with_f_breakpoint,
)
from groupcut.complex2d import scaled_slacks, scaled_vertices
from groupcut.minimality import NEGATIVITY, ORIGIN_VALUE, SUBADDITIVITY, SYMMETRY

F = Fraction


def forbid(monkeypatch, name):
    """Make every groupcut module's binding of ``name`` raise when called."""

    def fail(*args, **kwargs):
        raise AssertionError(f"{name} was called")

    for module_name, module in list(sys.modules.items()):
        if module_name.startswith("groupcut.") and hasattr(module, name):
            monkeypatch.setattr(module, name, fail)


def assert_same_verdict(fn):
    verdict = minimality_test(fn)
    assert verdict == ref.minimality_test(fn)
    return verdict


def witness_kind(verdict):
    if verdict.minimal:
        return "minimal"
    w = verdict.witness
    if w.kind == SYMMETRY:
        return "symmetry_pair" if isinstance(w.location, tuple) else "symmetry_at_f"
    return w.kind


def test_fixtures(gmic45, psi45_stages, combo, psm15):
    jumps = [
        make_pwl(F(1, 2), [0, F(1, 2)], [(1, 0, 0), (1, 1, 0)]),
        affine_combine(F(1, 3), make_pwl(F(4, 5), [0], [(F(5, 4), 0, 0)]), F(2, 3), psi45_stages[1]),
    ]
    for fn in [gmic45, *psi45_stages, combo, psm15, *jumps]:
        assert_same_verdict(fn)


def stage(f, k):
    return psi_stages(PsiParams(f, tuple(generate_eps(f, k))))[k]


@st.composite
def continuous_functions(draw):
    """Continuous functions on (1/q)Z with breakpoints at 0, f and up to four
    other points, drawn four ways: raw values from a small set; the same
    with 0 at 0 and 1 at f; symmetrized as (g(x) + 1 − g(f − x)) / 2; and
    λ·gmic + (1 − λ)·psi_k, sometimes plus a small tent."""
    mode = draw(st.sampled_from(["raw", "pinned", "symmetric", "combination"]))
    if mode == "combination":
        f = draw(st.sampled_from([F(1, 2), F(2, 3), F(3, 4), F(4, 5)]))
        k = draw(st.integers(min_value=0, max_value=2))
        lam = draw(st.fractions(min_value=0, max_value=1, max_denominator=12))
        fn = affine_combine(lam, gmic(f), 1 - lam, stage(f, k))
        height = draw(st.sampled_from([F(0), F(1, 20), F(-1, 20)]))
        if height:
            tent = pwl_from_values(f, [(0, F(0)), (f / 4, height), (f / 2, F(0))])
            fn = affine_combine(1, fn, 1, tent)
        return fn
    q = draw(st.integers(min_value=2, max_value=24))
    index = st.integers(min_value=1, max_value=q - 1)
    f_index = draw(index)
    cuts = draw(st.lists(index, max_size=4, unique=True))
    bkpts = [F(c, q) for c in sorted({0, f_index, *cuts})]
    value = st.sampled_from([F(-1, 4), F(0), F(1, 4), F(1, 2), F(3, 4), F(1)])
    values = [draw(value) for _ in bkpts]
    if mode != "raw":
        values[0] = F(0)
        values[bkpts.index(F(f_index, q))] = F(1)
    g = pwl_from_values(F(f_index, q), list(zip(bkpts, values)))
    if mode != "symmetric":
        return g
    half = make_pwl(g.f, [0], [(F(1, 2),) * 3])
    return affine_combine(1, affine_combine(F(1, 2), g, F(-1, 2), reflect(g)), 1, half)


def test_generated_continuous_functions():
    kinds = set()

    @given(continuous_functions())
    @settings(max_examples=300, deadline=None, derandomize=True)
    def check(fn):
        kinds.add(witness_kind(assert_same_verdict(fn)))

    check()
    assert kinds == {
        "minimal", ORIGIN_VALUE, NEGATIVITY, "symmetry_at_f", "symmetry_pair", SUBADDITIVITY
    }


@given(jump_functions())
@settings(max_examples=100, deadline=None, derandomize=True)
def test_generated_jump_functions(fn):
    # Functions with jumps share the vertex symmetry scan, and scaled_slacks
    # must read the value stored at a breakpoint, not a one-sided limit.
    assert_same_verdict(fn)
    fn = with_f_breakpoint(fn)
    q, verts = scaled_vertices(fn)
    slacks, d = scaled_slacks(fn, q, verts)
    expected = ref.vertex_slacks(fn)
    assert [(F(x, q), F(y, q)) for x, y in verts] == [v for v, _, _ in expected]
    assert [F(s, d) for s in slacks] == [slack for _, _, slack in expected]


@pytest.mark.parametrize("d", [10, 10**3, 10**6, 10**9, 10**12])
def test_gmic_never_samples_the_grid(monkeypatch, d):
    forbid(monkeypatch, "grid_values")
    fn = gmic(F(d - 1, d))
    assert minimality_test(fn).minimal
    # A non-minimal input on the same grid: the symmetry pair is found
    # at a vertex, not on the grid.
    bent = affine_combine(1, fn, 1, pwl_from_values(fn.f, [(0, F(0)), (F(1, d), F(1, 2 * d))]))
    verdict = assert_same_verdict(bent)
    assert not verdict.minimal
