"""The interval-lemma solver against the per-unit reference.

Difference classes must be identical and bases ``==`` to
``solver_reference`` on the fixtures, on finite restrictions, on
derandomized draws of convex combinations and ``precompose_scale`` images,
and on synthetic run lists that reach the step-by-step fallback.
"""

import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import solver_reference as ref
from groupcut import (
    PsiParams,
    additivity_report,
    affine_combine,
    extremality_test,
    finite_perturbation_basis,
    generate_eps,
    gmic,
    precompose_scale,
    projected_sequential_merge,
    psi_stages,
    restrict_to_finite_group,
    with_f_breakpoint,
)
from groupcut.complex2d import _additive_face_runs
from groupcut.finite import _additive_runs
from groupcut.rational import scale_to_integers
from groupcut.solver import _difference_classes, perturbation_space

F = Fraction
F45 = F(4, 5)


def stages(f, n):
    return psi_stages(PsiParams(f, tuple(generate_eps(f, n))))


def solver_input(fn, m=3):
    """The solver's arguments for fn on the grid (1/(mq))Z."""
    fn = with_f_breakpoint(fn)
    n = m * fn.denominator_lcm()
    runs = _additive_face_runs(additivity_report(fn), n)
    return n, int(fn.f * n), runs


def pair_runs(pairs):
    """Each extra pair (u, v) as the run ("h", v, u, u): its anchor, no relation."""
    return [("h", v, u, u) for u, v in pairs]


def assert_same_solution(n, f_index, runs, pairs=()):
    assert _difference_classes(n, runs) == ref.difference_classes(n, runs)
    basis = perturbation_space(n, f_index, [*runs, *pair_runs(pairs)])
    assert basis == ref.perturbation_space(n, f_index, runs, pairs)
    assert all(type(x) is Fraction for row in basis for x in row)
    return basis


def fixtures():
    psi = stages(F45, 4)
    g = gmic(F45)
    out = {f"psi_{k}": psi[k] for k in range(5)}
    out["psm"] = projected_sequential_merge(gmic(F(1, 5)), 2)
    for k, lam in ((1, F(1, 2)), (2, F(1, 3)), (3, F(3, 4))):
        out[f"combo_k{k}"] = affine_combine(lam, g, 1 - lam, psi[k])
    return out


FIXTURES = fixtures()
# combo_k3 at m = 5 would take the reference 4 s; psi_4 is checked at m = 3.
CASES = [
    (name, m)
    for name in sorted(FIXTURES)
    for m in (3, 4, 5)
    if (name, m) not in {("combo_k3", 5), ("psi_4", 4), ("psi_4", 5)}
]


@pytest.mark.parametrize("name,m", CASES)
def test_fixture_matches_reference(name, m):
    n, f_index, runs = solver_input(FIXTURES[name], m)
    basis = assert_same_solution(n, f_index, runs)
    assert bool(basis) == name.startswith("combo")


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_face_runs_match_fraction_expansion(name):
    fn = with_f_breakpoint(FIXTURES[name])
    report = additivity_report(fn)
    for m in (3, 4):
        n = m * fn.denominator_lcm()
        expected = sorted(ref.additive_face_runs(report.additive_faces, n))
        assert sorted(_additive_face_runs(report, n)) == expected


@pytest.mark.parametrize("name", ["psi_1", "psi_2", "psm", "combo_k1", "combo_k2"])
def test_finite_restriction_matches_reference(name):
    fn = FIXTURES[name]
    g = restrict_to_finite_group(fn, fn.denominator_lcm(), 3)
    runs = _additive_runs(scale_to_integers(g.values)[0])
    basis = assert_same_solution(g.q, g.f_index, runs)
    assert finite_perturbation_basis(g) == basis


stage_draws = st.tuples(
    st.sampled_from([F(1, 2), F(2, 3), F(3, 4), F45]),
    st.integers(min_value=0, max_value=2),
)
lambdas = st.fractions(min_value=F(1, 10), max_value=F(9, 10), max_denominator=12)


@given(stage_draws, lambdas, st.sampled_from([3, 4]))
@settings(max_examples=12, deadline=None, derandomize=True)
def test_convex_combinations_match_reference(fk, lam, m):
    f, k = fk
    fn = affine_combine(lam, gmic(f), 1 - lam, stages(f, k)[k])
    assert_same_solution(*solver_input(fn, m))


# (stage, scale factor), as in the complex oracle test.
scalings = st.sampled_from([(0, -2), (0, -1), (0, 2), (0, 3), (1, -2), (1, -1), (1, 2)])


@given(st.sampled_from([F(1, 2), F(2, 3), F(3, 4), F45]), scalings)
@settings(max_examples=10, deadline=None, derandomize=True)
def test_precompose_scale_images_match_reference(f, scaling):
    k, lam = scaling
    assert_same_solution(*solver_input(precompose_scale(stages(f, k)[k], lam)))


# -- synthetic run lists -------------------------------------------------------
# Runs made by hand reach what the faces of the fixtures may not: targets
# that wrap past n, v and d runs whose ranges are linked or not, empty
# (lo == hi) and reversed runs, and runs that unite step by step.

SYNTHETIC = {
    # A stair of rows (a 2-D face): shifts s and s + 1 overlap.
    "stair": (12, 8, [("h", j, 0, 8 - j) for j in range(9)]),
    # The same stair shifted so that every target wraps past n.
    "stair_wrapping": (12, 3, [("h", j, 4, 12 - (j - 7)) for j in range(7, 13)]),
    # A single long row whose target wraps, and a d run over linked steps.
    "wrap_and_mirror": (10, 4, [("h", 7, 2, 9), ("h", 1, 0, 4), ("d", 9, 1, 5)]),
    # v runs only, no neighbouring shifts: each unites step by step.
    "v_fallback": (15, 5, [("v", 4, 0, 3), ("v", 9, 2, 7), ("v", 6, 10, 12)]),
    # d runs only: nothing is linked, every run falls back.
    "d_fallback": (14, 7, [("d", 13, 2, 6), ("d", 20, 8, 12), ("d", 5, 0, 5)]),
    # Points and reversed runs carry anchors (or nothing) and no relation.
    "points": (9, 3, [("h", 2, 4, 4), ("v", 5, 1, 1), ("d", 8, 3, 3), ("h", 1, 6, 5)]),
    # A linked source with an unlinked target: the target is linked.
    "source_linked": (16, 6, [("h", 1, 0, 6), ("h", 5, 2, 6), ("v", 9, 3, 7)]),
    # Whole-circle runs, shift n and shift 0.
    "full_circle": (8, 4, [("h", 3, 0, 8), ("h", 8, 0, 8), ("h", 0, 2, 5)]),
}


@pytest.mark.parametrize("name", sorted(SYNTHETIC))
def test_synthetic_runs_match_reference(name):
    n, f_index, runs = SYNTHETIC[name]
    assert_same_solution(n, f_index, runs, pairs=[(1, 2)])


@st.composite
def run_lists(draw):
    """Runs whose anchors stay inside [0, n], as the solver requires."""
    n = draw(st.integers(min_value=1, max_value=24))
    runs = []
    for _ in range(draw(st.integers(min_value=0, max_value=10))):
        kind = draw(st.sampled_from("hvd"))
        lo = draw(st.integers(min_value=0, max_value=n))
        hi = draw(st.integers(min_value=lo - 1, max_value=n))
        if kind == "d":
            c = draw(st.integers(min_value=max(hi, 0), max_value=lo + n))
        else:
            c = draw(st.integers(min_value=0, max_value=n))
        runs.append((kind, c, lo, hi))
    if draw(st.booleans()):
        top = draw(st.integers(min_value=0, max_value=n))
        runs += [("h", j, 0, top - j) for j in range(top + 1)]
    f_index = draw(st.integers(min_value=0, max_value=n))
    return n, f_index, runs


@given(run_lists())
@settings(max_examples=150, deadline=None, derandomize=True)
def test_generated_runs_match_reference(case):
    assert_same_solution(*case)


def test_unknown_run_kind_is_refused():
    with pytest.raises(ValueError, match="unknown run kind"):
        perturbation_space(6, 2, [("x", 1, 0, 3)])


def test_fine_grid_gmic_is_extreme_within_budget():
    # The per-unit solver made about 4.5e8 unions here; it did not finish
    # in 120 s.  With difference classes by the interval lemma the call
    # takes about 0.5 s.
    start = time.perf_counter()
    verdict = extremality_test(gmic(F(9999, 10000)))
    elapsed = time.perf_counter() - start
    assert verdict.extreme and verdict.grid_n == 30000
    assert elapsed < 20, f"took {elapsed:.1f} s"
