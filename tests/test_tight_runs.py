"""The finite path reads its tight-pair runs from the packed row kernel.

``finite._additive_runs`` must be ``==`` to the pair loop of
``finite_reference`` on generated value lists whose lanes are wide, full
or hold negative slacks, and on finite restrictions; it must read them
through ``finite._slack_rows``, the kernel of the subadditivity scan;
and the finite certificates it leads to are pinned by digests taken from
the pair loop.
"""

import hashlib
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import finite_reference as ref
from groupcut import (
    PsiParams,
    affine_combine,
    finite_extremality_test,
    finite_perturbation_basis,
    generate_eps,
    gmic,
    precompose_scale,
    psi_stages,
    restrict_to_finite_group,
)
from groupcut import finite
from groupcut.finite import _additive_runs
from groupcut.rational import scale_to_integers
from groupcut.serialize import dumps, serialize_finite

F = Fraction
F45 = F(4, 5)


def assert_runs_match(iv):
    assert _additive_runs(iv) == ref.additive_runs(iv, len(iv))


@given(
    st.integers(min_value=0, max_value=80),
    st.lists(st.integers(min_value=-3, max_value=6), min_size=1, max_size=30),
)
@settings(max_examples=200, deadline=None, derandomize=True)
def test_wide_values_match_the_loop(bits, small):
    # Small values repeat, so many pairs are tight; negative ones give Δ < 0.
    assert_runs_match([v << bits for v in small])


@given(st.integers(min_value=2, max_value=40), st.integers(min_value=1, max_value=70))
@settings(max_examples=100, deadline=None, derandomize=True)
def test_tent_at_the_lane_edge(n, bits):
    # Values up to 2**bits - 1: every lane is as full as its width allows.
    top = (1 << bits) - 1
    tent = [top * min(i, n - i) // (n // 2) for i in range(n)]
    assert_runs_match(tent)
    tent[n - 1] = top
    assert_runs_match(tent)
    tent[0] = -top
    assert_runs_match(tent)


@pytest.mark.parametrize("iv", [[0], [5], [-7], [0, 0], [0, 1], [3, -2], [1 << 80, 0]])
def test_one_and_two_values(iv):
    assert_runs_match(iv)


def stages(f, n):
    return psi_stages(PsiParams(f, tuple(generate_eps(f, n))))


PSI = stages(F45, 3)


def third_combination(k):
    """⅓·gmic(4/5) + ⅔·psi_k: minimal, not extreme."""
    return affine_combine(F(1, 3), gmic(F45), F(2, 3), PSI[k])


def kink_dense():
    """½·gmic + ½·h for h = gmic(1/2) precomposed with x -> 200x: a kink
    at every point of its grid, q = 400."""
    h = precompose_scale(gmic(F(1, 2)), 200)
    return affine_combine(F(1, 2), gmic(h.f), F(1, 2), h)


def restriction(fn, m):
    return restrict_to_finite_group(fn, fn.denominator_lcm(), m)


@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_restrictions_match_the_loop(k):
    for m in (1, 3):
        g = restriction(third_combination(k), m)
        iv, _ = scale_to_integers(g.values)
        assert_runs_match(iv)


def test_runs_are_read_through_the_row_kernel(monkeypatch):
    g = restriction(third_combination(2), 3)
    assert g.q == 120
    rows = []
    kernel = finite._slack_rows

    def counted(iv):
        nbytes, row = kernel(iv)

        def counted_row(i, j0, m):
            rows.append((i, j0, m))
            return row(i, j0, m)

        return nbytes, counted_row

    monkeypatch.setattr(finite, "_slack_rows", counted)
    basis = finite_perturbation_basis(g)
    assert {(j, 0, g.q) for j in range(g.q)} <= set(rows)
    monkeypatch.undo()
    assert basis == finite_perturbation_basis(g)


def certificate_digest(verdict):
    cert = verdict.certificate
    doc = {"extreme": verdict.extreme, "basis_dimension": verdict.basis_dimension}
    if cert is not None:
        doc.update(
            perturbation=serialize_finite(cert.perturbation),
            epsilon=str(cert.epsilon),
            g_plus=serialize_finite(cert.g_plus),
            g_minus=serialize_finite(cert.g_minus),
        )
    return hashlib.sha256(dumps(doc).encode("utf-8")).hexdigest()


# (q, basis dimension, sha256 of the verdict and certificate), recorded with
# the pair loop generating the runs.
PINNED = {
    "third_k1": (30, 3, "2abffb2c6b42e974d8371c8bab8b585d41e81caa78eabb40c660cd8fa5cd49d4"),
    "third_k2": (120, 7, "aeea6d9cb865dd7206052703628bcf8ed938f1e45bf465e3afccefb798e4325a"),
    "third_k3": (480, 25, "f7703eb4f89d668566057c35c43615618648f4d3dba31993270ad0bd62abe095"),
    "kink_dense": (400, 1, "65cae16c324e7ea2d218944e0dc21c259580828c6d68e119adc31c7005122b04"),
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_certificate_digest(name):
    if name == "kink_dense":
        g = restriction(kink_dense(), 1)
    else:
        g = restriction(third_combination(int(name[-1])), 3)
    verdict = finite_extremality_test(g)
    assert (g.q, verdict.basis_dimension, certificate_digest(verdict)) == PINNED[name]
