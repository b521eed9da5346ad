"""One least-ratio rule for both certificates, and the finite ε read from the
rows that can lower it.

``min_slack_ratio`` reads only the pairs i <= j <= k of the triples
i + j + k ≡ f of vectors symmetric about f.  It must be ``==`` to the
all-pairs loop of ``certificate_reference`` and to the all-pairs scan of
``finite_scan_reference`` (or raise the same ``ValueError``) on the
generated symmetric vectors of ``symmetric_pairs``, on the m = 3
restrictions of λ·gmic + (1−λ)·psi_k and on the ½·gmic + ½·psi_1 midpoint
at q = 100 and q = 1,000; the all-pairs scan must match the loop on any
vectors.  On a minimal g it reads pair by pair exactly the rows where the
loop's running least ratio drops.
"""

import random
from fractions import Fraction
from pathlib import Path

import pytest

import certificate_reference as ref
import finite_scan_reference as ref_scan
from groupcut import (
    PsiParams,
    affine_combine,
    finite_minimality_test,
    generate_eps,
    gmic,
    psi_stages,
    restrict_to_finite_group,
)
from groupcut import finite
from groupcut.finite import _additive_runs, min_slack_ratio
from groupcut.rational import least_ratio, scale_to_integers
from groupcut.solver import perturbation_space
from symmetric_vectors import is_symmetric, symmetric_pairs

F = Fraction
F45 = F(4, 5)
REFUSAL = "non-additive at a tight pair"


def outcome(scan, *args):
    try:
        return scan(*args)
    except ValueError as exc:
        return str(exc)


# -- the rule ------------------------------------------------------------------


def test_least_ratio_starts_from_no_ratio():
    assert least_ratio([]) == (1, 0)
    # Pairs with delta = 0 are skipped, whatever their slack.
    assert least_ratio([(-1, 0), (0, 0), (5, 0)]) == (1, 0)
    assert least_ratio([(3, -2)]) == (3, 2)
    assert least_ratio([(3, 2)], 1, 1) == (1, 1)
    assert least_ratio([(1, 2)], 1, 1) == (1, 2)


def test_least_ratio_keeps_the_first_of_a_tie():
    assert least_ratio([(2, 4), (1, 2), (3, -6)]) == (2, 4)
    assert least_ratio([(2, 2), (3, 3)], 1, 1) == (1, 1)


@pytest.mark.parametrize("pair", [(0, 1), (-1, -3), (0, -1)])
def test_least_ratio_refuses_a_pair_no_epsilon_keeps(pair):
    for s, d in ((1, 0), (1, 100)):
        with pytest.raises(ValueError, match=REFUSAL):
            least_ratio([(5, 1), pair], s, d)


def test_the_refusal_is_written_once():
    src = Path(finite.__file__).parent
    assert sum(p.read_text().count(REFUSAL) for p in src.glob("*.py")) == 1


# -- generated vectors ---------------------------------------------------------


def generated_pairs(count=200, seed=24):
    """Integer pairs (iv, ib), n = 2..12: a third with any iv (mostly not
    subadditive), the rest a cycle distance tent with a lift off 0 and noise
    that sometimes breaks subadditivity; ib small, so ratios often tie."""
    rng = random.Random(seed)
    for t in range(count):
        n = rng.randint(2, 12)
        ib = [rng.randint(-2, 2) for _ in range(n)]
        if t % 3 == 0:
            iv = [rng.randint(-3, 6) for _ in range(n)]
        else:
            ib[0] = 0
            iv = [0] + [3 * min(i, n - i) + 2 + rng.randint(-1, 1) * (t % 3 - 1) for i in range(1, n)]
        yield iv, ib


def least_pairs(iv, ib, f=None):
    """How many pairs i <= j attain the least slack / |Δb|, Δb ≠ 0; with f,
    only the pairs i <= j <= k, k = (f - i - j) mod n, one per triple."""
    n = len(iv)
    ratios = [
        F(iv[i] + iv[j] - iv[(i + j) % n], abs(d))
        for i in range(n)
        for j in range(i, n)
        if (f is None or j <= (f - i - j) % n) and (d := ib[i] + ib[j] - ib[(i + j) % n])
    ]
    return ratios.count(min(ratios)) if ratios else 0


def test_all_pairs_scan_matches_the_loop():
    seen = {"ratio": 0, "tie": 0, "none": 0, "refused": 0, "not subadditive": 0}
    for iv, ib in generated_pairs():
        got = outcome(ref_scan.min_slack_ratio, iv, ib)
        assert got == outcome(ref.min_slack_ratio, iv, ib), (iv, ib)
        if isinstance(got, str):
            seen["refused"] += 1
            continue
        seen["none" if got is None else "ratio"] += 1
        seen["tie"] += least_pairs(iv, ib) > 1
        n = len(iv)
        seen["not subadditive"] += any(iv[i] + iv[j] < iv[(i + j) % n] for i in range(n) for j in range(n))
    # The draws reach every outcome, ties and inputs that are not subadditive.
    assert all(seen.values()), seen


def test_generated_vectors_match_the_loop():
    """On symmetric vectors, the triple scan gives the all-pairs answer.  The
    draws reach every outcome; ties between distinct triples; inputs that
    are not subadditive; and perturbations that vanish at 0 and f."""
    seen = {"ratio": 0, "tie": 0, "none": 0, "refused": 0, "not subadditive": 0, "vanishing": 0}
    for iv, ib, f in symmetric_pairs():
        assert is_symmetric(iv, f) and is_symmetric(ib, f)
        got = outcome(min_slack_ratio, iv, ib, f)
        assert got == outcome(ref.min_slack_ratio, iv, ib) == outcome(ref_scan.min_slack_ratio, iv, ib), (iv, ib, f)
        seen["vanishing"] += ib[0] == ib[f] == 0 < f
        if isinstance(got, str):
            seen["refused"] += 1
            continue
        seen["none" if got is None else "ratio"] += 1
        seen["tie"] += least_pairs(iv, ib, f) > 1
        n = len(iv)
        seen["not subadditive"] += any(iv[i] + iv[j] < iv[(i + j) % n] for i in range(n) for j in range(n))
    assert all(seen.values()), seen


@pytest.mark.parametrize("iv,ib,f", [([0, 2, 1, 1], [0, 1, 0, 0], 1), ([0, 1, 3], [0, 0, 0], 1)])
def test_vectors_not_symmetric_about_f_are_refused(iv, ib, f):
    with pytest.raises(ValueError, match="v\\(x\\) \\+ v\\(f - x\\) constant"):
        min_slack_ratio(iv, ib, f)


# -- restrictions and midpoints ------------------------------------------------


PSI = psi_stages(PsiParams(F45, tuple(generate_eps(F45, 4))))


def restriction(k, lam):
    fn = affine_combine(lam, gmic(F45), 1 - lam, PSI[k])
    return restrict_to_finite_group(fn, fn.denominator_lcm(), 3)


def midpoint_restriction(q):
    psi_1 = psi_stages(PsiParams(F45, tuple(generate_eps(F45, 1))))[1]
    return restrict_to_finite_group(affine_combine(F(1, 2), gmic(F45), F(1, 2), psi_1), q)


def first_perturbation(g):
    """basis[0] of the finite perturbation space, scaled to integers; only
    that vector is lifted."""
    iv = g._integers[0]
    return list(iv), scale_to_integers(perturbation_space(g.q, g.f_index, _additive_runs(iv))[0])[0]


FINITE_INPUTS = [
    *(
        (f"k{k}-lam{lam}", lambda k=k, lam=lam: restriction(k, lam))
        for k in (1, 2, 3)
        for lam in (F(1, 4), F(1, 2), F(2, 3))
    ),
    ("midpoint-100", lambda: midpoint_restriction(100)),
    ("midpoint-1000", lambda: midpoint_restriction(1000)),
]


@pytest.mark.parametrize("build", [b for _, b in FINITE_INPUTS], ids=[name for name, _ in FINITE_INPUTS])
def test_minimal_inputs_read_only_the_rows_where_the_ratio_drops(monkeypatch, build):
    g = build()
    assert finite_minimality_test(g).minimal
    iv, ib = first_perturbation(g)
    drops = []
    want = ref.min_slack_ratio(iv, ib, drops)
    assert want is not None
    read = []
    flagged_row = finite._flagged_row

    def recording(vectors, f_index, start):
        i = flagged_row(vectors, f_index, start)
        if i is not None:
            read.append(i)
        return i

    monkeypatch.setattr(finite, "_flagged_row", recording)
    assert min_slack_ratio(iv, ib, g.f_index) == want
    assert read == sorted(set(drops))
