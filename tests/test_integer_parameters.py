"""Scale factors, stage counts and grid sizes must be ``int``: anything else,
``bool`` included, is refused with a ``ValueError`` naming the parameter, as
``FiniteGroupFn`` does for ``q`` and ``f_index``, instead of being truncated
by ``int()``.  The restriction also refuses q < 1 and m < 1 before it
samples, so the CLI's ``restrict`` exits 1.
"""

from fractions import Fraction

import pytest

from groupcut import (
    construct,
    generate_eps,
    gmic,
    minimality_grid_oracle,
    multiplicative_homomorphism,
    precompose_scale,
    projected_sequential_merge,
    restrict_to_finite_group,
)
from groupcut.cli import main

F = Fraction
F45 = F(4, 5)
NOT_INTS = [F(3, 2), F(2), 2.0, 2.5, True]


@pytest.mark.parametrize("lam", NOT_INTS)
def test_scale_factor(lam):
    with pytest.raises(ValueError, match="lam must be an integer"):
        precompose_scale(gmic(F45), lam)
    with pytest.raises(ValueError, match="lam must be an integer"):
        multiplicative_homomorphism(gmic(F45), lam)
    with pytest.raises(ValueError, match="lam must be an integer"):
        construct("multiplicative_homomorphism", fn=gmic(F45), lam=lam)


@pytest.mark.parametrize("n", NOT_INTS)
def test_stage_count(n):
    with pytest.raises(ValueError, match="n must be a nonnegative integer"):
        generate_eps(F45, n)
    with pytest.raises(ValueError, match="n must be a nonnegative integer"):
        construct("psi_n", f=F45, n=n)


@pytest.mark.parametrize("n", NOT_INTS)
def test_merge_count(n):
    with pytest.raises(ValueError, match="n must be a positive integer"):
        projected_sequential_merge(gmic(F(1, 5)), n)
    with pytest.raises(ValueError, match="n must be a positive integer"):
        construct("projected_sequential_merge", f=F(1, 5), n=n)


@pytest.mark.parametrize("key", ["q", "f_index"])
def test_fill_in_grid(key):
    params = dict(q=5, f_index=4, values=[0, F(1, 4), F(1, 2), F(3, 4), 1], s_plus=F(25, 16), s_minus=-5)
    params[key] = F(params[key])
    with pytest.raises(ValueError, match="must be integers"):
        construct("two_slope_fill_in", **params)


def test_integers_still_build():
    assert precompose_scale(gmic(F45), 2) == multiplicative_homomorphism(gmic(F45), 2)
    assert construct("psi_n", f=F45, n=2).breakpoints[-1] < 1
    assert construct("projected_sequential_merge", f=F(1, 5), n=2).f == F(2, 5)


@pytest.mark.parametrize(
    "q, m, name",
    [(-5, -1, "q"), (0, 3, "q"), (5, 0, "m"), (5, -1, "m"), (F(5), 1, "q"), (5, 1.0, "m"), (5, True, "m")],
)
def test_restriction_refuses(q, m, name):
    with pytest.raises(ValueError, match=f"{name} must be a positive integer"):
        restrict_to_finite_group(gmic(F45), q, m)


@pytest.mark.parametrize("refine", [0, -1, F(3)])
def test_grid_oracle_inherits_the_check(refine):
    with pytest.raises(ValueError, match="m must be a positive integer"):
        minimality_grid_oracle(gmic(F45), refine)


@pytest.mark.parametrize("q, m", [("-5", "-1"), ("5", "0"), ("0", "1")])
def test_cli_restrict_exits_1(capsys, tmp_path, q, m):
    path = str(tmp_path / "g.json")
    assert main(["construct", "gmic", "--f", "4/5", "-o", path]) == 0
    assert main(["restrict", path, "--q", q, "--m", m]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "must be a positive integer" in captured.err
