"""The extremality test refuses a grid n = oversampling·q above
``MAX_GRID_N`` before the minimality test runs.

The bound is tested on the estimate alone: with ``minimality_test`` replaced
by a function that fails, n = MAX_GRID_N gets past the check and reaches
it, and n = MAX_GRID_N + 1 is refused with a message naming the bound.
"""

from fractions import Fraction

import pytest

from groupcut import (
    extremality,
    extremality_test,
    gmic,
    perturbation_space_basis,
    restriction_additive_pairs,
)
from groupcut.extremality import MAX_GRID_N

ENTRIES = [extremality_test, perturbation_space_basis, restriction_additive_pairs]


class Reached(Exception):
    pass


@pytest.fixture(autouse=True)
def no_minimality_test(monkeypatch):
    def reached(fn):
        raise Reached

    monkeypatch.setattr(extremality, "minimality_test", reached)


def test_bound_admits_the_finest_tier_one_grid():
    # gmic(9999/10000) at the default oversampling 3.
    assert MAX_GRID_N >= 30_000


def grid(n):
    """(gmic(f), oversampling) whose grid has exactly n = oversampling·q points."""
    q = 2 if n % 2 == 0 else next(p for p in range(3, n) if n % p == 0)
    return gmic(Fraction(q - 1, q)), n // q


@pytest.mark.parametrize("entry", ENTRIES)
def test_bound_itself_is_accepted(entry):
    fn, oversampling = grid(MAX_GRID_N)
    assert oversampling * fn.denominator_lcm() == MAX_GRID_N
    with pytest.raises(Reached):
        entry(fn, oversampling=oversampling)


@pytest.mark.parametrize("entry", ENTRIES)
def test_one_past_the_bound_is_refused(entry):
    fn, oversampling = grid(MAX_GRID_N + 1)
    assert oversampling >= 3
    assert oversampling * fn.denominator_lcm() == MAX_GRID_N + 1
    with pytest.raises(ValueError, match=f"exceeds the bound of {MAX_GRID_N} points"):
        entry(fn, oversampling=oversampling)


def test_fine_denominator_at_default_oversampling():
    q = MAX_GRID_N // 3 + 1
    with pytest.raises(ValueError, match="exceeds the bound"):
        extremality_test(gmic(Fraction(q - 1, q)))


def test_cli_exits_1_naming_the_bound(capsys, tmp_path):
    from groupcut.cli import main

    path = str(tmp_path / "fn.json")
    q = MAX_GRID_N // 3 + 1
    assert main(["construct", "gmic", "--f", f"{q - 1}/{q}", "-o", path]) == 0
    assert main(["test", "extremality", path]) == 1
    assert f"exceeds the bound of {MAX_GRID_N} points" in capsys.readouterr().err
