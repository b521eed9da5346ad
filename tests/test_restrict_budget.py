"""The restriction refuses a grid n = m·q above ``MAX_GRID_N`` before it
samples.

As in ``test_grid_budget.py``, the bound is tested on the estimate alone:
with ``finite.grid_values`` replaced by a function that fails, n = MAX_GRID_N
gets past the check and reaches it, and n = MAX_GRID_N + 1 is refused with a
message naming the bound.
"""

from fractions import Fraction

import pytest

from groupcut import extremality, finite, gmic, minimality_grid_oracle, pwl, restrict_to_finite_group
from groupcut.cli import main

MAX_GRID_N = pwl.MAX_GRID_N


class Reached(Exception):
    pass


@pytest.fixture
def no_sampling(monkeypatch):
    def reached(fn, n):
        raise Reached

    monkeypatch.setattr(finite, "grid_values", reached)


def test_one_bound_for_every_grid():
    assert extremality.MAX_GRID_N is MAX_GRID_N


def test_bound_itself_is_sampled(no_sampling):
    with pytest.raises(Reached):
        restrict_to_finite_group(gmic(Fraction(1, 2)), 2, MAX_GRID_N // 2)


@pytest.mark.parametrize("q, m", [(MAX_GRID_N + 1, 1), (101, 9_901)])
def test_one_past_the_bound_is_refused(no_sampling, q, m):
    assert q * m == MAX_GRID_N + 1
    with pytest.raises(ValueError, match=f"grid of {MAX_GRID_N + 1} points exceeds the bound of {MAX_GRID_N} points"):
        restrict_to_finite_group(gmic(Fraction(1, 101)), q, m)


def test_grid_oracle_is_refused(no_sampling):
    with pytest.raises(ValueError, match=f"exceeds the bound of {MAX_GRID_N} points"):
        minimality_grid_oracle(gmic(Fraction(100, 101)), refine=9_901)


def test_cli_exits_1_naming_the_bound(capsys, no_sampling, tmp_path):
    path = str(tmp_path / "fn.json")
    assert main(["construct", "gmic", "--f", "4/5", "-o", path]) == 0
    assert main(["restrict", path, "--q", "1000000000000"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"exceeds the bound of {MAX_GRID_N} points" in captured.err
