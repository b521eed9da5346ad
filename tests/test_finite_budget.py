"""The finite tests refuse a group order q above ``MAX_FINITE_Q`` before
their O(q²) scans.

The bound is tested without the scans: with ``first_subadditivity_violation``
and ``_additive_runs`` (the first O(q²) step of the minimality test and of
the basis) and ``grid_values`` (the grid oracle's sampling) replaced by
functions that fail, q = MAX_FINITE_Q gets past the check and reaches them,
and q = MAX_FINITE_Q + 1 is refused with a message naming the bound, in the
library and through the CLI (exit 1).  The grid oracle checks ``MAX_GRID_N``
first (``test_restrict_budget.py``).
"""

import json
from fractions import Fraction

import pytest

from groupcut import (
    FiniteGroupFn,
    finite,
    finite_extremality_test,
    finite_minimality_test,
    finite_perturbation_basis,
    gmic,
    minimality_grid_oracle,
    serialize,
)
from groupcut.cli import main
from groupcut.finite import MAX_FINITE_Q

F = Fraction

ENTRIES = [finite_minimality_test, finite_perturbation_basis, finite_extremality_test]
REFUSED = f"group order {MAX_FINITE_Q + 1} exceeds the bound of {MAX_FINITE_Q}"


class Reached(Exception):
    pass


@pytest.fixture(autouse=True)
def no_scans(monkeypatch):
    def reached(*args):
        raise Reached

    for name in ("first_subadditivity_violation", "_additive_runs", "grid_values"):
        monkeypatch.setattr(finite, name, reached)


def gmic_on_grid(q):
    """gmic(1/2) restricted to (1/q)Z for an even q: it passes the origin,
    negativity and symmetry checks of ``finite_minimality_test``."""
    h = q // 2
    return FiniteGroupFn(q, h, tuple(F(min(i, q - i), h) for i in range(q)))


def test_bound_admits_the_largest_inputs():
    # psi_4 (q = 640) restricted at m = 4 is the largest finite group of the
    # tests, the benchmark and the README.
    assert MAX_FINITE_Q >= 2_560


@pytest.mark.parametrize("entry", ENTRIES)
def test_bound_itself_is_scanned(entry):
    with pytest.raises(Reached):
        entry(gmic_on_grid(MAX_FINITE_Q))


@pytest.mark.parametrize("entry", ENTRIES)
def test_bound_plus_one_is_refused(entry):
    g = FiniteGroupFn(MAX_FINITE_Q + 1, 1, (0,) * (MAX_FINITE_Q + 1))
    with pytest.raises(ValueError, match=REFUSED):
        entry(g)


def test_grid_oracle_checks_before_sampling():
    with pytest.raises(Reached):
        minimality_grid_oracle(gmic(F(1, 2)), refine=MAX_FINITE_Q // 2)
    with pytest.raises(ValueError, match=REFUSED):
        minimality_grid_oracle(gmic(F(1, MAX_FINITE_Q + 1)), refine=1)


def test_cli_exits_1_naming_the_bound(tmp_path, capsys):
    path = tmp_path / "g.json"
    g = FiniteGroupFn(MAX_FINITE_Q + 1, 1, (0,) * (MAX_FINITE_Q + 1))
    path.write_text(json.dumps(serialize.serialize_finite(g)))
    assert main(["test", "minimality", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"exceeds the bound of {MAX_FINITE_Q}" in captured.err
