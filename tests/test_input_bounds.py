"""Inputs whose cost would explode are refused with a message, and the CLI
exits 1, before any work.

- A JSON document nested deeper than the decoder's recursion allows is
  malformed input: ``serialize.loads`` raises ``SchemaError``.
- ``generate_eps`` and ``psi_stages`` refuse a psi_n above ``MAX_GRID_N``
  breakpoints (psi_n has 2^(n+1)), and ``precompose_scale`` refuses a
  scale factor lam whose image has |lam| times the breakpoints of its input
  above it.  The bound is patched small here, so that the inputs at the
  bound are built and those one past it are not.
"""

from fractions import Fraction

import pytest

from groupcut import PsiParams, generate_eps, gmic, precompose_scale, psi_stages, pwl, serialize
from groupcut.cli import main

F = Fraction
DEEP = "[" * 100_000


def test_deeply_nested_json_is_a_schema_error():
    with pytest.raises(serialize.SchemaError, match="invalid JSON: maximum recursion depth"):
        serialize.loads(DEEP)


def test_cli_exits_1_on_deeply_nested_json(capsys, tmp_path):
    path = tmp_path / "deep.json"
    path.write_text(DEEP)
    assert main(["test", "minimality", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: invalid JSON: maximum recursion depth")


@pytest.fixture
def bound_8(monkeypatch):
    monkeypatch.setattr(pwl, "MAX_GRID_N", 8)


@pytest.fixture
def bound_7(monkeypatch):
    monkeypatch.setattr(pwl, "MAX_GRID_N", 7)


def test_psi_at_the_bound_is_built(bound_8):
    # psi_2 has 2^3 = 8 breakpoints.
    eps = generate_eps(F(4, 5), 2)
    assert len(psi_stages(PsiParams(F(4, 5), tuple(eps)))[-1].breakpoints) == 8


def test_psi_past_the_bound_is_refused(bound_7):
    message = "psi_2 has 2\\^3 breakpoints, more than the bound of 7"
    with pytest.raises(ValueError, match=message):
        generate_eps(F(4, 5), 2)
    eps = (F(1, 5), F(1, 20))
    with pytest.raises(ValueError, match=message):
        psi_stages(PsiParams(F(4, 5), eps))


@pytest.mark.parametrize("lam", [4, -4])
def test_scale_at_the_bound_is_built(bound_8, lam):
    # gmic has 2 breakpoints, so its image has 2|lam| = 8.
    assert len(precompose_scale(gmic(F(4, 5)), lam).breakpoints) == 8


@pytest.mark.parametrize("lam", [4, -4])
def test_scale_past_the_bound_is_refused(bound_7, lam):
    with pytest.raises(ValueError, match="has 8 breakpoints, more than the bound of 7"):
        precompose_scale(gmic(F(4, 5)), lam)


def test_cli_exits_1_naming_the_bound(bound_7, capsys, tmp_path):
    path = str(tmp_path / "g.json")
    assert main(["construct", "gmic", "--f", "4/5", "-o", path]) == 0
    assert main(["construct", "psi_n", "--f", "4/5", "--n", "2"]) == 1
    assert main(["apply", "scale", path, "--lam", "4"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("more than the bound of 7") == 2
