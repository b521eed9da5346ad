"""The complex refuses more than ``MAX_BREAKPOINTS`` breakpoints before work.

Its vertices and faces grow as B², B the breakpoint count, so
``scaled_vertices`` and ``enumerate_faces`` check B first.  The bound is
tested without building the complex: with ``_sum_ends``, the first step
after the check, replaced by a function that fails, B = MAX_BREAKPOINTS
gets past the check and reaches it, and B = MAX_BREAKPOINTS + 1 is refused
with a message naming the bound, in the library and through the CLI (exit
1).  The ε ratio test counts the union of its two functions' breakpoints.
"""

import json
from fractions import Fraction

import pytest

from groupcut import (
    additivity_report,
    complex2d,
    delta_vertices,
    enumerate_faces,
    epsilon_ratio_test,
    make_pwl,
    minimality_test,
    serialize,
)
from groupcut.cli import main
from groupcut.complex2d import MAX_BREAKPOINTS
from groupcut.svg import plot_2d_diagram

F = Fraction

ENTRIES = [enumerate_faces, delta_vertices, minimality_test, additivity_report, plot_2d_diagram]


class Reached(Exception):
    pass


@pytest.fixture(autouse=True)
def no_complex(monkeypatch):
    def reached(*args):
        raise Reached

    monkeypatch.setattr(complex2d, "_sum_ends", reached)


def kinked(b):
    """b breakpoints i/b, each a change of slope: 0 at 0 and 1 at f = h/b,
    h = b // 2, linear in between, and 1/1000 higher at every odd i.  It
    passes the origin, negativity and f checks of ``minimality_test``."""
    h = b // 2
    values = [F(i, h) if i <= h else F(b - i, b - h) for i in range(b)]
    values = [v + F(i % 2, 1000) for i, v in enumerate(values)]
    return make_pwl(F(h, b), [F(i, b) for i in range(b)], [(v, v, v) for v in values])


def test_bound_admits_the_largest_inputs():
    # psi_4 (32 breakpoints) is the largest input of the tests, the
    # benchmark and the README; psi_5 (64) is profiled in the ROADMAP.
    assert MAX_BREAKPOINTS >= 64


@pytest.mark.parametrize("entry", ENTRIES)
def test_bound_itself_is_accepted(entry):
    fn = kinked(MAX_BREAKPOINTS)
    assert len(fn.canonicalize().breakpoints) == MAX_BREAKPOINTS
    with pytest.raises(Reached):
        entry(fn)


@pytest.mark.parametrize("entry", ENTRIES)
def test_bound_plus_one_is_refused(entry):
    fn = kinked(MAX_BREAKPOINTS + 1)
    assert len(fn.canonicalize().breakpoints) == MAX_BREAKPOINTS + 1
    with pytest.raises(ValueError, match=f"{MAX_BREAKPOINTS + 1} breakpoints exceed the bound of {MAX_BREAKPOINTS}"):
        entry(fn)


def test_epsilon_ratio_test_counts_the_union():
    fn = kinked(MAX_BREAKPOINTS)
    step = make_pwl(fn.f, [0, F(1, 3)], [(0, 0, 0), (F(1, 9),) * 3])
    with pytest.raises(ValueError, match=f"{MAX_BREAKPOINTS + 1} breakpoints exceed the bound"):
        epsilon_ratio_test(fn, step)


@pytest.mark.parametrize("command", [["test", "minimality"], ["plot", "diagram"]])
def test_cli_exits_1_naming_the_bound(tmp_path, capsys, command):
    path = tmp_path / "fn.json"
    path.write_text(json.dumps(serialize.serialize_pwl(kinked(MAX_BREAKPOINTS + 1))))
    assert main([*command, str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"exceed the bound of {MAX_BREAKPOINTS}" in captured.err
