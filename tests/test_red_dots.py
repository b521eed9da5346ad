"""The diagram's red dots against an independent oracle on generated inputs.

``plot_2d_diagram`` draws the subadditivity failures of the minimality scan
as red dots, mod 1.  On derandomized jump draws and on the continuous dented
inputs and the jump violator of ``test_svg_bytes``:

1. the red-dot centres are exactly the vertices (mod 1) where
   ``complex2d_reference.delta_pi_limit`` reads a negative limit along some
   face of ``complex2d_reference.enumerate_faces``, both in Fractions, on
   the function the diagram reads (canonical, with f a breakpoint);
2. they include the location (mod 1) of a ``subadditivity`` witness of
   ``minimality_test``.
"""

import re
from fractions import Fraction

import pytest
from hypothesis import given, settings

import complex2d_reference as ref
from groupcut import affine_combine, make_pwl, minimality_test, with_f_breakpoint
from groupcut.minimality import SUBADDITIVITY
from groupcut.svg import plot_2d_diagram
from jump_strategies import jump_functions
from test_svg_bytes import fmt_reference

F = Fraction
SIZE, MARGIN = 720, 90
SPAN = SIZE - 2 * MARGIN
RED_DOT = re.compile(r'<circle cx="([^"]+)" cy="([^"]+)" r="5" fill="red"')


def red_dots(fn):
    dots = RED_DOT.findall(plot_2d_diagram(fn))
    assert len(dots) == len(set(dots))
    return set(dots)


def centre(u, v):
    """The pixel centre of the point (u, v) of the unit square, formatted."""
    return fmt_reference(MARGIN + u * SPAN), fmt_reference(SIZE - MARGIN - v * SPAN)


def oracle_dots(fn):
    fn = with_f_breakpoint(fn.canonicalize())
    return {
        centre(u % 1, v % 1)
        for face in ref.enumerate_faces(fn)
        for u, v in face.vertices
        if ref.delta_pi_limit(fn, face, (u, v)) < 0
    }


def assert_red_dots(fn):
    dots = red_dots(fn)
    assert dots == oracle_dots(fn)
    witness = minimality_test(fn).witness
    if witness is not None and witness.kind == SUBADDITIVITY:
        u, v = witness.location
        assert centre(u % 1, v % 1) in dots
    return dots, witness


@given(jump_functions())
@settings(max_examples=80, deadline=None, derandomize=True)
def test_jump_draws(fn):
    assert_red_dots(fn)


@pytest.fixture(scope="module")
def fixed_inputs(gmic45, psi45_stages):
    f = F(4, 5)
    return {
        "dented": make_pwl(
            f,
            [0, F(1, 5), F(2, 5), f],
            [(0, 0, 0), (F(1, 5), F(1, 5), F(1, 5)), (F(3, 5), F(3, 5), F(3, 5)), (1, 1, 1)],
        ),
        "dented_psi_2": affine_combine(F(3, 2), gmic45, F(-1, 2), psi45_stages[2]),
        "jump_violator": make_pwl(
            F(1, 2), [0, F(1, 4), F(1, 2)], [(1, 0, 0), (F(5, 8), F(1, 2), F(3, 8)), (1, 1, 0)]
        ),
    }


@pytest.mark.parametrize(
    "name, count, kind",
    [("dented", 1, "symmetry"), ("dented_psi_2", 24, "negativity"), ("jump_violator", 6, SUBADDITIVITY)],
)
def test_fixed_inputs(fixed_inputs, name, count, kind):
    dots, witness = assert_red_dots(fixed_inputs[name])
    assert len(dots) == count
    assert witness.kind == kind
