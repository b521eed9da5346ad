"""Each function is scaled to integers once, and its integer form stays out
of its pickle.

A ``PwlPeriodic`` fills its integer form on first read and keeps it, and
every integer reader (the complex's evaluator, ε, ``affine_combine``,
``sup_norm_distance``) reads that form.  ``extremality_test`` therefore
scales psi_3 once, and a certificate on ¼·gmic + ¾·psi_3 makes 5 scalings:
the input, the interpolated perturbation, the grid vector it interpolates,
and the two endpoints.  A function whose form is filled pickles to the
bytes of a fresh one at every protocol, and its copies are ``==`` to it.
"""

import copy
import importlib
import pickle
import pkgutil
from fractions import Fraction

import pytest

import groupcut
from groupcut import PsiParams, affine_combine, extremality_test, generate_eps, gmic, make_pwl, psi_stages
from groupcut.pwl import PwlPeriodic
from groupcut.rational import scale_to_integers

F = Fraction
F45 = F(4, 5)
PSI = psi_stages(PsiParams(F45, tuple(generate_eps(F45, 3))))
JUMP = make_pwl(F45, [0], [(F(5, 4), 0, 0)])


def fresh(fn):
    return PwlPeriodic(fn.f, fn.breakpoints, fn.limits)


@pytest.fixture
def scalings(monkeypatch):
    """The calls of ``rational.scale_to_integers`` from every module of the package."""
    calls = []

    def counted(values):
        calls.append(len(values))
        return scale_to_integers(values)

    for info in pkgutil.iter_modules(groupcut.__path__):
        module = importlib.import_module(f"groupcut.{info.name}")
        if getattr(module, "scale_to_integers", None) is scale_to_integers:
            monkeypatch.setattr(module, "scale_to_integers", counted)
    return calls


@pytest.mark.parametrize(
    "fn, expected",
    [(PSI[3], 1), (affine_combine(F(1, 4), gmic(F45), F(3, 4), PSI[3]), 5)],
    ids=["psi_3", "combo"],
)
def test_extremality_scalings(scalings, fn, expected):
    extremality_test(fresh(fn))
    assert len(scalings) == expected


def test_form_is_filled_once(scalings):
    fn = fresh(PSI[3])
    form = fn._integer_form()
    assert fn._integer_form() is form
    extremality_test(fn)
    assert len(scalings) == 1


@pytest.mark.parametrize("fn", [PSI[3], affine_combine(F(1, 3), JUMP, F(2, 3), PSI[2])], ids=["psi_3", "jump"])
def test_filled_form_pickles_as_fresh(fn):
    filled, unread = fresh(fn), fresh(fn)
    filled._integer_form()
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        assert pickle.dumps(filled, protocol) == pickle.dumps(unread, protocol)
    assert copy.copy(filled) == filled
    assert copy.deepcopy(filled) == filled
