from fractions import Fraction
from functools import cache

import pytest

import complex2d_reference
from groupcut import (
    PsiParams,
    affine_combine,
    generate_eps,
    gmic,
    projected_sequential_merge,
    psi_stages,
)

F = Fraction


@pytest.fixture(scope="session")
def eager_faces():
    """``complex2d_reference.enumerate_faces``, run once per function for the
    whole session.  The eager Fraction complex is the slowest part of the
    tests that compare against it, and several of them read the complex of
    the same fixture; its faces are frozen, so they can be shared."""
    return cache(complex2d_reference.enumerate_faces)


@pytest.fixture(scope="session")
def gmic45():
    return gmic(F(4, 5))


@pytest.fixture(scope="session")
def psi45_stages():
    """psi_0 .. psi_4 for f = 4/5 with the standard geometric amplitudes."""
    f = F(4, 5)
    params = PsiParams(f, tuple(generate_eps(f, 4)))
    return psi_stages(params)


@pytest.fixture(scope="session")
def combo(gmic45, psi45_stages):
    """Midpoint of gmic and psi_1: minimal but not extreme."""
    return affine_combine(F(1, 2), gmic45, F(1, 2), psi45_stages[1])


@pytest.fixture(scope="session")
def psm15():
    """Projected sequential merge of gmic(1/5) with n = 2; lands at f = 2/5."""
    return projected_sequential_merge(gmic(F(1, 5)), 2)
