"""Certificates are built in one round: the ε of each group already makes
both endpoints minimal, so they are re-checked once and a failure raises.

The minimality tests are replaced by ones that fail every endpoint.  The
certificate path must raise RuntimeError after a single round of
re-checks, where a halving loop would run 64.
"""

from fractions import Fraction

import pytest

from groupcut import MinimalityVerdict, extremality_test, finite_extremality_test, restrict_to_finite_group
from groupcut import extremality, finite

F = Fraction


def recording(monkeypatch, module, name, endpoints_fail):
    """Replace module.name by a wrapper that records its arguments; after the
    first call, the input's own test, it fails if endpoints_fail."""
    original = getattr(module, name)
    calls = []

    def wrapper(fn):
        calls.append(fn)
        if endpoints_fail and len(calls) > 1:
            return MinimalityVerdict(False)
        return original(fn)

    monkeypatch.setattr(module, name, wrapper)
    return calls


def test_infinite_endpoints_are_checked_once(monkeypatch, combo):
    calls = recording(monkeypatch, extremality, "minimality_test", endpoints_fail=False)
    cert = extremality_test(combo).certificate
    assert calls[1:] == [cert.pi_plus, cert.pi_minus]


def test_infinite_failing_endpoints_raise_after_one_round(monkeypatch, combo):
    calls = recording(monkeypatch, extremality, "minimality_test", endpoints_fail=True)
    with pytest.raises(RuntimeError, match="could not validate a perturbation certificate"):
        extremality_test(combo)
    assert 1 <= len(calls) - 1 <= 2


def test_finite_endpoints_are_checked_once(monkeypatch, combo):
    g = restrict_to_finite_group(combo, combo.denominator_lcm(), 3)
    calls = recording(monkeypatch, finite, "finite_minimality_test", endpoints_fail=False)
    cert = finite_extremality_test(g).certificate
    assert calls[1:] == [cert.g_plus, cert.g_minus]


def test_finite_failing_endpoints_raise_after_one_round(monkeypatch, combo):
    g = restrict_to_finite_group(combo, combo.denominator_lcm(), 3)
    calls = recording(monkeypatch, finite, "finite_minimality_test", endpoints_fail=True)
    with pytest.raises(RuntimeError, match="could not validate a finite perturbation certificate"):
        finite_extremality_test(g)
    assert 1 <= len(calls) - 1 <= 2
