"""Inputs equal under ``==`` get one answer.

A redundant breakpoint (no jump, no change of slope) leaves the function
as it is, so ``extremality_test`` and ``minimality_grid_oracle`` read the
canonical form: the grid, the verdict and the certificate of gmic(4/5)
written with a breakpoint at 1/7 are those of gmic(4/5).
"""

import json
from fractions import Fraction as F

import pytest

from groupcut import (
    PwlPeriodic,
    affine_combine,
    extremality_test,
    minimality_grid_oracle,
    minimality_test,
    serialize,
)
from groupcut.cli import main


def with_breakpoint(fn, b):
    """fn written with an extra breakpoint at b, which carries nothing."""
    bkpts = sorted({*fn.breakpoints, b})
    return PwlPeriodic(fn.f, bkpts, [fn.limits_at(x) for x in bkpts])


def documents(verdict):
    cert = verdict.certificate
    return (
        serialize.dumps(serialize.extremality_verdict_json(verdict)),
        None if cert is None else serialize.dumps(serialize.certificate_json(cert)),
    )


@pytest.fixture(scope="module")
def pairs(gmic45, combo):
    """(canonical, the same function with a redundant breakpoint)."""
    return {
        "gmic_1/7": (gmic45, with_breakpoint(gmic45, F(1, 7))),
        "gmic_1/400000": (gmic45, with_breakpoint(gmic45, F(1, 400000))),
        "midpoint_1/7": (combo, with_breakpoint(combo, F(1, 7))),
    }


@pytest.mark.parametrize("name", ["gmic_1/7", "gmic_1/400000", "midpoint_1/7"])
def test_extremality_documents_are_byte_equal(pairs, name):
    fn, written = pairs[name]
    assert written == fn and written.breakpoints != fn.breakpoints
    assert documents(extremality_test(written)) == documents(extremality_test(fn))


def test_midpoint_keeps_its_grid_and_basis(pairs):
    verdict = extremality_test(pairs["midpoint_1/7"][1])
    assert (verdict.extreme, verdict.grid_n, verdict.basis_dimension) == (False, 30, 3)


def test_grid_oracle_reads_the_canonical_denominator(gmic45, psi45_stages):
    dented = affine_combine(2, gmic45, -1, psi45_stages[1])
    written = with_breakpoint(dented, F(1, 7))
    verdict = minimality_grid_oracle(written)
    assert verdict == minimality_grid_oracle(dented)
    assert not verdict.minimal
    assert verdict.witness.kind == "negativity"
    assert (verdict.witness.location, verdict.witness.value) == (F(1, 30), F(-1, 36))
    assert minimality_test(written).minimal == verdict.minimal


def write(tmp_path, name, fn):
    """The function's document as stored, redundant breakpoints and all
    (``serialize_pwl`` writes the canonical form)."""
    doc = {
        "schema_version": serialize.SCHEMA_VERSION,
        "f": str(fn.f),
        "breakpoints": [str(b) for b in fn.breakpoints],
        "limits": [[str(t) for t in trip] for trip in fn.limits],
    }
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.mark.parametrize("name", ["gmic_1/7", "midpoint_1/7"])
def test_cli_documents_are_byte_equal(pairs, name, tmp_path, capsys):
    outputs = []
    for i, fn in enumerate(pairs[name]):
        cert = tmp_path / f"c{i}.json"
        assert main(["test", "extremality", write(tmp_path, f"fn{i}.json", fn), "--certificate", str(cert)]) == 0
        outputs.append((capsys.readouterr().out, cert.read_text()))
    assert outputs[0] == outputs[1]
    assert len(json.loads(outputs[0][0])["covered_intervals"]) > 0
