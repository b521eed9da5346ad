"""Canonical JSON serialization for functions, verdicts and certificates.

All rationals are serialized as ``"p/q"`` strings (``"p"`` for integers),
keys are emitted in a fixed order, and every document carries
``schema_version`` so future revisions can evolve the format.  Validation
errors name the offending path inside the document.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import TYPE_CHECKING, Any, Union

from .pwl import PwlPeriodic
from .rational import rat_parse, rat_str

if TYPE_CHECKING:  # annotations only: a verdict's layer is loaded by its test
    from .extremality import ExtremalityVerdict, PerturbationCertificate
    from .finite import FiniteGroupFn
    from .minimality import MinimalityVerdict, MinimalityWitness

SCHEMA_VERSION = 1


class SchemaError(ValueError):
    """Malformed document; the message names the JSON path."""


def _rat_at(value: Any, path: str) -> Fraction:
    try:
        return rat_parse(value)
    except (ValueError, ZeroDivisionError, TypeError) as exc:
        raise SchemaError(f"{path}: {exc}") from None


def serialize_pwl(fn: PwlPeriodic) -> dict:
    fn = fn.canonicalize()
    return {
        "schema_version": SCHEMA_VERSION,
        "f": rat_str(fn.f),
        "breakpoints": [rat_str(b) for b in fn.breakpoints],
        "limits": [[rat_str(l), rat_str(v), rat_str(r)] for (l, v, r) in fn.limits],
    }


def serialize_finite(g: FiniteGroupFn) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "q": g.q,
        "f_index": g.f_index,
        "values": [rat_str(v) for v in g.values],
    }


def deserialize_pwl(obj: Any, path: str = "$") -> PwlPeriodic:
    if not isinstance(obj, dict):
        raise SchemaError(f"{path}: expected an object")
    version = obj.get("schema_version")
    if version != SCHEMA_VERSION:
        raise SchemaError(f"{path}.schema_version: expected {SCHEMA_VERSION}, got {version!r}")
    for key in ("f", "breakpoints", "limits"):
        if key not in obj:
            raise SchemaError(f"{path}.{key}: missing")
    f = _rat_at(obj["f"], f"{path}.f")
    bkpts = obj["breakpoints"]
    limits = obj["limits"]
    if not isinstance(bkpts, list) or not isinstance(limits, list):
        raise SchemaError(f"{path}.breakpoints/limits: expected arrays")
    if len(bkpts) != len(limits):
        raise SchemaError(f"{path}.limits: length differs from breakpoints")
    b_vals = [_rat_at(b, f"{path}.breakpoints[{i}]") for i, b in enumerate(bkpts)]
    trips = []
    for i, trip in enumerate(limits):
        if not isinstance(trip, list) or len(trip) != 3:
            raise SchemaError(f"{path}.limits[{i}]: expected [left, value, right]")
        trips.append(tuple(_rat_at(t, f"{path}.limits[{i}][{k}]") for k, t in enumerate(trip)))
    try:
        return PwlPeriodic(f, b_vals, trips)
    except ValueError as exc:
        raise SchemaError(f"{path}: {exc}") from None


def deserialize_finite(obj: Any, path: str = "$") -> FiniteGroupFn:
    from .finite import FiniteGroupFn

    if not isinstance(obj, dict):
        raise SchemaError(f"{path}: expected an object")
    version = obj.get("schema_version")
    if version != SCHEMA_VERSION:
        raise SchemaError(f"{path}.schema_version: expected {SCHEMA_VERSION}, got {version!r}")
    for key in ("q", "f_index", "values"):
        if key not in obj:
            raise SchemaError(f"{path}.{key}: missing")
    if not isinstance(obj["q"], int) or not isinstance(obj["f_index"], int):
        raise SchemaError(f"{path}.q/f_index: expected integers")
    if not isinstance(obj["values"], list):
        raise SchemaError(f"{path}.values: expected an array")
    values = [_rat_at(v, f"{path}.values[{i}]") for i, v in enumerate(obj["values"])]
    try:
        return FiniteGroupFn(q=obj["q"], f_index=obj["f_index"], values=tuple(values))
    except ValueError as exc:
        raise SchemaError(f"{path}: {exc}") from None


def deserialize_function(obj: Any, path: str = "$") -> Union[PwlPeriodic, FiniteGroupFn]:
    """Dispatch on the document shape: grid values vs breakpoint/limit form."""
    if isinstance(obj, dict) and "values" in obj:
        return deserialize_finite(obj, path)
    return deserialize_pwl(obj, path)


def _location_json(location):
    if isinstance(location, tuple):
        return [rat_str(location[0]), rat_str(location[1])]
    return rat_str(location)


def witness_json(witness: MinimalityWitness) -> dict:
    out = {
        "kind": witness.kind,
        "location": _location_json(witness.location),
        "value": rat_str(witness.value),
    }
    if witness.face_vertices is not None:
        out["face"] = [[rat_str(x), rat_str(y)] for x, y in witness.face_vertices]
    return out


def minimality_verdict_json(verdict: MinimalityVerdict) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "test": "minimality",
        "status": "Minimal" if verdict.minimal else "NotMinimal",
        "witness": None if verdict.witness is None else witness_json(verdict.witness),
    }


def extremality_verdict_json(verdict: ExtremalityVerdict) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "test": "extremality",
        "status": "Extreme" if verdict.extreme else "NotExtreme",
        "oversampling": verdict.oversampling,
        "grid_n": verdict.grid_n,
        "basis_dimension": verdict.basis_dimension,
        "covered_intervals": [
            [rat_str(lo), rat_str(hi)] for lo, hi in verdict.covered_intervals
        ],
    }


def certificate_json(cert: PerturbationCertificate) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "epsilon": rat_str(cert.epsilon),
        "perturbation": serialize_pwl(cert.perturbation),
        "pi_plus": serialize_pwl(cert.pi_plus),
        "pi_minus": serialize_pwl(cert.pi_minus),
    }


def dumps(obj: dict) -> str:
    """Canonical byte-stable rendering: fixed key order, no extra spaces."""
    return json.dumps(obj, separators=(",", ":")) + "\n"


def loads(text: str) -> Any:
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"invalid JSON: {exc}") from None
