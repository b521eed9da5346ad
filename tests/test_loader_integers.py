"""The loaders take only JSON integers where the schema asks for one.

JSON ``true`` loads as a Python bool and ``1.0`` as a float, and both
compare equal to 1; a document carrying either as ``schema_version``, ``q``
or ``f_index`` is refused with a ``SchemaError`` naming the path, and the
CLI exits 1.
"""

import json

import pytest

from groupcut.cli import main
from groupcut.serialize import SchemaError, deserialize_finite, deserialize_function, deserialize_pwl

FINITE = {"schema_version": 1, "q": 3, "f_index": 2, "values": ["0", "1/2", "1"]}
PWL = {"schema_version": 1, "f": "1/2", "breakpoints": ["0"], "limits": [["0", "0", "0"]]}


def test_well_formed_documents_load():
    assert deserialize_finite(FINITE).f_index == 2
    assert deserialize_pwl(PWL).f == 1 / 2


@pytest.mark.parametrize("value", [True, 1.0])
@pytest.mark.parametrize("doc, load", [(FINITE, deserialize_finite), (PWL, deserialize_pwl)])
def test_schema_version_must_be_an_integer(doc, load, value):
    with pytest.raises(SchemaError, match=r"^\$\.schema_version: expected 1"):
        load(dict(doc, schema_version=value))


@pytest.mark.parametrize("key, value", [("f_index", True), ("q", True), ("f_index", 2.0), ("q", "3")])
def test_finite_integers_must_be_integers(key, value):
    with pytest.raises(SchemaError, match=rf"^\$\.{key}: expected an integer"):
        deserialize_finite(dict(FINITE, **{key: value}))


def test_nested_path_is_named():
    with pytest.raises(SchemaError, match=r"^\$\.fn\.f_index: "):
        deserialize_function(dict(FINITE, f_index=True), "$.fn")


@pytest.mark.parametrize(
    "doc",
    [
        {"schema_version": 1, "q": 3, "f_index": True, "values": ["0", "1", "1/2"]},
        {"schema_version": True, "q": 3, "f_index": 1, "values": ["0", "1", "1/2"]},
        dict(PWL, schema_version=True),
    ],
    ids=["f_index", "finite_version", "pwl_version"],
)
def test_cli_exits_1_naming_the_path(capsys, tmp_path, doc):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    assert main(["test", "minimality", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "$." in captured.err
