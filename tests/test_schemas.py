"""The JSON schemas under src/sympdiv/schema/ as a checked contract: the
documents the program reads and writes validate against them, resolved
offline in one registry keyed by each schema's `$id`."""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path

import jsonschema
import pytest
from referencing import Registry, Resource

from conftest import FIXTURES
from sympdiv import documents
from sympdiv.cli import main

SCHEMA_DIR = Path(documents.__file__).parent / "schema"


def _validator(schema_id: str) -> jsonschema.Draft7Validator:
    # no `retrieve` hook: a reference outside the three schemas is an error,
    # never a network fetch
    resources = [
        Resource.from_contents(json.loads(p.read_text(encoding="utf-8")))
        for p in sorted(SCHEMA_DIR.glob("*.json"))
    ]
    registry = Registry().with_resources((r.contents["$id"], r) for r in resources)
    schema = registry.contents(schema_id)
    jsonschema.Draft7Validator.check_schema(schema)
    return jsonschema.Draft7Validator(schema, registry=registry)


def _certificate(path: Path, capsys) -> dict | None:
    rc = main(["certify", str(path)])
    out = capsys.readouterr().out
    return json.loads(out) if rc == 0 else None


FIXTURE_PATHS = sorted(FIXTURES.glob("*.json"))


@pytest.mark.parametrize("path", FIXTURE_PATHS, ids=lambda p: p.name)
def test_fixture_configs_match_the_config_schema(path):
    _validator(documents.CONFIG_SCHEMA).validate(json.loads(path.read_text()))


@pytest.mark.parametrize("path", FIXTURE_PATHS, ids=lambda p: p.name)
def test_certificates_match_the_certificate_schema(path, capsys):
    doc = _certificate(path, capsys)
    if doc is not None:
        _validator(documents.CERTIFICATE_SCHEMA).validate(doc)


@pytest.mark.parametrize("n", [0, 1, 2, 3, 9])
def test_inflation_plans_match_the_plan_schema(n, capsys):
    d = [Fraction(2, 5) * Fraction(9, 10) ** (i - 1) for i in range(1, n + 1)]
    # inside P_2 at every n, n = 0 included (there P_2 asks d_B > 2)
    target = ",".join(map(str, [sum(d) / 2 + Fraction(5, 2)] + d))
    rc = main(["inflate", "--n", str(n), "--g", "2", "--target", target])
    assert rc == 0
    _validator(documents.PLAN_SCHEMA).validate(json.loads(capsys.readouterr().out))


def test_certificate_schema_rejects_a_non_string_input_id(capsys):
    doc = _certificate(FIXTURES / "cp2_13_cusp.json", capsys)
    doc["input"]["components"][0]["id"] = 7
    with pytest.raises(jsonschema.ValidationError):
        _validator(documents.CERTIFICATE_SCHEMA).validate(doc)


def test_a_v1_certificate_is_refused_with_a_pointer_to_v2(capsys):
    # the cp2_13 certificate as v1 printed it, before contractions and moves
    # were recorded
    path = Path(__file__).parent / "data" / "cp2_13_cusp.v1.cert.json"
    assert json.loads(path.read_text())["schema"] == "sympdiv/certificate/v1"
    assert main(["check", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("input error: ")
    assert documents.CERTIFICATE_SCHEMA in captured.err and "re-run `sympdiv certify`" in captured.err
