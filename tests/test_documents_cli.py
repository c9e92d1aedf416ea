from __future__ import annotations

import hashlib
import json
from fractions import Fraction

import pytest

from conftest import FIXTURES, cp2_13_cusp
from sympdiv import documents
from sympdiv.cli import main
from sympdiv.cusp import certify_affine_ruled
from sympdiv.documents import DocumentError, parse_config
from sympdiv.inflation import NormalizedVector, plan_kahler, verify_plan
from sympdiv.checks import all_passed


def test_config_roundtrip():
    cfg, w = cp2_13_cusp()
    doc = documents.config_to_doc(cfg, w)
    cfg2, w2 = parse_config(doc)
    assert cfg2 == cfg and w2 == w
    doc2 = documents.config_to_doc(cfg2, w2)
    assert documents.canonical_json(doc) == documents.canonical_json(doc2)


def test_config_parse_errors_name_fields():
    with pytest.raises(DocumentError) as err:
        parse_config({"ambient": {"kind": "nowhere"}})
    assert "ambient" in str(err.value)
    with pytest.raises(DocumentError) as err:
        parse_config(
            {
                "ambient": {"kind": "projective_plane"},
                "components": [{"id": "A", "class": {"X": 1}}],
            }
        )
    assert "components[0]" in str(err.value)


def test_fraction_parse():
    assert documents.parse_fraction("3/4") == Fraction(3, 4)
    assert documents.parse_fraction(2) == 2
    with pytest.raises(DocumentError):
        documents.parse_fraction("1/0")
    with pytest.raises(DocumentError):
        documents.parse_fraction("abc")


def test_plan_roundtrip():
    plan = plan_kahler(NormalizedVector.of(1, ["3/4", "1/3", "1/5"]))
    doc = documents.plan_to_doc(plan)
    plan2 = documents.doc_to_plan(doc)
    assert plan2 == plan
    assert all_passed(verify_plan(plan2))


def test_certificate_doc_deterministic():
    cfg, w = cp2_13_cusp()
    cert = certify_affine_ruled(cfg, w)
    d1 = documents.certificate_to_doc(cert)
    d2 = documents.certificate_to_doc(certify_affine_ruled(cfg, w))
    assert documents.canonical_json(d1) == documents.canonical_json(d2)
    assert d1["all_passed"] is True
    assert d1["cusp"]["p"] == 8 and d1["cusp"]["q"] == 3


def test_dot_output_deterministic():
    cfg, w = cp2_13_cusp()
    a = documents.config_to_dot(cfg, "x")
    b = documents.config_to_dot(cfg, "x")
    assert a == b
    assert a.startswith('graph "x"')
    assert '"P1" -- "P2";' in a


# -- CLI ------------------------------------------------------------------------


def test_cli_validate_ok(capsys):
    rc = main(["validate", str(FIXTURES / "cp2_13_cusp.json")])
    out = capsys.readouterr().out
    assert rc == 0
    assert "ok" in out


def test_cli_validate_edge_mismatch(capsys):
    rc = main(["validate", str(FIXTURES / "bad_edge_count.json")])
    out = capsys.readouterr().out
    assert rc == 1
    assert "A" in out and "B" in out


def test_cli_validate_malformed_rational(capsys):
    rc = main(["validate", str(FIXTURES / "bad_rational.json")])
    assert rc == 2


def test_cli_certify_cp2_13(tmp_path, capsys):
    dot = tmp_path / "stages.dot"
    rc = main(["certify", str(FIXTURES / "cp2_13_cusp.json"), "--dot", str(dot)])
    out = capsys.readouterr().out
    assert rc == 0
    doc = json.loads(out)
    assert doc["all_passed"] is True
    assert doc["cusp"]["p"] == 8 and doc["cusp"]["q"] == 3
    assert doc["original"]["class"] == {"H": 6, "E1": -3, "E2": -1, "E3": -1, "E7": -1}
    assert dot.exists() and 'graph "input"' in dot.read_text()


def test_cli_certify_byte_identical(tmp_path, capsys):
    rc1 = main(["certify", str(FIXTURES / "cp2_13_cusp.json")])
    out1 = capsys.readouterr().out
    rc2 = main(["certify", str(FIXTURES / "cp2_13_cusp.json")])
    out2 = capsys.readouterr().out
    assert rc1 == rc2 == 0
    assert out1 == out2


# sha256 of `certify` stdout, pinned so that output drift between versions
# shows; a change of any of them is a change of the certificate format
GOLDEN_CERTIFY_SHA256 = [
    (("cp2_13_cusp.json",),
     "4c28480cafdaa3dfa15fe970e5c26af69228a218cf4587dd0a78814368c169e1"),
    (("cp2_13_cusp.json", "--area-bound", "3"),
     "f130f63d7f15ac306f7286291e1f0cf61affbdcafc3524480d766efff56ab769"),
    (("ruled_comb_genus2.json",),
     "3c6ec0a5740abcfa6761e892663ddeb9a9ec27a86743adf1094baf82d9c1c178"),
]


@pytest.mark.parametrize("args,digest", GOLDEN_CERTIFY_SHA256)
def test_cli_certify_golden_bytes(args, digest, capsys):
    rc = main(["certify", str(FIXTURES / args[0]), *args[1:]])
    out = capsys.readouterr().out
    assert rc == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


def test_cli_certify_malformed_input_exits_2(capsys):
    rc = main(["certify", str(FIXTURES / "bad_rational.json")])
    assert rc == 2 and "input error" in capsys.readouterr().err
    for bound in ("abc", "1/0"):
        rc = main(["certify", str(FIXTURES / "cp2_13_cusp.json"), "--area-bound", bound])
        err = capsys.readouterr().err
        assert rc == 2 and "input error" in err and "--area-bound" in err
    rc = main(["inflate", "--n", "2", "--target", "3/4,x,1/5"])
    assert rc == 2 and "input error" in capsys.readouterr().err


def test_cli_check_malformed_certificate_exits_2(tmp_path, capsys):
    main(["certify", str(FIXTURES / "cp2_13_cusp.json")])
    good = json.loads(capsys.readouterr().out)
    path = tmp_path / "cert.json"
    for broken in (
        {k: v for k, v in good.items() if k != "input"},
        dict(good, bounds=5),
        dict(good, bounds={"coeff_bound": "12"}),
        dict(good, bounds={"area_bound": "x"}),
    ):
        path.write_text(json.dumps(broken))
        rc = main(["check", str(path)])
        assert rc == 2 and "input error" in capsys.readouterr().err


@pytest.mark.parametrize("exc_type", [ValueError, ZeroDivisionError])
def test_cli_internal_error_is_not_an_input_error(exc_type, monkeypatch, capsys):
    import sympdiv.cli

    def broken(*args, **kwargs):
        raise exc_type("defect inside the pipeline")

    monkeypatch.setattr(sympdiv.cli, "certify_affine_ruled", broken)
    rc = main(["certify", str(FIXTURES / "cp2_13_cusp.json")])
    err = capsys.readouterr().err
    assert rc == sympdiv.cli.EXIT_INTERNAL == 3
    assert err.startswith("internal error: ") and "defect inside the pipeline" in err
    assert "input error" not in err


def test_cli_certify_hypothesis_failure(capsys):
    rc = main(["certify", str(FIXTURES / "cp2_cubic.json")])
    err = capsys.readouterr().err
    assert rc == 1
    assert "hypothesis" in err


def test_cli_certify_ruled(capsys):
    rc = main(["certify", str(FIXTURES / "ruled_comb_genus2.json")])
    out = capsys.readouterr().out
    assert rc == 0
    doc = json.loads(out)
    assert doc["route"] == "ruled" and doc["all_passed"] is True


def test_cli_check_roundtrip(tmp_path, capsys):
    rc = main(["certify", str(FIXTURES / "cp2_13_cusp.json")])
    out = capsys.readouterr().out
    cert_path = tmp_path / "cert.json"
    cert_path.write_text(out)
    rc = main(["check", str(cert_path)])
    assert rc == 0
    # tampering is detected
    doc = json.loads(out)
    doc["cusp"]["p"] = 9
    cert_path.write_text(json.dumps(doc))
    rc = main(["check", str(cert_path)])
    assert rc == 1


def test_cli_cusp(capsys):
    rc = main(["cusp", "5", "2"])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.splitlines()[0] == "2 2 1 1"
    rc = main(["cusp", "1", "1"])
    out = capsys.readouterr().out
    assert rc == 0 and out.splitlines()[0] == "1"
    rc = main(["cusp", "8", "3"])
    out = capsys.readouterr().out
    assert rc == 0 and out.splitlines()[0] == "3 3 2 1 1"
    rc = main(["cusp", "4", "2"])
    assert rc == 2


def test_cli_inflate_and_verify(tmp_path, capsys):
    rc = main(["inflate", "--n", "2", "--g", "1", "--target", "3/4,1/3,1/5"])
    out = capsys.readouterr().out
    assert rc == 0
    doc = json.loads(out)
    assert all(c["passed"] for c in doc["verification"])
    plan_path = tmp_path / "plan.json"
    del doc["verification"]
    plan_path.write_text(json.dumps(doc))
    rc = main(["inflate", "--verify-only", str(plan_path)])
    assert rc == 0
    # tamper with the final step
    doc["nodes"][-1]["t"] = "2"
    plan_path.write_text(json.dumps(doc))
    rc = main(["inflate", "--verify-only", str(plan_path)])
    assert rc == 1


def test_cli_inflate_region_rejection(capsys):
    rc = main(["inflate", "--n", "2", "--g", "1", "--target", "1/10,1/2,1/3"])
    err = capsys.readouterr().err
    assert rc == 1
    assert "region" in err
