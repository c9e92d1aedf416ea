from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import FIXTURES, cp2_13_cusp
from sympdiv import documents
from sympdiv.cli import main
from sympdiv.cusp import certify_affine_ruled
from sympdiv.documents import DocumentError, parse_config
from sympdiv.exceptional import EnumerationError
from sympdiv.inflation import NormalizedVector, plan_kahler, verify_plan
from sympdiv.lattice import LatticeError
from sympdiv.moves import MoveError
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


def _fresh_process(argv) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    return subprocess.run(
        [sys.executable, "-m", "sympdiv.cli", *argv], capture_output=True, env=env, check=False
    )


def test_cli_one_process_prints_what_fresh_processes_print(tmp_path, capsys):
    fixture = str(FIXTURES / "trident_cp2_4.json")
    cert = tmp_path / "cert.json"
    assert main(["certify", fixture]) == 0
    certified = capsys.readouterr().out
    cert.write_text(certified)
    assert main(["check", str(cert)]) == 0
    checked = capsys.readouterr().out
    for argv, out in ((["certify", fixture], certified), (["check", str(cert)], checked)):
        fresh = _fresh_process(argv)
        assert (fresh.returncode, fresh.stdout) == (0, out.encode())


def test_cli_parser_survives_usage_errors(capsys):
    assert main(["cusp", "8", "3"]) == 0
    before = capsys.readouterr().out
    for argv in (["certify"], ["cusp", "8", "three"], ["nowhere"], ["inflate", "--n"]):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2
    capsys.readouterr()
    assert main(["cusp", "8", "3"]) == 0
    assert capsys.readouterr().out == before


# sha256 of `certify` stdout, pinned so that output drift between versions
# shows; a change of any of them is a change of the certificate format
GOLDEN_CERTIFY_SHA256 = [
    (("cp2_13_cusp.json",),
     "4c28480cafdaa3dfa15fe970e5c26af69228a218cf4587dd0a78814368c169e1"),
    (("cp2_13_cusp.json", "--area-bound", "3"),
     "f130f63d7f15ac306f7286291e1f0cf61affbdcafc3524480d766efff56ab769"),
    (("ruled_comb_genus2.json",),
     "3c6ec0a5740abcfa6761e892663ddeb9a9ec27a86743adf1094baf82d9c1c178"),
    # second-kind trident: its greedy reduction tries classes that need a
    # nontrivial reflection word
    (("trident_cp2_4.json",),
     "d2d294ad3f6386b0676da1ffb8eee70c6b45d39de9cad8fa6c5c5e8074077683"),
    # the last blowdown of the trace is the CP2#2 -> S2xS2 bridge
    (("product_spheres_5.json",),
     "444013cb97914d02ae61658177616c513b370fe4968c55ed10cb448fc3e33448"),
    # the first blowdown contracts 2H-E1-...-E5 through a word of length 2
    (("conic_cremona_cp2_6.json",),
     "3fc6a14c6a451257d10a5caae6bf76dec966ec096c9fc9cf75468d3249e0e3d9"),
    # S2xS2 chain, route minimal-model:B1p: the resolution's first blowup
    # goes through H-E1-E2 with the new component id e.  Before blowups
    # became sections of the bridge, its resolution areas gave E1 the area
    # f2 - eps and E2 the area f1 - eps, which with f1 = H - E2 swaps the two
    # fiber areas; the digest of that output was ffc9f62a...1e31309b20f85
    (("product_spheres_chain.json",),
     "1895e5be373a8e6f3dc907062aaa557e4785ea36408c09b3f1319ca6774c3997"),
    # a single line in CP2, route A1p: the auxiliary-line chain
    (("cp2_line.json",),
     "1f19527524f5bc9b5619a64ea4199d9d1c403e9f02262fab1a2b0775fa2842f6"),
    # a single conic in CP2, route a3-special
    (("cp2_conic.json",),
     "1fd27e344bd7b67ce9e639e4d67f39146a43f47fed83239c9814aa54de97613b"),
    # a ruled comb without a section: route comb with no resolution
    (("ruled_comb_sectionless.json",),
     "136b7a9ece44a0c09abfc0bf4e733cbe9f3cba7f0282c6e67b636a6fd1e25ae6"),
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


@pytest.mark.parametrize("option,value", [
    ("--area-bound", "0"), ("--area-bound", "-1"), ("--area-bound", "-1/2"),
    ("--coeff-bound", "0"), ("--coeff-bound", "-1"),
])
def test_cli_certify_refuses_empty_search_bounds(option, value, capsys):
    """A bound under which no exceptional class is searched would make
    goodness pass vacuously (area) or leave the reduction nothing (coeff)."""
    rc = main(["certify", str(FIXTURES / "cp2_13_cusp.json"), f"{option}={value}"])
    captured = capsys.readouterr()
    assert rc == 2 and "input error" in captured.err and captured.out == ""


@pytest.mark.parametrize("bounds", [
    {"coeff_bound": 0, "area_bound": None},
    {"coeff_bound": -1, "area_bound": None},
    {"coeff_bound": True, "area_bound": None},
    {"coeff_bound": 12, "area_bound": "0"},
    {"coeff_bound": 12, "area_bound": "-3"},
    {"coeff_bound": 12, "area_bound": 0},
])
def test_cli_check_refuses_empty_search_bounds(bounds, tmp_path, capsys):
    main(["certify", str(FIXTURES / "cp2_13_cusp.json")])
    good = json.loads(capsys.readouterr().out)
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(dict(good, bounds=bounds)))
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


@pytest.mark.parametrize("exc_type, rc, head", [
    (EnumerationError, 1, "certification failed at stage 'dgood'"),
    (LatticeError, 3, "internal error: LatticeError"),
    (MoveError, 3, "internal error: MoveError"),
])
def test_cli_stage_failure_or_defect(exc_type, rc, head, monkeypatch, capsys):
    # inside a stage, only domain failures fail the certification; an
    # arithmetic or move error is a defect
    import sympdiv.cusp

    def broken(*args, **kwargs):
        raise exc_type("raised inside a stage")

    monkeypatch.setattr(sympdiv.cusp, "d_good", broken)
    assert main(["certify", str(FIXTURES / "cp2_13_cusp.json")]) == rc
    err = capsys.readouterr().err
    assert err.startswith(head) and "raised inside a stage" in err


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


@pytest.mark.parametrize("g", ["0", "-1"])
def test_cli_inflate_genus_below_one_exits_2(g, capsys):
    rc = main(["inflate", "--n", "2", "--g", g, "--target", "3/4,1/3,1/5"])
    err = capsys.readouterr().err
    assert rc == 2 and err.startswith("input error: ")


def test_cli_inflate_target_in_p1_outside_its_own_p_g_exits_1(capsys):
    # (1, 3/10) lies in P_1 but not in P_2: the gate uses the target's genus
    rc = main(["inflate", "--n", "1", "--g", "2", "--target", "1,3/10"])
    err = capsys.readouterr().err
    assert rc == 1 and err.startswith("inflation planning failed: ") and "region" in err


def test_cli_inflate_target_outside_region_at_higher_genus_exits_1(capsys):
    rc = main(["inflate", "--n", "2", "--g", "2", "--target", "1/10,1/2,1/3"])
    err = capsys.readouterr().err
    assert rc == 1 and err.startswith("inflation planning failed: ")


def _golden_target(n, g):
    # d_i = (2/5)(9/10)^(i-1) with d_B half a unit inside P_g
    d = [Fraction(2, 5) * Fraction(9, 10) ** (i - 1) for i in range(1, n + 1)]
    return ",".join(map(str, [(sum(d) + 2 * g - 2) / 2 + Fraction(1, 2)] + d))


# sha256 of `inflate` stdout, pinned like the certify digests above
GOLDEN_INFLATE_SHA256 = {
    (1, 1): "02ac0173d2ff6f5af6abe411ce5056e23673f865e30e4c7275671c4f8a2d8600",
    (1, 2): "3f8a31b1c2c6df0d9e6a06dcfc0451a93a71af881789de082f36093852d76399",
    (1, 3): "662314b38de406bf88f512a437efca5b23b292e1afced14176e26d4cf69be0da",
    (2, 1): "a1853689468d758846c95517607dbf02b43be2ea28fb7f2c400214d2770f6723",
    (2, 2): "7feaa1f4300eb2982def7c3cd2f7afd73a622789bae153a638321df2fd976153",
    (2, 3): "65c1d05b54bc60d42cc4d42a25bad00060d5602892e946c0c3c8f7913681ec2e",
    (9, 1): "4e8106de57add7fa78a98ab4167ec0188f27484cc3e95abc4e956efe2ac74c93",
    (9, 2): "b74af92e5473f6d850f9be306ad428c18e0c177ab1317a976314f6682e583ab0",
    (9, 3): "a005cd9158be4c3377b6602a333adaaa21cfd7fed164c7f6b577f928a2bcaac6",
    (16, 1): "a2901b8abbe18094a93e007e82e6899cba38c71ac9eaaca70b121289cac9fd95",
    (16, 2): "182ea37d0df01867d97804105da4332898fa4f6b53a581c8429aadca530e993f",
    (16, 3): "d52f0106a5bfe0945c000401ac58f1b4a01b5b5980e5b23e60cc6550ed10e4d6",
    (17, 1): "c84d8e1ada88d3482b995a71f7f901617b7a76483a8d2f1797fee5db358a7ab3",
    (17, 2): "c1b0423f0bc3b9cd85b3b044f3334b78ec875306ddac14ffd2ea262183e0e6ab",
    (17, 3): "99d431a1b5d6e57061c9ae88402a11e6110a242a9369ee3847dfec1089c2e51e",
    (31, 1): "3b55ca021a734ae427a1032bd69601b0e3a95c5e3ba476335d0247eaab0b7cc3",
    (31, 2): "aa403bc961f84a25c67fc6ec2d06988f942bc517c489499cb9dcfba0c17ddad8",
    (31, 3): "cae541bdb25f6029984621ed710820417d85a4a407bc15ba021211cc249c41d7",
}


@pytest.mark.parametrize("n,g", sorted(GOLDEN_INFLATE_SHA256))
def test_cli_inflate_golden_bytes(n, g, capsys):
    rc = main(["inflate", "--n", str(n), "--g", str(g), "--target", _golden_target(n, g)])
    out = capsys.readouterr().out
    assert rc == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == GOLDEN_INFLATE_SHA256[n, g]


def _last_t_doubled(doc):
    doc["nodes"][-1]["t"] = str(Fraction(doc["nodes"][-1]["t"]) * 2)


def _zigzag_total_times_four(doc):
    zigzag = next(nd for nd in doc["nodes"] if nd["type"] == "zigzag")
    zigzag["total"] = str(Fraction(zigzag["total"]) * 4)


def _zigzag_down_class_negative(doc):
    zigzag = next(nd for nd in doc["nodes"] if nd["type"] == "zigzag")
    zigzag["down"] = [0, 0] + [-1] * (len(zigzag["down"]) - 2)


_PLAN_OK = "9f1d34ead660a340ad42a07c4a121634a61ed70140219ece61fc2b45ee1c4634"
_PLAN_REJECTED = "47bfffcf2d31f28fd3a23d9ccf92b3039f7420bbeaf034c7eb7c6b08317129ba"


# sha256 of `inflate --verify-only` and `check` stdout on the n = 9, g = 2
# plan above and on three tampered copies, so that the `failed:` lines (the
# endpoint, a zig-zag diag substep over its bound, a zig-zag down substep
# along a class of negative area) are pinned
@pytest.mark.parametrize(
    "mutate,verify_digest,check_digest",
    [
        (None, _PLAN_OK, _PLAN_OK),
        (_last_t_doubled,
         "eb4070301c4f6c6840703a84d553fbb892cacf4894e0cf69bf8121e96db12c04", _PLAN_REJECTED),
        (_zigzag_total_times_four,
         "7feea168415582a35a5b8ae4b58c87b28ebf3cc1a62e78c5cd6b83864e5124cc", _PLAN_REJECTED),
        (_zigzag_down_class_negative,
         "e586b94c71c66627638487ecf430853da8a22a243fad572c229a9d23dd23df4a", _PLAN_REJECTED),
    ],
)
def test_cli_plan_verification_golden_bytes(mutate, verify_digest, check_digest, tmp_path,
                                            capsys):
    assert main(["inflate", "--n", "9", "--g", "2", "--target", _golden_target(9, 2)]) == 0
    doc = json.loads(capsys.readouterr().out)
    if mutate is not None:
        mutate(doc)
    path = tmp_path / "plan.json"
    path.write_text(json.dumps(doc))
    rc = 0 if mutate is None else 1
    for argv, digest in ((["inflate", "--verify-only"], verify_digest), (["check"], check_digest)):
        assert main([*argv, str(path)]) == rc
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


def _shorten_class(doc):
    doc["nodes"][1]["class"].pop()


def _set_g_zero(doc):
    doc["g"] = 0


def _disagreeing_n(doc):
    doc["n"] = 3


def _non_integer_coefficient(doc):
    doc["nodes"][1]["class"][2] = 0.5


@pytest.mark.parametrize(
    "mutate", [_shorten_class, _set_g_zero, _disagreeing_n, _non_integer_coefficient]
)
def test_cli_check_malformed_plan_exits_2(mutate, tmp_path, capsys):
    rc = main(["inflate", "--n", "2", "--g", "1", "--target", "3/4,1/3,1/5"])
    doc = json.loads(capsys.readouterr().out)
    assert rc == 0
    mutate(doc)
    path = tmp_path / "plan.json"
    path.write_text(json.dumps(doc))
    rc = main(["check", str(path)])
    err = capsys.readouterr().err
    assert rc == 2 and err.startswith("input error: ")


@pytest.mark.parametrize("command", ["check", "certify"])
def test_cli_deeply_nested_document_exits_2(command, tmp_path, capsys):
    # deeper than the json decoder's recursion limit
    path = tmp_path / "deep.json"
    path.write_text('{"schema": "sympdiv/plan/v1", "nodes": ' + "[" * 5000 + "]" * 5000 + "}")
    rc = main([command, str(path)])
    err = capsys.readouterr().err
    assert rc == 2 and err.startswith("input error: ") and "nested too deeply" in err


def _set_genus(value):
    def mutate(doc):
        doc["components"][0]["genus"] = value
    return mutate


def _set_first_coefficient(value):
    def mutate(doc):
        cls = doc["components"][0]["class"]
        cls[next(iter(cls))] = value
    return mutate


def _set_ambient(field, value):
    def mutate(doc):
        doc["ambient"][field] = value
    return mutate


@pytest.mark.parametrize("fixture,mutate", [
    ("cp2_13_cusp.json", _set_genus("abc")),
    ("cp2_13_cusp.json", _set_genus(None)),
    ("cp2_13_cusp.json", _set_genus(1.5)),
    ("cp2_13_cusp.json", _set_genus(True)),
    ("cp2_13_cusp.json", _set_first_coefficient(True)),
    ("cp2_13_cusp.json", _set_first_coefficient(1.0)),
    ("cp2_13_cusp.json", _set_ambient("n", 13.5)),
    ("cp2_13_cusp.json", _set_ambient("n", "13")),
    ("ruled_comb_genus2.json", _set_ambient("g", 2.7)),
    ("ruled_comb_genus2.json", _set_ambient("g", True)),
    ("ruled_comb_genus2.json", _set_ambient("n", 11.0)),
])
@pytest.mark.parametrize("command", ["validate", "certify"])
def test_cli_non_integer_config_field_exits_2(fixture, mutate, command, tmp_path, capsys):
    doc = json.loads((FIXTURES / fixture).read_text())
    mutate(doc)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    rc = main([command, str(path)])
    err = capsys.readouterr().err
    assert rc == 2 and err.startswith("input error: ") and "expected an integer" in err


@pytest.mark.parametrize("names", [["E1", "E1"], ["H", "E2"]])
@pytest.mark.parametrize("command", ["validate", "certify"])
def test_cli_repeated_generator_name_exits_2(names, command, tmp_path, capsys):
    doc = {
        "schema": "sympdiv/config/v1",
        "ambient": {"kind": "rational_blowup", "n": 2, "names": names},
        "components": [{"id": "A", "class": {"H": 1}}],
        "edges": [],
        "areas": {"H": "1", names[1]: "1/4"},
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    rc = main([command, str(path)])
    err = capsys.readouterr().err
    assert rc == 2 and err.startswith("input error: ") and "repeated generator name" in err


@pytest.mark.parametrize("command,ambient,areas", [
    # a string is not split into one generator per character
    ("certify", {"kind": "rational_blowup", "n": 2, "names": "PQ"},
     {"H": "1", "P": "1/4", "Q": "1/5"}),
    ("validate", {"kind": "rational_blowup", "n": 1, "names": [7]}, None),
    ("validate", {"kind": "ruled_trivial", "g": 2, "n": 1, "names": "P"}, None),
], ids=["certify-string", "validate-integer", "validate-ruled-string"])
def test_cli_names_not_a_list_of_strings_exits_2(command, ambient, areas, tmp_path, capsys):
    doc = {
        "schema": "sympdiv/config/v1",
        "ambient": ambient,
        "components": [{"id": "A", "class": {"H": 1} if "g" not in ambient else {"B": 1}}],
        "edges": [],
    }
    if areas is not None:
        doc["areas"] = areas
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    rc = main([command, str(path)])
    err = capsys.readouterr().err
    assert rc == 2 and err.startswith("input error: ") and "list of strings" in err


def _set_id(value):
    def mutate(doc):
        doc["components"][0]["id"] = value
    return mutate


def _ids_one_and_string_one(doc):
    doc["components"][0]["id"] = 1
    doc["components"][1]["id"] = "1"


def _set_edge_end(value):
    def mutate(doc):
        doc["edges"][0][0] = value
    return mutate


def _edges_not_a_list(doc):
    doc["edges"] = 5


@pytest.mark.parametrize("mutate", [
    _set_id(7), _set_id(None), _set_id(True), _ids_one_and_string_one,
    _set_edge_end(7), _set_edge_end(None), _set_edge_end(["P1"]), _edges_not_a_list,
], ids=["id-7", "id-null", "id-true", "ids-1-and-str-1", "edge-7", "edge-null", "edge-list",
        "edges-5"])
@pytest.mark.parametrize("command", ["validate", "certify"])
def test_cli_non_string_component_id_exits_2(mutate, command, tmp_path, capsys):
    # ids are JSON strings; nothing turns 7 into "7" or lets 1 clash with "1"
    doc = json.loads((FIXTURES / "cp2_13_cusp.json").read_text())
    mutate(doc)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    rc = main([command, str(path)])
    err = capsys.readouterr().err
    assert rc == 2 and err.startswith("input error: ") and "string" in err
