from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import time
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import FIXTURES, cp2_13_cusp
from sympdiv import documents
from sympdiv.cli import main
from sympdiv.cusp import certify_affine_ruled
from sympdiv.documents import DocumentError, parse_config
from sympdiv.exceptional import EnumerationError
from sympdiv.inflation import NormalizedVector, plan_kahler, verify_plan
from sympdiv.lattice import AmbientLattice, LatticeError
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
    for flag in (True, False):  # a JSON boolean is no rational, though bool is an int
        with pytest.raises(DocumentError, match="expected a rational"):
            documents.parse_fraction(flag)


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


def test_non_positive_area_square_is_refused_by_validate(capsys):
    # CP2#1 with w_H = 1, w_E1 = 3/2: w.w = -5/4, though the one component
    # has positive area and the adjoint area is negative
    path = str(FIXTURES / "bad_area_square.json")
    assert main(["validate", path]) == 1
    assert "invalid: area vector has non-positive square -5/4" in capsys.readouterr().out
    assert main(["certify", path]) == 1
    assert "failed at stage 'validate'" in capsys.readouterr().err


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
# shows; a change of any of them is a change of the certificate format.  The
# digests are those of certificate v2 printed as canonical JSON, whose bounds
# hold the area bound alone; CHANGES.md records the digests they replaced.
GOLDEN_CERTIFY_SHA256 = [
    (("cp2_13_cusp.json",),
     "09aecdd5004c624ba7707f2a6be0e746bdb37e4a7ee8c33ed1758b3d4b676c04"),
    (("cp2_13_cusp.json", "--area-bound", "3"),
     "70d53bb0ad30165009b04c8f61b142561c9b4086dd24b07938e55d3474d6d23e"),
    (("ruled_comb_genus2.json",),
     "841d2b945f8118130baa6d3de9757109a4338eb5cfc08fd60eaa0c1ae5edab63"),
    # second-kind trident: its greedy reduction tries classes that need a
    # nontrivial reflection word
    (("trident_cp2_4.json",),
     "5b7c5106ba01efbeafbbcd3cf284fed3f1e2c6c371b059adcfe5bddf3beac51e"),
    # the last blowdown of the trace is the CP2#2 -> S2xS2 bridge
    (("product_spheres_5.json",),
     "a4f73e05c53c9769253d99062621681012f5bf5d0b4c454db090582a2cfd0221"),
    # the first blowdown contracts 2H-E1-...-E5 through a word of length 2
    (("conic_cremona_cp2_6.json",),
     "cf8d989ed822562325893dee05cd662411fb6b9431c5854c8fe6c60bca884e13"),
    # S2xS2 chain, route minimal-model:B1p: the resolution's first blowup
    # goes through H-E1-E2 with the new component id e.  Before blowups
    # became sections of the bridge, its resolution areas gave E1 the area
    # f2 - eps and E2 the area f1 - eps, which with f1 = H - E2 swaps the two
    # fiber areas; the digest of that output was ffc9f62a...1e31309b20f85
    (("product_spheres_chain.json",),
     "a868b0f7d23ead782367552ece9a87237cb0b686b4d7ceced7bb4dfc13f374a0"),
    # a single line in CP2, route A1p: the auxiliary-line chain
    (("cp2_line.json",),
     "56d8abfc4bb6a4d5750ea5236a0b4a2806670cf9d2f311f9a464fb5d4b7e12f7"),
    # a single conic in CP2, route a3-special
    (("cp2_conic.json",),
     "8b239f04f238927cc2570c4b82b708a11509aedd701ffa7888b192ac2e28a699"),
    # a ruled comb without a section: route comb with no resolution
    (("ruled_comb_sectionless.json",),
     "e55777f67c8fd5223bef097ac993f11ee725d22d1868b0580ae80e669531faa1"),
    # a comb over the twisted bundle: the only fixture on its form
    (("ruled_comb_twisted.json",),
     "687c11d6e3c9da949c01b59b529f7b12d73af172b80057feaeb094ad84cf0f7c"),
    # CP2#9 near the boundary w.w = 0: the area bound has the first
    # enumeration search degrees up to 17
    (("near_boundary_cp2_9.json",),
     "ce3b1823722bc7ad5c34943fec44d631a5d62860315764556c138ff2799d4628"),
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
])
def test_cli_certify_refuses_empty_search_bounds(option, value, capsys):
    """An area bound under which no exceptional class is searched would make
    goodness pass vacuously."""
    rc = main(["certify", str(FIXTURES / "cp2_13_cusp.json"), f"{option}={value}"])
    captured = capsys.readouterr()
    assert rc == 2 and "input error" in captured.err and captured.out == ""


def test_cli_certify_has_no_coefficient_bound(capsys):
    """The area bound alone ends the search; a degree cap is an unknown
    option."""
    with pytest.raises(SystemExit) as err:
        main(["certify", str(FIXTURES / "cp2_13_cusp.json"), "--coeff-bound", "1"])
    assert err.value.code == 2 and "--coeff-bound" in capsys.readouterr().err


@pytest.mark.parametrize("bounds", [
    # the bounds of a certificate from before the area bound alone ended
    # the search: refused by name, never a replay mismatch
    {"coeff_bound": 12, "area_bound": None},
    {"coeff_bound": 0, "area_bound": None},
    {"coeff_bound": True, "area_bound": None},
    {"coeff_bound": 12, "area_bound": "3"},
    {"area_bound": "0"},
    {"area_bound": "-3"},
    {"area_bound": 0},
])
def test_cli_check_refuses_empty_search_bounds(bounds, tmp_path, capsys):
    """`bounds` holds the area bound and nothing else: any other key is
    malformed and named, and an empty area bound is refused."""
    main(["certify", str(FIXTURES / "cp2_13_cusp.json")])
    good = json.loads(capsys.readouterr().out)
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(dict(good, bounds=bounds)))
    rc = main(["check", str(path)])
    err = capsys.readouterr().err
    assert rc == 2 and "input error" in err
    assert ("'coeff_bound'" in err) == ("coeff_bound" in bounds)


@pytest.mark.parametrize("command", ["validate", "certify"])
def test_cli_boolean_area_exits_2(command, tmp_path, capsys):
    doc = json.loads((FIXTURES / "cp2_line.json").read_text())
    doc["areas"]["H"] = True
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    rc = main([command, str(path)])
    captured = capsys.readouterr()
    assert rc == 2 and captured.err.startswith("input error: ") and captured.out == ""
    assert "expected a rational" in captured.err


def test_cli_check_boolean_area_bound_exits_2(tmp_path, capsys):
    main(["certify", str(FIXTURES / "cp2_13_cusp.json")])
    good = json.loads(capsys.readouterr().out)
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(dict(good, bounds={"area_bound": True})))
    rc = main(["check", str(path)])
    err = capsys.readouterr().err
    assert rc == 2 and err.startswith("input error: ") and "expected a rational" in err


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

    monkeypatch.setattr(sympdiv.cusp, "goodness_checks", broken)
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


def test_cli_certify_and_check_with_sphere_ids_taken_twice(tmp_path, capsys):
    # cp2_13_cusp with P1 renamed E8 and P2 renamed E8x: the first resolution
    # sphere's default id E8 and E8x are both taken, so it is E8xx.  While
    # the suffix was added once, certify exited 3 on a MoveError
    rc = main(["certify", str(Path(__file__).parent / "data" / "cp2_13_sphere_ids.json")])
    out = capsys.readouterr().out
    assert rc == 0
    assert json.loads(out)["resolution"]["moves"][0]["sphere"] == "E8xx"
    cert_path = tmp_path / "cert.json"
    cert_path.write_text(out)
    assert main(["check", str(cert_path)]) == 0


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


def test_plan_outside_its_own_p_g_is_rejected_on_replay(tmp_path, capsys):
    # the planner refuses (1, 3/10) at g = 2, but builds it; the replay of
    # the built plan must refuse it too
    from sympdiv.inflation import _build

    plan = _build(2, (Fraction(1), Fraction(3, 10)))
    checks = verify_plan(plan)
    assert [c.name for c in checks if not c.passed] == ["target lies in P_g"]
    path = tmp_path / "plan.json"
    path.write_text(json.dumps(documents.plan_to_doc(plan)))
    for argv in (["inflate", "--verify-only", str(path)], ["check", str(path)]):
        assert main(argv) == 1
        assert capsys.readouterr().out == "failed: target lies in P_g: g = 2\nplan rejected\n"


def test_cli_inflate_target_outside_region_at_higher_genus_exits_1(capsys):
    rc = main(["inflate", "--n", "2", "--g", "2", "--target", "1/10,1/2,1/3"])
    err = capsys.readouterr().err
    assert rc == 1 and err.startswith("inflation planning failed: ")


def _golden_target(n, g):
    # d_i = (2/5)(9/10)^(i-1) with d_B half a unit inside P_g
    d = [Fraction(2, 5) * Fraction(9, 10) ** (i - 1) for i in range(1, n + 1)]
    return ",".join(map(str, [(sum(d) + 2 * g - 2) / 2 + Fraction(1, 2)] + d))


# sha256 of `inflate` stdout, pinned like the certify digests above: canonical
# JSON, whose `verification` list opens with the target's region check
GOLDEN_INFLATE_SHA256 = {
    (1, 1): "063a317d6c7185e3f7b86398a1fbe8ba3fca115db440b1c78f829a69d70e123f",
    (1, 2): "ed40d3182433c125d8d3d9279db29f4a3fdecd2260971242cdfe95a2b7396424",
    (1, 3): "7a4fbb2f93701f62ed31a01cf0c762449bb4b5ff3782e958039d4127ce229831",
    (2, 1): "84e5a3057c8dce734e0bb9d98efd7d97c00bd783ee3bf58a60162cb0a407ccce",
    (2, 2): "bdbba2cf7a066a255096ed345b765a7e2ca6a3406b121577f9dfe4c5a012ed92",
    (2, 3): "3eade6adb3fb51a91ef63443c201eb02057223b62bc40b1e645992fc8cdf0eca",
    (9, 1): "71a3562eb07eaf0ef9750db6d5f63175345f8a71daa275955443929a5a314617",
    (9, 2): "c2365838d6b3591a24a2a7f13a493748a7f11acdcb03021c682904f521f011a9",
    (9, 3): "a9308733f7377acecb526d7eb4224b037633484c09d5ece23c45a098c6a4228d",
    (16, 1): "858fe7bbc828de0746a0b4a5c8f80726df17d836da2e9cd51e6fac605f74b109",
    (16, 2): "96836bb72aac9ede138abe1706dd74ab43fe8043869751d3fe3cc73c544637fd",
    (16, 3): "a746221ead8cc2c756ea032e25a8d07e084edf80f8d28206670e814419275456",
    (17, 1): "97497137e501da6207be6f0228706e30fef5ad43b09ee5840609cb652dd07e5c",
    (17, 2): "ccc4f16061d3196c8098f12151e897748f11fa589b94eb38a7b75572bcf79766",
    (17, 3): "6192d1e339de835292222a4a5f6501e11fd775c710358cc3df47c891fc3687c2",
    (31, 1): "0f2c167be47e60358e4453470a29a0f04e7c732fef66f1f4c40d07358e7f1a63",
    (31, 2): "8118e24f20fe87ad90aa6a8704db6a9e9fa64e40ec3329b4c6e7784d04c45f84",
    (31, 3): "308566d9db6db0553523cd80dd145efaba868103ada6eedc1d93d7e6816ccdd6",
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


# sha256 of the stdout of both `inflate --verify-only` and `check` on the
# n = 9, g = 2 plan above and on three tampered copies, so that the `failed:`
# lines (the endpoint, a zig-zag total over the node's last diag bound, a
# zig-zag down class not of the planner's shape) are pinned
@pytest.mark.parametrize(
    "mutate,digest",
    [
        (None, "9f1d34ead660a340ad42a07c4a121634a61ed70140219ece61fc2b45ee1c4634"),
        (_last_t_doubled, "eb4070301c4f6c6840703a84d553fbb892cacf4894e0cf69bf8121e96db12c04"),
        (_zigzag_total_times_four,
         "a44439bf89a3d4933ef97e2ef2070ebac254a2e575424f0a4befb822b427a128"),
        (_zigzag_down_class_negative,
         "38c9f988bf48611526ebcb53994b3f3efbfae34e8df2813fd2f475334d38f2be"),
    ],
)
def test_cli_plan_verification_golden_bytes(mutate, digest, tmp_path, capsys):
    assert main(["inflate", "--n", "9", "--g", "2", "--target", _golden_target(9, 2)]) == 0
    doc = json.loads(capsys.readouterr().out)
    if mutate is not None:
        mutate(doc)
    path = tmp_path / "plan.json"
    path.write_text(json.dumps(doc))
    rc = 0 if mutate is None else 1
    for argv in (["inflate", "--verify-only"], ["check"]):
        assert main([*argv, str(path)]) == rc
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


def _plan_rationals(doc):
    """Every rational string of a plan document, its base plans' included."""
    for nd in doc["nodes"]:
        if nd["type"] == "seed":
            if nd["base"] is not None:
                yield from _plan_rationals(nd["base"])
            yield from ([nd["epsilon"]] if nd["epsilon"] is not None else [])
            yield from nd["vector"]
        else:
            yield nd["t"] if nd["type"] == "inflate" else nd["total"]
    yield from doc["target"]


def test_a_plan_document_reads_each_rational_string_once(monkeypatch, capsys):
    assert main(["inflate", "--n", "16", "--g", "2", "--target", _golden_target(16, 2)]) == 0
    doc = json.loads(capsys.readouterr().out)
    reads = []
    read_fraction = documents.read_fraction
    monkeypatch.setattr(documents, "read_fraction", lambda s: reads.append(s) or read_fraction(s))
    plan = documents.doc_to_plan(doc)
    written = list(_plan_rationals(doc))
    assert sorted(reads) == sorted(set(written))
    # a base plan's target repeats its parent's seed vector, and equal
    # entries repeat within a vector: 363 strings, 128 distinct
    assert (len(written), len(reads)) == (363, 128)
    assert documents.plan_to_doc(plan) == {k: v for k, v in doc.items() if k != "verification"}


def test_a_plan_document_writes_each_rational_once(monkeypatch):
    # a base plan's target is its parent seed's vector less the last entry and
    # is written from that vector's strings: of the 363 strings, the 135 of the
    # 15 base targets are not written again
    plan = plan_kahler(NormalizedVector.of(2, _golden_target(16, 2).split(",")))
    writes, frac_str = [], documents.frac_str
    monkeypatch.setattr(documents, "frac_str", lambda f: writes.append(f) or frac_str(f))
    doc = documents.plan_to_doc(plan)
    assert (len(list(_plan_rationals(doc))), len(writes)) == (363, 228)
    # a hand-built base whose target is not its parent's seed vector writes its own
    base = plan.nodes[0].base
    seed = replace(plan.nodes[0], base=replace(base, target=base.target[::-1]))
    doc = documents.plan_to_doc(replace(plan, nodes=(seed, *plan.nodes[1:])))
    assert doc["nodes"][0]["base"]["target"] == [str(x) for x in base.target[::-1]]


def _shorten_class(doc):
    doc["nodes"][1]["class"].pop()


def _set_g_zero(doc):
    doc["g"] = 0


def _disagreeing_n(doc):
    doc["n"] = 3


def _non_integer_coefficient(doc):
    doc["nodes"][1]["class"][2] = 0.5


def _boolean_t(doc):
    doc["nodes"][-1]["t"] = True


@pytest.mark.parametrize(
    "mutate", [_shorten_class, _set_g_zero, _disagreeing_n, _non_integer_coefficient, _boolean_t]
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


# Python 3.11, and 3.10 from 3.10.7, refuse to parse an int of more digits than
# sys.get_int_max_str_digits(); an interpreter without that limit, or with it
# switched off (0), parses such an integer, so there is nothing to test
_DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()


def _past_the_limit() -> str:
    """The message of int()'s ValueError for a value past its digit limit, as
    this interpreter words it: 3.11 writes "(4300 digits)", 3.10 "(4300)"."""
    try:
        str(10**_DIGIT_LIMIT)
    except ValueError as exc:
        return str(exc)
    raise AssertionError("no int digit limit")


@pytest.mark.skipif(_DIGIT_LIMIT == 0, reason="this interpreter has no int digit limit")
@pytest.mark.parametrize("command", ["validate", "certify", "check"])
def test_cli_integer_past_the_digit_limit_exits_2(command, tmp_path, capsys):
    text = (FIXTURES / "cp2_line.json").read_text()
    huge = text.replace('"H": 1\n', '"H": ' + "1" * (_DIGIT_LIMIT + 1) + "\n", 1)
    assert huge != text
    path = tmp_path / "huge.json"
    path.write_text(huge)
    rc = main([command, str(path)])
    err = capsys.readouterr().err
    assert rc == 2 and err.startswith("input error: ") and "digits" in err


def test_cli_document_not_in_utf8_exits_2(tmp_path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"schema": "sympdiv/config/v1", "id": "\xe9"}')
    rc = main(["validate", str(path)])
    err = capsys.readouterr().err
    assert rc == 2 and err.startswith("input error: ") and "utf-8" in err


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


# -- the ambient document contract ---------------------------------------------


@pytest.mark.parametrize("amb,doc", [
    (AmbientLattice.projective_plane(), {"kind": "projective_plane"}),
    (AmbientLattice.product_of_spheres(), {"kind": "product_of_spheres"}),
    (AmbientLattice.rational_blowup(2), {"kind": "rational_blowup", "n": 2, "names": ["E1", "E2"]}),
    (AmbientLattice.rational_blowup(2, ("P", "Q")),
     {"kind": "rational_blowup", "n": 2, "names": ["P", "Q"]}),
    (AmbientLattice.rational_blowup(2, ("E1", "E3")),
     {"kind": "rational_blowup", "n": 2, "names": ["E1", "E3"]}),
    (AmbientLattice.ruled_trivial(2, 0), {"kind": "ruled_trivial", "g": 2, "n": 0, "names": []}),
    (AmbientLattice.ruled_trivial(1, 2, ("E1", "E3")),
     {"kind": "ruled_trivial", "g": 1, "n": 2, "names": ["E1", "E3"]}),
    (AmbientLattice.ruled_trivial(3, 1, ("X",)),
     {"kind": "ruled_trivial", "g": 3, "n": 1, "names": ["X"]}),
    (AmbientLattice.ruled_twisted(2), {"kind": "ruled_twisted", "g": 2}),
])
def test_ambient_documents_round_trip(amb, doc):
    assert documents.ambient_to_doc(amb) == doc
    back = documents.doc_to_ambient(doc)
    assert back == amb and back.names == amb.names
    assert documents.ambient_to_doc(back) == doc


def test_ambient_documents_without_generators_ignore_n_and_names():
    extra = {"n": 3, "names": 5, "g": 4}
    assert documents.doc_to_ambient({"kind": "projective_plane", **extra}) == \
        AmbientLattice.projective_plane()
    assert documents.doc_to_ambient({"kind": "product_of_spheres", **extra}) == \
        AmbientLattice.product_of_spheres()
    assert documents.doc_to_ambient({"kind": "ruled_twisted", **extra}) == \
        AmbientLattice.ruled_twisted(4)
    # a rational blowup carries no g: it is not read
    assert documents.doc_to_ambient({"kind": "rational_blowup", "n": 1, "g": "x"}) == \
        AmbientLattice.rational_blowup(1)


@pytest.mark.parametrize("doc,message", [
    ({"kind": "rational_blowup"}, "ambient: 'n'"),
    ({"kind": "rational_blowup", "n": 0}, "ambient: rational_blowup needs n >= 1"),
    ({"kind": "rational_blowup", "n": -2}, "ambient: rational_blowup needs n >= 1"),
    ({"kind": "rational_blowup", "n": True}, "ambient: n: expected an integer, got True"),
    ({"kind": "rational_blowup", "n": 1, "names": "E1"},
     "ambient: names: expected a list of strings, got 'E1'"),
    # the names are read before n is checked
    ({"kind": "rational_blowup", "n": 0, "names": "E1"},
     "ambient: names: expected a list of strings, got 'E1'"),
    ({"kind": "rational_blowup", "n": 2, "names": ["E1"]},
     "ambient: need exactly n exceptional names"),
    ({"kind": "rational_blowup", "n": 2, "names": ["E1", "E1"]},
     "ambient: repeated generator name 'E1'"),
    ({"kind": "rational_blowup", "n": 1, "names": ["H"]}, "ambient: repeated generator name 'H'"),
    # n is read before g
    ({"kind": "ruled_trivial", "n": 1}, "ambient: 'g'"),
    ({"kind": "ruled_trivial", "g": 2}, "ambient: 'n'"),
    ({"kind": "ruled_trivial", "g": 0, "n": 0}, "ambient: ruled_trivial needs base genus g >= 1"),
    ({"kind": "ruled_trivial", "g": 0, "n": -1},
     "ambient: ruled_trivial needs base genus g >= 1"),
    ({"kind": "ruled_trivial", "g": 2, "n": -1}, "ambient: ruled_trivial needs n >= 0"),
    ({"kind": "ruled_trivial", "g": 2, "n": 1, "names": ["F"]},
     "ambient: repeated generator name 'F'"),
    ({"kind": "ruled_trivial", "g": 2, "n": 2, "names": ["E1"]},
     "ambient: need exactly n exceptional names"),
    ({"kind": "ruled_twisted"}, "ambient: 'g'"),
    ({"kind": "ruled_twisted", "g": 0}, "ambient: ruled_twisted needs base genus g >= 1"),
    ({"kind": "ruled_twisted", "g": "1"}, "ambient: g: expected an integer, got '1'"),
    ({"kind": "__init__"}, "ambient: unknown kind '__init__'"),
    ({"kind": "cls"}, "ambient: unknown kind 'cls'"),
    ({"kind": "names"}, "ambient: unknown kind 'names'"),
    ({"kind": ["x"]}, "ambient: unknown kind ['x']"),
    ({"kind": {}}, "ambient: unknown kind {}"),
    ({"kind": None}, "ambient: unknown kind None"),
    ({"kind": 3}, "ambient: unknown kind 3"),
    ({}, "ambient: expected an object with a 'kind' field"),
    (["rational_blowup"], "ambient: expected an object with a 'kind' field"),
    (None, "ambient: expected an object with a 'kind' field"),
])
def test_malformed_ambient_documents(doc, message):
    with pytest.raises(DocumentError) as err:
        documents.doc_to_ambient(doc)
    assert str(err.value) == message


@pytest.mark.parametrize("ambient,message", [
    ({"kind": ["x"]}, "ambient: unknown kind ['x']"),
    ({"kind": "rational_blowup", "n": 0}, "ambient: rational_blowup needs n >= 1"),
])
def test_cli_malformed_ambient_exits_2(ambient, message, tmp_path, capsys):
    doc = json.loads((FIXTURES / "cp2_line.json").read_text())
    doc["ambient"] = ambient
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    assert main(["validate", str(path)]) == 2
    assert capsys.readouterr().err == f"input error: {message}\n"


# -- the rational reader against Fraction(str) ----------------------------------


@st.composite
def rational_strings(draw):
    """Strings near the forms frac_str writes: signs, surrounding whitespace,
    `_` separators, decimals and exponents, zero denominators, signed
    denominators, non-ASCII digits, runs past the int digit limit, and junk."""
    if draw(st.booleans()):
        return draw(st.text("0123456789-+/._eE \t\n\u0663\U0001d7d9\u00b2\u2212x", max_size=12))
    long = draw(st.booleans())

    def digits():
        if long and draw(st.booleans()):
            return draw(st.sampled_from("19")) * draw(st.integers(4295, 4305))
        return draw(st.sampled_from(("0", "00", "3", "12", "007", "1_000", "\u0663",
                                     "2\U0001d7d9", "1.5", "5e0", "1E-2", ".5", "")))

    s = draw(st.sampled_from(("", "-", "+", "\u2212"))) + digits()
    if draw(st.booleans()):
        s += "/" + draw(st.sampled_from(("", "-", "+"))) + digits()
    pad = draw(st.sampled_from(("", " ", "\t", "\n ", "\u2003")))
    return pad + s + draw(st.sampled_from(("", pad)))


def _cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    return rc, out.getvalue(), err.getvalue()


@settings(max_examples=200, deadline=None)
@given(rational_strings())
@example("3/-4")
@example("-7/0")
@example("1/00")
@example(" -12/8 ")
@example("1/5e0")
@example("1" * 4300)
@example("-" + "1" * 4301)
@example("3/" + "7" * 4301)
@example("1" * 4301 + "/" + "7" * 4302)
@example("1E5000")
@example("--")  # argparse parsed --target=-- as [], which had no split()
def test_rational_reader_matches_fraction(s):
    """parse_fraction and --target read what Fraction(s) reads and refuse,
    with its message, exactly what it refuses; they also refuse, with the
    message of int() past its digit limit, a value whose numerator or
    denominator has more digits than int() writes (1E5000 has 5001)."""
    _reads_like_fraction(s)


@st.composite
def exponent_strings(draw):
    """Exponent forms whose numerator or denominator has about as many digits
    as the int digit limit allows, either side of it, with mantissas of zero,
    leading and trailing zeros, factors of 2 and 5, and `_` separators."""
    whole = draw(st.sampled_from(("", "0", "1", "25", "0008", "1_6", "640", "3" * 40)))
    dec = draw(st.sampled_from(("", ".5", ".0625", ".000", ".1_2", ".")))
    exp = draw(st.sampled_from((1, -1))) * (_DIGIT_LIMIT + draw(st.integers(-45, 45)))
    return f"{whole}{dec}{draw(st.sampled_from('eE'))}{exp}"


@pytest.mark.skipif(_DIGIT_LIMIT == 0, reason="this interpreter has no int digit limit")
@settings(max_examples=100, deadline=None)
@given(exponent_strings())
@example("1E4300")
@example("1E4299")
@example("5E-4301")
@example("0.0E99999")
def test_exponent_forms_near_the_digit_limit_read_as_fraction(s):
    _reads_like_fraction(s)


def _reads_like_fraction(s):
    inflate = ["inflate", "--g", "1", f"--target={s}"]
    limit = sys.get_int_max_str_digits()
    try:
        want = Fraction(s)
        if limit and max(abs(want.numerator), want.denominator) >= 10**limit:
            raise ValueError(_past_the_limit())
    except (ValueError, ZeroDivisionError) as exc:
        with pytest.raises(DocumentError) as got:
            documents.parse_fraction(s)
        assert str(got.value) == f"malformed rational {s!r}: {exc}"
        assert _cli(inflate) == (2, "", f"input error: malformed --target entry {s!r}: {exc}\n")
        return
    got = documents.parse_fraction(s)
    assert type(got) is Fraction and got == want
    assert _cli(inflate) == _cli(["inflate", "--g", "1", f"--target={want}"])


@pytest.mark.skipif(_DIGIT_LIMIT == 0, reason="this interpreter has no int digit limit")
@pytest.mark.parametrize("s", ["1E1000000000", "-2.5e1000000000", " 7E-1000000000 ", "1E" + "9" * 60])
def test_an_exponent_past_the_digit_limit_is_refused_at_once(s):
    start = time.perf_counter()
    with pytest.raises(DocumentError) as got:
        documents.parse_fraction(s)
    assert time.perf_counter() - start < 0.1
    message = _past_the_limit()
    assert str(got.value) == f"malformed rational {s!r}: {message}"
    assert _cli(["inflate", "--g", "1", f"--target={s}"]) == (
        2, "", f"input error: malformed --target entry {s!r}: {message}\n")


@pytest.mark.parametrize("s", ["0E1000000000", "-0.000e1000000000", "0E-1000000000", ".0E" + "9" * 60])
def test_a_zero_mantissa_reads_as_zero_whatever_its_exponent(s):
    start = time.perf_counter()
    got = documents.parse_fraction(s)
    assert time.perf_counter() - start < 0.1
    assert type(got) is Fraction and got == 0
