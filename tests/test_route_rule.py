"""The b2 <= 2 route rule of `cusp._b2_route` against the chain-then-fiber
fallback it replaced (`conftest.reference_b2_route`), a chain route that
fails where the rule sends a terminal, and certificates that forge the
route's chain labeling.

The "p" rows of the minimal-model table are built as
`tests/test_minimal_model_table.py` builds its configurations (components
D0, D1, ... from coefficient tuples), here with the edges their pairings
give: S2xS2 read with fiber f2, so a section is f1 + x f2, and CP2#1 with
fiber H - E and section x(H - E) + H."""

from __future__ import annotations

import json
from fractions import Fraction

import pytest

from conftest import FIXTURES, reference_b2_route
from sympdiv import cusp, documents
from sympdiv.cli import main
from sympdiv.cusp import CertifyError, certify_affine_ruled, goodness_search
from sympdiv.divisor import DivisorConfig, validate
from sympdiv.lattice import AmbientLattice, AreaVector, pair
from sympdiv.reduction import classify_minimal_model

PP = AmbientLattice.projective_plane()
PS = AmbientLattice.product_of_spheres()
C1 = AmbientLattice.rational_blowup(1)
# per ruled ambient: the section x, the fiber, and areas on which every section
# of -4 <= x <= 4 has positive area
RULED = {
    "B": (PS, lambda x: (1, x), (0, 1), (Fraction(10), Fraction(1))),
    "C": (C1, lambda x: (x + 1, -x), (1, -1), (Fraction(1), Fraction(9, 10))),
}


def _config(amb, coeffs):
    """Components D0, D1, ... of the given coefficients, with as many edges
    between two of them as they pair to."""
    classes = [amb.from_coeffs(v) for v in coeffs]
    n = len(classes)
    edges = [(f"D{i}", f"D{j}") for i in range(n) for j in range(i + 1, n)
             for _ in range(pair(classes[i], classes[j]))]
    return DivisorConfig.build(amb, [(f"D{i}", c) for i, c in enumerate(classes)], edges)


def _p_rows():
    """(row, params, config, areas, whether the rule sends it to the chain
    route) for A2p, for 1p with k in -3..3 and n in 2..5, and for 2p and 3p
    with k in 0..3 (their parameter is never negative)."""
    yield "A2p", {}, _config(PP, [(1,), (1,)]), AreaVector(PP, (Fraction(1),)), True
    for row, (amb, section, fiber, areas) in RULED.items():
        t, w = "BC".index(row), AreaVector(amb, areas)
        for k in range(-3, 4):
            for n in range(2, 6):
                cfg = _config(amb, [section(k)] + [fiber] * (n - 1))
                yield f"{row}1p", {"k": k, "n": n}, cfg, w, n == 2 and 2 * k + t > 0
        for k in range(4):
            two = _config(amb, [section(k), fiber, section(-k - t)])
            yield f"{row}2p", {"k": k}, two, w, 2 * k + t > 0
            three = _config(amb, [section(k + 1 - t), section(-k)])
            yield f"{row}3p", {"k": k}, three, w, True


def _summary(route):
    c = route.cusp
    return route.tag, (c.k, c.p, c.q), route.combination


@pytest.mark.parametrize("row, params, cfg, w, chain", [
    pytest.param(*r, id="-".join([r[0], *(f"{k}{v}" for k, v in r[1].items())])) for r in _p_rows()])
def test_the_rule_takes_the_route_the_fallback_took(row, params, cfg, w, chain):
    assert validate(cfg, w) == []
    model = classify_minimal_model(cfg)
    assert (model.case, model.params) == (row, params)
    goodness = goodness_search(None)
    got = cusp._b2_route(cfg, w, model, goodness, cusp._good_chains)
    want = reference_b2_route(cfg, w, model, goodness, cusp._good_chains)
    assert _summary(got) == _summary(want)
    assert (got.cusp.k > 0) == chain


def _c1p_chain():
    """C1p {k: 0, n: 2}: the line H and the fiber H - E through it, which
    certify reduces to itself and certifies by the chain route."""
    cfg = _config(C1, [(1, 0), (1, -1)])
    return documents.config_to_doc(cfg, AreaVector(C1, (Fraction(1), Fraction(1, 4))))


def _run(capsys, argv):
    rc = main(argv)
    out = capsys.readouterr()
    return rc, out.out, out.err


def test_a_failing_chain_route_names_the_tag_and_writes_no_certificate(
        tmp_path, capsys, monkeypatch):
    src = tmp_path / "c1p.json"
    src.write_text(json.dumps(_c1p_chain()))
    rc, out, _ = _run(capsys, ["certify", str(src)])
    cert = json.loads(out)
    assert rc == 0 and cert["route_tag"] == "minimal-model:C1p" and cert["cusp"]["k"] == 1

    def broken(term, wt, tag, goodness, labelings):
        raise CertifyError("cusp_class", "the chain route is broken")

    monkeypatch.setattr(cusp, "_chain_route", broken)
    rc, out, err = _run(capsys, ["certify", str(src)])
    assert rc == 1 and out == ""
    assert "minimal-model:C1p: the chain route is broken" in err

    # the fallback the rule replaced hid the same defect behind a fiber certificate
    monkeypatch.setattr(cusp, "_b2_route", reference_b2_route)
    rc, out, _ = _run(capsys, ["certify", str(src)])
    hidden = json.loads(out)
    assert hidden["route_tag"] == "minimal-model:C1p" and hidden["cusp"]["k"] == 0


def _forged(tmp_path, name, doc, forge):
    cert = documents.certificate_to_doc(certify_affine_ruled(*documents.parse_config(doc)))
    forge(cert["cusp"])
    path = tmp_path / name
    path.write_text(documents.canonical_json(cert))
    return path


def test_check_refuses_a_chain_certificate_without_its_labeling(tmp_path, capsys):
    path = _forged(tmp_path, "c1p.cert.json", _c1p_chain(), lambda c: c.update(k=0))
    rc, out, _ = _run(capsys, ["check", str(path)])
    assert rc == 1
    assert "minimal-model:C1p: no good-chain labeling exists" in out


def test_check_refuses_a_fiber_certificate_with_a_forged_labeling(tmp_path, capsys):
    doc = json.loads((FIXTURES / "product_spheres_5.json").read_text())
    ids = [c["id"] for c in doc["components"]]

    def forge(c):
        assert c["k"] == 0 and c["chain"] == []
        c.update(chain=ids, k=1)

    path = _forged(tmp_path, "b1p.cert.json", doc, forge)
    rc, out, _ = _run(capsys, ["check", str(path)])
    assert rc == 1
    assert "failed: document equals its replay: 'cusp' differs" in out
