"""The certificate checker: what it runs, what it accepts and what it rejects.

* `check` runs none of the producer's search: with the reduction stages,
  the good-chain search, the exceptional-class enumeration, goodness over an
  enumeration and `certify_affine_ruled` made to raise, it still accepts
  every fixture's certificate.
* Its one search, `exceptional.find_witness`, bounded by area alone, gives
  the verdict of `enumerate_exceptional` followed by the pairing test.
  Certify decides goodness by the same search, and on every goodness call it
  makes the checks equal those of `d_good` over an enumeration.
* It accepts what `certify` emits on every fixture and on the inputs of the
  two certify workloads of `perfbench/` at seeds 1, 3 and 5, which between
  them take all five routes.
* It rejects every certificate with one leaf changed.  No leaf is exempt:
  the free text (check names and details, assumptions, transport notes) is
  recomputed like everything else.
* The fields it recomputes from the cusp, the resolution, the combination
  and the route tag, are compared with the document and never parsed: no
  value of them is an input error.
* The perfbench oracle, loaded read-only, accepts every fixture's v2
  certificate.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import FIXTURES
from sympdiv import checker, cli, cusp, exceptional, reduction
from sympdiv.checks import all_passed, failures
from sympdiv.exceptional import d_good, enumerate_exceptional
from sympdiv.lattice import AmbientLattice, AreaVector, HomologyClass, pair

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _certificates():
    """(fixture name, certificate document) for every fixture that
    certifies."""
    out = []
    for path in sorted(FIXTURES.glob("*.json")):
        code, text = _run(["certify", str(path)])
        if code == 0:
            out.append((path.name, json.loads(text)))
    return out


def _run(argv):
    """Exit code and stdout of sympdiv in-process, stderr dropped."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


CERTIFICATES = _certificates()


def _check_exit(doc, tmp_path) -> int:
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return _run(["check", str(path)])[0]


def test_every_certifying_fixture_is_covered():
    assert len(CERTIFICATES) == 11


# -- (a) the producer's search never runs ------------------------------------------


def _forbid_search(monkeypatch):
    """Make every binding of the producer's search raise, in every sympdiv
    module that holds one."""
    targets = [(cusp, "certify_affine_ruled"), (exceptional, "enumerate_exceptional"),
               (exceptional, "d_good")]
    targets += [(reduction, name) for name in vars(reduction) if name.endswith("_reduce")]
    targets.append((reduction, "good_chain_candidates"))
    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "sympdiv"]
    for module, name in targets:
        original = getattr(module, name)

        def forbidden(*args, _name=name, **kwargs):
            raise AssertionError(f"check ran {_name}")

        for m in modules:
            for key, value in list(vars(m).items()):
                if value is original:
                    monkeypatch.setattr(m, key, forbidden)
    return len(targets)


@pytest.mark.parametrize("name,doc", CERTIFICATES, ids=[n for n, _ in CERTIFICATES])
def test_check_runs_no_producer_search(name, doc, monkeypatch, tmp_path):
    assert _forbid_search(monkeypatch) >= 8
    assert _check_exit(doc, tmp_path) == 0


# -- (b) the witness search against the enumeration --------------------------------


def _enumerated_witnesses(x, w, bound):
    es = enumerate_exceptional(x.ambient, w, area_bound=bound)
    return [e for e in es.classes if e != x and pair(e, x) < 0]


@st.composite
def witness_cases(draw):
    n = draw(st.integers(1, 10))
    amb = AmbientLattice.rational_blowup(n)
    head = draw(st.fractions(min_value=1, max_value=3, max_denominator=31))
    share = st.fractions(min_value=Fraction(1, 97), max_value=Fraction(3, 10), max_denominator=97)
    exc = [head * draw(share) for _ in range(n)]
    w = AreaVector(amb, (head, *exc))
    bound = draw(st.one_of(
        st.fractions(min_value=Fraction(1, 37), max_value=head, max_denominator=37),
        st.sampled_from(exc),
    ))
    coeffs = st.integers(-3, 3)
    x = HomologyClass(amb, (draw(st.integers(-1, 4)), *(draw(coeffs) for _ in range(n))))
    return x, w, bound


def _case(values, x, bound):
    amb = AmbientLattice.rational_blowup(len(values) - 1)
    w = AreaVector(amb, tuple(Fraction(v) for v in values))
    return HomologyClass(amb, tuple(x)), w, Fraction(bound)


@settings(max_examples=100, deadline=None)
@given(witness_cases())
# area cut with equality: the one witness of -H, H - E1 - E2 (or H - E6 - E7),
# has area exactly the bound 1/2, and none is left below it
@example(_case([1, "1/4", "1/4"], [-1, 0, 0], "1/2"))
@example(_case([1, "1/4", "1/4"], [-1, 0, 0], "1/3"))
@example(_case([1] + ["1/5"] * 5 + ["1/4", "1/4"], [-1] + [0] * 7, "1/2"))
# pairing cut with equality: every class under the bound pairs 0 with x
@example(_case([1, "1/4", "1/4", "1/5"], [1, 1, 1, 0], "1/5"))
@example(_case([1, "1/3", "1/4", "1/5"], [0, -1, 0, 0], "1/4"))
# x itself exceptional: E.x = -1 for E = x, which is never a witness
@example(_case([1, "1/3", "1/4", "1/5"], [0, 1, 0, 0], "1/3"))
def test_witness_search_matches_the_enumeration(case):
    x, w, bound = case
    witnesses = _enumerated_witnesses(x, w, bound)
    found = exceptional.find_witness(x, w, bound)
    assert (found is not None) == bool(witnesses)
    if found is not None:
        assert found in witnesses


def test_witness_search_on_ruled_and_minimal_ambients():
    amb = AmbientLattice.ruled_trivial(2, 2)
    w = AreaVector.from_values(amb, [5, 1, Fraction(1, 3), Fraction(1, 4)])
    x = amb.cls(F=1, E1=-1, E2=-1)
    for bound in (Fraction(1, 4), Fraction(1, 3), Fraction(2, 3), Fraction(3, 4)):
        found = exceptional.find_witness(x, w, bound)
        assert (found is not None) == bool(_enumerated_witnesses(x, w, bound))
    pp = AmbientLattice.projective_plane()
    assert exceptional.find_witness(pp.cls(H=1), AreaVector.from_values(pp, [1]), Fraction(5)) \
        is None


def _goodness_calls(monkeypatch, argvs):
    """(class, configuration, areas, area bound, checks) of every goodness
    decision certify makes on argvs; every argv on which certify succeeds
    makes at least one."""
    calls, original = [], cusp.goodness_checks

    def spy(a, cfg, w, bound, witness):
        checks = original(a, cfg, w, bound, witness)
        calls.append((a, cfg, w, bound, tuple(checks)))
        return checks

    monkeypatch.setattr(cusp, "goodness_checks", spy)
    for argv in argvs:
        before = len(calls)
        assert _run(argv)[0] != 0 or len(calls) > before, argv
    return calls


def test_certify_goodness_matches_d_good(monkeypatch, tmp_path):
    workloads = _perfbench_module("workloads")
    bounds = ([], ["--area-bound", "3"])
    argvs = [["certify", str(FIXTURES / name), *extra]
             for name, _ in CERTIFICATES for extra in bounds]
    for r in (3, 4, 5, 6):
        path = tmp_path / f"cp2_13_r{r}.json"
        path.write_text(json.dumps(workloads.cp2_13(Fraction(r))), encoding="utf-8")
        argvs += [["certify", str(path), "--area-bound", b] for b in ("2", "5/2", "3")]
    calls = _goodness_calls(monkeypatch, argvs)
    orthogonal = 0
    for a, cfg, w, bound, checks in calls:
        es = enumerate_exceptional(cfg.ambient, w, area_bound=bound)
        assert tuple(d_good(a, cfg, w, es)) == checks, (a, bound)
        orthogonal += any(e != a and pair(e, a) == 0 for e in es.classes)
    # the boundary of the pairing is reached: exceptional classes orthogonal
    # to the class, which are no witness
    assert orthogonal


# -- (c) every producer certificate is accepted ------------------------------------


def _route(doc) -> str:
    tag = doc["route_tag"]
    if tag.startswith("minimal-model:"):
        return "minimal-model chain" if doc["cusp"]["k"] else "minimal-model fiber"
    return tag


def _perfbench_module(name):
    sys.path.insert(0, str(PERFBENCH))
    try:
        return importlib.import_module(name)
    finally:
        sys.path.remove(str(PERFBENCH))


def test_checker_accepts_every_fixture_and_workload_certificate(tmp_path):
    workloads = _perfbench_module("workloads")
    docs = [doc for _, doc in CERTIFICATES]
    for seed in (1, 3, 5):
        for make in (workloads.certify_mixed, workloads.certify_wide):
            for op in make(random.Random(seed), tmp_path, None):
                code, text = _run(op.produce_argv)
                assert code == 0, op.label
                docs.append(json.loads(text))
    routes = set()
    for doc in docs:
        checks = checker.check_certificate(doc)
        assert all_passed(checks), (doc["input"], failures(checks))
        routes.add(_route(doc))
    assert routes == {"admissible-subchain", "minimal-model chain", "minimal-model fiber",
                      "a3-special", "comb"}


# -- (d) the tamper suite ------------------------------------------------------------


def _nodes(node, path=()):
    """(path, value) of node and of everything inside it."""
    yield path, node
    if isinstance(node, dict):
        for k, v in node.items():
            yield from _nodes(v, path + (k,))
    elif isinstance(node, list):
        for i, v in enumerate(node):
            yield from _nodes(v, path + (i,))


def _mutated(value):
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    if isinstance(value, str):
        return value + "~"
    return 1  # null


def _set(doc, path, value):
    out = json.loads(json.dumps(doc))
    node = out
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return out


@pytest.mark.parametrize("name,doc", CERTIFICATES, ids=[n for n, _ in CERTIFICATES])
def test_every_leaf_change_is_rejected(name, doc, tmp_path):
    assert _check_exit(doc, tmp_path) == 0
    for path, value in _nodes(doc):
        if isinstance(value, (dict, list)):
            continue
        code = _check_exit(_set(doc, path, _mutated(value)), tmp_path)
        assert code in (1, 2), (path, code)


@pytest.mark.parametrize("name", ["trident_cp2_4.json", "cp2_line.json"])
def test_a_wrong_type_or_a_missing_field_is_rejected_never_a_defect(name, tmp_path):
    # exit 1 or 2, never 3: a document comes from outside the program, so
    # nothing in it may surface as a defect
    doc = dict(CERTIFICATES)[name]
    for path, _ in list(_nodes(doc))[1:]:
        dropped = json.loads(json.dumps(doc))
        parent = dropped
        for key in path[:-1]:
            parent = parent[key]
        del parent[path[-1]]
        for bad in (_set(doc, path, []), dropped):
            if bad != doc:  # an empty list stays itself
                assert _check_exit(bad, tmp_path) in (1, 2), path


# -- (e) recomputed fields are compared, never parsed ------------------------------

RESOLVED = [(name, doc) for name, doc in CERTIFICATES if doc["resolution"] is not None]


@pytest.mark.parametrize("name,doc", RESOLVED, ids=[n for n, _ in RESOLVED])
def test_recomputed_fields_are_compared_never_parsed(name, doc, tmp_path):
    res = doc["resolution"]
    bad = [("resolution", None), ("resolution", [])]
    if res["moves"]:
        moves = [dict(res["moves"][0], type="toric~"), *res["moves"][1:]]
        bad.append(("resolution", dict(res, moves=moves)))
    if doc["combination"] is not None:
        bad.append(("combination", None))
    chain_tag = "admissible-subchain"
    bad.append(("route_tag", "minimal-model:A1p" if doc["route_tag"] == chain_tag else chain_tag))
    path = tmp_path / "cert.json"
    for key, value in bad:
        path.write_text(json.dumps(dict(doc, **{key: value})), encoding="utf-8")
        assert _run(["check", str(path)]) == (
            1, f"failed: document equals its replay: '{key}' differs\ncertificate rejected\n"
        ), (key, value)


# -- (f) the perfbench oracle ----------------------------------------------------------


@pytest.mark.parametrize("name,doc", CERTIFICATES, ids=[n for n, _ in CERTIFICATES])
def test_perfbench_oracle_accepts_v2_certificates(name, doc):
    oracles = _perfbench_module("oracles")
    assert oracles.certificate_failures(json.dumps(doc)) == []
