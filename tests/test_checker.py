"""The certificate checker: what it runs, what it accepts and what it rejects.

* `check` runs none of the producer's search: with the reduction stages,
  the good-chain search, the exceptional-class enumeration, goodness over an
  enumeration and `certify_affine_ruled` made to raise, it still accepts
  every fixture's certificate.
* Its one search, `exceptional.find_witness`, bounded by area alone, gives
  the verdict of an oracle that shares no code with it, the leaf-test search
  of `conftest` restricted to the Cremona orbit and followed by the pairing
  test, and the witness it names is pinned.
  Certify decides goodness by the same search, and on every goodness call it
  makes the checks equal those of `d_good` over an enumeration.
* It accepts what `certify` emits on every fixture and on the inputs of the
  two certify workloads of `perfbench/` at seeds 1, 3 and 5, which between
  them take all five routes, and the traces of each walk
  `reduction.NEXT_STAGE`.
* It rejects every certificate with one leaf changed.  No leaf is exempt:
  the free text (check names and details, assumptions, transport notes) is
  recomputed like everything else.
* The fields it recomputes from the cusp, the resolution, the combination
  and the route tag, are compared with the document and never parsed: no
  value of them is an input error.
* The perfbench oracle, loaded read-only, accepts every fixture's v2
  certificate, and `check` accepts a plan of the inflate workload with one
  numeric leaf changed exactly when the oracle does.
* It refuses a disconnected input as `certify` does, in the
  `cusp.build_certificate` both run, even given the certificate `certify`
  would write without that test.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import re
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import FIXTURES, in_orbit, leaf_test_search, perfbench_module
from sympdiv import checker, cli, cusp, exceptional, reduction
from sympdiv.checks import all_passed, failures
from sympdiv.documents import parse_config
from sympdiv.exceptional import d_good, enumerate_exceptional
from sympdiv.lattice import AmbientLattice, AreaVector, HomologyClass, pair


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


# -- (b) the witness search against an independent oracle --------------------------


def _oracle_witnesses(x, w, bound):
    """The witnesses for x by the leaf-test search, which shares no code with
    find_witness, restricted to the Cremona orbit: every exceptional E != x
    with 0 < area(E) <= bound and E.x < 0."""
    nums, den = w.integer_form
    found = []
    leaf_test_search(x.ambient, nums, bound.denominator, bound.numerator * den, found)
    classes = (HomologyClass(x.ambient, coeffs) for _, coeffs in found if in_orbit(coeffs))
    return [e for e in classes if e != x and pair(e, x) < 0]


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
def test_witness_search_matches_the_leaf_test_oracle(case):
    x, w, bound = case
    witnesses = _oracle_witnesses(x, w, bound)
    found = exceptional.find_witness(x, w, bound)
    assert (found is not None) == bool(witnesses)
    if found is not None:
        assert found in witnesses


# the witness each search names: the first in search order, the last two
# slots taken (lo, hi) before (hi, lo).  On the first case E2 is a witness
# too; on the last, 3H - E1 - ... - E6 - 2E7 is, and a set of the two tails
# yields (-1, -2) before (-2, -1)
@pytest.mark.parametrize("case,named", [
    (_case([1, "1/30", "1/5", "1/5"], [1, -1, 1, 1], "2/3"), "E3"),
    (_case([1, "1/4", "1/4"], [-1, 0, 0], "1/2"), "H-E1-E2"),
    (_case([1] + ["1/5"] * 5 + ["1/4", "1/4"], [-1] + [0] * 7, "1/2"), "H-E6-E7"),
    (_case([1] + ["7/20"] * 7, [2, 0, 0, 0, 0, 0, -3, -3], "1/5"), "3H-E1-E2-E3-E4-E5-2E6-E7"),
], ids=["cp2_3", "cp2_2", "cp2_7", "cp2_7_cubic"])
def test_the_named_witness_is_pinned(case, named):
    x, w, bound = case
    assert str(exceptional.find_witness(x, w, bound)) == named


def test_witness_search_on_ruled_and_minimal_ambients():
    amb = AmbientLattice.ruled_trivial(2, 2)
    w = AreaVector.from_values(amb, [5, 1, Fraction(1, 3), Fraction(1, 4)])
    x = amb.cls(F=1, E1=-1, E2=-1)
    # the exceptional classes are E1, E2, F - E1 and F - E2, of areas 1/3,
    # 1/4, 2/3 and 3/4; F - E1 and F - E2 pair to -1 with x, E1 and E2 to 1
    first = amb.cls(F=1, E1=-1)
    for bound, witness in ((Fraction(1, 4), None), (Fraction(1, 3), None),
                           (Fraction(2, 3), first), (Fraction(3, 4), first)):
        assert exceptional.find_witness(x, w, bound) == witness
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
    workloads = perfbench_module("workloads")
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


def _assert_walks_the_stage_table(doc):
    """The traces of a rational pair start at quasi_minimal, each stage is
    the table's successor of the previous (stage, terminal), the walk ends
    where the table gives None or small_b2, and a small_b2 trace has steps;
    a ruled pair records none."""
    traces = doc["traces"]
    assert bool(traces) == (doc["route"] == "rational")
    expected = "quasi_minimal" if traces else None
    for tr in traces:
        assert tr["stage"] == expected, traces
        assert tr["stage"] != "small_b2" or tr["steps"], traces
        expected = reduction.NEXT_STAGE[tr["stage"], tr["terminal"]]
    assert expected in (None, "small_b2"), traces


def test_checker_accepts_every_fixture_and_workload_certificate(tmp_path):
    workloads = perfbench_module("workloads")
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
        _assert_walks_the_stage_table(doc)
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
    oracles = perfbench_module("oracles")
    assert oracles.certificate_failures(json.dumps(doc)) == []


def test_check_refuses_the_disconnected_input_certify_refuses(capsys):
    # the forged certificate is what certify writes for the fixture, trident_cp2_4
    # with an isolated sphere Z = E5, when every is_connected binding returns
    # True; check verified it while only certify's reduction tested connectivity
    fixture = FIXTURES / "disconnected_cp2_5.json"
    forged = Path(__file__).parent / "data" / "disconnected_cp2_5.forged.cert.json"
    assert cli.main(["certify", str(fixture)]) == 1
    assert capsys.readouterr().err == ("certification failed at stage 'validate': [validate] "
                                       "rational pipelines need a connected divisor\n")
    doc = json.loads(forged.read_text())
    assert parse_config(doc["input"]) == parse_config(json.loads(fixture.read_text()))
    assert [(t["stage"], [s["move"]["type"] for s in t["steps"]]) for t in doc["traces"]] == [
        ("quasi_minimal", ["exterior"]), ("second_kind", ["non_toric"] * 3)]
    assert [(c.name, c.detail) for c in failures(checker.check_certificate(doc))] == [
        ("replay", "CertifyError: [validate] rational pipelines need a connected divisor")]
    assert cli.main(["check", str(forged)]) == 1
    assert capsys.readouterr().out == ("failed: replay: CertifyError: [validate] rational "
                                       "pipelines need a connected divisor\ncertificate rejected\n")


def _plan_tampers(doc):
    """Copies of a plan document with one numeric leaf changed, every leaf in
    turn but g and n: a rational string times 101/100 and plus 10^-6, an
    integer plus and minus 1."""
    for path, value in _nodes(doc):
        if isinstance(value, bool) or (path and path[-1] in ("g", "n")):
            continue
        if isinstance(value, int):
            news = (value + 1, value - 1)
        elif isinstance(value, str) and re.fullmatch(r"-?[0-9]+(/[0-9]+)?", value):
            x = Fraction(value)
            news = (str(x * Fraction(101, 100)), str(x + Fraction(1, 10**6)))
        else:
            continue
        for new in news:
            yield path, _set(doc, path, new)


def test_check_on_tampered_plans_agrees_with_the_perfbench_oracle(tmp_path):
    # the seed-1 inflate workload's plans at n = 3, 5 and 8; the oracle
    # replays each document with its own lattice and Fraction arithmetic
    oracles, workloads = perfbench_module("oracles"), perfbench_module("workloads")
    ops = {op.label: op for op in workloads.inflate(random.Random(1), tmp_path, None)}
    verdicts = []
    for label in ("plan3", "plan5", "plan8"):
        code, text = _run(ops[label].produce_argv)
        assert code == 0 and oracles.plan_failures(text) == [], label
        for path, doc in _plan_tampers(json.loads(text)):
            ok = oracles.plan_failures(json.dumps(doc)) == []
            assert (_check_exit(doc, tmp_path) == 0) == ok, (label, path)
            verdicts.append(ok)
    # 760 tampers; a few (one more zig-zag substep) still replay exactly
    assert len(verdicts) == 760 and 0 < sum(verdicts) < 20
