"""What `check` spends, and that spending less changes no verdict.

* One canonical encoding per check.  `sympdiv check` hands the checker the
  text it read, and a text equal to the canonical JSON of the rebuilt
  document is accepted without encoding the document again.  On every
  fixture certificate and every document in tests/data, the checks are the
  same given the canonical text, a pretty-printed text or no text.  Every
  one-leaf change of a canonically written certificate is rejected, so the
  byte comparison is never the only thing between a tampered leaf and exit 0.
* The one module-level encoder of `canonical_json` writes what
  json.dumps(obj, sort_keys=True, separators=(",", ":")) writes, on every
  fixture certificate, every tests/data document and the plans for n = 0..31.
* The contraction check on coefficient tuples equals the class-level one it
  replaced, kept here as the reference, messages included: on every recorded
  contraction of the fixture certificates and on forged words.
* Cyclic garbage is pinned, collected with the collector off after a
  warm-up run: a search leaves none, and what certify and check leave is the
  ambients they make, each of which its cached canonical class points back
  at, and nothing else; `inflate` and `check` of a plan leave nothing.
"""

from __future__ import annotations

import gc
import json
import random
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import FIXTURES, perfbench_module, recipe_target
from sympdiv import checker, documents
from sympdiv.checks import Check
from sympdiv.documents import DocumentError, canonical_json, parse_config
from sympdiv.exceptional import (
    _degree_bound,
    enumerate_exceptional,
    find_witness,
    normalize_to_basis,
)
from sympdiv.inflation import plan_kahler
from sympdiv.lattice import (
    AmbientLattice,
    AreaVector,
    LatticeMap,
    area,
    canonical,
    is_exceptional_class,
    pair,
)
from sympdiv.moves import Contraction, recorded_contraction
from test_checker import CERTIFICATES, _mutated, _nodes, _run, _set

DATA = Path(__file__).parent / "data"


# -- the byte path ---------------------------------------------------------------


def _outcome(doc, text=None):
    try:
        return [c.as_dict() for c in checker.check_certificate(doc, text)]
    except DocumentError as exc:
        return f"DocumentError: {exc}"


def _documents():
    """(name, document) of every fixture certificate and every tests/data document."""
    data = [(p.name, json.loads(p.read_text())) for p in sorted(DATA.glob("*.json"))]
    return CERTIFICATES + data


@pytest.mark.parametrize("name,doc", _documents(), ids=[n for n, _ in _documents()])
def test_the_checks_do_not_depend_on_the_text_given(name, doc, monkeypatch):
    encode, encoded = documents.canonical_json, []

    def spy(obj):
        encoded.append(obj is doc)
        return encode(obj)

    monkeypatch.setattr(documents, "canonical_json", spy)
    outcomes = []
    for text in (encode(doc) + "\n", json.dumps(doc, indent=1), None):
        encoded.clear()
        outcomes.append((_outcome(doc, text), sum(encoded)))
    (canon, n_canon), (pretty, n_pretty), (none, n_none) = outcomes
    assert canon == pretty == none
    if isinstance(canon, list) and canon[-1]["passed"]:
        # the document given is encoded only when its text is not the
        # rebuilt document's encoding
        assert (n_canon, n_pretty, n_none) == (0, 1, 1)


def test_the_one_encoder_writes_what_json_dumps_writes():
    # canonical_json reuses one encoder without the cycle check
    plans = [documents.plan_to_doc(plan_kahler(recipe_target(g, n)))
             for g in (1, 2, 3) for n in range(32)]
    docs = [doc for _, doc in _documents()] + plans
    assert len(docs) == len(CERTIFICATES) + len(list(DATA.glob("*.json"))) + 96
    for doc in docs:
        assert canonical_json(doc) == json.dumps(doc, sort_keys=True, separators=(",", ":"))


@pytest.mark.parametrize("name", ["trident_cp2_4.json", "cp2_line.json"])
def test_every_leaf_change_of_a_canonical_text_is_rejected(name, tmp_path):
    # the tamper suite of test_checker writes json.dumps(doc), which is never
    # the canonical text, so it only takes the canonical comparison
    doc = dict(CERTIFICATES)[name]
    path = tmp_path / "cert.json"

    def check_exit(d):
        path.write_text(canonical_json(d) + "\n", encoding="utf-8")
        return _run(["check", str(path)])[0]

    assert check_exit(doc) == 0
    for leaf, value in _nodes(doc):
        if not isinstance(value, (dict, list)):
            assert check_exit(_set(doc, leaf, _mutated(value))) in (1, 2), leaf


# -- the contraction check ----------------------------------------------------------


def reference_contraction_check(name: str, con, w: AreaVector) -> Check:
    """The class-level contraction check the tuple one replaced."""
    e, amb = con.e, con.pre
    k = canonical(amb)
    problems = [f"word class {c} is not a square -2 class orthogonal to K"
                for c in con.word.word if pair(c, c) != -2 or pair(c, k) != 0]
    if not is_exceptional_class(e):
        problems.append(f"{e} is not exceptional")
    elif (a := area(e, w)).numerator <= 0:
        problems.append(f"{e} has non-positive area {a}")
    if con.slot is not None and con.word.apply(e) != amb.basis_class(amb.names[con.slot]):
        problems.append(f"the word does not take {e} to {amb.names[con.slot]}")
    return Check(f"{name} contraction", not problems, "; ".join(problems))


def _recorded_contractions(doc):
    """(contraction, areas before it) of every step the document records."""
    config, w = parse_config(doc["input"])
    amb, out = config.ambient, []
    for tr in doc["traces"]:
        for st in tr["steps"]:
            con = documents.doc_to_contraction(
                st["contraction"], documents.doc_to_class(st["class"], amb, "class"))
            out.append((con, w))
            amb, w = con.post, con.pull_back(w)
    return out


def _forgeries(con: Contraction, w: AreaVector):
    """Contractions that each break one rule of the check, from a drop path one."""
    amb = con.pre
    e1, e2, e3, e4 = (amb.basis_class(n) for n in amb.names[amb.exc_start:][:4])
    square_4 = e1 - e2 + e3 - e4  # K-orthogonal
    k_pairing = e1 + e2  # square -2
    assert (pair(square_4, square_4), pair(k_pairing, k_pairing)) == (-4, -2)
    assert (pair(square_4, canonical(amb)), pair(k_pairing, canonical(amb))) == (0, -2)
    other = next(i for i in amb.exc_indices if i != con.slot)
    yield replace(con, word=LatticeMap(amb, con.word.word + (square_4,))), w
    yield replace(con, word=LatticeMap(amb, (k_pairing,) + con.word.word)), w
    yield recorded_contraction(con.e, con.word, other), w
    yield replace(con, e=con.e * 2), w
    # an exceptional class of negative area, normalized by its own word
    line = amb.basis_class("H") - e1 - e2
    word, slot = normalize_to_basis(line)
    heavy = AreaVector(amb, (Fraction(1), Fraction(3, 5), Fraction(3, 5))
                       + tuple(Fraction(1, 100 + i) for i in range(amb.n_exc - 2)))
    assert area(line, heavy) < 0
    yield recorded_contraction(line, word, slot), heavy


def test_the_tuple_contraction_check_equals_the_class_level_one():
    recorded = [step for _, doc in CERTIFICATES if doc["route"] == "rational"
                for step in _recorded_contractions(doc)]
    assert len(recorded) == 30
    forged = [f for con, w in recorded if con.slot is not None and con.pre.n_exc >= 4
              for f in _forgeries(con, w)]
    failed = 0
    for i, (con, w) in enumerate(recorded + forged):
        got = checker._contraction_check(f"step[{i}]", con, w)
        assert got == reference_contraction_check(f"step[{i}]", con, w)
        failed += not got.passed
    assert failed == len(forged) > 0


# -- cyclic garbage -------------------------------------------------------------------


def _garbage(fn) -> list:
    """The objects the collector finds unreachable after one call of fn,
    made after a warm-up call with the collector off."""
    fn()
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        fn()
        gc.collect()
        return list(gc.garbage)
    finally:
        gc.garbage.clear()
        gc.set_debug(0)
        gc.enable()


def _ambients_left(left: list) -> int:
    """The number of ambients in `left`, which must hold nothing else than
    them and what they own: each ambient's cached canonical class points back
    at it, so the ambient, its __dict__ and what that holds, its names and the
    class's coefficients form one cycle.  How many objects that is depends on
    the interpreter; how many ambients does not."""
    ambients = [o for o in left if type(o) is AmbientLattice]
    owned = {id(x) for a in ambients
             for x in (a, vars(a), *vars(a).values(), a.names, a.canonical_class.coeffs)}
    assert [o for o in left if id(o) not in owned] == []
    return len(ambients)


# fixture -> ambients left as cyclic garbage per (certify, check); while each
# exceptional-class search left its recursion to the collector, and check made
# and validated the configuration its replay ends in, the searches' cells,
# closures and lists were left too: 310 objects per certify on cp2_13 against
# 55 after, on Python 3.11
#
# "plan16" is the n = 16 plan of the inflate workload at seed 1, per (inflate,
# check): a plan's ambients never build a canonical class, so none is left
AMBIENTS_LEFT = {
    "plan16": (0, 0),
    "cp2_13_cusp.json": (11, 11),
    "trident_cp2_4.json": (4, 4),
    "near_boundary_cp2_9.json": (9, 9),
    "product_spheres_5.json": (6, 6),
    "conic_cremona_cp2_6.json": (6, 6),
    "ruled_comb_genus2.json": (1, 1),
}


@pytest.mark.parametrize("name", sorted(AMBIENTS_LEFT))
def test_certify_and_check_leave_only_the_ambients_they_make(name, tmp_path):
    if name == "plan16":
        ops = perfbench_module("workloads").inflate(random.Random(1), tmp_path, None)
        produce = ops[-1].produce_argv
    else:
        produce = ["certify", str(FIXTURES / name)]
    code, text = _run(produce)
    assert code == 0
    cert = tmp_path / "cert.json"
    cert.write_text(text, encoding="utf-8")
    counts = tuple(_ambients_left(_garbage(lambda argv=argv: _run(argv))) for argv in
                   (produce, ["check", str(cert)]))
    assert counts == AMBIENTS_LEFT[name]


def test_a_search_on_an_existing_ambient_leaves_no_garbage():
    config, w = parse_config(json.loads((FIXTURES / "cp2_13_cusp.json").read_text()))
    es = enumerate_exceptional(config.ambient, w)
    x = es.classes[0]
    assert es.nodes > 0
    # the default bound searches degree 0 alone, in closed form; 3 runs the branch and bound
    nums, den = w.integer_form
    bounds = (es.area_bound, Fraction(3))
    assert [_degree_bound(nums, b.denominator, b.numerator * den) for b in bounds] == [1, 5]
    for bound in bounds:
        assert _garbage(lambda bound=bound: enumerate_exceptional(config.ambient, w, bound)) == []
        assert _garbage(lambda bound=bound: find_witness(x, w, bound)) == []
