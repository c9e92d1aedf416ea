"""The one-pass replay of a reduction, `reduction.verify_trace`, which certify
and check share, against the per-step replay it replaced.

* The reference kept here is that per-step path: from the recorded
  terminal, every recorded step is blown back up by `moves.replay_blowdown`,
  each configuration so made is validated, and the adjoint-area hypothesis
  is decided on it by `divisor.check_hypothesis`.  On every fixture
  certificate and on the certify-mixed and certify-wide inputs of
  `perfbench/` at seed 1, the checker's one pass computes the same adjoint
  area at every step, so the same hypotheses, the same b2 values and the
  same final configuration, the input.  That every configuration between
  validates is the isometry argument the one pass rests on, checked here
  rather than assumed.
* certify and check each replay a reduction once: one `verify_trace` call and
  one `moves.blowup_states` pass per certificate on the rational route, and
  the producer's replayed steps equal the checker's.
* A forged certificate that validating every step used to stop still makes
  `check` exit 1: a recorded sphere id taken by a live component, a toric
  move on an absent edge, a half-toric move on an unknown component.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import random
import sys
from pathlib import Path

import pytest

from conftest import FIXTURES, rebind
from sympdiv import checker, cli, moves, reduction
from sympdiv.checks import all_passed
from sympdiv.cusp import certify_affine_ruled
from sympdiv.divisor import adjoint_area, check_hypothesis, validate
from sympdiv.documents import (
    doc_bounds,
    doc_to_class,
    doc_to_contraction,
    doc_to_move,
    parse_config,
)
from sympdiv.moves import BlowdownStep, blowup_states, replay_blowdown
from sympdiv.reduction import verify_trace

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _run(argv):
    """Exit code and stdout of sympdiv in-process, stderr dropped."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


@pytest.fixture(scope="module")
def documents(tmp_path_factory):
    """The certificate of every fixture that certifies, then of every
    certify-mixed and certify-wide input at seed 1."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        workloads = importlib.import_module("workloads")
    finally:
        sys.path.remove(str(PERFBENCH))
    workdir = tmp_path_factory.mktemp("workloads")
    argvs = [["certify", str(path)] for path in sorted(FIXTURES.glob("*.json"))]
    for make in (workloads.certify_mixed, workloads.certify_wide):
        argvs += [op.produce_argv for op in make(random.Random(1), workdir, None)]
    docs = []
    for argv in argvs:
        code, text = _run(argv)
        if code == 0:
            docs.append(json.loads(text))
    return docs


def _reference(doc):
    """The per-step replay: the adjoint area of the terminal and of every
    pre-configuration going up, the (hyp_before, hyp_after, b2_before,
    b2_after) of every step in document order, and the configuration the
    replay ends in.  Every configuration it makes must validate."""
    config, w = parse_config(doc["input"])
    amb, cur_w, recorded = config.ambient, w, []
    for tr in doc["traces"]:
        for st in tr["steps"]:
            con = doc_to_contraction(st["contraction"], doc_to_class(st["class"], amb, "class"))
            move, sphere = doc_to_move(st["move"])
            recorded.append((con, move, sphere, cur_w, con.pull_back(cur_w)))
            amb, cur_w = con.post, con.pull_back(cur_w)
    post, wt = parse_config(doc["terminal"])
    areas, steps, hyp_post = [adjoint_area(post, wt)], [], check_hypothesis(post, wt)
    for con, move, sphere, pre_w, post_w in reversed(recorded):
        pre = replay_blowdown(BlowdownStep(None, post, move.kind, move, con, sphere, post_w))
        assert validate(pre) == [], (doc["input"], move)
        hyp_pre = check_hypothesis(pre, pre_w)
        areas.append(adjoint_area(pre, pre_w))
        steps.append((hyp_pre, hyp_post, pre.ambient.b2, post.ambient.b2))
        post, hyp_post = pre, hyp_pre
    return areas, steps[::-1], post


def _steps(traces):
    """(hyp_before, hyp_after, b2_before, b2_after) of every replayed step."""
    return [(ts.hyp_before, ts.hyp_after, ts.b2_before, ts.b2_after)
            for tr in traces for ts in tr.steps]


def test_one_pass_replay_equals_the_per_step_replay(documents, monkeypatch):
    adjoint_area_of, matches = reduction.adjoint_area_of, moves.MoveState.matches
    areas, ended = [], []

    def spy_adjoint(ambient, vecs, w):
        areas.append(adjoint_area_of(ambient, vecs, w))
        return areas[-1]

    def spy_matches(state, cfg):
        # the end of the replay is compared with the input, not validated
        ended.append(state.config())
        return matches(state, cfg)

    monkeypatch.setattr(reduction, "adjoint_area_of", spy_adjoint)
    monkeypatch.setattr(moves.MoveState, "matches", spy_matches)
    replayed = steps = 0
    for doc in documents:
        if doc["route"] != "rational":
            continue
        config, w = parse_config(doc["input"])
        areas.clear()
        ended.clear()
        out = []
        traces = checker._replay_traces(doc, config, w, out)[0]
        assert all_passed(out), doc["input"]
        ref_areas, ref_steps, ref_end = _reference(doc)
        assert areas == ref_areas
        assert _steps(traces) == ref_steps
        assert ended == [ref_end] == [config]
        replayed += 1
        steps += len(ref_steps)
    # 8 of the 11 fixture certificates, 75 of the 100 certify-mixed and all
    # 16 certify-wide ones take the rational route: 30, 447 and 144 steps
    assert (replayed, steps) == (99, 621)


def test_certify_and_check_replay_once_and_alike(documents, monkeypatch):
    # while check replayed a document by its own pass, it called verify_trace
    # not at all, and certify's replay restarted after a failed step
    calls = {"verify_trace": 0, "blowup_states": 0}
    for fn in (verify_trace, blowup_states):
        def spy(*args, _fn=fn):
            calls[_fn.__name__] += 1
            return _fn(*args)
        rebind(monkeypatch, fn, spy)
    certified = 0
    for doc in documents:
        config, w = parse_config(doc["input"])
        expected = dict.fromkeys(calls, int(doc["route"] == "rational"))
        calls.update(dict.fromkeys(calls, 0))
        produced = certify_affine_ruled(config, w, doc_bounds(doc)).traces
        assert calls == expected
        calls.update(dict.fromkeys(calls, 0))
        assert all_passed(checker.check_certificate(doc))
        assert calls == expected
        certified += 1
        if doc["route"] == "rational":
            checked = checker._replay_traces(doc, config, w, [])[0]
            assert _steps(produced) == _steps(checked), doc["input"]
    assert certified == 11 + 100 + 16


# -- forgeries the replay must refuse ----------------------------------------------


def _sphere_on_a_kept_component(doc):
    # while every step's configuration was validated, this was refused as
    # a self-edge on the component
    st = next(st for tr in doc["traces"] for st in tr["steps"] if st["move"]["type"] == "toric")
    st["move"]["sphere"] = st["move"]["a"]
    return f"component id {st['move']['a']!r} already in use"


def _toric_on_an_absent_edge(doc):
    # the first toric step going up blows up the edge P2-P3 of the terminal
    move = doc["traces"][-1]["steps"][1]["move"]
    assert (move["type"], move["a"], move["b"]) == ("toric", "P2", "P3")
    move["a"] = "P1"
    return "no edge between 'P1' and 'P3'"


def _half_toric_on_an_unknown_component(doc):
    move = next(st["move"] for tr in doc["traces"] for st in tr["steps"]
                if st["move"]["type"] == "half_toric")
    move["comp"] = "nowhere"
    return "no component 'nowhere'"


@pytest.mark.parametrize("forge", [_sphere_on_a_kept_component, _toric_on_an_absent_edge,
                                   _half_toric_on_an_unknown_component])
def test_check_refuses_a_forged_replay(forge, tmp_path):
    code, text = _run(["certify", str(FIXTURES / "cp2_13_cusp.json")])
    assert code == 0
    doc = json.loads(text)
    detail = forge(doc)
    path = tmp_path / "forged.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, text = _run(["check", str(path)])
    assert code == 1
    assert text.splitlines() == [f"failed: replay: MoveError: {detail}", "certificate rejected"]
