"""blowdown, which validates nothing, against the validating blowdown it
replaced.

A blowup's section is an isometry onto the complement of its sphere with
K' = pi*K + e, so the blowdown of a valid configuration is valid exactly when
its blowup, the input, is; only an empty result is refused outright.  The
oracle below is blowdown as it was, with the class-level incidence test, the
class arithmetic and a `require_valid` of its result.  On every class the
reduction contracts, and every component class and generator of each
configuration it visits, over every fixture and the seed-1 inputs of both
certify workloads, the two accept and refuse the same classes with the same
message, accepted classes give equal steps, and every accepted result
validates.
"""

from __future__ import annotations

import contextlib
import io
import json
import random

import pytest

from conftest import FIXTURES, pairings, perfbench_module
from sympdiv import cli, moves, reduction
from sympdiv.cusp import CertifyError, certify_affine_ruled
from sympdiv.divisor import DivisorConfig, DivisorError, require_valid, validate
from sympdiv.documents import DocumentError, parse_config
from sympdiv.exceptional import NormalizeError
from sympdiv.lattice import (
    AmbientLattice,
    HomologyClass,
    area,
    coeffs_in,
    is_exceptional_class,
    pair,
)
from sympdiv.moves import (
    BlowdownStep,
    ExteriorBlowup,
    HalfToricBlowup,
    MoveError,
    NonToricBlowup,
    ToricBlowup,
    blowdown,
)

def _oracle_pattern(config, e):
    carriers = [c for c in config.components if c.cls == e]
    if len(carriers) > 1:
        raise MoveError("two components share the exceptional class")
    if carriers:
        cid = carriers[0].id
        nbrs = config.neighbors(cid)
        if len(nbrs) == 2:
            if nbrs[0] == nbrs[1]:
                raise MoveError("toric contraction needs edges to two distinct components")
            return "toric", ToricBlowup(nbrs[0], nbrs[1]), cid, nbrs
        if len(nbrs) == 1:
            return "half_toric", HalfToricBlowup(nbrs[0]), cid, nbrs
        if len(nbrs) == 0:
            return "exterior", ExteriorBlowup(add_component=True), cid, []
        raise MoveError(f"component {cid} in class {e} has {len(nbrs)} edges")
    pairs = [(c.id, pair(c.cls, e)) for c in config.components]
    neg = [cid for cid, p in pairs if p < 0]
    if neg:
        raise MoveError(f"class {e} pairs negatively with component {neg[0]}")
    hot = [cid for cid, p in pairs if p > 0]
    total = sum(p for _, p in pairs)
    if total == 0:
        return "exterior", ExteriorBlowup(add_component=False), None, []
    if total == 1 and len(hot) == 1:
        return "non_toric", NonToricBlowup(hot[0]), None, hot
    raise MoveError(f"no blowdown pattern matches class {e}: pairing {total} spread over {hot}")


def validating_blowdown(config, e, w=None) -> BlowdownStep:
    """blowdown as it was: class arithmetic, forward per class, and the
    result validated in full."""
    if not is_exceptional_class(e):
        raise MoveError(f"{e} is not an exceptional class")
    if w is not None and (a := area(e, w)).numerator <= 0:
        raise MoveError(f"{e} has non-positive area {a}")
    kind, move, removed, incident = _oracle_pattern(config, e)
    classes = {c.id: c.cls for c in config.components}
    genus = {c.id: c.genus for c in config.components}
    edges = list(config.edges)
    if removed is not None:
        del classes[removed]
        edges = [edge for edge in edges if removed not in edge]
    for cid in incident:
        classes[cid] = classes[cid] + e
    if kind == "toric":
        edges.append(tuple(sorted((incident[0], incident[1]))))
    for cid, cls in classes.items():
        if pair(cls, e) != 0:
            raise MoveError(f"component {cid} not orthogonal after adjustment")
    con = moves._contraction_for(e)
    post_classes = {cid: HomologyClass(con.post, con.drop(coeffs_in(cls, config.ambient)))
                    for cid, cls in classes.items()}
    if con.slot is None:
        pre, post = list(classes.values()), list(post_classes.values())
        if pairings(post, post) != pairings(pre, pre):
            raise MoveError("basis bridge failed to preserve the form")
    new_area = con.pull_back(w) if w is not None else None
    out = DivisorConfig.build(con.post, [(i, c, genus[i]) for i, c in post_classes.items()], edges)
    return BlowdownStep(config, require_valid(out), kind, move, con, removed, new_area)


def _candidates_tried(monkeypatch, tmp_path):
    """(configuration, class, areas) for the class each step of certify's
    reduction contracts, and every component class and exceptional generator
    of each configuration it visits, over every fixture and the seed-1
    certify workload inputs."""
    reduce, tried = reduction._reduce, {}

    def spy_reduce(stage, config, w, next_step):
        def spy_next(cur, curw, d):
            nxt = next_step(cur, curw, d)
            if not isinstance(nxt, str):
                amb = cur.ambient
                more = [c.cls for c in cur.components]
                more += [amb.basis_class(amb.names[i]) for i in amb.exc_indices]
                for e in [nxt, *more] if nxt is not None else more:
                    tried.setdefault((id(cur), e), (cur, e, curw))
            return nxt
        return reduce(stage, config, w, spy_next)

    monkeypatch.setattr(reduction, "_reduce", spy_reduce)
    for path in sorted(FIXTURES.glob("*.json")):
        try:
            certify_affine_ruled(*parse_config(json.loads(path.read_text())))
        except (DocumentError, CertifyError):
            pass
    workloads = perfbench_module("workloads")
    for make in (workloads.certify_mixed, workloads.certify_wide):
        for op in make(random.Random(1), tmp_path, None):
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main(op.produce_argv) == 0, op.label
    return list(tried.values())


def _outcome(make, args, errors):
    try:
        return make(*args)
    except errors as exc:
        return f"{type(exc).__name__}: {exc}"


def test_blowdown_agrees_with_the_validating_oracle_on_every_candidate(monkeypatch, tmp_path):
    accepted, refused = 0, []
    for args in _candidates_tried(monkeypatch, tmp_path):
        # the reduction turns MoveError and NormalizeError into a
        # ReductionError; the oracle's DivisorError is the refusal
        # require_valid gave
        got = _outcome(blowdown, args, (MoveError, NormalizeError))
        want = _outcome(validating_blowdown, args, (MoveError, NormalizeError, DivisorError))
        if isinstance(want, str):
            assert isinstance(got, str), (args, want)
            assert got.split(": ", 1)[1] == want.split(": ", 1)[1]
            refused.append(want)
        else:
            assert got == want
            assert not validate(got.config)
            accepted += 1
    # 2,274 accepted and 3,827 refused at seed 1, the empty result among them
    assert accepted > 2000 and len(refused) > 3000
    assert "DivisorError: invalid configuration: configuration is empty" in refused


def test_an_empty_result_is_refused_as_the_oracle_refuses_it():
    # the one refusal validity of the input does not imply: contracting the
    # only component, an exterior exceptional sphere
    rb = AmbientLattice.rational_blowup(2)
    cfg = DivisorConfig.build(rb, [("X", rb.cls(E2=1))], [])
    e = rb.basis_class("E2")
    with pytest.raises(DivisorError, match="invalid configuration: configuration is empty"):
        validating_blowdown(cfg, e)
    with pytest.raises(MoveError, match="invalid configuration: configuration is empty"):
        blowdown(cfg, e)
