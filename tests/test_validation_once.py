"""Every configuration is validated once, in full, where it is made.

blowup and blowdown validate their results, the checker every configuration
its replay makes; reduction.verify_trace validates nothing and compares each
replay with the pre-configuration it must equal.  A configuration builds its
pairing matrix once, so validating the same object again builds none.
"""

from __future__ import annotations

import json
import sys
from dataclasses import replace

import pytest

from conftest import FIXTURES
from sympdiv import checker, divisor, lattice, moves
from sympdiv.checks import all_passed
from sympdiv.cusp import CertifyError, certify_affine_ruled
from sympdiv.documents import DocumentError, canonical_json, certificate_to_doc, parse_config
from sympdiv.moves import ExteriorBlowup, replay_blowdown
from sympdiv.reduction import quasi_minimal_reduce, verify_trace


def rebind(monkeypatch, original, replacement):
    """Replace every binding of `original` in the sympdiv modules (its own
    module's included, so a spy calls the original it closes over)."""
    for m in [m for key, m in sys.modules.items() if key.split(".")[0] == "sympdiv"]:
        for key, value in list(vars(m).items()):
            if value is original:
                monkeypatch.setattr(m, key, replacement)


def _fixture(name):
    return parse_config(json.loads((FIXTURES / name).read_text()))


def _certificates():
    """The certificate of every fixture that certifies."""
    out = []
    for path in sorted(FIXTURES.glob("*.json")):
        try:
            out.append(certify_affine_ruled(*_fixture(path.name)))
        except (DocumentError, CertifyError):
            continue
    return out


def test_certify_and_check_build_one_matrix_per_configuration(monkeypatch):
    # while every validate call built its own matrix and the producer's
    # replays were validated too, certify built 25 and check 17
    config, w = _fixture("cp2_13_cusp.json")
    validate, pairings = divisor.validate, lattice.pairings
    validating, validated, built = [], [], []

    def spy_validate(cfg, *args, **kwargs):
        validated.append(cfg)
        validating.append(cfg)
        try:
            return validate(cfg, *args, **kwargs)
        finally:
            validating.pop()

    def spy_pairings(*args, **kwargs):
        built.append(validating[-1] if validating else None)
        return pairings(*args, **kwargs)

    rebind(monkeypatch, validate, spy_validate)
    rebind(monkeypatch, pairings, spy_pairings)
    cert = certify_affine_ruled(config, w)
    # the input, 9 blowdown results and 5 resolution blowups; the input is
    # validated twice, by certify and by the reduction's entry
    assert (len(built), len(validated)) == (15, 16)
    assert None not in built
    assert len({id(c) for c in built}) == len(built)  # `built` keeps each alive
    doc = json.loads(canonical_json(certificate_to_doc(cert)))
    built.clear()
    validated.clear()
    assert all_passed(checker.check_certificate(doc))
    # the input, the terminal, 9 replays and 5 resolution blowups; on the
    # admissible-subchain route the terminal is not classified, so none is
    # validated twice
    assert (len(built), len(validated)) == (16, 16)
    assert None not in built
    assert len({id(c) for c in built}) == len(built)


def _tamper_move(bd):
    return replace(bd, move=ExteriorBlowup())


def _tamper_sphere_onto_a_component(bd):
    # the replayed sphere takes the id of a component that keeps its edges:
    # the replay is no valid configuration
    other = next(c.id for c in bd.config.components if bd.config.neighbors(c.id))
    return replace(bd, removed_component=other)


@pytest.mark.parametrize("tamper", [_tamper_move, _tamper_sphere_onto_a_component])
def test_verify_trace_reports_a_tampered_step_without_raising(tamper):
    config, w = _fixture("cp2_13_cusp.json")
    _, _, trace = quasi_minimal_reduce(config, w)
    i = next(i for i, ts in enumerate(trace.steps) if ts.kind == "toric")
    ts = trace.steps[i]
    bad = replace(ts, blowdown=tamper(ts.blowdown))
    if tamper is _tamper_sphere_onto_a_component:
        assert divisor.validate(replay_blowdown(bad.blowdown))
    steps = trace.steps[:i] + (bad,) + trace.steps[i + 1:]
    checks = verify_trace(replace(trace, steps=steps), config)
    assert [c.name for c in checks if not c.passed] == [f"quasi_minimal[{i}] replay"]


def test_check_validates_every_configuration_its_replay_makes(monkeypatch):
    config, w = _fixture("cp2_13_cusp.json")
    doc = json.loads(canonical_json(certificate_to_doc(certify_affine_ruled(config, w))))
    validate = divisor.validate
    replayed, validated = [], []

    def spy_replay(step):
        replayed.append(replay_blowdown(step))
        return replayed[-1]

    def spy_validate(cfg, *args, **kwargs):
        validated.append(cfg)
        return validate(cfg, *args, **kwargs)

    rebind(monkeypatch, replay_blowdown, spy_replay)
    rebind(monkeypatch, validate, spy_validate)
    assert all_passed(checker.check_certificate(doc))
    assert len(replayed) == 9
    assert all(any(v is r for v in validated) for r in replayed)


def test_blowdown_carries_every_genus_without_adjunction(monkeypatch):
    blowdown, adjunction_genus = moves.blowdown, lattice.adjunction_genus
    in_blowdown, adjunctions = [], []

    def spy_blowdown(*args, **kwargs):
        in_blowdown.append(True)
        try:
            return blowdown(*args, **kwargs)
        finally:
            in_blowdown.pop()

    def spy_adjunction(cls):
        adjunctions.append(bool(in_blowdown))
        return adjunction_genus(cls)

    rebind(monkeypatch, blowdown, spy_blowdown)
    rebind(monkeypatch, adjunction_genus, spy_adjunction)
    certificates = _certificates()
    assert len(certificates) == 11
    steps = [ts for cert in certificates for tr in cert.traces for ts in tr.steps]
    assert len(steps) > 20
    for ts in steps:
        pre, post = ts.blowdown.pre_config, ts.blowdown.config
        assert all(c.genus == pre.component(c.id).genus for c in post.components)
    assert not any(adjunctions)
