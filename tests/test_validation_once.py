"""Every configuration is validated once, in full, where validation adds
information.

certify validates its input, and blowup and a resolution validate their
results.  blowdown validates nothing: a blowup's section is an isometry onto
the complement of its sphere, so a blowdown's result is valid exactly when
its blowup is, and reduction.verify_trace compares each step's blowup with
the step's input, on coefficient tuples.  A resolution blows up in one
ambient: it makes one configuration, not one per blowup, and validates it.
The checker's replay of a reduction is one pass that makes none: where it
ends is compared with the validated input.  A configuration builds its
sparse pairings once, so validating the same object again builds none.
"""

from __future__ import annotations

import json
from dataclasses import replace

import pytest

from conftest import FIXTURES, rebind
from sympdiv import checker, divisor, lattice, moves
from sympdiv.checks import all_passed
from sympdiv.cusp import CertifyError, certify_affine_ruled
from sympdiv.divisor import DivisorConfig
from sympdiv.documents import DocumentError, canonical_json, certificate_to_doc, parse_config
from sympdiv.moves import ExteriorBlowup, MoveError, replay_blowdown
from sympdiv.reduction import classify_minimal_model, quasi_minimal_reduce, verify_trace


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
    validate, sparse_gram = divisor.validate, lattice.sparse_gram
    validating, validated, built = [], [], []

    def spy_validate(cfg, *args, **kwargs):
        validated.append(cfg)
        validating.append(cfg)
        try:
            return validate(cfg, *args, **kwargs)
        finally:
            validating.pop()

    def spy_sparse_gram(*args, **kwargs):
        built.append(validating[-1] if validating else None)
        return sparse_gram(*args, **kwargs)

    rebind(monkeypatch, validate, spy_validate)
    rebind(monkeypatch, sparse_gram, spy_sparse_gram)
    cert = certify_affine_ruled(config, w)
    # the input and the resolution; while blowdown validated each of its 9
    # results, (11, 11), while the reduction's entry checked its input again,
    # the input was validated twice, and while each of the 5 resolution
    # blowups made a configuration, the pin was (15, 15)
    assert (len(built), len(validated)) == (2, 2)
    assert None not in built
    assert len({id(c) for c in built}) == len(built)  # `built` keeps each alive
    doc = json.loads(canonical_json(certificate_to_doc(cert)))
    built.clear()
    validated.clear()
    assert all_passed(checker.check_certificate(doc))
    # the input, the terminal and the resolution; on the admissible-subchain
    # route the terminal is not classified, so none is validated twice.  The
    # replay's end is compared with the validated input, not made and
    # validated: while it was, (4, 4); while the replay made and validated a
    # configuration per step, (12, 12), and with a configuration per
    # resolution blowup too, (16, 16)
    assert (len(built), len(validated)) == (3, 3)
    assert None not in built
    assert len({id(c) for c in built}) == len(built)


def test_certify_visits_only_the_pairs_sharing_a_column(monkeypatch):
    # a deterministic count of the kernel's work: of the 100 component pairs
    # of the 2 configurations certify validates, 33 share a generator
    # column, and only those are paired; while blowdown validated its results,
    # 133 of 341 pairs in 11 configurations, and with a configuration per
    # resolution blowup too, 181 of 441 pairs in 15 configurations
    config, w = _fixture("cp2_13_cusp.json")
    validate, validated = divisor.validate, []

    def spy_validate(cfg, *args, **kwargs):
        validated.append(cfg)
        return validate(cfg, *args, **kwargs)

    rebind(monkeypatch, validate, spy_validate)
    certify_affine_ruled(config, w)
    configs = list({id(c): c for c in validated}.values())
    sizes = [len(c.components) for c in configs]
    assert (len(configs), sum(k * (k - 1) // 2 for k in sizes)) == (2, 100)
    assert sum(len(c.gram.off) for c in configs) == 33


def _tamper_move(bd):
    return replace(bd, move=ExteriorBlowup())


def _tamper_sphere_onto_a_component(bd):
    # the replayed sphere takes the id of a component that keeps its edges:
    # the replay refuses it (while it overwrote the component, the replay was
    # no valid configuration)
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
        with pytest.raises(MoveError, match="already in use"):
            replay_blowdown(bad.blowdown)
    steps = trace.steps[:i] + (bad,) + trace.steps[i + 1:]
    checks = verify_trace([replace(trace, steps=steps)], config)
    assert [c.name for c in checks if not c.passed] == [f"quasi_minimal[{i}] replay"]


def test_verify_trace_refuses_a_step_whose_result_is_invalid():
    # blowdown no longer validates its result, so a step whose recorded result
    # is no valid configuration must fail its replay: the last step of the
    # trace, so that no later step starts from it, with one class changed
    config, w = _fixture("cp2_13_cusp.json")
    _, _, trace = quasi_minimal_reduce(config, w)
    i = len(trace.steps) - 1
    ts = trace.steps[i]
    post = ts.blowdown.config
    head = post.ambient.basis_class(post.ambient.names[0])
    forged = DivisorConfig.build(post.ambient, [
        (c.id, c.cls + head if k == 0 else c.cls, c.genus) for k, c in enumerate(post.components)
    ], post.edges)
    assert divisor.validate(forged)
    steps = trace.steps[:i] + (replace(ts, blowdown=replace(ts.blowdown, config=forged)),)
    checks = verify_trace([replace(trace, steps=steps)], config)
    assert [c.name for c in checks if not c.passed] == [f"quasi_minimal[{i}] replay"]


def _near_misses(cfg):
    """cfg and configurations that differ from it in one respect each."""
    amb, comps, edges = cfg.ambient, cfg.components, cfg.edges
    renamed = lattice.AmbientLattice(amb.kind, amb.g, amb.names[:-1] + ("Z",))
    head = amb.basis_class(amb.names[0])

    def rebuilt(change=lambda k, c: (c.id, c.cls, c.genus), keep=edges):
        return DivisorConfig.build(amb, [change(k, c) for k, c in enumerate(comps)], keep)

    return [
        cfg,
        rebuilt(lambda k, c: (c.id, c.cls, c.genus + (k == 0))),
        rebuilt(lambda k, c: (c.id, c.cls + head if k == 0 else c.cls, c.genus)),
        rebuilt(lambda k, c: (c.id, lattice.HomologyClass(renamed, c.cls.coeffs) if k == 0
                              else c.cls, c.genus)),
        rebuilt(keep=edges[1:]),
        rebuilt(keep=edges + edges[:1]),
        DivisorConfig.build(amb, [(c.id, c.cls, c.genus) for c in comps[1:]],
                            [e for e in edges if comps[0].id not in e]),
        replace(cfg, ambient=renamed),
        replace(cfg, components=comps[::-1]),
        replace(cfg, components=comps[:1] + comps[:-1]),
    ]


def test_the_replay_comparison_is_configuration_equality():
    # verify_trace compares each MoveState of its one pass up with the step's
    # input without building the configuration; it must agree with building it
    config, w = _fixture("cp2_13_cusp.json")
    _, _, trace = quasi_minimal_reduce(config, w)
    bds = [ts.blowdown for ts in trace.steps][::-1]
    states = moves.blowup_states(bds[0].config, [(bd.contraction, bd.move,
                                                  bd.removed_component or "replayed") for bd in bds])
    next(states)
    for bd, state in zip(bds, states):
        misses = _near_misses(bd.pre_config)
        assert [state.matches(m) for m in misses] == [state.config() == m for m in misses]
        assert [state.matches(m) for m in misses] == [True] + [False] * (len(misses) - 1)


def test_certify_builds_a_pinned_number_of_classes_and_configurations(monkeypatch):
    # a deterministic count of the producer's work on cp2_13: while blowdown
    # built a class per incident adjustment and per forward, validated its
    # result, and verify_trace built a configuration per replay, (231, 19);
    # while the partially minimal stage summed [D] for classify_kind and
    # again for its candidates, (146, 10); while it built every exceptional
    # generator to scan for non-toric candidates, (142, 10); while each of the
    # 5 resolution blowups built a contraction and its sphere's class, (132, 10);
    # while the two combination checks summed classes to compare, (127, 10);
    # while the reduction summed [D] from every component at every step and
    # classify_kind built [D] + K and its negative, (122, 10)
    config, w = _fixture("cp2_13_cusp.json")
    built = {"classes": 0, "configurations": 0}
    post_init, init = lattice.HomologyClass.__post_init__, DivisorConfig.__init__

    def count_class(self):
        built["classes"] += 1
        post_init(self)

    def count_config(self, *args, **kwargs):
        built["configurations"] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(lattice.HomologyClass, "__post_init__", count_class)
    monkeypatch.setattr(DivisorConfig, "__init__", count_config)
    certify_affine_ruled(config, w)
    assert built == {"classes": 109, "configurations": 10}


def test_the_reduction_sums_k_plus_d_once_per_stage(monkeypatch):
    # certify's reduction of cp2_13 runs two stages and 9 blowdowns: each stage
    # sums [D] and area(K + [D]) at its start and carries both through each
    # blowdown, and certify's hypothesis check is the third adjoint-area sum.
    # While every step re-summed both, 12 adjoint_area sums, 11 total_class
    # sums and 11 check_hypothesis calls
    config, w = _fixture("cp2_13_cusp.json")
    calls = dict.fromkeys(["adjoint_area", "total_class", "check_hypothesis"], 0)
    for name in calls:
        def spy(*args, _name=name, _original=getattr(divisor, name)):
            calls[_name] += 1
            return _original(*args)
        rebind(monkeypatch, getattr(divisor, name), spy)
    cert = certify_affine_ruled(config, w)
    assert sum(len(tr.steps) for tr in cert.traces) == 9
    assert calls == {"adjoint_area": 3, "total_class": 2, "check_hypothesis": 0}


def test_check_makes_no_configuration_for_its_replay(monkeypatch):
    # while the checker replayed one step at a time, it made and validated
    # one configuration per step, 9 here; while its one pass made and
    # validated the configuration it ends in, 1
    config, w = _fixture("cp2_13_cusp.json")
    doc = json.loads(canonical_json(certificate_to_doc(certify_affine_ruled(config, w))))
    validate, config_of = divisor.validate, moves.MoveState.config
    made, validated = [], []

    def spy_config(state):
        made.append(config_of(state))
        return made[-1]

    def spy_validate(cfg, *args, **kwargs):
        validated.append(cfg)
        return validate(cfg, *args, **kwargs)

    def no_step_replay(step):
        raise AssertionError("check replayed a single step")

    monkeypatch.setattr(moves.MoveState, "config", spy_config)
    rebind(monkeypatch, replay_blowdown, no_step_replay)
    rebind(monkeypatch, validate, spy_validate)
    assert all_passed(checker.check_certificate(doc))
    # the resolution's alone (FreshBlowups.blow_up builds it by MoveState.config):
    # the replay's end is compared with the input
    assert len(made) == 1
    assert made[0] == parse_config(doc["resolution"]["total_transform"])[0]
    assert all(any(v is m for v in validated) for m in made)


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


@pytest.mark.parametrize("name", ["ruled_comb_genus2.json", "ruled_comb_sectionless.json",
                                  "ruled_comb_twisted.json"])
def test_a_ruled_configuration_is_validated_once(name, monkeypatch):
    # certify and check each validated a ruled comb twice while the comb
    # shape rules validated it again
    config, w = _fixture(name)
    validate = divisor.validate
    validated = []

    def spy_validate(cfg, *args, **kwargs):
        validated.append(cfg)
        return validate(cfg, *args, **kwargs)

    rebind(monkeypatch, validate, spy_validate)
    cert = certify_affine_ruled(config, w)
    assert validated == [config]
    doc = json.loads(canonical_json(certificate_to_doc(cert)))
    validated.clear()
    assert all_passed(checker.check_certificate(doc))
    assert validated == [config]


# fixture -> (classify_minimal_model calls in certify, in check) on the b2 <= 2
# route, each call validating: build_certificate classifies once for the route
# and the assumptions together.  While those two each classified the terminal,
# the pins were (2, 2), (2, 2), (3, 2), (3, 2); while certify's small-b2 stage
# also called it as it looped, they were (1, 1), (1, 1), (2, 1), (2, 1) (the
# stage now reads the table without validating its blowdown results)
SMALL_B2_CLASSIFICATIONS = {
    "cp2_conic.json": (1, 1),
    "cp2_line.json": (1, 1),
    "product_spheres_chain.json": (1, 1),
    "trident_cp2_4.json": (1, 1),
}


@pytest.mark.parametrize("name", sorted(SMALL_B2_CLASSIFICATIONS))
def test_a_small_b2_terminal_is_classified_once_by_build_certificate(name, monkeypatch):
    config, w = _fixture(name)
    calls = []

    def spy_classify(cfg):
        calls.append(cfg)
        return classify_minimal_model(cfg)

    rebind(monkeypatch, classify_minimal_model, spy_classify)
    cert = certify_affine_ruled(config, w)
    certified = len(calls)
    doc = json.loads(canonical_json(certificate_to_doc(cert)))
    calls.clear()
    assert all_passed(checker.check_certificate(doc))
    assert (certified, len(calls)) == SMALL_B2_CLASSIFICATIONS[name]
