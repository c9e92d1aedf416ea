from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import (
    FIXTURES,
    decreasing_areas,
    cp2_13_cusp,
    first_kind_cp2_8,
    ruled_comb,
    second_kind_cp2_4,
)
from sympdiv import reduction
from sympdiv.checks import all_passed
from sympdiv.cli import main
from sympdiv.cusp import CertifyError, certify_affine_ruled
from sympdiv.divisor import DivisorConfig, DivisorError, adjoint_area, total_class, validate
from sympdiv.documents import parse_config
from sympdiv.exceptional import NormalizeError, enumerate_exceptional, minimal_area
from sympdiv.lattice import AmbientLattice, AreaVector, area, canonical
from sympdiv.moves import MoveError, blowdown
from sympdiv.reduction import (
    ClassifyError,
    ReductionError,
    classify_kind,
    classify_minimal_model,
    comb_shape_problems,
    good_chain_candidates,
    partially_minimal_reduce,
    quasi_minimal_reduce,
    second_kind_reduce,
    verify_trace,
)


def test_quasi_minimal_reduce_cp2_13_trace():
    cfg, w = cp2_13_cusp()
    term, wt, tr = quasi_minimal_reduce(cfg, w)
    assert tr.terminal == "QuasiMinimalFirstKind"
    assert [(s.kind, str(s.target)) for s in tr.steps] == [
        ("exterior", "E13"),
        ("toric", "E12"),
        ("half_toric", "E11"),
        ("half_toric", "E10"),
        ("half_toric", "E9"),
        ("non_toric", "E8"),
    ]
    traces, checks = verify_trace([tr], term, cfg, w)
    assert all_passed(checks)
    assert all(s.hyp_before and s.hyp_after for s in traces[0].steps)
    assert total_class(term) == term.ambient.cls(
        H=3, E1=-1, E2=-1, E3=-1, E4=-1, E5=-1, E6=-1, E7=-2
    )


def test_quasi_minimal_noop_when_already_quasi_minimal():
    cfg, w = first_kind_cp2_8()
    term, wt, tr = quasi_minimal_reduce(cfg, w)
    assert tr.steps == ()
    assert tr.terminal == "QuasiMinimalFirstKind"


def test_quasi_minimal_small_b2():
    pp = AmbientLattice.projective_plane()
    cfg = DivisorConfig.build(pp, [("A", pp.cls(H=1)), ("B", pp.cls(H=1))], [("A", "B")])
    w = AreaVector.from_values(pp, [1])
    term, wt, tr = quasi_minimal_reduce(cfg, w)
    assert tr.terminal == "SmallB2" and tr.steps == ()


def test_classify_kind():
    cfg, w = first_kind_cp2_8()
    info = classify_kind(cfg, enumerate_exceptional(cfg.ambient, w), total_class(cfg).coeffs)
    assert info.kind == "first"
    assert info.e_min == cfg.ambient.cls(E8=1)
    assert info.e_min == -(total_class(cfg) + canonical(cfg.ambient))

    cfg2, w2 = second_kind_cp2_4()
    info2 = classify_kind(cfg2, enumerate_exceptional(cfg2.ambient, w2), total_class(cfg2).coeffs)
    assert info2.kind == "second" and info2.carrier == "D0"


def test_classify_kind_negative_control():
    # -[D]-K not exceptional: two lines in CP2#1
    rb = AmbientLattice.rational_blowup(1)
    cfg = DivisorConfig.build(rb, [("A", rb.cls(H=1)), ("B", rb.cls(H=1))], [("A", "B")])
    w = decreasing_areas(rb)
    with pytest.raises(ClassifyError):
        classify_kind(cfg, enumerate_exceptional(rb, w), total_class(cfg).coeffs)


def test_partially_minimal_cp2_13():
    cfg, w = cp2_13_cusp()
    t1, w1, tr1 = quasi_minimal_reduce(cfg, w)
    t2, w2, tr2 = partially_minimal_reduce(t1, w1, tr1.classification)
    assert [(s.kind, str(s.target)) for s in tr2.steps] == [
        ("toric", "E6"),
        ("toric", "E5"),
        ("non_toric", "E4"),
    ]
    assert tr2.terminal == "QuasiMinimalFirstKind"
    got = {c.id: str(c.cls) for c in t2.components}
    assert got == {
        "P1": "E3-E7",
        "P2": "E2-E3",
        "P3": "2H-E1-E2",
        "P4": "H-E1",
        "P5": "E1-E2-E3-E7",
    }
    assert all_passed(verify_trace([tr2], t2, t1, w1)[1])


def test_partially_minimal_first_kind_example_terminal():
    cfg, w = first_kind_cp2_8()
    info = classify_kind(cfg, enumerate_exceptional(cfg.ambient, w), total_class(cfg).coeffs)
    term, wt, tr = partially_minimal_reduce(cfg, w, info)
    assert tr.terminal == "SmallB2"
    assert term.ambient.describe() == "CP2#1"
    got = sorted(str(c.cls) for c in term.components)
    assert got == ["2H-E8", "H-E8"]
    assert all(s.hyp_after for s in verify_trace([tr], term, cfg, w)[0][0].steps)


def test_good_chain_cp2_13():
    cfg, w = cp2_13_cusp()
    t1, w1, tr1 = quasi_minimal_reduce(cfg, w)
    t2, _, _ = partially_minimal_reduce(t1, w1, tr1.classification)
    gc = good_chain_candidates(t2)[0]
    assert gc.ids == ("P1", "P2", "P3", "P4", "P5")
    assert gc.k == 3 and gc.bullet == 1
    assert gc.squares == (-2, -2, 2, 0, -4)


def test_good_chain_second_bullet():
    rb = AmbientLattice.rational_blowup(2)
    # chain (-1, 0, ...) squares
    cfg = DivisorConfig.build(
        rb,
        [("A", rb.cls(E1=1)), ("B", rb.cls(H=1, E1=-1)), ("C", rb.cls(H=1, E2=-1))],
        [("A", "B"), ("B", "C")],
    )
    gc = good_chain_candidates(cfg)[0]
    assert (gc.k, gc.bullet) == (2, 2)
    assert gc.squares[:2] == (-1, 0)


def test_second_kind_reduce():
    cfg, w = second_kind_cp2_4()
    t1, w1, tr1 = quasi_minimal_reduce(cfg, w)
    assert tr1.terminal == "QuasiMinimalSecondKind"
    t2, w2, tr2 = second_kind_reduce(t1, w1, tr1.classification)
    assert t2.ambient.b2 <= 2
    assert all(s.kind == "non_toric" for s in tr2.steps)
    assert all_passed(verify_trace([tr2], t2, t1, w1)[1])
    tag = classify_minimal_model(t2)
    assert tag is not None and tag.case == "C1p"


def test_second_kind_already_small():
    cfg, w = second_kind_cp2_4()
    t1, w1, tr1 = quasi_minimal_reduce(cfg, w)
    t2, w2, _ = second_kind_reduce(t1, w1, tr1.classification)
    t3, w3, tr = second_kind_reduce(t2, w2, tr1.classification)
    assert tr.steps == () and t3 == t2


# -- minimal model classification ---------------------------------------------------


def _pp_cfg(classes, edges):
    pp = AmbientLattice.projective_plane()
    return DivisorConfig.build(
        pp, [(f"D{i+1}", pp.cls(H=c)) for i, c in enumerate(classes)], edges
    )


def _ps_cfg(classes, edges):
    ps = AmbientLattice.product_of_spheres()
    return DivisorConfig.build(
        ps,
        [(f"D{i+1}", ps.cls(f1=a, f2=b)) for i, (a, b) in enumerate(classes)],
        edges,
    )


def _c1_cfg(classes, edges):
    # classes in (f, s) coordinates over CP2#1: f = H - E1, s = H
    rb = AmbientLattice.rational_blowup(1)
    f = rb.cls(H=1, E1=-1)
    s = rb.cls(H=1)
    return DivisorConfig.build(
        rb,
        [(f"D{i+1}", a * f + b * s) for i, (a, b) in enumerate(classes)],
        edges,
    )


ALL_17 = [
    ("A1", lambda: _pp_cfg([1, 2], [("D1", "D2"), ("D1", "D2")]), {}),
    ("A2", lambda: _pp_cfg([1, 1, 1], [("D1", "D2"), ("D2", "D3"), ("D1", "D3")]), {}),
    ("B1", lambda: _ps_cfg([(2, 1), (0, 1)], [("D1", "D2"), ("D1", "D2")]), {"k": 2}),
    (
        "B2",
        lambda: _ps_cfg(
            [(1, 1), (1, 0), (0, 1)], [("D1", "D2"), ("D2", "D3"), ("D1", "D3")]
        ),
        {"k": 1},
    ),
    (
        "B3",
        lambda: _ps_cfg(
            [(1, 1), (1, 0), (-1, 1), (1, 0)],
            [("D1", "D2"), ("D2", "D3"), ("D3", "D4"), ("D1", "D4")],
        ),
        {"k": 1},
    ),
    ("C1", lambda: _c1_cfg([(1, 1), (0, 1)], [("D1", "D2"), ("D1", "D2")]), {"k": 1}),
    (
        "C2",
        lambda: _c1_cfg(
            [(1, 1), (1, 0), (-1, 1)], [("D1", "D2"), ("D2", "D3"), ("D1", "D3")]
        ),
        {"k": 1},
    ),
    (
        "C3",
        lambda: _c1_cfg(
            [(1, 1), (1, 0), (-2, 1), (1, 0)],
            [("D1", "D2"), ("D2", "D3"), ("D3", "D4"), ("D1", "D4")],
        ),
        {"k": 1},
    ),
    ("A1p", lambda: _pp_cfg([1], []), {}),
    ("A2p", lambda: _pp_cfg([1, 1], [("D1", "D2")]), {}),
    ("A3p", lambda: _pp_cfg([2], []), {}),
    (
        "B1p",
        lambda: _ps_cfg([(1, 1), (0, 1), (0, 1)], [("D1", "D2"), ("D1", "D3")]),
        {"k": 1, "n": 3},
    ),
    (
        "B2p",
        lambda: _ps_cfg([(1, 1), (0, 1), (1, -1)], [("D1", "D2"), ("D2", "D3")]),
        {"k": 1},
    ),
    ("B3p", lambda: _ps_cfg([(1, 2), (1, -1)], [("D1", "D2")]), {"k": 1}),
    (
        "C1p",
        lambda: _c1_cfg([(1, 1), (1, 0), (1, 0)], [("D1", "D2"), ("D1", "D3")]),
        {"k": 1, "n": 3},
    ),
    (
        "C2p",
        lambda: _c1_cfg([(1, 1), (1, 0), (-2, 1)], [("D1", "D2"), ("D2", "D3")]),
        {"k": 1},
    ),
    ("C3p", lambda: _c1_cfg([(1, 1), (-1, 1)], [("D1", "D2")]), {"k": 1}),
]


def test_all_seventeen_cases_classify():
    for case, make, params in ALL_17:
        cfg = make()
        tag = classify_minimal_model(cfg)
        assert tag is not None, case
        assert tag.case == case, (case, tag)
        for key, val in params.items():
            assert tag.params.get(key) == val, (case, tag.params)


def _ruled_bad():
    rt = AmbientLattice.ruled_trivial(1, 1)
    return DivisorConfig.build(rt, [("X", rt.cls(B=1, F=1, E1=1))], [])


def _twisted_bad():
    tw = AmbientLattice.ruled_twisted(2)
    return DivisorConfig.build(tw, [("X", tw.cls(B1=2))], [])


NEAR_MISSES = [
    lambda: _pp_cfg([1, 3], [("D1", "D2")] * 3),
    lambda: _pp_cfg([2, 2], [("D1", "D2")] * 4),
    lambda: _pp_cfg([3], []),
    lambda: _pp_cfg([1, 1, 1, 1], [(f"D{i}", f"D{j}") for i in range(1, 5) for j in range(i + 1, 5)]),
    lambda: _pp_cfg([2, 2, 2], [("D1", "D2")] * 4 + [("D2", "D3")] * 4 + [("D1", "D3")] * 4),
    lambda: _pp_cfg([1, 1, 2], [("D1", "D2"), ("D1", "D3"), ("D1", "D3"), ("D2", "D3"), ("D2", "D3")]),
    lambda: _ps_cfg([(2, 1), (1, 1)], [("D1", "D2")] * 3),
    lambda: _ps_cfg([(1, 2), (2, 1)], [("D1", "D2")] * 5),
    lambda: _ps_cfg([(1, 1), (1, 0), (0, 1), (1, 0)], [("D1", "D2"), ("D1", "D3"), ("D2", "D3"), ("D1", "D4"), ("D3", "D4")]),
    lambda: _ps_cfg([(2, 1), (0, 1), (0, 1)], [("D1", "D2")] * 2 + [("D1", "D3")] * 2),
    lambda: _ps_cfg([(1, 2), (1, 1)], [("D1", "D2")] * 3),
    lambda: _ps_cfg([(2, 2)], []),
    lambda: _c1_cfg([(1, 1), (1, 1)], [("D1", "D2")] * 3),
    lambda: _c1_cfg([(0, 2), (0, 1)], [("D1", "D2")] * 2),
    lambda: _c1_cfg([(1, 2), (1, 0)], [("D1", "D2")] * 2),
    lambda: _c1_cfg([(3, 1), (-1, 1)], [("D1", "D2")] * 3),
    lambda: _c1_cfg([(2, 1), (0, 1)], [("D1", "D2")] * 3),
    lambda: _c1_cfg([(2, 2), (1, 0)], [("D1", "D2")] * 2),
    _ruled_bad,
    _twisted_bad,
]


def test_near_misses_classify_as_none():
    checked = 0
    for make in NEAR_MISSES:
        cfg = make()
        assert validate(cfg) == [], validate(cfg)
        tag = classify_minimal_model(cfg)
        assert tag is None, ([str(c.cls) for c in cfg.components], tag)
        checked += 1
    assert checked >= 20


# -- ruled: validate, then the comb route's shape rules --------------------------


def ruled_problems(cfg):
    return validate(cfg) or comb_shape_problems(cfg)


def test_ruled_validate_comb():
    cfg, w = ruled_comb()
    assert ruled_problems(cfg) == []


def test_ruled_validate_two_sections():
    rt = AmbientLattice.ruled_trivial(1, 0)
    cfg = DivisorConfig.build(
        rt, [("S1", rt.cls(B=1)), ("S2", rt.cls(B=1, F=-0))], []
    )
    problems = ruled_problems(cfg)
    assert any("at most one" in p for p in problems)


def test_ruled_validate_single_fiber():
    rt = AmbientLattice.ruled_trivial(1, 0)
    cfg = DivisorConfig.build(rt, [("X", rt.cls(F=1))], [])
    assert ruled_problems(cfg) == []


def test_ruled_validate_bad_shape():
    rt = AmbientLattice.ruled_trivial(1, 1)
    # a sphere class whose section coefficient is 1 but with a +1 on E1
    cfg = DivisorConfig.build(rt, [("X", rt.cls(B=1, F=1, E1=1))], [])
    problems = ruled_problems(cfg)
    assert any("shape" in p or "genus" in p for p in problems)


# -- candidate order against the trial-blowdown loops it replaced -------------------

_RANK = {"toric": 0, "half_toric": 1, "non_toric": 2, "exterior": 3}
_MOVE_ERRORS = (MoveError, NormalizeError, DivisorError)


def _trial_second_kind(config, w):
    """Reference second-kind loop: blow down every enumerated class and
    contract the least (area, pattern rank, coefficients) among those that
    blow down.  Returns the (class, kind) steps and the terminal."""
    steps = []
    cur, curw = config, w
    while cur.ambient.b2 > 2:
        amb = cur.ambient
        bound = 4 * max(area(amb.basis_class(amb.names[i]), curw) for i in amb.exc_indices)
        ranked = []
        for e in enumerate_exceptional(amb, curw, area_bound=bound).classes:
            try:
                bd = blowdown(cur, e, curw)
            except _MOVE_ERRORS:
                continue
            ranked.append((area(e, curw), _RANK[bd.kind], e.coeffs, bd))
        bd = min(ranked, key=lambda t: t[:3])[-1]
        steps.append((bd.target, bd.kind))
        cur, curw = bd.config, bd.new_area
    return steps, "SmallB2"


def _trace_steps(trace):
    return [(s.target, s.kind) for s in trace.steps], trace.terminal


def _trident_fixture():
    return parse_config(json.loads((FIXTURES / "trident_cp2_4.json").read_text()))


def _trident_rank_tie():
    # at the last step a half-toric and a non-toric class tie in area, so
    # the pattern rank decides which one is contracted
    cfg, _ = second_kind_cp2_4()
    areas = [1, Fraction(1, 10), Fraction(1, 8), Fraction(5, 11), Fraction(1, 11)]
    return cfg, AreaVector.from_values(cfg.ambient, areas)


@pytest.mark.parametrize("make", [second_kind_cp2_4, _trident_fixture, _trident_rank_tie])
def test_second_kind_order_matches_trial_blowdowns(make):
    cfg, w = make()
    t1, w1, tr1 = quasi_minimal_reduce(cfg, w)
    assert tr1.terminal == "QuasiMinimalSecondKind"
    _, _, tr = second_kind_reduce(t1, w1, tr1.classification)
    assert tr.steps and _trace_steps(tr) == _trial_second_kind(t1, w1)


def test_certify_trident_blows_down_once_per_step(monkeypatch, capsys):
    # the second-kind ranking reads incidence patterns; the only blowdowns
    # are the three that the trace records
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[1])
        return blowdown(*args, **kwargs)

    monkeypatch.setattr(reduction, "blowdown", counted)
    assert main(["certify", str(FIXTURES / "trident_cp2_4.json")]) == 0
    assert "second_kind" in capsys.readouterr().out
    assert len(calls) == 3


@pytest.mark.parametrize("fixture,stage", [
    ("cp2_13_cusp.json", "partially_minimal"),
    ("trident_cp2_4.json", "second_kind"),
])
def test_certify_enumerates_each_pair_once(fixture, stage, monkeypatch, capsys):
    # the stage after quasi-minimality starts from the classification the
    # quasi-minimal trace carries instead of enumerating its input again
    seen = []

    def counted(*args, **kwargs):
        es = enumerate_exceptional(*args, **kwargs)
        seen.append((es.ambient, es.w.areas, es.area_bound))
        return es

    monkeypatch.setattr(reduction, "enumerate_exceptional", counted)
    assert main(["certify", str(FIXTURES / fixture)]) == 0
    assert stage in capsys.readouterr().out
    assert seen and len(set(seen)) == len(seen)


def test_stages_refuse_the_wrong_kind():
    cfg, w = cp2_13_cusp()
    t1, w1, tr1 = quasi_minimal_reduce(cfg, w)
    assert tr1.classification.kind == "first"
    with pytest.raises(ReductionError, match="expects a second-kind pair"):
        second_kind_reduce(t1, w1, tr1.classification)
    cfg, w = second_kind_cp2_4()
    t1, w1, tr1 = quasi_minimal_reduce(cfg, w)
    assert tr1.classification.kind == "second"
    with pytest.raises(ReductionError, match="expects a first-kind pair"):
        partially_minimal_reduce(t1, w1, tr1.classification)


# -- one class per step -------------------------------------------------------------

DATA = Path(__file__).parent / "data"


def _data(name):
    return parse_config(json.loads((DATA / name).read_text()))


def test_the_lone_component_class_gives_way_to_a_tied_class():
    # D is the lone exceptional sphere E2, tied in area with E1 and listed
    # first.  Its blowdown would leave no divisor, so the quasi-minimal
    # stage contracts E1 instead, as the candidate loop it replaced did
    # after E2 failed.
    cfg, w = _data("lone_exceptional_tie_cp2_2.json")
    e1, e2 = cfg.ambient.cls(E1=1), cfg.ambient.cls(E2=1)
    assert minimal_area(enumerate_exceptional(cfg.ambient, w)) == [e2, e1]
    _, _, tr = quasi_minimal_reduce(cfg, w)
    assert [(s.target, s.kind, s.removed_component) for s in tr.steps] == [
        (e1, "exterior", None)]
    assert certify_affine_ruled(cfg, w).route_tag == "minimal-model:C1p"


def test_a_lone_component_of_least_area_leaves_the_stage_no_class():
    cfg, _ = _data("lone_exceptional_tie_cp2_2.json")
    w = AreaVector.from_values(cfg.ambient, [1, Fraction(1, 3), Fraction(1, 4)])
    with pytest.raises(ReductionError, match="^quasi_minimal reduction on CP2#2: no class to "
                                             "contract$"):
        quasi_minimal_reduce(cfg, w)


def test_a_class_that_does_not_blow_down_fails_certify_naming_stage_and_class(
        monkeypatch, capsys):
    tried = []

    def refuse_once(cfg, e, w=None):
        tried.append(e)
        if len(tried) == 1:
            raise MoveError("refused by the test")
        return blowdown(cfg, e, w)

    monkeypatch.setattr(reduction, "blowdown", refuse_once)
    assert main(["certify", str(FIXTURES / "cp2_13_cusp.json")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("certification failed at stage 'quasi_minimal': ")
    assert (f"quasi_minimal reduction on CP2#13: {tried[0]} does not blow down: "
            "refused by the test") in err
    assert "Traceback" not in err and len(tried) == 1


def test_the_area_tie_input_is_valid_and_certifies_off_the_tie():
    cfg, w = _data("area_tie_cp2_3.json")
    assert not validate(cfg, w) and adjoint_area(cfg, w) == Fraction(-1, 8)
    for e1 in (Fraction(127, 256), Fraction(129, 256)):
        certify_affine_ruled(cfg, AreaVector(cfg.ambient, (w.areas[0], e1, *w.areas[2:])))


@pytest.mark.xfail(strict=True, raises=CertifyError, reason=(
    "ROADMAP item 7: once E3 is contracted, E2 and H-E1-E2 tie at the least area "
    "1/4, and classify_kind refuses -[D]-K = H-E1-E2 as not the unique "
    "minimal-area class, although the pair is valid with negative adjoint area"))
def test_an_area_tie_at_quasi_minimality_certifies():
    certify_affine_ruled(*_data("area_tie_cp2_3.json"))


# -- the S2xS2 reading order, end to end -------------------------------------------


@pytest.mark.parametrize("name, model", [
    ("s2s2_tie_b1p_b3p.json", "B1p {'k': 1, 'n': 2}"),
    ("s2s2_tie_b1p_b2p.json", "B1p {'k': 0, 'n': 3}"),
])
def test_an_s2s2_tie_is_read_with_fiber_f2_first(name, model, tmp_path, capsys):
    # each terminal matches a "p" case in both readings of S2xS2; the
    # reading with fiber f2 decides the case the certificate records
    assert main(["certify", str(DATA / name)]) == 0
    cert = tmp_path / "cert.json"
    cert.write_text(capsys.readouterr().out, encoding="utf-8")
    assert f"terminal minimal model: {model}" in json.loads(cert.read_text())["assumptions"]
    assert main(["check", str(cert)]) == 0
