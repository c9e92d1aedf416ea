"""Acceptance suite: one test per criterion, each printing a PASS line with
its runtime against the stated budget.  Run with `pytest -s tests/test_acceptance.py`
to see the per-criterion report."""

from __future__ import annotations

import math
import random
import time
from fractions import Fraction

import pytest

from conftest import (
    decreasing_areas,
    cp2_13_cusp,
    random_blowup_config,
    random_move,
    sample_admissible,
    synthetic_chain,
)
from sympdiv.checks import all_passed, failures
from sympdiv.cusp import (
    admissible_check,
    certify_affine_ruled,
    cusp_class,
    positive_combination,
    resolve_pattern,
    weight_sequence,
)
from sympdiv.divisor import (
    DivisorConfig,
    adjoint_area,
    connected_components,
    first_betti,
    smooth_all,
    total_genus_parts,
    validate,
)
from sympdiv.inflation import (
    InflateNode,
    InflationPlan,
    NormalizedVector,
    PlanError,
    in_region,
    plan_kahler,
    verify_plan,
)
from sympdiv.lattice import AmbientLattice, canonical, pair
from sympdiv.moves import (
    ToricBlowup,
    area_after_blowup,
    blowdown,
    blowup,
    is_toric_blowup_seq,
    replay_blowdown,
    replay_toric_witness,
    toric_seq_blowup,
)


def _report(num, detail, elapsed, budget):
    print(f"criterion {num}: PASS in {elapsed:.3f}s (< {budget}s) - {detail}")
    assert elapsed < budget, f"criterion {num} exceeded its {budget}s budget"


def test_criterion_1_cp2_13_end_to_end():
    t0 = time.monotonic()
    cfg, w = cp2_13_cusp()
    cert = certify_affine_ruled(cfg, w)

    steps = [(s.kind, str(s.target)) for tr in cert.traces for s in tr.steps]
    assert steps == [
        ("exterior", "E13"),
        ("toric", "E12"),
        ("half_toric", "E11"),
        ("half_toric", "E10"),
        ("half_toric", "E9"),
        ("non_toric", "E8"),
        ("toric", "E6"),
        ("toric", "E5"),
        ("non_toric", "E4"),
    ]
    assert cert.cusp.a == (2, 2, -2)
    assert cert.cusp.c == (1, 2, 3)
    assert (cert.cusp.p, cert.cusp.q) == (8, 3)
    amb = cert.terminal_config.ambient
    assert cert.cusp.cls == amb.cls(H=6, E1=-3, E2=-1, E3=-1, E7=-1)
    assert cert.weights == (3, 3, 2, 1, 1)
    res = cert.resolution
    assert pair(res.a_tilde, res.a_tilde) == 0
    assert pair(res.a_tilde, canonical(res.config.ambient)) == -2
    assert all_passed(cert.dgood)
    assert all_passed(cert.all_checks())
    # criterion 9 on this trace: hypothesis holds at every intermediate step
    assert all(s.hyp_before and s.hyp_after for tr in cert.traces for s in tr.steps)
    # and in the input coordinates the class is the narrated one
    assert cert.original.cls == cfg.ambient.cls(H=6, E1=-3, E2=-1, E3=-1, E7=-1)
    _report(1, "13-point blowup pipeline with exact trace, cusp and goodness data",
            time.monotonic() - t0, 1.0)


def test_criterion_2_weight_sequences():
    t0 = time.monotonic()
    assert weight_sequence(5, 2).weights == (2, 2, 1, 1)
    pairs = 0
    for p in range(2, 201):
        for q in range(1, p):
            if math.gcd(p, q) != 1:
                continue
            ws = weight_sequence(p, q)
            assert sum(m * m for m in ws.weights) == p * q
            assert sum(ws.weights) == p + q - 1
            pairs += 1
    _report(2, f"{pairs} coprime pairs up to 200", time.monotonic() - t0, 5.0)


def test_criterion_3_toric_sequences():
    t0 = time.monotonic()
    rng = random.Random(303)
    for _ in range(1000):
        seq = (0, 0)
        for _ in range(rng.randint(0, 10)):
            seq = toric_seq_blowup(seq, rng.randint(1, len(seq) - 1))
        ok, witness = is_toric_blowup_seq(seq)
        assert ok
        assert replay_toric_witness(witness) == seq
        if seq != (0, 0):
            # provable form: positive length growth and the newest sphere
            # keeps self-intersection -1
            assert len(seq) >= 3
            assert -1 in seq
    assert is_toric_blowup_seq((-2, -1, -2))[0] is False
    _report(3, "1000 witness replays round-trip", time.monotonic() - t0, 5.0)


@pytest.mark.xfail(
    strict=True,
    reason=(
        "unsatisfiable as stated: the accepted two-step sequence "
        "(-1,-2,-1,-2) (blow up (0,0) at 1 then at 2, precisely the rewrite "
        "examples) contains exactly two -1 entries; a chain of two spheres "
        "blown up twice has exactly two (-1)-components, so no correct "
        "accepter can satisfy both the round-trip clause and the >=3 clause"
    ),
)
def test_criterion_3_three_minus_ones_clause():
    seq = toric_seq_blowup(toric_seq_blowup((0, 0), 1), 2)
    ok, _ = is_toric_blowup_seq(seq)
    assert ok  # forced by the round-trip clause
    assert sum(1 for x in seq if x == -1) >= 3  # the literal clause


def _random_cycle(rng: random.Random) -> DivisorConfig:
    kind = rng.choice(["pp", "b2", "c3"])
    if kind == "pp":
        pp = AmbientLattice.projective_plane()
        cfg = DivisorConfig.build(
            pp,
            [("A", pp.cls(H=1)), ("B", pp.cls(H=1)), ("C", pp.cls(H=1))],
            [("A", "B"), ("B", "C"), ("A", "C")],
        )
    elif kind == "b2":
        ps = AmbientLattice.product_of_spheres()
        cfg = DivisorConfig.build(
            ps,
            [("A", ps.cls(f1=1, f2=1)), ("B", ps.cls(f1=1)), ("C", ps.cls(f2=1))],
            [("A", "B"), ("B", "C"), ("A", "C")],
        )
    else:
        rb = AmbientLattice.rational_blowup(1)
        f, s = rb.cls(H=1, E1=-1), rb.cls(H=1)
        cfg = DivisorConfig.build(
            rb,
            [("A", f + s), ("B", f), ("C", (-2) * f + s), ("D", f)],
            [("A", "B"), ("B", "C"), ("C", "D"), ("A", "D")],
        )
    for _ in range(rng.randint(0, 6)):
        a, b = rng.choice(cfg.edges)
        cfg = blowup(cfg, ToricBlowup(a, b))
    return cfg


def test_criterion_4_total_genus_property():
    t0 = time.monotonic()
    rng = random.Random(404)
    for i in range(500):
        if i % 2 == 0:
            cfg, _ = random_blowup_config(rng)
        else:
            cfg = _random_cycle(rng)
        assert validate(cfg) == []
        closed, graph = total_genus_parts(cfg)
        assert closed == graph
        parts = smooth_all(cfg)
        assert len(parts) == len(connected_components(cfg))
        assert sum(s.genus for s in parts) == (
            sum(c.genus for c in cfg.components) + first_betti(cfg)
        )
    _report(4, "500 random tree/cycle configurations", time.monotonic() - t0, 5.0)


def test_criterion_5_cusp_identities():
    t0 = time.monotonic()
    rng = random.Random(505)
    for _ in range(500):
        a = sample_admissible(rng)
        adm = admissible_check(a)
        cfg, ids = synthetic_chain(a)
        cusp = cusp_class(cfg, ids, len(a))
        # the five identities, re-checked from raw pairings
        comps = [cfg.component(i) for i in ids]
        k = len(a)
        assert pair(cusp.cls, comps[k - 1].cls) == adm.p
        assert pair(cusp.cls, comps[k].cls) == adm.q
        assert all(
            pair(cusp.cls, comps[j].cls) == 0
            for j in range(len(comps))
            if j not in (k - 1, k)
        )
        assert pair(cusp.cls, cusp.cls) == adm.p * adm.q
        assert pair(cusp.cls, canonical(cfg.ambient)) == -adm.p - adm.q - 1
        res = resolve_pattern(cfg, cusp.da, cusp.db, cusp.p, cusp.q, cusp.cls)
        assert pair(res.a_tilde, res.a_tilde) == 0
        assert pair(res.a_tilde, canonical(res.config.ambient)) == -2
        pc, check = positive_combination(res, cfg)
        assert check.passed and all(v >= 0 for v in pc.values())
    _report(5, "500 random admissible chains", time.monotonic() - t0, 10.0)


def test_criterion_6_roundtrip_identity():
    t0 = time.monotonic()
    rng = random.Random(606)
    rounds = 0
    hyp_checked = 0
    while rounds < 500:
        cfg, w = random_blowup_config(rng)
        for _ in range(4):
            move = random_move(rng, cfg)
            up = blowup(cfg, move)
            wu = area_after_blowup(
                cfg, up, w, min(min(w.areas), -adjoint_area(cfg, w)) / 9
            )
            if cfg.ambient.kind == "product_of_spheres":
                e = up.ambient.cls(H=1, E1=-1, E2=-1)
            else:
                new = [n for n in up.ambient.names if n not in cfg.ambient.names][0]
                e = up.ambient.basis_class(new)
            step = blowdown(up, e, wu)
            assert step.config == cfg
            assert step.new_area == w
            assert replay_blowdown(step) == up
            if adjoint_area(cfg, w) < 0:
                assert adjoint_area(up, wu) < 0  # criterion 9 on the way up
                hyp_checked += 1
            rounds += 1

    # basis-normalized blowdowns of non-generator exceptional classes
    rb = AmbientLattice.rational_blowup(3)
    w3 = decreasing_areas(rb)
    e = rb.cls(H=1, E1=-1, E2=-1)
    for comps, edges in (
        ([("X", rb.cls(E3=1))], []),
        ([("X", rb.cls(E1=1)), ("Y", rb.cls(E3=1))], []),
        (
            [("C", rb.cls(H=1, E1=-1, E2=-1)), ("X", rb.cls(E1=1)), ("Y", rb.cls(E2=1))],
            [("C", "X"), ("C", "Y")],
        ),
    ):
        cfg = DivisorConfig.build(rb, comps, edges)
        step = blowdown(cfg, e, w3)
        assert replay_blowdown(step) == cfg
        rounds += 1
    for _ in range(17):
        # Cremona-normalized generator contraction inside random ambients
        cfg, w = random_blowup_config(rng)
        if cfg.ambient.kind != "rational_blowup" or cfg.ambient.n_exc < 3:
            continue
        names = cfg.ambient.names
        cand = cfg.ambient.cls(**{"H": 1, names[1]: -1, names[2]: -1})
        try:
            step = blowdown(cfg, cand, w)
        except Exception:
            continue
        assert replay_blowdown(step) == cfg
        rounds += 1
    assert rounds >= 500
    assert hyp_checked > 100
    _report(6, f"{rounds} round trips across all four types", time.monotonic() - t0, 10.0)


def test_criterion_7_minimal_model_classifier():
    t0 = time.monotonic()
    from test_reduction import ALL_17, NEAR_MISSES
    from sympdiv.reduction import classify_minimal_model

    for case, make, params in ALL_17:
        tag = classify_minimal_model(make())
        assert tag is not None and tag.case == case
        for key, val in params.items():
            assert tag.params.get(key) == val
    misses = 0
    for make in NEAR_MISSES:
        cfg = make()
        assert classify_minimal_model(cfg) is None
        misses += 1
    assert misses >= 20
    _report(7, f"17 cases classified, {misses} near-misses rejected",
            time.monotonic() - t0, 1.0)


def test_criterion_8_inflation():
    t0 = time.monotonic()
    # the textbook n = 2 plan
    target = NormalizedVector.of(1, ["3/4", "1/3", "1/5"])
    plan = plan_kahler(target)
    seed = plan.nodes[0]
    eps = seed.epsilon
    assert seed.vector == (
        Fraction(3, 4) - Fraction(1, 5) + eps,
        Fraction(1, 3) - Fraction(1, 5) + eps,
        eps,
    )
    assert len(plan.nodes) == 2 and plan.nodes[1].t == Fraction(1, 5) - eps
    assert all_passed(verify_plan(plan))

    rng = random.Random(808)
    done = rejected = 0
    while done < 200:
        n = rng.randint(0, 6)
        vals = sorted(
            (Fraction(rng.randint(1, 45), 100) for _ in range(n)), reverse=True
        )
        if n >= 2 and vals[0] + vals[1] >= 1:
            continue
        db = Fraction(sum(vals), 2) + Fraction(rng.randint(1, 80), 20)
        target = NormalizedVector(rng.randint(1, 3), (db,) + tuple(vals))
        if not in_region(NormalizedVector(1, target.entries), "P_g"):
            continue
        if not in_region(target, "P_g"):
            # inside P_1 but outside its own P_g: the planner refuses it
            with pytest.raises(PlanError):
                plan_kahler(target)
            rejected += 1
            continue
        plan = plan_kahler(target)
        checks = verify_plan(plan)
        assert all_passed(checks), failures(checks)
        done += 1
    assert rejected > 0

    # tampered plans are rejected
    plan = plan_kahler(NormalizedVector.of(1, ["3/4", "1/3", "1/5"]))
    bad = InflationPlan(
        1, 2, plan.target,
        (plan.nodes[0], InflateNode(plan.nodes[1].z, plan.nodes[1].label, Fraction(5))),
    )
    assert not all_passed(verify_plan(bad))
    wrong = InflationPlan(
        1, 2, plan.target[:-1] + (plan.target[-1] + 1,), plan.nodes
    )
    assert not all_passed(verify_plan(wrong))
    _report(8, f"textbook plan, {done} random targets, {rejected} outside their P_g "
            "refused, tamper rejection",
            time.monotonic() - t0, 30.0)


def test_criterion_9_hypothesis_preservation():
    # exercised inside criteria 1 and 6; re-assert on the 13-point blowup traces
    t0 = time.monotonic()
    cfg, w = cp2_13_cusp()
    cert = certify_affine_ruled(cfg, w)
    steps = [s for tr in cert.traces for s in tr.steps]
    assert steps and all(s.hyp_before and s.hyp_after for s in steps)
    _report(9, "adjoint area negative along every reduction step",
            time.monotonic() - t0, 5.0)
