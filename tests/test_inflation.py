from __future__ import annotations

import json
import random
from fractions import Fraction

import pytest

from conftest import lam_bound, normalize, state_from_vector
from sympdiv.checks import all_passed, failures
from sympdiv.cli import main
from sympdiv.inflation import (
    InflateNode,
    InflationPlan,
    NormalizedVector,
    PlanError,
    SeedNode,
    ZigZagNode,
    in_region,
    inflate_step,
    plan_ambient,
    plan_kahler,
    verify_plan,
)
from sympdiv.lattice import AreaVector


def test_regions_n0():
    assert not in_region(NormalizedVector.of(2, ["2"]), "P_g")
    assert in_region(NormalizedVector.of(2, ["5/2"]), "P_g")
    assert in_region(NormalizedVector.of(1, ["1/10"]), "P")


def test_regions_n1():
    v = NormalizedVector.of(1, ["2/5", "1/2"])
    assert in_region(v, "P_g")
    assert not in_region(NormalizedVector.of(1, ["1/5", "1/2"]), "P_g")


def test_regions_ordering_clause():
    bad = NormalizedVector.of(1, ["5", "1/4", "1/3"])
    assert not in_region(bad, "P")
    assert not in_region(bad, "P_g")


def test_region_monotonicity():
    rng = random.Random(4)
    for _ in range(200):
        n = rng.randint(0, 5)
        vals = sorted(
            (Fraction(rng.randint(1, 40), 100) for _ in range(n)), reverse=True
        )
        db = Fraction(rng.randint(1, 900), 100)
        g = rng.randint(1, 3)
        v_g1 = NormalizedVector(1, (db,) + tuple(vals))
        v_gp = NormalizedVector(g + 1, (db,) + tuple(vals))
        v_g = NormalizedVector(g, (db,) + tuple(vals))
        if in_region(v_gp, "P_g"):
            assert in_region(v_g, "P_g")
        if in_region(v_g1, "P_g"):
            assert in_region(v_g1, "P")


def test_inflate_step_examples():
    # along B: areas of B and E stay, fiber grows, normalization divides
    st = state_from_vector(1, [Fraction(3, 5), Fraction(1, 2)])
    amb = st.ambient
    b = amb.basis_class("B")
    t = Fraction(1, 3)
    out = inflate_step(st, b, t)
    v = normalize(out)
    assert v.entries == (Fraction(3, 5) / (1 + t), Fraction(1, 2) / (1 + t))

    # along F - E1 - E2: all three entries shift by t
    st2 = state_from_vector(1, [Fraction(2), Fraction(1, 3), Fraction(1, 5)])
    z = st2.ambient.cls(F=1, E1=-1, E2=-1)
    out2 = inflate_step(st2, z, Fraction(1, 10))
    v2 = normalize(out2)
    assert v2.entries == (
        Fraction(2) + Fraction(1, 10),
        Fraction(1, 3) + Fraction(1, 10),
        Fraction(1, 5) + Fraction(1, 10),
    )

    assert inflate_step(st2, z, Fraction(0)) == st2


def test_inflate_step_bound():
    st = state_from_vector(1, [Fraction(2), Fraction(1, 3), Fraction(1, 5)])
    z = st.ambient.cls(F=1, E1=-1, E2=-1)
    lam = lam_bound(st, z)
    assert lam == (1 - Fraction(1, 3) - Fraction(1, 5)) / 2
    with pytest.raises(PlanError):
        inflate_step(st, z, lam)
    b = st.ambient.basis_class("B")
    assert lam_bound(st, b) is None


def test_inflate_additive_in_t():
    st = state_from_vector(1, [Fraction(2), Fraction(1, 3), Fraction(1, 5)])
    z = st.ambient.cls(F=1, E1=-1, E2=-1)
    s, t = Fraction(1, 20), Fraction(1, 30)
    assert inflate_step(inflate_step(st, z, s), z, t) == inflate_step(st, z, s + t)


def test_normalize_scale_invariance():
    st = state_from_vector(2, [Fraction(3), Fraction(1, 2)])
    doubled = AreaVector(st.ambient, tuple(2 * v for v in st.areas))
    assert normalize(st) == normalize(doubled)


def test_textbook_n2_plan():
    target = NormalizedVector.of(1, ["3/4", "1/3", "1/5"])
    plan = plan_kahler(target)
    checks = verify_plan(plan)
    assert all_passed(checks), failures(checks)
    seed = plan.nodes[0]
    t = plan.nodes[1].t
    eps = seed.epsilon
    assert seed.vector == (
        Fraction(3, 4) - Fraction(1, 5) + eps,
        Fraction(1, 3) - Fraction(1, 5) + eps,
        eps,
    )
    assert t == Fraction(1, 5) - eps


def test_plan_zero_step_verifies():
    # a hand-built plan with a zero-size inflation is degenerate but valid
    amb = plan_ambient(1, 1)
    seed = SeedNode(None, None, (Fraction(2), Fraction(1, 2)), "seed assumption")
    plan = InflationPlan(
        1, 1, (Fraction(2), Fraction(1, 2)),
        (seed, InflateNode(amb.basis_class("B").coeffs, "B", Fraction(0))),
    )
    assert all_passed(verify_plan(plan))


def test_tampered_plans_rejected():
    target = NormalizedVector.of(1, ["3/4", "1/3", "1/5"])
    plan = plan_kahler(target)
    # exceed the bound
    amb = plan_ambient(1, 2)
    z = plan.nodes[1].z
    bad = InflationPlan(
        1, 2, plan.target,
        (plan.nodes[0], InflateNode(z, "F-E1-E2", Fraction(2))),
    )
    checks = verify_plan(bad)
    assert not all_passed(checks)
    # endpoint mismatch
    wrong_target = plan.target[:-1] + (plan.target[-1] + Fraction(1, 100),)
    bad2 = InflationPlan(1, 2, wrong_target, plan.nodes)
    checks2 = verify_plan(bad2)
    assert any("endpoint" in c.name and not c.passed for c in checks2)


def test_zigzag_endpoint_matches_single_steps():
    # endpoint depends only on totals; substeps only affect feasibility
    st = state_from_vector(1, [3, Fraction(1, 3), Fraction(1, 4), Fraction(1, 5), Fraction(1, 6)])
    amb = st.ambient
    zd = amb.cls(F=1, E3=-1, E4=-1)
    ze = amb.cls(E4=1)
    total = Fraction(1, 8)
    n = 4
    s = total / n
    cur = st
    for _ in range(n):
        cur = inflate_step(cur, zd, s)
        cur = inflate_step(cur, ze, s)
    direct = st
    direct = inflate_step(direct, zd, total)
    direct = inflate_step(direct, ze, total)
    assert cur == direct


def test_plan_outside_region_rejected():
    with pytest.raises(PlanError):
        plan_kahler(NormalizedVector.of(1, ["1/10", "1/2", "1/3"]))


def test_random_targets_all_n(capsys):
    rng = random.Random(20240809)
    done = rejected = 0
    while done < 60:
        n = rng.randint(0, 6)
        vals = sorted(
            (Fraction(rng.randint(1, 45), 100) for _ in range(n)), reverse=True
        )
        if n >= 2 and vals[0] + vals[1] >= 1:
            continue
        db = Fraction(sum(vals), 2) + Fraction(rng.randint(1, 60), 20)
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
        end = plan.target
        assert end == target.entries
        done += 1
    assert rejected > 0


@pytest.mark.parametrize("depth,genus", [(0, 7), (1, 9), (2, 5)])
def test_replay_refuses_a_base_plan_of_another_genus(depth, genus, tmp_path, capsys):
    # the replay's numbers do not depend on g, so only the seed check sees it;
    # the n = 5 plan has base plans three deep
    target = "2,1/2,2/5,1/5" if depth < 2 else "4,2/5,9/25,81/250,729/2500,6561/25000"
    assert main(["inflate", "--n", str(target.count(",")), "--g", "1", "--target", target]) == 0
    doc = json.loads(capsys.readouterr().out)
    base = doc["nodes"][0]["base"]
    for _ in range(depth):
        base = base["nodes"][0]["base"]
    base["g"] = genus
    path = tmp_path / "forged.json"
    path.write_text(json.dumps(doc))
    want = (f"failed: {'  ' * depth}seed base has the plan's genus: base g = {genus}, "
            "plan g = 1\nplan rejected\n")
    for argv in (["check", str(path)], ["inflate", "--verify-only", str(path)]):
        assert main(argv) == 1
        assert capsys.readouterr().out == want
