"""Plans on small rationals: the simplest-rational step sizes, the sparse
inflation step, the zig-zag substep cap of the replay, and the size of the
numbers in emitted plans on long targets."""

from __future__ import annotations

import json
import math
import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import lam_bound
from sympdiv.checks import all_passed
from sympdiv.cli import main
from sympdiv.inflation import (
    MAX_SUBSTEPS,
    InflationPlan,
    NormalizedVector,
    PlanError,
    ZigZagNode,
    inflate_step,
    plan_ambient,
    plan_kahler,
    simplest_in,
    verify_plan,
)
from sympdiv.lattice import AmbientLattice, AreaVector, area, pair

PROPERTY = settings(max_examples=200, deadline=None, report_multiple_bugs=False)


# -- the simplest rational in (lo, hi] ------------------------------------------------


@PROPERTY
@given(
    st.fractions(min_value=0, max_value=5, max_denominator=2000),
    st.fractions(min_value=Fraction(1, 2000), max_value=3, max_denominator=2000),
)
@example(Fraction(0), Fraction(1))
@example(Fraction(1), Fraction(1, 1000))
@example(Fraction(1, 2), Fraction(1, 6))
@example(Fraction(1, 3), Fraction(1, 6))
@example(Fraction(2, 5), Fraction(1, 10))
def test_simplest_in_is_inside_with_least_denominator(lo, width):
    hi = lo + width
    x = simplest_in(lo, hi)
    assert lo < x <= hi
    for q in range(1, x.denominator):
        p = math.floor(lo * q) + 1  # least p with p/q > lo
        assert Fraction(p, q) > hi, f"{p}/{q} lies in ({lo}, {hi}] and is simpler than {x}"


def test_simplest_in_ends():
    assert simplest_in(Fraction(0), Fraction(3)) == 1  # least numerator of least denominator
    assert simplest_in(Fraction(1), Fraction(2)) == 2  # open below
    assert simplest_in(Fraction(1, 3), Fraction(1, 2)) == Fraction(1, 2)  # closed above
    assert simplest_in(Fraction(1, 2), Fraction(2, 3)) == Fraction(2, 3)


# -- the sparse inflation step against the dense loop ---------------------------------


def dense_inflate_step(a: AreaVector, z, t) -> AreaVector:
    """The inflation step written out over every generator."""
    t = Fraction(t)
    if t < 0:
        raise PlanError("negative inflation parameter")
    if area(z, a) <= 0:
        raise PlanError(f"class {z} has non-positive area")
    lam = lam_bound(a, z)
    if lam is not None and t >= lam:
        raise PlanError(f"t = {t} exceeds the inflation bound {lam} along {z}")
    amb = a.ambient
    out = []
    for i, name in enumerate(amb.names):
        gen = amb.basis_class(name)
        out.append(a.areas[i] + t * pair(z, gen))
    if any(v <= 0 for v in out):
        raise PlanError("inflation made a generator area non-positive")
    return AreaVector(amb, tuple(out))


@st.composite
def steps(draw):
    amb = plan_ambient(draw(st.integers(1, 3)), draw(st.integers(0, 6)))
    positive = st.fractions(min_value=Fraction(1, 50), max_value=3, max_denominator=50)
    signed = st.fractions(min_value=-1, max_value=5, max_denominator=50)
    areas = (draw(signed),) + tuple(draw(positive) for _ in range(amb.dim - 1))
    coeffs = draw(st.lists(st.sampled_from((-2, -1, 0, 0, 0, 1, 2)),
                           min_size=amb.dim, max_size=amb.dim))
    t = draw(st.fractions(min_value=Fraction(-1, 4), max_value=2, max_denominator=40))
    return AreaVector(amb, areas), amb.from_coeffs(coeffs), t


def _step_example(g, areas, coeffs, t):
    amb = plan_ambient(g, len(areas) - 2)
    return AreaVector.from_values(amb, areas), amb.from_coeffs(coeffs), Fraction(t)


@PROPERTY
@given(steps())
# t exactly at the bound area(z) / -z.z = 7/30
@example(_step_example(1, [2, 1, "1/3", "1/5"], [0, 1, -1, -1], "7/30"))
# B has no positive area and z = E1 leaves it as it is
@example(_step_example(1, ["-1/2", 1, "1/3"], [0, 0, 1], "1/10"))
def test_sparse_step_matches_dense_loop(step):
    a, z, t = step
    try:
        want = dense_inflate_step(a, z, t)
    except PlanError as exc:
        with pytest.raises(PlanError) as got:
            inflate_step(a, z, t)
        assert str(got.value) == str(exc)
        return
    assert inflate_step(a, z, t) == want


def test_step_refuses_other_ambients():
    amb = AmbientLattice.rational_blowup(2)
    w = AreaVector.from_values(amb, [1, Fraction(1, 4), Fraction(1, 8)])
    with pytest.raises(PlanError):
        inflate_step(w, amb.cls(E1=1), Fraction(1, 10))


# -- the zig-zag substep cap -----------------------------------------------------------


def test_replay_rejects_substeps_above_the_cap():
    plan = plan_kahler(NormalizedVector.of(1, ["4", "2/5", "9/25", "81/250", "729/2500",
                                               "6561/25000"]))
    i, zz = next((i, nd) for i, nd in enumerate(plan.nodes) if isinstance(nd, ZigZagNode))
    for substeps in (0, MAX_SUBSTEPS + 1, 10**12):
        nodes = list(plan.nodes)
        nodes[i] = ZigZagNode(zz.z_diag, zz.z_down, zz.label, zz.total, substeps)
        checks = verify_plan(InflationPlan(plan.g, plan.n, plan.target, tuple(nodes)))
        assert not all_passed(checks)
        assert checks[-1].detail == "bad substep data"


def test_cli_check_rejects_huge_substeps(tmp_path, capsys):
    target = "4,2/5,9/25,81/250,729/2500,6561/25000"
    assert main(["inflate", "--n", "5", "--target", target]) == 0
    doc = json.loads(capsys.readouterr().out)
    zigzag = next(nd for nd in doc["nodes"] if nd["type"] == "zigzag")
    zigzag["substeps"] = 10**12
    path = tmp_path / "plan.json"
    path.write_text(json.dumps(doc))
    assert main(["check", str(path)]) == 1
    assert capsys.readouterr().out == (f"failed: zigzag {zigzag['label']}: bad substep data\n"
                                       "plan rejected\n")


# -- bit-lengths on long targets -------------------------------------------------------


def max_bits(text: str) -> int:
    return max(int(run).bit_length() for run in re.findall(r"\d+", text))


@pytest.mark.parametrize("n", [17, 21, 25, 31])
def test_long_targets_plan_with_small_numbers(n, tmp_path, capsys):
    # d_i = (2/5)(9/10)^(i-1) with d_B half a unit inside P_1; at n = 17 the
    # plan's largest integer once had 26,895 bits and could not be printed
    d = [Fraction(2, 5) * Fraction(9, 10) ** (i - 1) for i in range(1, n + 1)]
    target = [sum(d) / 2 + Fraction(1, 2)] + d
    argv = ["inflate", "--n", str(n), "--target", ",".join(map(str, target))]
    assert main(argv) == 0
    text = capsys.readouterr().out
    assert all(c["passed"] for c in json.loads(text)["verification"])
    # measured: 98, 131, 155 and 207 bits
    assert max_bits(text) <= 7 * n + 10
    path = tmp_path / "plan.json"
    path.write_text(text)
    assert main(["check", str(path)]) == 0
    assert capsys.readouterr().out == "plan ok\n"
