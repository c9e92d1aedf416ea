"""Zig-zag nodes in closed form against the stepwise replay.

`stepwise_node` replays a zig-zag node as the replay did before the closed
form: N pairs of kernel steps of total / N along z_diag and z_down.
`inflation._zigzag` must give its verdict and its end state on forged nodes
of the planner's shape with N from 1 to 2**20 (stepwise for N <= 64, the
exact inequality in Fractions beyond), with totals on both sides of
(N + 1) * total = N * area(z_diag), and on every zig-zag node of the inflate
recipe's plans at seeds 1, 3 and 5.  `ref_zigzag_count` is the planner's
closed-form least count as it was, and `ref_zigzag_substeps` the doubling and
bisection search it replaced; the node check accepts at that count and
refuses below it.  Targets near every face of P_g plan with one substep per
node, and a plan's substep counts buy no work."""

from __future__ import annotations

import json
import operator
import random
import time
from dataclasses import replace
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import perfbench_module, state_from_vector
from sympdiv import documents, inflation, lattice
from sympdiv.checks import all_passed
from sympdiv.cli import main
from sympdiv.inflation import (
    MAX_SUBSTEPS,
    NormalizedVector,
    PlanError,
    ZigZagNode,
    plan_ambient,
    plan_kahler,
    verify_plan,
)
from sympdiv.lattice import integer_form_of

_kernel_step = inflation._step


def stepwise_node(state, zd, ze, total, substeps):
    """The zig-zag node as the replay stepped it: the end state, or the
    PlanError of the first substep out of bounds."""
    s = Fraction(total) / substeps
    for _ in range(substeps):
        state = _kernel_step(_kernel_step(state, zd, s), ze, s)
    return state


def _outcome(node, state, zd, ze, total, substeps):
    try:
        return node(state, zd, ze, total, substeps)
    except PlanError:
        return "refused"


# -- the planner's count and search, as they were ---------------------------------


def ref_zigzag_count(state, zd, ze, total):
    """The least count whose alternating replay stays in bounds, by the
    closed form the planner used: N = floor(total / (A - total)) + 1 with A
    the state's area(z_diag), when A > total; no count works otherwise."""
    _, nums, den = state
    p, q = total.numerator, total.denominator
    room = sum(map(operator.mul, zd, nums)) * q - p * den
    n = p * den // room + 1 if room > 0 else MAX_SUBSTEPS + 1
    if n > MAX_SUBSTEPS:
        raise PlanError("zig-zag substep search exhausted")
    return n


def ref_zigzag_substeps(state, zd, ze, total):
    """The search the closed form replaced: double a trial count until its
    replay stays in bounds, then bisect below that power of two."""
    if total == 0:
        return 1, state

    def attempt(nsub):
        out = _outcome(stepwise_node, state, zd, ze, total, nsub)
        return None if out == "refused" else out

    n = 1
    end = attempt(n)
    while end is None:
        n *= 2
        if n > MAX_SUBSTEPS:
            raise PlanError("zig-zag substep search exhausted")
        end = attempt(n)
    lo, hi = max(1, n // 2), n
    while lo < hi:
        mid = (lo + hi) // 2
        mid_end = attempt(mid)
        if mid_end is not None:
            hi, end = mid, mid_end
        else:
            lo = mid + 1
    return hi, end


@st.composite
def zigzag_shapes(draw, room=None):
    """A kernel state with the planner's zig-zag classes z_diag = F - E_a - E_b
    and z_down = E_b, as coefficient tuples, and area(z_diag) = room."""
    n = draw(st.integers(2, 6))
    a, b = draw(st.permutations(range(1, n + 1)))[:2]
    pos = st.fractions(min_value=Fraction(1, 50), max_value=3, max_denominator=60)
    amb = plan_ambient(draw(st.integers(1, 3)), n)
    areas = [draw(pos) for _ in range(n + 2)]  # B, F, E_1..E_n
    room = draw(pos) if room is None else draw(room)
    areas[1] = areas[a + 1] + areas[b + 1] + room
    z_diag, z_down = amb.cls(F=1, **{f"E{a}": -1, f"E{b}": -1}), amb.cls(**{f"E{b}": 1})
    return (amb, *integer_form_of(areas)), z_diag.coeffs, z_down.coeffs, room


@st.composite
def zigzag_states(draw):
    """A zig-zag shape and a total below area(z_diag) that needs at most 200
    substeps: total = r * area(z_diag) with r / (1 - r) < 200, often exactly
    k / (k + 1), where the strict diag bound decides the count."""
    state, zd, ze, room = draw(zigzag_shapes())
    k = draw(st.integers(1, 199))
    r = draw(st.one_of(st.just(Fraction(k, k + 1)),
                       st.fractions(min_value=Fraction(1, 10**4), max_value=Fraction(199, 200),
                                    max_denominator=10**4)))
    return state, zd, ze, r * room


@settings(max_examples=60, deadline=None)
@given(zigzag_states())
def test_zigzag_closed_form_matches_the_search(case):
    n, end = ref_zigzag_substeps(*case)
    assert ref_zigzag_count(*case) == n
    # the node check accepts at the least count, ends where the search did,
    # and refuses one substep fewer
    assert inflation._zigzag(*case, n) == end
    if n > 1:
        with pytest.raises(PlanError, match="break the last diag bound"):
            inflation._zigzag(*case, n - 1)


def test_zigzag_search_ends_where_its_count_replays():
    st_ = state_from_vector(1, [3, Fraction(1, 3), Fraction(1, 4), Fraction(1, 5), Fraction(1, 6)])
    amb = st_.ambient
    case = (amb, *st_.integer_form), amb.cls(F=1, E3=-1, E4=-1).coeffs, amb.cls(E4=1).coeffs
    total = Fraction(3, 5)  # doubling stops at 32, bisecting at 19
    assert ref_zigzag_count(*case, total) == 19
    assert ref_zigzag_substeps(*case, total) == (19, stepwise_node(*case, total, 19))
    assert inflation._zigzag(*case, total, 19) == stepwise_node(*case, total, 19)
    assert _outcome(inflation._zigzag, *case, total, 18) == "refused"
    assert _outcome(stepwise_node, *case, total, 18) == "refused"


# -- forged counts against the stepwise replay and the exact inequality --------------


def _exact(state, zd, ze, total, substeps):
    """The closed form in Fractions: refused unless area(z_diag) > 0 and
    (N + 1) * total < N * area(z_diag); else B and E_a gain total."""
    amb, nums, den = state
    areas = [Fraction(x, den) for x in nums]
    b = ze.index(1)
    a = next(i for i, c in enumerate(zd) if c == -1 and i != b)
    az = areas[1] - areas[a] - areas[b]
    if az <= 0 or (substeps + 1) * total >= substeps * az:
        return "refused"
    areas[0] += total
    areas[a] += total
    return (amb, *integer_form_of(areas))


def _compare(state, zd, ze, total, substeps):
    got = _outcome(inflation._zigzag, state, zd, ze, total, substeps)
    assert got == _exact(state, zd, ze, total, substeps)
    if substeps <= 64:
        assert got == _outcome(stepwise_node, state, zd, ze, total, substeps)
    return got


_TINY = st.integers(1, 40).map(lambda k: Fraction(1, 2**k))


@settings(max_examples=150, deadline=None)
@given(zigzag_shapes(room=st.one_of(
           st.fractions(min_value=Fraction(1, 50), max_value=3, max_denominator=60),
           st.just(Fraction(0)), st.just(Fraction(-1, 100)))),
       st.one_of(st.integers(1, 64), st.integers(65, MAX_SUBSTEPS), st.just(MAX_SUBSTEPS)),
       st.sampled_from(("on", "below", "above", "zero", "free")), _TINY)
def test_zigzag_node_check_matches_the_stepwise_replay(shape, substeps, side, tiny):
    state, zd, ze, room = shape
    edge = substeps * room / (substeps + 1)  # (N + 1) * total = N * area(z_diag)
    total = {"on": edge, "below": edge * (1 - tiny), "above": edge * (1 + tiny), "zero": 0,
             "free": room * 4 * tiny}[side]
    _compare(state, zd, ze, max(Fraction(total), Fraction(0)), substeps)


@pytest.mark.parametrize("substeps", [1, 2, 3, 64, 65, 1000, MAX_SUBSTEPS])
def test_zigzag_node_check_on_both_sides_of_the_last_bound(substeps):
    st_ = state_from_vector(2, [3, Fraction(2, 5), Fraction(1, 3), Fraction(1, 4)])
    amb = st_.ambient
    case = (amb, *st_.integer_form), amb.cls(F=1, E1=-1, E3=-1).coeffs, amb.cls(E3=1).coeffs
    edge = substeps * (1 - Fraction(2, 5) - Fraction(1, 4)) / (substeps + 1)
    verdicts = [_compare(*case, edge + side * Fraction(1, 10**9), substeps) != "refused"
                for side in (-1, 0, 1)]
    assert verdicts == [True, False, False]


@pytest.mark.parametrize("total", [
    Fraction(1, 2),  # area(z_diag): no count works
    Fraction(7, 5),
    Fraction(1, 2) - Fraction(1, 2**22),  # needs 2**21 substeps, past MAX_SUBSTEPS
])
def test_zigzag_refusal_is_immediate(total):
    st_ = state_from_vector(1, [3, Fraction(1, 4), Fraction(1, 4), Fraction(1, 4)])
    amb = st_.ambient
    case = (amb, *st_.integer_form), amb.cls(F=1, E2=-1, E3=-1).coeffs, amb.cls(E3=1).coeffs
    with pytest.raises(PlanError, match="^zig-zag substep search exhausted$"):
        ref_zigzag_count(*case, total)
    start = time.perf_counter()
    with pytest.raises(PlanError, match="break the last diag bound"):
        inflation._zigzag(*case, total, MAX_SUBSTEPS)
    assert time.perf_counter() - start < 0.1
    # 2**20 substeps of a total just under the last bound are accepted as fast
    edge = Fraction(1, 2) * MAX_SUBSTEPS / (MAX_SUBSTEPS + 1)
    inflation._zigzag(*case, edge - Fraction(1, 2**50), MAX_SUBSTEPS)
    assert time.perf_counter() - start < 0.1


def test_another_shape_is_refused():
    st_ = state_from_vector(1, [3, Fraction(1, 3), Fraction(1, 4), Fraction(1, 5), Fraction(1, 6)])
    amb, state = st_.ambient, (st_.ambient, *st_.integer_form)
    diag, down = amb.cls(F=1, E3=-1, E4=-1), amb.cls(E4=1)
    assert inflation._zigzag(state, diag.coeffs, amb.cls(E3=1).coeffs, Fraction(1, 100), 1)
    for zd, ze in [(diag, amb.cls(E2=1)), (diag, 2 * down), (diag, -down), (diag + down, down),
                   (diag - amb.cls(E1=1), down), (diag + amb.cls(B=1), down), (2 * diag, down)]:
        with pytest.raises(PlanError, match="are not F-Ea-Eb and Eb$"):
            inflation._zigzag(state, zd.coeffs, ze.coeffs, Fraction(1, 100), 1)


# -- the planner's nodes ------------------------------------------------------------


def _levels(plan):
    """The plan and every base plan below it, outermost first."""
    out = [plan]
    while out[-1].nodes[0].base is not None:
        out.append(out[-1].nodes[0].base)
    return out


def _substep_lists(plan):
    """The substep counts of every zig-zag node, innermost base plan first."""
    return [nd.substeps for level in reversed(_levels(plan)) for nd in level.nodes
            if isinstance(nd, ZigZagNode)]


@pytest.mark.parametrize("n,d,want", [(5, "9/20", [1]), (9, "499/1000", [1] * 6)])
def test_near_boundary_substeps_are_pinned(n, d, want):
    assert _substep_lists(plan_kahler(NormalizedVector.of(1, [4] + [d] * n))) == want


def _recipe_ops(seed, workdir=Path()):
    """The operations of the inflate workload at `seed`, n = 2..16."""
    return perfbench_module("workloads").inflate(random.Random(seed), workdir, None)


def _recipe_targets(seed):
    """The targets of the inflate workload at `seed`, n = 2..16."""
    for op in _recipe_ops(seed):
        argv = op.produce_argv
        g, target = argv[argv.index("--g") + 1], argv[argv.index("--target") + 1]
        yield NormalizedVector.of(int(g), target.split(","))


def test_recipe_zigzag_nodes_match_the_stepwise_replay():
    calls = []

    def compared(state, zd, ze, total, substeps):
        want = _outcome(stepwise_node, state, zd, ze, total, substeps)
        assert _outcome(zigzag, state, zd, ze, total, substeps) == want
        calls.append(substeps)
        return zigzag(state, zd, ze, total, substeps)

    zigzag = inflation._zigzag
    with mock.patch.object(inflation, "_zigzag", compared):
        for seed in (1, 3, 5):
            for target in _recipe_targets(seed):
                assert all_passed(verify_plan(plan_kahler(target)))
    assert len(calls) > 100 and set(calls) == {1}


def test_the_n16_recipe_plan_steps_nothing_in_the_planner():
    target = list(_recipe_targets(1))[-1]
    assert target.n == 16
    with mock.patch.object(inflation, "_step", wraps=inflation._step) as steps, \
            mock.patch.object(inflation, "_zigzag", wraps=inflation._zigzag) as nodes:
        plan = inflation._build(target.g, target.entries)
        assert (steps.call_count, nodes.call_count) == (0, 0)
        assert all_passed(verify_plan(plan))
        assert (steps.call_count, nodes.call_count) == (23, 21)


def test_the_n16_recipe_plan_builds_a_pinned_number_of_ambients_and_classes(
        monkeypatch, tmp_path, capsys):
    # (plan_ambient calls, ambients, classes) built by `inflate` and by `check`
    # of that plan.  While every level built plan_ambient(g, n), in the planner
    # and again in the replay, and the planner built each node's classes by
    # generator name: (32, 32, 64) and (16, 16, 0)
    op = _recipe_ops(1, tmp_path)[-1]
    built = {"plan_ambient": 0, "ambients": 0, "classes": 0}

    def counting(key, f):
        def spy(*args):
            built[key] += 1
            return f(*args)
        return spy

    monkeypatch.setattr(inflation, "plan_ambient", counting("plan_ambient", plan_ambient))
    for cls, key in ((lattice.AmbientLattice, "ambients"), (lattice.HomologyClass, "classes")):
        monkeypatch.setattr(cls, "__post_init__", counting(key, cls.__post_init__))
    assert main(op.produce_argv) == 0
    produced = tuple(built.values())
    Path(op.out_path).write_text(capsys.readouterr().out, encoding="utf-8")
    built.update(dict.fromkeys(built, 0))
    assert main(["check", op.out_path]) == 0
    assert capsys.readouterr().out == "plan ok\n"
    assert (produced, tuple(built.values())) == ((1, 16, 0), (1, 16, 0))


# -- targets near every face of P_g ---------------------------------------------------


@st.composite
def face_targets(draw):
    """Targets of P_g near one or more of its faces: d_a + d_b -> 1 (every
    entry just under 1/2), 2 - 2g + 2 d_B - sum d_i -> 0 and d_n -> 0."""
    g, n = draw(st.integers(1, 3)), draw(st.integers(1, 31))
    faces = draw(st.sets(st.sampled_from(("pair", "head", "last")), min_size=1))
    if "pair" in faces:
        d = [Fraction(1, 2) - draw(_TINY) / 2 for _ in range(n)]
    else:
        d = [draw(st.fractions(min_value=Fraction(1, 60), max_value=Fraction(29, 60),
                               max_denominator=60)) for _ in range(n)]
    if "last" in faces:
        d[-1] = draw(_TINY) / 4
    d.sort(reverse=True)
    head = draw(_TINY) if "head" in faces else draw(
        st.fractions(min_value=Fraction(1, 20), max_value=3, max_denominator=20))
    return NormalizedVector(g, ((sum(d) + 2 * g - 2 + head) / 2, *d))


@settings(max_examples=40, deadline=None)
@given(face_targets())
def test_targets_near_every_face_of_p_g_plan(target):
    plan = plan_kahler(target)
    assert set(_substep_lists(plan)) <= {1}
    assert all_passed(verify_plan(plan))
    oracles = perfbench_module("oracles")
    assert oracles.plan_failures(json.dumps(documents.plan_to_doc(plan))) == []


def test_the_pair_face_target_plans_and_checks(tmp_path, capsys):
    target = "4," + ",".join(["4999999/10000000"] * 5)
    assert main(["inflate", "--n", "5", "--g", "1", "--target", target]) == 0
    path = tmp_path / "plan.json"
    path.write_text(capsys.readouterr().out)
    assert main(["check", str(path)]) == 0
    start = time.perf_counter()
    plan_kahler(NormalizedVector.of(1, ["4"] + ["49999/100000"] * 15))
    assert time.perf_counter() - start < 0.1


# -- a plan's substep counts buy no work ----------------------------------------------


def _golden_plan_9_2():
    d = [Fraction(2, 5) * Fraction(9, 10) ** (i - 1) for i in range(1, 10)]
    return plan_kahler(NormalizedVector(2, ((sum(d) + 2) / 2 + Fraction(1, 2), *d)))


def _with_substeps(plan, substeps):
    """The plan with every zig-zag node, in every base plan, set to `substeps`."""
    nodes = tuple(replace(nd, substeps=substeps) if isinstance(nd, ZigZagNode) else nd
                  for nd in plan.nodes)
    seed = nodes[0]
    if seed.base is not None:
        nodes = (replace(seed, base=_with_substeps(seed.base, substeps)), *nodes[1:])
    return replace(plan, nodes=nodes)


def _step_calls(plan):
    with mock.patch.object(inflation, "_step", wraps=inflation._step) as steps:
        checks = verify_plan(plan)
    return all_passed(checks), steps.call_count, checks


def test_forged_substep_counts_buy_no_work(tmp_path, capsys):
    plan = _golden_plan_9_2()
    assert set(_substep_lists(plan)) == {1} and len(_substep_lists(plan)) > 0
    ok, steps, _ = _step_calls(plan)
    forged = _with_substeps(plan, MAX_SUBSTEPS)
    assert _step_calls(forged)[:2] == (ok, steps) == (True, steps)
    path = tmp_path / "plan.json"
    path.write_text(json.dumps(documents.plan_to_doc(forged)))
    assert main(["check", str(path)]) == 0
    assert capsys.readouterr().out.endswith("plan ok\n")
    ok, _, checks = _step_calls(_with_substeps(plan, MAX_SUBSTEPS + 1))
    assert not ok and checks[-1].detail == "bad substep data"

