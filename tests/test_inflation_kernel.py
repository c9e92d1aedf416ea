"""The integer inflation kernel against the Fraction replay it replaced.

`ref_inflate_step` and `ref_verify_plan` are copies of the step and the
replay as they were written on Fraction area vectors.  On random planner
targets and on tampered copies of their plans, `verify_plan` must return the
same checks (name, passed, detail) or raise the same error, and every kernel
step taken on the way must end in the integer form of the area vector the
Fraction step gives.  `ref_in_region` and `ref_region_slack` are copies of
the region tests as they were written on Fraction entries; the integer
region tests must agree with them, on each boundary too.
The replay checks a zig-zag node in closed form where the reference steps
it: the two must agree on every verdict, a failed zig-zag node compared by
the node it names (tests/test_zigzag_nodes.py compares the node check itself
with the stepwise one), and a node whose classes are not of the planner's
shape must be refused where it stands."""

from __future__ import annotations

import re
from dataclasses import replace
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import state_from_vector
from sympdiv import inflation
from sympdiv.checks import Check
from sympdiv.inflation import (
    MAX_SUBSTEPS,
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
    region_slack,
    verify_plan,
)
from sympdiv.lattice import KIND_RULED, AreaVector, LatticeError, area

PROPERTY = settings(max_examples=60, deadline=None, report_multiple_bugs=False)


# -- the Fraction replay, as it was ------------------------------------------------


def ref_inflate_step(a: AreaVector, z, t) -> AreaVector:
    t = Fraction(t)
    if t < 0:
        raise PlanError("negative inflation parameter")
    if a.ambient.kind != KIND_RULED:
        raise PlanError("inflation steps run on trivial ruled ambients")
    az = area(z, a)
    if az <= 0:
        raise PlanError(f"class {z} has non-positive area")
    c = z.coeffs
    row = (c[1], c[0]) + tuple(-x for x in c[2:])
    sq = sum(x * y for x, y in zip(c, row))
    if sq < 0 and t >= (lam := az / -sq):
        raise PlanError(f"t = {t} exceeds the inflation bound {lam} along {z}")
    out = list(a.areas)
    for i, r in enumerate(row):
        if r:
            out[i] += t * r
    if any(v <= 0 for v in out):
        raise PlanError("inflation made a generator area non-positive")
    return AreaVector(a.ambient, tuple(out))


def ref_normalize(a: AreaVector) -> NormalizedVector:
    f = a.areas[1]
    if f <= 0:
        raise PlanError("fiber area must be positive")
    return NormalizedVector(a.ambient.g, (a.areas[0] / f,) + tuple(v / f for v in a.areas[2:]))


def ref_verify_plan(plan: InflationPlan) -> list[Check]:
    try:
        inside = in_region(NormalizedVector(plan.g, plan.target), "P_g")
    except PlanError:
        inside = False
    checks = [Check("target lies in P_g", inside, f"g = {plan.g}")]
    state = _ref_replay(plan, checks, prefix="")
    if state is None:
        return checks
    end = ref_normalize(state)
    checks.append(
        Check("endpoint equals target exactly", end.entries == plan.target,
              f"{[str(e) for e in end.entries]}")
    )
    return checks


def _ref_replay(plan, checks, prefix):
    amb = plan_ambient(plan.g, plan.n)
    if not plan.nodes or not isinstance(plan.nodes[0], SeedNode):
        checks.append(Check(f"{prefix}seed first", False, "plan must start with a seed node"))
        return None
    seed = plan.nodes[0]
    if seed.base is not None:
        sub_checks: list[Check] = []
        sub_state = _ref_replay(seed.base, sub_checks, prefix=prefix + "  ")
        checks.extend(sub_checks)
        if sub_state is None:
            return None
        sub_end = ref_normalize(sub_state)
        ok = (
            seed.epsilon is not None
            and seed.epsilon > 0
            and seed.vector == sub_end.entries + (seed.epsilon,)
            and sub_end.entries == seed.base.target
        )
        checks.append(Check(f"{prefix}seed extends the base plan by a positive area",
                            bool(ok), f"epsilon = {seed.epsilon}"))
        if not ok:
            return None
    else:
        ok = all(v > 0 for v in seed.vector)
        checks.append(Check(f"{prefix}primitive seed is positive", ok, seed.assumption))
        if not ok:
            return None
    state = state_from_vector(plan.g, seed.vector)
    for node in plan.nodes[1:]:
        if isinstance(node, InflateNode):
            z = amb.from_coeffs(node.z)
            state, check = _ref_checked_step(state, z, node.t, f"{prefix}inflate {node.label}")
            checks.append(check)
            if state is None:
                return None
        elif isinstance(node, ZigZagNode):
            zd = amb.from_coeffs(node.z_diag)
            ze = amb.from_coeffs(node.z_down)
            if not 1 <= node.substeps <= MAX_SUBSTEPS or node.total < 0:
                checks.append(Check(f"{prefix}zigzag {node.label}", False, "bad substep data"))
                return None
            s = node.total / node.substeps
            for i in range(node.substeps):
                state, c1 = _ref_checked_step(state, zd, s, f"{prefix}zigzag {node.label} diag {i}")
                if state is None:
                    checks.append(c1)
                    return None
                state, c2 = _ref_checked_step(state, ze, s, f"{prefix}zigzag {node.label} down {i}")
                if state is None:
                    checks.append(c2)
                    return None
            checks.append(Check(f"{prefix}zigzag {node.label} ({node.substeps} substeps)",
                                True, f"total {node.total}"))
        else:
            checks.append(Check(f"{prefix}node", False, f"unexpected node {node!r}"))
            return None
    return state


def _ref_checked_step(state, z, t, name):
    try:
        return ref_inflate_step(state, z, t), Check(name, True, f"t = {t}")
    except PlanError as exc:
        return None, Check(name, False, str(exc))


# -- every kernel step against the Fraction step -----------------------------------

_kernel_step = inflation._step


def _checked_kernel_step(state, c, t):
    """The kernel step on the coefficient tuple c, asserting that its input
    and output states are the integer forms of the Fraction area vectors of
    the reference step on the class with those coefficients."""
    amb, nums, den = state
    before = AreaVector(amb, tuple(Fraction(x, den) for x in nums))
    assert before.integer_form == (nums, den)
    try:
        want = ref_inflate_step(before, amb.from_coeffs(c), t)
    except (PlanError, LatticeError) as exc:
        with pytest.raises(type(exc)) as got:
            _kernel_step(state, c, t)
        assert str(got.value) == str(exc)
        raise
    try:
        out = _kernel_step(state, c, t)
    except (PlanError, LatticeError) as exc:
        raise AssertionError(f"the kernel refuses a step the Fraction step takes: {exc}")
    assert out[0] is amb and out[1:] == want.integer_form
    return out


def _outcome(verify, plan):
    try:
        return [(c.name, c.passed, c.detail) for c in verify(plan)]
    except (PlanError, LatticeError) as exc:
        return type(exc), str(exc)


def _by_node(outcome):
    """The outcome with each failed zig-zag check named by its node alone
    and its detail dropped: the reference names the substep that broke its
    bound, the closed form the node and the one bound that binds."""
    if not isinstance(outcome, list):
        return outcome
    return [(re.sub(r" (diag|down) \d+$", "", name), False, None)
            if not passed and name.lstrip().startswith("zigzag ") else (name, passed, detail)
            for name, passed, detail in outcome]


# -- random targets and tampered plans ---------------------------------------------


@st.composite
def targets(draw):
    g = draw(st.integers(1, 3))
    n = draw(st.integers(0, 20))
    entry = st.fractions(min_value=Fraction(1, 60), max_value=Fraction(29, 60),
                         max_denominator=60)
    d = sorted((draw(entry) for _ in range(n)), reverse=True)
    margin = draw(st.fractions(min_value=Fraction(1, 20), max_value=3, max_denominator=20))
    # inside P_g: d_B > g when n = 0, else 2 - 2g + 2 d_B - sum(d) > 0; the
    # halving is exact, since sum([]) is the int 0
    return NormalizedVector(g, (Fraction(sum(d) + 2 * g - 2, 2) + margin + (n == 0), *d))


def _levels(plan):
    """The plan and every base plan below it, outermost first."""
    out = [plan]
    while out[-1].nodes and isinstance(out[-1].nodes[0], SeedNode) and out[-1].nodes[0].base:
        out.append(out[-1].nodes[0].base)
    return out


def _rebuild(levels, depth, level):
    """The outer plan with the base plan at `depth` replaced by `level`."""
    for outer in reversed(levels[:depth]):
        seed = replace(outer.nodes[0], base=level)
        level = replace(outer, nodes=(seed, *outer.nodes[1:]))
    return level


def _tamper(plan, draw):
    """One change to one node of one level of the plan, or none, and whether
    it changed a coefficient of a zig-zag class (a node of another shape)."""
    kind = draw(st.sampled_from(("none", "t", "substeps", "class", "ambient")))
    levels = _levels(plan)
    depth = draw(st.integers(0, len(levels) - 1))
    level = levels[depth]
    steps = [i for i, nd in enumerate(level.nodes) if not isinstance(nd, SeedNode)]
    if kind == "none" or not steps:
        return plan, False
    i = draw(st.sampled_from(steps))
    node = level.nodes[i]
    if kind == "t":
        scale = draw(st.sampled_from((Fraction(101, 100), Fraction(3, 2), 2, 10, 1000)))
        node = (replace(node, t=node.t * scale) if isinstance(node, InflateNode)
                else replace(node, total=node.total * scale))
    elif kind == "substeps":
        if not isinstance(node, ZigZagNode):
            return plan, False
        node = replace(node, substeps=draw(st.sampled_from((0, 1, 2, 3, 2 * node.substeps))))
    else:
        field = "z" if isinstance(node, InflateNode) else draw(st.sampled_from(("z_diag",
                                                                               "z_down")))
        coeffs = list(getattr(node, field))
        if kind == "class":
            j = draw(st.integers(0, len(coeffs) - 1))
            coeffs[j] += draw(st.sampled_from((-2, -1, 1, 2)))
        else:
            coeffs.append(0)  # a class of the ambient with one more blowup
        node = replace(node, **{field: tuple(coeffs)})
    nodes = list(level.nodes)
    nodes[i] = node
    reshaped = kind == "class" and isinstance(node, ZigZagNode)
    return _rebuild(levels, depth, replace(level, nodes=tuple(nodes))), reshaped


@PROPERTY
@given(targets(), st.data())
def test_verify_plan_matches_the_fraction_replay(target, data):
    with mock.patch.object(inflation, "_step", _checked_kernel_step):
        plan = plan_kahler(target)
        tampered, reshaped = _tamper(plan, data.draw)
        want = _by_node(_outcome(ref_verify_plan, tampered))
        got = _by_node(_outcome(verify_plan, tampered))
    if reshaped:
        # refused at the reshaped node, where the reference may step on
        *before, (name, passed, _) = got
        assert name.lstrip().startswith("zigzag ") and not passed
        assert before == want[:len(before)] and not all(passed for _, passed, _ in want)
    else:
        assert got == want
    if tampered is plan:
        assert all(passed for _, passed, _ in want)


def _steps_of(level):
    """The kernel steps a level of a plan takes after its seed: one per
    inflate node, as a zig-zag node is checked in closed form."""
    return sum(isinstance(nd, InflateNode) for nd in level.nodes[1:])


@PROPERTY
@given(targets())
def test_seed_states_carried_up_equal_the_fraction_seed_states(target):
    # the replay steps the deepest level first, so the first step of each
    # level starts from the state its seed gave
    plan = plan_kahler(target)
    starts = []

    def recording_step(state, c, t):
        starts.append(state)
        return _kernel_step(state, c, t)

    with mock.patch.object(inflation, "_step", recording_step), \
            mock.patch.object(inflation, "_seed_state", wraps=inflation._seed_state) as seeds:
        assert all(c.passed for c in verify_plan(plan))
    # only the primitive seed at the bottom is built from its Fractions
    assert seeds.call_count == 1
    i = 0
    for level in reversed(_levels(plan)):
        if _steps_of(level):
            amb = plan_ambient(level.g, level.n)
            assert starts[i] == inflation._seed_state(level.nodes[0].vector, amb)
        i += _steps_of(level)
    assert i == len(starts)


_PLAN5 = NormalizedVector.of(1, ["4", "2/5", "9/25", "81/250", "729/2500", "6561/25000"])


@pytest.mark.parametrize("field", ["z", "z_diag", "z_down"])
@pytest.mark.parametrize("extra", [(0,), ()])
def test_a_hand_built_class_of_another_length_is_a_lattice_error(field, extra):
    plan = plan_kahler(_PLAN5)
    kind = InflateNode if field == "z" else ZigZagNode
    i, node = next((i, nd) for i, nd in enumerate(plan.nodes) if isinstance(nd, kind))
    coeffs = getattr(node, field)
    nodes = list(plan.nodes)
    nodes[i] = replace(node, **{field: coeffs[:-1] + extra + extra})
    with pytest.raises(LatticeError, match="^coefficient length does not match basis$"):
        verify_plan(replace(plan, nodes=tuple(nodes)))


@pytest.mark.parametrize("depth", [0, 1])
def test_a_hand_built_plan_whose_n_disagrees_with_its_vectors_is_a_lattice_error(depth):
    # its states have n + 2 areas and its classes n + 2 coefficients, but the
    # plan's ambient has n + 3 generators
    levels = _levels(plan_kahler(_PLAN5))
    level = replace(levels[depth], n=levels[depth].n + 1)
    with pytest.raises(LatticeError, match="^coefficient length does not match basis$"):
        verify_plan(_rebuild(levels, depth, level))


@pytest.mark.parametrize("g,n", [(1, 3), (2, 2)])
def test_step_refuses_a_class_of_another_ambient(g, n):
    a = state_from_vector(1, [3, Fraction(1, 3), Fraction(1, 4)])
    z = plan_ambient(g, n).cls(F=1, E1=-1)
    for step in (ref_inflate_step, inflate_step):
        with pytest.raises(LatticeError, match="ambient mismatch"):
            step(a, z, Fraction(1, 10))


# -- the region tests, as they were ------------------------------------------------


def ref_in_region(v: NormalizedVector, variant: str) -> bool:
    d = v.entries
    n = v.n
    db, rest = d[0], d[1:]
    if variant == "P":
        if n == 0:
            return db > 0
        if n == 1:
            return 2 * db - rest[0] ** 2 > 0 and rest[0] < 1
        return (
            2 * db - sum(x * x for x in rest) > 0
            and rest[0] + rest[1] < 1
            and all(rest[i] >= rest[i + 1] for i in range(n - 1))
        )
    if variant == "P_g":
        g = v.g
        if n == 0:
            return db > g
        if n == 1:
            return 2 - 2 * g + 2 * db - rest[0] > 0 and rest[0] < 1
        return (
            2 - 2 * g + 2 * db - sum(rest) > 0
            and rest[0] + rest[1] < 1
            and all(rest[i] >= rest[i + 1] for i in range(n - 1))
        )
    raise PlanError(f"unknown region variant {variant!r}")


def ref_region_slack(v: NormalizedVector) -> Fraction:
    d = v.entries
    n = v.n
    slacks = []
    if n == 0:
        slacks.append(d[0] - 1)
    elif n == 1:
        slacks.append(2 * d[0] - d[1])
        slacks.append(1 - d[1])
    else:
        slacks.append(2 * d[0] - sum(d[1:]))
        slacks.append(1 - d[1] - d[2])
    return min(slacks)


@st.composite
def region_vectors(draw):
    """Vectors near and on every boundary: entries of small denominators, at
    most 1/2 or 11/12, so that ties and rest[0] + rest[1] = 1 are common, and
    d_B on the boundary of the head inequality of P or P_g, of d_B > g, or
    where both slacks of region_slack are equal, give or take a little."""
    g = draw(st.integers(1, 3))
    n = draw(st.integers(0, 20))
    top = draw(st.sampled_from((Fraction(1, 2), Fraction(11, 12))))
    entry = st.fractions(min_value=Fraction(1, 12), max_value=top, max_denominator=12)
    rest = [draw(entry) for _ in range(n)]
    order = draw(st.sampled_from(("sorted", "ties", "any")))
    if order != "any":
        rest.sort(reverse=True)
    if order == "ties" and n >= 2:
        i = draw(st.integers(0, n - 2))
        rest[i + 1] = rest[i]
    if n >= 2 and draw(st.booleans()):
        rest[1] = 1 - rest[0]  # on the boundary rest[0] + rest[1] = 1
    if n == 1 and draw(st.booleans()):
        rest[0] = Fraction(1)  # on the boundary rest[0] = 1
    edge = draw(st.sampled_from(("P", "P_g", "slack", "free")))
    if n == 0:
        db = {"P": Fraction(g), "P_g": Fraction(g), "slack": Fraction(1)}.get(edge, Fraction(0))
    elif edge == "P":
        db = sum(x * x for x in rest) / 2
    elif edge == "P_g":
        db = Fraction(sum(rest) - 2 + 2 * g, 2)
    elif edge == "slack":  # 2 d_B - sum(d) = 1 - d_1 - d_2: both slacks equal
        db = (sum(rest) + 1 - sum(rest[:2])) / 2
    else:
        db = Fraction(0)
    db += draw(st.sampled_from((0, 0, Fraction(1, 144), -Fraction(1, 144), Fraction(1, 2))))
    if db <= 0:
        db = draw(st.sampled_from((Fraction(1, 7), Fraction(5, 2), 3)))
    return NormalizedVector(g, (db, *rest))


@settings(max_examples=300, deadline=None)
@given(region_vectors())
def test_integer_regions_match_the_fraction_regions(v):
    for variant in ("P", "P_g"):
        assert in_region(v, variant) is ref_in_region(v, variant), variant
    slack = region_slack(v)
    assert slack == ref_region_slack(v) and isinstance(slack, Fraction)


@pytest.mark.parametrize("v", [
    NormalizedVector(2, (2,)),  # d_B = g
    NormalizedVector(1, (Fraction(1, 2), Fraction(1))),  # d_1 = 1
    NormalizedVector(1, (Fraction(1, 8), Fraction(1, 2))),  # 2 d_B = d_1^2
    NormalizedVector(3, (Fraction(17, 8), Fraction(1, 2), Fraction(1, 2), Fraction(1, 4))),
    NormalizedVector(1, (3, Fraction(1, 3), Fraction(2, 3))),  # sum 1, out of order
])
def test_integer_regions_on_boundaries(v):
    for variant in ("P", "P_g"):
        assert in_region(v, variant) is ref_in_region(v, variant)
    assert region_slack(v) == ref_region_slack(v)
    with pytest.raises(PlanError, match="unknown region variant"):
        in_region(v, "Q")


# -- exact entries only ------------------------------------------------------------


def test_normalized_vectors_refuse_inexact_entries():
    with pytest.raises(PlanError, match="not exact"):
        NormalizedVector(1, (1.05,))
    with pytest.raises(PlanError, match="positive"):
        NormalizedVector(1, (3, Fraction(-1, 2)))
    assert NormalizedVector(1, (3, Fraction(1, 2))).entries == (3, Fraction(1, 2))


def test_a_float_target_is_not_in_p_g():
    plan = plan_kahler(NormalizedVector.of(2, ["3", "1/3", "1/4"]))
    assert all(passed for _, passed, _ in _outcome(verify_plan, plan))
    floats = replace(plan, target=tuple(float(x) for x in plan.target))
    checks = verify_plan(floats)
    assert checks[0].name == "target lies in P_g" and not checks[0].passed
