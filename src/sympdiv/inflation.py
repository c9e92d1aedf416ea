"""Normalized area vectors on blown-up irrational ruled manifolds, the
membership regions for symplectic and negative-canonical-pairing forms,
and the recursive inflation planner realizing any vector of the latter
region as a reachable class.

A normalized reduced vector (d_B, d_1, .., d_n) records the areas of
B, E_1, .., E_n with the fiber normalized to area 1.  Inflating along a
class Z adds t * (Z . x) to every area; for Z.Z < 0 the step size is
bounded by area(Z) / (-Z.Z).  Plans are nested: a seed node carries the
plan for the smaller manifold plus the small area given to the new
exceptional sphere, and zig-zag nodes alternate two classes in N equal
substeps, N in closed form, so every intermediate stays inside the bounds.

The arithmetic runs on integer forms (nums, den): kernel states, region
tests and the replay's seed checks compare integer numerators.  The replay
steps on each class's coefficient tuple, and a seed with a base plan takes
its state from the base plan's end state and epsilon by integer scaling.
Fractions are built only for the fields a plan stores (targets, seed vectors,
epsilons, step sizes) and for the normalized endpoint a replay reports.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction

from .checks import Check, all_passed
from .lattice import (
    KIND_RULED,
    AmbientLattice,
    AreaVector,
    HomologyClass,
    LatticeError,
    area,
    coeffs_in,
    integer_form_of,
    pair,
)


class PlanError(ValueError):
    pass


# the most substeps a zig-zag node may take, in the planner and in a replay
MAX_SUBSTEPS = 2**20


@dataclass(frozen=True)
class NormalizedVector:
    g: int
    entries: tuple[Fraction, ...]  # (d_B, d_1, ..., d_n)

    def __post_init__(self):
        if self.g < 1:
            raise PlanError("base genus must be >= 1")
        for e in self.entries:
            if not isinstance(e, (int, Fraction)):
                raise PlanError(f"entry {e!r} is not exact: use an int or a Fraction")
            if e.numerator <= 0:
                raise PlanError("normalized vector entries must be positive")

    @property
    def n(self) -> int:
        return len(self.entries) - 1

    @staticmethod
    def of(g: int, values) -> "NormalizedVector":
        return NormalizedVector(g, tuple(Fraction(v) for v in values))


def in_region(v: NormalizedVector, variant: str) -> bool:
    """Strict membership in the symplectic region ("P") or the region of
    forms pairing negatively with the canonical class ("P_g"), tested on
    the integer form (db, *rest) / den of the entries."""
    if variant not in ("P", "P_g"):
        raise PlanError(f"unknown region variant {variant!r}")
    (db, *rest), den = integer_form_of(v.entries)
    if not rest:
        return db > (0 if variant == "P" else v.g * den)
    if variant == "P":
        head = 2 * db * den - sum(x * x for x in rest)
    else:
        head = (2 - 2 * v.g) * den + 2 * db - sum(rest)
    return head > 0 and sum(rest[:2]) < den and all(map(operator.ge, rest, rest[1:]))


def region_slack(v: NormalizedVector) -> Fraction:
    """Smallest slack among the strict inequalities of P_g at g = 1."""
    (db, *rest), den = integer_form_of(v.entries)
    if not rest:
        return Fraction(db - den, den)
    return Fraction(min(2 * db - sum(rest), den - sum(rest[:2])), den)


# -- states and the inflation step ------------------------------------------------


def plan_ambient(g: int, n: int) -> AmbientLattice:
    return AmbientLattice.ruled_trivial(g, n)


def state_from_vector(g: int, entries) -> AreaVector:
    """Area vector (B, F, E..) with fiber area 1 from (d_B, d_1, ..)."""
    entries = tuple(Fraction(e) for e in entries)
    amb = plan_ambient(g, len(entries) - 1)
    return AreaVector(amb, (entries[0], Fraction(1)) + entries[1:])


def lam_bound(a: AreaVector, z: HomologyClass) -> Fraction | None:
    """Inflation range along z: None means unbounded (z.z >= 0)."""
    sq = pair(z, z)
    if sq >= 0:
        return None
    return area(z, a) / (-sq)


# A kernel state (ambient, nums, den) is the integer form of an area vector:
# area i is nums[i] / den with gcd(den, *nums) == 1, as in
# AreaVector.integer_form.  Planner and replay step on states; AreaVector
# objects are built only for callers of the public inflate_step.


def _seed_state(entries, amb: AmbientLattice):
    """The kernel state of state_from_vector(amb.g, entries), on amb, for
    positive entries."""
    entries = [e if type(e) is Fraction else Fraction(e) for e in entries]
    return amb, *integer_form_of((entries[0], 1, *entries[1:]))


def _step(state, c: tuple[int, ...], t: Fraction):
    """One inflation step x -> area(x) + t * (z . x) on a kernel state, for
    the class z with coefficient tuple c in the state's ambient.

    z . (B, F, E_i) = (z_F, z_B, -z_Ei), so with t = p/q the new numerators
    over den*q are nums[i]*q + p*den*row[i]; the bound t < area(z) / -z.z
    is tested by cross-multiplying, and one gcd reduces the result back to
    the integer form of its areas.  The class is built only to word an
    error."""
    amb, nums, den = state
    p, q = t.numerator, t.denominator
    if not len(c) == len(nums) == len(amb.names):
        raise LatticeError("coefficient length does not match basis")
    if p < 0:
        raise PlanError("negative inflation parameter")
    if amb.kind != KIND_RULED:
        raise PlanError("inflation steps run on trivial ruled ambients")
    az = sum(map(operator.mul, c, nums))
    if az <= 0:
        raise PlanError(f"class {amb.from_coeffs(c)} has non-positive area")
    row = (c[1], c[0], *map(operator.neg, c[2:]))
    sq = sum(map(operator.mul, c, row))
    pd = p * den
    if sq < 0 and pd * -sq >= az * q:
        lam = Fraction(az, den * -sq)
        raise PlanError(f"t = {t} exceeds the inflation bound {lam} along {amb.from_coeffs(c)}")
    out = [x * q + pd * r for x, r in zip(nums, row)]
    if min(out) <= 0:
        raise PlanError("inflation made a generator area non-positive")
    den *= q
    d = math.gcd(den, *out)
    return amb, tuple(x // d for x in out), den // d


def inflate_step(a: AreaVector, z: HomologyClass, t: Fraction) -> AreaVector:
    """New areas x -> area(x) + t * (z . x); t must respect the bound and
    every generator area must stay positive."""
    _, nums, den = _step((a.ambient, *a.integer_form), coeffs_in(z, a.ambient), Fraction(t))
    return AreaVector(a.ambient, tuple(Fraction(x, den) for x in nums))


def _normalized(state) -> NormalizedVector:
    amb, nums, _ = state
    f = nums[1]
    if f <= 0:
        raise PlanError("fiber area must be positive")
    return NormalizedVector(amb.g, (Fraction(nums[0], f), *(Fraction(x, f) for x in nums[2:])))


def normalize(a: AreaVector) -> NormalizedVector:
    """Divide by the fiber area; only meaningful on ruled ambients."""
    return _normalized((a.ambient, *a.integer_form))


def _normalizes_to(state, entries) -> bool:
    """Whether `entries` are the state's areas (B, E_1, ..) over its fiber
    area, by cross-multiplying; an entry that is not exact never matches."""
    _, (b, f, *rest), _ = state
    return len(entries) == len(rest) + 1 and all(
        isinstance(v, (int, Fraction)) and v.numerator * f == x * v.denominator
        for v, x in zip(entries, (b, *rest))
    )


# -- plans -------------------------------------------------------------------------


@dataclass(frozen=True)
class SeedNode:
    base: "InflationPlan | None"
    epsilon: Fraction | None
    vector: tuple[Fraction, ...]  # normalized entries after the seed
    assumption: str


@dataclass(frozen=True)
class InflateNode:
    z: tuple[int, ...]
    label: str
    t: Fraction


@dataclass(frozen=True)
class ZigZagNode:
    z_diag: tuple[int, ...]
    z_down: tuple[int, ...]
    label: str
    total: Fraction
    substeps: int


PlanNode = SeedNode | InflateNode | ZigZagNode


@dataclass(frozen=True)
class InflationPlan:
    g: int
    n: int
    target: tuple[Fraction, ...]
    nodes: tuple[PlanNode, ...]


def verify_plan(plan: InflationPlan) -> list[Check]:
    """Replay the plan: the target in the region P_g of the plan's own genus,
    seed arithmetic, every bound, every positivity, and exact equality of the
    normalized endpoint with the target."""
    try:
        inside = in_region(NormalizedVector(plan.g, plan.target), "P_g")
    except PlanError:  # a genus below 1 or a non-positive entry
        inside = False
    checks = [Check("target lies in P_g", inside, f"g = {plan.g}")]
    state = _replay(plan, checks, prefix="")
    if state is None:
        return checks
    end = _normalized(state)
    checks.append(
        Check(
            "endpoint equals target exactly",
            end.entries == plan.target,
            f"{[str(e) for e in end.entries]}",
        )
    )
    return checks


def _replay(plan: InflationPlan, checks: list[Check], prefix: str):
    """The kernel state the plan ends in, or None after appending the
    failed check that stopped the replay."""
    amb = plan_ambient(plan.g, plan.n)
    if not plan.nodes or not isinstance(plan.nodes[0], SeedNode):
        checks.append(Check(f"{prefix}seed first", False, "plan must start with a seed node"))
        return None
    seed = plan.nodes[0]
    if seed.base is not None:
        if seed.base.g != plan.g:
            detail = f"base g = {seed.base.g}, plan g = {plan.g}"
            checks.append(Check(f"{prefix}seed base has the plan's genus", False, detail))
            return None
        sub_state = _replay(seed.base, checks, prefix=prefix + "  ")
        if sub_state is None:
            return None
        ok = (
            seed.epsilon is not None
            and seed.epsilon > 0
            and seed.vector[-1:] == (seed.epsilon,)
            and seed.vector[:-1] == seed.base.target
            and _normalizes_to(sub_state, seed.base.target)
        )
        name = f"{prefix}seed extends the base plan by a positive area"
        checks.append(Check(name, bool(ok), f"epsilon = {seed.epsilon}"))
        if not ok:
            return None
        # the seed's areas (b/f, 1, e_i/f, p/q) over f*q, reduced by one gcd
        (b, f, *rest), p, q = sub_state[1], seed.epsilon.numerator, seed.epsilon.denominator
        nums = (b * q, f * q, *(x * q for x in rest), p * f)
        d = math.gcd(*nums)
        state = amb, tuple(x // d for x in nums), f * q // d
    else:
        ok = all(v > 0 for v in seed.vector)
        checks.append(Check(f"{prefix}primitive seed is positive", ok, seed.assumption))
        if not ok:
            return None
        state = _seed_state(seed.vector, amb)

    try:
        for node in plan.nodes[1:]:
            if isinstance(node, InflateNode):
                name = f"{prefix}inflate {node.label}"
                state = _step(state, tuple(map(int, node.z)), node.t)
                checks.append(Check(name, True, f"t = {node.t}"))
            elif isinstance(node, ZigZagNode):
                zd, ze = tuple(map(int, node.z_diag)), tuple(map(int, node.z_down))
                name = f"{prefix}zigzag {node.label}"
                if not 1 <= node.substeps <= MAX_SUBSTEPS or node.total < 0:
                    checks.append(Check(name, False, "bad substep data"))
                    return None
                s = Fraction(node.total) / node.substeps
                for i in range(node.substeps):
                    half = "diag"
                    state = _step(state, zd, s)
                    half = "down"
                    state = _step(state, ze, s)
                name = f"{name} ({node.substeps} substeps)"
                checks.append(Check(name, True, f"total {node.total}"))
            else:
                checks.append(Check(f"{prefix}node", False, f"unexpected node {node!r}"))
                return None
    except PlanError as exc:
        if isinstance(node, ZigZagNode):
            name = f"{name} {half} {i}"
        checks.append(Check(name, False, str(exc)))
        return None
    return state


# -- the planner --------------------------------------------------------------------


def plan_kahler(target: NormalizedVector) -> InflationPlan:
    """Recursive realization of a vector in the negative-pairing region;
    the emitted plan replays exactly onto the target."""
    return _verified_plan(target)[0]


def _verified_plan(target: NormalizedVector) -> tuple[InflationPlan, list[Check]]:
    """The plan for `target` with the checks of the replay that accepted
    it; a plan the replay rejects is a PlanError."""
    if not in_region(target, "P_g"):
        raise PlanError(f"target {tuple(map(str, target.entries))} is outside the region")
    plan = _build(target.g, target.entries)
    checks = verify_plan(plan)
    if not all_passed(checks):
        raise PlanError(f"the replay rejects the plan: {[c for c in checks if not c.passed]}")
    return plan, checks


def simplest_in(lo: Fraction, hi: Fraction) -> Fraction:
    """The rational of least denominator in (lo, hi], for 0 <= lo < hi.

    A Stern-Brocot descent by continued fractions: while no integer lies in
    the interval, take its common integer part n and pass to the reciprocal
    interval of x - n, whose ends swap (and swap between open and closed).
    (p1, q1, p0, q0) carry x = (p1*y + p0) / (q1*y + q0) in the current
    variable y; hi None means +infinity."""
    p1, q1, p0, q0 = 1, 0, 0, 1
    lo_open, hi_open = True, False
    while True:
        n = math.floor(lo)
        k = n if (n == lo and not lo_open) else n + 1
        if hi is None or k < hi or (k == hi and not hi_open):
            return Fraction(p1 * k + p0, q1 * k + q0)
        p1, q1, p0, q0 = p1 * n + p0, q1 * n + q0, p1, q1
        lo, hi = 1 / (hi - n), (None if lo == n else 1 / (lo - n))
        lo_open, hi_open = hi_open, lo_open


def _build(g: int, d: tuple[Fraction, ...]) -> InflationPlan:
    n = len(d) - 1
    amb = plan_ambient(g, n)
    if n == 0:
        seed = SeedNode(
            None, None, d,
            "every symplectic form on a minimal ruled surface is Kahler",
        )
        return InflationPlan(g, 0, d, (seed,))

    if n == 1:
        db, d1 = d
        s = db / d1 - Fraction(1, 2)
        cap = min(1 - d1, s / (s + Fraction(1, 2))) / 4
        eps = simplest_in(cap / 2, cap)
        y = 1 - eps
        t = y / d1 - 1
        x = db * (1 + t)
        seed = SeedNode(
            None, None, (x, y),
            "classes near the unit-fiber ray on the one-point blowup are Kahler",
        )
        return InflationPlan(g, 1, d, (seed, InflateNode((1, 0, 0), "B", t)))

    if n % 2 == 0:
        cap = min(d[n], region_slack(NormalizedVector(1, d))) / 4
        eps = simplest_in(cap / 2, cap)
        t = d[n] - eps
        sub = list(d[:-1])
        sub[0] = d[0] - t
        sub[n - 1] = d[n - 1] - t
        base = _build(g, tuple(sub))
        seed = SeedNode(
            base, eps, tuple(sub) + (eps,),
            "a sufficiently small blowup of a Kahler class stays Kahler",
        )
        z = amb.cls(F=1, **{f"E{n - 1}": -1, f"E{n}": -1})
        return InflationPlan(g, n, d, (seed, InflateNode(z.coeffs, str(z), t)))

    # odd n = 2k - 1 >= 3
    k = (n + 1) // 2
    cap = Fraction(3, 4) * d[n] / (1 - d[n])
    t = simplest_in(cap / 2, cap)
    p, q = t.numerator, t.denominator
    # entry j of the seed is (1 + t) d_j - shift_j t, with t = p/q
    shifts = (k - 1, 0) + (1,) * (n - 1)
    *sub, eps = (
        Fraction((q + p) * x.numerator - sh * p * x.denominator, q * x.denominator)
        for x, sh in zip(d, shifts)
    )
    base = _build(g, tuple(sub))
    seed = SeedNode(
        base, eps, tuple(sub) + (eps,),
        "a sufficiently small blowup of a Kahler class stays Kahler",
    )
    nodes: list[PlanNode] = [seed]
    state = _seed_state(seed.vector, amb)

    z1 = amb.cls(F=1, **{f"E{n}": -1})
    nodes.append(InflateNode(z1.coeffs, str(z1), t))
    state = _step(state, z1.coeffs, t)

    for el in range(2, k):
        z_diag = amb.cls(F=1, **{f"E{2 * el - 1}": -1, f"E{2 * el}": -1})
        z_down = amb.cls(**{f"E{2 * el}": 1})
        substeps, state = _zigzag_substeps(state, z_diag, z_down, t)
        nodes.append(
            ZigZagNode(z_diag.coeffs, z_down.coeffs, f"E{2 * el - 1}/E{2 * el}", t, substeps)
        )

    zb = amb.cls(B=1, **{f"E{j}": -1 for j in range(2, n, 2)})
    nodes.append(InflateNode(zb.coeffs, str(zb), t))
    return InflationPlan(g, n, d, tuple(nodes))


def _zigzag_substeps(state, z_diag, z_down, total):
    """The least substep count whose alternating replay from the kernel
    state stays in bounds, with the state that replay ends in.

    The planner passes z_diag = F - E_a - E_b and z_down = E_b.  A diag
    substep of size s adds s to B, E_a and E_b (its pairing row is 1 at B,
    a and b) and a down substep takes s back from E_b, so after i pairs
    E_a = e_a + i*s, E_b = e_b, F is unchanged, every area is positive,
    every down bound s < e_b + s holds and area(z_diag) = A - i*s.  The
    diag bound 2s < A - i*s binds last, at the N-th pair: (N + 1)*s < A
    with s = total/N.  So N = floor(total / (A - total)) + 1 is the least
    count when A > total (on integer forms, p*den // room + 1 below), and
    no count works otherwise: feasibility is monotone in N."""
    _, nums, den = state
    p, q = total.numerator, total.denominator
    room = sum(map(operator.mul, z_diag.coeffs, nums)) * q - p * den
    n = p * den // room + 1 if room > 0 else MAX_SUBSTEPS + 1
    if n > MAX_SUBSTEPS:
        raise PlanError("zig-zag substep search exhausted")
    s = total / n
    for _ in range(n):
        state = _step(_step(state, z_diag.coeffs, s), z_down.coeffs, s)
    return n, state
