"""Normalized area vectors on blown-up irrational ruled manifolds, the
membership regions for symplectic and negative-canonical-pairing forms,
and the recursive inflation planner realizing any vector of the latter
region as a reachable class.

A normalized reduced vector (d_B, d_1, .., d_n) records the areas of
B, E_1, .., E_n with the fiber normalized to area 1.  Inflating along a
class Z adds t * (Z . x) to every area; for Z.Z < 0 the step size is
bounded by area(Z) / (-Z.Z).  Plans are nested: a seed node carries the
plan for the smaller manifold plus the small area given to the new
exceptional sphere, and zig-zag nodes alternate z_diag = F - E_a - E_b and
z_down = E_b in N equal substeps.

At odd n = 2k - 1 >= 3 the step is t = simplest_in(cap/2, cap) with
cap = min((3/4) d_n / (1 - d_n), (1 - d_3 - d_4) / 2), the second term
(k >= 3) half the least gap 1 - d_a - d_b of the zig-zag pairs
(2l - 1, 2l), l = 2..k-1, as the entries of a P_g vector do not increase.
- The base stays in P_g for any 0 < t < d_n / (1 - d_n): its entries are
  (1 + t) d_B - (k - 1) t, (1 + t) d_1 and (1 + t) d_j - t (j = 2..n-1), and
  the new sphere's eps = (1 + t) d_n - t > 0.  With h > 0 the target's head
  2 - 2g + 2 d_B - sum d_j, the base's head is (1 + t) h + eps + (2g - 2) t;
  its first pair sums to (1 + t)(d_1 + d_2) - t < 1; the order is kept; and
  every entry is at least eps or follows from the head.
- Every zig-zag node needs one substep.  At the node of (a, b) the fiber has
  area 1 and E_a, E_b are still the seed's, so area(z_diag) is
  A = (1 + t)(1 - d_a - d_b) + t, and the least count floor(t / (A - t)) + 1
  is 1 as t <= (1 - d_a - d_b) / 2.  The planner emits its nodes from the
  seed entries and steps nothing; the replay checks them.

The replay checks a zig-zag node in closed form, in O(n) whatever its N.
With s = total / N, each pair of substeps adds s to B and E_a and leaves
every other area, so all stay positive, every down bound s < e_b + s holds,
and after i pairs area(z_diag) = A - i*s.  The diag bound 2s < A - i*s
binds last: (N + 1) * total < N * A, tested on integer forms.  As (N + 1)/N
falls with N, a node accepted at N is accepted at every larger N up to
MAX_SUBSTEPS: the count buys no work.

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
    coeffs_in,
    integer_form_of,
)


class PlanError(ValueError):
    pass


# the most substeps a zig-zag node may take in a replay
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


def region_slack(entries: tuple[Fraction, ...]) -> Fraction:
    """Smallest slack of the strict inequalities of P_g at g = 1 on entries (d_B, d_1, ..)."""
    (db, *rest), den = integer_form_of(entries)
    if not rest:
        return Fraction(db - den, den)
    return Fraction(min(2 * db - sum(rest), den - sum(rest[:2])), den)


# -- states and the inflation step ------------------------------------------------


def plan_ambient(g: int, n: int) -> AmbientLattice:
    return AmbientLattice.ruled_trivial(g, n)


# A kernel state (ambient, nums, den) is the integer form of an area vector:
# area i is nums[i] / den with gcd(den, *nums) == 1, as in
# AreaVector.integer_form.  The replay steps on states; AreaVector
# objects are built only for callers of the public inflate_step.


def _seed_state(entries, amb: AmbientLattice):
    """The kernel state of the areas (B, F, E_1, ..) = (d_B, 1, d_1, ..) on
    amb, for positive entries."""
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


def _zigzag(state, zd: tuple[int, ...], ze: tuple[int, ...], total: Fraction, substeps: int):
    """The kernel state a zig-zag node ends in, checked in closed form (module
    docstring): B and E_a gain total, and one gcd reduces the result."""
    amb, nums, den = state
    if not len(zd) == len(ze) == len(nums) == len(amb.names):
        raise LatticeError("coefficient length does not match basis")
    if amb.kind != KIND_RULED:
        raise PlanError("inflation steps run on trivial ruled ambients")
    ex = [i for i in range(2, len(zd)) if zd[i]]
    b = ze.index(1) if 1 in ze else None
    if not (zd[:2] == (0, 1) and len(ex) == 2 and zd[ex[0]] == zd[ex[1]] == -1
            and b in ex and ze.count(0) == len(ze) - 1):
        raise PlanError(f"{amb.from_coeffs(zd)}, {amb.from_coeffs(ze)} are not F-Ea-Eb and Eb")
    a = ex[0] + ex[1] - b
    az = nums[1] - nums[a] - nums[b]
    if az <= 0:
        raise PlanError(f"class {amb.from_coeffs(zd)} has non-positive area")
    p, q = total.numerator, total.denominator
    pd = p * den
    if (substeps + 1) * pd >= substeps * az * q:
        raise PlanError(f"{substeps} substeps of total {total} break the last diag bound "
                        f"along {amb.from_coeffs(zd)}")
    out = [x * q for x in nums]
    out[0] += pd
    out[a] += pd
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


def _replay(plan: InflationPlan, checks: list[Check], prefix: str, amb=None):
    """The kernel state the plan ends in, or None after appending the
    failed check that stopped the replay.  A base plan of the plan's (g, n - 1)
    is replayed on the plan's ambient less E_n; any other gets its own."""
    amb = amb or plan_ambient(plan.g, plan.n)
    if not plan.nodes or not isinstance(plan.nodes[0], SeedNode):
        checks.append(Check(f"{prefix}seed first", False, "plan must start with a seed node"))
        return None
    seed = plan.nodes[0]
    if seed.base is not None:
        if seed.base.g != plan.g:
            detail = f"base g = {seed.base.g}, plan g = {plan.g}"
            checks.append(Check(f"{prefix}seed base has the plan's genus", False, detail))
            return None
        below = amb.without(amb.dim - 1) if seed.base.n == plan.n - 1 >= 0 else None
        sub_state = _replay(seed.base, checks, prefix + "  ", below)
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
                state = _zigzag(state, zd, ze, node.total, node.substeps)
                checks.append(Check(f"{name} ({node.substeps} substeps)", True,
                                    f"total {node.total}"))
            else:
                checks.append(Check(f"{prefix}node", False, f"unexpected node {node!r}"))
                return None
    except PlanError as exc:
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
    The interval is (a/b, c/d) on integers, d = 0 meaning +infinity, and
    (p1, q1, p0, q0) carry x = (p1*y + p0) / (q1*y + q0) in the current
    variable y; one Fraction is built, at the end."""
    a, b, c, d = lo.numerator, lo.denominator, hi.numerator, hi.denominator
    p1, q1, p0, q0 = 1, 0, 0, 1
    lo_open, hi_open = True, False
    while True:
        n, r = divmod(a, b)
        k = n if (r == 0 and not lo_open) else n + 1
        if d == 0 or k * d < c or (k * d == c and not hi_open):
            return Fraction(p1 * k + p0, q1 * k + q0)
        p1, q1, p0, q0 = p1 * n + p0, q1 * n + q0, p1, q1
        a, b, c, d = d, c - n * d, b, r
        lo_open, hi_open = hi_open, lo_open


def _build(g: int, d: tuple[Fraction, ...]) -> InflationPlan:
    """The plan for d.  Its classes are coefficient tuples on (B, F, E_1, .., E_n),
    E_j at index j + 1, and each label is the text str(HomologyClass) gives."""
    n = len(d) - 1
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
        cap = min(d[n], region_slack(d)) / 4
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
        z = (0, 1) + (0,) * (n - 2) + (-1, -1)
        return InflationPlan(g, n, d, (seed, InflateNode(z, f"F-E{n - 1}-E{n}", t)))

    # odd n = 2k - 1 >= 3, with the cap of the module docstring
    k = (n + 1) // 2
    cap = Fraction(3, 4) * d[n] / (1 - d[n])
    if k > 2:
        cap = min(cap, (1 - d[3] - d[4]) / 2)
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
    nodes: list[PlanNode] = [seed, InflateNode((0, 1) + (0,) * (n - 1) + (-1,), f"F-E{n}", t)]
    for el in range(2, k):  # E_{2l-1}, E_{2l} at indices 2l, 2l + 1
        head, tail = (0,) * (2 * el - 2), (0,) * (n - 2 * el)
        nodes.append(ZigZagNode((0, 1, *head, -1, -1, *tail), (0, 0, *head, 0, 1, *tail),
                                f"E{2 * el - 1}/E{2 * el}", t, 1))
    zb = (1, 0, *((0, -1) * k)[:n])  # B - E_2 - E_4 - .. - E_{n-1}
    nodes.append(InflateNode(zb, "B" + "".join(f"-E{j}" for j in range(2, n, 2)), t))
    return InflationPlan(g, n, d, tuple(nodes))

