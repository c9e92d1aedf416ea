"""Blowdown reduction pipelines for divisor configurations.

Rational ambients: repeatedly contract the minimal-area exceptional class
until the pair is quasi-minimal (the minimal class meets the total divisor
class at least twice) or b2 <= 2.  Quasi-minimal pairs split into first and
second kind by whether the minimal class occurs among the components; the
first kind admits a further partially-minimal reduction to a chain, the
second kind a greedy reduction to b2 <= 2.  Both start from the
classification the quasi-minimal stage hands over on its trace.

Irrational ruled ambients are not reduced (see `comb_shape_problems`).
The stages assume a valid connected pair on a rational ambient with
negative adjoint area, checked once on `cusp.build_certificate`'s path.

Every stage runs one contraction loop: the stage names the one class it
contracts, or the terminal that ends it, and `_reduce` says why that class
blows down.  No class is blown down to choose it.

Every trace step stores the full blowdown data so that replaying the trace
as blowups from the terminal configuration reproduces the input exactly.
`NEXT_STAGE` states the order of the stages once: certify walks it, and the
checker validates the recorded traces against it.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, replace
from fractions import Fraction

from .checks import Check
from .divisor import (
    DivisorConfig,
    adjoint_area,
    total_class,
    validate,
)
from .exceptional import (
    ExceptionalSet,
    NormalizeError,
    enumerate_exceptional,
    minimal_area,
)
from .lattice import (
    KIND_PP,
    KIND_RATIONAL,
    KIND_S2S2,
    AreaVector,
    HomologyClass,
    add_multiple,
    area,
    canonical,
    is_exceptional_class,
    pair,
    pairing_row,
)
from .moves import BlowdownStep, MoveError, blowdown, blowup_states, detect_pattern


class ReductionError(ValueError):
    pass


class ClassifyError(ReductionError):
    pass


# (stage, terminal) of a trace -> the stage certify runs after it: the
# stages after quasi-minimality must follow, a small-b2 trace is recorded
# only when it contracts something, and None ends the reduction
NEXT_STAGE = {
    ("quasi_minimal", "QuasiMinimalFirstKind"): "partially_minimal",
    ("quasi_minimal", "QuasiMinimalSecondKind"): "second_kind",
    ("quasi_minimal", "SmallB2"): "small_b2",
    ("partially_minimal", "QuasiMinimalFirstKind"): None,
    ("partially_minimal", "SmallB2"): "small_b2",
    ("second_kind", "SmallB2"): "small_b2",
    ("small_b2", "SmallB2"): None,
}


@dataclass(frozen=True)
class TraceStep:
    blowdown: BlowdownStep
    b2_before: int
    b2_after: int
    hyp_before: bool
    hyp_after: bool

    @property
    def target(self) -> HomologyClass:
        return self.blowdown.target

    @property
    def kind(self) -> str:
        return self.blowdown.kind


@dataclass(frozen=True)
class ReductionTrace:
    stage: str
    steps: tuple[TraceStep, ...]
    terminal: str
    # how a quasi-minimal terminal was classified; None on every other trace
    classification: KindInfo | None = None


# what every stage returns: its terminal configuration, the areas there, and its trace
Staged = tuple[DivisorConfig, AreaVector, ReductionTrace]


def verify_trace(traces: list[ReductionTrace], initial: DivisorConfig) -> list[Check]:
    """The step checks of traces, which start at initial, in trace order, from one pass up:
    moves.blowup_states, on coefficient tuples, blows the last terminal up through every step
    and compares each state with the step's input.  blowdown validates nothing, so this carries
    initial's validity down the traces (see moves.blowdown).  After a step that fails, the pass
    starts again from the recorded result of the step before it: each failure names its step."""
    steps = [(tr.stage, i, ts.blowdown, ts) for tr in traces for i, ts in enumerate(tr.steps)]
    out, states = [], None
    for j in reversed(range(len(steps))):
        stage, i, bd, ts = steps[j]
        if states is None:
            states = blowup_states(bd.config, [(s.contraction, s.move, s.removed_component
                                                or "replayed") for _, _, s, _ in steps[j::-1]])
            next(states)
        try:
            replays = next(states).matches(bd.pre_config)
        except MoveError:
            replays = False
        chains = bd.pre_config == (steps[j - 1][2].config if j else initial)
        out[:0] = step_checks(stage, i, ts, chains, replays)
        states = states if chains and replays else None
    return out


def step_checks(stage: str, i: int, ts: TraceStep, chains: bool, replays: bool) -> list[Check]:
    """The three checks of the i-th step of a trace: it starts where the
    previous step ended, its blowup reproduces its input, and the adjoint
    area is negative on both sides."""
    return [
        Check(f"{stage}[{i}] chains", chains, f"step {ts.kind} {ts.target}"),
        Check(f"{stage}[{i}] replay", replays,
              "blowup of the contracted configuration reproduces the input"),
        Check(f"{stage}[{i}] hypothesis", ts.hyp_before and ts.hyp_after,
              "adjoint area stays negative"),
    ]


# k = e.[D] by (blowdown pattern, whether the sphere is a component): [D] + k e = pi*[D']
ADJOINT_K = {("toric", True): 1, ("non_toric", False): 1, ("half_toric", True): 0,
             ("exterior", False): 0, ("exterior", True): -1}


def carry_adjoint(bd: BlowdownStep, d: tuple[int, ...], adj: Fraction,
                  w: AreaVector) -> tuple[tuple[int, ...], Fraction]:
    """[D'] and area(K' + [D']) after bd from [D] and area(K + [D]) on w, the areas before it:
    [D'] = drop([D] + k e), and the area falls by (1 - k) area(e) (see _reduce)."""
    con = bd.contraction
    k = ADJOINT_K[bd.kind, bd.removed_component is not None]
    if k != 1:
        adj -= (1 - k) * area(con.e, w)
    return con.drop(add_multiple(d, k, con.e.coeffs)), adj


def _reduce(stage: str, config: DivisorConfig, w: AreaVector, next_step) -> Staged:
    """The contraction loop of every stage.  next_step(cur, curw, d) returns the
    terminal name that ends the stage, the class it contracts, or None; d is
    cur's [D] as coefficients.  The class is blown down and recorded as a step.

    [D] and area(K + [D]) are summed once, here, and carried (carry_adjoint):
    across the blowdown of e, K + [D] = pi*(K' + [D']) + (1 - k) e, where k = e.[D]
    is fixed by the pattern (ADJOINT_K): 1 toric or non-toric, 0 half-toric or
    exterior, -1 an exterior sphere that is a component.  area(e) > 0 and k <= 1,
    so the adjoint area never rises: a stage that starts with it negative keeps
    the hypothesis on both sides of every step.

    Why it blows down.  D is a tree of spheres: were D0 a component of genus
    >= 1 or a cycle of components, L = K + [D0] would have L.L - K.L =
    2 p_a(D0) - 2 >= 0, so L or -[D0] = K - L is J-effective (b+ = 1, b1 = 0:
    Li-Liu), making area(K + [D]) >= area(L) >= 0.  Zhang's curve cone theorem
    makes a least-area class E an embedded J-sphere for a tamed J keeping D
    J-holomorphic, so E is a component or meets each one non-negatively; with
    E.[D] <= 1, and distinct neighbours by the tree, that is one of the four
    patterns.  Quasi-minimal skips the lone component's class, whose blowdown
    leaves no divisor.  Partially-minimal (a (-1)-sphere component with two
    neighbours, or a generator meeting one component once), second-kind (a
    class detect_pattern matches) and small-b2 (E1) by construction."""
    steps: list[TraceStep] = []
    cur, curw = config, w
    d, adj = total_class(config).coeffs, adjoint_area(config, w)
    while True:
        e = next_step(cur, curw, d)
        if isinstance(e, str):
            return cur, curw, ReductionTrace(stage, tuple(steps), e)
        where = f"{stage} reduction on {cur.ambient.describe()}"
        if e is None:
            raise ReductionError(f"{where}: no class to contract")
        try:
            bd = blowdown(cur, e, curw)
        except (MoveError, NormalizeError) as exc:
            raise ReductionError(f"{where}: {e} does not blow down: {exc}") from exc
        d, after = carry_adjoint(bd, d, adj, curw)
        steps.append(TraceStep(bd, cur.ambient.b2, bd.config.ambient.b2, adj < 0, after < 0))
        cur, curw, adj = bd.config, bd.new_area, after


def _meets(x: HomologyClass, d: tuple[int, ...]) -> int:
    """x.[D], [D] given by its coefficients in x's ambient."""
    return sum(map(operator.mul, pairing_row(x), d))


# -- quasi-minimal reduction ----------------------------------------------------


def quasi_minimal_reduce(config: DivisorConfig, w: AreaVector) -> Staged:
    """Contract minimal-area classes until the pair is quasi-minimal or
    b2 <= 2.  A quasi-minimal terminal's trace carries the KindInfo it was
    classified with, which the next stage starts from."""
    info = None

    def next_step(cur, curw, d):
        nonlocal info
        if cur.ambient.b2 <= 2:
            return "SmallB2"
        es = enumerate_exceptional(cur.ambient, curw)
        mins = minimal_area(es)
        if any(_meets(m, d) >= 2 for m in mins):
            info = classify_kind(cur, es, d)
            return "QuasiMinimalFirstKind" if info.kind == "first" else "QuasiMinimalSecondKind"
        # the lone component's class has no blowdown: it would leave no divisor
        lone = cur.components[0].cls if len(cur.components) == 1 else None
        return next((m for m in mins if m != lone), None)

    cur, curw, trace = _reduce("quasi_minimal", config, w, next_step)
    return cur, curw, replace(trace, classification=info)


@dataclass(frozen=True)
class KindInfo:
    kind: str  # "first" | "second"
    e_min: HomologyClass
    carrier: str | None


def classify_kind(config: DivisorConfig, es: ExceptionalSet, d: tuple[int, ...]) -> KindInfo:
    """Certify -[D]-K as the unique minimal-area exceptional class meeting
    [D] twice, and split by whether a component carries it.  es is the
    enumeration of config's ambient at its areas under the default area
    bound and d the coefficients of config's [D], which the caller carries."""
    k = canonical(config.ambient).coeffs
    cand = HomologyClass(config.ambient, tuple(-x - y for x, y in zip(d, k)))
    if not is_exceptional_class(cand):
        raise ClassifyError(f"-[D]-K = {cand} is not an exceptional class")
    if area(cand, es.w).numerator <= 0:
        raise ClassifyError(f"-[D]-K = {cand} has non-positive area")
    mins = minimal_area(es)
    if mins != [cand]:
        raise ClassifyError(
            f"-[D]-K = {cand} is not the unique minimal-area class (got {mins})"
        )
    if (meets := _meets(cand, d)) != 2:
        raise ClassifyError(f"E_min.[D] = {meets}, expected 2")
    # the component carrying -[D]-K, if any: a valid pair has one at most
    cid = next((c.id for c in config.components if c.cls == cand), None)
    if cid is not None and config.degree(cid) != 3:
        raise ClassifyError(f"second-kind carrier {cid} meets {config.degree(cid)} components, "
                            "expected 3")
    return KindInfo("first" if cid is None else "second", cand, cid)


# -- partially minimal reduction -------------------------------------------------


def partially_minimal_reduce(config: DivisorConfig, w: AreaVector, info: KindInfo) -> Staged:
    """Remove toric (-1)-components and non-toric exceptional generators
    orthogonal to E_min until none remain.  info classifies config (the
    quasi-minimal trace carries it); every later pass reclassifies.

    Non-toric candidates are restricted to basis generators: the general
    enumeration would keep contracting through basis changes past every
    terminal the chain construction needs, and basis moves suffice for the
    reduction to reach an admissible subchain."""
    if info.kind != "first":
        raise ReductionError("partially minimal reduction expects a first-kind pair")

    def next_step(cur, curw, d):
        nonlocal info
        if cur.ambient.b2 <= 2:
            return "SmallB2"
        if cur is not config:  # every pass after the first follows one blowdown
            info = classify_kind(cur, enumerate_exceptional(cur.ambient, curw), d)
            if info.kind != "first":
                raise ReductionError("pair left the first-kind regime during reduction")
        emin = info.e_min

        toric = [  # c.c = -1 and c.([D] - c) = 2
            c for c in cur.components
            if pair(c.cls, c.cls) == -1 and _meets(c.cls, d) == 1
        ]
        for c in toric:
            if pair(c.cls, emin) != 0:
                raise ClassifyError(
                    f"toric candidate {c.id} meets E_min; quasi-minimality violated"
                )
        if toric:
            return min(toric, key=lambda c: (area(c.cls, curw), c.id)).cls

        # the generators E_i read on coefficients, E_i.x = -x_i: E_i.E_min = 0 and E_i.c >= 0
        # for every component c, which E_i.E_i = -1 keeps from being a component
        cls = [c.cls.coeffs for c in cur.components]
        nontoric = [cur.ambient.basis_class(cur.ambient.names[i]) for i in cur.ambient.exc_indices
                    if emin.coeffs[i] == 0 and all(v[i] <= 0 for v in cls)]
        for g in nontoric:
            if (meets := _meets(g, d)) != 1:
                raise ClassifyError(f"non-toric candidate {g} pairs {meets} with [D]")
        if nontoric:
            return min(nontoric, key=lambda g: (area(g, curw), g.coeffs))
        return "QuasiMinimalFirstKind"

    return _reduce("partially_minimal", config, w, next_step)


# -- good chains ------------------------------------------------------------------


@dataclass(frozen=True)
class GoodChain:
    ids: tuple[str, ...]
    squares: tuple[int, ...]
    k: int  # 1-based
    bullet: int  # 1 or 2


def chain_order(config: DivisorConfig) -> list[str]:
    """Order the components of a chain along its path."""
    ids = config.ids()
    if len(ids) < 2:
        raise ReductionError("chain needs at least two components")
    degs = {i: config.degree(i) for i in ids}
    ends = [i for i in ids if degs[i] == 1]
    if len(ends) != 2 or any(degs[i] > 2 for i in ids):
        raise ReductionError("configuration is not a chain")
    start = min(ends)
    order = [start]
    prev = None
    while len(order) < len(ids):
        nxt = [u for u in config.neighbors(order[-1]) if u != prev]
        if len(nxt) != 1:
            raise ReductionError("configuration is not a chain")
        prev = order[-1]
        order.append(nxt[0])
    return order


def good_chain_candidates(config: DivisorConfig) -> list[GoodChain]:
    """Every (labeling, k) matching one of the two bullets, best first:
    larger k wins, ties break on the labeling."""
    base = chain_order(config)
    candidates = []
    for order in (base, list(reversed(base))):
        squares = [pair(config.component(i).cls, config.component(i).cls) for i in order]
        n = len(order)
        for k in range(1, n):  # 1-based k, k <= n-1
            if squares[k - 1] >= 0 and all(s <= -2 for s in squares[: k - 1]):
                candidates.append((k, 1, tuple(order), tuple(squares)))
        if n >= 3 and squares[0] == -1 and squares[1] == 0:
            candidates.append((2, 2, tuple(order), tuple(squares)))
    candidates.sort(key=lambda t: (-t[0], t[2]))
    return [GoodChain(order, squares, k, bullet) for k, bullet, order, squares in candidates]


# -- second kind -------------------------------------------------------------------

_TYPE_RANK = {"toric": 0, "half_toric": 1, "non_toric": 2, "exterior": 3}


def second_kind_reduce(config: DivisorConfig, w: AreaVector, info: KindInfo) -> Staged:
    """Greedy blowdowns until b2 <= 2, each of the least class by (area, type,
    coefficients), toric before half-toric before non-toric before exterior;
    info classifies config (the quasi-minimal trace carries it).  The
    incidence pattern ranks a class without blowing it down; a class no
    pattern matches is not ranked."""
    if info.kind != "second":
        raise ReductionError("second-kind reduction expects a second-kind pair")

    def next_step(cur, curw, _):
        amb = cur.ambient
        if amb.b2 <= 2:
            return "SmallB2"
        bound = 4 * max(area(amb.basis_class(amb.names[i]), curw) for i in amb.exc_indices)
        es = enumerate_exceptional(amb, curw, area_bound=bound)
        ranked = []
        for e in es.classes:
            try:
                kind = detect_pattern(cur, e)[0]
            except MoveError:
                continue
            ranked.append((area(e, curw), _TYPE_RANK[kind], e.coeffs, e))
        return min(ranked)[-1] if ranked else None

    return _reduce("second_kind", config, w, next_step)


def small_b2_reduce(config: DivisorConfig, w: AreaVector) -> Staged:
    """A b2 <= 2 terminal outside the minimal-model table (a lone fiber sphere in
    the one-point blowup) contracts the first exceptional class, E1, until a table
    case appears or b2 = 1.  Blowdown results are valid when the input is (see
    moves.blowdown), so the table is read without validating them."""

    def next_step(cur, curw, _):
        if cur.ambient.b2 <= 1 or _minimal_model(cur) is not None:
            return "SmallB2"
        return next(iter(enumerate_exceptional(cur.ambient, curw).classes), None)

    return _reduce("small_b2", config, w, next_step)


# -- minimal model classification ----------------------------------------------------


@dataclass(frozen=True)
class MinimalModelTag:
    case: str
    params: dict


def classify_minimal_model(config: DivisorConfig) -> MinimalModelTag | None:
    """Match b2 <= 2 configurations against the minimal model tables; None
    when nothing matches."""
    return None if validate(config) else _minimal_model(config)


def _minimal_model(config: DivisorConfig) -> MinimalModelTag | None:
    model = MINIMAL_AMBIENTS.get((config.ambient.kind, config.ambient.n_exc))
    return model[0](config) if model else None


# CP2: the sorted degrees of the components -> the case
_PP_CASES = {(1, 2): "A1", (1, 1, 1): "A2", (1,): "A1p", (1, 1): "A2p", (2,): "A3p"}


def _classify_pp(config):
    case = _PP_CASES.get(tuple(sorted(c.cls.coeffs[0] for c in config.components)))
    return MinimalModelTag(case, {}) if case else None


def _classify_hirzebruch(config):
    """S2xS2 and CP2#1 are the Hirzebruch surfaces F_0 and F_1, read by one table of
    (fiber, section) coefficients whose twist s.s lowers each target sum.  CP2#1 has
    fiber f = H - E and section s = H, so aH + eE reads (-e, a + e).  S2xS2 is read
    with fiber f2 first, then f1: four configurations match a "p" case in each
    reading, and the f2 reading keeps the tags certificates have always recorded:
    {f2, f1+f2} B1p {k: 1, n: 2} (not B3p {k: 0}), {f1, f1+f2} B3p {k: 0} (not B1p
    {k: 1, n: 2}), {f2, f2, f1} B1p {k: 0, n: 3} (not B2p {k: 0}) and {f2, f1, f1}
    B2p {k: 0} (not B1p {k: 0, n: 3})."""
    coeffs = [c.cls.coeffs for c in config.components]
    if config.ambient.kind == KIND_S2S2:
        return _hirzebruch([(b, a) for a, b in coeffs], 0) or _hirzebruch(coeffs, 0)
    return _hirzebruch([(-e, a + e) for a, e in coeffs], 1)


def _hirzebruch(pts, twist):
    """The B (twist 0) or C (twist 1) case of (fiber, section) points on F_twist,
    sections (x, 1) and fibers (1, 0): cases 1 to 3 are log Calabi-Yau, two sections
    and 0 to 2 fibers, and the "p" cases have strictly negative adjoint area."""
    row = "BC"[twist]
    fibers = pts.count((1, 0))
    secs = [x for x, y in pts if y == 1]
    if len(secs) == 1 and fibers == len(pts) - 1:
        return MinimalModelTag(f"{row}1p", {"k": secs[0], "n": len(pts)})
    if twist and sorted(pts) == [(0, 2), (1, 0)]:
        return MinimalModelTag("C1", {"k": None, "variant": "2s+f"})
    if len(secs) != 2 or fibers != len(pts) - 2 or fibers > 2:
        return None
    total, k = sum(secs), max(secs)
    if total == 2 - fibers - twist:
        return MinimalModelTag(f"{row}{fibers + 1}", {"k": k})
    if fibers == 1 and total == -twist and k >= 0:
        return MinimalModelTag(f"{row}2p", {"k": k})
    if fibers == 0 and total == 1 - twist and k - 1 + twist >= 0:
        return MinimalModelTag(f"{row}3p", {"k": k - 1 + twist})
    return None


# the minimal ambients by kind and number of exceptional generators: the classifier of each
# (CP2 by degrees, S2xS2 and CP2#1 as F_0 and F_1) and the coefficients of its fiber classes,
# which cusp.fiber_route reads
MINIMAL_AMBIENTS = {
    (KIND_PP, 0): (_classify_pp, ()),
    (KIND_S2S2, 0): (_classify_hirzebruch, ((1, 0), (0, 1))),
    (KIND_RATIONAL, 1): (_classify_hirzebruch, ((1, -1),)),
}


# -- irrational ruled combs ------------------------------------------------------------


def comb_shape_problems(config: DivisorConfig) -> list[str]:
    """The comb route's shape rules on a validated ruled configuration: spheres
    of fiber type F - sum(E) or exceptional type E_l - sum(E), and at most
    one section B + kF - sum(E), whose adjunction genus g needs no test."""
    problems = []
    sections = 0
    for c in config.components:
        v = c.cls.coeffs
        b, f = v[0], v[1]
        exc = v[2:]
        if b == 1 and all(x in (0, -1) for x in exc):
            sections += 1
        elif b == 0 and f == 1 and all(x in (0, -1) for x in exc):
            pass
        elif (
            b == 0
            and f == 0
            and sum(1 for x in exc if x == 1) == 1
            and all(x in (0, -1, 1) for x in exc)
        ):
            pass
        else:
            problems.append(f"component {c.id} class {c.cls} matches no allowed shape")
    if sections > 1:
        problems.append(f"{sections} section-type components, at most one allowed")
    return problems
