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

Every stage runs one contraction loop: the stage names its ordered
candidates, or the terminal that ends it, and the first candidate that
blows down is contracted.  No class is blown down to rank it.

Every trace step stores the full blowdown data so that replaying the trace
as blowups from the terminal configuration reproduces the input exactly.
`NEXT_STAGE` states the order of the stages once: certify walks it, and the
checker validates the recorded traces against it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .checks import Check
from .divisor import (
    DivisorConfig,
    check_hypothesis,
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
    area,
    canonical,
    is_exceptional_class,
    pair,
)
from .moves import BlowdownStep, MoveError, blowdown, detect_pattern, replay_state


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


def verify_trace(trace: ReductionTrace, initial: DivisorConfig) -> list[Check]:
    """Replay every step as a blowup on coefficient tuples and compare it with the step's input,
    building no configuration.  blowdown validates nothing, so this carries the validity of the
    first input down the trace (see moves.blowdown): a forged step fails its replay."""
    out, cur = [], initial
    for i, ts in enumerate(trace.steps):
        pre = ts.blowdown.pre_config
        replays = replay_state(ts.blowdown).matches(pre)
        out.extend(step_checks(trace.stage, i, ts, pre == cur, replays))
        cur = ts.blowdown.config
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


def _reduce(stage: str, config: DivisorConfig, w: AreaVector, next_step) -> Staged:
    """The contraction loop of every stage.  next_step(cur, curw) returns the
    terminal name that ends the stage, or the ordered candidates with the
    label naming them in the error.  The first candidate that blows down is
    contracted and recorded as a trace step; every step keeps the
    adjoint-area hypothesis, so a step after the first starts from the
    previous step's hyp_after."""
    steps: list[TraceStep] = []
    cur, curw = config, w
    while True:
        nxt = next_step(cur, curw)
        if isinstance(nxt, str):
            return cur, curw, ReductionTrace(stage, tuple(steps), nxt)
        candidates, label = nxt
        hyp_before = steps[-1].hyp_after if steps else check_hypothesis(cur, curw)
        errors = []
        for cand in candidates:
            try:
                bd = blowdown(cur, cand, curw)
                break
            except (MoveError, NormalizeError) as exc:
                errors.append(f"{cand}: {exc}")
        else:
            raise ReductionError(f"stuck in {label} reduction on {cur.ambient.describe()}; tried "
                                 f"{len(candidates)} candidates: " + " | ".join(errors))
        hyp_after = check_hypothesis(bd.config, bd.new_area)
        steps.append(TraceStep(bd, cur.ambient.b2, bd.config.ambient.b2, hyp_before, hyp_after))
        if not hyp_after:
            raise ReductionError(f"blowdown of {bd.target} lost the adjoint-area hypothesis")
        cur, curw = bd.config, bd.new_area


# -- quasi-minimal reduction ----------------------------------------------------


def quasi_minimal_reduce(config: DivisorConfig, w: AreaVector) -> Staged:
    """Contract minimal-area classes until the pair is quasi-minimal or
    b2 <= 2.  A quasi-minimal terminal's trace carries the KindInfo it was
    classified with, which the next stage starts from."""
    info = None

    def next_step(cur, curw):
        nonlocal info
        if cur.ambient.b2 <= 2:
            return "SmallB2"
        es = enumerate_exceptional(cur.ambient, curw)
        mins = minimal_area(es)
        d = total_class(cur)
        if any(pair(m, d) >= 2 for m in mins):
            info = classify_kind(cur, es, d)
            return "QuasiMinimalFirstKind" if info.kind == "first" else "QuasiMinimalSecondKind"
        return mins, "quasi-minimal"

    cur, curw, trace = _reduce("quasi_minimal", config, w, next_step)
    return cur, curw, replace(trace, classification=info)


@dataclass(frozen=True)
class KindInfo:
    kind: str  # "first" | "second"
    e_min: HomologyClass
    carrier: str | None


def classify_kind(config: DivisorConfig, es: ExceptionalSet, d: HomologyClass) -> KindInfo:
    """Certify -[D]-K as the unique minimal-area exceptional class meeting
    [D] twice, and split by whether a component carries it.  es is the
    enumeration of config's ambient at its areas under the default area
    bound and d the total class [D] of config, which the caller has already
    made."""
    cand = -(d + canonical(config.ambient))
    if not is_exceptional_class(cand):
        raise ClassifyError(f"-[D]-K = {cand} is not an exceptional class")
    if area(cand, es.w).numerator <= 0:
        raise ClassifyError(f"-[D]-K = {cand} has non-positive area")
    mins = minimal_area(es)
    if mins != [cand]:
        raise ClassifyError(
            f"-[D]-K = {cand} is not the unique minimal-area class (got {mins})"
        )
    if pair(cand, d) != 2:
        raise ClassifyError(f"E_min.[D] = {pair(cand, d)}, expected 2")
    carriers = [c.id for c in config.components if c.cls == cand]
    if carriers:
        cid = carriers[0]
        if config.degree(cid) != 3:
            raise ClassifyError(
                f"second-kind carrier {cid} meets {config.degree(cid)} components, expected 3"
            )
        return KindInfo("second", cand, cid)
    return KindInfo("first", cand, None)


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

    def next_step(cur, curw):
        nonlocal info
        if cur.ambient.b2 <= 2:
            return "SmallB2"
        d = total_class(cur)
        if cur is not config:  # every pass after the first follows one blowdown
            info = classify_kind(cur, enumerate_exceptional(cur.ambient, curw), d)
            if info.kind != "first":
                raise ReductionError("pair left the first-kind regime during reduction")
        emin = info.e_min

        toric = [  # c.c = -1 and c.([D] - c) = 2
            c for c in cur.components
            if pair(c.cls, c.cls) == -1 and pair(c.cls, d) == 1
        ]
        for c in toric:
            if pair(c.cls, emin) != 0:
                raise ClassifyError(
                    f"toric candidate {c.id} meets E_min; quasi-minimality violated"
                )
        toric.sort(key=lambda c: (area(c.cls, curw), c.id))
        if toric:
            return [c.cls for c in toric], "partially-minimal(toric)"

        # the generators E_i read on coefficients, E_i.x = -x_i: E_i.E_min = 0 and E_i.c >= 0
        # for every component c, which E_i.E_i = -1 keeps from being a component
        cls = [c.cls.coeffs for c in cur.components]
        nontoric = [cur.ambient.basis_class(cur.ambient.names[i]) for i in cur.ambient.exc_indices
                    if emin.coeffs[i] == 0 and all(v[i] <= 0 for v in cls)]
        for g in nontoric:
            if pair(g, d) != 1:
                raise ClassifyError(f"non-toric candidate {g} pairs {pair(g, d)} with [D]")
        nontoric.sort(key=lambda g: (area(g, curw), g.coeffs))
        if nontoric:
            return nontoric, "partially-minimal(non-toric)"
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
    """Greedy blowdowns (cheapest class first, toric before half-toric
    before non-toric before exterior) until b2 <= 2; info classifies config
    (the quasi-minimal trace carries it).  The incidence pattern
    ranks a class without blowing it down; a class no pattern matches is
    dropped, and since (area, rank, coefficients) is a total order the
    first class that blows down is the least one that does."""
    if info.kind != "second":
        raise ReductionError("second-kind reduction expects a second-kind pair")

    def next_step(cur, curw):
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
        return [t[-1] for t in sorted(ranked)], "second-kind"

    return _reduce("second_kind", config, w, next_step)


def small_b2_reduce(config: DivisorConfig, w: AreaVector) -> Staged:
    """A b2 <= 2 terminal outside the minimal-model table (a lone fiber
    sphere in the one-point blowup) contracts further: the first class that
    blows down, until a table case appears or b2 = 1."""

    def next_step(cur, curw):
        if cur.ambient.b2 <= 1 or classify_minimal_model(cur) is not None:
            return "SmallB2"
        return enumerate_exceptional(cur.ambient, curw).classes, "small-b2"

    return _reduce("small_b2", config, w, next_step)


# -- minimal model classification ----------------------------------------------------


@dataclass(frozen=True)
class MinimalModelTag:
    case: str
    params: dict


def classify_minimal_model(config: DivisorConfig) -> MinimalModelTag | None:
    """Match b2 <= 2 configurations against the minimal model tables; None
    when nothing matches."""
    if validate(config):
        return None
    model = MINIMAL_AMBIENTS.get((config.ambient.kind, config.ambient.n_exc))
    return model[0](config) if model else None


def _classify_pp(config):
    degrees = sorted(c.cls.coeffs[0] for c in config.components)
    if degrees == [1, 2]:
        return MinimalModelTag("A1", {})
    if degrees == [1, 1, 1]:
        return MinimalModelTag("A2", {})
    if degrees == [1]:
        return MinimalModelTag("A1p", {})
    if degrees == [1, 1]:
        return MinimalModelTag("A2p", {})
    if degrees == [2]:
        return MinimalModelTag("A3p", {})
    return None


def _classify_product(config):
    coords = [tuple(c.cls.coeffs) for c in config.components]
    for swap in (False, True):
        pts = [(b, a) if swap else (a, b) for a, b in coords]
        tag = _match_product(sorted(pts))
        if tag is not None:
            return tag
    return None


def _match_product(pts):
    # log Calabi-Yau cycles
    if len(pts) == 2 and all(b == 1 for _, b in pts) and pts[0][0] + pts[1][0] == 2:
        return MinimalModelTag("B1", {"k": max(p[0] for p in pts)})
    if len(pts) == 3 and (1, 0) in pts:
        rest = [p for p in pts if p != (1, 0)]
        if len(rest) == 2 and all(b == 1 for _, b in rest) and rest[0][0] + rest[1][0] == 1:
            return MinimalModelTag("B2", {"k": max(p[0] for p in rest)})
    if len(pts) == 4 and pts.count((1, 0)) == 2:
        rest = [p for p in pts if p != (1, 0)]
        if len(rest) == 2 and all(b == 1 for _, b in rest) and rest[0][0] + rest[1][0] == 0:
            return MinimalModelTag("B3", {"k": max(p[0] for p in rest)})
    # strictly negative adjoint area shapes
    head = [p for p in pts if p != (0, 1)]
    if len(head) == 1 and head[0][0] == 1 and len(pts) - 1 == pts.count((0, 1)):
        return MinimalModelTag("B1p", {"k": head[0][1], "n": len(pts)})
    if len(pts) == 3 and (0, 1) in pts:
        rest = [p for p in pts if p != (0, 1)]
        if (
            len(rest) == 2
            and all(p[0] == 1 for p in rest)
            and rest[0][1] + rest[1][1] == 0
            and max(r[1] for r in rest) >= 0
        ):
            return MinimalModelTag("B2p", {"k": max(r[1] for r in rest)})
    if len(pts) == 2 and all(p[0] == 1 for p in pts) and pts[0][1] + pts[1][1] == 1:
        k = max(pts[0][1], pts[1][1]) - 1
        if k >= 0:
            return MinimalModelTag("B3p", {"k": k})
    return None


def _fs_coords(config):
    # (a, c) -> alpha*f + beta*s with f = H - E, s = H
    out = []
    for c in config.components:
        a, e = c.cls.coeffs
        out.append((-e, a + e))
    return sorted(out)


def _classify_one_blowup(config):
    pts = _fs_coords(config)
    if len(pts) == 2 and all(b == 1 for _, b in pts) and pts[0][0] + pts[1][0] == 1:
        return MinimalModelTag("C1", {"k": max(p[0] for p in pts)})
    if sorted(pts) == sorted([(0, 2), (1, 0)]):
        return MinimalModelTag("C1", {"k": None, "variant": "2s+f"})
    if len(pts) == 3 and (1, 0) in pts:
        rest = [p for p in pts if p != (1, 0)]
        if len(rest) == 2 and all(b == 1 for _, b in rest):
            ks = sorted(r[0] for r in rest)
            if ks[0] + ks[1] == 0:
                return MinimalModelTag("C2", {"k": ks[1]})
            if ks[0] + ks[1] == -1 and ks[1] >= 0:
                return MinimalModelTag("C2p", {"k": ks[1]})
    if len(pts) == 4 and pts.count((1, 0)) == 2:
        rest = [p for p in pts if p != (1, 0)]
        if len(rest) == 2 and all(b == 1 for _, b in rest) and rest[0][0] + rest[1][0] == -1:
            return MinimalModelTag("C3", {"k": max(r[0] for r in rest)})
    head = [p for p in pts if p != (1, 0)]
    if len(head) == 1 and head[0][1] == 1 and len(pts) - 1 == pts.count((1, 0)):
        return MinimalModelTag("C1p", {"k": head[0][0], "n": len(pts)})
    if len(pts) == 2 and all(b == 1 for _, b in pts) and pts[0][0] + pts[1][0] == 0:
        k = max(p[0] for p in pts)
        if k >= 0:
            return MinimalModelTag("C3p", {"k": k})
    return None


# the minimal ambients of the model tables, by kind and number of exceptional
# generators: the classifier of each and the coefficients of its fiber classes
MINIMAL_AMBIENTS = {
    (KIND_PP, 0): (_classify_pp, ()),
    (KIND_S2S2, 0): (_classify_product, ((1, 0), (0, 1))),
    (KIND_RATIONAL, 1): (_classify_one_blowup, ((1, -1),)),
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
