"""Cusp bookkeeping and the affine-ruledness certification pipeline.

A coprime pair (p, q) has a weight sequence from the subtractive Euclid
recursion; those weights are the multiplicities of the exceptional classes
in the normal crossing resolution of a (p, q)-cusp.  An admissible subchain
of a sphere chain produces a class A = sum(c_i [D_i]) with A.A = pq and
A.K = -p-q-1, meeting only the two components at the cusp; resolving at
that point yields a square-zero class checked against the total transform.

certify_affine_ruled is the one entry point: it reduces a rational pair to
a terminal model (a ruled comb is its own), takes the route that model
allows and transports the cusp back to the input.  Every route returns one
`Route` record and decides goodness by `goodness_search`.  One driver,
`build_certificate`, builds the certificate for certify and for the
checker; they differ only in the reduction handed to it, which certify
runs by search along `reduction.NEXT_STAGE` and the checker by replaying
the document, with the chain labeling it records.  Its callers check the
pair's validity and hypothesis, and it refuses a disconnected divisor on a
rational ambient: each precondition of the reduction is checked once.
A resolution blows up at fresh points in one ambient (`moves.FreshBlowups`):
each class and the cusp class are lifted once, each move and multiplicity
is taken off at its sphere's slots, and one configuration is validated;
total transforms and areas read the same extension, whatever the kind.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress

from .checks import Check, failures
from .divisor import (
    DivisorConfig,
    DivisorError,
    adjoint_area,
    is_connected,
    validate,
)
from .exceptional import (
    EnumerationError,
    default_area_bound,
    find_witness,
    goodness_checks,
)
from .lattice import (
    AreaVector,
    HomologyClass,
    area,
    canonical,
    add_multiple,
    coeffs_in,
    combination,
    pair,
)
from .moves import (
    BlowupMove,
    FreshBlowups,
    HalfToricBlowup,
    ToricBlowup,
)
from .reduction import (
    MINIMAL_AMBIENTS,
    NEXT_STAGE,
    ReductionError,
    ReductionTrace,
    classify_minimal_model,
    comb_shape_problems,
    good_chain_candidates,
    partially_minimal_reduce,
    quasi_minimal_reduce,
    second_kind_reduce,
    small_b2_reduce,
    verify_trace,
)


class CuspError(ValueError):
    pass


class CertifyError(ValueError):
    def __init__(self, stage: str, message: str):
        self.stage = stage
        super().__init__(f"[{stage}] {message}")


# -- weight sequences ----------------------------------------------------------


@dataclass(frozen=True)
class WeightSequence:
    p: int
    q: int
    weights: tuple[int, ...]


def weight_sequence(p: int, q: int) -> WeightSequence:
    """Multiplicities min(p_i, q_i) along (p,q) -> (|p-q|, min(p,q)) down
    to (1,1); sum of squares is pq and sum is p+q-1."""
    if p < 1 or q < 1:
        raise CuspError("p and q must be positive")
    if math.gcd(p, q) != 1:
        raise CuspError(f"({p}, {q}) are not coprime")
    weights = []
    a, b = p, q
    while True:
        weights.append(min(a, b))
        if a == b:
            break
        a, b = abs(a - b), min(a, b)
    return WeightSequence(p, q, tuple(weights))


def associated_sequence(a) -> tuple[int, ...]:
    """c_1 = 1, c_2 = a_1, c_i = a_{i-1} c_{i-1} - c_{i-2}."""
    a = tuple(int(x) for x in a)
    if not a:
        raise CuspError("empty sequence")
    c = [1]
    if len(a) >= 2:
        c.append(a[0])
    for i in range(2, len(a)):
        c.append(a[i - 1] * c[i - 1] - c[i - 2])
    return tuple(c)


@dataclass(frozen=True)
class AdmissibleSubchain:
    a: tuple[int, ...]
    c: tuple[int, ...]
    p: int
    q: int
    accepted: bool
    reason: str | None


def admissible_check(a) -> AdmissibleSubchain:
    """Accept when every c_i >= 0 and p := c_{k-1} - c_k a_k is positive,
    with gcd(p, q) = 1 (q := c_k, convention c_0 = 0)."""
    a = tuple(int(x) for x in a)
    c = associated_sequence(a)
    k = len(a)
    for i, ci in enumerate(c):
        if ci < 0:
            return AdmissibleSubchain(a, c, 0, 0, False, f"c_{i + 1} = {ci} < 0")
    prev = c[k - 2] if k >= 2 else 0
    p = prev - c[k - 1] * a[k - 1]
    q = c[k - 1]
    if p <= 0:
        return AdmissibleSubchain(a, c, p, q, False, f"c_(k-1) - c_k a_k = {p} <= 0")
    if math.gcd(p, q) != 1:
        return AdmissibleSubchain(a, c, p, q, False, f"gcd({p}, {q}) != 1")
    return AdmissibleSubchain(a, c, p, q, True, None)


# -- cusp classes ----------------------------------------------------------------


@dataclass(frozen=True)
class CuspData:
    chain_ids: tuple[str, ...]
    k: int
    a: tuple[int, ...]
    c: tuple[int, ...]
    p: int
    q: int
    cls: HomologyClass
    da: str
    db: str | None
    checks: tuple[Check, ...]

    @property
    def spelled(self) -> tuple[tuple[int, int], tuple[int, int]]:
        hi, lo = max(self.p, self.q), min(self.p, self.q)
        return ((hi, lo), (lo, hi))


def cusp_class(config: DivisorConfig, chain_ids, k: int) -> CuspData:
    """Build A = sum(c_i [D_i]) over the admissible subchain D_1..D_k of the
    labeled chain and verify its five defining identities exactly."""
    order = [str(i) for i in chain_ids]
    if sorted(order) != sorted(config.ids()):
        raise CuspError("chain labeling must cover the configuration")
    comps = [config.component(i) for i in order]
    if not 1 <= k < len(comps):
        raise CuspError(f"k = {k} out of range for chain of length {len(comps)}")
    a = tuple(-pair(c.cls, c.cls) for c in comps[:k])
    adm = admissible_check(a)
    if not adm.accepted:
        raise CuspError(f"subchain {a} not admissible: {adm.reason}")
    A = combination(config.ambient, zip(adm.c, (c.cls for c in comps[:k])))
    p, q, kk = adm.p, adm.q, pair(A, canonical(config.ambient))
    dp, dq, sq = pair(A, comps[k - 1].cls), pair(A, comps[k].cls), pair(A, A)
    stray = [c.id for j, c in enumerate(comps) if j not in (k - 1, k) and pair(A, c.cls) != 0]
    checks = [
        Check("A.D_k = p", dp == p, f"{dp} vs {p}"),
        Check("A.D_k+1 = q", dq == q, f"{dq} vs {q}"),
        Check("A orthogonal to other components", not stray, ", ".join(stray)),
        Check("A.A = pq", sq == p * q, f"{sq} vs {p * q}"),
        Check("A.K = -p-q-1", kk == -p - q - 1, f"{kk} vs {-p - q - 1}"),
    ]
    bad = failures(checks)
    if bad:
        raise CuspError("cusp class identities failed: " + "; ".join(c.name for c in bad))
    return CuspData(tuple(order), k, a, adm.c, adm.p, adm.q, A,
                    comps[k - 1].id, comps[k].id, tuple(checks))


# -- normal crossing resolution ----------------------------------------------------


@dataclass(frozen=True)
class ResolutionResult:
    config: DivisorConfig
    da: str
    db: str | None
    p: int
    q: int
    multiplicities: tuple[int, ...]
    exc_names: tuple[str, ...]
    exc_ids: tuple[str, ...]
    a_tilde: HomologyClass
    transverse_id: str
    checks: tuple[Check, ...]
    pc: dict
    fresh: FreshBlowups | None = None  # the lattice side of the blowups, if any
    moves: tuple[BlowupMove, ...] = ()  # the blowups, their spheres being exc_ids


def _spheres(config, fresh) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """The names and the ids of the spheres fresh blows up on config: each
    takes its default id, suffixed with x while a component or an earlier
    sphere has it."""
    (names, defaults), used, ids = fresh.names(), set(config.ids()), []
    for xid in defaults:
        while xid in used:
            xid += "x"
        used.add(xid)
        ids.append(xid)
    return names, tuple(ids)


def total_transform(contractions, x, weights):
    """The total transform of x through the blowups that `contractions`
    undo, less weights[i] times the i-th exceptional class; each contraction
    starts where the one before ends, so only x's ambient is checked."""
    v = coeffs_in(x, contractions[0].post) if contractions else x.coeffs
    for con, m in zip(contractions, weights, strict=True):
        v = add_multiple(con.lift(v), -m, con.e.coeffs)
    return HomologyClass(contractions[-1].pre, v) if contractions else x


def resolve_pattern(
    config: DivisorConfig,
    da: str,
    db: str | None,
    p: int,
    q: int,
    A: HomologyClass,
) -> ResolutionResult:
    """Toric blowups following the cusp recursion at the (da, db) corner.

    Tracks which two local branches carry the next center, the exceptional
    multiplicities, and the coefficient contributions of the non-negative
    combination lemma.  (p, q) = (1, 0) or (0, 1) is the convention for an
    empty resolution."""
    if (p, q) in ((1, 0), (0, 1)):
        tr = da if p == 1 else db
        if tr is None:
            raise CuspError("degenerate cusp needs a designated component")
        checks = a_tilde_checks(config, A, tr)
        _require_all(checks, "degenerate resolution")
        return ResolutionResult(config, da, db, p, q, (), (), (), A, tr, tuple(checks), {})
    if p < 1 or q < 1 or math.gcd(p, q) != 1:
        raise CuspError(f"({p}, {q}) is not a coprime positive pair")
    if db is None or config.edge_multiplicity(da, db) < 1:
        raise CuspError(f"no intersection point between {da!r} and {db!r}")

    weights = weight_sequence(p, q).weights  # the same recursion: one blowup per weight
    fresh = FreshBlowups.of(config.ambient, len(weights))
    names, ids = _spheres(config, fresh)
    u, v, cp, cq = da, db, p, q
    pc_contact, pc_mu = p, q
    mult, moves, pc = [], [], {}
    for xid in ids:
        mult.append(min(cp, cq))
        moves.append(ToricBlowup(u, v))
        if pc_contact < pc_mu:
            pc[xid] = pc.get(xid, 0) + (pc_mu - pc_contact)
            pc_mu = pc_mu - pc_contact
        elif pc_contact > pc_mu:
            pc_contact = pc_contact - pc_mu
        if cp > cq:
            v = xid
            cp = cp - cq
        elif cp < cq:
            u, v, cp, cq = v, xid, cq - cp, cp
        else:
            break

    cur = fresh.blow_up(config, moves, ids)
    a_tilde = fresh.total_transform(A, mult)
    checks = [
        Check("multiplicities are the weight sequence", tuple(mult) == weights,
              f"{tuple(mult)} vs {weights}"),
        Check("sum m_i^2 = pq", sum(m * m for m in mult) == p * q, ""),
        Check("sum m_i = p+q-1", sum(mult) == p + q - 1, ""),
        *a_tilde_checks(cur, a_tilde, ids[-1]),
    ]
    _require_all(checks, "resolution")
    return ResolutionResult(
        cur, da, db, p, q, tuple(mult), names, ids, a_tilde, ids[-1], tuple(checks), pc, fresh,
        tuple(moves),
    )


def a_tilde_checks(config, a_tilde, transverse_id) -> list[Check]:
    sq, kc = pair(a_tilde, a_tilde), pair(a_tilde, canonical(config.ambient))
    once = pair(a_tilde, config.component(transverse_id).cls) == 1
    stray = [c.id for c in config.components
             if c.id != transverse_id and pair(a_tilde, c.cls) != 0]
    return [
        Check("Atilde^2 = 0", sq == 0, str(sq)),
        Check("Atilde.K = -2", kc == -2, str(kc)),
        Check("Atilde meets the transverse component once", once, transverse_id),
        Check("Atilde orthogonal to all other components", not stray, ", ".join(stray)),
    ]


def _require_all(checks, stage):
    bad = failures(checks)
    if bad:
        raise CuspError(f"{stage} checks failed: " + "; ".join(c.name for c in bad))


def positive_combination(
    res: ResolutionResult,
    config_before: DivisorConfig,
) -> tuple[dict, Check]:
    """Non-negative coefficients pc over total-transform components that zero, on one list,
    the residual q lift(D_a) - sum(m_i E_i) - q [proper transform of D_a] - sum(pc[x] [x]),
    each E_i taken off at its slots (out of S2xS2, E_1 is the bridge's H - E1 - E2)."""
    if not res.multiplicities:
        return {}, Check("positive combination", True, "empty weight sequence, zero class")
    r = [res.q * x for x in res.fresh.lift(config_before.component(res.da).cls)]
    for i, m in enumerate(res.multiplicities):
        res.fresh.take(i, r, m)
    neg = [cid for cid, coeff in res.pc.items() if coeff < 0]
    if neg:
        raise CuspError(f"negative combination coefficient on {neg[0]}")
    ok = _reproduces(r, res.fresh.pre, res.config, [(res.da, res.q), *res.pc.items()])
    check = Check("positive combination", ok, f"{ {k: v for k, v in sorted(res.pc.items())} }")
    if not ok:
        raise CuspError("combination does not reproduce its target class")
    return dict(res.pc), check


def _reproduces(v: list[int], amb, config: DivisorConfig, terms) -> bool:
    """Whether v, coefficients on amb, is sum(k [D_id] for id, k in terms): each
    term is taken off v in place, over the nonzero entries of D_id's tuple."""
    comps = {c.id: coeffs_in(c.cls, amb) for c in config.components}
    for cid, k in terms:
        if (c := comps.get(cid)) is None:
            raise DivisorError(f"no component with id {cid!r}")
        for i in compress(range(len(c)), c):
            v[i] -= k * c[i]
    return not any(v)


# -- the certificate ------------------------------------------------------------------


@dataclass(frozen=True)
class OriginalTransport:
    cls: HomologyClass
    p: int
    q: int
    da: str
    db: str | None
    checks: tuple[Check, ...]
    notes: tuple[str, ...]


@dataclass(frozen=True)
class Route:
    """What a route establishes on the terminal model."""

    tag: str
    cusp: CuspData | None
    resolution: ResolutionResult | None
    resolution_area: AreaVector | None
    dgood: tuple[Check, ...]
    combination: dict | None = None
    combination_check: Check | None = None


@dataclass(frozen=True)
class AffineRuledCertificate:
    route: str
    route_tag: str
    hypothesis: Check
    traces: tuple[ReductionTrace, ...]
    trace_checks: tuple[Check, ...]
    terminal_config: DivisorConfig
    terminal_area: AreaVector
    cusp: CuspData | None
    resolution: ResolutionResult | None
    resolution_area: AreaVector | None
    dgood: tuple[Check, ...]
    combination: dict | None
    combination_check: Check | None
    original: OriginalTransport | None
    assumptions: tuple[str, ...]
    input_config: DivisorConfig
    input_area: AreaVector
    area_bound: Fraction | None  # None: the default of goodness_search

    @property
    def weights(self) -> tuple[int, ...]:
        return self.resolution.multiplicities if self.resolution else ()

    def all_checks(self) -> list[Check]:
        out = [self.hypothesis]
        out.extend(self.trace_checks)
        if self.cusp:
            out.extend(self.cusp.checks)
        if self.resolution:
            out.extend(self.resolution.checks)
        out.extend(self.dgood)
        if self.combination_check:
            out.append(self.combination_check)
        if self.original:
            out.extend(self.original.checks)
        return out


_BASE_ASSUMPTIONS = (
    "good classes with square-zero or exceptional type admit embedded "
    "representatives adapted to the divisor",
    "unicuspidal curves downstairs correspond to embedded spheres in the "
    "normal crossing resolution",
    "the moduli space of the resolution class is identified with the last "
    "exceptional sphere",
)
# the assumptions a terminal minimal model adds to its route
_MODEL_NOTES = {
    "A1p": "an auxiliary line through a point of the divisor completes the "
           "single-line case; its data is marked auxiliary",
    "A3p": "the cusp degenerates to a fourth-order tangency at an interior "
           "point of the single component; blowup centers are chosen there",
}


def certificate_assumptions(traces, route: Route, model) -> tuple[str, ...]:
    """The named assumptions of a certificate: those every one rests on, the
    contraction of minimal-class components with fewer than two neighbours
    when the first trace makes one, and those of the route taken on the
    terminal model, whose minimal-model tag is model on the b2 <= 2 route."""
    out = list(_BASE_ASSUMPTIONS)
    if traces and any(s.kind in ("half_toric", "exterior") and s.blowdown.removed_component
                      is not None for s in traces[0].steps):
        out.append(
            "minimal-class components with fewer than two neighbours are "
            "contracted as half-toric or exterior spheres"
        )
    if route.tag == "comb":
        out.append("the fiber class of the ruling is realizable through any adapted "
                   "almost complex structure")
        if route.cusp is None:
            out.append("an auxiliary section of the ruling closes up the fibration")
    elif route.tag != "admissible-subchain":
        out.append(f"terminal minimal model: {model.case} {model.params}")
        if model.case in _MODEL_NOTES:
            out.append(_MODEL_NOTES[model.case])
        elif route.cusp.k == 0:
            out.append(f"degenerate cusp designation: contact component {route.cusp.da}, "
                       f"companion {route.cusp.db if route.cusp.db else 'none'}")
    return tuple(dict.fromkeys(out))


def certify_affine_ruled(
    config: DivisorConfig,
    w: AreaVector,
    area_bound: Fraction | None = None,
) -> AffineRuledCertificate:
    """Full pipeline: validate, reduce to a terminal model, take the route
    it allows, and transport the cusp back to the input coordinates."""
    problems = validate(config, w)
    if problems:
        raise CertifyError("validate", "; ".join(problems))
    hypothesis = adjoint_check(config, w)
    if not hypothesis.passed:
        raise CertifyError("hypothesis", f"area(K + [D]) = {hypothesis.detail} is not negative")
    return build_certificate(config, w, hypothesis, area_bound, _reduce)


def adjoint_check(config: DivisorConfig, w: AreaVector) -> Check:
    """The hypothesis: the adjoint area area(K + [D]) is negative."""
    hyp = adjoint_area(config, w)
    return Check("adjoint area negative", hyp.numerator < 0, str(hyp))


def build_certificate(config, w, hypothesis, area_bound, reduce) -> AffineRuledCertificate:
    """The certificate of a valid pair with its hypothesis check: the comb
    route on a ruled ambient; else a connected divisor, which
    reduce(config, w) takes to the traces, their checks, the terminal model,
    its areas and the chain labelings (ids, k) of a configuration, and the
    terminal takes the b2 <= 2 route, classified once, or the chain route.
    certify reduces by search, the checker by replay."""
    goodness = goodness_search(area_bound)
    ruled, model = config.ambient.is_ruled, None
    if ruled:
        traces, trace_checks, term, wt = (), (), config, w
        route = comb_route(config, w, goodness)
    elif not is_connected(config):
        raise CertifyError("validate", "rational pipelines need a connected divisor")
    else:
        traces, trace_checks, term, wt, labelings = reduce(config, w)
        if traces[-1].terminal == "SmallB2":
            model = classify_minimal_model(term)
            route = _b2_route(term, wt, model, goodness, labelings)
        else:
            route = _chain_route(term, wt, "admissible-subchain", goodness, labelings)
    return AffineRuledCertificate(
        route="ruled" if ruled else "rational",
        route_tag=route.tag,
        hypothesis=hypothesis,
        traces=tuple(traces),
        trace_checks=tuple(trace_checks),
        terminal_config=term,
        terminal_area=wt,
        cusp=route.cusp,
        resolution=route.resolution,
        resolution_area=route.resolution_area,
        dgood=route.dgood,
        combination=route.combination,
        combination_check=route.combination_check,
        original=(transport_to_original(config, traces, route.cusp)
                  if route.cusp and not ruled else None),
        assumptions=certificate_assumptions(traces, route, model),
        input_config=config,
        input_area=w,
        area_bound=area_bound,
    )


def goodness_search(area_bound: Fraction | None):
    """Goodness of a class a against cfg on areas w, as the routes take it:
    one witness search at area_bound (by default the area of the cheapest
    exceptional generator of w), run as the "enumerate" stage, and its
    checklist as the "dgood" stage."""

    def goodness(a, cfg, w):
        bound = area_bound if area_bound is not None else default_area_bound(w)
        witness = _stage("enumerate", lambda: find_witness(a, w, bound))
        return tuple(_stage("dgood", lambda: goodness_checks(a, cfg, w, bound, witness)))

    return goodness


def _stage(stage, fn):
    """Run one stage, reporting its domain failures (a cusp, reduction or
    search failure) as a failed certification at that stage; any other
    error is a defect and propagates."""
    try:
        return fn()
    except (CuspError, ReductionError, EnumerationError) as exc:
        raise CertifyError(stage, str(exc)) from exc


def _reduce(config, w):
    """certify's reduction along NEXT_STAGE, each stage given the previous
    trace's classification; a trace is kept unless it is a small-b2 trace
    that contracts nothing, and verify_trace rechecks them all after the last."""
    run = {  # built per call, so that a stage function rebound by a tracer is the one run
        "quasi_minimal": lambda cfg, cw, _: quasi_minimal_reduce(cfg, cw),
        "partially_minimal": partially_minimal_reduce,
        "second_kind": second_kind_reduce,
        "small_b2": lambda cfg, cw, _: small_b2_reduce(cfg, cw),
    }
    traces, term, wt, info, stage = [], config, w, None, "quasi_minimal"
    while stage is not None:
        term, wt, tr = _stage(stage, lambda: run[stage](term, wt, info))
        if tr.steps or stage != "small_b2":
            traces.append(tr)
        stage, info = NEXT_STAGE[stage, tr.terminal], tr.classification
    return traces, verify_trace(traces, config), term, wt, _good_chains


def _good_chains(term):
    """The good-chain labelings of term, best first, as (chain ids, k)."""
    return [(gc.ids, gc.k) for gc in _stage("good_chain", lambda: good_chain_candidates(term))]


def resolution_areas(term_config, wt, res, cusp_area_hint) -> AreaVector:
    """Tiny decreasing areas for the resolution generators, keeping the
    canonical area negative and the resolution class area positive: the
    i-th exceptional sphere gets base / ((p + q) 4^i)."""
    neg_k = -area(canonical(term_config.ambient), wt)
    base = min([neg_k, cusp_area_hint] + list(wt.areas)) / 2
    values = [base / ((res.p + res.q) * 4**i) for i in range(1, len(res.moves) + 1)]
    return res.fresh.extend(wt, values) if res.fresh else wt


def _chain_route(term, wt, tag, goodness, labelings):
    """Chain labeling -> admissible subchain -> cusp class -> resolution ->
    goodness of the resolution class -> non-negative combination; a labeling
    whose subchain is not admissible is skipped."""
    chains = labelings(term)
    if not chains:
        raise CertifyError("good_chain", "no good-chain labeling exists")
    last_err = None
    for ids, k in chains:
        a = tuple(-pair(c.cls, c.cls) for c in map(term.component, ids[:k]))
        adm = admissible_check(a)
        if not adm.accepted:
            last_err = f"{a}: {adm.reason}"
            continue
        cusp = _stage("cusp_class", lambda: cusp_class(term, ids, k))
        res = _stage(
            "resolution",
            lambda: resolve_pattern(term, cusp.da, cusp.db, cusp.p, cusp.q, cusp.cls),
        )
        pc_map, _ = _stage("combination", lambda: positive_combination(res, term))
        comb = dict(zip(cusp.chain_ids[: cusp.k], cusp.c))
        for cid, v in pc_map.items():
            comb[cid] = comb.get(cid, 0) + v
        route = resolved_route(tag, term, wt, cusp, res, comb, goodness)
        if not route.combination_check.passed:
            raise CertifyError("combination", "resolution class combination failed")
        return route
    raise CertifyError("admissible", f"no admissible subchain labeling: {last_err}")


def resolved_route(tag, base, wt, cusp, res, comb, goodness) -> Route:
    """A route through a resolved cusp of base: the resolution's areas, the
    goodness of its class, and the class as the combination comb of
    total-transform components (as the proper transform of the sphere on the
    a3-special route)."""
    res_area = resolution_areas(base, wt, res, area(cusp.cls, wt))
    if tag == "a3-special":
        check = Check("Atilde is the proper transform of the degree-two sphere",
                      res.config.component(res.da).cls == res.a_tilde, "")
    else:
        check = Check(
            "Atilde is a non-negative combination of total-transform components",
            _reproduces(list(res.a_tilde.coeffs), res.a_tilde.ambient, res.config, comb.items())
            and all(v >= 0 for v in comb.values()),
            str({k: v for k, v in sorted(comb.items()) if v}),
        )
    return Route(tag, cusp, res, res_area, goodness(res.a_tilde, res.config, res_area), comb,
                 check)


def a1p_augmented(term: DivisorConfig) -> DivisorConfig:
    """A single line in the plane with an auxiliary line through a point of
    it, which makes it a chain."""
    h = term.ambient.basis_class("H")
    d1 = term.components[0]
    return DivisorConfig.build(
        term.ambient,
        [(c.id, c.cls) for c in term.components] + [("aux_line", h)],
        list(term.edges) + [(d1.id, "aux_line")],
    )


def _b2_route(term, wt, tag, goodness, labelings):
    """Terminal models with b2 <= 2, of minimal-model tag `tag`: combs ride
    the fiber class, chains reuse the cusp machinery, the degree-two sphere
    in the plane gets its dedicated four-blowup pattern."""
    if tag is None:
        raise CertifyError("minimal_model", f"no minimal-model case matches {term.ambient.describe()}")
    name = tag.case
    if name == "A3p":
        res = _stage("resolution", lambda: _a3_resolution(term))
        return resolved_route("a3-special", term, wt, a3_cusp(term), res,
                              {term.components[0].id: 1}, goodness)
    if name == "A1p":
        return _chain_route(a1p_augmented(term), wt, f"minimal-model:{name}", goodness,
                            labelings)
    if len(term.components) >= 2:
        try:
            return _chain_route(term, wt, f"minimal-model:{name}", goodness, labelings)
        except (CertifyError, ReductionError):
            pass
    return fiber_route(term, wt, name, goodness)


def fiber_cusp(config, f, da, label):
    """The degenerate (1, 0) cusp of a square-zero class f (named `label` in
    the checks) meeting the section da once, its companion the first
    neighbour of da, and its empty resolution."""
    teeth = sorted(config.neighbors(da))
    db = teeth[0] if teeth else None
    checks = (
        Check(f"{label}.{label} = 0", pair(f, f) == 0, ""),
        Check(f"{label}.K = -2", pair(f, canonical(config.ambient)) == -2, ""),
        Check(f"{label} meets the section once", pair(f, config.component(da).cls) == 1, da),
    )
    cusp = CuspData((), 0, (), (), 1, 0, f, da, db, checks)
    return cusp, _stage("resolution", lambda: resolve_pattern(config, da, db, 1, 0, f))


def fiber_route(term, wt, name, goodness):
    """(p, q) = (1, 0): a square-zero class meeting exactly one component
    once foliates the complement: a fiber class of the minimal ambient."""
    _, fibers = MINIMAL_AMBIENTS.get((term.ambient.kind, term.ambient.n_exc), (None, ()))
    for f in map(term.ambient.from_coeffs, fibers):
        hot = [c.id for c in term.components if pair(f, c.cls) != 0]
        if len(hot) != 1 or pair(f, term.component(hot[0]).cls) != 1:
            continue
        cusp, res = fiber_cusp(term, f, hot[0], "A")
        return Route(f"minimal-model:{name}", cusp, res, wt, goodness(f, term, wt))
    raise CertifyError("fiber_route", f"no fiber class foliates case {name}")


def comb_route(config, w, goodness):
    """Ruled ambients: the fiber class foliates the complement of a comb,
    with a degenerate cusp at the section when there is one."""
    problems = comb_shape_problems(config)
    if problems:
        raise CertifyError("ruled_validate", "; ".join(problems))
    f = config.ambient.basis_class(config.ambient.record.fiber)
    sections = [c.id for c in config.components if pair(f, c.cls) == 1]
    cusp = res = None
    if sections:
        cusp, res = fiber_cusp(config, f, sections[0], "F")
    return Route("comb", cusp, res, w if res else None, goodness(f, config, w))


def _a3_resolution(term) -> ResolutionResult:
    """Half-toric plus three toric blowups on the degree-two sphere; the
    foliating class 2h - e1 - e2 - e3 - e4 has a (4, 1) tangency."""
    d1, fresh = term.components[0].id, FreshBlowups.of(term.ambient, 4)
    names, ids = _spheres(term, fresh)
    moves = (HalfToricBlowup(d1), *(ToricBlowup(d1, xid) for xid in ids[:3]))
    cur = fresh.blow_up(term, moves, ids)
    a_cls = fresh.total_transform(term.components[0].cls, (1, 1, 1, 1))
    checks = a_tilde_checks(cur, a_cls, ids[-1])
    _require_all(checks, "a3-pattern")
    return ResolutionResult(cur, d1, None, 4, 1, (1, 1, 1, 1), names, ids, a_cls, ids[-1],
                            tuple(checks), {d1: 1}, fresh, moves)


def a3_cusp(term: DivisorConfig) -> CuspData:
    """The (4, 1) cusp of the degree-two sphere in the plane."""
    d1 = term.components[0]
    return CuspData((), 0, (), (), 4, 1, d1.cls, d1.id, None,
                    (Check("A.A = pq", pair(d1.cls, d1.cls) == 4, ""),
                     Check("A.K = -p-q-1", pair(d1.cls, canonical(term.ambient)) == -6, "")))


def transport_to_original(config, traces, cusp) -> OriginalTransport:
    """Walk the reduction backwards, lifting A through each blowup; a toric
    blowup at the cusp corner shortens the cusp by one Euclid step, and its
    exceptional class is taken off A with the multiplicity min(p, q)."""
    steps = [s.blowdown for tr in reversed(traces) for s in reversed(tr.steps)]
    p, q = cusp.p, cusp.q
    da, db = cusp.da, cusp.db
    notes, weights = [], []
    for bd in steps:
        move, m1 = bd.move, 0
        if (isinstance(move, ToricBlowup) and db is not None and {move.a, move.b} == {da, db}
                and p >= 1 and q >= 1):
            m1 = min(p, q)
            da, db = bd.removed_component, (da if p > q else db)
            p, q = m1, abs(p - q)
            notes.append(f"toric step at the cusp corner: lifted pair becomes ({p}, {q})")
        weights.append(m1)
    a_cur = total_transform([bd.contraction for bd in steps], cusp.cls, weights)

    sq, kk = pair(a_cur, a_cur), pair(a_cur, canonical(config.ambient))
    checks = [
        Check("original A.A = pq", sq == p * q, f"{sq} vs {p * q}"),
        Check("original A.K = -p-q-1", kk == -p - q - 1, str(kk)),
    ]
    ids = config.ids()
    if da in ids:
        checks.append(Check("original A meets D_a with multiplicity p",
                            pair(a_cur, config.component(da).cls) == p, da))
    else:
        notes.append(f"contact component {da} is auxiliary at the terminal level")
    if db is not None and db in ids:
        checks.append(Check("original A meets D_b with multiplicity q",
                            pair(a_cur, config.component(db).cls) == q, db))
    stray = [c.id for c in config.components if c.id not in (da, db) and pair(a_cur, c.cls) != 0]
    checks.append(Check("original A orthogonal to the other components",
                        not stray, ", ".join(stray)))
    return OriginalTransport(a_cur, p, q, da, db, tuple(checks), tuple(notes))

