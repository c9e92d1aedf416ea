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
`Route` record and decides goodness by `goodness_search`.  The checker's
replay builds the rational route with certify's `terminal_route`, on the
chain labeling the certificate records, and both build the certificate with
`assemble_certificate`.
Resolution blowups record the `Contraction` undoing each; total transforms
are read off those records, whatever the ambient kind.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .checks import Check, failures
from .divisor import (
    DivisorConfig,
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
    KIND_RATIONAL,
    KIND_S2S2,
    AreaVector,
    HomologyClass,
    area,
    canonical,
    pair,
)
from .moves import (
    BlowupMove,
    Contraction,
    HalfToricBlowup,
    ToricBlowup,
    blowup,
    blowup_contraction,
)
from .reduction import (
    ReductionError,
    ReductionTrace,
    classify_minimal_model,
    good_chain_candidates,
    partially_minimal_reduce,
    quasi_minimal_reduce,
    ruled_validate,
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
    A = combination_class(config, dict(zip(order[:k], adm.c)))

    checks = [
        Check("A.D_k = p", pair(A, comps[k - 1].cls) == adm.p,
              f"{pair(A, comps[k - 1].cls)} vs {adm.p}"),
        Check("A.D_k+1 = q", pair(A, comps[k].cls) == adm.q,
              f"{pair(A, comps[k].cls)} vs {adm.q}"),
    ]
    stray = [
        comps[j].id for j in range(len(comps))
        if j not in (k - 1, k) and pair(A, comps[j].cls) != 0
    ]
    checks.append(Check("A orthogonal to other components", not stray, ", ".join(stray)))
    checks.append(Check("A.A = pq", pair(A, A) == adm.p * adm.q,
                        f"{pair(A, A)} vs {adm.p * adm.q}"))
    kk = pair(A, canonical(config.ambient))
    checks.append(Check("A.K = -p-q-1", kk == -adm.p - adm.q - 1,
                        f"{kk} vs {-adm.p - adm.q - 1}"))
    bad = failures(checks)
    if bad:
        raise CuspError("cusp class identities failed: " + "; ".join(c.name for c in bad))
    return CuspData(tuple(order), k, a, adm.c, adm.p, adm.q, A,
                    comps[k - 1].id, comps[k].id, tuple(checks))


def combination_class(config: DivisorConfig, coeffs: dict) -> HomologyClass:
    """The class sum(coeffs[id] [D_id]) over components of config."""
    total = config.ambient.zero()
    for cid, c in coeffs.items():
        total = total + c * config.component(cid).cls
    return total


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
    contractions: tuple[Contraction, ...] = ()  # one per blowup, each undoing it
    moves: tuple[BlowupMove, ...] = ()  # the blowups, their spheres being exc_ids


def resolution_blowup(cur, move, contractions, ids, moves):
    """One blowup of a resolution; the contraction undoing it, the sphere
    and the move are recorded.  The sphere takes the id blowup_contraction
    gives it, suffixed with x when a component has it."""
    con, xid = blowup_contraction(cur.ambient)
    if cur.has_component(xid):
        xid += "x"
    contractions.append(con)
    ids.append(xid)
    moves.append(move)
    return blowup(cur, move, new_id=xid)


def total_transform(contractions, x, weights):
    """The total transform of x through the blowups that `contractions`
    undo, less weights[i] times the i-th exceptional class."""
    for con, m in zip(contractions, weights, strict=True):
        x = con.section(x) - m * con.e
    return x


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

    cur = config
    u, v, cp, cq = da, db, p, q
    pc_contact, pc_mu = p, q
    mult: list[int] = []
    ids: list[str] = []
    cons: list[Contraction] = []
    moves: list[BlowupMove] = []
    pc: dict[str, int] = {}
    while True:
        mult.append(min(cp, cq))
        cur = resolution_blowup(cur, ToricBlowup(u, v), cons, ids, moves)
        xid = ids[-1]
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

    a_tilde = total_transform(cons, A, mult)
    weights = weight_sequence(p, q).weights
    checks = [
        Check("multiplicities are the weight sequence", tuple(mult) == weights,
              f"{tuple(mult)} vs {weights}"),
        Check("sum m_i^2 = pq", sum(m * m for m in mult) == p * q, ""),
        Check("sum m_i = p+q-1", sum(mult) == p + q - 1, ""),
        *a_tilde_checks(cur, a_tilde, ids[-1]),
    ]
    _require_all(checks, "resolution")
    return ResolutionResult(
        cur, da, db, p, q, tuple(mult), tuple(str(c.e) for c in cons), tuple(ids),
        a_tilde, ids[-1], tuple(checks), pc, tuple(cons), tuple(moves),
    )


def a_tilde_checks(config, a_tilde, transverse_id) -> list[Check]:
    amb = config.ambient
    out = [
        Check("Atilde^2 = 0", pair(a_tilde, a_tilde) == 0, str(pair(a_tilde, a_tilde))),
        Check(
            "Atilde.K = -2",
            pair(a_tilde, canonical(amb)) == -2,
            str(pair(a_tilde, canonical(amb))),
        ),
        Check(
            "Atilde meets the transverse component once",
            pair(a_tilde, config.component(transverse_id).cls) == 1,
            transverse_id,
        ),
    ]
    stray = [
        c.id for c in config.components
        if c.id != transverse_id and pair(a_tilde, c.cls) != 0
    ]
    out.append(Check("Atilde orthogonal to all other components", not stray, ", ".join(stray)))
    return out


def _require_all(checks, stage):
    bad = failures(checks)
    if bad:
        raise CuspError(f"{stage} checks failed: " + "; ".join(c.name for c in bad))


def positive_combination(
    res: ResolutionResult,
    config_before: DivisorConfig,
) -> tuple[dict, Check]:
    """Coefficients over total-transform components reproducing
    q([D_a] - [proper transform of D_a]) - sum(m_i E_i), all non-negative."""
    if not res.multiplicities:
        return {}, Check("positive combination", True, "empty weight sequence, zero class")
    target = (
        total_transform(res.contractions, res.q * config_before.component(res.da).cls,
                         res.multiplicities)
        - res.q * res.config.component(res.da).cls
    )
    neg = [cid for cid, coeff in res.pc.items() if coeff < 0]
    if neg:
        raise CuspError(f"negative combination coefficient on {neg[0]}")
    ok = combination_class(res.config, res.pc) == target
    check = Check("positive combination", ok,
                  f"{ {k: v for k, v in sorted(res.pc.items())} }")
    if not ok:
        raise CuspError("combination does not reproduce its target class")
    return dict(res.pc), check


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


def certificate_assumptions(traces, route: Route, term: DivisorConfig) -> tuple[str, ...]:
    """The named assumptions of a certificate: those every one rests on, the
    contraction of minimal-class components with fewer than two neighbours
    when the first trace makes one, and those of the route taken on the
    terminal model."""
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
        model = classify_minimal_model(term)
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
    hyp_val = adjoint_area(config, w)
    hypothesis = Check("adjoint area negative", hyp_val < 0, str(hyp_val))
    if not hypothesis.passed:
        raise CertifyError("hypothesis", f"area(K + [D]) = {hyp_val} is not negative")

    goodness = goodness_search(area_bound)
    if config.ambient.is_ruled:
        traces, term, wt = [], config, w
        route = comb_route(config, w, goodness)
    else:
        traces, term, wt, route = _rational_route(config, w, goodness)
    trace_checks = []
    cur = config
    for tr in traces:
        trace_checks.extend(verify_trace(tr, cur))
        cur = tr.steps[-1].blowdown.config if tr.steps else cur
    return assemble_certificate(config, w, hypothesis, traces, trace_checks, term, wt, route,
                                area_bound)


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


def assemble_certificate(config, w, hypothesis, traces, trace_checks, term, wt, route,
                         area_bound) -> AffineRuledCertificate:
    """The certificate of a route taken on the terminal model term, with
    areas wt, that traces reach from the input config, with areas w: the
    route kind, the cusp carried back to the input, the assumptions and the
    area bound."""
    ruled = config.ambient.is_ruled
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
        assumptions=certificate_assumptions(traces, route, term),
        input_config=config,
        input_area=w,
        area_bound=area_bound,
    )


def _stage(stage, fn):
    """Run one stage, reporting its domain failures (a cusp, reduction or
    search failure) as a failed certification at that stage; any other
    error is a defect and propagates."""
    try:
        return fn()
    except (CuspError, ReductionError, EnumerationError) as exc:
        raise CertifyError(stage, str(exc)) from exc


def _rational_route(config, w, goodness):
    """Reduce to a quasi-minimal pair, then, from the classification its
    trace carries, to a chain (first kind) or to b2 <= 2; returns the
    traces, the terminal model and its route."""
    if not is_connected(config):
        raise CertifyError("validate", "rational pipelines need a connected divisor")
    term, wt, tr = _stage("quasi_minimal", lambda: quasi_minimal_reduce(config, w))
    traces, info = [tr], tr.classification
    if tr.terminal == "QuasiMinimalFirstKind":
        term, wt, tr = _stage("partially_minimal",
                              lambda: partially_minimal_reduce(term, wt, info))
        traces.append(tr)
    elif tr.terminal == "QuasiMinimalSecondKind":
        term, wt, tr = _stage("second_kind", lambda: second_kind_reduce(term, wt, info))
        traces.append(tr)
    small_b2 = tr.terminal == "SmallB2"
    if small_b2:
        term, wt, tr = _stage("small_b2", lambda: small_b2_reduce(term, wt))
        if tr.steps:
            traces.append(tr)
    return traces, term, wt, terminal_route(term, wt, small_b2, goodness, _good_chains)


def _good_chains(term):
    """The good-chain labelings of term, best first, as (chain ids, k)."""
    return [(gc.ids, gc.k) for gc in _stage("good_chain", lambda: good_chain_candidates(term))]


def terminal_route(term, wt, small_b2, goodness, labelings) -> Route:
    """The route on the terminal model term of a rational pair: through an
    admissible subchain of a chain, or, when the reduction ended in b2 <= 2,
    the route its minimal model allows.  labelings(cfg) gives the chain
    labelings (ids, k) of cfg to try, in order; they are the one choice the
    route leaves open, the cusp fixing its resolution and combination."""
    if small_b2:
        return _b2_route(term, wt, goodness, labelings)
    return _chain_route(term, wt, "admissible-subchain", goodness, labelings)


def resolution_areas(term_config, wt, res, cusp_area_hint) -> AreaVector:
    """Tiny decreasing areas for the resolution generators, keeping the
    canonical area negative and the resolution class area positive: the
    i-th exceptional sphere gets base / ((p + q) 4^i)."""
    neg_k = -area(canonical(term_config.ambient), wt)
    base = min([neg_k, cusp_area_hint] + list(wt.areas)) / 2
    for i, con in enumerate(res.contractions, start=1):
        wt = con.extend(wt, base / ((res.p + res.q) * 4**i))
    return wt


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
            combination_class(res.config, comb) == res.a_tilde
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


def _b2_route(term, wt, goodness, labelings):
    """Terminal models with b2 <= 2: combs ride the fiber class, chains
    reuse the cusp machinery, the degree-two sphere in the plane gets its
    dedicated four-blowup pattern."""
    tag = classify_minimal_model(term)
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


def fiber_candidates(amb):
    if amb.kind == KIND_S2S2:
        return [amb.basis_class("f1"), amb.basis_class("f2")]
    if amb.kind == KIND_RATIONAL and amb.n_exc == 1:
        return [amb.basis_class("H") - amb.basis_class(amb.names[1])]
    return []


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
    once foliates the complement."""
    for f in fiber_candidates(term.ambient):
        hot = [c.id for c in term.components if pair(f, c.cls) != 0]
        if len(hot) != 1 or pair(f, term.component(hot[0]).cls) != 1:
            continue
        cusp, res = fiber_cusp(term, f, hot[0], "A")
        return Route(f"minimal-model:{name}", cusp, res, wt, goodness(f, term, wt))
    raise CertifyError("fiber_route", f"no fiber class foliates case {name}")


def comb_route(config, w, goodness):
    """Ruled ambients: the fiber class foliates the complement of a comb,
    with a degenerate cusp at the section when there is one."""
    problems = ruled_validate(config)
    if problems:
        raise CertifyError("ruled_validate", "; ".join(problems))
    f = config.ambient.basis_class("F")
    sections = [c.id for c in config.components if pair(f, c.cls) == 1]
    cusp = res = None
    if sections:
        cusp, res = fiber_cusp(config, f, sections[0], "F")
    return Route("comb", cusp, res, w if res else None, goodness(f, config, w))


def _a3_resolution(term) -> ResolutionResult:
    """Half-toric plus three toric blowups on the degree-two sphere; the
    foliating class 2h - e1 - e2 - e3 - e4 has a (4, 1) tangency."""
    d1 = term.components[0].id
    cur, ids, cons, moves = term, [], [], []
    for i in range(4):
        move = HalfToricBlowup(d1) if i == 0 else ToricBlowup(d1, ids[-1])
        cur = resolution_blowup(cur, move, cons, ids, moves)
    a_cls = total_transform(cons, term.components[0].cls, (1, 1, 1, 1))
    checks = a_tilde_checks(cur, a_cls, ids[-1])
    _require_all(checks, "a3-pattern")
    return ResolutionResult(cur, d1, None, 4, 1, (1, 1, 1, 1), tuple(str(c.e) for c in cons),
                            tuple(ids), a_cls, ids[-1], tuple(checks), {d1: 1}, tuple(cons),
                            tuple(moves))


def a3_cusp(term: DivisorConfig) -> CuspData:
    """The (4, 1) cusp of the degree-two sphere in the plane."""
    d1 = term.components[0]
    return CuspData((), 0, (), (), 4, 1, d1.cls, d1.id, None,
                    (Check("A.A = pq", pair(d1.cls, d1.cls) == 4, ""),
                     Check("A.K = -p-q-1", pair(d1.cls, canonical(term.ambient)) == -6, "")))


def transport_to_original(config, traces, cusp) -> OriginalTransport:
    """Walk the reduction backwards, lifting A through each blowup; a toric
    blowup at the cusp corner shortens the cusp by one Euclid step."""
    steps = [s for tr in traces for s in tr.steps]
    a_cur, p, q = cusp.cls, cusp.p, cusp.q
    da, db = cusp.da, cusp.db
    notes = []
    for st in reversed(steps):
        bd = st.blowdown
        lifted = bd.contraction.section(a_cur)
        move = bd.move
        if (
            isinstance(move, ToricBlowup)
            and db is not None
            and {move.a, move.b} == {da, db}
            and p >= 1
            and q >= 1
        ):
            m1 = min(p, q)
            lifted = lifted - m1 * bd.target
            ecomp = bd.removed_component
            if p > q:
                da, db = ecomp, da
            else:
                da, db = ecomp, db
            p, q = m1, abs(p - q)
            notes.append(
                f"toric step at the cusp corner: lifted pair becomes ({p}, {q})"
            )
        a_cur = lifted

    amb = config.ambient
    checks = [
        Check("original A.A = pq", pair(a_cur, a_cur) == p * q,
              f"{pair(a_cur, a_cur)} vs {p * q}"),
        Check("original A.K = -p-q-1",
              pair(a_cur, canonical(amb)) == -p - q - 1,
              str(pair(a_cur, canonical(amb)))),
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
    stray = [
        c.id for c in config.components
        if c.id not in (da, db) and pair(a_cur, c.cls) != 0
    ]
    checks.append(Check("original A orthogonal to the other components",
                        not stray, ", ".join(stray)))
    return OriginalTransport(a_cur, p, q, da, db, tuple(checks), tuple(notes))

