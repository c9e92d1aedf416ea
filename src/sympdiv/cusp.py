"""Cusp bookkeeping and the affine-ruledness certification pipeline.

A coprime pair (p, q) has a weight sequence from the subtractive Euclid
recursion; those weights are the multiplicities of the exceptional classes
in the normal crossing resolution of a (p, q)-cusp.  An admissible subchain
of a sphere chain produces a class A = sum(c_i [D_i]) with A.A = pq and
A.K = -p-q-1, meeting only the two components at the cusp; resolving at
that point yields a square-zero class checked against the total transform.

certify_affine_ruled drives the blowdown pipelines to a terminal model,
builds the cusp data there, resolves, checks goodness of the resolution
class, and transports everything back to the input coordinates.
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
from .exceptional import DEFAULT_COEFF_BOUND, d_good, enumerate_exceptional
from .lattice import (
    KIND_RATIONAL,
    KIND_S2S2,
    AreaVector,
    HomologyClass,
    area,
    canonical,
    embed_by_names,
    pair,
)
from .moves import HalfToricBlowup, ToricBlowup, blowup
from .reduction import (
    ReductionError,
    ReductionTrace,
    classify_minimal_model,
    good_chain_candidates,
    partially_minimal_reduce,
    quasi_minimal_reduce,
    ruled_validate,
    second_kind_reduce,
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
    A = config.ambient.zero()
    for ci, comp in zip(adm.c, comps[:k]):
        A = A + ci * comp.cls

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
        checks = _a_tilde_checks(config, A, tr, ())
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
    names: list[str] = []
    ids: list[str] = []
    pc: dict[str, int] = {}
    while True:
        mult.append(min(cp, cq))
        if cur.ambient.kind == KIND_S2S2:
            name = "H-E1-E2"
            xid = "e" if not cur.has_component("e") else "e0"
            cur = blowup(cur, ToricBlowup(u, v), new_id=xid)
        else:
            name = cur.ambient.fresh_exc_name()
            xid = name if not cur.has_component(name) else f"{name}x"
            cur = blowup(cur, ToricBlowup(u, v), new_id=xid, new_name=name)
        names.append(name)
        ids.append(xid)
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

    amb = cur.ambient
    a_tilde = _lift(A, amb)
    for nm, m in zip(names, mult):
        a_tilde = a_tilde - m * _exc_class(nm, amb)
    ws = weight_sequence(p, q)
    checks = [
        Check("multiplicities are the weight sequence", tuple(mult) == ws.weights,
              f"{tuple(mult)} vs {ws.weights}"),
        Check("sum m_i^2 = pq", sum(m * m for m in mult) == p * q, ""),
        Check("sum m_i = p+q-1", sum(mult) == p + q - 1, ""),
    ]
    checks.extend(_a_tilde_checks(cur, a_tilde, ids[-1], names))
    _require_all(checks, "resolution")
    return ResolutionResult(
        cur, da, db, p, q, tuple(mult), tuple(names), tuple(ids),
        a_tilde, ids[-1], tuple(checks), pc,
    )


def _lift(cls: HomologyClass, amb) -> HomologyClass:
    """Embed a class into a resolution ambient, converting through the
    one-point blowup of the product of spheres when needed."""
    if cls.ambient.kind == KIND_S2S2 and "H" in amb.names:
        from .moves import product_to_blowup_coords

        return product_to_blowup_coords(cls, amb)
    return embed_by_names(cls, amb)


def _exc_class(label: str, amb) -> HomologyClass:
    if label == "H-E1-E2":
        return amb.basis_class("H") - amb.basis_class("E1") - amb.basis_class("E2")
    return amb.basis_class(label)


def _a_tilde_checks(config, a_tilde, transverse_id, new_names) -> list[Check]:
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
    amb = res.config.ambient
    target = (
        res.q * (_lift(config_before.component(res.da).cls, amb)
                 - res.config.component(res.da).cls)
    )
    for nm, m in zip(res.exc_names, res.multiplicities):
        target = target - m * _exc_class(nm, amb)
    total = amb.zero()
    for cid, coeff in res.pc.items():
        if coeff < 0:
            raise CuspError(f"negative combination coefficient on {cid}")
        total = total + coeff * res.config.component(cid).cls
    ok = total == target
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
class AffineRuledCertificate:
    route: str
    route_tag: str
    hypothesis: Check
    traces: tuple[ReductionTrace, ...]
    trace_checks: tuple[Check, ...]
    terminal_config: DivisorConfig
    terminal_area: AreaVector
    cusp: CuspData | None
    weights: tuple[int, ...]
    resolution: ResolutionResult | None
    resolution_area: AreaVector | None
    dgood: tuple[Check, ...]
    combination: dict | None
    combination_check: Check | None
    original: OriginalTransport | None
    assumptions: tuple[str, ...]
    input_config: DivisorConfig
    input_area: AreaVector
    bounds: dict

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


def certify_affine_ruled(
    config: DivisorConfig,
    w: AreaVector,
    coeff_bound: int = DEFAULT_COEFF_BOUND,
    area_bound: Fraction | None = None,
) -> AffineRuledCertificate:
    """Full pipeline: validate, reduce, build cusp data, resolve, check
    goodness, and transport back to the input coordinates."""
    problems = validate(config, w)
    if problems:
        raise CertifyError("validate", "; ".join(problems))
    hyp_val = adjoint_area(config, w)
    hypothesis = Check("adjoint area negative", hyp_val < 0, str(hyp_val))
    if not hypothesis.passed:
        raise CertifyError("hypothesis", f"area(K + [D]) = {hyp_val} is not negative")
    bounds = {"coeff_bound": coeff_bound, "area_bound": area_bound}

    if config.ambient.is_ruled:
        return _certify_ruled(config, w, hypothesis, coeff_bound, area_bound, bounds)
    if not is_connected(config):
        raise CertifyError("validate", "rational pipelines need a connected divisor")
    return _certify_rational(config, w, hypothesis, coeff_bound, area_bound, bounds)


def _stage(stage, fn):
    try:
        return fn()
    except CertifyError:
        raise
    except (CuspError, ReductionError, ValueError) as exc:
        raise CertifyError(stage, str(exc)) from exc


def _certify_rational(config, w, hypothesis, coeff_bound, area_bound, bounds):
    assumptions = list(_BASE_ASSUMPTIONS)
    term, wt, tr1 = _stage("quasi_minimal", lambda: quasi_minimal_reduce(config, w, coeff_bound))
    traces = [tr1]
    if any(s.kind in ("half_toric", "exterior") and s.blowdown.removed_component is not None
           for s in tr1.steps):
        assumptions.append(
            "minimal-class components with fewer than two neighbours are "
            "contracted as half-toric or exterior spheres"
        )

    if tr1.terminal == "QuasiMinimalFirstKind":
        term, wt, tr2 = _stage(
            "partially_minimal", lambda: partially_minimal_reduce(term, wt, coeff_bound)
        )
        traces.append(tr2)
        if tr2.terminal != "SmallB2":
            cert = _chain_route(term, wt, "admissible-subchain", coeff_bound, area_bound)
        else:
            term, wt = _small_cleanup(term, wt, traces, coeff_bound)
            cert = _b2_route(term, wt, coeff_bound, area_bound, assumptions)
    elif tr1.terminal == "QuasiMinimalSecondKind":
        term, wt, tr3 = _stage("second_kind", lambda: second_kind_reduce(term, wt, coeff_bound))
        traces.append(tr3)
        term, wt = _small_cleanup(term, wt, traces, coeff_bound)
        cert = _b2_route(term, wt, coeff_bound, area_bound, assumptions)
    else:
        term, wt = _small_cleanup(term, wt, traces, coeff_bound)
        cert = _b2_route(term, wt, coeff_bound, area_bound, assumptions)

    route_tag, cusp, weights, res, res_area, dgood, comb, comb_check, extra_notes = cert
    assumptions.extend(extra_notes)

    trace_checks = []
    cur = config
    for tr in traces:
        trace_checks.extend(verify_trace(tr, cur))
        cur = tr.steps[-1].blowdown.config if tr.steps else cur

    original = _transport_to_original(config, traces, cusp) if cusp else None

    return AffineRuledCertificate(
        route="rational",
        route_tag=route_tag,
        hypothesis=hypothesis,
        traces=tuple(traces),
        trace_checks=tuple(trace_checks),
        terminal_config=term,
        terminal_area=wt,
        cusp=cusp,
        weights=weights,
        resolution=res,
        resolution_area=res_area,
        dgood=tuple(dgood),
        combination=comb,
        combination_check=comb_check,
        original=original,
        assumptions=tuple(dict.fromkeys(assumptions)),
        input_config=config,
        input_area=w,
        bounds=bounds,
    )


def _small_cleanup(term, wt, traces, coeff_bound):
    """A b2 <= 2 terminal outside the model tables (a lone fiber sphere in
    the one-point blowup) contracts further; keep going until a table case
    appears or nothing moves."""
    from .moves import blowdown
    from .reduction import ReductionTrace, TraceStep
    from .divisor import check_hypothesis as _hyp

    steps = []
    while term.ambient.b2 > 1 and classify_minimal_model(term) is None:
        es = enumerate_exceptional(term.ambient, wt, coeff_bound=coeff_bound)
        performed = None
        for e in es.classes:
            try:
                performed = blowdown(term, e, wt)
                break
            except ValueError:
                continue
        if performed is None:
            break
        steps.append(
            TraceStep(
                performed,
                term.ambient.b2,
                performed.config.ambient.b2,
                _hyp(term, wt),
                _hyp(performed.config, performed.new_area),
            )
        )
        term, wt = performed.config, performed.new_area
    if steps:
        traces.append(ReductionTrace("small_b2", tuple(steps), "SmallB2"))
    return term, wt


def _resolution_areas(term_config, wt, res, cusp_area_hint) -> AreaVector:
    """Tiny decreasing areas for the resolution generators, keeping the
    canonical area negative and the resolution class area positive."""
    if not res.exc_names:
        return wt
    amb = res.config.ambient
    neg_k = -area(canonical(term_config.ambient), wt)
    base = min([neg_k, cusp_area_hint] + list(wt.areas)) / 2
    s = res.p + res.q
    if term_config.ambient.kind == KIND_S2S2:
        # the first blowup changed the basis: f1 = H - E2, f2 = H - E1
        a1, a2 = wt.areas
        eps = base / (s * 4)
        values = {"H": a1 + a2 - eps, "E1": a2 - eps, "E2": a1 - eps}
        rest = res.exc_names[1:]
        start = 2
    else:
        values = dict(zip(term_config.ambient.names, wt.areas))
        rest = res.exc_names
        start = 1
    for i, nm in enumerate(rest, start=start):
        values[nm] = base / (s * 4**i)
    return AreaVector(amb, tuple(values[n] for n in amb.names))


def _chain_route(term, wt, tag, coeff_bound, area_bound):
    """Good chain -> admissible subchain -> cusp class -> resolution ->
    goodness of the resolution class."""
    candidates = _stage("good_chain", lambda: good_chain_candidates(term))
    if not candidates:
        raise CertifyError("good_chain", "no good-chain labeling exists")
    last_err = None
    for gc in candidates:
        a = tuple(-s for s in gc.squares[: gc.k])
        adm = admissible_check(a)
        if not adm.accepted:
            last_err = f"{a}: {adm.reason}"
            continue
        cusp = _stage("cusp_class", lambda: cusp_class(term, gc.ids, gc.k))
        res = _stage(
            "resolution",
            lambda: resolve_pattern(term, cusp.da, cusp.db, cusp.p, cusp.q, cusp.cls),
        )
        res_area = _resolution_areas(term, wt, res, area(cusp.cls, wt))
        comb_map, comb_check, dgood = _finish_resolution(
            term, wt, cusp, res, res_area, coeff_bound, area_bound
        )
        return (tag, cusp, res.multiplicities, res, res_area, dgood,
                comb_map, comb_check, [])
    raise CertifyError("admissible", f"no admissible subchain labeling: {last_err}")


def _finish_resolution(term, wt, cusp, res, res_area, coeff_bound, area_bound):
    es = _stage(
        "enumerate",
        lambda: enumerate_exceptional(res.config.ambient, res_area, area_bound, coeff_bound),
    )
    dgood = _stage("dgood", lambda: d_good(res.a_tilde, res.config, res_area, es))
    pc_map, pc_check = _stage("combination", lambda: positive_combination(res, term))
    comb = {}
    for cid, ci in zip(cusp.chain_ids[: cusp.k], cusp.c):
        comb[cid] = comb.get(cid, 0) + ci
    for cid, v in pc_map.items():
        comb[cid] = comb.get(cid, 0) + v
    total = res.config.ambient.zero()
    for cid, coeff in comb.items():
        total = total + coeff * res.config.component(cid).cls
    ok = total == res.a_tilde and all(v >= 0 for v in comb.values())
    comb_check = Check(
        "Atilde is a non-negative combination of total-transform components",
        ok,
        str({k: v for k, v in sorted(comb.items()) if v}),
    )
    if not ok:
        raise CertifyError("combination", "resolution class combination failed")
    return comb, comb_check, dgood


def _b2_route(term, wt, coeff_bound, area_bound, assumptions):
    """Terminal models with b2 <= 2: combs ride the fiber class, chains
    reuse the cusp machinery, the degree-two sphere in the plane gets its
    dedicated four-blowup pattern."""
    tag = classify_minimal_model(term)
    if tag is None:
        raise CertifyError("minimal_model", f"no minimal-model case matches {term.ambient.describe()}")
    name = tag.case
    notes = [f"terminal minimal model: {name} {tag.params}"]

    if name == "A3p":
        return _a3_route(term, wt, coeff_bound, area_bound, notes)

    if name == "A1p":
        aux_id = "aux_line"
        h = term.ambient.basis_class("H")
        d1 = term.components[0]
        augmented = DivisorConfig.build(
            term.ambient,
            [(c.id, c.cls) for c in term.components] + [(aux_id, h)],
            list(term.edges) + [(d1.id, aux_id)],
        )
        notes.append(
            "an auxiliary line through a point of the divisor completes the "
            "single-line case; its data is marked auxiliary"
        )
        out = _chain_route(augmented, wt, f"minimal-model:{name}", coeff_bound, area_bound)
        return out[:-1] + (notes,)

    if len(term.components) >= 2:
        try:
            out = _chain_route(term, wt, f"minimal-model:{name}", coeff_bound, area_bound)
            return out[:-1] + (notes,)
        except (CertifyError, ReductionError):
            pass
    return _fiber_route(term, wt, name, coeff_bound, area_bound, notes)


def _fiber_candidates(amb):
    if amb.kind == KIND_S2S2:
        return [amb.basis_class("f1"), amb.basis_class("f2")]
    if amb.kind == KIND_RATIONAL and amb.n_exc == 1:
        return [amb.basis_class("H") - amb.basis_class(amb.names[1])]
    return []


def _fiber_route(term, wt, name, coeff_bound, area_bound, notes):
    """(p, q) = (1, 0): a square-zero class meeting exactly one component
    once foliates the complement."""
    for f in _fiber_candidates(term.ambient):
        hot = [c.id for c in term.components if pair(f, c.cls) != 0]
        if len(hot) != 1 or pair(f, term.component(hot[0]).cls) != 1:
            continue
        da = hot[0]
        teeth = sorted(term.neighbors(da))
        db = teeth[0] if teeth else None
        checks = [
            Check("A.A = 0", pair(f, f) == 0, ""),
            Check("A.K = -2", pair(f, canonical(term.ambient)) == -2, ""),
            Check("A meets the section once", pair(f, term.component(da).cls) == 1, da),
        ]
        cusp = CuspData((), 0, (), (), 1, 0, f, da, db, tuple(checks))
        notes.append(
            f"degenerate cusp designation: contact component {da}, "
            f"companion {db if db else 'none'}"
        )
        res = _stage("resolution", lambda: resolve_pattern(term, da, db, 1, 0, f))
        res_area = wt
        es = _stage(
            "enumerate",
            lambda: enumerate_exceptional(term.ambient, wt, area_bound, coeff_bound),
        )
        dgood = _stage("dgood", lambda: d_good(f, term, wt, es))
        return (f"minimal-model:{name}", cusp, (), res, res_area, dgood, None, None, notes)
    raise CertifyError("fiber_route", f"no fiber class foliates case {name}")


def _a3_route(term, wt, coeff_bound, area_bound, notes):
    """Half-toric plus three toric blowups on the degree-two sphere; the
    foliating class is 2h - e1 - e2 - e3 - e4 with a (4, 1) tangency."""
    d1 = term.components[0].id
    cur = term
    ids = []
    for i in range(4):
        name = cur.ambient.fresh_exc_name()
        move = HalfToricBlowup(d1) if i == 0 else ToricBlowup(d1, ids[-1])
        cur = blowup(cur, move, new_id=name, new_name=name)
        ids.append(name)
    amb = cur.ambient
    a_cls = embed_by_names(term.components[0].cls, amb)
    for nm in ids:
        a_cls = a_cls - amb.basis_class(nm)
    checks = _a_tilde_checks(cur, a_cls, ids[-1], ids)
    _require_all(checks, "a3-pattern")
    cusp = CuspData((), 0, (), (), 4, 1, term.components[0].cls, d1, None,
                    (Check("A.A = pq", pair(term.components[0].cls, term.components[0].cls) == 4, ""),
                     Check("A.K = -p-q-1",
                           pair(term.components[0].cls, canonical(term.ambient)) == -6, "")))
    res = ResolutionResult(cur, d1, None, 4, 1, (1, 1, 1, 1), tuple(ids), tuple(ids),
                           a_cls, ids[-1], tuple(checks), {d1: 1})
    res_area = _resolution_areas(term, wt, res, area(term.components[0].cls, wt))
    es = _stage(
        "enumerate",
        lambda: enumerate_exceptional(amb, res_area, area_bound, coeff_bound),
    )
    dgood = _stage("dgood", lambda: d_good(a_cls, cur, res_area, es))
    comb = {d1: 1}
    comb_check = Check(
        "Atilde is the proper transform of the degree-two sphere",
        cur.component(d1).cls == a_cls,
        "",
    )
    notes.append(
        "the cusp degenerates to a fourth-order tangency at an interior "
        "point of the single component; blowup centers are chosen there"
    )
    return ("a3-special", cusp, (1, 1, 1, 1), res, res_area, dgood, comb, comb_check, notes)


def _transport_to_original(config, traces, cusp) -> OriginalTransport:
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


def _certify_ruled(config, w, hypothesis, coeff_bound, area_bound, bounds):
    problems = ruled_validate(config)
    if problems:
        raise CertifyError("ruled_validate", "; ".join(problems))
    assumptions = list(_BASE_ASSUMPTIONS) + [
        "the fiber class of the ruling is realizable through any adapted "
        "almost complex structure",
    ]
    amb = config.ambient
    f = amb.basis_class("F")
    sections = [c for c in config.components if pair(f, c.cls) == 1]
    cusp = None
    notes = []
    if sections:
        da = sections[0].id
        teeth = sorted(config.neighbors(da))
        db = teeth[0] if teeth else None
        checks = [
            Check("F.F = 0", pair(f, f) == 0, ""),
            Check("F.K = -2", pair(f, canonical(amb)) == -2, ""),
            Check("F meets the section once", pair(f, config.component(da).cls) == 1, da),
        ]
        cusp = CuspData((), 0, (), (), 1, 0, f, da, db, tuple(checks))
        res = resolve_pattern(config, da, db, 1, 0, f)
        resolution = res
    else:
        assumptions.append("an auxiliary section of the ruling closes up the fibration")
        resolution = None
    es = enumerate_exceptional(amb, w, area_bound, coeff_bound)
    dgood = d_good(f, config, w, es)
    return AffineRuledCertificate(
        route="ruled",
        route_tag="comb",
        hypothesis=hypothesis,
        traces=(),
        trace_checks=(),
        terminal_config=config,
        terminal_area=w,
        cusp=cusp,
        weights=(),
        resolution=resolution,
        resolution_area=w if resolution else None,
        dgood=tuple(dgood),
        combination=None,
        combination_check=None,
        original=None,
        assumptions=tuple(dict.fromkeys(assumptions + notes)),
        input_config=config,
        input_area=w,
        bounds=bounds,
    )


def verify_certificate(cert: AffineRuledCertificate) -> list[Check]:
    """Re-verify every numeric identity in the certificate from raw data."""
    out = []
    hyp = adjoint_area(cert.input_config, cert.input_area)
    out.append(Check("hypothesis re-verified", hyp < 0, str(hyp)))
    cur = cert.input_config
    for tr in cert.traces:
        out.extend(verify_trace(tr, cur))
        cur = tr.steps[-1].blowdown.config if tr.steps else cur
    out.append(Check("terminal matches trace", cur == cert.terminal_config, ""))
    if cert.cusp and cert.cusp.chain_ids:
        if sorted(cert.cusp.chain_ids) == sorted(cert.terminal_config.ids()):
            redone = cusp_class(cert.terminal_config, cert.cusp.chain_ids, cert.cusp.k)
            out.append(Check(
                "cusp data re-verified",
                (redone.p, redone.q, redone.cls)
                == (cert.cusp.p, cert.cusp.q, cert.cusp.cls),
                f"({redone.p}, {redone.q})",
            ))
        else:
            # auxiliary-augmented chain: re-check the closed identities only
            c = cert.cusp
            ok = (
                pair(c.cls, c.cls) == c.p * c.q
                and pair(c.cls, canonical(c.cls.ambient)) == -c.p - c.q - 1
            )
            out.append(Check("cusp identities re-verified", ok, "auxiliary chain"))
    if cert.resolution is not None:
        res = cert.resolution
        out.extend(_a_tilde_checks(res.config, res.a_tilde, res.transverse_id, res.exc_names))
        if res.multiplicities:
            out.append(Check(
                "weights re-verified",
                sum(m * m for m in res.multiplicities) == res.p * res.q
                and sum(res.multiplicities) == res.p + res.q - 1,
                "",
            ))
    if cert.combination is not None and cert.resolution is not None:
        total = cert.resolution.config.ambient.zero()
        for cid, coeff in cert.combination.items():
            total = total + coeff * cert.resolution.config.component(cid).cls
        out.append(Check("combination re-verified", total == cert.resolution.a_tilde, ""))
    if cert.original is not None:
        out.extend(cert.original.checks)
    return out
