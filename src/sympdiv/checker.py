"""Certificate checking by replay, without the producer's search.

`check_certificate(doc)` runs no reduction stage and enumerates no
exceptional classes.  From the recorded decisions alone it

  - validates the input and its adjoint-area hypothesis;
  - carries the input's areas down through the recorded contractions,
    checking each: the classes of its reflection word have square -2 and
    are orthogonal to K, the contracted class e has e.e = K.e = -1 and
    positive area, and the word takes e to the generator it drops (or e is
    the class of a bridge);
  - replays the recorded blowups upward from the recorded terminal, which
    must reproduce every pre-configuration and finally the input, with the
    hypothesis on both sides of every step;
  - searches, for every contracted e, for an exceptional E != e with
    0 < area(E) <= area(e) and E.e < 0.  An e represented by an embedded
    sphere has none (positivity of intersections), and this search stands
    in for re-running the reduction's selection rules;
  - rebuilds the route from the recorded chain labeling, resolution moves,
    multiplicities and combination: the cusp identities, the resolution and
    its identities, goodness of the resolution class by the same search at
    the recorded bounds, the combination and the transport to the input;
  - serializes all of it and requires the document given, canonically.

`find_witness` is the one bounded search.  It is written apart from
`exceptional` so that the two can be tested against each other.
"""

from __future__ import annotations

import math
import operator
from dataclasses import replace

from . import documents
from .checks import Check
from .cusp import (
    AffineRuledCertificate,
    CertifyError,
    CuspError,
    ResolutionResult,
    Route,
    a1p_augmented,
    a3_cusp,
    a_tilde_checks,
    certificate_assumptions,
    comb_route,
    cusp_class,
    fiber_route,
    resolution_checks,
    resolved_route,
    total_transform,
    transport_to_original,
)
from .divisor import DivisorError, adjoint_area, check_hypothesis, validate
from .documents import DocumentError
from .exceptional import EnumerationError, default_area_bound, goodness_checks
from .lattice import (
    KIND_RATIONAL,
    KIND_RULED,
    AreaVector,
    HomologyClass,
    LatticeError,
    area,
    canonical,
    is_exceptional_class,
    pair,
)
from .moves import BlowdownStep, MoveError, blowup, replay_blowdown, undo_blowup
from .reduction import ReductionTrace, TraceStep, classify_minimal_model, step_checks

# (stage, terminal) of a trace -> the stage certify runs after it: the
# stages after quasi-minimality must follow, a small-b2 trace is recorded
# only when it contracts something, and None ends the reduction
_NEXT_STAGE = {
    ("quasi_minimal", "QuasiMinimalFirstKind"): "partially_minimal",
    ("quasi_minimal", "QuasiMinimalSecondKind"): "second_kind",
    ("quasi_minimal", "SmallB2"): "small_b2",
    ("partially_minimal", "QuasiMinimalFirstKind"): None,
    ("partially_minimal", "SmallB2"): "small_b2",
    ("second_kind", "SmallB2"): "small_b2",
    ("small_b2", "SmallB2"): None,
}

# what a document that does not replay raises inside the library
_REPLAY_ERRORS = (CertifyError, CuspError, DivisorError, EnumerationError, LatticeError, MoveError)


class _Rejected(Exception):
    """Ends a check at its first failed step."""


def check_certificate(doc) -> list[Check]:
    """The checks of a certificate document, recomputed; all of them pass
    exactly when the document is a certificate the replay reproduces.  A
    document that cannot be read as a certificate raises DocumentError."""
    if not isinstance(doc, dict):
        raise DocumentError("expected a JSON object")
    if doc.get("schema") == documents.CERTIFICATE_SCHEMA_V1:
        raise DocumentError(
            f"{documents.CERTIFICATE_SCHEMA_V1} certificates are no longer checked; this "
            f"checker reads {documents.CERTIFICATE_SCHEMA}: re-run `sympdiv certify` on the input"
        )
    if doc.get("schema") != documents.CERTIFICATE_SCHEMA:
        raise DocumentError(f"unknown document schema {doc.get('schema')!r}")
    if "input" not in doc:
        raise DocumentError("certificate lacks its 'input' configuration")
    out: list[Check] = []
    try:
        _check(doc, out)
    except _Rejected:
        pass
    except _REPLAY_ERRORS as exc:
        out.append(Check("replay", False, f"{type(exc).__name__}: {exc}"))
    return out


def _need(out: list[Check], check: Check) -> None:
    out.append(check)
    if not check.passed:
        raise _Rejected


def _get(obj, key: str, kind: type, where: str):
    """obj[key], which must be of type kind (a bool is not an int)."""
    v = obj.get(key) if isinstance(obj, dict) else None
    if not isinstance(v, kind) or (kind is int and isinstance(v, bool)):
        raise DocumentError(f"{where}.{key}: expected {kind.__name__}, got {v!r}")
    return v


def _check(doc: dict, out: list[Check]) -> None:
    config, w = documents.parse_config(doc["input"])
    if w is None:
        raise DocumentError("certificate input lacks areas")
    coeff_bound, area_bound = documents.doc_bounds(doc)
    problems = validate(config, w)
    _need(out, Check("input is valid", not problems, "; ".join(problems)))
    hyp = adjoint_area(config, w)
    hypothesis = Check("adjoint area negative", hyp < 0, str(hyp))
    _need(out, hypothesis)

    def goodness(a, cfg, wa):
        bound = area_bound if area_bound is not None else default_area_bound(wa)
        witness, incomplete = find_witness(a, wa, bound, coeff_bound)
        return tuple(goodness_checks(a, cfg, wa, bound, coeff_bound, witness, incomplete))

    ruled = config.ambient.is_ruled
    if ruled:
        traces, term, wt = [], config, w
        route = comb_route(config, w, goodness)
    else:
        traces, term, wt = _replay_traces(doc, config, w, coeff_bound, out)
        route = _rational_route(doc, term, wt, goodness, out)

    trace_checks = []
    cur = config
    for tr in traces:
        for i, ts in enumerate(tr.steps):
            trace_checks.extend(step_checks(tr.stage, i, ts, ts.blowdown.pre_config == cur, True))
            cur = ts.blowdown.config
    cert = AffineRuledCertificate(
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
        bounds={"coeff_bound": coeff_bound, "area_bound": area_bound},
    )
    out.extend(cert.all_checks()[1:])  # the hypothesis is already in
    rebuilt = documents.certificate_to_doc(cert)
    same = documents.canonical_json(rebuilt) == documents.canonical_json(doc)
    differs = "" if same else next(
        k for k in sorted(set(rebuilt) | set(doc))
        if k not in rebuilt or k not in doc
        or documents.canonical_json(rebuilt[k]) != documents.canonical_json(doc[k])
    )
    out.append(Check("document equals its replay", same, differs and f"'{differs}' differs"))


# -- the reduction, replayed -----------------------------------------------------


def _replay_traces(doc, config, w, coeff_bound, out):
    """The traces rebuilt by replay, with the terminal configuration and
    its areas.  Areas go down from the input, configurations up from the
    terminal; the stage and terminal labels must come in the order certify
    runs the stages, and are not otherwise re-derived."""
    recorded = []  # (stage, terminal, [(contraction, move, sphere, pre areas, post areas)])
    amb, cur_w, expected = config.ambient, w, "quasi_minimal"
    for t, tr in enumerate(_get(doc, "traces", list, "certificate")):
        where = f"traces[{t}]"
        stage, terminal = _get(tr, "stage", str, where), _get(tr, "terminal", str, where)
        if stage != expected or (stage, terminal) not in _NEXT_STAGE:
            raise DocumentError(f"{where}: a {stage!r} trace ending in {terminal!r} where "
                                f"certify runs {expected!r}")
        expected = _NEXT_STAGE[stage, terminal]
        if stage == "small_b2" and not tr.get("steps"):
            raise DocumentError(f"{where}: a small_b2 trace without steps")
        steps = []
        for i, st in enumerate(_get(tr, "steps", list, where)):
            e = documents.doc_to_class(_get(st, "class", dict, f"{where}.steps[{i}]"), amb,
                                       f"{where}.steps[{i}].class")
            con = documents.doc_to_contraction(st.get("contraction"), e)
            move, sphere = documents.doc_to_move(st.get("move"))
            _need(out, _contraction_check(f"{stage}[{i}]", con, cur_w))
            post_w = con.pull_back(cur_w)
            steps.append((con, move, sphere, cur_w, post_w))
            amb, cur_w = con.post, post_w
        recorded.append((stage, terminal, steps))
    if expected not in (None, "small_b2"):
        raise DocumentError(f"traces: they end where certify runs {expected!r}")
    if (recorded[-1][1] == "SmallB2") == (doc.get("route_tag") == "admissible-subchain"):
        raise DocumentError(f"route {doc.get('route_tag')!r} after terminal {recorded[-1][1]!r}")

    term, wt = documents.parse_config(_get(doc, "terminal", dict, "certificate"))
    _need(out, Check("terminal areas are the input's, carried down", wt == cur_w, ""))
    problems = validate(term, wt)
    _need(out, Check("terminal is valid", not problems, "; ".join(problems)))

    traces, areas_before, post, hyp_post = [], [], term, check_hypothesis(term, wt)
    for stage, terminal, steps in reversed(recorded):
        replayed = []
        for con, move, sphere, pre_w, post_w in reversed(steps):
            bd = BlowdownStep(None, post, move.kind, move, con, sphere, post_w)
            pre = replay_blowdown(bd)
            hyp_pre = check_hypothesis(pre, pre_w)
            replayed.append(TraceStep(replace(bd, pre_config=pre), pre.ambient.b2,
                                      post.ambient.b2, hyp_pre, hyp_post))
            areas_before.append(pre_w)
            post, hyp_post = pre, hyp_pre
        traces.append(ReductionTrace(stage, tuple(reversed(replayed)), terminal))
    traces.reverse()
    areas_before.reverse()
    _need(out, Check("replay reaches the input", post == config, ""))

    steps = [(tr.stage, i, ts) for tr in traces for i, ts in enumerate(tr.steps)]
    for (stage, i, ts), pre_w in zip(steps, areas_before):
        e = ts.target
        witness, incomplete = find_witness(e, pre_w, area(e, pre_w), coeff_bound)
        detail = (f"{witness} pairs negatively with {e} within its area" if witness
                  else f"no other exceptional class within area({e}) pairs negatively with it")
        if incomplete:
            detail += "; search incomplete (conditional pass within bounds)"
        _need(out, Check(f"{stage}[{i}] has no witness", witness is None, detail))
    return traces, term, wt


def _contraction_check(name: str, con, w: AreaVector) -> Check:
    """The recorded contraction of a step is legal on the areas w before it."""
    e, amb = con.e, con.pre
    k = canonical(amb)
    problems = [f"word class {c} is not a square -2 class orthogonal to K"
                for c in con.word.word if pair(c, c) != -2 or pair(c, k) != 0]
    if not is_exceptional_class(e):
        problems.append(f"{e} is not exceptional")
    elif area(e, w) <= 0:
        problems.append(f"{e} has non-positive area {area(e, w)}")
    if con.slot is not None and con.word.apply(e) != amb.basis_class(amb.names[con.slot]):
        problems.append(f"the word does not take {e} to {amb.names[con.slot]}")
    return Check(f"{name} contraction", not problems, "; ".join(problems))


# -- the routes, rebuilt -----------------------------------------------------------


def _rational_route(doc, term, wt, goodness, out) -> Route:
    """The route the tag names on the terminal model, from the recorded
    chain labeling, resolution moves and combination."""
    tag = _get(doc, "route_tag", str, "certificate")
    cusp_doc = _get(doc, "cusp", dict, "certificate")
    res_doc = _get(doc, "resolution", dict, "certificate")
    model = classify_minimal_model(term)
    case = model.case if model else None
    if tag == "a3-special" and case == "A3p":
        cusp = a3_cusp(term)
        res = _replay_resolution(term, res_doc, cusp.da, None, 4, 1, cusp.cls, weighted=False)
        return resolved_route(tag, term, wt, cusp, res, {cusp.da: 1}, goodness)
    if case is not None and tag == f"minimal-model:{case}":
        if case == "A1p":
            term = a1p_augmented(term)
        elif _get(cusp_doc, "k", int, "cusp") == 0:
            return fiber_route(term, wt, case, goodness)
    elif tag != "admissible-subchain":
        _need(out, Check("route", False, f"route tag {tag!r} does not fit the terminal model {case}"))
    cusp = cusp_class(term, _get(cusp_doc, "chain", list, "cusp"), _get(cusp_doc, "k", int, "cusp"))
    res = _replay_resolution(term, res_doc, cusp.da, cusp.db, cusp.p, cusp.q, cusp.cls)
    comb = _get(doc, "combination", dict, "certificate")
    if not all(isinstance(v, int) and not isinstance(v, bool) for v in comb.values()):
        raise DocumentError("combination: expected integer coefficients")
    return resolved_route(tag, term, wt, cusp, res, comb, goodness)


def _replay_resolution(base, res_doc, da, db, p, q, a_cls, weighted=True) -> ResolutionResult:
    """The recorded resolution blowups replayed on base, the resolution class
    read off them with the recorded multiplicities, and its checks (with
    those of the multiplicities when weighted)."""
    cur, cons, ids, moves = base, [], [], []
    for md in _get(res_doc, "moves", list, "resolution"):
        move, sphere = documents.doc_to_move(md)
        if sphere is None:
            raise DocumentError("resolution: every blowup adds a sphere")
        nxt = blowup(cur, move, new_id=sphere)
        cons.append(undo_blowup(nxt.ambient, cur.ambient))
        ids.append(sphere)
        moves.append(move)
        cur = nxt
    mult = tuple(_get(res_doc, "multiplicities", list, "resolution"))
    if not all(isinstance(m, int) and not isinstance(m, bool) for m in mult):
        raise DocumentError("resolution.multiplicities: expected integers")
    if len(mult) != len(cons):
        raise CuspError(f"{len(mult)} multiplicities for {len(cons)} blowups")
    a_tilde = total_transform(cons, a_cls, mult)
    if ids:
        transverse = ids[-1]
    else:  # a degenerate cusp: (1, 0) meets da, (0, 1) meets db
        transverse = da if p == 1 else db
    if weighted and ids:
        checks = resolution_checks(cur, a_tilde, transverse, mult, p, q)
    else:
        checks = a_tilde_checks(cur, a_tilde, transverse)
    return ResolutionResult(cur, da, db, p, q, mult, tuple(str(c.e) for c in cons), tuple(ids),
                            a_tilde, transverse, tuple(checks), {}, tuple(cons), tuple(moves))


# -- the witness search ------------------------------------------------------------


def find_witness(
    x: HomologyClass, w: AreaVector, area_bound, coeff_bound: int
) -> tuple[HomologyClass | None, bool]:
    """An exceptional class E != x with 0 < area(E) <= area_bound and
    E.x < 0, its coefficients within coeff_bound as in
    exceptional.enumerate_exceptional, or None; with the flag that the degree
    cap was reached before the area bound ended the search (None then proves
    nothing past the cap).  The flag is that of the enumeration over the
    same bounds."""
    amb = x.ambient
    if amb != w.ambient:
        raise LatticeError("ambient mismatch")
    nums, den = w.integer_form
    bd = area_bound.denominator
    cap = area_bound.numerator * den
    if amb.kind == KIND_RULED:
        # the exceptional classes are E_i and F - E_i
        f, f_num = amb.basis_class("F"), nums[amb.fiber_index]
        for i in amb.exc_indices:
            ei = amb.basis_class(amb.names[i])
            for num, e in ((nums[i], ei), (f_num - nums[i], f - ei)):
                if 0 < num and num * bd <= cap and e != x and pair(e, x) < 0:
                    return e, False
        return None, False
    if amb.kind != KIND_RATIONAL:
        return None, False  # minimal kinds have no exceptional classes
    return _rational_witness(x, nums, bd, cap, coeff_bound)


def _rational_witness(x, nums, bd, cap, coeff_bound):
    """Branch and bound over E = (a; c_1..c_n) with a^2 + 1 = sum c_i^2 and
    sum c_i = 1 - 3a, as in the enumeration, with a second cut.  E.x < 0
    reads sum c_i x_i > a x_0; with `need` = a x_0 less the slots fixed so
    far, the slots i.. add at most sqrt(sq * xsuf[i]) (Cauchy-Schwarz, sq
    the square budget left, xsuf[i] the sum of x_j^2 over them), so a node
    with need >= 0 and need^2 >= sq * xsuf[i] has no witness below it."""
    amb = x.ambient
    n = amb.n_exc
    h_num, exc_nums = nums[0], nums[1:]
    x0, xs = x.coeffs[0], x.coeffs[1:]
    suf, xsuf = [0] * (n + 1), [0] * (n + 1)
    for i in range(n - 1, -1, -1):
        suf[i] = suf[i + 1] + exc_nums[i] * exc_nums[i]
        xsuf[i] = xsuf[i + 1] + xs[i] * xs[i]
    if h_num * h_num <= suf[0]:
        raise EnumerationError("area vector has non-positive square; the search cannot terminate")
    bd2 = bd * bd

    def rec(i, sq, lin, num, need, head):
        m = num * bd - cap
        if m > 0 and m * m > sq * bd2 * suf[i]:
            return None
        if need >= 0 and need * need >= sq * xsuf[i]:
            return None
        r = min(math.isqrt(sq), coeff_bound)
        if i >= n - 2:
            if i == n - 1:
                tails = [(lin,)] if lin * lin == sq else []
            else:
                t = 2 * sq - lin * lin
                s = math.isqrt(t) if t >= 0 else 0
                if s * s != t:
                    return None
                tails = [((lin - s) // 2, (lin + s) // 2), ((lin + s) // 2, (lin - s) // 2)]
            for tail in tails:
                leaf = num + sum(map(operator.mul, tail, exc_nums[i:]))
                if (max(map(abs, tail)) <= r and 0 < leaf and leaf * bd <= cap
                        and sum(map(operator.mul, tail, xs[i:])) > need):
                    e = HomologyClass(amb, head + tail)
                    if e != x:
                        return e
            return None
        for c in range(-r, r + 1):
            rem_sq, rem_lin = sq - c * c, lin - c
            if rem_lin * rem_lin > (n - i - 1) * rem_sq:
                continue
            found = rec(i + 1, rem_sq, rem_lin, num + c * exc_nums[i], need - c * xs[i],
                        head + (c,))
            if found is not None:
                return found
        return None

    found, incomplete, a = None, False, 0
    while True:
        if a > coeff_bound:
            incomplete = True
            break
        margin = a * h_num * bd - cap
        if margin > 0 and margin * margin > (a * a + 1) * suf[0] * bd2:
            break
        if found is None:
            found = rec(0, a * a + 1, 1 - 3 * a, a * h_num, a * x0, (a,))
        a += 1
    return found, incomplete
