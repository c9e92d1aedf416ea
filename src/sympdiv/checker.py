"""Certificate checking by replay, without the producer's search.

`check_certificate(doc)` runs no reduction stage and enumerates no
exceptional classes.  From the recorded decisions alone it

  - validates the input and its adjoint-area hypothesis;
  - carries the input's areas down through the recorded contractions,
    checking each: the classes of its reflection word have square -2 and
    are orthogonal to K, the contracted class e has e.e = K.e = -1 and
    positive area, and the word takes e to the generator it drops (or e is
    the class of a bridge);
  - replays the recorded blowups upward from the recorded terminal,
    validating every configuration the replay makes; they must reproduce
    every pre-configuration and finally the input, with the hypothesis on
    both sides of every step;
  - searches, for every contracted e, for an exceptional E != e with
    0 < area(E) <= area(e) and E.e < 0 (exceptional.find_witness).  An e
    represented by an embedded sphere has none (positivity of
    intersections), and this search stands in for re-running the
    reduction's selection rules;
  - rebuilds the route from the recorded chain labeling, resolution moves,
    multiplicities and combination: the cusp identities, the resolution and
    its identities, goodness of the resolution class by certify's own
    `goodness_search` at the recorded area bound, the combination and the
    transport to the input;
  - assembles the certificate as certify does, serializes it and requires
    the document given, canonically.
"""

from __future__ import annotations

from dataclasses import replace

from . import documents
from .checks import Check
from .cusp import (
    CertifyError,
    CuspError,
    ResolutionResult,
    Route,
    a1p_augmented,
    a3_cusp,
    a_tilde_checks,
    assemble_certificate,
    comb_route,
    cusp_class,
    fiber_route,
    goodness_search,
    resolution_blowup,
    resolution_checks,
    resolved_route,
    total_transform,
)
from .divisor import DivisorError, adjoint_area, check_hypothesis, require_valid, validate
from .documents import DocumentError
from .exceptional import EnumerationError, find_witness
from .lattice import AreaVector, LatticeError, area, canonical, is_exceptional_class, pair
from .moves import BlowdownStep, MoveError, replay_blowdown
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
    area_bound = documents.doc_bounds(doc)
    problems = validate(config, w)
    _need(out, Check("input is valid", not problems, "; ".join(problems)))
    hyp = adjoint_area(config, w)
    hypothesis = Check("adjoint area negative", hyp < 0, str(hyp))
    _need(out, hypothesis)

    goodness = goodness_search(area_bound)
    if config.ambient.is_ruled:
        traces, term, wt = [], config, w
        route = comb_route(config, w, goodness)
    else:
        traces, term, wt = _replay_traces(doc, config, w, out)
        route = _rational_route(doc, term, wt, goodness, out)

    trace_checks = []
    cur = config
    for tr in traces:
        for i, ts in enumerate(tr.steps):
            trace_checks.extend(step_checks(tr.stage, i, ts, ts.blowdown.pre_config == cur, True))
            cur = ts.blowdown.config
    cert = assemble_certificate(config, w, hypothesis, traces, trace_checks, term, wt, route,
                                area_bound)
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


def _replay_traces(doc, config, w, out):
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
            pre = require_valid(replay_blowdown(bd))
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
        witness = find_witness(e, pre_w, area(e, pre_w))
        detail = (f"{witness} pairs negatively with {e} within its area" if witness
                  else f"no other exceptional class within area({e}) pairs negatively with it")
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
        cur = resolution_blowup(cur, move, cons, ids, moves, sphere)
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
