"""Certificate checking by replay, without the producer's search.

`check_certificate(doc)` runs no reduction stage and enumerates no
exceptional classes.  From the recorded decisions alone it

  - validates the input and its adjoint-area hypothesis;
  - carries the input's areas down through the recorded contractions,
    checking each: the classes of its reflection word have square -2 and
    are orthogonal to K, the contracted class e is exceptional (in the
    Cremona orbit on CP2#n, n >= 3) of positive area, and the word takes e
    to the generator it drops (or e is the class of a bridge);
  - replays the recorded blowups up from the recorded terminal in one pass
    on coefficient tuples, each step checked by moves.blowup_states, with the
    hypothesis on both sides of each step read off the tuples, and compares
    where it ends with the validated input, which it must equal;
  - searches, for every contracted e, for an exceptional E != e with
    0 < area(E) <= area(e) and E.e < 0 (exceptional.find_witness).  An e
    represented by an embedded sphere has none (positivity of
    intersections), and this search stands in for re-running the
    reduction's selection rules;
  - hands this replay, as the reduction, to certify's own driver
    `cusp.build_certificate`, with the recorded chain labeling, the route's
    one free choice: the cusp fixes the resolution and the combination,
    which are recomputed, not read; goodness of the resolution class is
    decided by certify's `goodness_search` at the recorded area bound;
  - serializes the certificate the driver builds and requires the document
    given, as the text it was read from if given, else canonically.

The recorded traces must walk `reduction.NEXT_STAGE`, the stage order
certify walks.
"""

from __future__ import annotations

import operator

from . import documents
from .checks import Check
from .cusp import CertifyError, CuspError, adjoint_check, build_certificate
from .divisor import DivisorError, adjoint_area_of, validate
from .documents import DocumentError
from .exceptional import EnumerationError, find_witness
from .lattice import AreaVector, LatticeError, area, is_exceptional_class, pairing_row
from .moves import BlowdownStep, MoveError, blowup_states
from .reduction import NEXT_STAGE, ReductionTrace, TraceStep, step_checks

# what a document that does not replay raises inside the library
_REPLAY_ERRORS = (CertifyError, CuspError, DivisorError, EnumerationError, LatticeError, MoveError)


class _Rejected(Exception):
    """Ends a check at its first failed step."""


def check_certificate(doc, text: str | None = None) -> list[Check]:
    """The checks of a certificate document, recomputed; all of them pass
    exactly when the document is a certificate the replay reproduces.  A
    document that cannot be read as a certificate raises DocumentError.
    text, if given, must be exactly the JSON text doc was parsed from: the
    document passes its last check when that text is the rebuilt document's
    canonical encoding, so a doc changed after parsing could pass with it."""
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
        _check(doc, out, text)
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


def _check(doc: dict, out: list[Check], text: str | None) -> None:
    config, w = documents.parse_config(doc["input"])
    if w is None:
        raise DocumentError("certificate input lacks areas")
    area_bound = documents.doc_bounds(doc)
    problems = validate(config, w)
    _need(out, Check("input is valid", not problems, "; ".join(problems)))
    hypothesis = adjoint_check(config, w)
    _need(out, hypothesis)
    cert = build_certificate(config, w, hypothesis, area_bound,
                             lambda cfg, cw: _replay_traces(doc, cfg, cw, out))
    out.extend(cert.all_checks()[1:])  # the hypothesis is already in
    rebuilt = documents.certificate_to_doc(cert)
    c = documents.canonical_json(rebuilt)  # no floats: a text equal to c is canonical
    same = text is not None and c == text.strip() or c == documents.canonical_json(doc)
    differs = "" if same else next(
        k for k in sorted(set(rebuilt) | set(doc))
        if k not in rebuilt or k not in doc
        or documents.canonical_json(rebuilt[k]) != documents.canonical_json(doc[k])
    )
    out.append(Check("document equals its replay", same, differs and f"'{differs}' differs"))


# -- the reduction, replayed -----------------------------------------------------


def _replay_traces(doc, config, w, out):
    """The reduction of build_certificate, by replay: the traces, their
    checks, the terminal configuration with its areas, and the chain
    labeling the document records.  Areas go down from the input,
    configurations up from the terminal, so the traces chain and replay by
    construction; the stage and terminal labels must walk NEXT_STAGE, and
    are not otherwise re-derived."""
    recorded = []  # (stage, terminal, [(contraction, move, sphere, pre areas, post areas)])
    amb, cur_w, expected = config.ambient, w, "quasi_minimal"
    for t, tr in enumerate(_get(doc, "traces", list, "certificate")):
        where = f"traces[{t}]"
        stage, terminal = _get(tr, "stage", str, where), _get(tr, "terminal", str, where)
        if stage != expected or (stage, terminal) not in NEXT_STAGE:
            raise DocumentError(f"{where}: a {stage!r} trace ending in {terminal!r} where "
                                f"certify runs {expected!r}")
        expected = NEXT_STAGE[stage, terminal]
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

    term, wt = documents.parse_config(_get(doc, "terminal", dict, "certificate"))
    _need(out, Check("terminal areas are the input's, carried down", wt == cur_w, ""))
    problems = validate(term, wt)
    _need(out, Check("terminal is valid", not problems, "; ".join(problems)))

    flat = [step for _, _, steps in recorded for step in steps]
    states = blowup_states(term, [(con, move, sphere) for con, move, sphere, _, _ in flat[::-1]])
    state = next(states)
    traces, hyp_post = [], adjoint_area_of(state.classes.values(), wt) < 0
    for stage, terminal, steps in reversed(recorded):
        replayed = []
        for (con, move, sphere, pre_w, post_w), state in zip(reversed(steps), states):
            hyp_pre = adjoint_area_of(state.classes.values(), pre_w) < 0
            bd = BlowdownStep(None, None, move.kind, move, con, sphere, post_w)
            replayed.append(TraceStep(bd, con.pre.b2, con.post.b2, hyp_pre, hyp_post))
            hyp_post = hyp_pre
        traces.append(ReductionTrace(stage, tuple(reversed(replayed)), terminal))
    traces.reverse()
    _need(out, Check("replay reaches the input", state.matches(config), ""))

    steps = [(tr.stage, i, ts) for tr in traces for i, ts in enumerate(tr.steps)]
    for (stage, i, ts), (_, _, _, pre_w, _) in zip(steps, flat):
        e = ts.target
        witness = find_witness(e, pre_w, area(e, pre_w))
        detail = (f"{witness} pairs negatively with {e} within its area" if witness
                  else f"no other exceptional class within area({e}) pairs negatively with it")
        _need(out, Check(f"{stage}[{i}] has no witness", witness is None, detail))
    cusp = _get(doc, "cusp", dict, "certificate")
    chain, k = _get(cusp, "chain", list, "cusp"), _get(cusp, "k", int, "cusp")
    checks = [c for stage, i, ts in steps for c in step_checks(stage, i, ts, True, True)]
    return traces, checks, term, wt, lambda _: [(chain, k)] if k else []


def _contraction_check(name: str, con, w: AreaVector) -> Check:
    """The recorded contraction of a step is legal on the areas w before it."""
    e, amb = con.e, con.pre
    k, rows = amb.canonical_class.coeffs, [(c, pairing_row(c)) for c in con.word.word]
    problems = [f"word class {c} is not a square -2 class orthogonal to K" for c, r in rows
                if sum(map(operator.mul, r, c.coeffs)) != -2 or sum(map(operator.mul, r, k))]
    if not is_exceptional_class(e):
        problems.append(f"{e} is not exceptional")
    elif (a := area(e, w)).numerator <= 0:
        problems.append(f"{e} has non-positive area {a}")
    if con.slot is not None and con.word.apply_coeffs(e.coeffs) != tuple(
            int(j == con.slot) for j in range(amb.dim)):
        problems.append(f"the word does not take {e} to {amb.names[con.slot]}")
    return Check(f"{name} contraction", not problems, "; ".join(problems))
