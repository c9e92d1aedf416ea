"""Command line surface.

  sympdiv validate FILE          check a configuration document
  sympdiv certify FILE           emit an affine-ruledness certificate (JSON)
  sympdiv cusp P Q               weight sequence and its identities
  sympdiv inflate --n N --g G --target a/b,c/d,...   emit a verified plan
  sympdiv inflate --verify-only PLAN                 replay a plan file
  sympdiv check FILE             re-verify a certificate or plan document

`certify` and `inflate` print their document as canonical JSON (sorted keys,
no whitespace) and a newline.  `check` replays a certificate without the
producer's search (see `checker`): it never re-runs the reduction's selection
rules, and checks the legality of each recorded contraction and a witness
search per step instead.  It prints a `failed:` line per failed check and
"certificate rejected", or "certificate verified (re-derived identically)",
the wording of the first certificate version, which scripts compare; it still
holds, as the replay rebuilds the whole document and compares it with the
file's text first, then canonically.  A plan is replayed node by node;
`check` and `inflate --verify-only` print a `failed:` line per failed check,
then "plan ok" or "plan rejected".

Exit codes: 0 clean, 1 failed checks, 2 malformed input (a document or an
option value that cannot be parsed, a search bound under which nothing is
searched, or a base genus below 1), 3 internal error (a ValueError or
ZeroDivisionError raised by the program on input it accepted; a defect to
report, printed as "internal error: ...").
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import documents
from .checker import check_certificate
from .checks import all_passed, failures
from .cusp import CertifyError, CuspError, certify_affine_ruled, weight_sequence
from .divisor import check_hypothesis, check_tree_of_spheres, validate
from .documents import DocumentError, search_bounds
from .inflation import NormalizedVector, PlanError, _verified_plan, verify_plan

EXIT_INPUT = 2
EXIT_INTERNAL = 3


def _read_json(path: str):
    """The text of the file at path and the JSON value it parses to."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
        return text, json.loads(text)
    except OSError as exc:
        raise DocumentError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise DocumentError(f"{path} is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise DocumentError(f"{path} is nested too deeply to parse") from exc
    except ValueError as exc:  # an integer past the digit limit, or bytes not UTF-8
        raise DocumentError(f"{path} cannot be parsed: {exc}") from exc


def _fraction_option(option: str, value: str) -> Fraction:
    try:
        return documents.read_fraction(value)
    except (ValueError, ZeroDivisionError) as exc:
        raise DocumentError(f"malformed {option} {value!r}: {exc}") from exc


def _emit(doc) -> None:
    print(documents.canonical_json(doc))


def cmd_validate(args) -> int:
    config, w = documents.parse_config(_read_json(args.path)[1])
    problems = validate(config, w)
    for p in problems:
        print(f"invalid: {p}")
    if w is not None:
        hyp = check_hypothesis(config, w)
        print(f"hypothesis area(K+[D]) < 0: {'yes' if hyp else 'no'}")
        if not hyp:
            problems.append("adjoint area is not negative")
        if not config.ambient.is_ruled and not problems:
            tree = check_tree_of_spheres(config, w)
            for p in tree:
                print(f"tree-of-spheres: {p}")
            problems.extend(tree)
    if not problems:
        print("ok")
    return 0 if not problems else 1


def cmd_certify(args) -> int:
    config, w = documents.parse_config(_read_json(args.path)[1])
    if w is None:
        raise DocumentError("certification needs an 'areas' entry")
    area_bound = _fraction_option("--area-bound", args.area_bound) if args.area_bound else None
    search_bounds(area_bound)
    try:
        cert = certify_affine_ruled(config, w, area_bound=area_bound)
    except CertifyError as exc:
        print(f"certification failed at stage '{exc.stage}': {exc}", file=sys.stderr)
        return 1
    doc = documents.certificate_to_doc(cert)
    _emit(doc)
    if args.dot:
        with open(args.dot, "w", encoding="utf-8") as fh:
            fh.write(documents.certificate_dot(cert))
    return 0 if doc["all_passed"] else 1


def cmd_cusp(args) -> int:
    try:
        ws = weight_sequence(args.p, args.q)
    except CuspError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_INPUT
    print(" ".join(str(m) for m in ws.weights))
    sq = sum(m * m for m in ws.weights)
    sm = sum(ws.weights)
    print(f"sum m^2 = {sq} (pq = {args.p * args.q})")
    print(f"sum m   = {sm} (p + q - 1 = {args.p + args.q - 1})")
    return 0 if (sq == args.p * args.q and sm == args.p + args.q - 1) else 1


def _report(checks, ok: str, rejected: str) -> int:
    """A `failed: name: detail` line per failed check, then the verdict."""
    for c in failures(checks):
        print(f"failed: {c.name}: {c.detail}")
    print(ok if all_passed(checks) else rejected)
    return 0 if all_passed(checks) else 1


def _report_plan(doc) -> int:
    return _report(verify_plan(documents.doc_to_plan(doc)), "plan ok", "plan rejected")


def cmd_inflate(args) -> int:
    if args.verify_only:
        return _report_plan(_read_json(args.verify_only)[1])
    if args.target is None:
        print("--target is required unless --verify-only is given", file=sys.stderr)
        return EXIT_INPUT
    # argparse (Python 3.11 at least) parses `--target=--` as []
    target = "--" if args.target == [] else args.target
    entries = [_fraction_option("--target entry", x) for x in target.split(",")]
    if args.n is not None and len(entries) != args.n + 1:
        raise DocumentError(f"target needs n+1 = {args.n + 1} entries")
    if args.g < 1:
        raise DocumentError(f"base genus --g must be at least 1, got {args.g}")
    try:
        target = NormalizedVector(args.g, tuple(entries))
        plan, checks = _verified_plan(target)
    except PlanError as exc:
        print(f"inflation planning failed: {exc}", file=sys.stderr)
        return 1
    doc = documents.plan_to_doc(plan)
    doc["verification"] = [c.as_dict() for c in checks]
    _emit(doc)
    return 0


def cmd_check(args) -> int:
    text, doc = _read_json(args.path)
    if isinstance(doc, dict) and doc.get("schema") == documents.PLAN_SCHEMA:
        return _report_plan(doc)
    return _report(check_certificate(doc, text), "certificate verified (re-derived identically)",
                   "certificate rejected")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="sympdiv")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate a configuration document")
    p.add_argument("path")
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("certify", help="emit an affine-ruledness certificate")
    p.add_argument("path")
    p.add_argument("--dot", help="also write stage dual graphs to this DOT file")
    p.add_argument("--area-bound", default=None)
    p.set_defaults(fn=cmd_certify)

    p = sub.add_parser("cusp", help="weight sequence of a coprime pair")
    p.add_argument("p", type=int)
    p.add_argument("q", type=int)
    p.set_defaults(fn=cmd_cusp)

    p = sub.add_parser("inflate", help="plan or verify an inflation")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--g", type=int, default=1)
    p.add_argument("--target", default=None)
    p.add_argument("--verify-only", default=None)
    p.set_defaults(fn=cmd_inflate)

    p = sub.add_parser("check", help="re-verify a certificate or plan document")
    p.add_argument("path")
    p.set_defaults(fn=cmd_check)
    return parser


_PARSER = build_parser()  # built once: parse_args leaves it unchanged


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        return args.fn(args)
    except DocumentError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (ValueError, ZeroDivisionError) as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
