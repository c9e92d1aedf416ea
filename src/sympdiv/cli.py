"""Command line surface.

  sympdiv validate FILE          check a configuration document
  sympdiv certify FILE           emit an affine-ruledness certificate (JSON)
  sympdiv cusp P Q               weight sequence and its identities
  sympdiv inflate --n N --g G --target a/b,c/d,...   emit a verified plan
  sympdiv inflate --verify-only PLAN                 replay a plan file
  sympdiv check FILE             re-verify a certificate or plan document

Exit codes: 0 clean, 1 failed checks, 2 malformed input (a document or an
option value that cannot be parsed), 3 internal error (a ValueError or
ZeroDivisionError raised by the program on input it accepted; a defect to
report, printed as "internal error: ...").
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import documents
from .checks import all_passed
from .cusp import CertifyError, CuspError, certify_affine_ruled, weight_sequence
from .divisor import check_hypothesis, check_tree_of_spheres, validate
from .documents import DocumentError
from .exceptional import DEFAULT_COEFF_BOUND
from .inflation import NormalizedVector, PlanError, plan_kahler, verify_plan

EXIT_INPUT = 2
EXIT_INTERNAL = 3


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise DocumentError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise DocumentError(f"{path} is not valid JSON: {exc}") from exc


def _fraction_option(option: str, value: str) -> Fraction:
    try:
        return Fraction(value)
    except (ValueError, ZeroDivisionError) as exc:
        raise DocumentError(f"malformed {option} {value!r}: {exc}") from exc


def _emit(doc) -> None:
    print(json.dumps(doc, sort_keys=True, indent=2))


def cmd_validate(args) -> int:
    config, w = documents.parse_config(_load_json(args.path))
    problems = validate(config, w)
    for p in problems:
        print(f"invalid: {p}")
    if w is not None:
        hyp = check_hypothesis(config, w)
        print(f"hypothesis area(K+[D]) < 0: {'yes' if hyp else 'no'}")
        if not hyp:
            problems.append("adjoint area is not negative")
        if config.ambient.is_rational and not problems:
            tree = check_tree_of_spheres(config, w)
            for p in tree:
                print(f"tree-of-spheres: {p}")
            problems.extend(tree)
    if not problems:
        print("ok")
    return 0 if not problems else 1


def cmd_certify(args) -> int:
    config, w = documents.parse_config(_load_json(args.path))
    if w is None:
        raise DocumentError("certification needs an 'areas' entry")
    area_bound = _fraction_option("--area-bound", args.area_bound) if args.area_bound else None
    try:
        cert = certify_affine_ruled(
            config, w, coeff_bound=args.coeff_bound, area_bound=area_bound
        )
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


def cmd_inflate(args) -> int:
    if args.verify_only:
        plan = documents.doc_to_plan(_load_json(args.verify_only))
        checks = verify_plan(plan)
        for c in checks:
            if not c.passed:
                print(f"failed: {c.name}: {c.detail}")
        print("plan ok" if all_passed(checks) else "plan rejected")
        return 0 if all_passed(checks) else 1
    if args.target is None:
        print("--target is required unless --verify-only is given", file=sys.stderr)
        return EXIT_INPUT
    entries = [_fraction_option("--target entry", x) for x in args.target.split(",")]
    if args.n is not None and len(entries) != args.n + 1:
        raise DocumentError(f"target needs n+1 = {args.n + 1} entries")
    try:
        target = NormalizedVector(args.g, tuple(entries))
        plan = plan_kahler(target)
    except PlanError as exc:
        print(f"inflation planning failed: {exc}", file=sys.stderr)
        return 1
    doc = documents.plan_to_doc(plan)
    doc["verification"] = [c.as_dict() for c in verify_plan(plan)]
    _emit(doc)
    return 0


def cmd_check(args) -> int:
    doc = _load_json(args.path)
    if not isinstance(doc, dict):
        raise DocumentError("expected a JSON object")
    schema = doc.get("schema")
    if schema == documents.PLAN_SCHEMA:
        plan = documents.doc_to_plan(doc)
        checks = verify_plan(plan)
        ok = all_passed(checks)
        print("plan ok" if ok else "plan rejected")
        return 0 if ok else 1
    if schema == documents.CERTIFICATE_SCHEMA:
        if "input" not in doc:
            raise DocumentError("certificate lacks its 'input' configuration")
        config, w = documents.parse_config(doc["input"])
        if w is None:
            raise DocumentError("certificate input lacks areas")
        bounds = doc.get("bounds") or {}
        if not isinstance(bounds, dict) or not isinstance(bounds.get("coeff_bound", 0), int):
            raise DocumentError("bounds: expected an object with an integer coeff_bound")
        area_bound = (
            documents.parse_fraction(bounds["area_bound"]) if bounds.get("area_bound") else None
        )
        coeff_bound = bounds.get("coeff_bound") or DEFAULT_COEFF_BOUND
        try:
            cert = certify_affine_ruled(config, w, coeff_bound=coeff_bound, area_bound=area_bound)
        except CertifyError as exc:
            print(f"re-certification failed: {exc}", file=sys.stderr)
            return 1
        regenerated = documents.certificate_to_doc(cert)
        supplied = dict(doc)
        same = documents.canonical_json(regenerated) == documents.canonical_json(supplied)
        print("certificate verified (re-derived identically)" if same else "certificate mismatch")
        return 0 if same else 1
    raise DocumentError(f"unknown document schema {schema!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="sympdiv")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate a configuration document")
    p.add_argument("path")
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("certify", help="emit an affine-ruledness certificate")
    p.add_argument("path")
    p.add_argument("--dot", help="also write stage dual graphs to this DOT file")
    p.add_argument("--coeff-bound", type=int, default=DEFAULT_COEFF_BOUND)
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


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
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
