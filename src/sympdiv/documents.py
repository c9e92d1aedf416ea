"""JSON documents for configurations, certificates and plans, plus DOT
emission for dual graphs.  Rationals travel as "p/q" strings so documents
stay exact and language-neutral; emission is deterministic."""

from __future__ import annotations

import fractions
import hashlib
import json
import re
import sys
from fractions import Fraction

from .cusp import AffineRuledCertificate
from .divisor import DivisorConfig
from .inflation import InflateNode, InflationPlan, SeedNode, ZigZagNode
from .lattice import (
    KINDS,
    AmbientLattice,
    AreaVector,
    HomologyClass,
    LatticeError,
    LatticeMap,
    pair,
)
from .moves import (
    BlowupMove,
    Contraction,
    ExteriorBlowup,
    HalfToricBlowup,
    NonToricBlowup,
    ToricBlowup,
    recorded_contraction,
)

CONFIG_SCHEMA = "sympdiv/config/v1"
CERTIFICATE_SCHEMA = "sympdiv/certificate/v2"
CERTIFICATE_SCHEMA_V1 = "sympdiv/certificate/v1"
PLAN_SCHEMA = "sympdiv/plan/v1"


class DocumentError(ValueError):
    pass


# -- primitives ---------------------------------------------------------------


def _doc_int(v, where: str) -> int:
    if isinstance(v, bool) or not isinstance(v, int):
        raise DocumentError(f"{where}: expected an integer, got {v!r}")
    return v


def _doc_names(doc) -> tuple[str, ...] | None:
    if "names" not in doc:
        return None
    names = doc["names"]
    if not isinstance(names, list) or not all(isinstance(n, str) for n in names):
        raise DocumentError(f"names: expected a list of strings, got {names!r}")
    return tuple(names)


# the forms frac_str writes, "p" and "p/q", in ASCII digits
_FRAC_STR = re.compile(r"(-?)([0-9]+)(?:/([0-9]+))?")


def read_fraction(s: str) -> Fraction:
    """Fraction(s), with the same value or the same error.  The forms
    frac_str writes are read with int() as Fraction(s) reads them, digits
    first and the sign after, so that a run past the int digit limit fails
    with the same message; every other string goes to Fraction(s) itself,
    and is refused, with int()'s message, when its numerator or denominator
    has more digits than int() writes, as 1E5000 has: no document holds it.
    An exponent form reads as 0, or is refused, before 10**exp is built."""
    m = _FRAC_STR.fullmatch(s)
    if m is not None:
        sign, num, den = m.groups()
        p, q = int(num), int(den) if den else 1
        return Fraction(-p if sign else p, q)
    e = fractions._RATIONAL_FORMAT.match(s)  # the grammar of Fraction(s)
    if e and e["exp"]:  # int() on each part in Fraction(s)'s order, so each fails alike
        whole, dec = e["num"] or "0", (e["decimal"] or "").replace("_", "")
        mant = int(whole) * 10 ** len(dec) + (int(dec) if dec else 0)
        exp, digits = int(e["exp"]) - len(dec), len(whole) + len(dec)
        if mant == 0:
            return Fraction(0)
        # mant < 10**digits: the numerator is mant * 10**exp, the denominator >= 10**-exp / mant
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        if limit and max(exp, -exp - digits) >= limit:
            str(10**limit)  # raises int()'s own ValueError: the value is past the limit
    f = Fraction(s)
    str(f.numerator), str(f.denominator)  # a ValueError past the digit limit
    return f


def parse_fraction(s) -> Fraction:
    if isinstance(s, int) and not isinstance(s, bool):
        return Fraction(s)
    if not isinstance(s, str):
        raise DocumentError(f"expected a rational string, got {s!r}")
    try:
        return read_fraction(s)
    except (ValueError, ZeroDivisionError) as exc:
        raise DocumentError(f"malformed rational {s!r}: {exc}") from exc


def search_bounds(area_bound: Fraction | None) -> None:
    """Refuse an area bound under which the exceptional-class search finds
    nothing, so that goodness would pass vacuously."""
    if area_bound is not None and area_bound <= 0:
        raise DocumentError(f"area bound must be positive, got {area_bound}")


def doc_bounds(doc) -> Fraction | None:
    """The area bound a certificate records, None for the default; its
    `bounds` holds no other key."""
    bounds = doc.get("bounds") or {}
    if not isinstance(bounds, dict):
        raise DocumentError("bounds: expected an object")
    unknown = sorted(set(bounds) - {"area_bound"})
    if unknown:
        raise DocumentError(f"bounds: unknown key {unknown[0]!r}")
    area_bound = bounds.get("area_bound")
    if area_bound is not None:
        area_bound = parse_fraction(area_bound)
    search_bounds(area_bound)
    return area_bound


def frac_str(f: Fraction) -> str:
    return str(f)


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def digest(obj) -> str:
    return hashlib.sha256(canonical_json(obj).encode()).hexdigest()


# -- ambients -------------------------------------------------------------------


def ambient_to_doc(amb: AmbientLattice) -> dict:
    doc = {"kind": amb.kind}
    if amb.record.has_g:
        doc["g"] = amb.g
    if amb.record.has_exc:
        doc["n"] = amb.n_exc
        doc["names"] = list(amb.names[amb.exc_start :])
    return doc


def doc_to_ambient(doc) -> AmbientLattice:
    if not isinstance(doc, dict) or "kind" not in doc:
        raise DocumentError("ambient: expected an object with a 'kind' field")
    kind = doc["kind"]
    rec = KINDS.get(kind) if isinstance(kind, str) else None
    if rec is None:
        raise DocumentError(f"ambient: unknown kind {kind!r}")
    try:
        n = _doc_int(doc["n"], "n") if rec.has_exc else 0
        g = _doc_int(doc["g"], "g") if rec.has_g else 0
        return AmbientLattice.of(kind, g, n, _doc_names(doc) if rec.has_exc else None)
    except (KeyError, TypeError, ValueError, LatticeError) as exc:
        raise DocumentError(f"ambient: {exc}") from exc


# -- classes and configurations ---------------------------------------------------


def class_to_doc(cls: HomologyClass) -> dict:
    return {n: c for n, c in zip(cls.ambient.names, cls.coeffs) if c != 0}


def doc_to_class(doc, amb: AmbientLattice, where: str) -> HomologyClass:
    if not isinstance(doc, dict):
        raise DocumentError(f"{where}: class must be an object of name -> coefficient")
    vec, index = [0] * amb.dim, amb.name_index
    for name, c in doc.items():
        if name not in index:
            raise DocumentError(f"{where}: unknown generator {name!r}")
        vec[index[name]] = _doc_int(c, f"{where}: coefficient of {name}")
    return HomologyClass(amb, tuple(vec))


def config_to_doc(config: DivisorConfig, w: AreaVector | None = None) -> dict:
    doc = {
        "schema": CONFIG_SCHEMA,
        "ambient": ambient_to_doc(config.ambient),
        "components": [
            {"id": c.id, "class": class_to_doc(c.cls), "genus": c.genus}
            for c in config.components
        ],
        "edges": [list(e) for e in config.edges],
    }
    if w is not None:
        doc["areas"] = {n: frac_str(v) for n, v in zip(config.ambient.names, w.areas)}
    return doc


def parse_config(doc) -> tuple[DivisorConfig, AreaVector | None]:
    if not isinstance(doc, dict):
        raise DocumentError("document must be a JSON object")
    amb = doc_to_ambient(doc.get("ambient"))
    comps = []
    raw = doc.get("components")
    if not isinstance(raw, list) or not raw:
        raise DocumentError("components: expected a non-empty list")
    for i, c in enumerate(raw):
        if not isinstance(c, dict) or "id" not in c or "class" not in c:
            raise DocumentError(f"components[{i}]: need 'id' and 'class'")
        if not isinstance(c["id"], str):
            raise DocumentError(f"components[{i}].id: expected a string, got {c['id']!r}")
        cls = doc_to_class(c["class"], amb, f"components[{i}]")
        if "genus" in c:
            comps.append((c["id"], cls, _doc_int(c["genus"], f"components[{i}].genus")))
        else:
            comps.append((c["id"], cls))
    raw_edges = doc.get("edges", [])
    if not isinstance(raw_edges, list):
        raise DocumentError(f"edges: expected a list of id string pairs, got {raw_edges!r}")
    edges = []
    for i, e in enumerate(raw_edges):
        if not isinstance(e, list) or len(e) != 2 or not all(isinstance(x, str) for x in e):
            raise DocumentError(f"edges[{i}]: expected a pair of component id strings, got {e!r}")
        edges.append((e[0], e[1]))
    try:
        config = DivisorConfig.build(amb, comps, edges)
    except (ValueError, LatticeError) as exc:
        raise DocumentError(str(exc)) from exc
    w = None
    if "areas" in doc:
        named = doc["areas"]
        if not isinstance(named, dict):
            raise DocumentError("areas: expected an object of generator -> rational")
        vec = []
        for name in amb.names:
            if name not in named:
                raise DocumentError(f"areas: missing generator {name}")
            vec.append(parse_fraction(named[name]))
        try:
            w = AreaVector(amb, tuple(vec))
        except LatticeError as exc:
            raise DocumentError(f"areas: {exc}") from exc
    return config, w


def area_to_doc(w: AreaVector) -> dict:
    return {n: frac_str(v) for n, v in zip(w.ambient.names, w.areas)}


# -- DOT -----------------------------------------------------------------------


def config_to_dot(config: DivisorConfig, title: str = "divisor") -> str:
    lines = [f'graph "{title}" {{']
    for c in config.components:
        sq = pair(c.cls, c.cls)
        lines.append(f'  "{c.id}" [label="{c.id}: {c.cls} (sq {sq}, g {c.genus})"];')
    for a, b in config.edges:
        lines.append(f'  "{a}" -- "{b}";')
    lines.append("}")
    return "\n".join(lines)


# -- moves and contractions -------------------------------------------------------

# type -> (move class, its fields, whether it adds a sphere: None when an
# exterior blowup may or may not)
_MOVE_TYPES = {
    "toric": (ToricBlowup, ("a", "b"), True),
    "half_toric": (HalfToricBlowup, ("comp",), True),
    "non_toric": (NonToricBlowup, ("comp",), False),
    "exterior": (ExteriorBlowup, (), None),
}


def move_to_doc(move: BlowupMove, sphere: str | None) -> dict:
    """A blowup move with the id of the sphere it adds (None when it adds
    none)."""
    doc = {"type": move.kind, "sphere": sphere}
    for field in _MOVE_TYPES[move.kind][1]:
        doc[field] = getattr(move, field)
    return doc


def doc_to_move(doc) -> tuple[BlowupMove, str | None]:
    """The move and the id of the sphere it adds."""
    if not isinstance(doc, dict) or not isinstance(doc.get("type"), str) \
            or doc["type"] not in _MOVE_TYPES:
        raise DocumentError(f"move: expected an object with a known 'type', got {doc!r}")
    cls, fields, adds = _MOVE_TYPES[doc["type"]]
    args = [doc.get(f) for f in fields]
    sphere = doc.get("sphere")
    if not all(isinstance(a, str) for a in args) or not (sphere is None or isinstance(sphere, str)):
        raise DocumentError(f"move: component ids must be strings, got {doc!r}")
    if adds is not None and adds != (sphere is not None):
        raise DocumentError(f"move: a {doc['type']} blowup adds {'a' if adds else 'no'} sphere")
    if cls is ExteriorBlowup:
        return ExteriorBlowup(add_component=sphere is not None), sphere
    return cls(*args), sphere


def contraction_to_doc(con: Contraction) -> dict:
    """The reflection word with the generator it drops, or the bridge."""
    doc = {"word": [class_to_doc(c) for c in con.word.word]}
    if con.slot is None:
        doc["bridge"] = con.post.kind
    else:
        doc["drop"] = con.pre.names[con.slot]
    return doc


def doc_to_contraction(doc, e: HomologyClass) -> Contraction:
    """The recorded contraction of e; the word is taken as written."""
    amb = e.ambient
    if not isinstance(doc, dict) or not isinstance(doc.get("word"), list):
        raise DocumentError(f"contraction: expected an object with a 'word' list, got {doc!r}")
    word = tuple(doc_to_class(c, amb, "contraction word") for c in doc["word"])
    if "bridge" in doc:
        return recorded_contraction(e, LatticeMap(amb, word), None)
    drop = doc.get("drop")
    if drop not in amb.names[amb.exc_start:]:
        raise DocumentError(f"contraction: {drop!r} is no exceptional generator of {amb.describe()}")
    return recorded_contraction(e, LatticeMap(amb, word), amb.index_of(drop))


# -- checks, traces, certificates --------------------------------------------------


def _checks_doc(checks) -> list:
    return [c.as_dict() for c in checks]


def certificate_to_doc(cert: AffineRuledCertificate) -> dict:
    input_doc = config_to_doc(cert.input_config, cert.input_area)
    doc = {
        "schema": CERTIFICATE_SCHEMA,
        "input": input_doc,
        "input_digest": digest(input_doc),
        "route": cert.route,
        "route_tag": cert.route_tag,
        "bounds": {
            "area_bound": None if cert.area_bound is None else frac_str(cert.area_bound),
        },
        "hypothesis": cert.hypothesis.as_dict(),
        "traces": [
            {
                "stage": tr.stage,
                "terminal": tr.terminal,
                "steps": [
                    {
                        "class": class_to_doc(s.target),
                        "type": s.kind,
                        "b2_before": s.b2_before,
                        "b2_after": s.b2_after,
                        "hypothesis_before": s.hyp_before,
                        "hypothesis_after": s.hyp_after,
                        "contraction": contraction_to_doc(s.blowdown.contraction),
                        "move": move_to_doc(s.blowdown.move, s.blowdown.removed_component),
                    }
                    for s in tr.steps
                ],
            }
            for tr in cert.traces
        ],
        "trace_checks": _checks_doc(cert.trace_checks),
        "terminal": config_to_doc(cert.terminal_config, cert.terminal_area),
        "weights": list(cert.weights),
        "d_goodness": _checks_doc(cert.dgood),
        "assumptions": list(cert.assumptions),
    }
    if cert.cusp is not None:
        c = cert.cusp
        doc["cusp"] = {
            "p": c.p,
            "q": c.q,
            "spellings": [list(s) for s in c.spelled],
            "chain": list(c.chain_ids),
            "k": c.k,
            "negative_squares": list(c.a),
            "coefficients": list(c.c),
            "class": class_to_doc(c.cls),
            "d_a": c.da,
            "d_b": c.db,
            "checks": _checks_doc(c.checks),
        }
    else:
        doc["cusp"] = None
    if cert.resolution is not None:
        r = cert.resolution
        doc["resolution"] = {
            "total_transform": config_to_doc(r.config, None),
            "areas": area_to_doc(cert.resolution_area) if cert.resolution_area else None,
            "class": class_to_doc(r.a_tilde),
            "multiplicities": list(r.multiplicities),
            "exceptional": list(r.exc_names),
            "moves": [move_to_doc(m, x) for m, x in zip(r.moves, r.exc_ids)],
            "transverse": r.transverse_id,
            "checks": _checks_doc(r.checks),
        }
    else:
        doc["resolution"] = None
    if cert.combination is not None:
        doc["combination"] = {k: v for k, v in sorted(cert.combination.items())}
        doc["combination_check"] = (
            cert.combination_check.as_dict() if cert.combination_check else None
        )
    else:
        doc["combination"] = None
        doc["combination_check"] = None
    if cert.original is not None:
        o = cert.original
        doc["original"] = {
            "class": class_to_doc(o.cls),
            "p": o.p,
            "q": o.q,
            "d_a": o.da,
            "d_b": o.db,
            "checks": _checks_doc(o.checks),
            "notes": list(o.notes),
        }
    else:
        doc["original"] = None
    doc["all_passed"] = all(c.passed for c in cert.all_checks())
    return doc


def certificate_dot(cert: AffineRuledCertificate) -> str:
    """Dual graphs of every pipeline stage, deterministically ordered."""
    blocks = [config_to_dot(cert.input_config, "input")]
    cur = cert.input_config
    for tr in cert.traces:
        for i, s in enumerate(tr.steps):
            cur = s.blowdown.config
            blocks.append(config_to_dot(cur, f"{tr.stage}[{i}] after {s.kind} {s.target}"))
    blocks.append(config_to_dot(cert.terminal_config, "terminal"))
    if cert.resolution is not None:
        blocks.append(config_to_dot(cert.resolution.config, "resolution total transform"))
    return "\n\n".join(blocks) + "\n"


# -- plans ---------------------------------------------------------------------


def plan_to_doc(plan: InflationPlan) -> dict:
    nodes = []
    for node in plan.nodes:
        if isinstance(node, SeedNode):
            nodes.append(
                {
                    "type": "seed",
                    "base": plan_to_doc(node.base) if node.base is not None else None,
                    "epsilon": frac_str(node.epsilon) if node.epsilon is not None else None,
                    "vector": [frac_str(v) for v in node.vector],
                    "assumption": node.assumption,
                }
            )
        elif isinstance(node, InflateNode):
            nodes.append(
                {
                    "type": "inflate",
                    "class": list(node.z),
                    "label": node.label,
                    "t": frac_str(node.t),
                }
            )
        else:
            nodes.append(
                {
                    "type": "zigzag",
                    "diag": list(node.z_diag),
                    "down": list(node.z_down),
                    "label": node.label,
                    "total": frac_str(node.total),
                    "substeps": node.substeps,
                }
            )
    return {
        "schema": PLAN_SCHEMA,
        "g": plan.g,
        "n": plan.n,
        "target": [frac_str(v) for v in plan.target],
        "nodes": nodes,
    }


def _plan_list(v, length: int, where: str) -> list:
    if not isinstance(v, list) or len(v) != length:
        raise DocumentError(f"{where}: expected a list of {length} entries, got {v!r}")
    return v


def doc_to_plan(doc) -> InflationPlan:
    """The plan a document holds.  Each distinct rational string in it is
    read once: a base plan's target repeats its parent's seed vector."""
    seen: dict[str, Fraction] = {}

    def frac(s) -> Fraction:
        if type(s) is not str:
            return parse_fraction(s)
        if s not in seen:
            seen[s] = parse_fraction(s)
        return seen[s]

    return _doc_to_plan(doc, frac)


def _doc_to_plan(doc, frac) -> InflationPlan:
    if not isinstance(doc, dict) or doc.get("schema") != PLAN_SCHEMA:
        raise DocumentError("not an inflation plan document")
    try:
        g = _doc_int(doc["g"], "g")
        n = _doc_int(doc["n"], "n")
        if g < 1 or n < 0:
            raise DocumentError(f"a plan needs g >= 1 and n >= 0, got g = {g}, n = {n}")
        target = tuple(map(frac, _plan_list(doc["target"], n + 1, "target")))

        def cls(v, where):  # _doc_int only words the error
            v = _plan_list(v, n + 2, where)
            return tuple(v if all(type(c) is int for c in v) else (_doc_int(c, where) for c in v))

        nodes = []
        for i, nd in enumerate(doc["nodes"]):
            t = nd["type"]
            where = f"nodes[{i}]"
            if t == "seed":
                base = _doc_to_plan(nd["base"], frac) if nd.get("base") is not None else None
                eps = frac(nd["epsilon"]) if nd.get("epsilon") is not None else None
                vector = _plan_list(nd["vector"], n + 1, f"{where}.vector")
                nodes.append(SeedNode(base, eps, tuple(map(frac, vector)),
                                      nd.get("assumption", "")))
            elif t == "inflate":
                z = cls(nd["class"], f"{where}.class")
                nodes.append(InflateNode(z, nd.get("label", ""), frac(nd["t"])))
            elif t == "zigzag":
                zd, ze = cls(nd["diag"], f"{where}.diag"), cls(nd["down"], f"{where}.down")
                nodes.append(ZigZagNode(zd, ze, nd.get("label", ""), frac(nd["total"]),
                                        _doc_int(nd["substeps"], f"{where}.substeps")))
            else:
                raise DocumentError(f"{where}: unknown node type {t!r}")
    except (KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, DocumentError):
            raise
        raise DocumentError(f"plan document: {exc}") from exc
    return InflationPlan(g, n, target, tuple(nodes))
