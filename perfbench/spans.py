"""Spans recorded from outside the program, around sympdiv's public functions.

`Tracer.install` replaces each function named in LAYERS by a wrapper that
records one span (name, start, end, parent span, whether it raised).  Because
sympdiv modules import names with `from .x import y`, the wrapper is bound
into every sympdiv module namespace that holds the original function.  Spans
stay in memory in flat arrays and are written out when the run ends.
"""

from __future__ import annotations

import functools
import json
import re
import sys
import time
from array import array
from collections import Counter, defaultdict

# (module, attribute, span name); a span name may cover several functions
LAYERS = (
    ("lattice", "pair", "lattice.pair"),
    ("lattice", "area", "lattice.area"),
    ("lattice", "LatticeMap.transport_area", "lattice.transport_area"),
    ("divisor", "validate", "divisor.validate"),
    ("moves", "blowup", "moves.blowup"),
    ("moves", "blowdown", "moves.blowdown"),
    ("moves", "replay_blowdown", "moves.replay_blowdown"),
    ("exceptional", "enumerate_exceptional", "exceptional.enumerate"),
    ("exceptional", "d_good", "exceptional.d_good"),
    ("reduction", "quasi_minimal_reduce", "reduction.quasi_minimal"),
    ("reduction", "partially_minimal_reduce", "reduction.partially_minimal"),
    ("reduction", "second_kind_reduce", "reduction.second_kind"),
    ("reduction", "classify_kind", "reduction.classify_kind"),
    ("reduction", "verify_trace", "reduction.verify_trace"),
    ("cusp", "certify_affine_ruled", "cusp.certify"),
    ("cusp", "cusp_class", "cusp.cusp_class"),
    ("cusp", "resolve_pattern", "cusp.resolve"),
    ("cusp", "positive_combination", "cusp.combination"),
    ("inflation", "plan_kahler", "inflation.plan"),
    ("inflation", "inflate_step", "inflation.inflate_step"),
    ("inflation", "verify_plan", "inflation.verify_plan"),
    ("documents", "parse_config", "documents.parse"),
    ("documents", "doc_to_plan", "documents.parse"),
    ("documents", "certificate_to_doc", "documents.serialize"),
    ("documents", "plan_to_doc", "documents.serialize"),
    ("cli", "main", "cli"),
)

# counters read off return values: span name -> (counter, function of result)
RESULT_COUNTS = {
    "exceptional.enumerate": ("classes_found", lambda es: len(es.classes)),
    "cusp.resolve": ("resolution_blowups", lambda res: len(res.exc_names)),
    "cusp.certify": ("trace_steps", lambda cert: sum(len(t.steps) for t in cert.traces)),
}

# per-layer metric -> (kind, span name or counter); kinds: self time in ms,
# calls, calls that raised, a counter (count, bytes), a maximum (bits)
PER_LAYER = {
    "lattice.pair_calls": ("calls", "lattice.pair"),
    "lattice.pair_ms": ("ms", "lattice.pair"),
    "lattice.area_calls": ("calls", "lattice.area"),
    "lattice.area_ms": ("ms", "lattice.area"),
    "lattice.transport_area_ms": ("ms", "lattice.transport_area"),
    "divisor.validate_calls": ("calls", "divisor.validate"),
    "divisor.validate_ms": ("ms", "divisor.validate"),
    "moves.blowup_calls": ("calls", "moves.blowup"),
    "moves.blowup_ms": ("ms", "moves.blowup"),
    "moves.blowdown_calls": ("calls", "moves.blowdown"),
    "moves.blowdown_rejected": ("raised", "moves.blowdown"),
    "moves.blowdown_ms": ("ms", "moves.blowdown"),
    "moves.replay_blowdown_ms": ("ms", "moves.replay_blowdown"),
    "exceptional.enumerate_calls": ("calls", "exceptional.enumerate"),
    "exceptional.enumerate_ms": ("ms", "exceptional.enumerate"),
    "exceptional.classes_found": ("count", "classes_found"),
    "exceptional.d_good_ms": ("ms", "exceptional.d_good"),
    "reduction.quasi_minimal_ms": ("ms", "reduction.quasi_minimal"),
    "reduction.partially_minimal_ms": ("ms", "reduction.partially_minimal"),
    "reduction.second_kind_ms": ("ms", "reduction.second_kind"),
    "reduction.classify_kind_calls": ("calls", "reduction.classify_kind"),
    "reduction.verify_trace_ms": ("ms", "reduction.verify_trace"),
    "reduction.trace_steps": ("count", "trace_steps"),
    "cusp.certify_self_ms": ("ms", "cusp.certify"),
    "cusp.cusp_class_ms": ("ms", "cusp.cusp_class"),
    "cusp.resolve_ms": ("ms", "cusp.resolve"),
    "cusp.resolution_blowups": ("count", "resolution_blowups"),
    "cusp.combination_ms": ("ms", "cusp.combination"),
    "inflation.plan_ms": ("ms", "inflation.plan"),
    "inflation.inflate_step_calls": ("calls", "inflation.inflate_step"),
    "inflation.inflate_step_ms": ("ms", "inflation.inflate_step"),
    "inflation.verify_plan_ms": ("ms", "inflation.verify_plan"),
    "documents.parse_ms": ("ms", "documents.parse"),
    "documents.serialize_ms": ("ms", "documents.serialize"),
    "documents.out_bytes": ("bytes", "out_bytes"),
    "documents.max_bits": ("max", "max_bits"),
    "cli.self_ms": ("ms", "cli"),
}

UNITS = {"ms": "ms", "calls": "count", "raised": "count", "count": "count", "bytes": "bytes",
         "max": "bits"}


def max_bits(text: str) -> int:
    """Largest bit-length of an integer written in a document (numerators and
    denominators of its rationals included)."""
    return max((int(run).bit_length() for run in re.findall(r"\d+", text)), default=0)


class Tracer:
    """Spans in flat arrays, indexed by span number; parent -1 marks a root."""

    def __init__(self):
        self.names: list[str] = []
        self.name_of = array("H")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.raised = array("b")
        self.stack = [-1]
        self.counts: Counter = Counter()
        self.maxima: dict[str, int] = defaultdict(int)

    def _id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def wrap(self, fn, name: str):
        nid = self._id(name)
        count = RESULT_COUNTS.get(name)
        clock = time.perf_counter
        name_of, parent, start, end, raised = (
            self.name_of, self.parent, self.start, self.end, self.raised)
        stack, counts = self.stack, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(start)
            name_of.append(nid)
            parent.append(stack[-1])
            raised.append(0)
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                raised[i] = 1
                raise
            finally:
                end[i] = clock()
                stack.pop()
            if count is not None:
                counts[count[0]] += count[1](result)
            return result

        return traced

    def install(self) -> None:
        """Bind a wrapper for every LAYERS entry into each sympdiv module that
        holds the original function."""
        modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "sympdiv"]
        for mod_name, attr, name in LAYERS:
            mod = sys.modules[f"sympdiv.{mod_name}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                setattr(cls, meth, self.wrap(cls.__dict__[meth], name))
                continue
            orig = getattr(mod, attr)
            wrapped = self.wrap(orig, name)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is orig:
                        setattr(m, key, wrapped)

    def root(self, name: str, fn, *args):
        """Run fn(*args) as a root span (one benchmark step)."""
        return self.wrap(fn, name)(*args)

    def per_layer(self, ops: int, scale: float) -> dict:
        """Per-operation metrics; `scale` turns seconds into reference ms."""
        n = len(self.start)
        child = [0.0] * n
        dur = [e - s for s, e in zip(self.start, self.end)]
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += dur[i]
        self_s = Counter()
        calls = Counter()
        raised = Counter()
        for i, nid in enumerate(self.name_of):
            name = self.names[nid]
            self_s[name] += dur[i] - child[i]
            calls[name] += 1
            raised[name] += self.raised[i]
        out = {}
        for metric, (kind, key) in PER_LAYER.items():
            if kind == "ms":
                value = self_s[key] * scale / ops
            elif kind == "calls":
                value = calls[key] / ops
            elif kind == "raised":
                value = raised[key] / ops
            elif kind == "max":
                value = self.maxima[key]
            else:
                value = self.counts[key] / ops
            out[metric] = {"value": value, "unit": UNITS[kind]}
        return out

    def write(self, path) -> None:
        """Spans as flat little-endian arrays after a one-line JSON header."""
        header = {
            "names": self.names,
            "spans": len(self.start),
            "arrays": [["name", "H"], ["parent", "i"], ["start_s", "d"], ["end_s", "d"],
                       ["raised", "b"]],
        }
        with open(path, "wb") as fh:
            fh.write((json.dumps(header) + "\n").encode())
            for arr in (self.name_of, self.parent, self.start, self.end, self.raised):
                if sys.byteorder != "little":
                    arr = array(arr.typecode, arr)
                    arr.byteswap()
                arr.tofile(fh)
