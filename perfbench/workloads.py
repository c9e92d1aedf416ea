"""The four workloads: seeded input generation and their produce/check steps.

Inputs are built here from the seed alone, as configuration documents or
command lines; the program under test only receives them.  Every pass of a
run performs the same operations, so per-operation averages over whole
passes do not depend on how many passes fit into the run.

Each workload's inputs are stratified: every pass holds a fixed number of
inputs from each stratum (configuration family and size, area ratio and
bound, resolution length, n), and the seed only varies the inputs inside a
stratum and their order.  This keeps medians and tails comparable across seeds.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from fractions import Fraction
from pathlib import Path

from oracles import (
    Lattice,
    associated,
    certificate_failures,
    chain_failures,
    plan_failures,
    pq_from_sequence,
)

CERT_CHECKED = "certificate verified (re-derived identically)\n"
PLAN_CHECKED = "plan ok\n"


def run_cli(cli, argv):
    """sympdiv.cli.main(argv) in-process; returns (exit code, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
    if rc:
        return rc, out.getvalue() + err.getvalue()
    return rc, out.getvalue()


# -- configuration documents -----------------------------------------------------


def ambient_doc(kind, g, names):
    if kind == "rational_blowup":
        return {"kind": kind, "n": len(names) - 1, "names": list(names[1:])}
    if kind == "ruled_trivial":
        return {"kind": kind, "g": g, "n": len(names) - 2, "names": list(names[2:])}
    return {"kind": kind}


def config_doc(kind, g, names, comps, edges, areas):
    return {
        "schema": "sympdiv/config/v1",
        "ambient": ambient_doc(kind, g, names),
        "components": [
            {"id": cid, "class": {n: c for n, c in zip(names, vec) if c}}
            for cid, vec in comps.items()
        ],
        "edges": [list(e) for e in edges],
        "areas": {n: str(Fraction(a)) for n, a in zip(names, areas)},
    }


def _classes(names, spec):
    return {cid: [named.get(n, 0) for n in names] for cid, named in spec}


def cp2_13(r: Fraction):
    """The 13-point configuration whose certificate has an (8,3)-cusp class;
    exceptional areas 1/r^k."""
    names = ["H"] + [f"E{i}" for i in range(1, 14)]
    spec = [
        ("P1", {"E3": 1, "E7": -1, "E8": -1}),
        ("P2", {"E2": 1, "E3": -1, "E5": -1}),
        ("P3", {"H": 2, "E1": -1, "E2": -1, "E5": -1, "E6": -1}),
        ("P4", {"H": 1, "E1": -1}),
        ("P5", {"E1": 1, "E2": -1, "E3": -1, "E4": -1, "E7": -1}),
        ("Q5", {"E5": 1, "E6": -1}),
        ("Q6", {"E6": 1, "E9": -1}),
        ("R9", {"E9": 1, "E10": -1}),
        ("R10", {"E10": 1, "E11": -1, "E12": -1}),
        ("R11", {"E11": 1, "E12": -1}),
        ("R12", {"E12": 1}),
    ]
    edges = [("P1", "P2"), ("P2", "Q5"), ("Q5", "Q6"), ("P3", "Q6"), ("P3", "P4"),
             ("P4", "P5"), ("Q6", "R9"), ("R10", "R9"), ("R10", "R12"), ("R11", "R12")]
    areas = [Fraction(1)] + [1 / r**k for k in range(1, 14)]
    return config_doc("rational_blowup", 0, names, _classes(names, spec), edges, areas)


def first_kind_cp2_8():
    """A quasi-minimal pair of the first kind in CP2#8."""
    names = ["H"] + [f"E{i}" for i in range(1, 9)]
    spec = [
        ("T1", {"H": 1, "E1": -1, "E8": -1}),
        ("T2", {"H": 2, **{f"E{i}": -1 for i in range(1, 9)}}),
        ("X1", {"E1": 1, "E2": -1}),
        ("X2", {"E2": 1, "E3": -1}),
        ("X3", {"E3": 1}),
    ]
    edges = [("T1", "X1"), ("X1", "X2"), ("X2", "X3"), ("T2", "X3")]
    areas = [Fraction(1)] + [Fraction(1, 4**k) for k in range(1, 9)]
    return config_doc("rational_blowup", 0, names, _classes(names, spec), edges, areas)


def trident_cp2_4():
    """Three concurrent lines blown up at their common point: a quasi-minimal
    pair of the second kind in CP2#4."""
    names = ["H", "E1", "E2", "E3", "E4"]
    spec = [
        ("D0", {"E4": 1}),
        ("U1", {"H": 1, "E1": -1, "E4": -1}),
        ("V1", {"H": 1, "E2": -1, "E4": -1}),
        ("W1", {"H": 1, "E3": -1, "E4": -1}),
    ]
    edges = [("D0", "U1"), ("D0", "V1"), ("D0", "W1")]
    areas = [Fraction(1)] + [Fraction(1, 4**k) for k in range(1, 5)]
    return config_doc("rational_blowup", 0, names, _classes(names, spec), edges, areas)


def comb_genus2():
    """A comb over a genus-2 base in an 11-point blowup of the trivial bundle."""
    names = ["B", "F"] + [f"E{i}" for i in range(1, 12)]
    spec = [
        ("S", {"B": 1, "F": -2, "E5": -1}),
        ("T1", {"F": 1, "E1": -1}), ("T2", {"E1": 1, "E2": -1}), ("T3", {"E2": 1}),
        ("T4", {"F": 1, "E3": -1, "E4": -1}), ("T5", {"E3": 1}), ("T6", {"E4": 1}),
        ("T7", {"F": 1}),
        ("T8", {"F": 1, "E5": -1, "E6": -1}), ("T9", {"E6": 1}),
        ("T10", {"F": 1, "E7": -1, "E8": -1}), ("T11", {"E7": 1}),
    ]
    edges = [("S", "T1"), ("T1", "T2"), ("T2", "T3"), ("S", "T4"), ("T4", "T5"),
             ("T4", "T6"), ("S", "T7"), ("T8", "T9"), ("S", "T10"), ("T10", "T11")]
    areas = [Fraction(20), Fraction(1)] + [Fraction(1, 4**k) for k in range(1, 12)]
    return config_doc("ruled_trivial", 2, names, _classes(names, spec), edges, areas)


# -- random connected blowup configurations ----------------------------------------


SEEDS = ("line", "lines", "product", "ruled")


def _minus(v, e):
    return [x - y for x, y in zip(v, e)]


def random_config(rng: random.Random, seed_kind: str, moves: int):
    """A connected configuration reached from a small seed by `moves` random
    blowups (toric, non-toric, half-toric or exterior without a component).
    Each new exceptional sphere gets 1/8 of the smallest of the generator
    areas and the adjoint-area slack, so the adjoint area stays negative."""
    g = 0
    if seed_kind == "line":
        kind, names, comps, edges, areas = "projective_plane", ["H"], {"A": [1]}, [], [1]
    elif seed_kind == "lines":
        kind, names = "projective_plane", ["H"]
        comps, edges, areas = {"A": [1], "B": [1]}, [("A", "B")], [1]
    elif seed_kind == "product":
        kind, names = "product_of_spheres", ["f1", "f2"]
        comps, edges, areas = {"A": [1, 0], "B": [0, 1]}, [("A", "B")], [1, 1]
    else:
        kind, g, names = "ruled_trivial", rng.choice((1, 2)), ["B", "F"]
        comps, edges, areas = {"S": [1, 0], "A": [0, 1]}, [("A", "S")], [8, 1]
    areas = [Fraction(a) for a in areas]
    for step in range(1, moves + 1):
        lat = Lattice(kind, g, names)
        total = [sum(v[i] for v in comps.values()) for i in range(len(names))]
        slack = -sum((k + t) * w for k, t, w in zip(lat.canon, total, areas))
        eps = min(min(areas), slack) / 8
        if kind == "product_of_spheres":
            # f1 = H - E2, f2 = H - E1; the new sphere is H - E1 - E2
            a1, a2 = areas
            kind, names = "rational_blowup", ["H", "E1", "E2"]
            comps = {cid: [a + b, -b, -a] for cid, (a, b) in comps.items()}
            areas = [a1 + a2 - eps, a2 - eps, a1 - eps]
            e = [1, -1, -1]
        else:
            top = max([int(n[1:]) for n in names if n[0] == "E" and n[1:].isdigit()] + [0])
            names = names + [f"E{top + 1}"]
            comps = {cid: v + [0] for cid, v in comps.items()}
            areas = areas + [eps]
            e = [0] * (len(names) - 1) + [1]
            if kind == "projective_plane":
                kind = "rational_blowup"
        options = ["exterior", "non_toric", "half_toric"] + ["toric", "toric"] * bool(edges)
        move = rng.choice(options)
        new = f"X{step}"
        if move == "toric":
            a, b = rng.choice(sorted(edges))
            edges.remove((a, b))
            comps[a], comps[b], comps[new] = _minus(comps[a], e), _minus(comps[b], e), list(e)
            edges += [tuple(sorted((a, new))), tuple(sorted((b, new)))]
        elif move in ("non_toric", "half_toric"):
            c = rng.choice(sorted(comps))
            comps[c] = _minus(comps[c], e)
            if move == "half_toric":
                comps[new] = list(e)
                edges.append(tuple(sorted((c, new))))
    return config_doc(kind, g, names, comps, sorted(edges), areas)


# -- admissible chains -------------------------------------------------------------

RESOLUTION_LENGTHS = range(1, 16)


def resolution_length(p: int, q: int) -> int:
    """Number of toric blowups resolving a (p, q)-cusp: the steps of the
    subtractive Euclid algorithm from (p, q) down to (1, 1)."""
    steps = 1
    while p != q:
        p, q = abs(p - q), min(p, q)
        steps += 1
    return steps


def admissible_sequence(rng: random.Random, length: int):
    """Admissible data with |a_i| <= 6, k <= 8 and p+q <= 300 whose cusp is
    resolved by `length` blowups."""
    while True:
        k = rng.randint(1, 8)
        if k == 1:
            a = (rng.randint(-6, -1),)
        else:
            a = (rng.randint(1, 6),) + tuple(rng.randint(2, 6) for _ in range(k - 2)) + (
                rng.randint(-6, 0),)
        p, q = pq_from_sequence(a)
        if (min(associated(a)) >= 0 and p > 0 and math.gcd(p, q) == 1 and p + q <= 300
                and resolution_length(p, q) == length):
            return a


def chain_doc(a):
    """A sphere chain D_1..D_(k+1) in a blowup of CP2 with D_i.D_i = -a_i for
    i <= k.  Consecutive members share a bridge generator b_i (+b_i in D_i,
    -b_i in D_(i+1)); fillers lower squares; D_k carries 3H so that
    non-positive a_k are reachable."""
    k = len(a)
    names = ["H"]

    def fresh():
        names.append(f"E{len(names)}")
        return names[-1]

    bridges = [fresh() for _ in range(k)]
    spec = []
    for i in range(k):
        entry = {bridges[i]: 1}
        if i > 0:
            entry[bridges[i - 1]] = -1
        if i < k - 1:
            fillers = a[i] - (1 if i == 0 else 2)
        else:
            # D_k = 3H (- b_(k-1)) + b_k - (c fillers): square 8 - c, or 7 - c
            # when the chain has a predecessor
            entry["H"] = 3
            fillers = (8 if i == 0 else 7) + a[i]
        for _ in range(fillers):
            entry[fresh()] = -1
        spec.append((f"D{i + 1}", entry))
    spec.append((f"D{k + 1}", {bridges[k - 1]: -1, fresh(): 1}))
    edges = [(f"D{i}", f"D{i + 1}") for i in range(1, k + 1)]
    areas = [Fraction(1)] + [Fraction(1, 4**i) for i in range(1, len(names))]
    return config_doc("rational_blowup", 0, names, _classes(names, spec), edges, areas)


# -- operations ---------------------------------------------------------------------


class CliOp:
    """produce and check are sympdiv command lines; the produced document is
    written once, in set-up, to the file the check step reads."""

    def __init__(self, label, produce_argv, check_argv, out_path, oracle, checked):
        self.label = label
        self.produce_argv, self.check_argv = produce_argv, check_argv
        self.out_path, self.oracle, self.checked = out_path, oracle, checked

    def produce(self, sd):
        return run_cli(sd.cli, self.produce_argv)

    def check(self, sd, produced):
        return run_cli(sd.cli, self.check_argv)

    def keep(self, produced):
        """Write the produced document for the check step."""
        Path(self.out_path).write_text(produced[1], encoding="utf-8")

    def failures(self, produced, checked) -> list[str]:
        """Oracle verdict on one operation's outputs."""
        bad = []
        if produced[0] != 0:
            bad.append(f"produce exited {produced[0]}: {produced[1][-300:]}")
        elif checked != (0, self.checked):
            bad.append(f"check exited {checked[0]}: {checked[1][-300:]}")
        else:
            bad = self.oracle(produced[1])
        return bad

    def key(self, produced, checked):
        return produced, checked

    def document(self, produced):
        return produced[1]


class ChainOp:
    """produce is cusp_class then resolve_pattern; check is
    positive_combination."""

    def __init__(self, label, a, config):
        self.label, self.a, self.config = label, a, config
        self.ids = [f"D{i}" for i in range(1, len(a) + 2)]

    def produce(self, sd):
        cusp = sd.cusp.cusp_class(self.config, self.ids, len(self.a))
        res = sd.cusp.resolve_pattern(self.config, cusp.da, cusp.db, cusp.p, cusp.q, cusp.cls)
        return cusp, res

    def check(self, sd, produced):
        return sd.cusp.positive_combination(produced[1], self.config)

    def keep(self, produced):
        pass

    def failures(self, produced, checked) -> list[str]:
        return chain_failures(self.a, self.config, *produced, *checked)

    def key(self, produced, checked):
        cusp, res = produced
        pc, check = checked
        return (cusp.p, cusp.q, cusp.cls.coeffs, res.a_tilde.coeffs, res.multiplicities,
                res.config.ambient.names, tuple(sorted(pc.items())), check.passed)

    def document(self, produced):
        return None


def _cert_op(label, doc, workdir, extra=()):
    src = workdir / f"{label}.json"
    src.write_text(json.dumps(doc, indent=1), encoding="utf-8")
    out = workdir / f"{label}.cert.json"
    return CliOp(label, ["certify", str(src), *extra], ["check", str(out)], str(out),
                 certificate_failures, CERT_CHECKED)


def certify_mixed(rng, workdir, sd):
    """Four hand-built configurations plus three random connected
    configurations for every (seed family, number of moves 3..10)."""
    ops = [
        _cert_op("cp2_13", cp2_13(Fraction(4)), workdir),
        _cert_op("first_kind_cp2_8", first_kind_cp2_8(), workdir),
        _cert_op("trident_cp2_4", trident_cp2_4(), workdir),
        _cert_op("comb_genus2", comb_genus2(), workdir),
    ]
    for kind in SEEDS:
        for moves in range(3, 11):
            for j in range(3):
                doc = random_config(rng, kind, moves)
                ops.append(_cert_op(f"{kind}{moves}_{j}", doc, workdir))
    return ops


def certify_wide(rng, workdir, sd):
    """The 13-point configuration with exceptional areas 1/r^k, certified
    against all exceptional classes of area <= B.  Input j = 0..15 has
    B = 2 + j/16 and r = 3 + 3(j mod 8)/8 moved up by a seeded 1/256, 3/256
    or 5/256, so every r has denominator 256 and the rationals one size.
    The costs form a continuum (no gap for a quantile to fall into)."""
    ops = []
    for j in range(16):
        bound = str(2 + Fraction(j, 16))
        r = Fraction(768 + 96 * (j % 8) + rng.choice((1, 3, 5)), 256)
        ops.append(_cert_op(f"wide{j}", cp2_13(r), workdir, ("--area-bound", bound)))
    return ops


def resolve_chains(rng, workdir, sd):
    """Sixteen admissible chains for every resolution length 1..15; the
    number of blowups drives the cost of an operation."""
    ops = []
    for length in RESOLUTION_LENGTHS:
        for j in range(16):
            a = admissible_sequence(rng, length)
            config, _ = sd.documents.parse_config(chain_doc(a))
            ops.append(ChainOp(f"chain{length}_{j}", a, config))
    return ops


def inflate(rng, workdir, sd):
    """One target for every n = 2..16 on d_i = (2/5)(9/10)^(i-1), with a
    seeded genus g in 1..3 and a seeded margin s inside P_g:
    d_B = (sum d_i + 2g - 2)/2 + s."""
    ops = []
    for n in range(2, 17):
        g = rng.randint(1, 3)
        s = rng.choice((Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(1),
                        Fraction(3, 2), Fraction(2)))
        d = [Fraction(2, 5) * Fraction(9, 10) ** (i - 1) for i in range(1, n + 1)]
        target = [(sum(d) + 2 * g - 2) / 2 + s] + d
        out = workdir / f"plan{n}.json"
        argv = ["inflate", "--n", str(n), "--g", str(g),
                "--target", ",".join(str(x) for x in target)]
        ops.append(CliOp(f"plan{n}", argv, ["inflate", "--verify-only", str(out)], str(out),
                         plan_failures, PLAN_CHECKED))
    return ops


WORKLOADS = {
    "certify-mixed": certify_mixed,
    "certify-wide": certify_wide,
    "resolve-chains": resolve_chains,
    "inflate": inflate,
}
