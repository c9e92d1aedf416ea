"""Correctness oracles that share no code with sympdiv.

Each oracle recomputes the identities an output document claims, using this
file's own intersection forms, canonical classes and plan replayer, and
returns the list of identities that failed (empty means the output is
correct).  `self_test` mutates one field of a correct output at a time and
requires the oracle to reject every mutation.
"""

from __future__ import annotations

import copy
import json
from fractions import Fraction

# -- lattices ------------------------------------------------------------------


class Lattice:
    """Intersection form and canonical class of one of the five ambient kinds,
    over a named basis."""

    def __init__(self, kind: str, g: int, names: tuple[str, ...]):
        self.kind, self.g, self.names = kind, g, tuple(names)
        n = len(self.names)
        form = [[0] * n for _ in range(n)]
        if kind == "projective_plane":
            form[0][0] = 1
            canon = [-3]
        elif kind == "product_of_spheres":
            form[0][1] = form[1][0] = 1
            canon = [-2, -2]
        elif kind == "rational_blowup":
            form[0][0] = 1
            for i in range(1, n):
                form[i][i] = -1
            canon = [-3] + [1] * (n - 1)
        elif kind == "ruled_trivial":
            form[0][1] = form[1][0] = 1
            for i in range(2, n):
                form[i][i] = -1
            canon = [-2, 2 * g - 2] + [1] * (n - 2)
        elif kind == "ruled_twisted":
            form[0][0] = form[0][1] = form[1][0] = 1
            canon = [-2, 2 * g - 1]
        else:
            raise ValueError(f"unknown ambient kind {kind!r}")
        if len(canon) != n:
            raise ValueError(f"{kind} cannot have the basis {self.names}")
        self.form = form
        self.canon = canon

    @staticmethod
    def from_doc(doc: dict) -> "Lattice":
        kind = doc["kind"]
        g = int(doc.get("g", 0))
        n = int(doc.get("n", 0))
        default = [f"E{i}" for i in range(1, n + 1)]
        if kind == "projective_plane":
            names = ["H"]
        elif kind == "product_of_spheres":
            names = ["f1", "f2"]
        elif kind == "rational_blowup":
            names = ["H"] + list(doc.get("names", default))
        elif kind == "ruled_trivial":
            names = ["B", "F"] + list(doc.get("names", default))
        else:
            names = ["B1", "F"]
        return Lattice(kind, g, tuple(names))

    def vec(self, named: dict) -> list[int]:
        out = [0] * len(self.names)
        for name, c in named.items():
            out[self.names.index(name)] = int(c)
        return out

    def dot(self, x, y) -> int:
        return sum(
            x[i] * row[j] * y[j]
            for i, row in enumerate(self.form)
            if x[i]
            for j in range(len(y))
            if row[j]
        )


def _frac(s) -> Fraction:
    return Fraction(s) if isinstance(s, int) else Fraction(str(s))


def _sum(vectors, coeffs, n) -> list[int]:
    out = [0] * n
    for v, c in zip(vectors, coeffs):
        for i in range(n):
            out[i] += c * v[i]
    return out


def associated(a) -> list[int]:
    """c_0 = 0, c_1 = 1, c_i = a_(i-1) c_(i-1) - c_(i-2) for i = 2..k."""
    c = [0, 1]
    for i in range(1, len(a)):
        c.append(a[i - 1] * c[-1] - c[-2])
    return c


def pq_from_sequence(a) -> tuple[int, int]:
    """(p, q) of an admissible sequence: q = c_k, p = c_(k-1) - c_k a_k."""
    c = associated(a)
    return c[-2] - c[-1] * a[-1], c[-1]


# -- certificates ---------------------------------------------------------------


def certificate_failures(text: str) -> list[str]:
    """Identities a certificate document must satisfy, recomputed from it."""
    doc = json.loads(text)
    bad = []
    inp = doc["input"]
    lat = Lattice.from_doc(inp["ambient"])
    comps = {c["id"]: lat.vec(c["class"]) for c in inp["components"]}
    areas = [_frac(inp["areas"][name]) for name in lat.names]
    total = _sum(comps.values(), [1] * len(comps), len(lat.names))
    adjoint = sum((k + t) * w for k, t, w in zip(lat.canon, total, areas))
    if not adjoint < 0:
        bad.append(f"adjoint area {adjoint} is not negative")

    cusp, res, orig = doc["cusp"], doc["resolution"], doc["original"]
    if doc["route"] == "rational" and (cusp is None or res is None or orig is None):
        bad.append("rational certificate lacks cusp, resolution or original class")
    if orig is not None:
        a = lat.vec(orig["class"])
        p, q = orig["p"], orig["q"]
        if lat.dot(a, a) != p * q:
            bad.append("original A.A != pq")
        if lat.dot(a, lat.canon) != -p - q - 1:
            bad.append("original A.K != -p-q-1")
        for cid, v in comps.items():
            want = p if cid == orig["d_a"] else q if cid == orig["d_b"] else 0
            if lat.dot(a, v) != want:
                bad.append(f"original A.{cid} = {lat.dot(a, v)}, expected {want}")
    if res is not None:
        tt = res["total_transform"]
        rl = Lattice.from_doc(tt["ambient"])
        at = rl.vec(res["class"])
        if rl.dot(at, at) != 0:
            bad.append("Atilde.Atilde != 0")
        if rl.dot(at, rl.canon) != -2:
            bad.append("K.Atilde != -2")
        m = res["multiplicities"]
        p, q = cusp["p"], cusp["q"]
        if sum(x * x for x in m) != p * q:
            bad.append("sum m^2 != pq")
        if sum(m) != p + q - 1:
            bad.append("sum m != p+q-1")
        comb = doc["combination"]
        if comb is not None:
            rc = {c["id"]: rl.vec(c["class"]) for c in tt["components"]}
            if any(v < 0 for v in comb.values()):
                bad.append("negative combination coefficient")
            if _sum([rc[cid] for cid in comb], list(comb.values()), len(rl.names)) != at:
                bad.append("combination does not sum to Atilde")
    return bad


# -- inflation plans --------------------------------------------------------------


def in_region(g: int, d: list[Fraction]) -> bool:
    """Strict membership of (d_B, d_1, .., d_n) in P_g."""
    db, rest = d[0], d[1:]
    if any(x <= 0 for x in d):
        return False
    if not rest:
        return db > g
    if 2 - 2 * g + 2 * db - sum(rest) <= 0:
        return False
    if len(rest) == 1:
        return rest[0] < 1
    return rest[0] + rest[1] < 1 and all(x >= y for x, y in zip(rest, rest[1:]))


class PlanReject(Exception):
    pass


def _step(state, lat, z, t):
    if t < 0:
        raise PlanReject("negative step")
    az = sum(zi * s for zi, s in zip(z, state))
    if az <= 0:
        raise PlanReject("inflation class has non-positive area")
    zz = lat.dot(z, z)
    if zz < 0 and not t < az / -zz:
        raise PlanReject("a step breaks its inflation bound")
    ze = [lat.dot(z, [1 if j == i else 0 for j in range(len(z))]) for i in range(len(z))]
    out = [s + t * e for s, e in zip(state, ze)]
    if any(v <= 0 for v in out):
        raise PlanReject("a generator area became non-positive")
    return out


def _normalized(state):
    return [state[0] / state[1]] + [v / state[1] for v in state[2:]]


def _replay(plan: dict):
    g, n = int(plan["g"]), int(plan["n"])
    lat = Lattice("ruled_trivial", g, ("B", "F") + tuple(f"E{i}" for i in range(1, n + 1)))
    nodes = plan["nodes"]
    seed = nodes[0]
    if seed["type"] != "seed":
        raise PlanReject("plan does not start with a seed")
    vector = [_frac(v) for v in seed["vector"]]
    if len(vector) != n + 1:
        raise PlanReject("seed vector has the wrong length")
    if seed["base"] is not None:
        base = seed["base"]
        end = _normalized(_replay(base))
        eps = _frac(seed["epsilon"])
        if end != [_frac(v) for v in base["target"]]:
            raise PlanReject("base plan misses its target")
        if not (eps > 0 and vector == end + [eps]):
            raise PlanReject("seed does not extend the base plan by a positive area")
    elif any(v <= 0 for v in vector):
        raise PlanReject("primitive seed is not positive")
    state = [vector[0], Fraction(1)] + vector[1:]
    for node in nodes[1:]:
        if node["type"] == "inflate":
            state = _step(state, lat, node["class"], _frac(node["t"]))
        elif node["type"] == "zigzag":
            k = int(node["substeps"])
            total = _frac(node["total"])
            if k < 1 or total < 0:
                raise PlanReject("bad zig-zag data")
            for _ in range(k):
                state = _step(state, lat, node["diag"], total / k)
                state = _step(state, lat, node["down"], total / k)
        else:
            raise PlanReject(f"unexpected node {node['type']!r}")
    return state


def plan_failures(text: str) -> list[str]:
    """Region membership, every step bound and positivity, and the exact
    endpoint, recomputed by replaying the plan document."""
    doc = json.loads(text)
    target = [_frac(v) for v in doc["target"]]
    bad = []
    if not in_region(int(doc["g"]), target):
        bad.append("target is outside P_g")
    try:
        end = _normalized(_replay(doc))
    except PlanReject as exc:
        return bad + [str(exc)]
    if end != target:
        bad.append("endpoint differs from the target")
    return bad


# -- resolved chains ----------------------------------------------------------------


def chain_failures(a, config, cusp, res, pc, check) -> list[str]:
    """Identities of a resolved admissible chain, from the sequence a, the
    input configuration and the classes the program returned."""
    bad = []
    p, q = pq_from_sequence(a)
    if (cusp.p, cusp.q, res.p, res.q) != (p, q, p, q):
        bad.append(f"(p, q) = ({cusp.p}, {cusp.q}), the sequence gives ({p}, {q})")
    amb = config.ambient
    lat = Lattice(amb.kind, amb.g, amb.names)
    x = list(cusp.cls.coeffs)
    if lat.dot(x, x) != p * q or lat.dot(x, lat.canon) != -p - q - 1:
        bad.append("A.A != pq or A.K != -p-q-1")
    ramb = res.config.ambient
    rl = Lattice(ramb.kind, ramb.g, ramb.names)
    at = list(res.a_tilde.coeffs)
    if rl.dot(at, at) != 0 or rl.dot(at, rl.canon) != -2:
        bad.append("Atilde.Atilde != 0 or K.Atilde != -2")
    m = list(res.multiplicities)
    if sum(v * v for v in m) != p * q or sum(m) != p + q - 1:
        bad.append("multiplicities miss sum m^2 = pq or sum m = p+q-1")
    if not check.passed or any(v < 0 for v in pc.values()):
        bad.append("combination is not non-negative")
    # the combination must equal q (D_a - proper transform of D_a) - sum m_i E_i
    before = dict(zip(amb.names, config.component(res.da).cls.coeffs))
    proper = res.config.component(res.da).cls.coeffs
    target = [q * (before.get(nm, 0) - v) for nm, v in zip(ramb.names, proper)]
    for nm, mi in zip(res.exc_names, m):
        target[ramb.names.index(nm)] -= mi
    comps = [res.config.component(cid).cls.coeffs for cid in pc]
    if _sum(comps, list(pc.values()), len(ramb.names)) != target:
        bad.append("combination does not reproduce its target class")
    return bad


# -- self-test ------------------------------------------------------------------


def certificate_mutants(text: str) -> list[tuple[str, str]]:
    doc = json.loads(text)
    doubled = copy.deepcopy(doc)
    doubled["original"]["class"] = {k: 2 * v for k, v in doc["original"]["class"].items()}
    bumped = copy.deepcopy(doc)
    bumped["resolution"]["multiplicities"][0] += 1
    return [
        ("double the transported class", json.dumps(doubled)),
        ("change one multiplicity", json.dumps(bumped)),
    ]


def plan_mutants(text: str) -> list[tuple[str, str]]:
    doc = json.loads(text)
    step = next(node for node in doc["nodes"] if node["type"] == "inflate")
    step["t"] = str(_frac(step["t"]) + Fraction(1, 1000))
    return [("change one plan step's t", json.dumps(doc))]


def self_test(oracle, good, mutants) -> list[str]:
    """The oracle must accept `good` and reject every (name, mutant) pair;
    returns what it got wrong."""
    missed = [] if not oracle(good) else ["the unmutated output is rejected"]
    return missed + [what for what, bad in mutants if not oracle(bad)]
