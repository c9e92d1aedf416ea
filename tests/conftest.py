from __future__ import annotations

import importlib
import math
import operator
import random
import sys
from collections import deque
from fractions import Fraction
from itertools import combinations
from pathlib import Path

from sympdiv.divisor import DivisorConfig, adjoint_area, validate
from sympdiv.exceptional import EnumerationError, _degree_bound
from sympdiv.lattice import (
    AmbientLattice,
    AreaVector,
    HomologyClass,
    LatticeMap,
    cremona_descent,
    pairings,
)
from sympdiv.moves import (
    ExteriorBlowup,
    HalfToricBlowup,
    NonToricBlowup,
    ToricBlowup,
    area_after_blowup,
    blowup,
)

FIXTURES = Path(__file__).parent / "fixtures"
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def perfbench_module(name):
    """A module of perfbench/, imported read-only."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        return importlib.import_module(name)
    finally:
        sys.path.remove(str(PERFBENCH))


def rebind(monkeypatch, original, replacement):
    """Replace every binding of `original` in the sympdiv modules (its own
    module's included, so a spy calls the original it closes over)."""
    for m in [m for key, m in sys.modules.items() if key.split(".")[0] == "sympdiv"]:
        for key, value in list(vars(m).items()):
            if value is original:
                monkeypatch.setattr(m, key, replacement)


def decreasing_areas(amb: AmbientLattice, head=Fraction(1)) -> AreaVector:
    """Sharply decreasing exceptional areas, the generic regime of the
    reduction pipelines."""
    vals = {}
    if amb.kind == "rational_blowup" or amb.kind == "projective_plane":
        vals["H"] = head
    elif amb.kind == "product_of_spheres":
        vals["f1"] = head
        vals["f2"] = head
    elif amb.kind == "ruled_trivial":
        vals["B"] = 20 * head
        vals["F"] = head
    else:
        vals["B1"] = 20 * head
        vals["F"] = head
    for step, i in enumerate(amb.exc_indices, start=1):
        vals[amb.names[i]] = head / 4**step
    return AreaVector(amb, tuple(vals[n] for n in amb.names))


def cp2_13_cusp():
    """A CP2#13 configuration whose reduction finds an (8,3)-cusp class."""
    amb = AmbientLattice.rational_blowup(13)
    c = amb.cls
    comps = [
        ("P1", c(E3=1, E7=-1, E8=-1)),
        ("P2", c(E2=1, E3=-1, E5=-1)),
        ("P3", c(H=2, E1=-1, E2=-1, E5=-1, E6=-1)),
        ("P4", c(H=1, E1=-1)),
        ("P5", c(E1=1, E2=-1, E3=-1, E4=-1, E7=-1)),
        ("Q5", c(E5=1, E6=-1)),
        ("Q6", c(E6=1, E9=-1)),
        ("R9", c(E9=1, E10=-1)),
        ("R10", c(E10=1, E11=-1, E12=-1)),
        ("R11", c(E11=1, E12=-1)),
        ("R12", c(E12=1)),
    ]
    edges = [
        ("P1", "P2"), ("P2", "Q5"), ("Q5", "Q6"), ("Q6", "P3"), ("P3", "P4"),
        ("P4", "P5"), ("Q6", "R9"), ("R9", "R10"), ("R10", "R12"), ("R11", "R12"),
    ]
    cfg = DivisorConfig.build(amb, comps, edges)
    return cfg, decreasing_areas(amb)


def first_kind_cp2_8():
    """Quasi-minimal first-kind pair in CP2#8 whose partially minimal
    reduction lands on the (H-E8, 2H-E8) chain in CP2#1."""
    amb = AmbientLattice.rational_blowup(8)
    c = amb.cls
    comps = [
        ("T1", c(H=1, E1=-1, E8=-1)),
        ("T2", c(H=2, E1=-1, E2=-1, E3=-1, E4=-1, E5=-1, E6=-1, E7=-1, E8=-1)),
        ("X1", c(E1=1, E2=-1)),
        ("X2", c(E2=1, E3=-1)),
        ("X3", c(E3=1)),
    ]
    edges = [("T1", "X1"), ("X1", "X2"), ("X2", "X3"), ("X3", "T2")]
    cfg = DivisorConfig.build(amb, comps, edges)
    return cfg, decreasing_areas(amb)


def second_kind_cp2_4():
    """Quasi-minimal second-kind trident in CP2#4 (blowup of three
    concurrent lines)."""
    amb = AmbientLattice.rational_blowup(4)
    c = amb.cls
    comps = [
        ("D0", c(E4=1)),
        ("U1", c(H=1, E1=-1, E4=-1)),
        ("V1", c(H=1, E2=-1, E4=-1)),
        ("W1", c(H=1, E3=-1, E4=-1)),
    ]
    edges = [("D0", "U1"), ("D0", "V1"), ("D0", "W1")]
    cfg = DivisorConfig.build(amb, comps, edges)
    return cfg, decreasing_areas(amb)


def ruled_comb():
    """Comb over a genus-2 base in an 11-point blowup of the trivial
    bundle; one genus-2 section, fiber trees, two detached pieces."""
    amb = AmbientLattice.ruled_trivial(2, 11)
    c = amb.cls
    comps = [
        ("S", c(B=1, F=-2, E5=-1)),
        ("T1", c(F=1, E1=-1)), ("T2", c(E1=1, E2=-1)), ("T3", c(E2=1)),
        ("T4", c(F=1, E3=-1, E4=-1)), ("T5", c(E3=1)), ("T6", c(E4=1)),
        ("T7", c(F=1)),
        ("T8", c(F=1, E5=-1, E6=-1)), ("T9", c(E6=1)),
        ("T10", c(F=1, E7=-1, E8=-1)), ("T11", c(E7=1)),
    ]
    edges = [
        ("S", "T1"), ("T1", "T2"), ("T2", "T3"), ("S", "T4"), ("T4", "T5"),
        ("T4", "T6"), ("S", "T7"), ("T8", "T9"), ("S", "T10"), ("T10", "T11"),
    ]
    cfg = DivisorConfig.build(amb, comps, edges)
    return cfg, decreasing_areas(amb)


# -- synthetic chains ----------------------------------------------------------


def synthetic_chain(a_seq):
    """Embed negative-self-intersection data (a_1..a_k) as a sphere chain of
    length k+1 in a blowup of the plane: interior members are built from
    bridge and filler generators, the k-th member carries the degree."""
    a = tuple(int(x) for x in a_seq)
    k = len(a)
    names = []
    counter = [0]

    def fresh():
        counter[0] += 1
        names.append(f"E{counter[0]}")
        return names[-1]

    bridges = [fresh() for _ in range(k)]  # u_1..u_k
    specs = []  # (id, {name: coeff}, h_degree)
    if k == 1:
        b = max(0, -(-(1 - a[0]) // 2))  # ceil((1 - a_1)/2)
        p = 2 * b - 1 + a[0]
        entry = {bridges[0]: -1}
        entry[fresh()] = -1  # E_c
        if b:
            entry[fresh()] = -b
        for _ in range(p):
            entry[fresh()] = -1
        specs.append(("D1", entry, 1 + b))
    else:
        entry = {bridges[0]: 1}
        for _ in range(a[0] - 1):
            entry[fresh()] = -1
        specs.append(("D1", entry, 0))
        for i in range(1, k - 1):
            entry = {bridges[i - 1]: -1, bridges[i]: 1}
            for _ in range(a[i] - 2):
                entry[fresh()] = -1
            specs.append((f"D{i + 1}", entry, 0))
        b = max(0, -(-(2 - a[k - 1]) // 2))  # ceil((2 - a_k)/2)
        p = 2 * b - 2 + a[k - 1]
        entry = {bridges[k - 2]: -1, bridges[k - 1]: -1}
        entry[fresh()] = -1
        if b:
            entry[fresh()] = -b
        for _ in range(p):
            entry[fresh()] = -1
        specs.append((f"D{k}", entry, 1 + b))
    tail = {bridges[k - 1]: 1, fresh(): -1}
    specs.append((f"D{k + 1}", tail, 0))

    amb = AmbientLattice.rational_blowup(len(names), tuple(names))
    comps = []
    for cid, entry, deg in specs:
        coeffs = dict(entry)
        if deg:
            coeffs["H"] = deg
        comps.append((cid, amb.cls(**coeffs)))
    edges = [(f"D{i}", f"D{i + 1}") for i in range(1, k + 1)]
    cfg = DivisorConfig.build(amb, comps, edges)
    assert not validate(cfg), validate(cfg)
    return cfg, [f"D{i}" for i in range(1, k + 2)]


def sample_admissible(rng: random.Random):
    """Admissible data within |a_i| <= 6, k <= 8; cusp size kept moderate so
    resolutions stay a few dozen blowups."""
    while True:
        k = rng.randint(1, 8)
        if k == 1:
            a = (rng.randint(-6, -1),)
        else:
            a = tuple(
                [rng.randint(1, 6)]
                + [rng.randint(2, 6) for _ in range(k - 2)]
                + [rng.randint(-6, 0)]
            )
        from sympdiv.cusp import admissible_check

        adm = admissible_check(a)
        if adm.accepted and max(abs(x) for x in a) <= 6 and adm.p + adm.q <= 300:
            return a


# -- random configurations -------------------------------------------------------


def _seed_config(rng: random.Random):
    kind = rng.choice(["lines", "line", "ruled", "product"])
    if kind == "lines":
        amb = AmbientLattice.projective_plane()
        cfg = DivisorConfig.build(
            amb, [("A", amb.cls(H=1)), ("B", amb.cls(H=1))], [("A", "B")]
        )
        w = AreaVector.from_values(amb, [1])
    elif kind == "line":
        amb = AmbientLattice.projective_plane()
        cfg = DivisorConfig.build(amb, [("A", amb.cls(H=1))], [])
        w = AreaVector.from_values(amb, [1])
    elif kind == "product":
        amb = AmbientLattice.product_of_spheres()
        cfg = DivisorConfig.build(
            amb, [("A", amb.cls(f1=1)), ("B", amb.cls(f2=1))], [("A", "B")]
        )
        w = AreaVector.from_values(amb, [1, 1])
    else:
        g = rng.randint(1, 2)
        amb = AmbientLattice.ruled_trivial(g, 0)
        cfg = DivisorConfig.build(
            amb, [("S", amb.cls(B=1)), ("A", amb.cls(F=1))], [("S", "A")]
        )
        w = AreaVector.from_values(amb, [8, 1])
    return cfg, w


def random_move(rng: random.Random, cfg: DivisorConfig):
    options = ["exterior", "exterior_comp", "non_toric", "half_toric"]
    if cfg.edges:
        options += ["toric", "toric"]
    choice = rng.choice(options)
    if choice == "toric":
        a, b = rng.choice(cfg.edges)
        return ToricBlowup(a, b)
    if choice == "non_toric":
        return NonToricBlowup(rng.choice(cfg.ids()))
    if choice == "half_toric":
        return HalfToricBlowup(rng.choice(cfg.ids()))
    return ExteriorBlowup(add_component=(choice == "exterior_comp"))


def random_blowup_config(rng: random.Random, max_moves=8):
    """Random valid configuration built by blowups from a small seed, with
    a transported area vector keeping the adjoint area negative."""
    cfg, w = _seed_config(rng)
    for _ in range(rng.randint(1, max_moves)):
        move = random_move(rng, cfg)
        nxt = blowup(cfg, move)
        slack = -adjoint_area(cfg, w)
        new_area = min(min(w.areas), slack) / 8
        w = area_after_blowup(cfg, nxt, w, new_area)
        cfg = nxt
    return cfg, w


# -- lattice maps ----------------------------------------------------------------


def swap(amb: AmbientLattice, i: int, j: int) -> LatticeMap:
    """Exchange the exceptional generators at i and j: the reflection in
    Ei - Ej."""
    return LatticeMap.reflection(amb.basis_class(amb.names[i]) - amb.basis_class(amb.names[j]))


def preserves_form(t: LatticeMap) -> bool:
    """Whether t keeps the form: the pairings of the images of the basis
    equal those of the basis."""
    basis = [t.ambient.basis_class(name) for name in t.ambient.names]
    images = [t.apply(b) for b in basis]
    return pairings(images, images) == pairings(basis, basis)


# -- exceptional classes of CP2#n, independently of the search ------------------------


def weyl_orbit(seed):
    """The orbit of seed under the reflections in Ei - Ej and H - Ei - Ej - Ek,
    by breadth-first search.  For n <= 8 the orbit of E1 is every exceptional
    class of CP2#n but at n = 2, where H - E1 - E2 is an orbit of its own
    (Manin, Cubic Forms)."""
    amb = seed.ambient
    h = amb.basis_class("H")
    e = [amb.basis_class(name) for name in amb.names[1:]]
    roots = [a - b for a, b in combinations(e, 2)]
    roots += [h - a - b - c for a, b, c in combinations(e, 3)]
    reflections = [LatticeMap.reflection(r) for r in roots]
    orbit, queue = {seed}, deque([seed])
    while queue:
        x = queue.popleft()
        for t in reflections:
            y = t.apply(x)
            if y not in orbit:
                orbit.add(y)
                queue.append(y)
    return orbit


def in_orbit(coeffs) -> bool:
    """Whether a class (a; c_1..c_n) of CP2#n with e.e = K.e = -1 is in the
    Cremona orbit of E1 (with H - E1 - E2 at n = 2): always at n <= 2, and
    else when lattice.cremona_descent takes it to a generator, which
    test_orbit checks against weyl_orbit.  From n = 10 on, leaf_test_search
    also lists classes outside the orbit."""
    return len(coeffs) < 4 or cremona_descent(coeffs) is not None


def leaf_test_search(ambient, nums, bd, cap, out):
    """The exceptional-class search of CP2#n as it was before it cut on area
    at every node, an oracle sharing no code with `exceptional`'s search: it
    prunes on the square and linear budgets only, prices each class at its
    leaf and appends (area numerator, coefficients) to out."""
    n = ambient.n_exc
    h_num = nums[0]
    exc_nums = nums[1:]
    sq_num = sum(v * v for v in exc_nums)

    if h_num * h_num <= sq_num:
        raise EnumerationError("area vector has non-positive square")

    a = 0
    while True:
        margin = a * h_num * bd - cap
        if margin > 0 and margin * margin > (a * a + 1) * sq_num * bd * bd:
            break
        vec = [0] * n
        deg_num = a * h_num

        def rec(i, sq, lin):
            if i == n:
                if sq == 0 and lin == 0:
                    num = deg_num + sum(map(operator.mul, vec, exc_nums))
                    if 0 < num and num * bd <= cap:
                        out.append((num, (a,) + tuple(vec)))
                return
            slots = n - i
            r = math.isqrt(sq)
            for c in range(-r, r + 1):
                rem_sq = sq - c * c
                rem_lin = lin - c
                if rem_lin * rem_lin > (slots - 1) * rem_sq if slots > 1 else (rem_sq or rem_lin):
                    continue
                vec[i] = c
                rec(i + 1, rem_sq, rem_lin)
            vec[i] = 0

        rec(0, a * a + 1, 1 - 3 * a)
        a += 1


def reference_search(ambient, nums, bd, cap, x, emit) -> int:
    """`exceptional._search` as it was while its branch and bound walked
    degree 0 too, node by node: the reference for the leaves the search
    emits, and their order.  Same arguments and emit protocol; returns the
    nodes it visited, which differ from the search's own count."""
    n = ambient.n_exc
    h_num, exc_nums = nums[0], nums[1:]
    x0, xs, need0 = (0, (0,) * n, -1) if x is None else (x.coeffs[0], x.coeffs[1:], 0)
    suf, xsuf = [0] * (n + 1), [0] * (n + 1)
    for i in range(n - 1, -1, -1):
        suf[i] = suf[i + 1] + exc_nums[i] * exc_nums[i]
        xsuf[i] = xsuf[i + 1] + xs[i] * xs[i]
    bd2, top = bd * bd, _degree_bound(nums, bd, cap)  # raises before rec exists
    nodes = 0

    def rec(i, sq, lin, num, need, head):
        nonlocal nodes
        nodes += 1
        m = num * bd - cap
        if m > 0 and m * m > sq * bd2 * suf[i]:
            return False
        if need >= 0 and need * need >= sq * xsuf[i]:
            return False
        if i >= n - 2:
            if i == n - 1:
                tails = [(lin,)] if lin * lin == sq else []
            else:
                # c + d = lin and c^2 + d^2 = sq: (c - d)^2 = 2 sq - lin^2, a
                # square that has lin's parity whenever it is a square
                t = 2 * sq - lin * lin
                s = math.isqrt(t) if t >= 0 else 0
                if s * s != t:
                    return False
                lo, hi = (lin - s) // 2, (lin + s) // 2
                tails = [(lo, hi), (hi, lo)] if s else [(lo, hi)]
            for tail in tails:
                leaf = num + sum(map(operator.mul, tail, exc_nums[i:]))
                if (0 < leaf and leaf * bd <= cap
                        and sum(map(operator.mul, tail, xs[i:])) > need
                        and (n < 3 or cremona_descent(head + tail) is not None)
                        and emit((leaf, HomologyClass(ambient, head + tail)))):
                    return True
            return False
        r, left, wi, xi = math.isqrt(sq), n - i - 1, exc_nums[i], xs[i]
        for c in range(-r, r + 1):
            rem_sq, rem_lin = sq - c * c, lin - c
            if rem_lin * rem_lin > left * rem_sq:
                continue
            if rec(i + 1, rem_sq, rem_lin, num + c * wi, need - c * xi, head + (c,)):
                return True
        return False

    for a in range(top):
        if rec(0, a * a + 1, 1 - 3 * a, a * h_num, a * x0 + need0, (a,)):
            break
    rec = None  # rec calls itself through this cell: end the cycle, leave no garbage
    return nodes
