"""Exceptional classes: bounded enumeration, the witness search that
decides goodness, minimal-area selection, numerical SW predicates,
D-goodness, and normalization of an exceptional class to a basis generator
by the square(-2) reflections of `lattice.cremona_descent`.

On a b2+ = 1 ambient an exceptional class is one with e.e = -1 and
K.e = -1, plus e.F = 0 over an irrational ruled base and membership of the
Cremona orbit of E1 on CP2#n, n >= 3 (`lattice.is_exceptional_class`).  On
a rational ambient, enumeration and the witness search run one search,
`_search`, which is complete below the area bound alone: with w.w > 0 the
least area an exceptional class of degree a can have grows with a, so the
area bound implies a degree past which there is nothing to search.  Degree
0 holds the generators E_i only, and the search tries them in closed form,
one node per slot; every degree a >= 1 runs a branch and bound, in which
every |c_i| is at most isqrt(a^2 + 1).  Its one leaf test keeps orbit
classes only.  Given the class x of a witness search it also cuts on the
pairing with x, and it stops at the first witness.
`d_good`, goodness over an enumeration, is the reference for goodness
decided by the witness search.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction

from .checks import Check
from .divisor import DivisorConfig
from .lattice import (
    KIND_RATIONAL,
    AmbientLattice,
    AreaVector,
    HomologyClass,
    LatticeError,
    LatticeMap,
    area,
    canonical,
    cremona_descent,
    is_exceptional_class,
    listed_exceptional,
    pair,
    sw_index,
)


class EnumerationError(ValueError):
    pass


class NormalizeError(ValueError):
    pass


@dataclass(frozen=True)
class ExceptionalSet:
    ambient: AmbientLattice
    w: AreaVector
    classes: tuple[HomologyClass, ...]  # sorted by (area, coeffs)
    areas: tuple[Fraction, ...]  # areas[i] is the area of classes[i]
    area_bound: Fraction
    nodes: int  # search nodes visited: a work counter, never serialized


def default_area_bound(w: AreaVector) -> Fraction:
    """The area of the cheapest exceptional basis generator (0 when there is
    none): an upper bound for the least exceptional area."""
    nums, den = w.integer_form
    return Fraction(min((nums[i] for i in w.ambient.exc_indices), default=0), den)


def _degree_bound(nums, bd, cap) -> int:
    """The least degree a at which no exceptional class (a; c_1..c_n) of a
    rational ambient has area within the bound, on w's integer form (areas
    nums/den, bound cap/(bd*den)).  By Cauchy-Schwarz the least area at
    degree a is a*w_H - sqrt((a^2+1) * sum w_i^2), which grows with a when
    w.w > 0; so this is the least a with a*w_H - bound > 0 and
    (a*w_H - bound)^2 > (a^2+1) * sum w_i^2, and no degree past it has a
    class within the bound either."""
    h_num, sq = nums[0], sum(v * v for v in nums[1:])
    if h_num * h_num <= sq:  # den^2 * w.square() <= 0
        raise EnumerationError("area vector has non-positive square; the search cannot terminate")
    bd2, a = bd * bd, 0
    while True:
        margin = a * h_num * bd - cap  # (a*w_H - bound) * den * bd
        if margin > 0 and margin * margin > (a * a + 1) * sq * bd2:
            return a
        a += 1


def enumerate_exceptional(
    ambient: AmbientLattice,
    w: AreaVector,
    area_bound: Fraction | None = None,
) -> ExceptionalSet:
    """All exceptional classes with 0 < area(e) <= area_bound.
    area_bound defaults to the cheapest exceptional basis generator (an
    upper bound for the minimum).

    Each class is priced once, on w's integer form: with areas nums/den and
    area_bound = bn/bd, a class with area numerator num is kept exactly when
    0 < num and num*bd <= bn*den."""
    if ambient != w.ambient:
        raise LatticeError("ambient mismatch")
    if area_bound is None:
        area_bound = default_area_bound(w)
    nums, den = w.integer_form
    bd = area_bound.denominator
    cap = area_bound.numerator * den

    found: list[tuple[int, HomologyClass]] = []  # (area numerator, class)
    nodes = 0
    if ambient.record.searched:
        nodes = _search(ambient, nums, bd, cap, None, found.append)
    else:
        found = [(num, HomologyClass(ambient, c)) for num, c in listed_exceptional(ambient, nums)
                 if 0 < num and num * bd <= cap]

    found.sort(key=lambda t: (t[0], t[1].coeffs))
    return ExceptionalSet(
        ambient,
        w,
        tuple(c for _, c in found),
        tuple(Fraction(num, den) for num, _ in found),
        area_bound,
        nodes,
    )


def find_witness(x: HomologyClass, w: AreaVector, area_bound) -> HomologyClass | None:
    """An exceptional class E != x with 0 < area(E) <= area_bound and
    E.x < 0, or None when there is none."""
    amb = x.ambient
    if amb != w.ambient:
        raise LatticeError("ambient mismatch")
    nums, den = w.integer_form
    bd = area_bound.denominator
    cap = area_bound.numerator * den
    if not amb.record.searched:
        listed = (HomologyClass(amb, c) for num, c in listed_exceptional(amb, nums)
                  if 0 < num and num * bd <= cap)
        return next((e for e in listed if e != x and pair(e, x) < 0), None)
    found = []  # emit keeps the first leaf E != x and ends the search
    _search(amb, nums, bd, cap, x, lambda leaf: leaf[1] != x and not found.append(leaf[1]))
    return found[0] if found else None


def _search(ambient, nums, bd, cap, x, emit) -> int:
    """Search over E = (a; c_1..c_n) with a^2 + 1 = sum c_i^2 and
    sum c_i = 1 - 3a, for every degree a below `_degree_bound`.  Areas are
    the numerators nums over a common den and the bound is cap / (bd * den).
    Given a class x, E.x < 0 reads sum c_i x_i > a x_0; without x, `need`
    is -1 over a zero vector, so that test always passes.  Degree 0 is
    solved in closed form, like the last two slots: sum c_i^2 = 1 and
    sum c_i = 1 force E = E_i, tried last slot first (the order the
    recursion met them in), one node per slot.  Degrees a >= 1 run a branch
    and bound.  A node with area numerator num so far and square budget sq
    left is cut when no completion can come down to the bound: by
    Cauchy-Schwarz the slots i.. lower num by at most sqrt(sq * suf[i]),
    with suf[i] the sum of their nums squared.  With `need` = a x_0 less the
    slots fixed so far, the slots i.. add at most sqrt(sq * xsuf[i]), so a
    node with need >= 0 and need^2 >= sq * xsuf[i] is cut too.  The last one
    or two slots are solved in closed form, (lo, hi) before (hi, lo).  Each
    leaf in the Cremona orbit (every leaf at n <= 2) goes to emit((area
    numerator, class)); a true return ends the search.  Returns the nodes
    visited."""
    n = ambient.n_exc
    h_num, exc_nums = nums[0], nums[1:]
    x0, xs, need0 = (0, (0,) * n, -1) if x is None else (x.coeffs[0], x.coeffs[1:], 0)
    top = _degree_bound(nums, bd, cap)
    if top == 0:
        return 0
    for i in range(n - 1, -1, -1):  # degree 0: E_i, whose area AreaVector keeps > 0
        num = exc_nums[i]
        if (num * bd <= cap and xs[i] > need0
                and emit((num, HomologyClass(ambient, (0,) * (i + 1) + (1,) + (0,) * (n - 1 - i))))):
            return n - i
    if top == 1:
        return n
    suf, xsuf = [0] * (n + 1), [0] * (n + 1)
    for i in range(n - 1, -1, -1):
        suf[i] = suf[i + 1] + exc_nums[i] * exc_nums[i]
        xsuf[i] = xsuf[i + 1] + xs[i] * xs[i]
    bd2, nodes = bd * bd, n

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

    for a in range(1, top):
        if rec(0, a * a + 1, 1 - 3 * a, a * h_num, a * x0 + need0, (a,)):
            break
    rec = None  # rec calls itself through this cell: end the cycle, leave no garbage
    return nodes


def minimal_area(es: ExceptionalSet) -> list[HomologyClass]:
    """All classes of minimal area, deterministically ordered."""
    if not es.classes:
        raise EnumerationError("empty exceptional set")
    best = es.areas[0]  # the classes are sorted by area
    return [c for c, a in zip(es.classes, es.areas) if a == best]


# -- numerical SW predicate and D-goodness -----------------------------------


def sw_nonzero(a: HomologyClass, w: AreaVector) -> bool:
    """Sufficient criterion for non-vanishing SW invariant; False means
    inconclusive, never 'SW = 0'."""
    amb = a.ambient
    fiber = amb.record.fiber
    if is_exceptional_class(a) and area(a, w) > 0:
        return True
    if fiber and a == amb.basis_class(fiber):
        return True
    if sw_index(a) < 0:
        return False
    if area(canonical(amb) - a, w) >= 0:
        return False
    if fiber and pair(a, amb.basis_class(fiber)) == -1:
        return False
    return True


def d_good(
    a: HomologyClass,
    config: DivisorConfig,
    w: AreaVector,
    es: ExceptionalSet,
) -> list[Check]:
    """The four-condition goodness checklist for a class against a divisor,
    the exceptional classes being those of an enumeration: the reference
    for goodness decided by find_witness."""
    bad = next((e for e in es.classes if e != a and pair(a, e) < 0), None)
    return goodness_checks(a, config, w, es.area_bound, bad)


def goodness_checks(
    a: HomologyClass,
    config: DivisorConfig,
    w: AreaVector,
    area_bound: Fraction,
    witness: HomologyClass | None,
) -> list[Check]:
    """The four-condition goodness checklist, given the outcome of a search
    for an exceptional class E != a with 0 < area(E) <= area_bound and
    E.a < 0: the witness found, None when there is none.  On a rational
    ambient the detail names the degree the area bound implies."""
    if a.is_zero():
        raise EnumerationError("the zero class is never good")
    out = [Check("sw-nonzero", sw_nonzero(a, w), f"I={sw_index(a)}")]

    if pair(a, a) == 0:
        g = 0
        for c in a.coeffs:
            g = math.gcd(g, c)
        out.append(Check("primitive-if-null", g == 1, f"gcd={g}"))
    else:
        out.append(Check("primitive-if-null", True, "square nonzero"))

    verdict = f"negative pairing with {witness}" if witness else "no negative pairing"
    searched = f"area <= {area_bound}"
    if a.ambient.record.searched:
        nums, den = w.integer_form
        degree = _degree_bound(nums, area_bound.denominator, area_bound.numerator * den) - 1
        searched += f", degree <= {degree}"
    detail = f"{searched}: {verdict}"
    out.append(Check("nonneg-on-exceptional", witness is None, detail))

    neg = [c.id for c in config.components if pair(a, c.cls) < 0]
    out.append(
        Check(
            "nonneg-on-components",
            not neg,
            "all components" if not neg else f"negative on {', '.join(neg)}",
        )
    )
    return out


# -- normalization to a basis generator --------------------------------------


def normalize_to_basis(e: HomologyClass) -> tuple[LatticeMap, int]:
    """A word of canonical-class-preserving reflections taking the
    exceptional class e to a basis generator; returns (map, generator index).
    On CP2#n, n >= 3, the word reflects in H - Ei - Ej - Ek for each triple
    of `cremona_descent`, and a class it takes to a generator is exceptional
    (the reflections keep the form and K); elsewhere only a generator
    normalizes, by the empty word."""
    amb = e.ambient
    gi = _generator_index(e)
    if gi is not None:
        return LatticeMap.identity(amb), gi

    descends = amb.kind == KIND_RATIONAL and amb.n_exc >= 3
    triples = cremona_descent(e.coeffs) if descends else None
    if triples is None:
        raise NormalizeError(f"{e} normalizes to no generator of {amb.describe()}")

    slots = range(1, amb.dim)
    t = LatticeMap(amb, tuple(HomologyClass(amb, (1,) + tuple(-(m in ijk) for m in slots))
                              for ijk in triples))
    return t, _generator_index(t.apply(e))


def _generator_index(e: HomologyClass) -> int | None:
    """Index of the exceptional generator e is, if any: a single 1 at or
    after exc_start and zeros elsewhere."""
    v = e.coeffs
    try:
        i = v.index(1, e.ambient.exc_start)
    except ValueError:
        return None
    return i if v.count(0) == len(v) - 1 else None
