"""Exceptional classes: bounded enumeration, minimal-area selection,
numerical SW predicates, D-goodness, and normalization of an exceptional
class to a basis generator by square(-2) reflections.

On a b2+ = 1 ambient an exceptional class is one with e.e = -1 and
K.e = -1 (plus e.F = 0 over an irrational ruled base).  Enumeration is
complete within the recorded coefficient and area bounds; when a bound is
active at the search frontier the result is flagged incomplete rather
than silently truncated.
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
    KIND_RULED,
    AmbientLattice,
    AreaVector,
    HomologyClass,
    LatticeError,
    LatticeMap,
    area,
    canonical,
    is_exceptional_class,
    pair,
    sw_index,
)

DEFAULT_COEFF_BOUND = 12


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
    coeff_bound: int
    incomplete: bool


def enumerate_exceptional(
    ambient: AmbientLattice,
    w: AreaVector,
    area_bound: Fraction | None = None,
    coeff_bound: int = DEFAULT_COEFF_BOUND,
) -> ExceptionalSet:
    """All classes with e.e = K.e = -1 and 0 < area(e) <= area_bound,
    coefficients bounded by coeff_bound.  area_bound defaults to the
    cheapest exceptional basis generator (an upper bound for the minimum).

    Each class is priced once, on w's integer form: with areas nums/den and
    area_bound = bn/bd, a class with area numerator num is kept exactly when
    0 < num and num*bd <= bn*den."""
    if ambient != w.ambient:
        raise LatticeError("ambient mismatch")
    if area_bound is None:
        m = w.min_exc_area()
        area_bound = m if m is not None else Fraction(0)
    nums, den = w.integer_form
    bd = area_bound.denominator
    cap = area_bound.numerator * den

    found: list[tuple[int, HomologyClass]] = []  # (area numerator, class)
    incomplete = False

    if ambient.kind == KIND_RULED:
        # Degree over the base is 0 for sphere classes, so the solutions of
        # e.e = K.e = -1, e.F = 0 are exactly E_i and F - E_i.
        f, f_num = ambient.basis_class("F"), nums[ambient.fiber_index]
        for i in ambient.exc_indices:
            ei = ambient.basis_class(ambient.names[i])
            for num, c in ((nums[i], ei), (f_num - nums[i], f - ei)):
                if 0 < num and num * bd <= cap:
                    found.append((num, c))
    elif ambient.kind == KIND_RATIONAL:
        incomplete = _enumerate_rational(ambient, nums, bd, cap, coeff_bound, found)
    # minimal kinds (CP2, S2xS2, twisted bundle) have no exceptional classes

    found.sort(key=lambda t: (t[0], t[1].coeffs))
    return ExceptionalSet(
        ambient,
        w,
        tuple(c for _, c in found),
        tuple(Fraction(num, den) for num, _ in found),
        area_bound,
        coeff_bound,
        incomplete,
    )


def _enumerate_rational(ambient, nums, bd, cap, coeff_bound, out) -> bool:
    """Branch and bound over (a; c_1..c_n) with a^2 + 1 = sum c_i^2 and
    sum c_i = 1 - 3a.  Areas are the numerators nums over a common den and
    the bound is cap / (bd * den).  Appends (area numerator, class) pairs to
    out; returns the incomplete flag."""
    n = ambient.n_exc
    h_num = nums[0]
    exc_nums = nums[1:]
    sq_num = sum(v * v for v in exc_nums)  # den^2 * sum w_i^2
    incomplete = False

    if h_num * h_num <= sq_num:  # den^2 * w.square() <= 0
        raise EnumerationError(
            "area vector has non-positive square; enumeration cannot terminate"
        )

    a = 0
    while True:
        if a > coeff_bound:
            incomplete = True
            break
        # smallest possible area at degree a: a*w_H - sqrt((a^2+1) * sum w_i^2);
        # margin is (a*w_H - area_bound) * den * bd
        margin = a * h_num * bd - cap
        if margin > 0 and margin * margin > (a * a + 1) * sq_num * bd * bd:
            break
        square_budget = a * a + 1
        linear_budget = 1 - 3 * a
        vec = [0] * n
        deg_num = a * h_num

        def rec(i, sq, lin):
            nonlocal incomplete
            if i == n:
                if sq == 0 and lin == 0:
                    num = deg_num + sum(map(operator.mul, vec, exc_nums))
                    if 0 < num and num * bd <= cap:
                        out.append((num, ambient.from_coeffs((a,) + tuple(vec))))
                return
            slots = n - i
            lo_sq = -math.isqrt(sq)
            hi_sq = math.isqrt(sq)
            if lo_sq < -coeff_bound or hi_sq > coeff_bound:
                incomplete = True
            lo = max(lo_sq, -coeff_bound)
            hi = min(hi_sq, coeff_bound)
            for c in range(lo, hi + 1):
                rem_sq = sq - c * c
                rem_lin = lin - c
                if rem_lin * rem_lin > (slots - 1) * rem_sq if slots > 1 else (rem_sq or rem_lin):
                    continue
                vec[i] = c
                rec(i + 1, rem_sq, rem_lin)
            vec[i] = 0

        rec(0, square_budget, linear_budget)
        a += 1
    return incomplete


def minimal_area(es: ExceptionalSet) -> list[HomologyClass]:
    """All classes of minimal area, deterministically ordered."""
    if not es.classes:
        raise EnumerationError("empty exceptional set")
    if es.incomplete:
        raise EnumerationError(
            "enumeration hit its bounds; minimum within bounds is not certified"
        )
    best = es.areas[0]  # the classes are sorted by area
    return [c for c, a in zip(es.classes, es.areas) if a == best]


# -- secondary chains ---------------------------------------------------------


@dataclass(frozen=True)
class SecondaryChain:
    chain: tuple[HomologyClass, ...]  # (E_2, ..., E_n); E_n has minimal area
    pair_first: HomologyClass  # E_1
    pair_second: HomologyClass  # E_1'
    case: str  # "S2xS2" or "CP2#1"


def secondary_chain(
    ambient: AmbientLattice,
    w: AreaVector,
    coeff_bound: int = DEFAULT_COEFF_BOUND,
) -> SecondaryChain:
    """Greedy chain of secondary minimal-area classes plus the terminal pair."""
    if ambient.kind != KIND_RATIONAL or ambient.n_exc < 2:
        raise EnumerationError("secondary chains need a rational ambient with b2- >= 2")
    n = ambient.n_exc
    # the terminal pair can cost far more than the cheapest generator, so
    # enumerate generously and widen on failure
    bound = 2 * max(w.areas)
    last = None
    for _ in range(6):
        try:
            return _secondary_chain_bounded(ambient, w, bound, coeff_bound)
        except EnumerationError as exc:
            last = exc
            bound = bound * 4
    raise EnumerationError(f"secondary chain search exhausted its bounds: {last}")


def _secondary_chain_bounded(ambient, w, bound, coeff_bound) -> SecondaryChain:
    n = ambient.n_exc
    es = enumerate_exceptional(ambient, w, area_bound=bound, coeff_bound=coeff_bound)
    if es.incomplete:
        raise EnumerationError("enumeration bound exhausted while building secondary chain")
    selected: list[HomologyClass] = []
    for _ in range(n - 1):
        # es.classes is sorted by (area, coeffs), and so is every filtered list
        cands = [
            c for c in es.classes
            if all(pair(c, s) == 0 for s in selected)
        ]
        if not cands:
            raise EnumerationError("no orthogonal exceptional class available")
        selected.append(cands[0])
    # selected = (E_n, E_{n-1}, ..., E_2)
    e2 = selected[-1]
    rest = selected[:-1]
    pool = [c for c in es.classes if all(pair(c, s) == 0 for s in rest)]
    for x in pool:
        for y in pool:
            if x == y:
                continue
            if pair(x, y) == 0 and pair(x, e2) == 1 and pair(y, e2) == 1:
                return SecondaryChain(tuple(reversed(selected)), x, y, "S2xS2")
    for x in pool:
        for y in pool:
            if x == y:
                continue
            if pair(x, y) == 1 and pair(y, e2) == 1 and pair(x, e2) == 0:
                return SecondaryChain(tuple(reversed(selected)), x, y, "CP2#1")
    raise EnumerationError("no terminal pair matches either intersection pattern")


# -- numerical SW predicate and D-goodness -----------------------------------


def sw_nonzero(a: HomologyClass, w: AreaVector) -> bool:
    """Sufficient criterion for non-vanishing SW invariant; False means
    inconclusive, never 'SW = 0'."""
    amb = a.ambient
    if is_exceptional_class(a) and area(a, w) > 0:
        return True
    if amb.is_ruled and a == amb.basis_class("F"):
        return True
    if sw_index(a) < 0:
        return False
    if area(canonical(amb) - a, w) >= 0:
        return False
    if amb.is_ruled and pair(a, amb.basis_class("F")) == -1:
        return False
    return True


def d_good(
    a: HomologyClass,
    config: DivisorConfig,
    w: AreaVector,
    es: ExceptionalSet,
) -> list[Check]:
    """The four-condition goodness checklist for a class against a divisor."""
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

    bad = [e for e in es.classes if e != a and pair(a, e) < 0]
    detail = (
        f"checked {len(es.classes)} classes with area <= {es.area_bound}, "
        f"|coeff| <= {es.coeff_bound}"
    )
    if es.incomplete:
        detail += "; enumeration incomplete (conditional pass within bounds)"
    if bad:
        detail = f"negative pairing with {bad[0]}; " + detail
    out.append(Check("nonneg-on-exceptional", not bad, detail))

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


def normalize_to_basis(e: HomologyClass, step_bound: int = 400) -> tuple[LatticeMap, int]:
    """A composition of canonical-class-preserving reflections taking the
    exceptional class e to a basis generator; returns (map, generator index).

    Rational ambients use reflections in H - Ei - Ej - Ek (needs n >= 3 unless
    e is already a generator); trivial ruled ambients use F - Ei - Ej."""
    amb = e.ambient
    if not is_exceptional_class(e):
        raise NormalizeError(f"{e} is not an exceptional class")

    gi = _generator_index(e)
    if gi is not None:
        return LatticeMap.identity(amb), gi

    if amb.kind == KIND_RULED:
        # e = F - E_i; reflect in F - E_i - E_j to land on E_j.
        f = amb.basis_class("F")
        diff = f - e
        idxs = [i for i in amb.exc_indices if diff.coeffs[i] == 1]
        if e - f + sum((amb.basis_class(amb.names[i]) for i in idxs), amb.zero()) != amb.zero() or len(idxs) != 1:
            raise NormalizeError(f"unrecognized ruled exceptional class {e}")
        i = idxs[0]
        others = [j for j in amb.exc_indices if j != i]
        if not others:
            raise NormalizeError("no second exceptional generator to reflect through")
        j = others[-1]
        c = f - amb.basis_class(amb.names[i]) - amb.basis_class(amb.names[j])
        t = LatticeMap.reflection(c)
        if _generator_index(t.apply(e)) != j:
            raise NormalizeError("ruled reflection did not normalize the class")
        return t, j

    if amb.kind != KIND_RATIONAL:
        raise NormalizeError(f"no normalization moves on ambient kind {amb.kind}")

    if amb.n_exc < 3:
        raise NormalizeError("Cremona reflections need at least three exceptional generators")

    h = amb.basis_class("H")
    t = LatticeMap.identity(amb)
    cur = e
    for _ in range(step_bound):
        gi = _generator_index(cur)
        if gi is not None:
            return t, gi
        a = cur.coeffs[0]
        if a <= 0:
            raise NormalizeError(f"descent stalled at {cur}")
        order = sorted(amb.exc_indices, key=lambda i: cur.coeffs[i])
        i, j, k = order[0], order[1], order[2]
        c = h - amb.basis_class(amb.names[i]) - amb.basis_class(amb.names[j]) - amb.basis_class(amb.names[k])
        refl = LatticeMap.reflection(c)
        nxt = refl.apply(cur)
        if nxt.coeffs[0] >= a:
            raise NormalizeError(f"Cremona descent failed to reduce degree at {cur}")
        cur = nxt
        t = t.then(refl)
    raise NormalizeError("step bound exceeded during normalization")


def _generator_index(e: HomologyClass) -> int | None:
    amb = e.ambient
    for i in amb.exc_indices:
        if all(c == (1 if j == i else 0) for j, c in enumerate(e.coeffs)):
            return i
    return None
