"""Integer homology lattices of rational and ruled 4-manifolds.

Five ambient kinds are supported: projective_plane (CP2), product_of_spheres
(S2xS2), rational_blowup (CP2#n), ruled_trivial ((S2 x Sigma_g)#n) and
ruled_twisted (the twisted bundle over Sigma_g).  What a kind is sits in
its `KindRecord` in `KINDS`, one table that every module reads instead of
branching on the kind: its basis head, form and canonical class, what a
document carries, the kinds a blowup and a last blowdown land in, its fiber
generator and how its exceptional classes are found.  Beside it,
`cone_violation` tells whether an area vector lies in the symplectic cone,
and `cremona_descent` whether a class of CP2#n, n >= 3, is exceptional: in
the Cremona orbit of E1.

Each form is a head block on the first `exc_start` generators and -1 on
every exceptional generator after them, and each K is a head and +1 on every
exceptional generator.  So pair(x, y) = h(x, y) - x.y, with x.y the dot
product of the whole vectors and h the head block plus the identity:
2 x0 y0 (CP2, CP2#n), (x0+x1)(y0+y1) (S2xS2, ruled_trivial) and
(x0+x1)(y0+y1) + x0 y0 (ruled_twisted).  The canonical class is built once
per ambient instance and cached on it.  As a matrix the form is h minus the
identity on the head block and -1 on each exceptional generator; `sparse_gram`
sums it one generator column at a time.

Generator names are data: blowdowns may drop a middle generator and the
surviving names keep their identity (E7 stays E7 after E5 is gone).
All arithmetic is exact: integers for classes, Fractions for areas.  An
area vector also keeps an integer form, its areas as numerators over the
lcm of their denominators, computed once on first use; areas of classes,
the square of the area vector and areas pulled back along lattice maps are
integer dot products on it, with a single division at the end.

Lattice self-maps are words of reflections r_c(x) = x + (x.c) c in classes
of square -2, applied in order; r_c is an involution, so a word's inverse is
the reversed word, composition is concatenation and the identity is the
empty word.  Applying a word of length k costs O(n k): the fold runs on
coefficient tuples (`apply_coeffs`), x.c read as h(x, c) minus the dot
product, and `apply` builds one class, for the result, as `combination`
does for a sum of classes.  Areas move along a map T as w o T^-1, pulled
back one reflection at a time in word order by w o r_c = w + w(c) q_c,
where q_c is the pairing row of c (q_c . x = x.c).
"""

from __future__ import annotations

import math
import operator
from collections.abc import Callable
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from itertools import compress, repeat
from typing import NamedTuple


class LatticeError(ValueError):
    pass


KIND_PP = "projective_plane"
KIND_S2S2 = "product_of_spheres"
KIND_RATIONAL = "rational_blowup"
KIND_RULED = "ruled_trivial"
KIND_TWISTED = "ruled_twisted"

BY_BRIDGE = "bridge"  # S2xS2 blows up to CP2#2 by the bridge contracting H - E1 - E2


def _h_plane(x, y):
    return 2 * x[0] * y[0]


def _h_hyperbolic(x, y):
    return (x[0] + x[1]) * (y[0] + y[1])


def _h_twisted(x, y):
    return (x[0] + x[1]) * (y[0] + y[1]) + x[0] * y[0]


@dataclass(frozen=True, slots=True)
class KindRecord:
    """What an ambient kind is; a document carries g, n and names where it has them."""

    h: Callable  # the head term of the form
    k_head: Callable  # the head of K as a function of g
    template: str  # describe's name, formatted with g and n
    head: tuple[str, ...]  # the head generator names
    has_g: bool = False  # a base genus g >= 1: an irrational ruled kind
    has_exc: bool = False  # exceptional generators E1..En after the head
    blowup: str | None = None  # the kind a one-point blowup lands in, BY_BRIDGE, or None
    emptied: str | None = None  # the kind left when the last exceptional generator goes
    fiber: str | None = None  # the fiber generator
    searched: bool = False  # exceptional classes are searched for (else E_i, F - E_i)
    h_inverse: Callable | None = None  # the head term of the inverse form, if not h


KINDS = {
    KIND_PP: KindRecord(_h_plane, lambda g: (-3,), "CP2", ("H",), blowup=KIND_RATIONAL),
    KIND_S2S2: KindRecord(_h_hyperbolic, lambda g: (-2, -2), "S2xS2", ("f1", "f2"),
                          blowup=BY_BRIDGE),
    KIND_RATIONAL: KindRecord(_h_plane, lambda g: (-3,), "CP2#{n}", ("H",), has_exc=True,
                              blowup=KIND_RATIONAL, emptied=KIND_PP, searched=True),
    KIND_RULED: KindRecord(_h_hyperbolic, lambda g: (-2, 2 * g - 2), "(S2xSigma_{g})#{n}",
                           ("B", "F"), has_g=True, has_exc=True, blowup=KIND_RULED, fiber="F"),
    KIND_TWISTED: KindRecord(_h_twisted, lambda g: (-2, 2 * g - 1), "S2x~Sigma_{g}",
                             ("B1", "F"), has_g=True, fiber="F",
                             h_inverse=lambda x, y: (x[0] + x[1]) * (y[0] + y[1]) - x[1] * y[1]),
}


def _head_terms(rec: KindRecord) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Row t of the head block of the form, h minus the identity, as its terms (u, G_tu) != 0."""
    units = ((1, 0), (0, 1))[: len(rec.head)]
    return tuple(tuple((u, v) for u, b in enumerate(units) if (v := rec.h(a, b) - (t == u)))
                 for t, a in enumerate(units))


_HEAD_TERMS = {kind: _head_terms(rec) for kind, rec in KINDS.items()}


def listed_exceptional(amb: AmbientLattice, nums):
    """(area numerator, coefficients) of every exceptional class of a kind that
    lists them, on an integer form nums.  Over an irrational base, degree over
    the base is 0 for sphere classes, so the solutions of e.e = K.e = -1,
    e.F = 0 are E_i and F - E_i."""
    f = amb.fiber_index
    for i in amb.exc_indices:  # none on the minimal kinds
        e = [int(j == i) for j in range(amb.dim)]
        yield nums[i], tuple(e)
        e[i], e[f] = -1, 1
        yield nums[f] - nums[i], tuple(e)


def cone_violation(w: AreaVector) -> HomologyClass | None:
    """An exceptional class of non-positive area under w, or None: for w.w > 0,
    None puts w in the symplectic cone.  Kinds that list their exceptional
    classes check the list.  CP2#n is Cremona-reduced on the integer form
    (Li-Li; Karshon-Kessler), each slot holding the class whose area it
    carries: sort the E-slots downward and, while w_H < w_1 + w_2 + w_3,
    reflect in H - E_1 - E_2 - E_3, which lowers w_H.  w is in the cone
    exactly when no E-slot goes <= 0 (nor, at n = 2, H - E_1 - E_2)."""
    amb, nums, dim = w.ambient, w.integer_form[0], w.ambient.dim
    if not amb.record.searched:
        return next((HomologyClass(amb, e) for num, e in listed_exceptional(amb, nums)
                     if num <= 0), None)
    h = (nums[0], (1,) + (0,) * (dim - 1))
    exc = [(nums[i], (0,) * i + (1,) + (0,) * (dim - 1 - i)) for i in amb.exc_indices]
    while True:
        exc.sort(key=operator.itemgetter(0), reverse=True)  # stable: ties keep their order
        if exc and exc[-1][0] <= 0:
            return HomologyClass(amb, exc[-1][1])
        top = exc[:3]
        d = h[0] - sum(a for a, _ in top)  # the area of c = H - E_1 - E_2 (- E_3)
        if len(top) < 2 or d > 0 or d == 0 and len(top) == 3:  # reduced, or n <= 1
            return None
        c = tuple(x - sum(v) for x, *v in zip(h[1], *(v for _, v in top)))
        if len(top) == 2:  # at n = 2, c is exceptional
            return HomologyClass(amb, c)
        h = (h[0] + d, tuple(map(operator.add, h[1], c)))
        exc[:3] = [(a + d, tuple(map(operator.add, v, c))) for a, v in top]


@dataclass(frozen=True)
class AmbientLattice:
    kind: str
    g: int
    names: tuple[str, ...]

    def __eq__(self, other):  # an ambient is most often compared with itself
        return self is other or (type(other) is AmbientLattice and self.names == other.names
                                 and self.kind == other.kind and self.g == other.g)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise LatticeError(f"unknown kind {self.kind}")
        if len(set(self.names)) != len(self.names):
            name = next(n for i, n in enumerate(self.names) if n in self.names[:i])
            raise LatticeError(f"repeated generator name {name!r}")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def of(kind: str, g: int = 0, n: int = 0,
           names: tuple[str, ...] | None = None) -> "AmbientLattice":
        """The ambient of `kind` with base genus g and n exceptional generators
        where the kind has them, named E1..En unless names are given."""
        rec = KINDS[kind]
        if rec.has_g and g < 1:
            raise LatticeError(f"{kind} needs base genus g >= 1")
        least = 1 if rec.emptied else 0  # with none left it is the emptied kind
        if n < least:
            raise LatticeError(f"{kind} needs n >= {least}")
        exc = names if names is not None else tuple(f"E{i}" for i in range(1, n + 1))
        if len(exc) != n:
            raise LatticeError("need exactly n exceptional names")
        return AmbientLattice(kind, g, rec.head + exc)

    @staticmethod
    def projective_plane() -> "AmbientLattice":
        return AmbientLattice.of(KIND_PP)

    @staticmethod
    def product_of_spheres() -> "AmbientLattice":
        return AmbientLattice.of(KIND_S2S2)

    @staticmethod
    def rational_blowup(n: int, names: tuple[str, ...] | None = None) -> "AmbientLattice":
        return AmbientLattice.of(KIND_RATIONAL, 0, n, names)

    @staticmethod
    def ruled_trivial(g: int, n: int, names: tuple[str, ...] | None = None) -> "AmbientLattice":
        return AmbientLattice.of(KIND_RULED, g, n, names)

    @staticmethod
    def ruled_twisted(g: int) -> "AmbientLattice":
        return AmbientLattice.of(KIND_TWISTED, g)

    # -- structure ---------------------------------------------------------

    @property
    def dim(self) -> int:
        return len(self.names)

    @property
    def b2(self) -> int:
        return len(self.names)

    @property
    def record(self) -> KindRecord:
        return KINDS[self.kind]

    @cached_property
    def exc_start(self) -> int:
        """Index of the first exceptional generator (== dim when none)."""
        return len(self.record.head)

    @cached_property
    def canonical_class(self) -> "HomologyClass":
        """The canonical class, built on first use and cached on the
        instance; not a field, so equality, hashing and repr are unaffected."""
        return HomologyClass(self, self.record.k_head(self.g) + (1,) * self.n_exc)

    @cached_property
    def name_index(self) -> dict[str, int]:
        """Each generator's index by name; computed once per instance."""
        return {name: i for i, name in enumerate(self.names)}

    @property
    def exc_indices(self) -> range:
        return range(self.exc_start, self.dim)

    @property
    def n_exc(self) -> int:
        return self.dim - self.exc_start

    @cached_property
    def fiber_index(self) -> int | None:
        fiber = self.record.fiber
        return None if fiber is None else self.record.head.index(fiber)

    @property
    def is_ruled(self) -> bool:
        return self.record.has_g

    def index_of(self, name: str) -> int:
        try:
            return self.name_index[name]
        except KeyError:
            raise LatticeError(f"no generator named {name!r} in {self.kind}")

    def basis_class(self, name: str) -> "HomologyClass":
        i = self.index_of(name)
        return HomologyClass(self, tuple(1 if j == i else 0 for j in range(self.dim)))

    def cls(self, **coeffs: int) -> "HomologyClass":
        """Build a class from named coefficients, e.g. amb.cls(H=3, E1=-1)."""
        vec = [0] * self.dim
        for name, c in coeffs.items():
            vec[self.index_of(name)] = int(c)
        return HomologyClass(self, tuple(vec))

    def from_coeffs(self, coeffs) -> "HomologyClass":
        vec = tuple(int(c) for c in coeffs)
        if len(vec) != self.dim:
            raise LatticeError("coefficient length does not match basis")
        return HomologyClass(self, vec)

    @cached_property
    def fresh_exc_name(self) -> str:
        top = max((int(n[1:]) for n in self.names if n[:1] == "E" and n[1:].isdigit()), default=0)
        return f"E{top + 1}"

    def with_fresh_exc(self, kind: str, n: int) -> "AmbientLattice":
        """These names and n fresh ones from fresh_exc_name on, as `kind`; its
        fresh name is the next."""
        top = int(self.fresh_exc_name[1:])
        out = AmbientLattice(kind, self.g, self.names + tuple(f"E{top + i}" for i in range(n)))
        out.__dict__["fresh_exc_name"] = f"E{top + n}"
        return out

    def describe(self) -> str:
        return self.record.template.format(g=self.g, n=self.n_exc)


@dataclass(frozen=True, slots=True)
class HomologyClass:
    ambient: AmbientLattice
    coeffs: tuple[int, ...]

    def __post_init__(self):
        if len(self.coeffs) != len(self.ambient.names):
            raise LatticeError("coefficient length does not match basis")

    def __add__(self, other: "HomologyClass") -> "HomologyClass":
        y = coeffs_in(other, self.ambient)
        return HomologyClass(self.ambient, tuple(map(operator.add, self.coeffs, y)))

    def __sub__(self, other: "HomologyClass") -> "HomologyClass":
        y = coeffs_in(other, self.ambient)
        return HomologyClass(self.ambient, tuple(map(operator.sub, self.coeffs, y)))

    def __neg__(self) -> "HomologyClass":
        return HomologyClass(self.ambient, tuple(map(operator.neg, self.coeffs)))

    def __mul__(self, k: int) -> "HomologyClass":
        return HomologyClass(self.ambient, tuple(map(operator.mul, repeat(k), self.coeffs)))

    __rmul__ = __mul__

    def is_zero(self) -> bool:
        return all(a == 0 for a in self.coeffs)

    def __str__(self) -> str:
        terms = []
        for name, c in zip(self.ambient.names, self.coeffs):
            if c == 0:
                continue
            sign = "-" if c < 0 else ("+" if terms else "")
            mag = abs(c)
            terms.append(f"{sign}{'' if mag == 1 else mag}{name}")
        return "".join(terms) if terms else "0"


def coeffs_in(x: HomologyClass, amb: AmbientLattice) -> tuple[int, ...]:
    """The coefficients of x, a class of amb; a class of another ambient,
    even one of the same length, is refused."""
    if x.ambient is not amb and x.ambient != amb:
        raise LatticeError("ambient mismatch")
    return x.coeffs


def combination(amb: AmbientLattice, terms) -> HomologyClass:
    """sum(k * x for k, x in terms), each x a class of amb, summed on the
    coefficients and built as one class."""
    total = (0,) * amb.dim
    for k, x in terms:
        total = add_multiple(total, k, coeffs_in(x, amb))
    return HomologyClass(amb, total)


def add_multiple(v: tuple[int, ...], k: int, c: tuple[int, ...]) -> tuple[int, ...]:
    """v + k c on coefficient tuples, in a pass over the nonzero entries of c."""
    out = list(v)
    for i in compress(range(len(c)), c):
        out[i] += k * c[i]
    return tuple(out)


def pair(a: HomologyClass, b: HomologyClass) -> int:
    """Intersection pairing under the ambient's fixed bilinear form: the
    kind's head term minus the dot product of the coefficient vectors."""
    x, y = a.coeffs, coeffs_in(b, a.ambient)
    return KINDS[a.ambient.kind].h(x, y) - sum(map(operator.mul, x, y))


class SparseGram(NamedTuple):
    """K.c and c.c for each class, and pair(c_i, c_j) for the pairs i < j
    sharing a column of the form; every other pair pairs to 0."""

    canonical: list[int]
    square: list[int]
    off: dict[tuple[int, int], int]


def sparse_gram(amb: AmbientLattice, classes: list[HomologyClass]) -> SparseGram:
    """The pairings of `classes`, all in amb, one generator column at a time.
    Column t holds (i, x) for each nonzero coefficient x of classes[i] at t,
    and each term (u, G_tu) of the form pairs it with column u."""
    columns = [[] for _ in amb.names]
    gens = range(len(columns))
    for i, c in enumerate(classes):
        v = coeffs_in(c, amb)
        for t in compress(gens, v):
            columns[t].append((i, v[t]))
    head, k_coeffs = _HEAD_TERMS[amb.kind], amb.canonical_class.coeffs
    kc, cc, off = [0] * len(classes), [0] * len(classes), {}
    for t, terms in enumerate(head):
        r = sum(g * k_coeffs[u] for u, g in terms)  # K's pairing row at t
        for i, x in columns[t]:
            kc[i] += r * x
            for u, g in terms:
                for j, y in columns[u]:
                    if i < j:
                        off[i, j] = off.get((i, j), 0) + g * x * y
                    elif i == j:
                        cc[i] += g * x * y
    for col in filter(None, columns[len(head):]):  # the term -1 at an exceptional t; K is 1
        for n, (i, x) in enumerate(col):
            kc[i] -= x
            cc[i] -= x * x
            for j, y in col[n + 1:]:
                off[i, j] = off.get((i, j), 0) - x * y
    return SparseGram(kc, cc, off)


def canonical(ambient: AmbientLattice) -> HomologyClass:
    """The standard canonical class of the ambient kind."""
    return ambient.canonical_class


def adjunction_genus(a: HomologyClass) -> int | None:
    """(a.a + K.a)/2 + 1 when that is a non-negative integer, else None.

    None signals the class cannot be an embedded connected surface of any
    genus; the parity of a.a + K.a is always even here (K is characteristic).
    """
    v = pair(a, a) + pair(canonical(a.ambient), a)
    g = v // 2 + 1
    return g if g >= 0 else None


def sw_index(e: HomologyClass) -> int:
    """e.e - K.e, the expected dimension attached to the class e."""
    return pair(e, e) - pair(canonical(e.ambient), e)


def is_exceptional_class(e: HomologyClass) -> bool:
    """Square -1 and canonical pairing -1; over an irrational ruled base the
    class must also be disjoint from the fiber (sphere classes have degree 0
    over the base).  On CP2#n, n >= 3, it must be in the Cremona orbit of
    E1, which from n = 10 on the two numbers alone do not imply; at n <= 2
    they do (H - E1 - E2 on CP2#2 is an orbit of its own)."""
    amb = e.ambient
    if pair(e, e) != -1 or pair(canonical(amb), e) != -1:
        return False
    if amb.record.searched and amb.n_exc >= 3:
        return cremona_descent(e.coeffs) is not None
    return amb.record.fiber is None or pair(e, amb.basis_class(amb.record.fiber)) == 0


def cremona_descent(v) -> list[tuple[int, int, int]] | None:
    """The descent of a class (a; c_1..c_n) of CP2#n, n >= 3, on integer
    coefficients: while a > 0 and d = a + c_i + c_j + c_k < 0, with c_i,
    c_j, c_k the three most negative (ties by index), reflect in
    H - E_i - E_j - E_k, which adds d to a and -d to c_i, c_j, c_k.  The
    index triples reflected in, in order, when it ends at a generator E_m;
    None otherwise.  A class with e.e = K.e = -1 is in the Cremona orbit of
    E1 exactly when it descends to a generator."""
    v, word, slots = list(v), [], range(1, len(v))
    while v[0] > 0:
        i, j, k = sorted(slots, key=v.__getitem__)[:3]
        d = v[0] + v[i] + v[j] + v[k]
        if d >= 0:
            return None
        v[0] += d
        v[i], v[j], v[k] = v[i] - d, v[j] - d, v[k] - d
        word.append((i, j, k))
    return word if v[0] == 0 and v.count(1) == 1 and v.count(0) == len(v) - 1 else None


# -- areas -----------------------------------------------------------------


def integer_form_of(values) -> tuple[tuple[int, ...], int]:
    """(nums, den) with values[i] == nums[i] / den and den the lcm of the
    denominators of the exact rationals in `values`."""
    den = math.lcm(*(v.denominator for v in values))
    return tuple(v.numerator * (den // v.denominator) for v in values), den


@dataclass(frozen=True)
class AreaVector:
    ambient: AmbientLattice
    areas: tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.areas) != self.ambient.dim:
            raise LatticeError("area length does not match basis")
        for v in self.areas:
            if not isinstance(v, (int, Fraction)):
                raise LatticeError(f"area {v!r} is not exact: use an int or a Fraction")
        for i in self.ambient.exc_indices:  # signs off numerators: an int has one too
            if self.areas[i].numerator <= 0:
                raise LatticeError(f"area of {self.ambient.names[i]} must be > 0")
        fi = self.ambient.fiber_index
        if fi is not None and self.areas[fi].numerator <= 0:
            raise LatticeError("fiber area must be > 0")

    @staticmethod
    def from_values(ambient: AmbientLattice, values) -> "AreaVector":
        return AreaVector(ambient, tuple(Fraction(v) for v in values))

    @cached_property
    def integer_form(self) -> tuple[tuple[int, ...], int]:
        """(nums, den) with areas[i] == nums[i] / den and den the lcm of the
        denominators.  Cached on the instance; not a field, so equality,
        hashing and repr are unaffected."""
        return integer_form_of(self.areas)

    def square(self) -> Fraction:
        """The volume w.Q^-1.w of a form with these areas, Q the ambient's
        form; > 0 on the symplectic cone.  Q is its own inverse on every kind
        but ruled_twisted, whose record gives the head of Q^-1.  The
        numerators are paired as an integer vector and divided by den^2."""
        nums, den = self.integer_form
        rec = self.ambient.record
        return Fraction((rec.h_inverse or rec.h)(nums, nums) - sum(v * v for v in nums), den * den)

    def pull_back(self, ambient: AmbientLattice, rows) -> "AreaVector":
        """The area vector on `ambient` giving each class y the area this
        vector gives to M y, where M (given by its rows) maps classes of
        `ambient` to classes of self.ambient."""
        nums, den = self.integer_form
        return AreaVector(
            ambient,
            tuple(Fraction(sum(map(operator.mul, col, nums)), den) for col in zip(*rows)),
        )


def area(a: HomologyClass, w: AreaVector) -> Fraction:
    """Linear extension of the generator areas: an integer dot product with
    the numerators of w's integer form, divided once by its denominator."""
    nums, den = w.integer_form
    return Fraction(sum(map(operator.mul, coeffs_in(a, w.ambient), nums)), den)


# -- lattice self-maps -------------------------------------------------------


@dataclass(frozen=True)
class LatticeMap:
    """Self-map of an ambient as a word of reflections: x -> x + (x.c) c for
    each class c of the word in turn (each c.c = -2).  Every reflection is an
    involution, so the inverse is the reversed word; the identity is the
    empty word."""

    ambient: AmbientLattice
    word: tuple[HomologyClass, ...] = ()

    @staticmethod
    def identity(ambient: AmbientLattice) -> "LatticeMap":
        return LatticeMap(ambient)

    def apply(self, x: HomologyClass) -> HomologyClass:
        if not self.word:
            return x
        return HomologyClass(self.ambient, self.apply_coeffs(coeffs_in(x, self.ambient)))

    def apply_coeffs(self, v: tuple[int, ...]) -> tuple[int, ...]:
        """apply on the coefficients v of a class of the ambient."""
        return _reflect(self.ambient, self.word, v)

    def apply_inverse_coeffs(self, v: tuple[int, ...]) -> tuple[int, ...]:
        return _reflect(self.ambient, self.word[::-1], v)

    def transport_area(self, w: AreaVector) -> AreaVector:
        """Area vector w' with w'(T x) = w(x) for all classes x, that is
        w o T^-1: pulled back along one reflection at a time, in word order,
        by w o r_c = w + w(c) (pairing row of c) on the integer form."""
        if w.ambient != self.ambient:
            raise LatticeError("ambient mismatch")
        if not self.word:
            return w
        nums, den = w.integer_form
        for c in self.word:
            wc = sum(map(operator.mul, c.coeffs, nums))
            nums = tuple(a + wc * b for a, b in zip(nums, pairing_row(c)))
        return AreaVector(self.ambient, tuple(Fraction(v, den) for v in nums))


def _reflect(amb: AmbientLattice, word, v: tuple[int, ...]) -> tuple[int, ...]:
    """Fold the reflections of `word` over the coefficients v, in the order
    given: v + (v.c) c, the pairing v.c read as h(v, c) minus the dot
    product of v and c."""
    if not word:
        return v
    h = KINDS[amb.kind].h
    for c in word:
        c = coeffs_in(c, amb)
        v = add_multiple(v, h(v, c) - sum(map(operator.mul, v, c)), c)
    return v


def pairing_row(c: HomologyClass) -> tuple[int, ...]:
    """The row r with pair(x, c) = r . x: the head term of c against each
    head generator (h vanishes on the exceptional ones), minus c."""
    h = KINDS[c.ambient.kind].h
    head = tuple(h(c.coeffs, unit) for unit in ((1, 0), (0, 1))[: c.ambient.exc_start])
    return tuple(a - b for a, b in zip(head + (0,) * c.ambient.n_exc, c.coeffs))
