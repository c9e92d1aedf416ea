"""Integer homology lattices of rational and ruled 4-manifolds.

Five ambient families are supported, each with a fixed named basis,
intersection form and canonical class:

  projective_plane      (H)              H.H = 1,  K = -3H
  product_of_spheres    (f1, f2)         f1.f2 = 1, K = -2f1 - 2f2
  rational_blowup(n)    (H, E1..En)      diag(1, -1, ..., -1), K = -3H + sum(Ei)
  ruled_trivial(g, n)   (B, F, E1..En)   B.F = 1, Ei.Ei = -1, K = -2B + (2g-2)F + sum(Ei)
  ruled_twisted(g)      (B1, F)          B1.B1 = B1.F = 1, K = -2B1 + (2g-1)F

Generator names are data: blowdowns may drop a middle generator and the
surviving names keep their identity (E7 stays E7 after E5 is gone).
All arithmetic is exact: integers for classes, Fractions for areas.  An
area vector also keeps an integer form, its areas as numerators over the
lcm of their denominators, computed once on first use; areas of classes,
the square of the area vector and areas pulled back along lattice maps are
integer dot products on it, with a single division at the end.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction


class LatticeError(ValueError):
    pass


KIND_PP = "projective_plane"
KIND_S2S2 = "product_of_spheres"
KIND_RATIONAL = "rational_blowup"
KIND_RULED = "ruled_trivial"
KIND_TWISTED = "ruled_twisted"

RULED_KINDS = (KIND_RULED, KIND_TWISTED)
RATIONAL_KINDS = (KIND_PP, KIND_S2S2, KIND_RATIONAL)


@dataclass(frozen=True)
class AmbientLattice:
    kind: str
    g: int
    names: tuple[str, ...]

    # -- constructors ------------------------------------------------------

    @staticmethod
    def projective_plane() -> "AmbientLattice":
        return AmbientLattice(KIND_PP, 0, ("H",))

    @staticmethod
    def product_of_spheres() -> "AmbientLattice":
        return AmbientLattice(KIND_S2S2, 0, ("f1", "f2"))

    @staticmethod
    def rational_blowup(n: int, names: tuple[str, ...] | None = None) -> "AmbientLattice":
        if n < 1:
            raise LatticeError("rational_blowup needs n >= 1")
        exc = names if names is not None else tuple(f"E{i}" for i in range(1, n + 1))
        if len(exc) != n:
            raise LatticeError("need exactly n exceptional names")
        return AmbientLattice(KIND_RATIONAL, 0, ("H",) + exc)

    @staticmethod
    def ruled_trivial(g: int, n: int, names: tuple[str, ...] | None = None) -> "AmbientLattice":
        if g < 1:
            raise LatticeError("ruled_trivial needs base genus g >= 1")
        if n < 0:
            raise LatticeError("ruled_trivial needs n >= 0")
        exc = names if names is not None else tuple(f"E{i}" for i in range(1, n + 1))
        if len(exc) != n:
            raise LatticeError("need exactly n exceptional names")
        return AmbientLattice(KIND_RULED, g, ("B", "F") + exc)

    @staticmethod
    def ruled_twisted(g: int) -> "AmbientLattice":
        if g < 1:
            raise LatticeError("ruled_twisted needs base genus g >= 1")
        return AmbientLattice(KIND_TWISTED, g, ("B1", "F"))

    # -- structure ---------------------------------------------------------

    @property
    def dim(self) -> int:
        return len(self.names)

    @property
    def b2(self) -> int:
        return len(self.names)

    @property
    def exc_start(self) -> int:
        """Index of the first exceptional generator (== dim when none)."""
        if self.kind == KIND_RATIONAL:
            return 1
        if self.kind == KIND_RULED:
            return 2
        return self.dim

    @property
    def exc_indices(self) -> range:
        return range(self.exc_start, self.dim)

    @property
    def n_exc(self) -> int:
        return self.dim - self.exc_start

    @property
    def fiber_index(self) -> int | None:
        if self.kind in RULED_KINDS:
            return 1
        return None

    @property
    def is_rational(self) -> bool:
        return self.kind in RATIONAL_KINDS

    @property
    def is_ruled(self) -> bool:
        return self.kind in RULED_KINDS

    def index_of(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise LatticeError(f"no generator named {name!r} in {self.kind}")

    def basis_class(self, name: str) -> "HomologyClass":
        i = self.index_of(name)
        return HomologyClass(self, tuple(1 if j == i else 0 for j in range(self.dim)))

    def zero(self) -> "HomologyClass":
        return HomologyClass(self, (0,) * self.dim)

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

    def fresh_exc_name(self) -> str:
        top = 0
        for name in self.names:
            if name.startswith("E") and name[1:].isdigit():
                top = max(top, int(name[1:]))
        return f"E{top + 1}"

    def describe(self) -> str:
        if self.kind == KIND_PP:
            return "CP2"
        if self.kind == KIND_S2S2:
            return "S2xS2"
        if self.kind == KIND_RATIONAL:
            return f"CP2#{self.n_exc}"
        if self.kind == KIND_RULED:
            return f"(S2xSigma_{self.g})#{self.n_exc}"
        return f"S2x~Sigma_{self.g}"


@dataclass(frozen=True)
class HomologyClass:
    ambient: AmbientLattice
    coeffs: tuple[int, ...]

    def __post_init__(self):
        if len(self.coeffs) != self.ambient.dim:
            raise LatticeError("coefficient length does not match basis")

    def __add__(self, other: "HomologyClass") -> "HomologyClass":
        _same_ambient(self, other)
        return HomologyClass(self.ambient, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "HomologyClass") -> "HomologyClass":
        _same_ambient(self, other)
        return HomologyClass(self.ambient, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> "HomologyClass":
        return HomologyClass(self.ambient, tuple(-a for a in self.coeffs))

    def __mul__(self, k: int) -> "HomologyClass":
        return HomologyClass(self.ambient, tuple(k * a for a in self.coeffs))

    __rmul__ = __mul__

    def is_zero(self) -> bool:
        return all(a == 0 for a in self.coeffs)

    def coeff(self, name: str) -> int:
        return self.coeffs[self.ambient.index_of(name)]

    @property
    def square(self) -> int:
        return pair(self, self)

    def __str__(self) -> str:
        terms = []
        for name, c in zip(self.ambient.names, self.coeffs):
            if c == 0:
                continue
            sign = "-" if c < 0 else ("+" if terms else "")
            mag = abs(c)
            terms.append(f"{sign}{'' if mag == 1 else mag}{name}")
        return "".join(terms) if terms else "0"


def _same_ambient(a: HomologyClass, b: HomologyClass) -> None:
    if a.ambient != b.ambient:
        raise LatticeError("ambient mismatch")


def pair(a: HomologyClass, b: HomologyClass) -> int:
    """Intersection pairing under the ambient's fixed bilinear form."""
    _same_ambient(a, b)
    x, y = a.coeffs, b.coeffs
    kind = a.ambient.kind
    if kind == KIND_PP:
        return x[0] * y[0]
    if kind == KIND_S2S2:
        return x[0] * y[1] + x[1] * y[0]
    if kind == KIND_RATIONAL:
        return x[0] * y[0] - sum(x[i] * y[i] for i in range(1, len(x)))
    if kind == KIND_RULED:
        return x[0] * y[1] + x[1] * y[0] - sum(x[i] * y[i] for i in range(2, len(x)))
    if kind == KIND_TWISTED:
        return x[0] * y[0] + x[0] * y[1] + x[1] * y[0]
    raise LatticeError(f"unknown kind {kind}")


def canonical(ambient: AmbientLattice) -> HomologyClass:
    """The standard canonical class of the ambient kind."""
    kind = ambient.kind
    if kind == KIND_PP:
        return ambient.from_coeffs((-3,))
    if kind == KIND_S2S2:
        return ambient.from_coeffs((-2, -2))
    if kind == KIND_RATIONAL:
        return ambient.from_coeffs((-3,) + (1,) * ambient.n_exc)
    if kind == KIND_RULED:
        return ambient.from_coeffs((-2, 2 * ambient.g - 2) + (1,) * ambient.n_exc)
    if kind == KIND_TWISTED:
        return ambient.from_coeffs((-2, 2 * ambient.g - 1))
    raise LatticeError(f"unknown kind {kind}")


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
    over the base)."""
    if pair(e, e) != -1 or pair(canonical(e.ambient), e) != -1:
        return False
    if e.ambient.is_ruled:
        f = e.ambient.basis_class(e.ambient.names[1])
        if pair(e, f) != 0:
            return False
    return True


# -- areas -----------------------------------------------------------------


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
        for i in self.ambient.exc_indices:
            if self.areas[i] <= 0:
                raise LatticeError(f"area of {self.ambient.names[i]} must be > 0")
        fi = self.ambient.fiber_index
        if fi is not None and self.areas[fi] <= 0:
            raise LatticeError("fiber area must be > 0")

    @staticmethod
    def from_values(ambient: AmbientLattice, values) -> "AreaVector":
        return AreaVector(ambient, tuple(Fraction(v) for v in values))

    @staticmethod
    def from_named(ambient: AmbientLattice, named: dict) -> "AreaVector":
        vec = []
        for name in ambient.names:
            if name not in named:
                raise LatticeError(f"missing area for generator {name}")
            vec.append(Fraction(named[name]))
        return AreaVector(ambient, tuple(vec))

    @cached_property
    def integer_form(self) -> tuple[tuple[int, ...], int]:
        """(nums, den) with areas[i] == nums[i] / den and den the lcm of the
        denominators.  Cached on the instance; not a field, so equality,
        hashing and repr are unaffected."""
        den = math.lcm(*(v.denominator for v in self.areas))
        return tuple(v.numerator * (den // v.denominator) for v in self.areas), den

    def of(self, name: str) -> Fraction:
        return self.areas[self.ambient.index_of(name)]

    def min_exc_area(self) -> Fraction | None:
        idx = list(self.ambient.exc_indices)
        if not idx:
            return None
        return min(self.areas[i] for i in idx)

    def square(self) -> Fraction:
        """Self-pairing of the area functional; > 0 on the symplectic cone.
        The numerators are paired as an integer vector under the ambient's
        form and divided by den^2."""
        nums, den = self.integer_form
        v = HomologyClass(self.ambient, nums)
        return Fraction(pair(v, v), den * den)

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
    if a.ambient != w.ambient:
        raise LatticeError("ambient mismatch")
    nums, den = w.integer_form
    return Fraction(sum(map(operator.mul, a.coeffs, nums)), den)


# -- lattice self-maps -------------------------------------------------------


@dataclass(frozen=True)
class LatticeMap:
    """Unimodular self-map of an ambient, stored with its inverse."""

    ambient: AmbientLattice
    rows: tuple[tuple[int, ...], ...]
    inv: tuple[tuple[int, ...], ...]

    @staticmethod
    def identity(ambient: AmbientLattice) -> "LatticeMap":
        n = ambient.dim
        rows = tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))
        return LatticeMap(ambient, rows, rows)

    @staticmethod
    def reflection(c: HomologyClass) -> "LatticeMap":
        """x -> x + (x.c) c; an involution exactly when c.c = -2."""
        if pair(c, c) != -2:
            raise LatticeError("reflection class must have square -2")
        amb = c.ambient
        n = amb.dim
        qc = tuple(pair(c, amb.from_coeffs(tuple(1 if j == k else 0 for j in range(n))))
                   for k in range(n))
        rows = tuple(
            tuple((1 if i == j else 0) + c.coeffs[i] * qc[j] for j in range(n))
            for i in range(n)
        )
        return LatticeMap(amb, rows, rows)

    @staticmethod
    def swap(ambient: AmbientLattice, i: int, j: int) -> "LatticeMap":
        n = ambient.dim
        perm = list(range(n))
        perm[i], perm[j] = perm[j], perm[i]
        rows = tuple(tuple(1 if perm[r] == cidx else 0 for cidx in range(n)) for r in range(n))
        return LatticeMap(ambient, rows, rows)

    def then(self, second: "LatticeMap") -> "LatticeMap":
        """Composite applying self first, then second."""
        rows = _matmul(second.rows, self.rows)
        inv = _matmul(self.inv, second.inv)
        return LatticeMap(self.ambient, rows, inv)

    def apply(self, x: HomologyClass) -> HomologyClass:
        return x.ambient.from_coeffs(_matvec(self.rows, x.coeffs))

    def apply_inverse(self, x: HomologyClass) -> HomologyClass:
        return x.ambient.from_coeffs(_matvec(self.inv, x.coeffs))

    def transport_area(self, w: AreaVector) -> AreaVector:
        """Area vector w' with w'(T x) = w(x) for all classes x."""
        if w.ambient != self.ambient:
            raise LatticeError("ambient mismatch")
        return w.pull_back(self.ambient, self.inv)

    def preserves_form(self) -> bool:
        amb = self.ambient
        n = amb.dim
        basis = [amb.from_coeffs(tuple(1 if j == i else 0 for j in range(n))) for i in range(n)]
        for i in range(n):
            for j in range(i, n):
                if pair(self.apply(basis[i]), self.apply(basis[j])) != pair(basis[i], basis[j]):
                    return False
        return True


def embed_by_names(cls: HomologyClass, ambient: AmbientLattice) -> HomologyClass:
    """Re-express a class in another ambient by matching generator names;
    every nonzero coefficient must have a home."""
    vec = []
    for name in ambient.names:
        vec.append(cls.coeffs[cls.ambient.names.index(name)] if name in cls.ambient.names else 0)
    for name, c in zip(cls.ambient.names, cls.coeffs):
        if c != 0 and name not in ambient.names:
            raise LatticeError(f"coefficient on {name} has no home in the target basis")
    return ambient.from_coeffs(vec)


def _matmul(a, b):
    n = len(a)
    m = len(b[0])
    k = len(b)
    return tuple(
        tuple(sum(a[i][t] * b[t][j] for t in range(k)) for j in range(m))
        for i in range(n)
    )


def _matvec(rows, vec):
    return tuple(sum(r[j] * vec[j] for j in range(len(vec))) for r in rows)
