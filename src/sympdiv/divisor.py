"""Divisor configurations as decorated intersection graphs.

A configuration is a list of components (homology class + genus) together
with a multiset of edges between component ids.  Edge multiplicity between
two components must equal the intersection pairing of their classes, and
all pairings must be non-negative.  Genus is forced by adjunction since
components are embedded surfaces.  The pairings come from
`lattice.sparse_gram`: a pair sharing no generator column pairs to 0.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction

from .lattice import (
    AmbientLattice,
    AreaVector,
    HomologyClass,
    LatticeError,
    SparseGram,
    adjunction_genus,
    area,
    canonical,
    combination,
    cone_violation,
    pair,
    sparse_gram,
)


class DivisorError(ValueError):
    pass


@dataclass(frozen=True, slots=True)
class DivisorComponent:
    id: str
    cls: HomologyClass
    genus: int


@dataclass(frozen=True)
class DivisorConfig:
    ambient: AmbientLattice
    components: tuple[DivisorComponent, ...]
    edges: tuple[tuple[str, str], ...]

    @staticmethod
    def build(ambient: AmbientLattice, components, edges) -> "DivisorConfig":
        """components: iterable of (id, cls) or (id, cls, genus); genus
        defaults to the adjunction value of the class."""
        comps = []
        for item in components:
            if len(item) == 2:
                cid, cls = item
                g = adjunction_genus(cls)
                if g is None:
                    raise DivisorError(f"component {cid}: class admits no embedded genus")
            else:
                cid, cls, g = item
            comps.append(DivisorComponent(str(cid), cls, int(g)))
        comps.sort(key=lambda c: c.id)
        pairs = [(str(a), str(b)) for a, b in edges]
        norm_edges = tuple(sorted([(a, b) if a <= b else (b, a) for a, b in pairs]))
        return DivisorConfig(ambient, tuple(comps), norm_edges)

    @cached_property
    def gram(self) -> SparseGram:
        """sparse_gram of the classes before the first in another ambient,
        read only.  Cached, not a field."""
        amb = self.ambient
        k = next((i for i, c in enumerate(self.components)
                  if c.cls.ambient is not amb and c.cls.ambient != amb), len(self.components))
        return sparse_gram(amb, [c.cls for c in self.components[:k]])

    def component(self, cid: str) -> DivisorComponent:
        for c in self.components:
            if c.id == cid:
                return c
        raise DivisorError(f"no component with id {cid!r}")

    def ids(self) -> list[str]:
        return [c.id for c in self.components]

    def edge_multiplicity(self, a: str, b: str) -> int:
        key = tuple(sorted((a, b)))
        return sum(1 for e in self.edges if e == key)

    def degree(self, cid: str) -> int:
        return sum(1 for a, b in self.edges if cid in (a, b))

    def neighbors(self, cid: str) -> list[str]:
        out = []
        for a, b in self.edges:
            if a == cid:
                out.append(b)
            elif b == cid:
                out.append(a)
        return out


# -- validation --------------------------------------------------------------


def validate(config: DivisorConfig, w: AreaVector | None = None) -> list[str]:
    """Return the list of violated invariants; empty means valid.  Genus must be
    adjunction's, w.w > 0, w in the symplectic cone and not its negative;
    pairings come from config.gram, so validating it again only compares.
    Callers validate what they make."""
    comps = config.components
    if not comps:
        return ["configuration is empty"]
    problems: list[str] = []
    if w is not None and (sq := w.square()).numerator <= 0:
        problems.append(f"area vector has non-positive square {sq}")
    elif w is not None and w.areas[0].numerator <= 0:  # w.w > 0 holds for -w too
        problems.append(f"area vector outside the symplectic cone: {w.ambient.names[0]} "
                        f"has area {w.areas[0]}")
    elif w is not None and (e := cone_violation(w)) is not None:
        problems.append(f"area vector outside the symplectic cone: exceptional class {e} "
                        f"has area {area(e, w)}")
    gram, k = config.gram, len(config.gram.square)
    if w is not None and k and w.ambient != config.ambient:
        raise LatticeError("ambient mismatch")
    nums = None if w is None else w.integer_form[0]  # area signs: the denominator is > 0
    at: dict[str, list[int]] = {}  # the positions of each id
    for i, c in enumerate(comps):
        if c.id in at:
            problems.append(f"duplicate component id {c.id!r}")
        at.setdefault(c.id, []).append(i)
        if i == k:
            problems.append(f"component {c.id}: class lives in a different ambient")
            return problems
        g = (gram.square[i] + gram.canonical[i]) // 2 + 1
        if g < 0:
            problems.append(f"component {c.id}: class {c.cls} admits no embedded genus")
        elif g != c.genus:
            problems.append(f"component {c.id}: declared genus {c.genus} but adjunction forces {g}")
        if nums is not None and sum(map(operator.mul, c.cls.coeffs, nums)) <= 0:
            problems.append(f"component {c.id}: non-positive area {area(c.cls, w)}")

    # each edge equal to the sorted pair of ids (as edge_multiplicity counts:
    # an unsorted edge matches no pair) is taken off their pairing, leaving 0
    excess = dict(gram.off)
    for a, b in config.edges:
        if a == b:
            problems.append(f"self-edge on component {a!r}")
        for cid in (a, b):
            if cid not in at:
                problems.append(f"edge references unknown component {cid!r}")
                return problems
        for i in at[a] if a <= b else ():
            for j in at[b]:
                if i < j or a != b:
                    key = (i, j) if i < j else (j, i)
                    excess[key] = excess.get(key, 0) - 1
    for i, j in sorted([key for key, v in excess.items() if v]):
        p = gram.off.get((i, j), 0)
        what = f"negative pairing {p}" if p < 0 else f"{p - excess[i, j]} edges but pairing {p}"
        problems.append(f"components {comps[i].id},{comps[j].id}: {what}")
    return problems


def require_valid(config: DivisorConfig, w: AreaVector | None = None) -> DivisorConfig:
    problems = validate(config, w)
    if problems:
        raise DivisorError("invalid configuration: " + "; ".join(problems))
    return config


# -- graph helpers -----------------------------------------------------------


def connected_components(config: DivisorConfig) -> list[list[str]]:
    ids = config.ids()
    remaining = set(ids)
    out = []
    while remaining:
        start = next(i for i in ids if i in remaining)
        stack = [start]
        comp = []
        remaining.discard(start)
        while stack:
            v = stack.pop()
            comp.append(v)
            for u in config.neighbors(v):
                if u in remaining:
                    remaining.discard(u)
                    stack.append(u)
        out.append(sorted(comp))
    return out


def is_connected(config: DivisorConfig) -> bool:
    return len(connected_components(config)) == 1


def first_betti(config: DivisorConfig) -> int:
    """dim H1 of the dual graph: E - V + #components (edges with multiplicity)."""
    return len(config.edges) - len(config.components) + len(connected_components(config))


# -- total class and genus ----------------------------------------------------


def total_class(config: DivisorConfig) -> HomologyClass:
    return combination(config.ambient, ((1, c.cls) for c in config.components))


def total_genus_parts(config: DivisorConfig) -> tuple[int, int]:
    """(closed adjunction formula, graph formula); they agree on valid input."""
    d = total_class(config)
    closed = (pair(d, d) + pair(canonical(config.ambient), d)) // 2 + 1
    graph = (
        sum(c.genus for c in config.components)
        + first_betti(config)
        - len(connected_components(config))
        + 1
    )
    return closed, graph


def total_genus(config: DivisorConfig) -> int:
    closed, graph = total_genus_parts(config)
    if closed != graph:
        raise DivisorError(
            f"total genus disagreement: adjunction gives {closed}, graph gives {graph}"
        )
    return closed


# -- smoothing ----------------------------------------------------------------


@dataclass(frozen=True)
class SmoothedSurface:
    cls: HomologyClass
    genus: int
    source_ids: tuple[str, ...]


def smooth_all(config: DivisorConfig) -> list[SmoothedSurface]:
    """Smooth every intersection point: one surface per connected sub-graph,
    with class the sum of classes and genus the sum of genera plus the
    cycle rank of that sub-graph."""
    out = []
    for group in connected_components(config):
        comps = [c for c in config.components if c.id in group]
        cls = combination(config.ambient, ((1, c.cls) for c in comps))
        b1 = sum(1 for a, _ in config.edges if a in group) - len(group) + 1
        out.append(SmoothedSurface(cls, sum(c.genus for c in comps) + b1, tuple(group)))
    return out


# -- hypothesis and tree checks -------------------------------------------------


def adjoint_area(config: DivisorConfig, w: AreaVector) -> Fraction:
    """area(K + [D]), summed on w's integer form with one division."""
    if config.ambient != w.ambient or any(c.cls.ambient != w.ambient for c in config.components):
        raise LatticeError("ambient mismatch")
    return adjoint_area_of([c.cls.coeffs for c in config.components], w)


def adjoint_area_of(vecs, w: AreaVector) -> Fraction:
    """adjoint_area of the classes with coefficient tuples vecs in w's ambient:
    K + [D] summed first, then one dot product."""
    nums, den = w.integer_form
    total = map(sum, zip(canonical(w.ambient).coeffs, *vecs))
    return Fraction(sum(map(operator.mul, total, nums)), den)


def check_hypothesis(config: DivisorConfig, w: AreaVector) -> bool:
    """Strict negativity of the adjoint class area, exactly."""
    return adjoint_area(config, w).numerator < 0


def check_tree_of_spheres(config: DivisorConfig, w: AreaVector) -> list[str]:
    """For a connected rational-ambient configuration with negative adjoint
    area: all components are spheres, the graph is a tree, and the total
    class T satisfies T.T + K.T = -2.  Returns violations."""
    problems = []
    for c in config.components:
        if c.genus != 0:
            problems.append(f"component {c.id} has genus {c.genus}, expected sphere")
    if first_betti(config) != 0:
        problems.append("dual graph contains a loop")
    d = total_class(config)
    v = pair(d, d) + pair(canonical(config.ambient), d)
    if v != -2:
        problems.append(f"[D]^2 + K.[D] = {v}, expected -2")
    return problems
