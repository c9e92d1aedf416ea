"""The intersection form as a head term minus a dot product, the sparse
pairings of validation summed one generator column at a time, the cached
canonical class, and `validate` on those sparse pairings.  Each property is
checked against references written out here from the `lattice` module
docstring: a Gram matrix per ambient kind, the canonical class from its
textbook formula, and `validate` as it was written with a per-pair edge
scan."""

from __future__ import annotations

import random
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import random_blowup_config
from sympdiv.divisor import DivisorComponent, DivisorConfig, validate
from sympdiv.lattice import (
    KIND_PP,
    KIND_RATIONAL,
    KIND_RULED,
    KIND_S2S2,
    KIND_TWISTED,
    AmbientLattice,
    AreaVector,
    HomologyClass,
    LatticeError,
    adjunction_genus,
    area,
    canonical,
    pair,
    sparse_gram,
)
from sympdiv.reduction import comb_shape_problems

PROPERTY = settings(max_examples=80, deadline=None)

KINDS = [KIND_PP, KIND_S2S2, KIND_RATIONAL, KIND_RULED, KIND_TWISTED]


def _ambient(kind: str, g: int, n: int) -> AmbientLattice:
    if kind == KIND_PP:
        return AmbientLattice.projective_plane()
    if kind == KIND_S2S2:
        return AmbientLattice.product_of_spheres()
    if kind == KIND_RATIONAL:
        return AmbientLattice.rational_blowup(n + 1)
    if kind == KIND_RULED:
        return AmbientLattice.ruled_trivial(g, n)
    return AmbientLattice.ruled_twisted(g)


def gram(amb: AmbientLattice) -> list[list[int]]:
    """The Gram matrix of the module docstring's table, built by hand."""
    d = len(amb.names)
    m = [[0] * d for _ in range(d)]
    if amb.kind in (KIND_PP, KIND_RATIONAL):
        m[0][0] = 1
        tail = 1
    elif amb.kind in (KIND_S2S2, KIND_RULED):
        m[0][1] = m[1][0] = 1
        tail = 2
    else:
        m[0][0] = m[0][1] = m[1][0] = 1
        tail = 2
    for i in range(tail, d):
        m[i][i] = -1
    return m


def reference_pair(a: HomologyClass, b: HomologyClass) -> int:
    m = gram(a.ambient)
    return sum(a.coeffs[i] * m[i][j] * b.coeffs[j]
               for i in range(len(m)) for j in range(len(m)))


def reference_canonical(amb: AmbientLattice) -> tuple[int, ...]:
    g = amb.g
    head = {
        KIND_PP: (-3,),
        KIND_S2S2: (-2, -2),
        KIND_RATIONAL: (-3,),
        KIND_RULED: (-2, 2 * g - 2),
        KIND_TWISTED: (-2, 2 * g - 1),
    }[amb.kind]
    return head + (1,) * (len(amb.names) - len(head))


@st.composite
def ambients(draw):
    kind = draw(st.sampled_from(KINDS))
    return _ambient(kind, draw(st.integers(1, 4)), draw(st.integers(0, 9)))


@st.composite
def class_pairs(draw):
    amb = draw(ambients())
    vec = st.lists(st.integers(-20, 20), min_size=amb.dim, max_size=amb.dim)
    return amb.from_coeffs(draw(vec)), amb.from_coeffs(draw(vec))


# -- pair -----------------------------------------------------------------------


@PROPERTY
@given(class_pairs())
@example((AmbientLattice.ruled_twisted(2).from_coeffs((1, 0)),
          AmbientLattice.ruled_twisted(2).from_coeffs((1, 1))))
def test_pair_equals_gram_reference(case):
    a, b = case
    assert pair(a, b) == reference_pair(a, b)
    assert pair(b, a) == pair(a, b)


def test_pair_on_each_kind_by_hand():
    # one fixed value per kind, so that every head term is pinned
    h = _ambient(KIND_PP, 1, 0).from_coeffs((3,))
    assert pair(h, h) == 9
    s = _ambient(KIND_S2S2, 1, 0)
    assert pair(s.from_coeffs((2, 3)), s.from_coeffs((5, 7))) == 2 * 7 + 3 * 5
    r = _ambient(KIND_RATIONAL, 1, 2)
    assert pair(r.from_coeffs((3, 1, 2, 0)), r.from_coeffs((2, 1, 1, 4))) == 6 - 1 - 2
    u = _ambient(KIND_RULED, 2, 2)
    assert pair(u.from_coeffs((2, 3, 1, 1)), u.from_coeffs((5, 7, 2, -1))) == 14 + 15 - 2 + 1
    t = _ambient(KIND_TWISTED, 3, 0)
    assert pair(t.from_coeffs((2, 3)), t.from_coeffs((5, 7))) == 10 + 14 + 15


def test_pair_across_equal_ambients_and_mismatch():
    a = AmbientLattice.rational_blowup(3)
    b = AmbientLattice.rational_blowup(3)
    assert a is not b and a == b
    assert pair(a.cls(H=1, E1=1), b.cls(H=2, E1=1)) == 1
    other = AmbientLattice.rational_blowup(3, ("E1", "E2", "E9"))
    with pytest.raises(LatticeError, match="ambient mismatch"):
        pair(a.cls(H=1), other.cls(H=1))


# -- the sparse pairings of validation -------------------------------------------


_BIG = AmbientLattice.ruled_twisted(2)


def reference_meets(classes) -> set[tuple[int, int]]:
    """The pairs i < j with a nonzero Gram entry between a generator of
    classes[i] and one of classes[j]: the pairs sparse_gram visits."""
    if not classes:
        return set()
    m = gram(classes[0].ambient)
    supports = [[t for t, x in enumerate(c.coeffs) if x] for c in classes]
    return {(i, j) for i, a in enumerate(supports) for j, b in enumerate(supports)
            if i < j and any(m[t][u] for t in a for u in b)}


@st.composite
def class_multisets(draw):
    """Classes of one ambient, some of them repeated, with zero classes and
    coefficients past 2**64 among them."""
    amb = draw(ambients())
    coeff = st.integers(-20, 20) | st.integers(-2**70, 2**70)
    vec = st.lists(coeff, min_size=amb.dim, max_size=amb.dim)
    distinct = draw(st.lists(st.builds(amb.from_coeffs, vec) | st.just(amb.cls()),
                             min_size=1, max_size=5))
    return amb, draw(st.lists(st.sampled_from(distinct), max_size=8))


_WIDE = (_BIG.from_coeffs((2**65 + 3, -(2**64))), _BIG.from_coeffs((-(2**66), 2**64 + 1)))


@PROPERTY
@given(class_multisets())
@example((_BIG, []))
@example((_BIG, [_WIDE[0], _BIG.cls(), _WIDE[1], _WIDE[0]]))
@example((AmbientLattice.rational_blowup(3), [AmbientLattice.rational_blowup(3).cls(E2=2**65)] * 3))
def test_sparse_gram_equals_pair(case):
    amb, classes = case
    g = sparse_gram(amb, classes)
    assert g.canonical == [pair(canonical(amb), c) for c in classes]
    assert g.square == [pair(c, c) for c in classes]
    every = {(i, j): pair(a, b) for i, a in enumerate(classes)
             for j, b in enumerate(classes) if i < j}
    assert {key: g.off.get(key, 0) for key in every} == every
    assert set(g.off) == reference_meets(classes)


@settings(max_examples=40, deadline=None)
@given(class_multisets(), st.lists(st.sampled_from("AB"), min_size=8, max_size=8))
def test_gram_of_a_configuration_with_repeated_ids(case, ids):
    # the pairings are by position: repeated ids change nothing
    amb, classes = case
    cfg = DivisorConfig(amb, tuple(DivisorComponent(cid, c, 0) for cid, c in zip(ids, classes)),
                        ())
    g = sparse_gram(amb, classes)
    assert (cfg.gram.canonical, cfg.gram.square, cfg.gram.off) == (g.canonical, g.square, g.off)


def test_sparse_gram_refuses_another_ambient():
    a = AmbientLattice.rational_blowup(2)
    other = AmbientLattice.rational_blowup(2, ("E1", "E7"))
    for classes in ([a.cls(E1=1), other.cls(H=1)], [other.cls(H=1)],
                    [a.cls(H=1), a.cls(E1=1), other.cls(H=1)]):
        with pytest.raises(LatticeError, match="ambient mismatch"):
            sparse_gram(a, classes)
    # a configuration pairs its classes up to the first in another ambient
    cfg = DivisorConfig(a, (DivisorComponent("A", a.cls(E1=1), 0),
                            DivisorComponent("B", other.cls(H=1), 0),
                            DivisorComponent("C", a.cls(E1=1), 0)), ())
    assert (cfg.gram.canonical, cfg.gram.square, cfg.gram.off) == ([-1], [-1], {})


# -- the canonical class --------------------------------------------------------


@PROPERTY
@given(ambients())
def test_canonical_square_matches_textbook(amb):
    k = canonical(amb)
    n = amb.n_exc
    expected = {
        KIND_PP: 9,
        KIND_RATIONAL: 9 - n,
        KIND_S2S2: 8,
        KIND_RULED: 8 - 8 * amb.g - n,
        KIND_TWISTED: 8 - 8 * amb.g,
    }[amb.kind]
    assert pair(k, k) == expected
    assert k.coeffs == reference_canonical(amb)


@PROPERTY
@given(class_pairs())
def test_canonical_is_characteristic(case):
    x, _ = case
    assert (pair(x, x) - pair(canonical(x.ambient), x)) % 2 == 0


def test_canonical_is_cached_per_instance_and_invisible():
    amb = AmbientLattice.ruled_trivial(2, 3)
    fresh = AmbientLattice.ruled_trivial(2, 3)
    assert canonical(amb) is canonical(amb)
    assert amb == fresh and hash(amb) == hash(fresh) and repr(amb) == repr(fresh)
    assert canonical(fresh) == canonical(amb)
    assert canonical(amb).ambient is amb


def test_unknown_kind_is_refused():
    with pytest.raises(LatticeError, match="unknown kind"):
        AmbientLattice("nowhere", 0, ("H",))


# -- validate -------------------------------------------------------------------


def reference_validate(config: DivisorConfig, w=None) -> list[str]:
    """`validate` as written with a scan of the edge list for every component
    pair, on the Gram-matrix pairing and the textbook canonical class."""
    def genus(cls):
        k = cls.ambient.from_coeffs(reference_canonical(cls.ambient))
        g = (reference_pair(cls, cls) + reference_pair(k, cls)) // 2 + 1
        return g if g >= 0 else None

    def multiplicity(a, b):
        key = tuple(sorted((a, b)))
        return sum(1 for e in config.edges if e == key)

    problems: list[str] = []
    if not config.components:
        problems.append("configuration is empty")
        return problems
    seen = set()
    for c in config.components:
        if c.id in seen:
            problems.append(f"duplicate component id {c.id!r}")
        seen.add(c.id)
        if c.cls.ambient != config.ambient:
            problems.append(f"component {c.id}: class lives in a different ambient")
            return problems
        g = genus(c.cls)
        if g is None:
            problems.append(f"component {c.id}: class {c.cls} admits no embedded genus")
        elif g != c.genus:
            problems.append(
                f"component {c.id}: declared genus {c.genus} but adjunction forces {g}"
            )
        if w is not None and area(c.cls, w) <= 0:
            problems.append(f"component {c.id}: non-positive area {area(c.cls, w)}")
    for a, b in config.edges:
        if a == b:
            problems.append(f"self-edge on component {a!r}")
        for cid in (a, b):
            if cid not in seen:
                problems.append(f"edge references unknown component {cid!r}")
                return problems
    comps = list(config.components)
    for i in range(len(comps)):
        for j in range(i + 1, len(comps)):
            p = reference_pair(comps[i].cls, comps[j].cls)
            m = multiplicity(comps[i].id, comps[j].id)
            if p < 0:
                problems.append(f"components {comps[i].id},{comps[j].id}: negative pairing {p}")
            elif m != p:
                problems.append(
                    f"components {comps[i].id},{comps[j].id}: {m} edges but pairing {p}"
                )
    return problems


def _set_component(cfg, k, **changes):
    comps = list(cfg.components)
    comps[k] = replace(comps[k], **changes)
    return replace(cfg, components=tuple(comps))


def mutate(cfg: DivisorConfig, rng: random.Random, how: str) -> DivisorConfig:
    comps, edges = cfg.components, list(cfg.edges)
    k = rng.randrange(len(comps))
    c = comps[k]
    if how == "drop_edge" and edges:
        edges.pop(rng.randrange(len(edges)))
    elif how == "double_edge" and edges:
        edges.append(rng.choice(edges))
    elif how == "wrong_genus":
        return _set_component(cfg, k, genus=c.genus + rng.choice([-1, 1, 2]))
    elif how == "duplicate_id" and len(comps) > 1:
        return _set_component(cfg, k, id=comps[k - 1].id)
    elif how == "self_edge":
        edges.append((c.id, c.id))
    elif how == "unknown_id":
        edges.append(tuple(sorted((c.id, "Z9"))))
    elif how == "negative_pairing":
        return _set_component(cfg, k, cls=-c.cls)
    elif how == "other_ambient":
        amb = cfg.ambient
        names = amb.names[:-1] + (amb.names[-1] + "x",)
        other = AmbientLattice(amb.kind, amb.g, names)
        return _set_component(cfg, k, cls=HomologyClass(other, c.cls.coeffs))
    elif how == "unsorted_edge" and edges:
        i = rng.randrange(len(edges))
        edges[i] = edges[i][::-1]
    return replace(cfg, edges=tuple(edges))


MUTATIONS = ["none", "drop_edge", "double_edge", "wrong_genus", "duplicate_id", "self_edge",
             "unknown_id", "negative_pairing", "other_ambient", "unsorted_edge"]


@st.composite
def twisted_bundle_configs(draw):
    """Sections B1 + kF (at most one of negative square) and fibers F of a
    twisted bundle, with every edge their pairings ask for, and areas that
    are positive on each of them."""
    amb = AmbientLattice.ruled_twisted(draw(st.integers(1, 3)))
    shifts = [draw(st.integers(-1, 3))] + draw(st.lists(st.integers(0, 3), max_size=2))
    comps = [(f"S{i}", amb.cls(B1=1, F=k)) for i, k in enumerate(shifts)]
    comps += [(f"F{i}", amb.cls(F=1)) for i in range(draw(st.integers(0, 3)))]
    edges = [(a, b) for i, (a, x) in enumerate(comps) for b, y in comps[i + 1:]
             for _ in range(reference_pair(x, y))]
    w = AreaVector.from_values(amb, [draw(st.integers(2, 9)), 1])
    return DivisorConfig.build(amb, comps, edges), w


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1), st.none() | twisted_bundle_configs(),
       st.sampled_from(MUTATIONS), st.booleans(), st.booleans())
def test_validate_matches_reference(seed, twisted, how, shuffle, with_areas):
    rng = random.Random(seed)
    cfg, w = twisted or random_blowup_config(rng)
    w = w if with_areas else None
    assert validate(cfg, w) == [] == reference_validate(cfg, w)
    bad = mutate(cfg, rng, how)
    if shuffle:
        comps = list(bad.components)
        rng.shuffle(comps)
        bad = replace(bad, components=tuple(comps))
    assert validate(bad, w) == reference_validate(bad, w)


def reference_twisted_shapes(config: DivisorConfig) -> list[str]:
    """validate, then the comb shape rules, on a twisted bundle as they once
    were, with a rule of its own: a section is B1 + kF, a fiber F, and
    nothing else is allowed."""
    amb = config.ambient
    problems = validate(config)
    if problems:
        return problems
    sections = 0
    for c in config.components:
        v = c.cls.coeffs
        if v[0] == 1:
            sections += 1
            if c.genus != amb.g:
                problems.append(f"section {c.id} has genus {c.genus}, expected {amb.g}")
        elif v[0] == 0 and v[1] == 1:
            pass
        else:
            problems.append(f"component {c.id} class {c.cls} matches no allowed shape")
    if sections > 1:
        problems.append(f"{sections} section-type components, at most one allowed")
    return problems


@st.composite
def twisted_off_shape_configs(draw):
    """A twisted bundle configuration with up to three more components of
    any small class bB1 + fF, most of them off the allowed shapes, a declared
    genus that is sometimes not adjunction's, and the edges their pairings
    ask for where those are not negative."""
    cfg, _ = draw(twisted_bundle_configs())
    amb = cfg.ambient
    comps = [(c.id, c.cls, c.genus) for c in cfg.components]
    for i, (b, f) in enumerate(draw(st.lists(st.tuples(st.integers(-1, 3), st.integers(-3, 3)),
                                             max_size=3))):
        cls = amb.cls(B1=b, F=f)
        genus = adjunction_genus(cls)
        if genus is not None:
            comps.append((f"X{i}", cls, genus + draw(st.sampled_from((0, 0, 0, 1)))))
    edges = [(a, b) for i, (a, x, _) in enumerate(comps) for b, y, _ in comps[i + 1:]
             for _ in range(max(0, reference_pair(x, y)))]
    return DivisorConfig.build(amb, comps, edges)


@settings(max_examples=200, deadline=None)
@given(twisted_bundle_configs().map(lambda t: t[0]) | twisted_off_shape_configs())
def test_ruled_validate_on_twisted_bundles_matches_reference(cfg):
    assert (validate(cfg) or comb_shape_problems(cfg)) == reference_twisted_shapes(cfg)


def test_ruled_validate_on_a_twisted_bundle_off_its_shapes():
    amb = AmbientLattice.ruled_twisted(2)
    comps = [("S", amb.cls(B1=1)), ("T", amb.cls(B1=1, F=1)), ("X", amb.cls(B1=2, F=-1)),
             ("Z", amb.cls())]
    edges = [(a, b) for i, (a, x) in enumerate(comps) for b, y in comps[i + 1:]
             for _ in range(reference_pair(x, y))]
    cfg = DivisorConfig.build(amb, comps, edges)
    assert (validate(cfg) or comb_shape_problems(cfg)) == reference_twisted_shapes(cfg) == [
        "component X class 2B1-F matches no allowed shape",
        "component Z class 0 matches no allowed shape",
        "2 section-type components, at most one allowed",
    ]


def test_validate_problem_order_on_a_fixed_case():
    amb = AmbientLattice.rational_blowup(2)
    line, e1, e2 = amb.cls(H=1, E1=-1, E2=-1), amb.cls(E1=1), amb.cls(E2=1)
    cfg = DivisorConfig(
        amb,
        (DivisorComponent("L", line, 0), DivisorComponent("B", e2, 0),
         DivisorComponent("A", e1, 1)),
        (("A", "L"), ("A", "L"), ("L", "B")),
    )
    assert validate(cfg) == reference_validate(cfg) == [
        "component A: declared genus 1 but adjunction forces 0",
        "components L,B: 0 edges but pairing 1",
        "components L,A: 2 edges but pairing 1",
    ]


def test_validate_counts_edges_by_id_when_ids_repeat():
    # both components named A share the one stored edge (A, L): E1 meets L
    # once, E2 does not, so only the second pair is reported
    amb = AmbientLattice.rational_blowup(2)
    cfg = DivisorConfig(
        amb,
        (DivisorComponent("A", amb.cls(E1=1), 0), DivisorComponent("A", amb.cls(E2=1), 0),
         DivisorComponent("L", amb.cls(H=1, E1=-1), 0)),
        (("A", "L"),),
    )
    assert validate(cfg) == reference_validate(cfg) == [
        "duplicate component id 'A'",
        "components A,L: 1 edges but pairing 0",
    ]


def test_validate_area_sign_at_zero():
    # H - E1 - E2 - E3 has area exactly 0 on H = 1, E1 = 1/2, E2 = E3 = 1/4:
    # reported as non-positive, while E1 of area 1/2 is not.  H - E1 - E2 - E3
    # is no exceptional class and w is Cremona-reduced, so it lies in the
    # symplectic cone and validate reports nothing more
    amb = AmbientLattice.rational_blowup(3)
    w = AreaVector.from_values(amb, [1, Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)])
    cfg = DivisorConfig.build(amb, [("A", amb.cls(E1=1)),
                                    ("L", amb.cls(H=1, E1=-1, E2=-1, E3=-1))], [("A", "L")])
    assert validate(cfg, w) == reference_validate(cfg, w) == ["component L: non-positive area 0"]


def test_validate_counts_a_self_edge_once_between_repeated_ids():
    # the one stored edge (A, A) is the sorted pair of the two components A
    amb = AmbientLattice.rational_blowup(2)
    cfg = DivisorConfig(
        amb,
        (DivisorComponent("A", amb.cls(E1=1), 0), DivisorComponent("A", amb.cls(E2=1), 0)),
        (("A", "A"),),
    )
    assert validate(cfg) == reference_validate(cfg) == [
        "duplicate component id 'A'",
        "self-edge on component 'A'",
        "components A,A: 1 edges but pairing 0",
    ]


def test_validate_refuses_areas_of_another_ambient():
    amb = AmbientLattice.rational_blowup(2)
    cfg = DivisorConfig.build(amb, [("A", amb.cls(E1=1))], [])
    w = AreaVector.from_values(AmbientLattice.rational_blowup(2, ("F1", "F2")), [3, 1, 1])
    with pytest.raises(LatticeError, match="ambient mismatch"):
        validate(cfg, w)
