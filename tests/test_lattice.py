from __future__ import annotations

import random
import re
from fractions import Fraction
from pathlib import Path

import pytest

import sympdiv
from conftest import preserves_form, reflection
from sympdiv.lattice import (
    AmbientLattice,
    AreaVector,
    LatticeError,
    adjunction_genus,
    area,
    canonical,
    is_exceptional_class,
    pair,
    sw_index,
)


def test_defining_pairings():
    pp = AmbientLattice.projective_plane()
    h = pp.basis_class("H")
    assert pair(h, h) == 1

    ps = AmbientLattice.product_of_spheres()
    k = canonical(ps)
    assert pair(k, k) == 8  # expand 8 * (f1.f2)

    assert pair(2 * h, -3 * h) == -6

    tw = AmbientLattice.ruled_twisted(2)
    b1, f = tw.basis_class("B1"), tw.basis_class("F")
    assert pair(b1, b1) == 1 and pair(b1, f) == 1 and pair(f, f) == 0


def test_canonical_classes():
    pp = AmbientLattice.projective_plane()
    assert canonical(pp) == -3 * pp.basis_class("H")
    rt = AmbientLattice.ruled_trivial(3, 2)
    expect = rt.cls(B=-2, F=4, E1=1, E2=1)
    assert canonical(rt) == expect
    tw = AmbientLattice.ruled_twisted(3)
    assert canonical(tw) == tw.cls(B1=-2, F=5)
    rb = AmbientLattice.rational_blowup(4)
    assert canonical(rb) == rb.cls(H=-3, E1=1, E2=1, E3=1, E4=1)


def test_ambient_mismatch_raises():
    pp = AmbientLattice.projective_plane()
    rb = AmbientLattice.rational_blowup(1)
    with pytest.raises(LatticeError):
        pair(pp.basis_class("H"), rb.basis_class("H"))


def test_adjunction_genus():
    pp = AmbientLattice.projective_plane()
    assert adjunction_genus(pp.cls(H=2)) == 0
    rt = AmbientLattice.ruled_trivial(3, 1)
    assert adjunction_genus(rt.cls(B=1, F=3)) == 3
    rb = AmbientLattice.rational_blowup(2)
    assert adjunction_genus(rb.cls(E1=1)) == 0
    # negative adjunction value means no embedded representative
    assert adjunction_genus(rb.cls(H=1, E1=-1, E2=-1)) == 0
    assert adjunction_genus(rb.cls(E1=2)) is None


def test_sw_index():
    rb = AmbientLattice.rational_blowup(3)
    assert sw_index(rb.cls(E1=1)) == 0
    pp = AmbientLattice.projective_plane()
    assert sw_index(pp.cls(H=1)) == 4


def test_sw_index_matches_adjunction_for_spheres():
    # on sphere classes a.a - K.a = 2 a.a + 2
    rng = random.Random(11)
    rb = AmbientLattice.rational_blowup(4)
    found = 0
    for _ in range(400):
        cls = rb.from_coeffs(tuple(rng.randint(-3, 3) for _ in range(5)))
        if adjunction_genus(cls) == 0:
            assert sw_index(cls) == 2 * pair(cls, cls) + 2
            found += 1
    assert found > 10


def test_pair_bilinear_symmetric():
    rng = random.Random(5)
    for amb in (
        AmbientLattice.rational_blowup(3),
        AmbientLattice.ruled_trivial(2, 2),
        AmbientLattice.product_of_spheres(),
        AmbientLattice.ruled_twisted(1),
    ):
        for _ in range(60):
            x = amb.from_coeffs(tuple(rng.randint(-4, 4) for _ in range(amb.dim)))
            y = amb.from_coeffs(tuple(rng.randint(-4, 4) for _ in range(amb.dim)))
            z = amb.from_coeffs(tuple(rng.randint(-4, 4) for _ in range(amb.dim)))
            assert pair(x, y) == pair(y, x)
            assert pair(x + z, y) == pair(x, y) + pair(z, y)
            assert pair(3 * x, y) == 3 * pair(x, y)


def test_exceptional_generators_basics():
    rb = AmbientLattice.rational_blowup(5)
    for i in rb.exc_indices:
        e = rb.basis_class(rb.names[i])
        assert is_exceptional_class(e)
        assert sw_index(e) == 0
        assert adjunction_genus(e) == 0


def test_ruled_exceptional_needs_zero_fiber_degree():
    rt = AmbientLattice.ruled_trivial(1, 1)
    # B + E1 solves the two equations at g = 1 but meets the fiber
    bad = rt.cls(B=1, E1=1)
    assert pair(bad, bad) == -1
    assert pair(canonical(rt), bad) == -1
    assert not is_exceptional_class(bad)
    assert is_exceptional_class(rt.cls(F=1, E1=-1))


def test_area_linear():
    rb = AmbientLattice.rational_blowup(1)
    w = AreaVector.from_values(rb, [1, Fraction(1, 3)])
    assert area(rb.cls(H=1, E1=-1), w) == Fraction(2, 3)
    assert area(rb.cls(), w) == 0


def test_area_vector_positivity():
    rb = AmbientLattice.rational_blowup(1)
    with pytest.raises(LatticeError):
        AreaVector.from_values(rb, [1, 0])
    rt = AmbientLattice.ruled_trivial(1, 0)
    with pytest.raises(LatticeError):
        AreaVector.from_values(rt, [1, -1])


def test_reflection_map_preserves_structure():
    rb = AmbientLattice.rational_blowup(3)
    c = rb.cls(H=1, E1=-1, E2=-1, E3=-1)
    t = reflection(c)
    assert preserves_form(t)
    assert t.apply(canonical(rb)) == canonical(rb)
    x = rb.cls(H=2, E1=-1)
    assert t.apply(t.apply(x)) == x
    w = AreaVector.from_values(rb, [1, Fraction(1, 2), Fraction(1, 3), Fraction(1, 5)])
    tw = t.transport_area(w)
    assert area(t.apply(x), tw) == area(x, w)


def test_class_formatting():
    rb = AmbientLattice.rational_blowup(2)
    assert str(rb.cls(H=3, E1=-1, E2=-2)) == "3H-E1-2E2"
    assert str(rb.cls()) == "0"


def test_repeated_generator_names_refused():
    with pytest.raises(LatticeError, match="repeated generator name 'E1'"):
        AmbientLattice.rational_blowup(2, ("E1", "E1"))
    # a clash with a head generator
    with pytest.raises(LatticeError, match="repeated generator name 'H'"):
        AmbientLattice.rational_blowup(2, ("H", "E2"))
    for clash in ("B", "F"):
        with pytest.raises(LatticeError, match="repeated generator name"):
            AmbientLattice.ruled_trivial(1, 1, (clash,))
    assert AmbientLattice.rational_blowup(2, ("E2", "E1")).names == ("H", "E2", "E1")


def test_fresh_name_of_an_appended_ambient_is_the_parsed_one():
    # the ambient with_fresh_exc makes knows its next name without parsing;
    # an equal ambient built from scratch parses its names to the same one
    amb = start = AmbientLattice("rational_blowup", 0, ("H", "E10", "X3", "E2", "Ea", "E"))
    for _ in range(3):
        up = amb.with_fresh_exc("rational_blowup", 1)
        assert up.names[:-1] == amb.names and up.names[-1] == amb.fresh_exc_name
        assert up.fresh_exc_name == AmbientLattice(up.kind, up.g, up.names).fresh_exc_name
        amb = up
    assert amb.names[-3:] == ("E11", "E12", "E13") and amb.fresh_exc_name == "E14"
    # n fresh names at once are the names of n calls, and so is the next one
    at_once = start.with_fresh_exc("rational_blowup", 3)
    assert at_once == amb and at_once.fresh_exc_name == "E14"
    assert AmbientLattice.projective_plane().with_fresh_exc("rational_blowup", 1).names == ("H", "E1")


def _lines_outside_lattice(pattern):
    """The lines of the package's modules, lattice.py left out, that match
    pattern, as `grep -n` counts them."""
    rx = re.compile(pattern)
    src = Path(sympdiv.__file__).parent
    return [f"{p.name}:{i}" for p in sorted(src.glob("*.py")) if p.name != "lattice.py"
            for i, line in enumerate(p.read_text().splitlines(), 1) if rx.search(line)]


def test_kind_branches_stay_few_outside_lattice():
    # what a kind is sits in its record in lattice.KINDS; 33 and 8 lines
    # matched before the callers read it
    assert len(_lines_outside_lattice(r"\.kind ==|\.kind in|kind == KIND|is_ruled|is_rational")) <= 16
    assert len(_lines_outside_lattice(r"\.kind !=|\.kind not in")) <= 8
