from __future__ import annotations

from fractions import Fraction

import pytest

from conftest import preserves_form, ruled_comb
from sympdiv.checks import all_passed
from sympdiv.divisor import DivisorConfig
from sympdiv.exceptional import (
    EnumerationError,
    NormalizeError,
    d_good,
    enumerate_exceptional,
    minimal_area,
    normalize_to_basis,
    sw_nonzero,
)
from sympdiv.lattice import (
    AmbientLattice,
    AreaVector,
    area,
    canonical,
    is_exceptional_class,
    pair,
)


def cp2_2_areas():
    rb = AmbientLattice.rational_blowup(2)
    return rb, AreaVector.from_values(rb, [1, Fraction(1, 3), Fraction(1, 4)])


def test_enumerate_cp2_2():
    rb, w = cp2_2_areas()
    es = enumerate_exceptional(rb, w, area_bound=Fraction(1))
    got = {str(c): area(c, w) for c in es.classes}
    assert got == {
        "E1": Fraction(1, 3),
        "E2": Fraction(1, 4),
        "H-E1-E2": Fraction(5, 12),
    }
    for c in es.classes:
        assert is_exceptional_class(c)


def test_enumerate_minimal_manifolds_empty():
    pp = AmbientLattice.projective_plane()
    es = enumerate_exceptional(pp, AreaVector.from_values(pp, [1]))
    assert es.classes == ()
    ps = AmbientLattice.product_of_spheres()
    assert enumerate_exceptional(ps, AreaVector.from_values(ps, [1, 1])).classes == ()
    tw = AmbientLattice.ruled_twisted(2)
    assert enumerate_exceptional(tw, AreaVector.from_values(tw, [3, 1])).classes == ()


def test_enumerate_ruled():
    rt = AmbientLattice.ruled_trivial(2, 1)
    w = AreaVector.from_values(rt, [5, 1, Fraction(1, 3)])
    es = enumerate_exceptional(rt, w, area_bound=Fraction(2))
    assert {str(c) for c in es.classes} == {"E1", "F-E1"}


def test_enumerate_needs_positive_square():
    rb = AmbientLattice.rational_blowup(2)
    w = AreaVector.from_values(rb, [1, 1, 1])
    with pytest.raises(EnumerationError):
        enumerate_exceptional(rb, w)


def test_enumeration_against_brute_force():
    # independent oracle: exhaust a coefficient box and filter the defining
    # equations directly
    import itertools

    rb = AmbientLattice.rational_blowup(3)
    w = AreaVector.from_values(rb, [1, Fraction(1, 3), Fraction(1, 5), Fraction(1, 7)])
    bound = Fraction(3, 2)
    expected = set()
    for coeffs in itertools.product(range(-4, 5), repeat=4):
        cls = rb.from_coeffs(coeffs)
        if (
            pair(cls, cls) == -1
            and pair(canonical(rb), cls) == -1
            and 0 < area(cls, w) <= bound
        ):
            expected.add(coeffs)
    es = enumerate_exceptional(rb, w, area_bound=bound)
    assert {c.coeffs for c in es.classes} == expected
    assert len(expected) >= 6


def test_minimal_area_and_ties():
    rb, w = cp2_2_areas()
    es = enumerate_exceptional(rb, w, area_bound=Fraction(1))
    assert [str(c) for c in minimal_area(es)] == ["E2"]
    w_tie = AreaVector.from_values(rb, [1, Fraction(1, 4), Fraction(1, 4)])
    es_tie = enumerate_exceptional(rb, w_tie, area_bound=Fraction(1))
    assert [str(c) for c in minimal_area(es_tie)] == ["E2", "E1"] or [
        str(c) for c in minimal_area(es_tie)
    ] == ["E1", "E2"]
    assert len(minimal_area(es_tie)) == 2


def test_minimal_area_order_invariance():
    rb, w = cp2_2_areas()
    es = enumerate_exceptional(rb, w, area_bound=Fraction(1))
    assert minimal_area(es) == minimal_area(
        enumerate_exceptional(rb, w, area_bound=Fraction(1))
    )


def test_sw_nonzero():
    rb, w = cp2_2_areas()
    assert sw_nonzero(rb.cls(E1=1), w)
    assert sw_nonzero(rb.cls(H=1, E1=-1, E2=-1), w)
    rt = AmbientLattice.ruled_trivial(2, 0)
    wr = AreaVector.from_values(rt, [5, 1])
    assert sw_nonzero(rt.cls(F=1), wr)
    # inconclusive: canonical direction has large area
    assert not sw_nonzero(rb.cls(H=-1), w)


def test_d_good_on_comb():
    cfg, w = ruled_comb()
    amb = cfg.ambient
    f = amb.basis_class("F")
    es = enumerate_exceptional(amb, w, area_bound=Fraction(2))
    checks = d_good(f, cfg, w, es)
    assert all_passed(checks)


def test_d_good_fails_on_negative_component_pairing():
    rb, w = cp2_2_areas()
    cfg = DivisorConfig.build(rb, [("X", rb.cls(E1=1))], [])
    es = enumerate_exceptional(rb, w, area_bound=Fraction(1))
    assert all_passed(d_good(rb.cls(E2=1), cfg, w, es))
    # E1 pairs -1 with the component in class E1
    neg = d_good(rb.cls(E1=1), cfg, w, es)
    by_name = {c.name: c for c in neg}
    assert not by_name["nonneg-on-components"].passed


def test_d_good_excludes_self():
    rb, w = cp2_2_areas()
    cfg = DivisorConfig.build(rb, [("X", rb.cls(H=1))], [])
    es = enumerate_exceptional(rb, w, area_bound=Fraction(1))
    e2 = rb.cls(E2=1)
    checks = d_good(e2, cfg, w, es)
    by_name = {c.name: c for c in checks}
    # e2 pairs -1 with itself but is excluded from its own test
    assert by_name["nonneg-on-exceptional"].passed


def test_normalize_identity_and_examples():
    rb = AmbientLattice.rational_blowup(3)
    t, idx = normalize_to_basis(rb.cls(E3=1))
    assert idx == 3 and t.apply(rb.cls(E3=1)) == rb.cls(E3=1)

    e = rb.cls(H=1, E1=-1, E2=-1)
    t, idx = normalize_to_basis(e)
    assert t.apply(e) == rb.basis_class(rb.names[idx])
    assert preserves_form(t)
    assert t.apply(canonical(rb)) == canonical(rb)


def test_normalize_deep_class():
    rb = AmbientLattice.rational_blowup(6)
    # 2H - E1 - ... - E5 is exceptional
    e = rb.cls(H=2, E1=-1, E2=-1, E3=-1, E4=-1, E5=-1)
    assert is_exceptional_class(e)
    t, idx = normalize_to_basis(e)
    assert t.apply(e) == rb.basis_class(rb.names[idx])
    assert preserves_form(t)
    assert t.apply(canonical(rb)) == canonical(rb)


def test_normalize_failure_in_small_lattice():
    rb = AmbientLattice.rational_blowup(2)
    e = rb.cls(H=1, E1=-1, E2=-1)
    with pytest.raises(NormalizeError):
        normalize_to_basis(e)
