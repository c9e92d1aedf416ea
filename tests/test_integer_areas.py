"""The integer form of area vectors: areas as numerators over the lcm of
their denominators, used by area, AreaVector.square, transport_area and the
exceptional-class search.  Every property is checked against plain Fraction
arithmetic written out here."""

from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import reflection, swap
from sympdiv.exceptional import enumerate_exceptional
from sympdiv.lattice import (
    KIND_PP,
    KIND_RATIONAL,
    KIND_RULED,
    KIND_S2S2,
    AmbientLattice,
    AreaVector,
    LatticeError,
    area,
)

PROPERTY = settings(max_examples=60, deadline=None)

positive = st.fractions(min_value=Fraction(1, 97), max_value=Fraction(7), max_denominator=97)
signed = st.fractions(min_value=Fraction(-7), max_value=Fraction(7), max_denominator=97)


@st.composite
def ambients(draw):
    kind = draw(st.sampled_from(
        ["projective_plane", "product_of_spheres", "rational_blowup", "ruled_trivial",
         "ruled_twisted"]
    ))
    n = draw(st.integers(1, 7))
    g = draw(st.integers(1, 3))
    if kind == "projective_plane":
        return AmbientLattice.projective_plane()
    if kind == "product_of_spheres":
        return AmbientLattice.product_of_spheres()
    if kind == "rational_blowup":
        return AmbientLattice.rational_blowup(n)
    if kind == "ruled_trivial":
        return AmbientLattice.ruled_trivial(g, n - 1)
    return AmbientLattice.ruled_twisted(g)


@st.composite
def area_vectors(draw, amb):
    """Any exact areas the validation accepts: positive on the exceptional
    generators and the fiber, of either sign elsewhere."""
    vals = []
    for i in range(amb.dim):
        must_be_positive = i in amb.exc_indices or i == amb.fiber_index
        vals.append(draw(positive if must_be_positive else signed))
    return AreaVector(amb, tuple(vals))


@st.composite
def class_and_areas(draw):
    amb = draw(ambients())
    coeffs = draw(st.lists(st.integers(-9, 9), min_size=amb.dim, max_size=amb.dim))
    return amb.from_coeffs(coeffs), draw(area_vectors(amb))


def textbook_square(w: AreaVector) -> Fraction:
    x, amb = w.areas, w.ambient
    exc = sum((x[i] * x[i] for i in amb.exc_indices), Fraction(0))
    if amb.kind == KIND_PP:
        return x[0] * x[0]
    if amb.kind == KIND_S2S2:
        return 2 * x[0] * x[1]
    if amb.kind == KIND_RATIONAL:
        return x[0] * x[0] - exc
    if amb.kind == KIND_RULED:
        return 2 * x[0] * x[1] - exc
    # the twisted bundle's form [[1, 1], [1, 0]] is not its own inverse: the
    # volume of a form with areas (B1, F) is F (2 B1 - F), not w.Q.w
    return 2 * x[0] * x[1] - x[1] * x[1]


# -- the integer form and exact input ---------------------------------------------


@PROPERTY
@given(class_and_areas())
def test_integer_form_is_exact(case):
    _, w = case
    nums, den = w.integer_form
    assert den == math.lcm(*(v.denominator for v in w.areas))
    assert all(Fraction(n, den) == v for n, v in zip(nums, w.areas))


def test_area_vector_rejects_inexact_areas():
    rb = AmbientLattice.rational_blowup(1)
    with pytest.raises(LatticeError):
        AreaVector(rb, (1.0, Fraction(1, 3)))
    with pytest.raises(LatticeError):
        AreaVector(rb, (Fraction(1), 0.25))
    with pytest.raises(LatticeError):
        AreaVector(rb, ("1", Fraction(1, 3)))
    w = AreaVector(rb, (1, Fraction(1, 3)))  # ints are exact
    assert w.integer_form == ((3, 1), 3)


@PROPERTY
@given(class_and_areas(), st.booleans())
def test_equality_and_hash_ignore_the_integer_form(case, computed):
    _, w = case
    twin = AreaVector(w.ambient, tuple(w.areas))
    if computed:
        w.integer_form  # noqa: B018 - fills the cache on one side only
    assert w == twin and hash(w) == hash(twin) and repr(w) == repr(twin)
    assert "integer_form" not in repr(w)


# -- area, square, transport ---------------------------------------------------------


@PROPERTY
@given(class_and_areas())
def test_area_equals_fraction_sum(case):
    x, w = case
    got = area(x, w)
    assert isinstance(got, Fraction)
    assert got == sum((c * v for c, v in zip(x.coeffs, w.areas)), Fraction(0))


@PROPERTY
@given(class_and_areas())
def test_square_equals_textbook_formula(case):
    _, w = case
    assert w.square() == textbook_square(w)


@st.composite
def maps_and_areas(draw):
    """A reflection in a square -2 class, or a swap of two exceptional
    generators, with areas for which the transported vector stays valid."""
    ruled = draw(st.booleans())
    n = draw(st.integers(3, 7))
    amb = AmbientLattice.ruled_trivial(draw(st.integers(1, 3)), n) if ruled else (
        AmbientLattice.rational_blowup(n)
    )
    exc = list(amb.exc_indices)
    picked = draw(st.permutations(exc))[:3]
    # exceptional areas below a quarter of H (or of F) keep every image of a
    # generator under these maps at positive area
    head = draw(st.fractions(min_value=1, max_value=7, max_denominator=97))
    share = st.fractions(min_value=Fraction(1, 97), max_value=Fraction(1, 4), max_denominator=97)
    vals = [head, head] if ruled else [head]
    vals += [head * draw(share) for _ in exc]
    w = AreaVector(amb, tuple(vals))
    e = [amb.basis_class(amb.names[i]) for i in picked]
    choice = draw(st.sampled_from(["difference", "blowup", "swap"]))
    if choice == "swap":
        return swap(amb, picked[0], picked[1]), w
    if choice == "difference":
        return reflection(e[0] - e[1]), w
    if ruled:
        return reflection(amb.basis_class("F") - e[0] - e[1]), w
    return reflection(amb.basis_class("H") - e[0] - e[1] - e[2]), w


@PROPERTY
@given(maps_and_areas(), st.data())
def test_transport_area_preserves_areas(case, data):
    t, w = case
    tw = t.transport_area(w)
    amb = w.ambient
    coeffs = data.draw(st.lists(st.integers(-9, 9), min_size=amb.dim, max_size=amb.dim))
    x = amb.from_coeffs(coeffs)
    assert area(t.apply(x), tw) == area(x, w)


# -- enumeration against the Fraction leaf test ---------------------------------------


def reference_enumerate(ambient, w, area_bound):
    """Exceptional classes of CP2#n by the same branch and bound, priced one
    Fraction sum per class: the leaf test of the enumerator before it moved
    to the integer form.  Returns the classes sorted by (area, coeffs)."""
    n = ambient.n_exc
    w_h = w.areas[0]
    sq_sum = sum(w.areas[i] * w.areas[i] for i in ambient.exc_indices)
    found = []

    def price(coeffs):
        return sum((c * v for c, v in zip(coeffs, w.areas)), Fraction(0))

    a = 0
    while True:
        margin = a * w_h - area_bound
        if margin > 0 and margin * margin > (a * a + 1) * sq_sum:
            break
        vec = [0] * n

        def rec(i, sq, lin):
            if i == n:
                if sq == 0 and lin == 0:
                    coeffs = (a,) + tuple(vec)
                    if 0 < price(coeffs) <= area_bound:
                        found.append(coeffs)
                return
            slots = n - i
            r = math.isqrt(sq)
            for c in range(-r, r + 1):
                rem_sq, rem_lin = sq - c * c, lin - c
                if rem_lin * rem_lin > (slots - 1) * rem_sq if slots > 1 else (rem_sq or rem_lin):
                    continue
                vec[i] = c
                rec(i + 1, rem_sq, rem_lin)
            vec[i] = 0

        rec(0, a * a + 1, 1 - 3 * a)
        a += 1
    found.sort(key=lambda coeffs: (price(coeffs), coeffs))
    return found


@st.composite
def cp2_blowups(draw):
    n = draw(st.integers(1, 6))
    amb = AmbientLattice.rational_blowup(n)
    head = draw(st.fractions(min_value=1, max_value=5, max_denominator=31))
    exc = [
        draw(st.fractions(min_value=Fraction(1, 97), max_value=head, max_denominator=97))
        for _ in range(n)
    ]
    w = AreaVector(amb, (head, *exc))
    # a bound equal to an area tests the closed end of 0 < area <= bound
    bound = draw(st.one_of(
        st.fractions(min_value=0, max_value=3 * head, max_denominator=37),
        st.sampled_from(exc),
    ))
    return amb, w, bound


ZERO_AREA_CLASS = (  # H - E1 - E2 has area 0 here and is no exceptional sphere
    AmbientLattice.rational_blowup(2),
    AreaVector.from_values(AmbientLattice.rational_blowup(2), [1, Fraction(1, 2), Fraction(1, 2)]),
    Fraction(1),
)


@PROPERTY
@given(cp2_blowups())
@example(ZERO_AREA_CLASS)
def test_enumeration_matches_fraction_leaf_test(case):
    amb, w, bound = case
    if textbook_square(w) <= 0:
        return  # both refuse to enumerate; covered in test_exceptional
    expected = reference_enumerate(amb, w, bound)
    es = enumerate_exceptional(amb, w, area_bound=bound)
    assert [c.coeffs for c in es.classes] == expected
    assert list(es.areas) == [area(c, w) for c in es.classes]


def test_exceptional_set_areas_on_ruled_ambient():
    rt = AmbientLattice.ruled_trivial(2, 3)
    w = AreaVector.from_values(rt, [5, 1, Fraction(1, 3), Fraction(2, 3), Fraction(1, 2)])
    es = enumerate_exceptional(rt, w, area_bound=Fraction(1, 2))
    assert [str(c) for c in es.classes] == ["E1", "F-E2", "E3", "F-E3"]
    assert list(es.areas) == [Fraction(1, 3), Fraction(1, 3), Fraction(1, 2), Fraction(1, 2)]
