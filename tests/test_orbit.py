""""Exceptional" on CP2#n means the Cremona orbit of E1, decided by
`lattice.cremona_descent`.

* For n = 3..8 the orbit is finite (`conftest.weyl_orbit`), and a class
  descends to a generator exactly when it lies in it; the word the descent
  returns takes it there.
* From n = 10 on, e.e = K.e = -1 lets in classes outside the orbit.  On a
  CP2#10 input the search listed 61 of them; it now lists the 14,768 orbit
  classes alone, at the same node count, and each class it drops pairs
  negatively with one it keeps, which no two exceptional spheres do.
* The checker's contraction check refuses K - E1 on CP2#11, a class of
  degree -3 with e.e = K.e = -1, though the recorded word takes it to E1.
"""

from __future__ import annotations

import functools
from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import reflection, weyl_orbit
from sympdiv import checker, exceptional
from sympdiv.exceptional import enumerate_exceptional, normalize_to_basis
from sympdiv.lattice import (
    AmbientLattice,
    AreaVector,
    LatticeMap,
    canonical,
    cone_violation,
    cremona_descent,
    is_exceptional_class,
    pair,
)
from sympdiv.moves import recorded_contraction


@functools.cache
def _orbit(n):
    return sorted(weyl_orbit(AmbientLattice.rational_blowup(n).basis_class("E1")),
                  key=lambda e: e.coeffs)


def _word(amb, triples):
    """The reflections in H - Ei - Ej - Ek of the triples, in order."""
    return LatticeMap(amb, tuple(
        amb.from_coeffs((1,) + tuple(-(m in ijk) for m in range(1, amb.dim))) for ijk in triples
    ))


def _is_generator(x):
    return x.coeffs[0] == 0 and sorted(x.coeffs) == [0] * (len(x.coeffs) - 1) + [1]


@st.composite
def classes_near_the_orbit(draw):
    """An orbit class of CP2#n, n = 3..8, moved by a small integer vector
    half of the time."""
    n = draw(st.integers(3, 8))
    e = draw(st.sampled_from(_orbit(n)))
    if draw(st.booleans()):
        shift = draw(st.lists(st.integers(-1, 1), min_size=n + 1, max_size=n + 1))
        e = e + e.ambient.from_coeffs(shift)
    return e


_CP2_4 = AmbientLattice.rational_blowup(4)


@settings(max_examples=200, deadline=None)
@given(classes_near_the_orbit())
@example(_CP2_4.cls(H=1, E1=-1, E2=-1))  # a 16-class orbit member of degree 1
@example(_CP2_4.cls(H=-1))  # e.e = -1 but K.e = 3
@example(canonical(_CP2_4) - _CP2_4.cls(E1=1))  # of degree -3
@example(_CP2_4.cls(E1=-1))
def test_descent_agrees_with_the_weyl_orbit(e):
    triples = cremona_descent(e.coeffs)
    assert (triples is not None) == (e in set(_orbit(e.ambient.n_exc)))
    assert is_exceptional_class(e) == (triples is not None)
    if triples is not None:
        assert _is_generator(_word(e.ambient, triples).apply(e))
        t, gi = normalize_to_basis(e)
        assert t == _word(e.ambient, triples) and t.apply(e) == e.ambient.basis_class(
            e.ambient.names[gi])


# CP2#10 with its areas, at bound 11/10: the leaf test of the search took 61
# classes outside the orbit, among them 3H - E1 - ... - E4 + E5 - E6 - ... - E10
CP2_10 = ["117/100", "4/25", "19/100", "23/100", "1/4", "13/50", "7/20", "7/20", "9/25",
          "13/25", "14/25"]


def test_cp2_10_lists_the_orbit_only(monkeypatch):
    amb = AmbientLattice.rational_blowup(10)
    w = AreaVector.from_values(amb, CP2_10)
    es = enumerate_exceptional(amb, w, area_bound=Fraction(11, 10))
    assert (len(es.classes), es.nodes) == (14768, 109290)
    assert all(_is_generator(_word(amb, cremona_descent(e.coeffs)).apply(e))
               for e in es.classes)

    # the search with its leaf test on the two numbers alone, as it was
    monkeypatch.setattr(exceptional, "cremona_descent", lambda coeffs: [])
    numerical = enumerate_exceptional(amb, w, area_bound=Fraction(11, 10))
    assert (len(numerical.classes), numerical.nodes) == (14829, 109290)
    kept = set(es.classes)
    dropped = [e for e in numerical.classes if e not in kept]
    assert len(dropped) == 61 and kept <= set(numerical.classes)
    assert all(cremona_descent(e.coeffs) is None for e in dropped)
    assert all(any(pair(e, f) < 0 for f in es.classes) for e in dropped)


def test_contraction_check_refuses_k_minus_e1_on_cp2_11():
    amb = AmbientLattice.rational_blowup(11)
    e = canonical(amb) - amb.cls(E1=1)
    c = amb.from_coeffs((3, 1) + (-1,) * 10)  # 3H + E1 - E2 - ... - E11
    assert pair(c, c) == -2 and pair(c, canonical(amb)) == 0
    assert pair(e, e) == pair(e, canonical(amb)) == -1
    word = reflection(c)
    assert word.apply(e) == amb.cls(E1=1)
    # areas in the cone on which K - E1 has positive area 1/100
    w = AreaVector.from_values(amb, [1] + ["301/1000"] * 11)
    assert w.square() > 0 and cone_violation(w) is None
    check = checker._contraction_check("quasi_minimal[0]", recorded_contraction(e, word, 1), w)
    assert not check.passed
    assert check.detail == f"{e} is not exceptional"
    assert not is_exceptional_class(e) and cremona_descent(e.coeffs) is None
