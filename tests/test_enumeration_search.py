"""The exceptional-class search of CP2#n against independent oracles, and its
work pinned in nodes visited.

* For n <= 8 the exceptional classes are the Weyl orbit of E1 (Manin, Cubic
  Forms), generated by breadth-first search over the reflections in
  Ei - Ej and H - Ei - Ej - Ek (`conftest.weyl_orbit`).
* For n = 7..10 the search is compared with a copy of the search as it was
  before it cut on area at every node, which tests the area at the leaves
  only (`conftest.leaf_test_search`), restricted to the Cremona orbit
  (`conftest.in_orbit`; see test_orbit).
* Node counts are deterministic, so they are pinned; seconds never are.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import FIXTURES, in_orbit, leaf_test_search, weyl_orbit
from sympdiv import cli
from sympdiv.exceptional import enumerate_exceptional
from sympdiv.lattice import AmbientLattice, AreaVector, area

# -- the Weyl orbit oracle -------------------------------------------------------


EXCEPTIONAL_COUNTS = (1, 3, 6, 10, 16, 27, 56, 240)  # CP2#1 .. CP2#8


@pytest.mark.parametrize("n", range(1, 9))
def test_exceptional_classes_are_the_weyl_orbit(n):
    amb = AmbientLattice.rational_blowup(n)
    w = AreaVector(amb, (Fraction(1),) + tuple(Fraction(1, 3) - Fraction(i, 97) for i in range(1, n + 1)))
    orbit = weyl_orbit(amb.basis_class("E1"))
    if n == 2:
        # W(A1) only swaps E1 and E2; H - E1 - E2 is an orbit of its own
        assert len(orbit) == 2
        orbit |= weyl_orbit(amb.cls(H=1, E1=-1, E2=-1))
    assert len(orbit) == EXCEPTIONAL_COUNTS[n - 1]
    areas = [area(c, w) for c in orbit]
    assert min(areas) > 0
    es = enumerate_exceptional(amb, w, area_bound=max(areas))
    assert set(es.classes) == orbit and len(es.classes) == len(orbit)


# -- the leaf-test search as an oracle -----------------------------------------------


@st.composite
def larger_blowups(draw):
    n = draw(st.integers(7, 10))
    amb = AmbientLattice.rational_blowup(n)
    head = draw(st.fractions(min_value=1, max_value=3, max_denominator=31))
    share = st.fractions(min_value=Fraction(1, 97), max_value=Fraction(3, 10), max_denominator=97)
    exc = [head * draw(share) for _ in range(n)]
    bound = draw(st.one_of(
        st.fractions(min_value=0, max_value=2 * head, max_denominator=37),
        st.sampled_from(exc),
    ))
    return amb, AreaVector(amb, (head, *exc)), bound


def _case(values, bound):
    amb = AmbientLattice.rational_blowup(len(values) - 1)
    return amb, AreaVector(amb, tuple(Fraction(v) for v in values)), Fraction(bound)


@settings(max_examples=60, deadline=None)
@given(larger_blowups())
# H - E6 - E7 has area exactly the bound and meets the Cauchy-Schwarz cut with
# equality where E6 and E7 are left, so a cut on >= loses it
@example(_case([1] + ["1/5"] * 5 + ["1/4", "1/4"], "1/2"))
@example(_case([1, "1/4", "1/4"], "1/2"))
def test_search_matches_the_leaf_test(case):
    amb, w, bound = case
    nums, den = w.integer_form
    expected = []
    leaf_test_search(amb, nums, bound.denominator, bound.numerator * den, expected)
    expected = sorted(t for t in expected if in_orbit(t[1]))
    es = enumerate_exceptional(amb, w, area_bound=bound)
    assert [c.coeffs for c in es.classes] == [coeffs for _, coeffs in expected]
    assert list(es.areas) == [Fraction(num, den) for num, _ in expected]


# -- work pinned in nodes --------------------------------------------------------------


def balanced(n):
    """CP2#n with w_H = 1, w_Ei = round(0.9/sqrt(n), 6) - i/(1000 n) and the
    area bound 2 max w_Ei."""
    amb = AmbientLattice.rational_blowup(n)
    exc = [Fraction(str(round(0.9 / math.sqrt(n), 6))) - Fraction(i, 1000 * n) for i in range(1, n + 1)]
    return amb, AreaVector(amb, (Fraction(1),) + tuple(exc)), 2 * max(exc)


def near_boundary(eps):
    """CP2#9 with w_H = 1, w_Ei = (1 - eps)/3 - (i - 1)/10^5 and the default
    area bound: w.w is about 2 eps, and the degree the bound implies grows
    as eps shrinks (the search goes to degree 34 at eps = 1/100, to 97 at
    1/300)."""
    amb = AmbientLattice.rational_blowup(9)
    exc = [(1 - eps) / 3 - Fraction(i - 1, 10**5) for i in range(1, 10)]
    return amb, AreaVector(amb, (Fraction(1), *exc)), None


# case -> (nodes, classes); on CP2#8..14 the leaf-test search visited 976,
# 10915, 92348, 586304, 783628, 3169453 and 12026412 nodes.  Near the
# boundary w.w -> 0 the work grows fast: near_boundary_cp2_9.json is the
# eps = 1/50 input with one component E1 - E2, and certify on it takes
# milliseconds at eps = 1/50 but seconds at eps = 1/300.  Degree 0 counts one
# node per slot tried; while the branch and bound walked it, it counted
# n(n - 1)/2 there when no cut fired, so the CP2#n pins were higher by
# n(n - 3)/2 (495 at n = 8), and the area cut's pruning there left the
# eps = 1/100 pin only 6 higher (110996).
BALANCED_NODES = {
    **{str(n): (balanced(n), pin) for n, pin in (
        (8, (475, 240)),
        (9, (1328, 171)),
        (10, (1829, 55)),
        (11, (2363, 66)),
        (12, (2829, 78)),
        (13, (2262, 13)),
        (14, (2447, 14)),
    )},
    "eps=1/100": (near_boundary(Fraction(1, 100)), (110990, 1)),
}


@pytest.mark.parametrize("case", list(BALANCED_NODES))
def test_balanced_blowup_node_counts(case):
    (amb, w, bound), pin = BALANCED_NODES[case]
    es = enumerate_exceptional(amb, w, area_bound=bound)
    assert (es.nodes, len(es.classes)) == pin


# fixture -> (enumerations, nodes) over `sympdiv certify FILE` and over
# `sympdiv certify FILE --area-bound 3`.  Only the reduction enumerates:
# goodness runs the witness search, so the area bound moves no pin.
FIXTURE_NODES = {
    # w.w = -5/4: refused by validate, before any search
    "bad_area_square.json": ((0, 0), (0, 0)),
    "bad_edge_count.json": ((0, 0), (0, 0)),
    "bad_rational.json": ((0, 0), (0, 0)),
    # outside the symplectic cone: refused by validate, before any search
    "cone_cp2_1_backward.json": ((0, 0), (0, 0)),
    "cone_cp2_2.json": ((0, 0), (0, 0)),
    "cone_cp2_3.json": ((0, 0), (0, 0)),
    "cone_ruled_trivial.json": ((0, 0), (0, 0)),
    "cone_s2s2_backward.json": ((0, 0), (0, 0)),
    "cone_twisted.json": ((0, 0), (0, 0)),
    "conic_cremona_cp2_6.json": ((5, 74), (5, 74)),
    "cp2_13_cusp.json": ((10, 85), (10, 85)),
    "cp2_conic.json": ((0, 0), (0, 0)),
    "cp2_cubic.json": ((0, 0), (0, 0)),
    "cp2_line.json": ((0, 0), (0, 0)),
    # a disconnected divisor: refused by build_certificate, before any search
    "disconnected_cp2_5.json": ((0, 0), (0, 0)),
    "near_boundary_cp2_9.json": ((8, 11205), (8, 11205)),
    "product_spheres_5.json": ((5, 21), (5, 21)),
    "product_spheres_chain.json": ((0, 0), (0, 0)),
    "ruled_comb_genus2.json": ((0, 0), (0, 0)),
    "ruled_comb_sectionless.json": ((0, 0), (0, 0)),
    "ruled_comb_twisted.json": ((0, 0), (0, 0)),
    "trident_cp2_4.json": ((4, 24), (4, 24)),
}


@pytest.mark.parametrize("name", sorted(FIXTURE_NODES))
def test_certify_node_counts(name, monkeypatch, capsys):
    calls = []

    def counted(*args, **kwargs):
        es = enumerate_exceptional(*args, **kwargs)
        calls.append(es.nodes)
        return es

    # every binding, so that an enumeration anywhere in certify is counted
    for m in [m for key, m in sys.modules.items() if key.split(".")[0] == "sympdiv"]:
        for key, value in list(vars(m).items()):
            if value is enumerate_exceptional:
                monkeypatch.setattr(m, key, counted)
    got = []
    for extra in ([], ["--area-bound", "3"]):
        calls.clear()
        cli.main(["certify", str(FIXTURES / name), *extra])
        got.append((len(calls), sum(calls)))
    capsys.readouterr()
    assert tuple(got) == FIXTURE_NODES[name]


def test_every_fixture_has_a_node_pin():
    assert sorted(FIXTURE_NODES) == sorted(p.name for p in FIXTURES.glob("*.json"))
