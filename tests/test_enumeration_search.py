"""The exceptional-class search of CP2#n against independent oracles, and its
work pinned in nodes visited.

* For n <= 8 the exceptional classes are the Weyl orbit of E1 (Manin, Cubic
  Forms), generated here by breadth-first search over the reflections in
  Ei - Ej and H - Ei - Ej - Ek.
* For n = 7..10 the search is compared with a copy of the search as it was
  before it cut on area at every node, which tests the area at the leaves only.
* Node counts are deterministic, so they are pinned; seconds never are.
"""

from __future__ import annotations

import math
import operator
import sys
from collections import deque
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import FIXTURES
from sympdiv import cli
from sympdiv.exceptional import EnumerationError, enumerate_exceptional
from sympdiv.lattice import AmbientLattice, AreaVector, LatticeMap, area

# -- the Weyl orbit oracle -------------------------------------------------------


def weyl_orbit(seed):
    amb = seed.ambient
    h = amb.basis_class("H")
    e = [amb.basis_class(name) for name in amb.names[1:]]
    roots = [a - b for a, b in combinations(e, 2)]
    roots += [h - a - b - c for a, b, c in combinations(e, 3)]
    reflections = [LatticeMap.reflection(r) for r in roots]
    orbit, queue = {seed}, deque([seed])
    while queue:
        x = queue.popleft()
        for t in reflections:
            y = t.apply(x)
            if y not in orbit:
                orbit.add(y)
                queue.append(y)
    return orbit


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


def leaf_test_search(ambient, nums, bd, cap, out):
    """The search before it cut on area at every node: it prunes on the
    square and linear budgets only and prices each class at its leaf."""
    n = ambient.n_exc
    h_num = nums[0]
    exc_nums = nums[1:]
    sq_num = sum(v * v for v in exc_nums)

    if h_num * h_num <= sq_num:
        raise EnumerationError("area vector has non-positive square")

    a = 0
    while True:
        margin = a * h_num * bd - cap
        if margin > 0 and margin * margin > (a * a + 1) * sq_num * bd * bd:
            break
        vec = [0] * n
        deg_num = a * h_num

        def rec(i, sq, lin):
            if i == n:
                if sq == 0 and lin == 0:
                    num = deg_num + sum(map(operator.mul, vec, exc_nums))
                    if 0 < num and num * bd <= cap:
                        out.append((num, (a,) + tuple(vec)))
                return
            slots = n - i
            r = math.isqrt(sq)
            for c in range(-r, r + 1):
                rem_sq = sq - c * c
                rem_lin = lin - c
                if rem_lin * rem_lin > (slots - 1) * rem_sq if slots > 1 else (rem_sq or rem_lin):
                    continue
                vec[i] = c
                rec(i + 1, rem_sq, rem_lin)
            vec[i] = 0

        rec(0, a * a + 1, 1 - 3 * a)
        a += 1


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
    expected.sort()
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
# milliseconds at eps = 1/50 but seconds at eps = 1/300.
BALANCED_NODES = {
    **{str(n): (balanced(n), pin) for n, pin in (
        (8, (495, 240)),
        (9, (1355, 171)),
        (10, (1864, 55)),
        (11, (2407, 66)),
        (12, (2883, 78)),
        (13, (2327, 13)),
        (14, (2524, 14)),
    )},
    "eps=1/100": (near_boundary(Fraction(1, 100)), (110996, 1)),
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
    "conic_cremona_cp2_6.json": ((5, 80), (5, 80)),
    "cp2_13_cusp.json": ((10, 140), (10, 140)),
    "cp2_conic.json": ((0, 0), (0, 0)),
    "cp2_cubic.json": ((0, 0), (0, 0)),
    "cp2_line.json": ((0, 0), (0, 0)),
    "near_boundary_cp2_9.json": ((8, 11225), (8, 11225)),
    "product_spheres_5.json": ((5, 26), (5, 26)),
    "product_spheres_chain.json": ((0, 0), (0, 0)),
    "ruled_comb_genus2.json": ((0, 0), (0, 0)),
    "ruled_comb_sectionless.json": ((0, 0), (0, 0)),
    "ruled_comb_twisted.json": ((0, 0), (0, 0)),
    "trident_cp2_4.json": ((4, 26), (4, 26)),
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
