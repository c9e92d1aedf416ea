"""The exceptional-class search, which solves degree 0 in closed form,
against `conftest.reference_search`, the search as it was while its branch
and bound walked degree 0 too.  On CP2#n, n = 1..12, at bounds from 0 to past
the cheapest generator, both emit the same (area numerator, class) leaves in
the same order: without a class x, with x an exceptional generator and with
x of mixed signs.  So `find_witness` names the witness the reference names.
"""

from __future__ import annotations

from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import reference_search
from sympdiv import exceptional
from sympdiv.exceptional import _degree_bound, find_witness
from sympdiv.lattice import AmbientLattice, AreaVector, HomologyClass


@st.composite
def search_cases(draw):
    n = draw(st.integers(1, 12))
    amb = AmbientLattice.rational_blowup(n)
    head = draw(st.fractions(min_value=1, max_value=3, max_denominator=31))
    # shares of at most 1/4 keep w.w >= head^2 / 4 up to n = 12
    share = st.fractions(min_value=Fraction(1, 97), max_value=Fraction(1, 4), max_denominator=97)
    exc = [head * draw(share) for _ in range(n)]
    bound = draw(st.one_of(
        st.fractions(min_value=0, max_value=3, max_denominator=12).map(lambda t: t * min(exc)),
        st.sampled_from(exc),
    ))
    mixed = st.lists(st.integers(-3, 3), min_size=n + 1, max_size=n + 1).filter(
        lambda v: min(v) < 0 < max(v))
    x = draw(st.one_of(
        st.none(),
        st.sampled_from(amb.names[1:]).map(amb.basis_class),
        mixed.map(lambda v: HomologyClass(amb, tuple(v))),
    ))
    return AreaVector(amb, (head, *exc)), bound, x


def _case(values, bound, x=None):
    amb = AmbientLattice.rational_blowup(len(values) - 1)
    w = AreaVector(amb, tuple(Fraction(v) for v in values))
    return w, Fraction(bound), None if x is None else HomologyClass(amb, tuple(x))


def _leaves(search, w, bound, x):
    """Every leaf the search emits, in order, with an emit that never stops it."""
    nums, den = w.integer_form
    out = []
    search(w.ambient, nums, bound.denominator, bound.numerator * den, x, out.append)
    return out


@settings(max_examples=150, deadline=None)
@given(search_cases())
# degree 0 alone: the default bound, a tie at it, and a bound below every generator
@example(_case([1, "1/5", "1/7", "1/7"], "1/7"))
@example(_case([1, "1/5", "1/7", "1/7"], "1/7", [0, 0, 1, 0]))
@example(_case([1, "1/5", "1/7", "1/7"], "1/9", [1, 1, 1, 1]))
@example(_case([1, "1/4"], "1/4"))
@example(_case([1, "1/4", "1/4"], "1/4", [-1, 1, 0]))
# past degree 0: H - E1 - E2 and the generators below the bound 1/2
@example(_case([1, "1/4", "1/4"], "1/2"))
@example(_case([1, "1/4", "1/4"], "1/2", [-1, 0, 0]))
@example(_case([1] + ["1/5"] * 5 + ["1/4", "1/4"], "1/2", [1, 2, 0, 0, 0, 0, 0, -1]))
@example(_case([1, "1/4", "1/4"], 0))
def test_the_search_emits_the_reference_leaves_in_order(case):
    w, bound, x = case
    leaves = _leaves(exceptional._search, w, bound, x)
    assert leaves == _leaves(reference_search, w, bound, x)
    if x is not None:  # find_witness stops at the first leaf other than x
        assert find_witness(x, w, bound) == next((e for _, e in leaves if e != x), None)


def test_the_examples_cover_degree_zero_alone_and_past_it():
    cases = (_case([1, "1/5", "1/7", "1/7"], "1/7"), _case([1, "1/4", "1/4"], "1/2"))
    tops = []
    for w, bound, _ in cases:
        nums, den = w.integer_form
        tops.append(_degree_bound(nums, bound.denominator, bound.numerator * den))
    assert tops == [1, 2]


def test_degree_zero_counts_one_node_per_slot_tried():
    w, bound, _ = _case([1, "1/5", "1/7", "1/7", "1/6"], "1/5")
    nums, den = w.integer_form
    args = (w.ambient, nums, bound.denominator, bound.numerator * den)
    assert exceptional._search(*args, None, lambda leaf: None) == 4
    # the first slot tried, E4, is a witness for x = E4 + E3: E4.x = -1
    x = HomologyClass(w.ambient, (0, 0, 0, 1, 1))
    assert exceptional._search(*args, x, lambda leaf: True) == 1
    assert find_witness(x, w, bound) == w.ambient.basis_class("E4")
