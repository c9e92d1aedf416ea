"""Classes carried as coefficient tuples through the move layer, checked
against the class-level folds they replaced, kept here as the oracle: a
reflection word applied as x + pair(x, c) * c one class at a time, and a
total transform as section(x) - m * e one contraction at a time.  Also the
ambient checks at the class boundary, the inflation kernel's hand-written
pairing row against lattice.pairing_row, and the number of classes a
resolution and its combination check construct."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import apply_inverse, synthetic_chain
from sympdiv import inflation
from sympdiv.cusp import (
    admissible_check,
    cusp_class,
    positive_combination,
    resolve_pattern,
    total_transform,
)
from sympdiv.divisor import DivisorConfig
from sympdiv.exceptional import normalize_to_basis
from sympdiv.lattice import (
    AmbientLattice,
    HomologyClass,
    LatticeError,
    LatticeMap,
    coeffs_in,
    pair,
    pairing_row,
)
from sympdiv.moves import (
    MoveError,
    ToricBlowup,
    blowup_contraction,
    blowup_states,
    recorded_contraction,
)
from test_cusp import _golden_chains, _resolution_length
from test_orbit import _orbit

PROPERTY = settings(max_examples=120, deadline=None)


# -- the class-level oracle -------------------------------------------------------


def oracle_fold(word, x):
    for c in word:
        x = x + pair(x, c) * c
    return x


def section(con, y):
    """The total transform of the class y, by lift on its coefficients."""
    return HomologyClass(con.pre, con.lift(coeffs_in(y, con.post)))


def forward(con, x):
    """The image of the class x, orthogonal to e, by drop on its coefficients."""
    return HomologyClass(con.post, con.drop(coeffs_in(x, con.pre)))


def _matvec(rows, vec):
    return tuple(sum(a * b for a, b in zip(r, vec)) for r in rows)


def oracle_section(con, y):
    v = y.coeffs
    v = _matvec(con.back, v) if con.slot is None else v[: con.slot] + (0,) + v[con.slot :]
    return oracle_fold(reversed(con.word.word), con.pre.from_coeffs(v))


def oracle_forward(con, x):
    v = oracle_fold(con.word.word, x).coeffs
    if con.slot is None:
        return con.post.from_coeffs(_matvec(con.fwd, v))
    if v[con.slot] != 0:
        raise MoveError(f"{x} still meets the contracted generator")
    return con.post.from_coeffs(v[: con.slot] + v[con.slot + 1 :])


def oracle_total_transform(cons, x, weights):
    for con, m in zip(cons, weights, strict=True):
        x = oracle_section(con, x) - m * con.e
    return x


# -- contractions to test ----------------------------------------------------------


_STARTS = (
    AmbientLattice.projective_plane(),
    AmbientLattice.product_of_spheres(),  # its blowup is the bridge from CP2#2
    AmbientLattice.rational_blowup(3),
    AmbientLattice.ruled_trivial(2, 1),
)


def draw_class(draw, amb):
    return amb.from_coeffs(draw(st.lists(st.integers(-9, 9), min_size=amb.dim,
                                         max_size=amb.dim)))


@st.composite
def blowup_chains(draw):
    """1..8 blowup contractions, each undoing a blowup of the ambient the one
    before makes, with a class of the first ambient and a weight per step."""
    amb = draw(st.sampled_from(_STARTS))
    cons = []
    for _ in range(draw(st.integers(1, 8))):
        cons.append(blowup_contraction(cons[-1].pre if cons else amb)[0])
    weights = draw(st.lists(st.integers(-3, 3), min_size=len(cons), max_size=len(cons)))
    return cons, draw_class(draw, amb), weights


def cremona_class(draw, amb):
    """An exceptional class of CP2#n: a random generator moved by a random
    word in Ei - Ej and H - Ei - Ej - Ek."""
    unit = [amb.basis_class(name) for name in amb.names]
    e = unit[draw(st.sampled_from(list(amb.exc_indices)))]
    for _ in range(draw(st.integers(0, 4))):
        i, j, k = draw(st.permutations(list(amb.exc_indices)))[:3]
        c = unit[i] - unit[j] if draw(st.booleans()) else unit[0] - unit[i] - unit[j] - unit[k]
        e = oracle_fold((c,), e)
    return e


@st.composite
def blowdown_chains(draw):
    """Up to n - 4 contractions of CP2#n, n = 5..8, one after another, each
    of a class normalized by the Cremona word `cremona_descent` gives, in
    the order a total transform lifts through them (the last blowdown
    first), with a class of the last ambient and a weight per step."""
    n = draw(st.integers(5, 8))
    amb = AmbientLattice.rational_blowup(n)
    cons = []
    for _ in range(draw(st.integers(1, n - 4))):
        e = cremona_class(draw, amb)
        word, slot = normalize_to_basis(e)
        cons.append(recorded_contraction(e, word, slot))
        amb = cons[-1].post
    cons.reverse()
    weights = draw(st.lists(st.integers(-3, 3), min_size=len(cons), max_size=len(cons)))
    return cons, draw_class(draw, amb), weights


def assert_each_step_matches(cons, x, data):
    """lift, section, drop and forward against the oracle at every step."""
    for con in cons:
        y = x
        x = section(con, y)
        assert x == oracle_section(con, y)
        assert con.lift(y.coeffs) == x.coeffs
        assert forward(con, x) == y
        assert con.drop(x.coeffs) == y.coeffs
        z = draw_class(data.draw, con.pre)
        z_perp = z + pair(z, con.e) * con.e  # orthogonal to e, whose square is -1
        assert forward(con, z_perp) == oracle_forward(con, z_perp)
        if pair(z, con.e) == 0 or con.slot is None:  # the bridge's fwd takes any class
            assert forward(con, z) == oracle_forward(con, z)
        else:
            with pytest.raises(MoveError) as got:
                forward(con, z)
            with pytest.raises(MoveError) as want:
                oracle_forward(con, z)
            assert str(got.value) == str(want.value)
        assert con.word.apply(z) == oracle_fold(con.word.word, z)
        assert apply_inverse(con.word, z) == oracle_fold(reversed(con.word.word), z)


@PROPERTY
@given(blowup_chains(), st.data())
def test_blowup_lifts_equal_the_class_folds(case, data):
    cons, x, weights = case
    assert total_transform(cons, x, weights) == oracle_total_transform(cons, x, weights)
    assert_each_step_matches(cons, x, data)


@PROPERTY
@given(blowdown_chains(), st.data())
def test_cremona_word_lifts_equal_the_class_folds(case, data):
    cons, x, weights = case
    assert total_transform(cons, x, weights) == oracle_total_transform(cons, x, weights)
    assert_each_step_matches(cons, x, data)


def test_every_cremona_word_of_cp2_6_lifts_as_the_class_fold():
    """Every exceptional class of CP2#6 (the Weyl orbit of E1, 27 classes),
    contracted by its descent word: the coefficient maps equal the folds."""
    rng = random.Random(3)
    lengths = set()
    assert len(_orbit(6)) == 27
    for e in _orbit(6):
        word, slot = normalize_to_basis(e)
        con = recorded_contraction(e, word, slot)
        lengths.add(len(word.word))
        for _ in range(4):
            y = con.post.from_coeffs([rng.randint(-6, 6) for _ in con.post.names])
            x = section(con, y)
            assert x == oracle_section(con, y) and forward(con, x) == y
            assert total_transform([con], y, [2]) == oracle_total_transform([con], y, [2])
    assert max(lengths) >= 2  # words of several reflections are among them


def test_the_bridge_lifts_as_the_class_fold():
    """The S2xS2 bridge, as a blowup's contraction and as a recorded one."""
    cp2_2 = AmbientLattice.rational_blowup(2)
    built, _ = blowup_contraction(AmbientLattice.product_of_spheres())
    recorded = recorded_contraction(cp2_2.cls(H=1, E1=-1, E2=-1), LatticeMap.identity(cp2_2), None)
    for con in (built, recorded):
        assert con.slot is None
        for a in range(-3, 4):
            for b in range(-3, 4):
                y = con.post.from_coeffs((a, b))
                assert section(con, y) == oracle_section(con, y)
                assert forward(con, section(con, y)) == y
                assert total_transform([con], y, [a]) == oracle_total_transform([con], y, [a])


# -- the ambient at the class boundary -----------------------------------------------


def test_section_refuses_a_class_of_another_ambient_of_the_same_length():
    """B + 2F - E1 in (S2xSigma_1)#1 was read as H + 2E1 in CP2#2 and
    lifted to H + 2E1 - E2 in CP2#3."""
    con, _ = blowup_contraction(AmbientLattice.rational_blowup(2))
    y = AmbientLattice.ruled_trivial(1, 1).cls(B=1, F=2, E1=-1)
    with pytest.raises(LatticeError, match="ambient mismatch"):
        section(con, y)
    with pytest.raises(LatticeError, match="ambient mismatch"):
        total_transform([con], y, [1])


def test_forward_refuses_a_class_of_another_ambient_of_the_same_length():
    """H in a CP2#3 with generators E7..E9 was taken to H in CP2#2."""
    con, _ = blowup_contraction(AmbientLattice.rational_blowup(2))
    x = AmbientLattice.rational_blowup(3, ("E7", "E8", "E9")).basis_class("H")
    with pytest.raises(LatticeError, match="ambient mismatch"):
        forward(con, x)
    assert forward(con, con.pre.basis_class("H")) == con.post.basis_class("H")


def test_a_word_of_another_ambient_is_refused():
    """A reflection in a class of another ambient of the same length does
    not fold over this ambient's coefficients."""
    amb = AmbientLattice.rational_blowup(3)
    other = AmbientLattice.rational_blowup(3, ("E4", "E5", "E6"))
    t = LatticeMap(amb, (other.cls(E4=1, E5=-1),))
    with pytest.raises(LatticeError, match="ambient mismatch"):
        t.apply(amb.basis_class("E1"))
    for fold in (t.apply_coeffs, t.apply_inverse_coeffs):
        with pytest.raises(LatticeError, match="ambient mismatch"):
            fold((0, 1, 0, 0))


def test_blowup_states_refuse_a_component_of_another_ambient_at_entry():
    amb = AmbientLattice.rational_blowup(2)
    other = AmbientLattice.rational_blowup(2, ("E5", "E6"))
    cfg = DivisorConfig.build(amb, [("A", amb.cls(H=1, E1=-1)), ("B", other.cls(H=1, E6=-1))],
                              [("A", "B")])
    con, sid = blowup_contraction(amb)
    with pytest.raises(LatticeError, match="ambient mismatch"):
        next(blowup_states(cfg, [(con, ToricBlowup("A", "B"), sid)]))


# -- the inflation kernel's own pairing row -------------------------------------------


def test_the_inflation_step_row_is_the_lattice_pairing_row():
    """_step adds t * (z . x) to every area through the ruled_trivial row it
    writes out by hand.  At den = 1 and t = 1 its new numerators are
    nums + row, so the row it used is read back off the step and compared
    with lattice.pairing_row, for random classes over g = 1..3, n = 0..16."""
    rng = random.Random(7)
    for g in (1, 2, 3):
        for n in range(17):
            amb = inflation.plan_ambient(g, n)
            for _ in range(6):
                c = tuple(rng.randint(-4, 4) for _ in amb.names)
                if max(c) <= 0:
                    c = (1,) + c[1:]
                size = 1 + sum(map(abs, c))
                low = size * size
                nums = tuple(low * size * size if x > 0 else low for x in c)
                _, out, den = inflation._step((amb, nums, 1), c, Fraction(1))
                assert den == 1
                assert tuple(a - b for a, b in zip(out, nums)) == pairing_row(amb.from_coeffs(c))


# -- classes built per resolution --------------------------------------------------------


def _count_classes(monkeypatch):
    built = [0]
    post_init = HomologyClass.__post_init__

    def counted(self):
        built[0] += 1
        post_init(self)

    monkeypatch.setattr(HomologyClass, "__post_init__", counted)
    return built


def test_classes_built_do_not_grow_with_the_blowups(monkeypatch):
    """resolve_pattern builds its result's classes (one per component of the
    resolved configuration) and two more, the resolution class and the
    resolved ambient's K; positive_combination builds none.  Neither count
    grows with the number of blowups.  While each blowup built a contraction,
    each built its sphere's class too; while positive_combination compared
    two dense class sums, it built four."""
    blowups_of = {a: _resolution_length(admissible_check(a).p, admissible_check(a).q)
                  for a in _golden_chains()}
    chains = [a for a, k in blowups_of.items() if k == 1 or k >= 8]
    assert {blowups_of[a] >= 8 for a in chains} == {False, True}
    built = _count_classes(monkeypatch)
    for a in chains:
        cfg, ids = synthetic_chain(a)
        cusp = cusp_class(cfg, ids, len(a))
        built[0] = 0
        res = resolve_pattern(cfg, cusp.da, cusp.db, cusp.p, cusp.q, cusp.cls)
        assert (a, built[0] - len(res.config.components)) == (a, 2)
        built[0] = 0
        positive_combination(res, cfg)
        assert (a, built[0]) == (a, 0)
