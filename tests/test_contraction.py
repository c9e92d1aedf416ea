"""Lattice maps as reflection words and blowdowns as `Contraction` records,
checked against a test-only copy of the dense implementation they replaced:
each map stored as its matrix and inverse matrix (rows), composed by matrix
products, with areas pulled back through the inverse matrix in Fractions,
and each blowdown normalized by those matrices before its slot is dropped."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import apply_inverse, random_blowup_config, reflection, swap
from sympdiv.divisor import DivisorConfig, validate
from sympdiv.exceptional import enumerate_exceptional
from sympdiv.lattice import (
    KIND_RATIONAL,
    AmbientLattice,
    AreaVector,
    LatticeError,
    LatticeMap,
    area,
    coeffs_in,
    is_exceptional_class,
    pair,
)
from sympdiv.moves import MoveError, blowdown, replay_blowdown

PROPERTY = settings(max_examples=80, deadline=None)


# -- the dense reference ------------------------------------------------------------


def _matmul(a, b):
    return tuple(
        tuple(sum(a[i][t] * b[t][j] for t in range(len(b))) for j in range(len(b[0])))
        for i in range(len(a))
    )


def _matvec(rows, vec):
    return tuple(sum(r[j] * vec[j] for j in range(len(vec))) for r in rows)


class DenseMap:
    """A unimodular self-map stored as its matrix and its inverse."""

    def __init__(self, ambient, rows, inv):
        self.ambient, self.rows, self.inv = ambient, rows, inv

    @staticmethod
    def identity(amb):
        rows = tuple(tuple(int(i == j) for j in range(amb.dim)) for i in range(amb.dim))
        return DenseMap(amb, rows, rows)

    @staticmethod
    def reflection(c):
        amb, n = c.ambient, c.ambient.dim
        qc = [pair(c, amb.from_coeffs([int(j == k) for j in range(n)])) for k in range(n)]
        rows = tuple(
            tuple(int(i == j) + c.coeffs[i] * qc[j] for j in range(n)) for i in range(n)
        )
        return DenseMap(amb, rows, rows)

    def then(self, second):
        return DenseMap(
            self.ambient, _matmul(second.rows, self.rows), _matmul(self.inv, second.inv)
        )

    def apply(self, x):
        return x.ambient.from_coeffs(_matvec(self.rows, x.coeffs))

    def apply_inverse(self, x):
        return x.ambient.from_coeffs(_matvec(self.inv, x.coeffs))

    def transport_area(self, w):
        n = self.ambient.dim
        return AreaVector(
            self.ambient,
            tuple(sum((self.inv[i][j] * w.areas[i] for i in range(n)), Fraction(0))
                  for j in range(n)),
        )


def dense_word(amb, word):
    t = DenseMap.identity(amb)
    for c in word:
        t = t.then(DenseMap.reflection(c))
    return t


def _generator(x):
    amb = x.ambient
    for i in amb.exc_indices:
        if all(c == int(j == i) for j, c in enumerate(x.coeffs)):
            return i
    return None


def dense_normalize(e):
    """The normalization by matrices: Cremona steps in H - Ei - Ej - Ek on
    the three most negative generator coefficients."""
    amb = e.ambient
    if _generator(e) is not None:
        return DenseMap.identity(amb), _generator(e)
    unit = [amb.basis_class(name) for name in amb.names]
    t, cur = DenseMap.identity(amb), e
    while _generator(cur) is None:
        i, j, k = sorted(amb.exc_indices, key=lambda m: cur.coeffs[m])[:3]
        r = DenseMap.reflection(unit[0] - unit[i] - unit[j] - unit[k])
        cur, t = r.apply(cur), t.then(r)
    return t, _generator(cur)


# (post coordinates of an e-orthogonal class, pre coordinates of a post
# class) of the kind-changing contraction: f1 = H - E2, f2 = H - E1 in S2xS2
_S2S2_BRIDGE = (((1, 1, 0), (1, 0, 1)), ((1, 1), (0, -1), (-1, 0)))


def dense_blowdown(cfg, e, w):
    """(post classes by id, post areas) of contracting e, by the dense route."""
    amb = e.ambient
    adjusted = {c.id: c.cls + pair(c.cls, e) * e for c in cfg.components if c.cls != e}
    if amb.kind == KIND_RATIONAL and amb.n_exc == 2 and e.coeffs == (1, -1, -1):
        fwd, back = _S2S2_BRIDGE
    else:
        t, idx = dense_normalize(e)
        classes = {}
        for cid, x in adjusted.items():
            v = t.apply(x).coeffs
            assert v[idx] == 0
            classes[cid] = v[:idx] + v[idx + 1:]
        tw = t.transport_area(w).areas
        return classes, tw[:idx] + tw[idx + 1:]
    classes = {cid: _matvec(fwd, x.coeffs) for cid, x in adjusted.items()}
    areas = tuple(sum((back[i][j] * w.areas[i] for i in range(3)), Fraction(0))
                  for j in range(2))
    return classes, areas


# -- words against the dense reference ------------------------------------------------


def draw_word(draw, amb):
    """A word of length 0..6 in classes Ei - Ej and H - Ei - Ej - Ek (or
    F - Ei - Ej over a ruled base)."""
    unit = [amb.basis_class(name) for name in amb.names]
    word = []
    for _ in range(draw(st.integers(0, 6))):
        i, j, k = draw(st.permutations(list(amb.exc_indices)))[:3]
        if draw(st.booleans()):
            word.append(unit[i] - unit[j])
        elif amb.is_ruled:
            word.append(unit[1] - unit[i] - unit[j])
        else:
            word.append(unit[0] - unit[i] - unit[j] - unit[k])
    return tuple(word)


@st.composite
def two_words_and_areas(draw):
    """Two words on a rational or ruled ambient, with areas that keep every
    exceptional class positive, so every transported vector is valid."""
    ruled = draw(st.booleans())
    n = draw(st.integers(3, 7))
    amb = (AmbientLattice.ruled_trivial(draw(st.integers(1, 3)), n) if ruled
           else AmbientLattice.rational_blowup(n))
    head = draw(st.fractions(min_value=1, max_value=7, max_denominator=97))
    share = st.fractions(min_value=Fraction(1, 97), max_value=Fraction(1, 4), max_denominator=97)
    vals = [draw(st.fractions(-7, 7, max_denominator=97)), head] if ruled else [head]
    vals += [head * draw(share) for _ in amb.exc_indices]
    return amb, draw_word(draw, amb), draw_word(draw, amb), AreaVector(amb, tuple(vals))


@PROPERTY
@given(two_words_and_areas(), st.data())
def test_word_map_matches_dense(case, data):
    amb, word, word2, w = case
    t, dense = LatticeMap(amb, word), dense_word(amb, word)
    x = amb.from_coeffs(data.draw(st.lists(st.integers(-9, 9), min_size=amb.dim,
                                           max_size=amb.dim)))
    assert t.apply(x) == dense.apply(x)
    assert apply_inverse(t, x) == dense.apply_inverse(x)
    assert apply_inverse(t, t.apply(x)) == x
    assert t.transport_area(w) == dense.transport_area(w)
    both = LatticeMap(amb, word + word2)  # t, then word2
    dense_both = dense.then(dense_word(amb, word2))
    assert both.apply(x) == dense_both.apply(x)
    assert apply_inverse(both, x) == dense_both.apply_inverse(x)
    assert both.transport_area(w) == dense_both.transport_area(w)


def test_inverse_runs_the_word_backwards():
    # E1 - E2 and E2 - E3 do not commute: forward order would be wrong
    amb = AmbientLattice.rational_blowup(3)
    t = LatticeMap(amb, swap(amb, 1, 2).word + swap(amb, 2, 3).word)
    e1 = amb.cls(E1=1)
    assert t.apply(e1) == amb.cls(E3=1)
    assert apply_inverse(t, amb.cls(E3=1)) == e1
    assert apply_inverse(t, e1) == amb.cls(E2=1)
    dense = dense_word(amb, t.word)
    for x in (e1, amb.cls(E2=1), amb.cls(H=2, E1=-1, E3=-1)):
        assert apply_inverse(t, x) == dense.apply_inverse(x)


def test_identity_swap_and_reflection_checks():
    amb = AmbientLattice.rational_blowup(3)
    x = amb.cls(H=3, E1=-2, E3=1)
    assert LatticeMap.identity(amb).word == ()
    assert LatticeMap.identity(amb).apply(x) == x
    assert swap(amb, 1, 3).apply(x) == amb.cls(H=3, E1=1, E3=-2)
    with pytest.raises(LatticeError):
        reflection(amb.cls(H=1, E1=-1))


# -- blowdowns against the dense reference ------------------------------------------


def check_every_blowdown(cfg, w, area_bound):
    """Contract every exceptional class of area <= area_bound that matches a
    pattern; the replay must give cfg back and the post classes and areas
    must be those of the dense route.  Returns the contractions made."""
    es = enumerate_exceptional(cfg.ambient, w, area_bound=area_bound)
    made = []
    for e in es.classes:
        try:
            step = blowdown(cfg, e, w)
        except (MoveError, ValueError):
            continue
        assert replay_blowdown(step) == cfg
        post, areas = dense_blowdown(cfg, e, w)
        assert {c.id: c.cls.coeffs for c in step.config.components} == post
        assert step.new_area.areas == areas
        for c in step.config.components:
            con = step.contraction
            assert con.drop(con.lift(coeffs_in(c.cls, con.post))) == c.cls.coeffs
        # the areas on the blown-up side are the only extension of the post
        # areas giving e its own area
        assert step.contraction.extend(step.new_area, area(e, w)) == w
        made.append(step.contraction)
    return made


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_every_blowdown_replays_to_its_input(seed):
    cfg, w = random_blowup_config(random.Random(seed), max_moves=7)
    check_every_blowdown(cfg, w, 3 * max(w.areas))


def _config(amb, comps, edges, areas):
    return DivisorConfig.build(amb, comps, edges), AreaVector(amb, tuple(areas))


def test_blowdowns_through_words_and_bridges():
    rb6 = AmbientLattice.rational_blowup(6)
    conic = rb6.cls(H=2, E1=-1, E2=-1, E3=-1, E4=-1, E5=-1)
    assert is_exceptional_class(conic)
    rb2 = AmbientLattice.rational_blowup(2)
    rt3 = AmbientLattice.ruled_trivial(1, 3)
    cases = [
        # the conic through five points, contracted half-toric by a word of
        # length 2, and with it every other exceptional class of CP2#6
        _config(rb6, [("C", conic), ("X", rb6.cls(E5=1))], [("C", "X")],
                [1] + [Fraction(19, 50)] * 5 + [Fraction(1, 5)]),
        # CP2#2 -> S2xS2 after a toric blowup of two fibres
        _config(rb2, [("A", rb2.cls(E1=1)), ("B", rb2.cls(E2=1)),
                      ("e", rb2.cls(H=1, E1=-1, E2=-1))],
                [("A", "e"), ("B", "e")], [2, Fraction(3, 4), Fraction(1, 2)]),
        # over a ruled base only the generators contract, by dropping a slot
        _config(rt3, [("S", rt3.cls(B=1)), ("X", rt3.cls(F=1, E2=-1))], [("S", "X")],
                [5, 1, Fraction(1, 3), Fraction(1, 5), Fraction(1, 7)]),
    ]
    assert not any(validate(cfg, w) for cfg, w in cases)
    made = [c for cfg, w in cases for c in check_every_blowdown(cfg, w, 3 * max(w.areas))]
    lengths = {len(c.word.word) for c in made}
    assert {0, 1, 2} <= lengths
    posts = {c.post.kind for c in made if c.slot is None}
    assert posts == {"product_of_spheres"}
    assert "ruled_trivial" in {c.post.kind for c in made}
