from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest

from conftest import pairings, random_blowup_config
from sympdiv import moves
from sympdiv.divisor import DivisorConfig, adjoint_area, validate
from sympdiv.exceptional import NormalizeError
from sympdiv.lattice import AmbientLattice, AreaVector, LatticeMap, area, canonical, pair
from sympdiv.moves import (
    ExteriorBlowup,
    HalfToricBlowup,
    MoveError,
    NonToricBlowup,
    ToricBlowup,
    area_after_blowup,
    blowdown,
    blowup,
    blowup_contraction,
    blowup_states,
    is_toric_blowup_seq,
    recorded_contraction,
    replay_blowdown,
    replay_toric_witness,
    toric_seq_blowup,
)


def two_lines():
    pp = AmbientLattice.projective_plane()
    return DivisorConfig.build(
        pp, [("A", pp.cls(H=1)), ("B", pp.cls(H=1))], [("A", "B")]
    )


def test_toric_blowup_shape():
    up = blowup(two_lines(), ToricBlowup("A", "B"))
    classes = {c.id: str(c.cls) for c in up.components}
    assert classes == {"A": "H-E1", "B": "H-E1", "E1": "E1"}
    assert up.edges == (("A", "E1"), ("B", "E1"))


def test_toric_blowup_on_multiple_edge():
    # a double intersection: blowing up separates one of the two points
    pp = AmbientLattice.projective_plane()
    cfg = DivisorConfig.build(
        pp, [("A", pp.cls(H=1)), ("B", pp.cls(H=2))], [("A", "B"), ("A", "B")]
    )
    up = blowup(cfg, ToricBlowup("A", "B"))
    assert up.edge_multiplicity("A", "B") == 1
    assert up.edge_multiplicity("A", "E1") == 1
    assert up.edge_multiplicity("B", "E1") == 1
    step = blowdown(up, up.ambient.basis_class("E1"))
    assert step.config == cfg


def test_exterior_blowup_flag():
    up = blowup(two_lines(), ExteriorBlowup(add_component=True))
    e = up.component("E1")
    assert all(pair(e.cls, c.cls) == 0 for c in up.components if c.id != "E1")
    up2 = blowup(two_lines(), ExteriorBlowup(add_component=False))
    assert len(up2.components) == 2


def test_half_toric_then_toric_resolution_shape():
    pp = AmbientLattice.projective_plane()
    cfg = DivisorConfig.build(pp, [("D1", pp.cls(H=2))], [])
    one = blowup(cfg, HalfToricBlowup("D1"))
    assert one.component("D1").cls == one.ambient.cls(H=2, E1=-1)
    assert one.edges == (("D1", "E1"),)
    two = blowup(one, ToricBlowup("D1", "E1"))
    assert two.component("D1").cls == two.ambient.cls(H=2, E1=-1, E2=-1)
    assert two.component("E1").cls == two.ambient.cls(E1=1, E2=-1)


def test_blowup_rejects_twisted():
    tw = AmbientLattice.ruled_twisted(1)
    cfg = DivisorConfig.build(tw, [("F", tw.cls(B1=0, F=1))], [])
    with pytest.raises(MoveError):
        blowup(cfg, ExteriorBlowup())


def test_blowdown_types_roundtrip():
    cfg = two_lines()
    for move in (
        ToricBlowup("A", "B"),
        NonToricBlowup("A"),
        HalfToricBlowup("B"),
        ExteriorBlowup(add_component=True),
        ExteriorBlowup(add_component=False),
    ):
        up = blowup(cfg, move)
        e = up.ambient.basis_class("E1")
        step = blowdown(up, e)
        assert step.config == cfg
        assert replay_blowdown(step) == up
        assert step.kind == move.kind


def test_replay_without_a_sphere_keeps_the_genus_of_a_component_named_replayed():
    # a non-toric replay adds no sphere; while its core gave the sphere's id
    # "replayed" genus 0 whatever the move, it made this cubic a sphere
    rb = AmbientLattice.rational_blowup(1)
    cfg = DivisorConfig.build(
        rb, [("replayed", rb.cls(H=3)), ("L", rb.cls(H=1, E1=-1))], [("L", "replayed")] * 3
    )
    step = blowdown(cfg, rb.basis_class("E1"))
    assert step.kind == "non_toric" and cfg.component("replayed").genus == 1
    assert replay_blowdown(step) == cfg


def test_blowdown_area_transport():
    cfg = two_lines()
    w = AreaVector.from_values(cfg.ambient, [1])
    up = blowup(cfg, ToricBlowup("A", "B"))
    wu = area_after_blowup(cfg, up, w, Fraction(1, 7))
    step = blowdown(up, up.ambient.basis_class("E1"), wu)
    assert step.new_area == w


def test_blowdown_pattern_errors():
    rb = AmbientLattice.rational_blowup(2)
    # pairing spread over two components matches no pattern
    cfg = DivisorConfig.build(
        rb,
        [("A", rb.cls(H=1, E1=-1)), ("B", rb.cls(H=1, E1=-1)), ("C", rb.cls(H=1))],
        [("A", "C"), ("B", "C"), ("A", "B")],
    )
    with pytest.raises(MoveError):
        blowdown(cfg, rb.basis_class("E1"))


def test_normalized_blowdown_exterior():
    # an exceptional class that is not a generator: H - E1 - E2 in CP2#3
    rb = AmbientLattice.rational_blowup(3)
    cfg = DivisorConfig.build(rb, [("X", rb.cls(E3=1))], [])
    e = rb.cls(H=1, E1=-1, E2=-1)
    step = blowdown(cfg, e)
    assert step.kind == "exterior"
    assert step.config.ambient.n_exc == 2
    assert replay_blowdown(step) == cfg


def test_normalized_blowdown_non_toric():
    rb = AmbientLattice.rational_blowup(3)
    cfg = DivisorConfig.build(rb, [("X", rb.cls(E1=1)), ("Y", rb.cls(E3=1))], [])
    e = rb.cls(H=1, E1=-1, E2=-1)
    assert pair(e, cfg.component("X").cls) == 1
    step = blowdown(cfg, e)
    assert step.kind == "non_toric"
    assert replay_blowdown(step) == cfg


def test_product_blowup_and_bridge_roundtrip():
    ps = AmbientLattice.product_of_spheres()
    cfg = DivisorConfig.build(
        ps, [("A", ps.cls(f1=1)), ("B", ps.cls(f2=1))], [("A", "B")]
    )
    up = blowup(cfg, ToricBlowup("A", "B"), new_id="e")
    assert up.ambient.describe() == "CP2#2"
    e = up.ambient.cls(H=1, E1=-1, E2=-1)
    # f1 converts to H - E2, then the toric rewrite subtracts e
    assert up.component("A").cls == up.ambient.cls(H=1, E1=0, E2=-1) - e
    assert up.component("e").cls == e
    step = blowdown(up, e)
    assert step.config == cfg
    assert replay_blowdown(step) == up


def test_the_bridge_is_an_isometry_of_the_complement_of_its_class():
    """The bridge contracts e = H - E1 - E2 of CP2#2 onto S2xS2.  Its fwd sends
    H - E1 to f2 and H - E2 to f1, a basis of e's complement with pairings 0,
    0 and 1 on both sides, so a blowdown through it keeps the form of every
    class orthogonal to e.  drop undoes lift, and lift(K) + e is K of CP2#2."""
    ps, cp2_2 = AmbientLattice.product_of_spheres(), AmbientLattice.rational_blowup(2)
    con, _ = moves.blowup_contraction(ps)
    e = cp2_2.cls(H=1, E1=-1, E2=-1)
    assert (con.pre, con.post, con.e, con.slot) == (cp2_2, ps, e, None)
    basis = [cp2_2.cls(H=1, E1=-1), cp2_2.cls(H=1, E2=-1)]
    images = [ps.from_coeffs(con.drop(b.coeffs)) for b in basis]
    assert [pair(b, e) for b in basis] == [0, 0]
    assert images == [ps.cls(f2=1), ps.cls(f1=1)]
    assert pairings(images, images) == pairings(basis, basis) == [[0, 1], [1, 0]]
    for v in itertools.product(range(-3, 4), repeat=2):
        assert con.drop(con.lift(v)) == v
        assert pair(cp2_2.from_coeffs(con.lift(v)), e) == 0
    assert cp2_2.from_coeffs(con.lift(canonical(ps).coeffs)) + e == canonical(cp2_2)


def test_product_blowup_keeps_fiber_areas():
    """With unequal fiber areas, blowing up S2xS2 keeps the area of every
    component (f1 = H - E2 keeps w(f1)) and blows back down to w."""
    ps = AmbientLattice.product_of_spheres()
    cfg = DivisorConfig.build(
        ps, [("A", ps.cls(f1=1, f2=1)), ("B", ps.cls(f2=1))], [("A", "B")]
    )
    w = AreaVector.from_values(ps, [1, 2])
    up = blowup(cfg, ExteriorBlowup(add_component=True))
    wu = area_after_blowup(cfg, up, w, Fraction(1, 4))
    assert wu.areas == (Fraction(11, 4), Fraction(3, 4), Fraction(7, 4))
    for c in cfg.components:
        assert area(up.component(c.id).cls, wu) == area(c.cls, w)
    assert area(up.component("e").cls, wu) == Fraction(1, 4)
    step = blowdown(up, up.component("e").cls, wu)
    assert step.config == cfg and step.new_area == w


def test_fiber_class_over_a_ruled_base_is_refused():
    # F - E1 over an irrational base has no normalizing word and no bridge:
    # blowdown refuses it, and a certificate recording its contraction fails
    # the replay check, which catches MoveError
    rt = AmbientLattice.ruled_trivial(2, 1)
    cfg = DivisorConfig.build(
        rt, [("S", rt.cls(B=1, F=1)), ("X", rt.cls(F=1, E1=-1))], [("S", "X")]
    )
    e = rt.cls(F=1, E1=-1)
    with pytest.raises(NormalizeError, match="no contraction available"):
        blowdown(cfg, e)
    with pytest.raises(MoveError, match="not the class of a bridge"):
        recorded_contraction(e, LatticeMap.identity(rt), None)


@pytest.mark.parametrize("amb", [AmbientLattice.rational_blowup(2),
                                 AmbientLattice.projective_plane()], ids=["CP2#2", "CP2"])
def test_recorded_contraction_refuses_a_head_slot(amb):
    # dropping H would leave CP2#2 a rational_blowup named (E1, E2) and CP2
    # an ambient with no generators
    e = amb.basis_class(amb.names[-1])
    with pytest.raises(MoveError, match="no exceptional generator"):
        recorded_contraction(e, LatticeMap.identity(amb), 0)


def test_hypothesis_preserved_by_blowdowns():
    rng = random.Random(99)
    for _ in range(60):
        cfg, w = random_blowup_config(rng)
        if cfg.ambient.n_exc == 0:
            continue
        name = cfg.ambient.names[cfg.ambient.dim - 1]
        e = cfg.ambient.basis_class(name)
        try:
            step = blowdown(cfg, e, w)
        except MoveError:
            continue
        assert adjoint_area(step.config, step.new_area) <= adjoint_area(cfg, w)


def test_blowup_hypothesis_threshold():
    cfg = two_lines()
    w = AreaVector.from_values(cfg.ambient, [1])
    slack = -adjoint_area(cfg, w)
    up = blowup(cfg, HalfToricBlowup("A"))
    small = area_after_blowup(cfg, up, w, slack / 2)
    assert adjoint_area(up, small) < 0
    big = area_after_blowup(cfg, up, w, slack * 2)
    assert adjoint_area(up, big) >= 0


def test_blowup_contraction_starts_on_the_blowup():
    ambients = [
        AmbientLattice.projective_plane(),
        AmbientLattice.rational_blowup(2),
        AmbientLattice.ruled_trivial(1, 1),
        AmbientLattice.product_of_spheres(),
    ]
    for amb in ambients:
        con, _ = blowup_contraction(amb)
        before = DivisorConfig.build(amb, [], [])
        after = blowup(before, ExteriorBlowup(add_component=True))
        assert con.pre == after.ambient and con.post == amb
        w = AreaVector(amb, (Fraction(5),) * amb.dim)
        assert con.pull_back(area_after_blowup(before, after, w, Fraction(1, 2))) == w
    pp, cp2_3 = AmbientLattice.projective_plane(), AmbientLattice.rational_blowup(3)
    mismatched = [
        (pp, cp2_3),  # two new generators
        (pp, AmbientLattice("rational_blowup", 0, ("X", "H"))),  # the new one comes first
        (AmbientLattice.product_of_spheres(), cp2_3),  # S2xS2 is a blowdown of CP2#2 only
    ]
    for post, pre in mismatched:
        w = AreaVector(post, (Fraction(5),) * post.dim)
        with pytest.raises(MoveError):
            area_after_blowup(DivisorConfig.build(post, [], []), DivisorConfig.build(pre, [], []),
                              w, Fraction(1, 2))


def blown_up(cfg, steps):
    """The configuration blowup_states ends in, unvalidated."""
    *_, state = blowup_states(cfg, steps)
    return state.config()


def test_blowup_refuses_a_contraction_of_another_ambient():
    cfg = DivisorConfig.build(AmbientLattice.rational_blowup(2), [], [])
    other, oid = blowup_contraction(AmbientLattice.rational_blowup(3))
    with pytest.raises(MoveError, match="does not undo a blowup"):
        blown_up(cfg, [(other, ExteriorBlowup(add_component=True), oid)])
    given, gid = blowup_contraction(cfg.ambient)
    assert blown_up(cfg, [(given, ExteriorBlowup(add_component=True), gid)]) == blowup(
        cfg, ExteriorBlowup(add_component=True))


def test_blowup_states_check_each_step_against_the_steps_before():
    cfg = two_lines()
    first, _ = blowup_contraction(cfg.ambient)
    second, _ = blowup_contraction(first.pre)
    steps = [(first, ToricBlowup("A", "B"), "e"), (second, ToricBlowup("A", "e"), "f")]
    assert blown_up(cfg, steps) == blowup(blowup(cfg, ToricBlowup("A", "B"), "e"),
                                          ToricBlowup("A", "e"), "f")
    with pytest.raises(MoveError, match="does not undo a blowup"):
        blown_up(cfg, steps[::-1])
    with pytest.raises(MoveError, match="does not undo a blowup"):
        blown_up(cfg, [steps[0], (first, ToricBlowup("A", "e"), "f")])
    with pytest.raises(MoveError, match="'e' already in use"):
        blown_up(cfg, [steps[0], (second, ToricBlowup("A", "e"), "e")])
    # a move that adds no sphere uses no id, so one in use is no conflict;
    # while every step's id was checked, this raised "'B' already in use"
    assert blown_up(cfg, [(first, NonToricBlowup("A"), "B")]) == blowup(cfg, NonToricBlowup("A"))
    with pytest.raises(MoveError, match="'B' already in use"):
        blown_up(cfg, [(first, HalfToricBlowup("A"), "B")])


def test_fresh_blowups_make_what_contraction_steps_make():
    """FreshBlowups.blow_up, the path of blowup and of a resolution, which
    lifts each class once, makes what blowup_states makes on a chain of
    blowup_contraction steps, one lift each: each move type, on each kind
    that blows up (S2xS2 through the bridge, with n = 1 and n = 2), and one
    blowup or two, the second at a corner of the first's sphere.  The
    spheres' names and default ids are the contractions'."""
    s2s2, ruled = AmbientLattice.product_of_spheres(), AmbientLattice.ruled_trivial(1, 0)
    configs = [two_lines(),
               DivisorConfig.build(s2s2, [("A", s2s2.cls(f1=1)), ("B", s2s2.cls(f2=1))],
                                   [("A", "B")]),
               DivisorConfig.build(ruled, [("A", ruled.cls(B=1)), ("B", ruled.cls(F=1))],
                                   [("A", "B")])]
    firsts = [ExteriorBlowup(), ExteriorBlowup(add_component=True), ToricBlowup("A", "B"),
              NonToricBlowup("A"), HalfToricBlowup("B")]
    for cfg in configs:
        one, two = moves.FreshBlowups.of(cfg.ambient, 1), moves.FreshBlowups.of(cfg.ambient, 2)
        first, fid = blowup_contraction(cfg.ambient)
        second, sid = blowup_contraction(first.pre)
        assert two.names() == ((str(first.e), str(second.e)), (fid, sid))
        assert one.names() == ((str(first.e),), (fid,)) and two.pre == second.pre
        for move in firsts:
            assert one.blow_up(cfg, [move], [fid]) == blown_up(cfg, [(first, move, fid)])
        corner = [ToricBlowup("A", "B"), ToricBlowup("A", fid)]
        assert two.blow_up(cfg, corner, [fid, sid]) == blown_up(
            cfg, [(first, corner[0], fid), (second, corner[1], sid)])


def test_fresh_blowups_refuse_a_sphere_id_in_use():
    """A sphere taking a component's id, or an earlier sphere's, is refused,
    not written over it; a move that adds no sphere uses no id."""
    cfg = two_lines()
    fresh = moves.FreshBlowups.of(cfg.ambient, 2)
    for move in (ToricBlowup("A", "B"), HalfToricBlowup("A"), ExteriorBlowup(add_component=True)):
        with pytest.raises(MoveError, match="'B' already in use"):
            fresh.blow_up(cfg, [move, ExteriorBlowup()], ["B", "f"])
    with pytest.raises(MoveError, match="'e' already in use"):
        fresh.blow_up(cfg, [ToricBlowup("A", "B"), ToricBlowup("A", "e")], ["e", "e"])
    assert fresh.blow_up(cfg, [NonToricBlowup("A"), ExteriorBlowup()], ["B", "A"]).ids() == ["A", "B"]


def test_a_move_that_adds_no_sphere_leaves_its_default_id_free():
    # the default id of CP2#1's new sphere is "E2", here already a component's;
    # a non-toric blowup adds no sphere, so it is no conflict (it raised
    # "component id 'E2' already in use" while every step's id was checked)
    rb = AmbientLattice.rational_blowup(1)
    cfg = DivisorConfig.build(rb, [("L", rb.cls(H=1)), ("E2", rb.cls(E1=1))], [])
    up = blowup(cfg, NonToricBlowup("L"))
    assert {c.id: str(c.cls) for c in up.components} == {"L": "H-E2", "E2": "E1"}
    assert not validate(up)
    for move in (HalfToricBlowup("L"), ExteriorBlowup(add_component=True)):
        with pytest.raises(MoveError, match="'E2' already in use"):
            blowup(cfg, move)
    assert blowup(cfg, ExteriorBlowup()).ids() == ["E2", "L"]


# -- toric blowup sequences -----------------------------------------------------


def test_toric_seq_examples():
    assert toric_seq_blowup((0, 0), 1) == (-1, -1, -1)
    assert toric_seq_blowup((-1, -1, -1), 2) == (-1, -2, -1, -2)
    assert len(toric_seq_blowup((0, 0), 1)) == 3
    with pytest.raises(MoveError):
        toric_seq_blowup((0, 0), 2)


def test_is_toric_blowup_seq():
    ok, witness = is_toric_blowup_seq((0, 0))
    assert ok and witness == []
    ok, witness = is_toric_blowup_seq((-1, -1, -1))
    assert ok and replay_toric_witness(witness) == (-1, -1, -1)
    ok, _ = is_toric_blowup_seq((-2, -1, -2))
    assert not ok


def test_toric_seq_random_roundtrip():
    rng = random.Random(31)
    for _ in range(200):
        seq = (0, 0)
        w = []
        for _ in range(rng.randint(0, 9)):
            k = rng.randint(1, len(seq) - 1)
            w.append(k)
            seq = toric_seq_blowup(seq, k)
        ok, witness = is_toric_blowup_seq(seq)
        assert ok
        assert replay_toric_witness(witness) == seq
        if seq != (0, 0):
            # the provable invariant; sequences with exactly two -1 entries
            # exist from the second blowup on (see the acceptance notes)
            assert len(seq) >= 3 and -1 in seq
