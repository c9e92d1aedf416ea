from __future__ import annotations

import random

import pytest

from conftest import cp2_13_cusp, random_blowup_config, total_genus
from sympdiv.divisor import (
    DivisorConfig,
    DivisorError,
    adjoint_area,
    check_hypothesis,
    check_tree_of_spheres,
    connected_components,
    first_betti,
    smooth_all,
    total_class,
    total_genus_parts,
    validate,
)
from sympdiv.lattice import AmbientLattice, AreaVector


def two_lines():
    pp = AmbientLattice.projective_plane()
    return DivisorConfig.build(
        pp, [("A", pp.cls(H=1)), ("B", pp.cls(H=1))], [("A", "B")]
    )


def three_line_cycle():
    pp = AmbientLattice.projective_plane()
    return DivisorConfig.build(
        pp,
        [("A", pp.cls(H=1)), ("B", pp.cls(H=1)), ("C", pp.cls(H=1))],
        [("A", "B"), ("B", "C"), ("A", "C")],
    )


def test_validate_two_lines():
    assert validate(two_lines()) == []


def test_validate_missing_edge():
    pp = AmbientLattice.projective_plane()
    cfg = DivisorConfig.build(pp, [("A", pp.cls(H=1)), ("B", pp.cls(H=1))], [])
    problems = validate(cfg)
    assert any("1" in p and "edges" in p for p in problems)


def test_validate_wrong_genus():
    pp = AmbientLattice.projective_plane()
    cfg = DivisorConfig.build(pp, [("A", pp.cls(H=2), 1)], [])
    assert any("adjunction forces 0" in p for p in validate(cfg))


def test_validate_negative_pairing():
    rb = AmbientLattice.rational_blowup(1)
    cfg = DivisorConfig.build(rb, [("A", rb.cls(E1=1)), ("B", rb.cls(E1=1))], [])
    assert any("negative pairing" in p for p in validate(cfg))


def test_total_class():
    assert total_class(two_lines()) == two_lines().ambient.cls(H=2)
    cfg, _ = cp2_13_cusp()
    expect = cfg.ambient.cls(
        H=3, E1=-1, E2=-1, E3=-1, E4=-1, E5=-1, E6=-1, E7=-2, E8=-1, E12=-1
    )
    assert total_class(cfg) == expect


def test_total_genus_two_ways():
    assert total_genus_parts(two_lines()) == (0, 0)
    assert total_genus_parts(three_line_cycle()) == (1, 1)
    pp = AmbientLattice.projective_plane()
    single = DivisorConfig.build(pp, [("A", pp.cls(H=2))], [])
    assert total_genus(single) == 0


def test_smooth_all():
    surfaces = smooth_all(two_lines())
    assert len(surfaces) == 1
    assert surfaces[0].cls == two_lines().ambient.cls(H=2)
    assert surfaces[0].genus == 0

    cyc = smooth_all(three_line_cycle())
    assert len(cyc) == 1
    assert cyc[0].cls == three_line_cycle().ambient.cls(H=3)
    assert cyc[0].genus == 1

    rb = AmbientLattice.rational_blowup(2)
    disjoint = DivisorConfig.build(rb, [("A", rb.cls(E1=1)), ("B", rb.cls(E2=1))], [])
    parts = smooth_all(disjoint)
    assert len(parts) == 2 and all(s.genus == 0 for s in parts)


def test_check_hypothesis():
    pp = AmbientLattice.projective_plane()
    w = AreaVector.from_values(pp, [1])
    single_line = DivisorConfig.build(pp, [("A", pp.cls(H=1))], [])
    assert check_hypothesis(single_line, w)
    assert adjoint_area(single_line, w) == -2
    cubic = DivisorConfig.build(pp, [("A", pp.cls(H=3))], [])
    assert not check_hypothesis(cubic, w)  # log Calabi-Yau boundary
    cfg, wf = cp2_13_cusp()
    assert check_hypothesis(cfg, wf)


def test_tree_of_spheres():
    cfg, w = cp2_13_cusp()
    assert check_tree_of_spheres(cfg, w) == []
    pp = AmbientLattice.projective_plane()
    wp = AreaVector.from_values(pp, [1])
    assert any("loop" in p for p in check_tree_of_spheres(three_line_cycle(), wp))
    # chain of two lines: total check 4 - 6 = -2
    assert check_tree_of_spheres(two_lines(), wp) == []


def test_total_genus_mismatch_reported():
    # a declared genus lie breaks the graph formula and must be reported
    from sympdiv.divisor import DivisorComponent

    pp = AmbientLattice.projective_plane()
    bad = DivisorConfig(pp, (DivisorComponent("A", pp.cls(H=1), 1),), ())
    with pytest.raises(DivisorError):
        total_genus(bad)


def test_validate_idempotent_and_order_independent():
    pp = AmbientLattice.projective_plane()
    a = DivisorConfig.build(pp, [("A", pp.cls(H=1)), ("B", pp.cls(H=1))], [("A", "B")])
    b = DivisorConfig.build(pp, [("B", pp.cls(H=1)), ("A", pp.cls(H=1))], [("B", "A")])
    assert a == b
    assert validate(a) == validate(a) == validate(b) == []


def test_random_tree_and_cycle_genus_agreement():
    rng = random.Random(2024)
    for _ in range(120):
        cfg, _ = random_blowup_config(rng)
        closed, graph = total_genus_parts(cfg)
        assert closed == graph
        b1 = first_betti(cfg)
        parts = smooth_all(cfg)
        assert sum(s.genus for s in parts) == sum(c.genus for c in cfg.components) + b1
        assert len(parts) == len(connected_components(cfg))
