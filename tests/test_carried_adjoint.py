"""The reduction carries [D] and area(K + [D]) through each blowdown.

Across the blowdown of e, K + [D] = pi*(K' + [D']) + (1 - k) e with k = e.[D]
fixed by the incidence pattern (`reduction.ADJOINT_K`), so [D'] =
drop([D] + k e) and the adjoint area falls by (1 - k) area(e).  Each stage sums
both once, at its start (`reduction._reduce`), and `reduction.carry_adjoint`
carries them.  Here every carried value is compared with the sum from
scratch, `total_class` and `adjoint_area`, at every step of every stage: over
every fixture, every input under tests/data, and a seeded sample of both
generators of tests/hunt_reduction_head.py.
"""

from __future__ import annotations

import importlib
import json
import random
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import FIXTURES
from sympdiv import reduction
from sympdiv.cusp import CertifyError, certify_affine_ruled
from sympdiv.divisor import DivisorConfig, adjoint_area, total_class
from sympdiv.documents import DocumentError, parse_config
from sympdiv.lattice import AmbientLattice, AreaVector, pair
from sympdiv.moves import (
    ExteriorBlowup,
    HalfToricBlowup,
    NonToricBlowup,
    ToricBlowup,
    area_after_blowup,
    blowdown,
    blowup,
)

DATA = Path(__file__).parent / "data"


def _hunt():
    """tests/hunt_reduction_head.py as a module, the path it prepends taken off again."""
    saved = sys.path[:]
    try:
        return importlib.import_module("hunt_reduction_head")
    finally:
        sys.path[:] = saved


def _inputs():
    """(label, config, areas) for every fixture and tests/data input that parses, then
    200 seeded draws of each hunt generator."""
    out = []
    for path in sorted(FIXTURES.glob("*.json")) + sorted(DATA.glob("*.json")):
        if ".cert." in path.name:
            continue
        try:
            out.append((path.name, *parse_config(json.loads(path.read_text()))))
        except DocumentError:
            continue
    hunt = _hunt()
    for name, draw in hunt.GENERATORS.items():
        rng = random.Random(7)
        out += [(f"{name}[{i}]", *draw(rng)) for i in range(200)]
    return out


def test_every_carried_class_and_adjoint_area_equals_the_sum_from_scratch(monkeypatch):
    reduce, carry = reduction._reduce, reduction.carry_adjoint
    steps, patterns, stage = Counter(), Counter(), [None]

    def spy_reduce(name, config, w, next_step):
        stage[0] = name

        def spy_next(cur, curw, d):
            assert d == total_class(cur).coeffs
            return next_step(cur, curw, d)

        return reduce(name, config, w, spy_next)

    def spy_carry(bd, d, adj, w):
        assert (d, adj) == (total_class(bd.pre_config).coeffs, adjoint_area(bd.pre_config, w))
        got = carry(bd, d, adj, w)
        assert got == (total_class(bd.config).coeffs, adjoint_area(bd.config, bd.new_area))
        steps[stage[0]] += 1
        patterns[bd.kind, bd.removed_component is not None] += 1
        return got

    monkeypatch.setattr(reduction, "_reduce", spy_reduce)
    monkeypatch.setattr(reduction, "carry_adjoint", spy_carry)
    certified = 0
    for label, config, w in _inputs():
        try:
            cert = certify_affine_ruled(config, w)
        except CertifyError:
            continue
        certified += 1
        assert all(s.hyp_before and s.hyp_after for tr in cert.traces for s in tr.steps), label
    assert certified > 100
    assert set(steps) == {"quasi_minimal", "partially_minimal", "second_kind", "small_b2"}
    assert sum(steps.values()) > 500
    # a connected divisor of two or more components has no isolated sphere to contract
    assert set(patterns) == set(reduction.ADJOINT_K) - {("exterior", True)}


def _two_lines():
    pp = AmbientLattice.projective_plane()
    cfg = DivisorConfig.build(pp, [("A", pp.cls(H=1)), ("B", pp.cls(H=1))], [("A", "B")])
    return cfg, AreaVector.from_values(pp, [1])


@pytest.mark.parametrize("move,key,k", [
    (ToricBlowup("A", "B"), ("toric", True), 1),
    (NonToricBlowup("A"), ("non_toric", False), 1),
    (HalfToricBlowup("A"), ("half_toric", True), 0),
    (ExteriorBlowup(), ("exterior", False), 0),
    (ExteriorBlowup(add_component=True), ("exterior", True), -1),
], ids=["toric", "non_toric", "half_toric", "exterior", "exterior_component"])
def test_the_k_table_is_e_dot_d_for_each_blowdown_pattern(move, key, k):
    cfg, w = _two_lines()
    up = blowup(cfg, move)
    wu = area_after_blowup(cfg, up, w, Fraction(1, 4))
    e = up.ambient.basis_class("E1")
    bd = blowdown(up, e, wu)
    assert (bd.kind, bd.removed_component is not None) == key
    assert reduction.ADJOINT_K[key] == k == pair(e, total_class(up))
    d, adj = reduction.carry_adjoint(bd, total_class(up).coeffs, adjoint_area(up, wu), wu)
    assert d == total_class(bd.config).coeffs == total_class(cfg).coeffs
    assert adj == adjoint_area(cfg, w) == adjoint_area(up, wu) - Fraction(1 - k, 4)
