"""The minimal-model matchers of `reduction.MINIMAL_AMBIENTS` against the
matchers they replaced, kept here unchanged as the reference: CP2 by five
degree tests, S2xS2 by `_match_product` over its two readings, and CP2#1 by
its own C table in (f, s) coordinates.  The matchers read coefficients only,
so the configurations here carry no edges."""

from __future__ import annotations

from itertools import combinations_with_replacement

from test_reduction import ALL_17, NEAR_MISSES
from sympdiv.divisor import DivisorConfig
from sympdiv.lattice import KIND_PP, KIND_RATIONAL, KIND_S2S2, AmbientLattice
from sympdiv.reduction import MINIMAL_AMBIENTS, MinimalModelTag

# -- the reference ---------------------------------------------------------------


def _classify_pp(config):
    degrees = sorted(c.cls.coeffs[0] for c in config.components)
    if degrees == [1, 2]:
        return MinimalModelTag("A1", {})
    if degrees == [1, 1, 1]:
        return MinimalModelTag("A2", {})
    if degrees == [1]:
        return MinimalModelTag("A1p", {})
    if degrees == [1, 1]:
        return MinimalModelTag("A2p", {})
    if degrees == [2]:
        return MinimalModelTag("A3p", {})
    return None


def _classify_product(config):
    coords = [tuple(c.cls.coeffs) for c in config.components]
    for swap in (False, True):
        pts = [(b, a) if swap else (a, b) for a, b in coords]
        tag = _match_product(sorted(pts))
        if tag is not None:
            return tag
    return None


def _match_product(pts):
    # log Calabi-Yau cycles
    if len(pts) == 2 and all(b == 1 for _, b in pts) and pts[0][0] + pts[1][0] == 2:
        return MinimalModelTag("B1", {"k": max(p[0] for p in pts)})
    if len(pts) == 3 and (1, 0) in pts:
        rest = [p for p in pts if p != (1, 0)]
        if len(rest) == 2 and all(b == 1 for _, b in rest) and rest[0][0] + rest[1][0] == 1:
            return MinimalModelTag("B2", {"k": max(p[0] for p in rest)})
    if len(pts) == 4 and pts.count((1, 0)) == 2:
        rest = [p for p in pts if p != (1, 0)]
        if len(rest) == 2 and all(b == 1 for _, b in rest) and rest[0][0] + rest[1][0] == 0:
            return MinimalModelTag("B3", {"k": max(p[0] for p in rest)})
    # strictly negative adjoint area shapes
    head = [p for p in pts if p != (0, 1)]
    if len(head) == 1 and head[0][0] == 1 and len(pts) - 1 == pts.count((0, 1)):
        return MinimalModelTag("B1p", {"k": head[0][1], "n": len(pts)})
    if len(pts) == 3 and (0, 1) in pts:
        rest = [p for p in pts if p != (0, 1)]
        if (
            len(rest) == 2
            and all(p[0] == 1 for p in rest)
            and rest[0][1] + rest[1][1] == 0
            and max(r[1] for r in rest) >= 0
        ):
            return MinimalModelTag("B2p", {"k": max(r[1] for r in rest)})
    if len(pts) == 2 and all(p[0] == 1 for p in pts) and pts[0][1] + pts[1][1] == 1:
        k = max(pts[0][1], pts[1][1]) - 1
        if k >= 0:
            return MinimalModelTag("B3p", {"k": k})
    return None


def _fs_coords(config):
    # (a, c) -> alpha*f + beta*s with f = H - E, s = H
    out = []
    for c in config.components:
        a, e = c.cls.coeffs
        out.append((-e, a + e))
    return sorted(out)


def _classify_one_blowup(config):
    pts = _fs_coords(config)
    if len(pts) == 2 and all(b == 1 for _, b in pts) and pts[0][0] + pts[1][0] == 1:
        return MinimalModelTag("C1", {"k": max(p[0] for p in pts)})
    if sorted(pts) == sorted([(0, 2), (1, 0)]):
        return MinimalModelTag("C1", {"k": None, "variant": "2s+f"})
    if len(pts) == 3 and (1, 0) in pts:
        rest = [p for p in pts if p != (1, 0)]
        if len(rest) == 2 and all(b == 1 for _, b in rest):
            ks = sorted(r[0] for r in rest)
            if ks[0] + ks[1] == 0:
                return MinimalModelTag("C2", {"k": ks[1]})
            if ks[0] + ks[1] == -1 and ks[1] >= 0:
                return MinimalModelTag("C2p", {"k": ks[1]})
    if len(pts) == 4 and pts.count((1, 0)) == 2:
        rest = [p for p in pts if p != (1, 0)]
        if len(rest) == 2 and all(b == 1 for _, b in rest) and rest[0][0] + rest[1][0] == -1:
            return MinimalModelTag("C3", {"k": max(r[0] for r in rest)})
    head = [p for p in pts if p != (1, 0)]
    if len(head) == 1 and head[0][1] == 1 and len(pts) - 1 == pts.count((1, 0)):
        return MinimalModelTag("C1p", {"k": head[0][0], "n": len(pts)})
    if len(pts) == 2 and all(b == 1 for _, b in pts) and pts[0][0] + pts[1][0] == 0:
        k = max(p[0] for p in pts)
        if k >= 0:
            return MinimalModelTag("C3p", {"k": k})
    return None


REFERENCE = {KIND_PP: _classify_pp, KIND_S2S2: _classify_product,
             KIND_RATIONAL: _classify_one_blowup}

# -- the comparison --------------------------------------------------------------

PP = AmbientLattice.projective_plane()
PS = AmbientLattice.product_of_spheres()
C1 = AmbientLattice.rational_blowup(1)


def _config(amb, coeffs):
    """Components D0, D1, ... of the given coefficients, of genus 0 whether
    or not adjunction allows it."""
    return DivisorConfig.build(
        amb, [(f"D{i}", amb.from_coeffs(v), 0) for i, v in enumerate(coeffs)], [])


def _tags(config):
    """(reference, table) tags of config, each as (case, params) or None."""
    amb = config.ambient
    tags = (REFERENCE[amb.kind](config), MINIMAL_AMBIENTS[amb.kind, amb.n_exc][0](config))
    return tuple(t and (t.case, t.params) for t in tags)


def _agree(configs):
    """The tags the table gives on configs, each checked against the reference."""
    found = []
    for cfg in configs:
        want, got = _tags(cfg)
        assert got == want, ([str(c.cls) for c in cfg.components], got, want)
        found.append(got)
    return found


def test_every_multiset_of_up_to_four_small_classes():
    """Every multiset of 1 to 4 classes with coefficients -2..2, on S2xS2 and
    on CP2#1: 23,750 on each, 81 classified, every B and C case among them."""
    vecs = [(a, b) for a in range(-2, 3) for b in range(-2, 3)]
    found = []
    for amb in (PS, C1):
        for n in range(1, 5):
            found += _agree(_config(amb, m) for m in combinations_with_replacement(vecs, n))
    assert len(found) == 47_500
    tagged = [t for t in found if t]
    assert len(tagged) == 81
    assert {t[0] for t in tagged} == {f"{r}{i}{p}" for r in "BC" for i in "123" for p in ("", "p")}


def test_one_section_and_up_to_eight_fibers():
    """A section of fiber coefficient -3..3 and its fibers, in both rulings of
    S2xS2 and on CP2#1: each is a "1p" case in one reading at least."""
    rulings = [(PS, lambda k: (k, 1), (1, 0)), (PS, lambda k: (1, k), (0, 1)),
               (C1, lambda k: (k + 1, -k), (1, -1))]
    found = []
    for amb, section, fiber in rulings:
        for k in range(-3, 4):
            found += _agree(_config(amb, [section(k)] + [fiber] * n) for n in range(9))
    assert len(found) == 189 and all(found)


def test_cp2_degree_multisets():
    configs = [_config(PP, [(d,) for d in m])
               for n in range(1, 5) for m in combinations_with_replacement(range(-2, 4), n)]
    assert sorted(t[0] for t in _agree(configs) if t) == ["A1", "A1p", "A2", "A2p", "A3p"]


# the S2xS2 configurations that match a different "p" case in each reading:
# the reading with fiber f2 decides them
TIES = {
    "f2, f1+f2": ([(0, 1), (1, 1)], ("B1p", {"k": 1, "n": 2})),
    "f1, f1+f2": ([(1, 0), (1, 1)], ("B3p", {"k": 0})),
    "f2, f2, f1": ([(0, 1), (0, 1), (1, 0)], ("B1p", {"k": 0, "n": 3})),
    "f2, f1, f1": ([(0, 1), (1, 0), (1, 0)], ("B2p", {"k": 0})),
}


def test_the_four_ties_are_read_with_fiber_f2_first():
    for name, (coeffs, tag) in TIES.items():
        assert _agree([_config(PS, coeffs)]) == [tag], name


def test_the_seventeen_cases_and_the_near_misses():
    found = _agree(make() for _, make, _ in ALL_17)
    assert [t[0] for t in found] == [case for case, _, _ in ALL_17]
    misses = [cfg for cfg in (make() for make in NEAR_MISSES) if cfg.ambient.kind in REFERENCE]
    assert len(misses) == 18 and _agree(misses) == [None] * 18
