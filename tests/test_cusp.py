from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import replace
from fractions import Fraction

import pytest

from conftest import (
    FIXTURES,
    cp2_13_cusp,
    first_kind_cp2_8,
    rebind,
    ruled_comb,
    sample_admissible,
    second_kind_cp2_4,
    synthetic_chain,
)
from sympdiv import cli, divisor, moves
from sympdiv.checks import all_passed
from sympdiv.cusp import (
    CertifyError,
    CuspError,
    _a3_resolution,
    admissible_check,
    associated_sequence,
    certify_affine_ruled,
    cusp_class,
    positive_combination,
    resolve_pattern,
    total_transform,
    weight_sequence,
)
from sympdiv.divisor import DivisorConfig, DivisorError
from sympdiv.documents import certificate_to_doc, parse_config
from sympdiv.lattice import (
    AmbientLattice,
    AreaVector,
    LatticeError,
    area,
    canonical,
    combination,
    pair,
)


def _check_round_trip(cert, tmp_path) -> int:
    """Exit code of `sympdiv check` on the certificate's document."""
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(certificate_to_doc(cert)), encoding="utf-8")
    return cli.main(["check", str(path)])


def test_weight_sequence_examples():
    assert weight_sequence(5, 2).weights == (2, 2, 1, 1)
    assert weight_sequence(1, 1).weights == (1,)
    assert weight_sequence(8, 3).weights == (3, 3, 2, 1, 1)
    assert weight_sequence(2, 5).weights == (2, 2, 1, 1)


def test_weight_sequence_rejects():
    with pytest.raises(CuspError):
        weight_sequence(4, 2)
    with pytest.raises(CuspError):
        weight_sequence(0, 1)


def test_weight_identities_small():
    ws = weight_sequence(8, 3)
    assert sum(m * m for m in ws.weights) == 24
    assert sum(ws.weights) == 10


def test_associated_sequence():
    assert associated_sequence((2, 2, -2)) == (1, 2, 3)
    assert associated_sequence((5,)) == (1,)
    assert associated_sequence((2, 2, 2, 2)) == (1, 2, 3, 4)


def test_admissible_check():
    adm = admissible_check((2, 2, -2))
    assert adm.accepted and (adm.p, adm.q) == (8, 3)
    rej = admissible_check((0, 1, 1))
    assert not rej.accepted and "c_3" in rej.reason
    good = admissible_check((1, 0))
    assert good.accepted and (good.p, good.q) == (1, 1)
    assert math.gcd(good.p, good.q) == 1


def test_admissible_gcd_always_one():
    rng = random.Random(17)
    for _ in range(300):
        k = rng.randint(1, 8)
        a = tuple(rng.randint(-6, 6) for _ in range(k))
        adm = admissible_check(a)
        if adm.accepted:
            assert math.gcd(adm.p, adm.q) == 1


def test_cusp_class_cp2_13_values():
    from sympdiv.reduction import (
        good_chain_candidates,
        partially_minimal_reduce,
        quasi_minimal_reduce,
    )

    cfg, w = cp2_13_cusp()
    t1, w1, tr1 = quasi_minimal_reduce(cfg, w)
    t2, _, _ = partially_minimal_reduce(t1, w1, tr1.classification)
    gc = good_chain_candidates(t2)[0]
    cusp = cusp_class(t2, gc.ids, gc.k)
    assert (cusp.p, cusp.q) == (8, 3)
    amb = t2.ambient
    assert cusp.cls == amb.cls(H=6, E1=-3, E2=-1, E3=-1, E7=-1)
    assert pair(cusp.cls, cusp.cls) == 24
    assert pair(cusp.cls, canonical(amb)) == -12
    assert cusp.spelled == ((8, 3), (3, 8))


def test_resolution_7_3_shape():
    cfg, ids = synthetic_chain((3, -2))
    adm = admissible_check((3, -2))
    assert adm.accepted and (adm.p, adm.q) == (7, 3)
    cusp = cusp_class(cfg, ids, 2)
    res = resolve_pattern(cfg, cusp.da, cusp.db, cusp.p, cusp.q, cusp.cls)
    assert res.multiplicities == weight_sequence(7, 3).weights == (3, 3, 1, 1, 1)
    assert all_passed(res.checks)


def test_resolution_proper_transform_multiplicities():
    # (5,2) cusp: the contact-5 component meets the first three blowups
    cfg, ids = synthetic_chain((2, 2, -1))
    adm = admissible_check((2, 2, -1))
    assert adm.accepted and (adm.p, adm.q) == (5, 3)
    cusp = cusp_class(cfg, ids, 3)
    res = resolve_pattern(cfg, cusp.da, cusp.db, cusp.p, cusp.q, cusp.cls)
    assert res.multiplicities == (3, 2, 1, 1)
    assert sum(m * m for m in res.multiplicities) == cusp.p * cusp.q
    assert all_passed(res.checks)


def test_degenerate_resolution():
    cfg, w = ruled_comb()
    amb = cfg.ambient
    f = amb.basis_class("F")
    res = resolve_pattern(cfg, "S", "T1", 1, 0, f)
    assert res.multiplicities == ()
    assert res.a_tilde == f
    assert all_passed(res.checks)


def test_positive_combination_examples():
    # (2,1): all-zero map
    cfg, ids = synthetic_chain((-2,))
    adm = admissible_check((-2,))
    assert (adm.p, adm.q) == (2, 1)
    cusp = cusp_class(cfg, ids, 1)
    res = resolve_pattern(cfg, cusp.da, cusp.db, 2, 1, cusp.cls)
    pc, check = positive_combination(res, cfg)
    assert pc == {} or all(v == 0 for v in pc.values())
    assert check.passed

    # (1,1): one blowup, zero class
    cfg1, ids1 = synthetic_chain((-1,))
    adm1 = admissible_check((-1,))
    assert (adm1.p, adm1.q) == (1, 1)
    cusp1 = cusp_class(cfg1, ids1, 1)
    res1 = resolve_pattern(cfg1, cusp1.da, cusp1.db, 1, 1, cusp1.cls)
    pc1, check1 = positive_combination(res1, cfg1)
    assert check1.passed


def test_synthetic_chain_properties():
    rng = random.Random(123)
    for _ in range(60):
        a = sample_admissible(rng)
        cfg, ids = synthetic_chain(a)
        adm = admissible_check(a)
        cusp = cusp_class(cfg, ids, len(a))
        assert all_passed(cusp.checks)
        assert pair(cusp.cls, cusp.cls) == adm.p * adm.q
        res = resolve_pattern(cfg, cusp.da, cusp.db, cusp.p, cusp.q, cusp.cls)
        assert all_passed(res.checks)
        assert pair(res.a_tilde, res.a_tilde) == 0
        assert pair(res.a_tilde, canonical(res.config.ambient)) == -2
        pc, check = positive_combination(res, cfg)
        assert check.passed and all(v >= 0 for v in pc.values())


def test_certify_cp2_13_summary(tmp_path):
    cfg, w = cp2_13_cusp()
    cert = certify_affine_ruled(cfg, w)
    assert cert.route_tag == "admissible-subchain"
    assert (cert.cusp.p, cert.cusp.q) == (8, 3)
    assert cert.weights == (3, 3, 2, 1, 1)
    assert all_passed(cert.all_checks())
    assert _check_round_trip(cert, tmp_path) == 0
    assert cert.original.cls == cfg.ambient.cls(H=6, E1=-3, E2=-1, E3=-1, E7=-1)


def test_cp2_13_goodness_against_wide_enumeration():
    # the default bound makes condition (3) nearly vacuous; re-check the
    # resolution class against every exceptional class of area <= 2
    from sympdiv.exceptional import d_good, enumerate_exceptional

    cfg, w = cp2_13_cusp()
    cert = certify_affine_ruled(cfg, w)
    res = cert.resolution
    es = enumerate_exceptional(
        res.config.ambient, cert.resolution_area, area_bound=Fraction(2)
    )
    assert len(es.classes) > 30
    checks = d_good(res.a_tilde, res.config, cert.resolution_area, es)
    assert all_passed(checks)


def test_certify_first_kind_cp2_8(tmp_path):
    cfg, w = first_kind_cp2_8()
    cert = certify_affine_ruled(cfg, w)
    assert all_passed(cert.all_checks())
    assert _check_round_trip(cert, tmp_path) == 0


def test_certify_second_kind(tmp_path):
    cfg, w = second_kind_cp2_4()
    cert = certify_affine_ruled(cfg, w)
    assert cert.route_tag.startswith("minimal-model:")
    assert all_passed(cert.all_checks())
    assert _check_round_trip(cert, tmp_path) == 0


def test_certify_ruled_comb(tmp_path):
    cfg, w = ruled_comb()
    cert = certify_affine_ruled(cfg, w)
    assert cert.route == "ruled"
    assert cert.cusp is not None and (cert.cusp.p, cert.cusp.q) == (1, 0)
    assert all_passed(cert.all_checks())
    assert _check_round_trip(cert, tmp_path) == 0


def test_certify_a3_special():
    pp = AmbientLattice.projective_plane()
    cfg = DivisorConfig.build(pp, [("D1", pp.cls(H=2))], [])
    w = AreaVector.from_values(pp, [1])
    cert = certify_affine_ruled(cfg, w)
    assert cert.route_tag == "a3-special"
    assert (cert.cusp.p, cert.cusp.q) == (4, 1)
    assert cert.weights == (1, 1, 1, 1)
    assert all_passed(cert.all_checks())


def test_certify_lone_fiber_cleanup(tmp_path):
    # a lone fiber sphere in the one-point blowup is outside the model
    # tables; certification contracts once more and lands on a single line
    rb = AmbientLattice.rational_blowup(2)
    cfg = DivisorConfig.build(
        rb, [("A", rb.cls(H=1, E1=-1, E2=-1)), ("B", rb.cls(E2=1))], [("A", "B")]
    )
    w = AreaVector.from_values(rb, [1, Fraction(1, 4), Fraction(1, 16)])
    cert = certify_affine_ruled(cfg, w)
    assert any(tr.stage == "small_b2" for tr in cert.traces)
    assert cert.terminal_config.ambient.describe() == "CP2"
    assert all_passed(cert.all_checks())
    assert _check_round_trip(cert, tmp_path) == 0


def test_certify_rejects_log_cy():
    pp = AmbientLattice.projective_plane()
    cfg = DivisorConfig.build(pp, [("A", pp.cls(H=3))], [])
    w = AreaVector.from_values(pp, [1])
    with pytest.raises(CertifyError) as err:
        certify_affine_ruled(cfg, w)
    assert err.value.stage == "hypothesis"


def test_certify_rejects_disconnected_rational():
    rb = AmbientLattice.rational_blowup(2)
    cfg = DivisorConfig.build(rb, [("A", rb.cls(E1=1)), ("B", rb.cls(E2=1))], [])
    w = AreaVector.from_values(rb, [1, Fraction(1, 3), Fraction(1, 4)])
    with pytest.raises(CertifyError):
        certify_affine_ruled(cfg, w)


def test_certify_transport_through_toric_cusp_edge():
    """A toric blowup at the cusp corner shortens the lifted cusp data."""
    from sympdiv.moves import ToricBlowup, area_after_blowup, blowup

    cfg, w = first_kind_cp2_8()
    cert0 = certify_affine_ruled(cfg, w)
    da, db = cert0.original.da, cert0.original.db
    if db is not None and cfg.edge_multiplicity(da, db) > 0:
        up = blowup(cfg, ToricBlowup(da, db))
        wu = area_after_blowup(cfg, up, w, min(w.areas) / 9)
        cert1 = certify_affine_ruled(up, wu)
        assert all_passed(cert1.all_checks())


def _resolution_length(p, q):
    """Blowups resolving a (p, q)-cusp: the subtractive Euclid steps to (1, 1)."""
    steps = 1
    while p != q:
        p, q = abs(p - q), min(p, q)
        steps += 1
    return steps


def _golden_chains():
    """Up to three distinct admissible sequences for each resolution length
    1..15, drawn from a fixed seed."""
    rng = random.Random(5)
    chains = {n: [] for n in range(1, 16)}
    for _ in range(2000):
        a = sample_admissible(rng)
        adm = admissible_check(a)
        found = chains.get(_resolution_length(adm.p, adm.q))
        if found is not None and len(found) < 3 and a not in found:
            found.append(a)
    assert all(chains.values())
    return [a for n in sorted(chains) for a in chains[n]]


# sha256 over resolve_pattern results on _golden_chains(), pinned so that any
# change of multiplicities, proper transforms, names or classes shows
GOLDEN_RESOLUTION_SHA256 = "86a8bce545e751fe4daee205fdc4811e5480542fb0753806b6bd843a6cea6100"


def test_resolve_pattern_golden_digest():
    records = []
    for a in _golden_chains():
        cfg, ids = synthetic_chain(a)
        cusp = cusp_class(cfg, ids, len(a))
        res = resolve_pattern(cfg, cusp.da, cusp.db, cusp.p, cusp.q, cusp.cls)
        amb = res.config.ambient
        records.append({
            "a": list(a),
            "pq": [res.p, res.q],
            "multiplicities": list(res.multiplicities),
            "exc": [list(res.exc_names), list(res.exc_ids)],
            "a_tilde": [list(res.a_tilde.ambient.names), list(res.a_tilde.coeffs)],
            "transverse": res.transverse_id,
            "ambient": [amb.kind, amb.g, list(amb.names)],
            "components": [[c.id, list(c.cls.ambient.names), list(c.cls.coeffs), c.genus]
                           for c in res.config.components],
            "edges": [list(e) for e in res.config.edges],
            "checks": [[c.name, c.passed] for c in res.checks],
        })
    blob = json.dumps(records, sort_keys=True).encode("utf-8")
    assert hashlib.sha256(blob).hexdigest() == GOLDEN_RESOLUTION_SHA256


def _product_chain(k):
    """The chain A = f1 + k f2, B = f2 in S2xS2: one edge, a (2k, 1) cusp."""
    amb = AmbientLattice.product_of_spheres()
    cfg = DivisorConfig.build(
        amb, [("A", amb.cls(f1=1, f2=k)), ("B", amb.cls(f2=1))], [("A", "B")]
    )
    return cfg, ["A", "B"]


def test_resolution_sphere_id_taken_gets_suffix():
    """A component already named like the new sphere's default id (e out of
    S2xS2, the fresh generator's name elsewhere) makes the sphere's id take
    an x suffix; the recorded exceptional name stays the class."""
    amb = AmbientLattice.product_of_spheres()
    cfg = DivisorConfig.build(
        amb, [("e", amb.cls(f1=1, f2=2)), ("B", amb.cls(f2=1))], [("B", "e")]
    )
    cusp = cusp_class(cfg, ["e", "B"], 1)
    res = resolve_pattern(cfg, cusp.da, cusp.db, cusp.p, cusp.q, cusp.cls)
    assert res.exc_ids[0] == "ex" and res.exc_names[0] == "H-E1-E2"
    rb = AmbientLattice.rational_blowup(1)
    cfg = DivisorConfig.build(
        rb, [("E2", rb.cls(H=1)), ("B", rb.cls(H=1, E1=-1))], [("B", "E2")]
    )
    cusp = cusp_class(cfg, ["E2", "B"], 1)
    res = resolve_pattern(cfg, cusp.da, cusp.db, cusp.p, cusp.q, cusp.cls)
    assert res.exc_ids[0] == "E2x" and res.exc_names[0] == "E2"


# sha256 over resolve_pattern and positive_combination results on the S2xS2
# chains of _product_chain(k), k = 1..6, whose first blowup changes the basis
GOLDEN_PRODUCT_RESOLUTION_SHA256 = "893f52e173f361046269b5890cf82ea492bf3dd8c672de4e0ef7892479066503"


def test_resolve_pattern_product_of_spheres_golden_digest():
    records = []
    for k in range(1, 7):
        cfg, ids = _product_chain(k)
        cusp = cusp_class(cfg, ids, 1)
        assert (cusp.p, cusp.q) == (2 * k, 1)
        res = resolve_pattern(cfg, cusp.da, cusp.db, cusp.p, cusp.q, cusp.cls)
        comb, check = positive_combination(res, cfg)
        assert all_passed(res.checks) and check.passed
        amb = res.config.ambient
        records.append({
            "k": k,
            "pq": [res.p, res.q],
            "multiplicities": list(res.multiplicities),
            "exc": [list(res.exc_names), list(res.exc_ids)],
            "a_tilde": [list(res.a_tilde.ambient.names), list(res.a_tilde.coeffs)],
            "transverse": res.transverse_id,
            "ambient": [amb.kind, amb.g, list(amb.names)],
            "components": [[c.id, list(c.cls.ambient.names), list(c.cls.coeffs), c.genus]
                           for c in res.config.components],
            "edges": [list(e) for e in res.config.edges],
            "checks": [[c.name, c.passed, c.detail] for c in res.checks],
            "combination": [sorted(comb.items()), check.name, check.passed, check.detail],
        })
    blob = json.dumps(records, sort_keys=True).encode("utf-8")
    assert hashlib.sha256(blob).hexdigest() == GOLDEN_PRODUCT_RESOLUTION_SHA256


def _resolution_inputs():
    """(configuration, its cusp class, its resolution) for every chain of
    _golden_chains(), 60 sample_admissible chains, the S2xS2 chains of
    _product_chain(k), k = 1..6, and last the a3 pattern on the conic in the
    plane."""
    rng = random.Random(11)
    out = []
    for a in _golden_chains() + [sample_admissible(rng) for _ in range(60)]:
        cfg, ids = synthetic_chain(a)
        out.append((cfg, cusp_class(cfg, ids, len(a))))
    out += [(cfg, cusp_class(cfg, ids, 1)) for cfg, ids in map(_product_chain, range(1, 7))]
    out = [(cfg, cusp.cls, resolve_pattern(cfg, cusp.da, cusp.db, cusp.p, cusp.q, cusp.cls))
           for cfg, cusp in out]
    conic, _ = parse_config(json.loads((FIXTURES / "cp2_conic.json").read_text()))
    return out + [(conic, conic.components[0].cls, _a3_resolution(conic))]


def _one_blowup_at_a_time(config, res):
    """The reference configuration: moves.blowup on each recorded move and
    sphere id, which builds its own contraction and validates every
    configuration it makes."""
    for move, cid in zip(res.moves, res.exc_ids, strict=True):
        config = moves.blowup(config, move, new_id=cid)
    return config


def _contraction_chain(base, n):
    """n contractions built by blowup_contraction, the first out of base and
    each later one out of the ambient the one before it lands in."""
    chain = []
    for _ in range(n):
        chain.append(moves.blowup_contraction(chain[-1].pre if chain else base)[0])
    return chain


def test_resolution_equals_one_validated_blowup_at_a_time():
    """A resolution, which lifts each class once into the resolved ambient,
    makes the configuration one validated moves.blowup per recorded move
    makes.  Its class, and the target its combination must reproduce, are
    total transforms through a chain of one blowup_contraction per blowup.
    It refuses an input with one edge too many or one genus wrong, as the
    first of those blowups does."""
    inputs = _resolution_inputs()
    assert len(inputs) > 100
    for cfg, a, res in inputs:
        chain = _contraction_chain(cfg.ambient, len(res.moves))
        assert chain[-1].pre == res.config.ambient
        assert res.config == _one_blowup_at_a_time(cfg, res)
        assert res.a_tilde == total_transform(chain, a, res.multiplicities)
        if res.db is not None:  # the a3 pattern has no combination to check
            _, check = positive_combination(res, cfg)
            lifted = total_transform(chain, res.q * cfg.component(res.da).cls,
                                     res.multiplicities)
            target = lifted - res.q * res.config.component(res.da).cls
            assert check.passed and combination_class(res.config, res.pc) == target
        first = cfg.components[0]
        tampered = [replace(cfg, components=(replace(first, genus=first.genus + 1),
                                             *cfg.components[1:]))]
        if cfg.edges:
            tampered.append(replace(cfg, edges=tuple(sorted(cfg.edges + cfg.edges[:1]))))
        for bad in tampered:
            with pytest.raises(DivisorError):
                res.fresh.blow_up(bad, res.moves, res.exc_ids)
            with pytest.raises(DivisorError):
                _one_blowup_at_a_time(bad, res)


def combination_class(config, coeffs):
    """The dense reference sum: the class sum(coeffs[id] [D_id]) over
    components of config, one class summed on whole coefficient tuples."""
    return combination(config.ambient,
                       ((c, config.component(cid).cls) for cid, c in coeffs.items()))


def _dense_reproduces(res, cfg):
    """The reference verdict on res.pc: the target q([D_a] - [D~_a]) -
    sum(m_i E_i) and the combination built as classes and compared."""
    lifted = res.fresh.total_transform(res.q * cfg.component(res.da).cls, res.multiplicities)
    target = lifted - res.q * res.config.component(res.da).cls
    return combination_class(res.config, res.pc) == target


def _verdict(res, cfg):
    """positive_combination's verdict: its check, or False when it refuses
    the combination as not reproducing its target."""
    try:
        return positive_combination(res, cfg)[1].passed
    except CuspError as exc:
        assert str(exc) == "combination does not reproduce its target class"
        return False


def _forged(res):
    """res with one pc coefficient +1 and -1, a coefficient moved to another
    sphere, and one multiplicity +1."""
    out = []
    for cid, c in res.pc.items():
        out += [replace(res, pc={**res.pc, cid: c + d}) for d in (1, -1)]
        other = next(x for x in res.exc_ids if x != cid)
        moved = {**res.pc, cid: 0}
        moved[other] = moved.get(other, 0) + c
        out.append(replace(res, pc=moved))
    for i in range(len(res.multiplicities)):
        mult = (*res.multiplicities[:i], res.multiplicities[i] + 1, *res.multiplicities[i + 1:])
        out.append(replace(res, multiplicities=mult))
    return out


def test_positive_combination_matches_dense_class_sums():
    """The residual on one coefficient list gives the verdict the dense
    class sums give, on the real combination and on forged ones, on every
    resolution input (the a3 pattern's {d1: 1} reproduces no target, in
    both); an id that is no component is a DivisorError in both, a negative
    coefficient is refused and a configuration of another ambient is a
    LatticeError."""
    forged = 0
    for cfg, _, res in _resolution_inputs():
        assert _verdict(res, cfg) == _dense_reproduces(res, cfg) == (res.db is not None)
        for bad in _forged(res):
            assert _verdict(bad, cfg) == _dense_reproduces(bad, cfg)
            forged += 1
        stray = replace(res, pc={**res.pc, "no_such_id": 1})
        with pytest.raises(DivisorError):
            positive_combination(stray, cfg)
        with pytest.raises(DivisorError):
            _dense_reproduces(stray, cfg)
        with pytest.raises(LatticeError):
            positive_combination(res, res.config)
        if res.pc:
            with pytest.raises(CuspError, match="negative combination coefficient"):
                positive_combination(replace(res, pc={**res.pc, res.exc_ids[0]: -1}), cfg)
    assert forged > 500


@pytest.mark.parametrize(
    "fixture", ["product_spheres_chain.json", "cp2_13_cusp.json", "cp2_conic.json"]
)
def test_resolution_areas_extend_terminal_areas(fixture):
    """The resolution areas are the terminal areas extended one blowup at a
    time, through a chain of one blowup_contraction per blowup, the i-th
    sphere getting base / ((p + q) 4^i); so each blowup keeps the area of
    every class it does not touch, also out of S2xS2 with unequal fiber
    areas."""
    cfg, w = parse_config(json.loads((FIXTURES / fixture).read_text()))
    cert = certify_affine_ruled(cfg, w)
    res, wt = cert.resolution, cert.terminal_area
    chain = _contraction_chain(wt.ambient, len(res.moves))
    base = min([-area(canonical(wt.ambient), wt), area(cert.cusp.cls, wt), *wt.areas]) / 2
    ref = wt
    for i, con in enumerate(chain, start=1):
        ref = con.extend(ref, base / ((res.p + res.q) * 4**i))
    assert cert.resolution_area == ref
    back = cert.resolution_area
    for con in reversed(chain):
        back = con.pull_back(back)
    assert back == wt


def test_a_resolution_makes_at_most_two_ambients_and_one_configuration(monkeypatch):
    """Whatever its number of blowups, a resolution makes one ambient, the
    resolved one, and two through the S2xS2 bridge (CP2#2 first), makes no
    contraction but the bridge's and no blowup call, and validates one
    configuration.  While
    each blowup built its own contraction the pins were one ambient and one
    contraction per blowup (5 each on the chain (3, -2)), and while each
    blowup ran moves.blowup, 5 validated configurations there."""
    spied = {"contraction": moves.blowup_contraction, "blowup": moves.blowup,
             "validate": divisor.validate}
    calls = dict.fromkeys(spied, 0)

    def spy(name):
        def call(*args, **kwargs):
            calls[name] += 1
            return spied[name](*args, **kwargs)
        return call

    for name, original in spied.items():
        rebind(monkeypatch, original, spy(name))
    post_init, ambients = AmbientLattice.__post_init__, [0]

    def count_ambient(self):
        ambients[0] += 1
        post_init(self)

    monkeypatch.setattr(AmbientLattice, "__post_init__", count_ambient)

    def counted(resolve):
        calls.update(dict.fromkeys(spied, 0))
        ambients[0] = 0
        res = resolve()
        return len(res.moves), ambients[0], calls

    once = {"contraction": 0, "blowup": 0, "validate": 1}
    chains = [synthetic_chain(a) + (len(a),) for a in _golden_chains()]
    chains += [_product_chain(k) + (1,) for k in range(1, 7)]
    lengths = set()
    for cfg, ids, k in chains:
        cusp = cusp_class(cfg, ids, k)
        n, made, seen = counted(
            lambda: resolve_pattern(cfg, cusp.da, cusp.db, cusp.p, cusp.q, cusp.cls))
        lengths.add(n)
        bridge = cfg.ambient.kind == "product_of_spheres"
        assert (made, seen) == (1 + bridge, {**once, "contraction": int(bridge)})
    assert lengths == set(range(1, 16))  # the S2xS2 chains resolve in 2, 4, .., 12
    conic, _ = parse_config(json.loads((FIXTURES / "cp2_conic.json").read_text()))
    assert counted(lambda: _a3_resolution(conic)) == (4, 1, once)
