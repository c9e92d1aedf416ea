"""Blowup and blowdown moves on divisor configurations.

The four blowup types act on a configuration by adjoining a fresh
exceptional generator:

  exterior   ball disjoint from the divisor; classes unchanged, the
             exceptional sphere is optionally added as a new component
  toric      ball centered at an intersection point: both incident classes
             lose E, the edge is replaced by a length-two chain through E
  non-toric  ball centered on one component, sphere not added
  half-toric ball centered on one component, sphere added with one edge

Blowdown inverts these.  A general exceptional class is first normalized
to a basis generator by reflections (exceptional.normalize_to_basis) and
the generator slot is dropped.  Two terminal cases change the basis kind
outright: contracting H-E1-E2 in CP2#2 lands in S2xS2, and contracting
F-E1 over an irrational base lands in the twisted bundle.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .divisor import DivisorConfig, require_valid
from .exceptional import NormalizeError, normalize_to_basis
from .lattice import (
    KIND_PP,
    KIND_RATIONAL,
    KIND_RULED,
    AmbientLattice,
    AreaVector,
    HomologyClass,
    LatticeMap,
    area,
    is_exceptional_class,
    pair,
)


class MoveError(ValueError):
    pass


# -- move descriptions ---------------------------------------------------------


@dataclass(frozen=True)
class ExteriorBlowup:
    add_component: bool = False

    kind = "exterior"


@dataclass(frozen=True)
class ToricBlowup:
    a: str
    b: str

    kind = "toric"


@dataclass(frozen=True)
class NonToricBlowup:
    comp: str

    kind = "non_toric"


@dataclass(frozen=True)
class HalfToricBlowup:
    comp: str

    kind = "half_toric"


BlowupMove = ExteriorBlowup | ToricBlowup | NonToricBlowup | HalfToricBlowup


# -- blowup ---------------------------------------------------------------------


def _extended_ambient(ambient: AmbientLattice, name: str | None, position: int | None):
    """Ambient with one more exceptional generator inserted at position
    (default: appended)."""
    new_name = name or ambient.fresh_exc_name()
    if new_name in ambient.names:
        raise MoveError(f"generator name {new_name!r} already in use")
    if ambient.kind == KIND_PP:
        names = ("H", new_name)
        out = AmbientLattice(KIND_RATIONAL, 0, names)
        return out, 1, new_name
    if ambient.kind in (KIND_RATIONAL, KIND_RULED):
        pos = position if position is not None else ambient.dim
        if pos <= ambient.exc_start - 1:
            raise MoveError("exceptional generator cannot precede the fixed part")
        names = ambient.names[:pos] + (new_name,) + ambient.names[pos:]
        out = AmbientLattice(ambient.kind, ambient.g, names)
        return out, pos, new_name
    raise MoveError(f"blowup is not supported on ambient kind {ambient.kind}")


def _embed(cls: HomologyClass, ambient: AmbientLattice, position: int) -> HomologyClass:
    coeffs = cls.coeffs[:position] + (0,) + cls.coeffs[position:]
    return ambient.from_coeffs(coeffs)


def _apply_move(
    ambient: AmbientLattice,
    classes: dict[str, HomologyClass],
    edges: list[tuple[str, str]],
    move: BlowupMove,
    ecls: HomologyClass,
    new_id: str,
) -> DivisorConfig:
    """Shared rewrite core: classes are already in the target ambient and
    ecls is the class of the new exceptional sphere therein."""
    if isinstance(move, ToricBlowup):
        key = tuple(sorted((move.a, move.b)))
        if key not in edges:
            raise MoveError(f"no edge between {move.a!r} and {move.b!r}")
        edges.remove(key)
        classes[move.a] = classes[move.a] - ecls
        classes[move.b] = classes[move.b] - ecls
        classes[new_id] = ecls
        edges.append(tuple(sorted((move.a, new_id))))
        edges.append(tuple(sorted((move.b, new_id))))
    elif isinstance(move, NonToricBlowup):
        if move.comp not in classes:
            raise MoveError(f"no component {move.comp!r}")
        classes[move.comp] = classes[move.comp] - ecls
    elif isinstance(move, HalfToricBlowup):
        if move.comp not in classes:
            raise MoveError(f"no component {move.comp!r}")
        classes[move.comp] = classes[move.comp] - ecls
        classes[new_id] = ecls
        edges.append(tuple(sorted((move.comp, new_id))))
    elif isinstance(move, ExteriorBlowup):
        if move.add_component:
            classes[new_id] = ecls
    else:
        raise MoveError(f"unknown move {move!r}")
    comps = [(cid, cls) for cid, cls in classes.items()]
    return DivisorConfig.build(ambient, comps, edges)


def product_to_blowup_coords(x: HomologyClass, target: AmbientLattice) -> HomologyClass:
    """Coordinates of a product-of-spheres class after one blowup:
    f1 = H - E2, f2 = H - E1, so alpha f1 + beta f2 = (a+b)H - bE1 - aE2."""
    a, b = x.coeffs
    base = (a + b, -b, -a)
    from .lattice import embed_by_names

    two = AmbientLattice.rational_blowup(2)
    return embed_by_names(two.from_coeffs(base), target)


def _blowup_product(config: DivisorConfig, move: BlowupMove, new_id: str | None) -> DivisorConfig:
    """Blowup of the product of spheres: the lattice becomes CP2#2 and the
    exceptional class is H - E1 - E2."""
    amb = AmbientLattice.rational_blowup(2)
    classes = {c.id: product_to_blowup_coords(c.cls, amb) for c in config.components}
    edges = list(config.edges)
    ecls = amb.from_coeffs((1, -1, -1))
    cid = new_id or "e"
    if config.has_component(cid):
        raise MoveError(f"component id {cid!r} already in use")
    out = _apply_move(amb, classes, edges, move, ecls, cid)
    require_valid(out)
    return out


def blowup(
    config: DivisorConfig,
    move: BlowupMove,
    new_id: str | None = None,
    new_name: str | None = None,
    position: int | None = None,
) -> DivisorConfig:
    """Perform a blowup move; the result validates by construction."""
    if config.ambient.kind == "product_of_spheres":
        return _blowup_product(config, move, new_id)
    amb, pos, name = _extended_ambient(config.ambient, new_name, position)
    cid = new_id or name
    if config.has_component(cid):
        raise MoveError(f"component id {cid!r} already in use")
    classes = {c.id: _embed(c.cls, amb, pos) for c in config.components}
    edges = list(config.edges)
    ecls = amb.basis_class(name)
    out = _apply_move(amb, classes, edges, move, ecls, cid)
    require_valid(out)
    return out


def area_after_blowup(
    config_before: DivisorConfig,
    config_after: DivisorConfig,
    w: AreaVector,
    value: Fraction,
) -> AreaVector:
    """Transport an area vector through a blowup, giving area `value` to the
    new exceptional sphere."""
    before, after = config_before.ambient, config_after.ambient
    value = Fraction(value)
    if before.kind == "product_of_spheres":
        a1, a2 = w.areas
        if value >= min(a1, a2):
            raise MoveError("blowup area must be smaller than both fiber areas")
        return AreaVector(after, (a1 + a2 - value, a2 - value, a1 - value))
    new = [n for n in after.names if n not in before.names]
    if len(new) != 1:
        raise MoveError("ambiguous new generator")
    pos = after.index_of(new[0])
    areas = w.areas[:pos] + (value,) + w.areas[pos:]
    return AreaVector(after, areas)


# -- blowdown -------------------------------------------------------------------


@dataclass(frozen=True)
class BasisBridge:
    """Explicit coordinates for the two kind-changing terminal contractions."""

    pre: AmbientLattice
    post: AmbientLattice
    fwd: tuple[tuple[int, ...], ...]  # post coords of an e-orthogonal pre class
    back: tuple[tuple[int, ...], ...]  # pre coords of a post basis expression

    def forward(self, x: HomologyClass) -> HomologyClass:
        return self.post.from_coeffs(
            tuple(sum(r[j] * x.coeffs[j] for j in range(len(x.coeffs))) for r in self.fwd)
        )

    def backward(self, y: HomologyClass) -> HomologyClass:
        return self.pre.from_coeffs(
            tuple(sum(r[j] * y.coeffs[j] for j in range(len(y.coeffs))) for r in self.back)
        )


@dataclass(frozen=True)
class BlowdownStep:
    pre_config: DivisorConfig
    config: DivisorConfig
    kind: str
    move: BlowupMove
    target: HomologyClass  # the contracted class, in pre coordinates
    transform: LatticeMap | None  # normalization self-map (None on bridge path)
    dropped_index: int | None
    dropped_name: str | None
    bridge: BasisBridge | None
    removed_component: str | None
    new_area: AreaVector | None


def _detect_pattern(config: DivisorConfig, e: HomologyClass):
    """Classify the contraction type from incidence with e.

    Returns (kind, move, removed_id, incident_ids)."""
    carriers = [c for c in config.components if c.cls == e]
    if len(carriers) > 1:
        raise MoveError("two components share the exceptional class")
    if carriers:
        cid = carriers[0].id
        nbrs = config.neighbors(cid)
        if len(nbrs) == 2:
            if nbrs[0] == nbrs[1]:
                raise MoveError(
                    "toric contraction needs edges to two distinct components"
                )
            return "toric", ToricBlowup(nbrs[0], nbrs[1]), cid, nbrs
        if len(nbrs) == 1:
            return "half_toric", HalfToricBlowup(nbrs[0]), cid, nbrs
        if len(nbrs) == 0:
            return "exterior", ExteriorBlowup(add_component=True), cid, []
        raise MoveError(f"component {cid} in class {e} has {len(nbrs)} edges")
    pairings = [(c.id, pair(c.cls, e)) for c in config.components]
    neg = [cid for cid, p in pairings if p < 0]
    if neg:
        raise MoveError(f"class {e} pairs negatively with component {neg[0]}")
    hot = [cid for cid, p in pairings if p > 0]
    total = sum(p for _, p in pairings)
    if total == 0:
        return "exterior", ExteriorBlowup(add_component=False), None, []
    if total == 1 and len(hot) == 1:
        return "non_toric", NonToricBlowup(hot[0]), None, hot
    raise MoveError(
        f"no blowdown pattern matches class {e}: pairing {total} spread over {hot}"
    )


def _drop_ambient(ambient: AmbientLattice, idx: int) -> AmbientLattice:
    names = ambient.names[:idx] + ambient.names[idx + 1 :]
    if ambient.kind == KIND_RATIONAL:
        if len(names) == 1:
            return AmbientLattice.projective_plane()
        return AmbientLattice(KIND_RATIONAL, 0, names)
    if ambient.kind == KIND_RULED:
        return AmbientLattice(KIND_RULED, ambient.g, names)
    raise MoveError("cannot drop a generator from this ambient kind")


def _bridge_for(e: HomologyClass) -> BasisBridge:
    amb = e.ambient
    if amb.kind == KIND_RATIONAL and amb.n_exc == 2 and e.coeffs == (1, -1, -1):
        post = AmbientLattice.product_of_spheres()
        # f1 = H - E_second, f2 = H - E_first
        fwd = ((1, 1, 0), (1, 0, 1))
        back = ((1, 1), (0, -1), (-1, 0))
        return BasisBridge(amb, post, fwd, back)
    if amb.kind == KIND_RULED and amb.n_exc == 1 and e.coeffs == (0, 1, -1):
        post = AmbientLattice.ruled_twisted(amb.g)
        # B1 = B + F - E1, F = F; coords are (x.F, x.B1 - x.F)
        fwd = ((1, 0, 0), (0, 1, 1))
        back = ((1, 0), (1, 1), (-1, 0))
        return BasisBridge(amb, post, fwd, back)
    raise NormalizeError(f"no contraction available for {e} in {amb.describe()}")


def blowdown(
    config: DivisorConfig,
    e: HomologyClass,
    w: AreaVector | None = None,
) -> BlowdownStep:
    """Contract the exceptional class e; the incidence pattern fixes the type."""
    if not is_exceptional_class(e):
        raise MoveError(f"{e} is not an exceptional class")
    if w is not None and area(e, w) <= 0:
        raise MoveError(f"{e} has non-positive area {area(e, w)}")
    kind, move, removed, incident = _detect_pattern(config, e)

    classes = {c.id: c.cls for c in config.components}
    edges = list(config.edges)
    if removed is not None:
        del classes[removed]
        edges = [edge for edge in edges if removed not in edge]
    for cid in incident:
        classes[cid] = classes[cid] + e
    if kind == "toric":
        edges.append(tuple(sorted((incident[0], incident[1]))))

    for cid, cls in classes.items():
        if pair(cls, e) != 0:
            raise MoveError(f"component {cid} not orthogonal after adjustment")

    try:
        t, idx = normalize_to_basis(e)
        post_amb = _drop_ambient(config.ambient, idx)
        post_classes = {}
        for cid, cls in classes.items():
            img = t.apply(cls)
            if img.coeffs[idx] != 0:
                raise MoveError(f"component {cid} still meets the contracted generator")
            post_classes[cid] = post_amb.from_coeffs(img.coeffs[:idx] + img.coeffs[idx + 1 :])
        new_area = None
        if w is not None:
            tw = t.transport_area(w)
            new_area = AreaVector(post_amb, tw.areas[:idx] + tw.areas[idx + 1 :])
        out = DivisorConfig.build(post_amb, list(post_classes.items()), edges)
        require_valid(out)
        return BlowdownStep(
            pre_config=config,
            config=out,
            kind=kind,
            move=move,
            target=e,
            transform=t,
            dropped_index=idx,
            dropped_name=config.ambient.names[idx],
            bridge=None,
            removed_component=removed,
            new_area=new_area,
        )
    except NormalizeError:
        bridge = _bridge_for(e)
        post_classes = {cid: bridge.forward(cls) for cid, cls in classes.items()}
        items = sorted(classes)
        for i, ca in enumerate(items):
            for cb in items[i:]:
                if pair(post_classes[ca], post_classes[cb]) != pair(classes[ca], classes[cb]):
                    raise MoveError("basis bridge failed to preserve the form")
        new_area = w.pull_back(bridge.post, bridge.back) if w is not None else None
        out = DivisorConfig.build(bridge.post, list(post_classes.items()), edges)
        require_valid(out)
        return BlowdownStep(
            pre_config=config,
            config=out,
            kind=kind,
            move=move,
            target=e,
            transform=None,
            dropped_index=None,
            dropped_name=None,
            bridge=bridge,
            removed_component=removed,
            new_area=new_area,
        )


def replay_blowdown(step: BlowdownStep) -> DivisorConfig:
    """Reconstruct the pre-configuration by blowing the step back up.  Used
    to certify reduction traces: the result must equal step.pre_config."""
    pre_amb = step.pre_config.ambient
    new_id = step.removed_component or "replayed"
    if step.bridge is None:
        idx = step.dropped_index
        classes = {
            c.id: _embed(c.cls, pre_amb, idx) for c in step.config.components
        }
        normalized_e = pre_amb.basis_class(pre_amb.names[idx])
        edges = list(step.config.edges)
        cfg = _apply_move(pre_amb, classes, edges, step.move, normalized_e, new_id)
        t = step.transform
        comps = [(c.id, t.apply_inverse(c.cls)) for c in cfg.components]
        out = DivisorConfig.build(pre_amb, comps, cfg.edges)
    else:
        classes = {c.id: step.bridge.backward(c.cls) for c in step.config.components}
        edges = list(step.config.edges)
        out = _apply_move(pre_amb, classes, edges, step.move, step.target, new_id)
    require_valid(out)
    return out


# -- toric blowup sequences -----------------------------------------------------


def toric_seq_blowup(seq: tuple[int, ...], k: int) -> tuple[int, ...]:
    """Blow up the self-intersection sequence at position k (1-based,
    1 <= k <= len-1): (.., a_k - 1, -1, a_{k+1} - 1, ..)."""
    n = len(seq)
    if not 1 <= k <= n - 1:
        raise MoveError(f"position {k} out of range for length {n}")
    i = k - 1
    return seq[:i] + (seq[i] - 1, -1, seq[i + 1] - 1) + seq[i + 2 :]


def is_toric_blowup_seq(seq) -> tuple[bool, list[int]]:
    """Decide reachability from (0, 0) by toric blowups; on success the
    witness is a list of 1-based blowup positions whose replay from (0, 0)
    reproduces seq."""
    seq = tuple(int(x) for x in seq)
    dead: set[tuple[int, ...]] = set()

    def search(s) -> list[int] | None:
        if s == (0, 0):
            return []
        if len(s) <= 2 or s in dead:
            return None
        for i in range(1, len(s) - 1):
            if s[i] != -1:
                continue
            shorter = s[: i - 1] + (s[i - 1] + 1, s[i + 1] + 1) + s[i + 2 :]
            sub = search(shorter)
            if sub is not None:
                return sub + [i]
        dead.add(s)
        return None

    witness = search(seq)
    if witness is None:
        return False, []
    return True, witness


def replay_toric_witness(witness: list[int]) -> tuple[int, ...]:
    seq = (0, 0)
    for k in witness:
        seq = toric_seq_blowup(seq, k)
    return seq
