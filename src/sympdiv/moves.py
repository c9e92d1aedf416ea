"""Blowup and blowdown moves on divisor configurations.

The four blowup types act on a configuration by adjoining a fresh
exceptional sphere e:

  exterior   ball disjoint from the divisor; classes unchanged, the
             exceptional sphere is optionally added as a new component
  toric      ball centered at an intersection point: both incident classes
             lose e, the edge is replaced by a length-two chain through e
  non-toric  ball centered on one component, sphere not added
  half-toric ball centered on one component, sphere added with one edge

Both directions share one lattice record, the `Contraction` from the
blown-up ambient (pre) to the other (post): the contracted class e, `drop`
on the coefficients of classes orthogonal to e, its section `lift` back (the
total transform), `pull_back` of areas along the section and `extend`, which
gives e an area and every other class the area of its image.  Blowdown
normalizes a general exceptional class to a basis generator by a word of
reflections (exceptional.normalize_to_basis) and drops that generator's
slot.  A blowup is the section of a contraction built directly for a fresh
generator, with an empty word (`blowup_contraction`).  One bridge changes
the basis kind and carries explicit coordinates instead: CP2#2 -> S2xS2
contracting H-E1-E2, which is also the blowup of S2xS2.  Blowups at fresh
points (`FreshBlowups`; `blowup` is its one-move call) lift each class once,
along the first one's section and then by zero padding, and take each
sphere off at its slots; the replays of a blowdown and of a reduction, whose
contractions carry words, lift along each step's section (`blowup_states`).
Both `_rewrite` the classes and edges by each move, which checks nothing of
validity but the sphere's id: `FreshBlowups.blow_up` validates what it
makes, and verify_trace and the checker compare each replay with the
validated configuration it must equal.  Blowdown, on coefficient tuples,
validates nothing either (see `blowdown`).
"""

from __future__ import annotations

import bisect
import operator
from dataclasses import dataclass
from fractions import Fraction

from .divisor import DivisorComponent, DivisorConfig, require_valid
from .exceptional import NormalizeError, normalize_to_basis
from .lattice import (
    BY_BRIDGE,
    KIND_RATIONAL,
    AmbientLattice,
    AreaVector,
    HomologyClass,
    LatticeMap,
    add_multiple,
    area,
    coeffs_in,
    is_exceptional_class,
    pairing_row,
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


# -- the lattice side: contractions -------------------------------------------


@dataclass(frozen=True)
class Contraction:
    """The lattice side of one blowdown, from pre to post, and so of the
    blowup it undoes.

    On the drop path `word` normalizes the contracted class e to the
    generator at `slot`, which is then dropped.  On a kind-changing bridge
    the word is empty, `slot` is None and `fwd`/`back` give explicit
    coordinates."""

    pre: AmbientLattice
    post: AmbientLattice
    e: HomologyClass  # the contracted class, in pre coordinates
    word: LatticeMap
    slot: int | None
    fwd: tuple[tuple[int, ...], ...] = ()  # post coords of an e-orthogonal pre class
    back: tuple[tuple[int, ...], ...] = ()  # pre coords of a post class

    def drop(self, v: tuple[int, ...]) -> tuple[int, ...]:
        """The image of the coefficients v of a pre class orthogonal to the
        contracted class."""
        u = self.word.apply_coeffs(v)
        if self.slot is None:
            return _matvec(self.fwd, u)
        if u[self.slot] != 0:
            raise MoveError(f"{HomologyClass(self.pre, v)} still meets the contracted generator")
        return u[: self.slot] + u[self.slot + 1 :]

    def lift(self, v: tuple[int, ...]) -> tuple[int, ...]:
        """The coefficients of the pre class orthogonal to the contracted
        class that drop takes to v, a post class's: the total transform."""
        u = _matvec(self.back, v) if self.slot is None else v[: self.slot] + (0,) + v[self.slot :]
        return self.word.apply_inverse_coeffs(u)

    def pull_back(self, w: AreaVector) -> AreaVector:
        """Areas on post giving y the area w gives lift(y)."""
        tw = self.word.transport_area(w)
        if self.slot is None:
            return tw.pull_back(self.post, self.back)
        return AreaVector(self.post, tw.areas[: self.slot] + tw.areas[self.slot + 1 :])

    def extend(self, w: AreaVector, value: Fraction) -> AreaVector:
        """Areas on pre giving e the area `value` and every class orthogonal
        to e the area w gives its image, so pull_back(extend(w, v)) == w: a
        pre class x gets w(drop(x + (x.e) e)) - (x.e) value."""
        if self.slot is None:
            # fwd extends drop to all of pre and kills e
            wf = w.pull_back(self.pre, self.fwd).areas
            row = pairing_row(self.e)  # pair(x, e) = row . x
            return AreaVector(self.pre, tuple(a - k * value for a, k in zip(wf, row)))
        # the word takes e to the generator at slot, which gets `value`
        u = AreaVector(self.pre, w.areas[: self.slot] + (value,) + w.areas[self.slot :])
        return LatticeMap(self.pre, self.word.word[::-1]).transport_area(u)


def _matvec(rows, vec):
    return tuple(sum(map(operator.mul, r, vec)) for r in rows)


# The kind-changing bridge CP2#2 -> S2xS2 contracts H-E1-E2, with f1 = H - E2 and
# f2 = H - E1, an isometry of its complement: the contracted class and the `fwd`
# and `back` coordinates of its Contraction.
_S2S2_BRIDGE = ((1, -1, -1), ((1, 1, 0), (1, 0, 1)), ((1, 1), (0, -1), (-1, 0)))


def _bridge(e: HomologyClass, post: AmbientLattice) -> Contraction | None:
    """The bridge onto post, S2xS2, if e is H-E1-E2 in CP2#2."""
    amb = e.ambient
    coeffs, fwd, back = _S2S2_BRIDGE
    if amb.kind != KIND_RATIONAL or e.coeffs != coeffs:
        return None
    return Contraction(amb, post, e, LatticeMap.identity(amb), None, fwd, back)


def _contraction_for(e: HomologyClass) -> Contraction:
    """Normalize e to a generator and drop it; where no normalization exists,
    the bridge onto S2xS2."""
    amb = e.ambient
    try:
        t, idx = normalize_to_basis(e)
        return Contraction(amb, _drop_ambient(amb, idx), e, t, idx)
    except NormalizeError:
        pass
    con = _bridge(e, AmbientLattice.product_of_spheres())
    if con is None:
        raise NormalizeError(f"no contraction available for {e} in {amb.describe()}")
    return con


def recorded_contraction(e: HomologyClass, word: LatticeMap, slot: int | None) -> Contraction:
    """The contraction of e as a certificate records it: the word and the
    slot it drops, an exceptional generator, or, with slot None, the bridge
    whose class e is.  Nothing is searched; that the word takes e to the
    generator at slot is left to the caller to check."""
    if slot is None:
        con = _bridge(e, AmbientLattice.product_of_spheres())
        if con is None:
            raise MoveError(f"{e} is not the class of a bridge")
        return con
    if slot not in e.ambient.exc_indices:
        raise MoveError(f"slot {slot} is no exceptional generator of {e.ambient.describe()}")
    return Contraction(e.ambient, _drop_ambient(e.ambient, slot), e, word, slot)


def blowup_contraction(ambient: AmbientLattice) -> tuple[Contraction, str]:
    """The contraction undoing a one-point blowup of `ambient`, built
    directly, with the default component id of the new sphere: out of
    S2xS2 the bridge from CP2#2 (the sphere H-E1-E2, named "e"), elsewhere
    a fresh generator appended."""
    kind = ambient.record.blowup
    if kind == BY_BRIDGE:
        return _bridge(AmbientLattice.rational_blowup(2).from_coeffs(_S2S2_BRIDGE[0]), ambient), "e"
    if kind is None:
        raise MoveError(f"blowup is not supported on ambient kind {ambient.kind}")
    pre = ambient.with_fresh_exc(kind, 1)
    sphere = HomologyClass(pre, (0,) * ambient.dim + (1,))
    return Contraction(pre, ambient, sphere, LatticeMap.identity(pre), ambient.dim), pre.names[-1]


@dataclass(frozen=True)
class FreshBlowups:
    """The lattice side of n blowups of post at fresh points, landing in pre.
    Out of S2xS2 the first is the bridge; every other one appends a
    generator, from fresh_exc_name on.  So the section is the bridge's lift,
    if any, then zero padding, and blowup i's sphere is the generator at slot
    post.dim + i, or the bridge's H-E1-E2."""

    post: AmbientLattice
    pre: AmbientLattice
    bridge: Contraction | None = None

    @staticmethod
    def of(post: AmbientLattice, n: int) -> "FreshBlowups":
        kind = post.record.blowup
        if kind not in (None, BY_BRIDGE):
            return FreshBlowups(post, post.with_fresh_exc(kind, n))
        con, _ = blowup_contraction(post)  # the bridge, or the kind refused
        pre = con.pre.with_fresh_exc(KIND_RATIONAL, n - 1) if n > 1 else con.pre
        return FreshBlowups(post, pre, con)

    def names(self) -> tuple[tuple[str, ...], tuple[str, ...]]:
        """The names of the spheres' classes and their default component ids:
        the bridge's H-E1-E2, if any, with id e, then the generators appended."""
        tail = self.pre.names[self.post.dim + bool(self.bridge):]
        return ((str(self.bridge.e), *tail), ("e", *tail)) if self.bridge else (tail, tail)

    def take(self, i: int, v: list[int], m: int = 1) -> list[int]:
        """v less m times blowup i's sphere, in place: the bridge's H-E1-E2,
        or the generator at slot post.dim + i."""
        if i == 0 and self.bridge:
            for j, c in enumerate(self.bridge.e.coeffs):
                v[j] -= m * c
        else:
            v[self.post.dim + i] -= m
        return v

    def lift(self, x: HomologyClass, weights=()) -> list[int]:
        """The total transform of x, a class of post, less weights[i] times
        blowup i's sphere, as a list of coefficients."""
        v = coeffs_in(x, self.post)
        v = list(self.bridge.lift(v) if self.bridge else v)
        v += [0] * (self.pre.dim - len(v))
        for i, m in enumerate(weights):
            self.take(i, v, m)
        return v

    def total_transform(self, x: HomologyClass, weights) -> HomologyClass:
        """lift(x, weights) as a class of pre."""
        return HomologyClass(self.pre, tuple(self.lift(x, weights)))

    def extend(self, w: AreaVector, values) -> AreaVector:
        """Areas on pre giving blowup i's sphere values[i] and every lifted
        class the area w gives it: the bridge's extend, then appended areas."""
        if self.bridge:
            w, values = self.bridge.extend(w, values[0]), values[1:]
        return AreaVector(self.pre, w.areas + tuple(values))

    def blow_up(self, config: DivisorConfig, moves, ids) -> DivisorConfig:
        """config blown up by moves, blowup i's sphere taking the id ids[i],
        validated once: each class lifted once, then each move rewritten at
        its sphere's slots."""
        state = MoveState(self.pre, {c.id: self.lift(c.cls) for c in config.components},
                          {c.id: c.genus for c in config.components}, list(config.edges))
        for i, (move, xid) in enumerate(zip(moves, ids, strict=True)):
            sphere = self.take(i, [0] * self.pre.dim, -1)
            _rewrite(state, move, xid, lambda v: self.take(i, v), sphere)
        state.classes = {cid: tuple(v) for cid, v in state.classes.items()}
        return require_valid(state.config())


# -- blowup ---------------------------------------------------------------------


@dataclass(slots=True)
class MoveState:
    """A configuration as the blowup core carries it, classes as coefficient tuples."""
    ambient: AmbientLattice
    classes: dict[str, tuple[int, ...]]
    genus: dict[str, int]
    edges: list[tuple[str, str]]

    def config(self) -> DivisorConfig:
        return DivisorConfig.build(self.ambient, [(i, HomologyClass(self.ambient, v), self.genus[i])
                                                  for i, v in self.classes.items()], self.edges)

    def matches(self, config: DivisorConfig) -> bool:
        """Whether config == self.config(), without building it."""
        amb, comps = self.ambient, config.components
        return (config.ambient == amb and [c.id for c in comps] == sorted(self.classes)
                and all(c.cls.ambient == amb and c.cls.coeffs == self.classes[c.id]
                        and c.genus == self.genus[c.id] for c in comps)
                and config.edges == tuple(sorted(self.edges)))


def _rewrite(state: MoveState, move: BlowupMove, new_id: str, take, sphere) -> None:
    """Rewrite state in place by one blowup move: a toric move swaps its edge
    for two through the new sphere new_id, take(v) is each class v the move
    hits less the sphere's class, and a move that adds the sphere gives it
    the class `sphere`, genus 0 and an edge to each component hit; new_id
    must then be no component's."""
    classes, edges = state.classes, state.edges
    if isinstance(move, ToricBlowup):
        key = tuple(sorted((move.a, move.b)))
        if key not in edges:
            raise MoveError(f"no edge between {move.a!r} and {move.b!r}")
        edges.remove(key)
        hit, adds = key, True
    elif isinstance(move, (NonToricBlowup, HalfToricBlowup)):
        hit, adds = (move.comp,), isinstance(move, HalfToricBlowup)
    elif isinstance(move, ExteriorBlowup):
        hit, adds = (), move.add_component
    else:
        raise MoveError(f"unknown move {move!r}")
    if adds and new_id in classes:
        raise MoveError(f"component id {new_id!r} already in use")
    for cid in hit:
        if cid not in classes:
            raise MoveError(f"no component {cid!r}")
        classes[cid] = take(classes[cid])
    if adds:
        classes[new_id], state.genus[new_id] = sphere, 0
        edges.extend(tuple(sorted((cid, new_id))) for cid in hit)


def blowup_states(config: DivisorConfig, steps):
    """Shared core of replay_blowdown, verify_trace and the checker's replay,
    which validates nothing: for each (contraction, move, sphere id) step on a
    blowup of the ambient before it, lift every class along the section, then
    rewrite the classes and edges by the move, the contracted class the new
    sphere.  Yields its one MoveState, updated in place, before the first step
    and after each."""
    amb, comps = config.ambient, config.components
    state = MoveState(amb, {c.id: coeffs_in(c.cls, amb) for c in comps},
                      {c.id: c.genus for c in comps}, list(config.edges))
    yield state
    for con, move, new_id in steps:
        if con.post != state.ambient:
            raise MoveError(f"the contraction does not undo a blowup of {state.ambient.describe()}")
        e, state.ambient = con.e.coeffs, con.pre
        state.classes = {cid: con.lift(v) for cid, v in state.classes.items()}
        _rewrite(state, move, new_id, lambda v: add_multiple(v, -1, e), e)
        yield state


def blowup(config: DivisorConfig, move: BlowupMove, new_id: str | None = None) -> DivisorConfig:
    """One blowup move at a fresh point, validated, the sphere taking its
    default id unless given."""
    fresh = FreshBlowups.of(config.ambient, 1)
    return fresh.blow_up(config, [move], [new_id or fresh.names()[1][0]])


def area_after_blowup(
    config_before: DivisorConfig,
    config_after: DivisorConfig,
    w: AreaVector,
    value: Fraction,
) -> AreaVector:
    """Transport an area vector through a blowup, giving area `value` to the
    new exceptional sphere: Contraction.extend on the contraction undoing
    it, which must start on the ambient after."""
    con, _ = blowup_contraction(config_before.ambient)
    if con.pre != config_after.ambient:
        raise MoveError(f"{config_after.ambient.describe()} is not the blowup of "
                        f"{config_before.ambient.describe()}")
    return con.extend(w, Fraction(value))


# -- blowdown -------------------------------------------------------------------


@dataclass(frozen=True)
class BlowdownStep:
    pre_config: DivisorConfig
    config: DivisorConfig
    kind: str
    move: BlowupMove
    contraction: Contraction
    removed_component: str | None
    new_area: AreaVector | None

    @property
    def target(self) -> HomologyClass:
        """The contracted class, in pre coordinates."""
        return self.contraction.e


def detect_pattern(config: DivisorConfig, e: HomologyClass, row: tuple[int, ...] | None = None):
    """Classify the contraction type from incidence with e, the pairings read
    off row, e's pairing_row (computed here unless given).

    Returns (kind, move, removed_id, incident_ids)."""
    carriers = [c for c in config.components if c.cls.coeffs == e.coeffs and c.cls == e]
    if len(carriers) > 1:
        raise MoveError("two components share the exceptional class")
    if carriers:
        cid, nbrs = carriers[0].id, config.neighbors(carriers[0].id)
        if len(nbrs) == 2:
            if nbrs[0] == nbrs[1]:
                raise MoveError("toric contraction needs edges to two distinct components")
            return "toric", ToricBlowup(nbrs[0], nbrs[1]), cid, nbrs
        if len(nbrs) == 1:
            return "half_toric", HalfToricBlowup(nbrs[0]), cid, nbrs
        if len(nbrs) == 0:
            return "exterior", ExteriorBlowup(add_component=True), cid, []
        raise MoveError(f"component {cid} in class {e} has {len(nbrs)} edges")
    row = pairing_row(e) if row is None else row
    pairings = [(c.id, sum(map(operator.mul, row, coeffs_in(c.cls, e.ambient))))
                for c in config.components]
    if neg := [cid for cid, p in pairings if p < 0]:
        raise MoveError(f"class {e} pairs negatively with component {neg[0]}")
    hot = [cid for cid, p in pairings if p > 0]
    total = sum(p for _, p in pairings)
    if total == 0:
        return "exterior", ExteriorBlowup(add_component=False), None, []
    if total == 1 and len(hot) == 1:
        return "non_toric", NonToricBlowup(hot[0]), None, hot
    raise MoveError(f"no blowdown pattern matches class {e}: pairing {total} spread over {hot}")


def _drop_ambient(ambient: AmbientLattice, idx: int) -> AmbientLattice:
    names = ambient.names[:idx] + ambient.names[idx + 1 :]
    emptied = ambient.record.emptied if len(names) == ambient.exc_start else None
    return AmbientLattice(emptied or ambient.kind, ambient.g, names)


def blowdown(config: DivisorConfig, e: HomologyClass, w: AreaVector | None = None) -> BlowdownStep:
    """Contract the exceptional class e of a valid configuration; the incidence pattern fixes
    the type.  The result is not validated: the section is an isometry onto e's complement with
    K' = pi*K + e, so the result is valid exactly when its blowup, the input, is.  certify
    validates its input and verify_trace shows each step's blowup to be the step's input, so
    validity carries down the trace; only an empty result, which that leaves open, is refused.
    DivisorConfig.build sorts every configuration's components by id and its edges, so the
    result keeps the input's order, the toric edge inserted in it, and is built directly."""
    if not is_exceptional_class(e):
        raise MoveError(f"{e} is not an exceptional class")
    if w is not None and (a := area(e, w)).numerator <= 0:
        raise MoveError(f"{e} has non-positive area {a}")
    amb, ec, row = config.ambient, coeffs_in(e, config.ambient), pairing_row(e)
    kind, move, removed, incident = detect_pattern(config, e, row)
    kept = []  # (component, adjusted coefficients); a blowdown keeps every genus
    for c in config.components:
        if c.id == removed:
            continue
        v = coeffs_in(c.cls, amb)
        if c.id in incident:
            v = add_multiple(v, 1, ec)
        if sum(map(operator.mul, row, v)):
            raise MoveError(f"component {c.id} not orthogonal after adjustment")
        kept.append((c, v))
    edges = [edge for edge in config.edges if removed not in edge]
    if kind == "toric":
        bisect.insort(edges, tuple(sorted((incident[0], incident[1]))))

    con = _contraction_for(e)
    comps = tuple(DivisorComponent(c.id, HomologyClass(con.post, con.drop(v)), c.genus)
                  for c, v in kept)
    if not comps:
        raise MoveError("invalid configuration: configuration is empty")
    new_area = con.pull_back(w) if w is not None else None
    out = DivisorConfig(con.post, comps, tuple(edges))
    return BlowdownStep(config, out, kind, move, con, removed, new_area)


def replay_blowdown(step: BlowdownStep) -> DivisorConfig:
    """The pre-configuration, unvalidated, by blowing the step back up (the move on the sections
    of the post classes, the contracted class the new sphere)."""
    new_id = step.removed_component or "replayed"
    *_, state = blowup_states(step.config, [(step.contraction, step.move, new_id)])
    return state.config()


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
