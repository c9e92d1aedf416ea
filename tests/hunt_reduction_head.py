"""Seeded hunt for a reduction step whose class does not blow down.

Every stage of the reduction names one class per step and contracts it.  This
script certifies random valid pairs in process with a spy on
`reduction.blowdown`, and reports, per stage, the steps taken and every
contraction that raised.  It exits 1 if any did, or if certify refused a
draw at a stage other than `quasi_minimal` (EXPECTED_REFUSALS), the one whose
refusals of these draws are understood.  It is a script, not a test module, so
pytest does not collect it.  Run it from the repository root:

    python tests/hunt_reduction_head.py [--draws N] [--seed S]

Two generators, each drawn N times:
  random     a rational seed of conftest's (one line, two lines or two fibers
             of S2xS2) and 3 to 14 random blowups
  library    perfbench's quasi-minimal seeds first_kind_cp2_8 and
             trident_cp2_4 and 1 to 4 random blowups

The blowups mix the moves as perfbench's random_config does, and each new
sphere gets a drawn share in [1/64, 7/8] of the least generator area and of the
adjoint-area slack (random_config's share is 1/8), so the adjoint area stays
negative.  A blowup whose carried areas fail `validate` is drawn again, so
every draw is a valid pair; the redraws are counted.  Draws that certify
refuses are counted by the stage that refused them.
"""

from __future__ import annotations

import argparse
import random
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from conftest import _seed_config  # noqa: E402
from sympdiv import reduction  # noqa: E402
from sympdiv.cusp import CertifyError, certify_affine_ruled  # noqa: E402
from sympdiv.divisor import adjoint_area, validate  # noqa: E402
from sympdiv.documents import parse_config  # noqa: E402
from sympdiv.moves import (  # noqa: E402
    ExteriorBlowup,
    HalfToricBlowup,
    NonToricBlowup,
    ToricBlowup,
    area_after_blowup,
    blowup,
)
from workloads import first_kind_cp2_8, trident_cp2_4  # noqa: E402

LIBRARY = [parse_config(make()) for make in (first_kind_cp2_8, trident_cp2_4)]
# the stage at which certify refuses some draws: the quasi-minimal area ties and empty
# CP2#2 reductions
EXPECTED_REFUSALS = {"quasi_minimal"}
# blowups drawn again because their carried areas failed validate
REDRAWS = Counter()


def blown_up(rng, cfg, w, moves):
    """cfg after `moves` random blowups in random_config's mix, which keeps the divisor
    connected: an exterior sphere not added, non-toric, half-toric, and toric twice as often
    where there is an edge.  The areas are carried along.  A toric or half-toric sphere's area
    comes off each component it meets, so repeated blowups can carry the areas out of the
    symplectic cone: such a blowup is drawn again, and counted in REDRAWS."""
    done = 0
    while done < moves:
        kinds = ["exterior", "non_toric", "half_toric"] + ["toric"] * 2 * bool(cfg.edges)
        kind = rng.choice(kinds)
        if kind == "toric":
            move = ToricBlowup(*rng.choice(cfg.edges))
        elif kind == "exterior":
            move = ExteriorBlowup()
        else:
            comp = rng.choice(cfg.ids())
            move = NonToricBlowup(comp) if kind == "non_toric" else HalfToricBlowup(comp)
        nxt = blowup(cfg, move)
        share = Fraction(rng.randint(1, 56), 64)
        nw = area_after_blowup(cfg, nxt, w, share * min(min(w.areas), -adjoint_area(cfg, w)))
        if validate(nxt, nw):
            REDRAWS["blowups"] += 1
            continue
        cfg, w, done = nxt, nw, done + 1
    return cfg, w


def random_draw(rng):
    cfg, w = _seed_config(rng)
    while cfg.ambient.is_ruled:  # a ruled pair takes the comb route, not the reduction
        cfg, w = _seed_config(rng)
    return blown_up(rng, cfg, w, rng.randint(3, 14))


def library_draw(rng):
    return blown_up(rng, *rng.choice(LIBRARY), rng.randint(1, 4))


GENERATORS = {"random": random_draw, "library": library_draw}


def hunt(draw, draws: int, rng: random.Random):
    """(certified, refusals by stage, steps by stage, failed contractions, blowups redrawn)."""
    steps, failed, stage = Counter(), [], [None]
    reduce, contract = reduction._reduce, reduction.blowdown

    def spy_reduce(name, *args):
        stage[0] = name
        return reduce(name, *args)

    def spy_blowdown(cfg, e, w=None):
        try:
            out = contract(cfg, e, w)
        except Exception as exc:
            failed.append(f"{stage[0]} on {cfg.ambient.describe()}: {e}: {exc}")
            raise
        steps[stage[0]] += 1
        return out

    reduction._reduce, reduction.blowdown = spy_reduce, spy_blowdown
    certified, refused, redrawn = 0, Counter(), REDRAWS["blowups"]
    try:
        for _ in range(draws):
            try:
                certify_affine_ruled(*draw(rng))
                certified += 1
            except CertifyError as exc:
                refused[exc.stage] += 1
    finally:
        reduction._reduce, reduction.blowdown = reduce, contract
    return certified, refused, steps, failed, REDRAWS["blowups"] - redrawn


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--draws", type=int, default=16000, help="draws per generator")
    p.add_argument("--seed", type=int, default=1)
    args = p.parse_args(argv)
    rc = 0
    for name, draw in GENERATORS.items():
        certified, refused, steps, failed, redrawn = hunt(draw, args.draws,
                                                          random.Random(args.seed))
        print(f"{name}: {args.draws} draws, {certified} certified, "
              f"{sum(steps.values())} steps, {len(failed)} failed contractions, "
              f"{redrawn} blowups redrawn")
        print("  steps by stage: " + ", ".join(f"{k} {v}" for k, v in sorted(steps.items())))
        print("  refused by stage: " + ", ".join(f"{k} {v}" for k, v in sorted(refused.items())))
        for line in failed:
            print(f"  FAILED {line}")
        unexpected = sorted(set(refused) - EXPECTED_REFUSALS)
        if unexpected:
            print(f"  FAILED refusals at {', '.join(unexpected)}")
        rc |= bool(failed or unexpected)
    return rc


if __name__ == "__main__":
    sys.exit(main())
