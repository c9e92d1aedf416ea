"""Benchmark of sympdiv's certify, check, cusp resolution and inflation paths.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; sympdiv is imported from its `src/`.  One
process and one thread run a closed loop with one client over the
workload's operations (a produce step and a check step on the same input),
in whole passes, for at least S seconds and, untraced, at least MIN_OPS
operations.  The last line of stdout is one JSON object with `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics with --trace 0,
the per-layer metrics with --trace 1.

Timings are reported in reference units: a step's raw time is multiplied
by K_REF_S over the mean time of the pure-Python kernel runs just before and
just after it, which removes the host's speed drift.  See README.md.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import oracles
from spans import Tracer, max_bits
from workloads import WORKLOADS

K_REF_S = 0.0006  # nominal kernel time; reported times are raw * K_REF_S / kernel
MIN_OPS = 100  # untraced runs measure at least this many operations (p90 tail)
SETUP_REPS = 3  # set-up is repeated and its median reported


def kernel() -> None:
    """A fixed pure-Python load (exact rational sums, tuple and dict churn)
    that imports nothing from sympdiv."""
    s = Fraction(0)
    for i in range(1, 40):
        s += Fraction(i, i * i + 1)
    d = {}
    for i in range(300):
        t = (i, i + 1, i + 2)
        d[t] = sum(a * b for a, b in zip(t, t)) & 7


def kernel_s() -> float:
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


def load_sympdiv(root: Path) -> SimpleNamespace:
    src = root / "src"
    if not (src / "sympdiv" / "__init__.py").is_file():
        raise SystemExit(f"no sympdiv sources under {src}; run from the root of a checkout")
    sys.path.insert(0, str(src))
    import sympdiv.cli
    import sympdiv.cusp
    import sympdiv.documents

    if Path(sympdiv.__file__).resolve().parent != (src / "sympdiv").resolve():
        raise SystemExit(f"sympdiv was imported from {sympdiv.__file__}, not from {src}")
    return SimpleNamespace(cli=sympdiv.cli, cusp=sympdiv.cusp, documents=sympdiv.documents)


def cold_import(root: Path) -> None:
    """Interpreter start plus `import sympdiv.cli` in a fresh process."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    subprocess.run([sys.executable, "-c", "import sympdiv.cli"], cwd=root, env=env, check=True)


class Loop:
    """Runs passes over the operations.  Each step is bracketed by kernel
    runs, and its time is reported in reference milliseconds: raw time times
    K_REF_S over the mean of the kernel runs just before and just after it."""

    def __init__(self, sd, ops, order, tracer=None):
        self.sd, self.ops, self.order, self.tracer = sd, ops, order, tracer
        self.kernels, self.raw_produce = [], []
        self.produce, self.check = [], []  # reference ms of operations that passed
        self.reference = {}  # op index -> key of its verified outputs
        self.bad = {}  # op index -> oracle failures of its outputs
        self.documents = {}  # op index -> produced document
        self.failed = 0
        self.attempted = 0

    def _call(self, name, fn, *args):
        if self.tracer is None:
            return fn(*args)
        return self.tracer.root(name, fn, *args)

    def _step(self, op, keep):
        k0 = kernel_s()
        t0 = time.perf_counter()
        produced = self._call("bench.produce", op.produce, self.sd)
        tp = time.perf_counter() - t0
        if keep:
            op.keep(produced)
        k1 = kernel_s()
        t0 = time.perf_counter()
        checked = self._call("bench.check", op.check, self.sd, produced)
        tc = time.perf_counter() - t0
        k2 = kernel_s()
        self.kernels += (k0, k1, k2)
        return produced, checked, tp, tc, 2000 * K_REF_S / (k0 + k1), 2000 * K_REF_S / (k1 + k2)

    def run_pass(self, keep=False, verify=False):
        """One pass over every operation.  With verify, the outputs are
        checked by the oracles and become the reference later passes must
        reproduce byte for byte."""
        for i in self.order:
            op = self.ops[i]
            self.attempted += 1
            try:
                produced, checked, tp, tc, sp, sc = self._step(op, keep)
            except Exception:  # a crash is one failed operation; the run goes on
                self.failed += 1
                print(f"{op.label}: {traceback.format_exc()}", file=sys.stderr)
                continue
            key = op.key(produced, checked)
            if verify:
                self.bad[i] = op.failures(produced, checked)
                self.reference[i] = key
                self.documents[i] = op.document(produced)
                for why in self.bad[i]:
                    print(f"{op.label}: {why}", file=sys.stderr)
            if self.bad.get(i) or key != self.reference.get(i):
                self.failed += 1
                continue
            self.raw_produce.append(tp)
            self.produce.append(tp * sp)
            self.check.append(tc * sc)


def setup(root, sd, workload, seed, workdir):
    """Cold import, input generation and one warm-up pass, repeated
    SETUP_REPS times; the first repetition's outputs are verified and become
    the reference.  Returns the loop for the timed passes and the set-up
    times in reference seconds."""
    times = []
    reference = None
    for rep in range(SETUP_REPS):
        k0 = kernel_s()
        t0 = time.perf_counter()
        cold_import(root)
        ops = WORKLOADS[workload](random.Random(seed), workdir, sd)
        t_before = time.perf_counter() - t0
        k1 = kernel_s()
        order = list(range(len(ops)))
        random.Random(seed).shuffle(order)
        loop = Loop(sd, ops, order)
        if reference is not None:
            loop.reference, loop.bad, loop.documents = reference
        loop.run_pass(keep=True, verify=reference is None)
        reference = (loop.reference, loop.bad, loop.documents)
        warm_up = (sum(loop.produce) + sum(loop.check)) / 1000
        times.append(t_before * 2 * K_REF_S / (k0 + k1) + warm_up)
        if loop.failed:
            print(f"{loop.failed} operations failed in set-up", file=sys.stderr)
    timed = Loop(sd, ops, order)
    timed.reference, timed.bad, timed.documents = reference
    return timed, times


def self_test(workload, loop) -> list[str]:
    """Mutate one field of a verified output at a time; returns the mutations
    the oracles failed to reject."""
    if workload == "resolve-chains":
        op = loop.ops[0]
        produced = op.produce(loop.sd)
        outputs = (produced, op.check(loop.sd, produced))
        cusp, res = produced
        m = (res.multiplicities[0] + 1,) + res.multiplicities[1:]
        bumped = ((cusp, dataclasses.replace(res, multiplicities=m)), outputs[1])
        return oracles.self_test(lambda x: op.failures(*x), outputs,
                                 [("change one multiplicity", bumped)])
    docs = [loop.documents[i] for i in loop.order]
    if workload == "inflate":
        return oracles.self_test(oracles.plan_failures, docs[0], oracles.plan_mutants(docs[0]))
    good = next(d for d in docs
                if json.loads(d)["original"] and json.loads(d)["resolution"]["multiplicities"])
    return oracles.self_test(oracles.certificate_failures, good,
                             oracles.certificate_mutants(good))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    sd = load_sympdiv(root)
    out_dir = root / "perfbench" / "out"
    workdir = out_dir / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        return measure(args, root, sd, out_dir, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, root, sd, out_dir, workdir) -> int:
    loop, setup_times = setup(root, sd, args.workload, args.seed, workdir)
    misses = self_test(args.workload, loop)
    for what in misses:
        print(f"oracle self-test: mutation not rejected: {what}", file=sys.stderr)

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
        loop.tracer = tracer
    min_ops = 0 if args.trace else MIN_OPS
    t_end = time.perf_counter() + args.seconds
    passes = 0
    while passes == 0 or time.perf_counter() < t_end or loop.attempted < min_ops:
        loop.run_pass()
        passes += 1

    produce, check = loop.produce, loop.check
    print(
        f"{args.workload} seed {args.seed}: {passes} passes, {loop.attempted} operations, "
        f"raw produce p50 {1000 * statistics.median(loop.raw_produce):.3f} ms, "
        f"reference produce p50 {statistics.median(produce):.3f} ms, "
        f"kernel p50 {1000 * statistics.median(loop.kernels):.4f} ms",
        file=sys.stderr,
    )
    ok_ops = len(produce)
    if args.trace:
        n_docs = [len(loop.documents.get(i) or "") for i in loop.order]
        tracer.counts["out_bytes"] = sum(n_docs) * passes
        tracer.maxima["max_bits"] = max(
            (max_bits(d) for d in loop.documents.values() if d), default=0)
        metrics = tracer.per_layer(
            loop.attempted, 1000 * K_REF_S / statistics.median(loop.kernels))
        tracer.write(out_dir / f"trace-{args.workload}-seed{args.seed}.spans")
    else:
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "produce_ms_p50": (statistics.median(produce), "ms"),
            "produce_ms_p90": (statistics.quantiles(produce, n=10)[8], "ms"),
            "check_ms_p50": (statistics.median(check), "ms"),
            "check_ms_p90": (statistics.quantiles(check, n=10)[8], "ms"),
            "ops_per_s": (1000 * ok_ops / (sum(produce) + sum(check)), "1/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    result = {
        "correct": not misses,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
