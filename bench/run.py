"""Benchmark of evenlat: closed-loop workloads with checked outputs.

    python3 bench/run.py --workload paper|overlattices|queries|all \
        --seed N --seconds S --trace 0|1

One process runs one workload as a closed loop: a single caller issues
the next op only after the previous one returns, in whole rounds over the
workload's seeded inputs, until ``--seconds`` have passed.  Every output is
checked (workloads.py) and must repeat exactly from round to round.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones (END_TO_END below), with times rescaled
to a reference speed of the machine (see REF_KERNEL_S); with ``--trace 1``
untraced and traced rounds alternate and the metrics are the per-layer
ones of tracing.py, per round, plus the tracing overhead.  The exit code is
nonzero when a check fails or the sources of evenlat are missing.
"""

from __future__ import annotations

import argparse
import importlib
import itertools
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, ".work")

END_TO_END = (("setup_s", "s"), ("ops_per_s", "1/s"), ("op_p50_s", "s"), ("peak_rss_mb", "MB"))
# set-up (import in a fresh interpreter, then building the inputs) is
# repeated at least SETUP_REPEATS times and until SETUP_MIN_S seconds are
# spent, and its median taken: one import takes about 0.1 s and swings by a
# third from one to the next
SETUP_REPEATS = 9
SETUP_MIN_S = 2.0
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import evenlat; print(time.perf_counter() - t)"
)
# On a shared virtual machine the CPU's speed drifts: the same work can take
# 1.6 times as long from one minute to the next, in CPU time as in wall
# time.  So a fixed kernel is timed after every op, and the op times are
# rescaled to the speed at which the kernel takes REF_KERNEL_S: each is
# multiplied by REF_KERNEL_S / (the run's mean kernel time).  The kernel's
# time after an op is a fixed share of the op's, so the mean weighs the
# machine's speed over the run as the ops' own time does.
REF_KERNEL_S = 0.010
KERNEL_SHARE = 0.05     # kernel time after an op, as a share of the op's time
PROGRAM_MODULES = ("cli", "curves", "discform", "exactlinalg", "lattice", "reconstruct",
                   "serialize", "verify")


def load_program() -> None:
    """Import evenlat from this checkout's src/, and nothing else."""
    if not os.path.isfile(os.path.join(SRC, "evenlat", "__init__.py")):
        raise SystemExit(f"error: no evenlat sources under {SRC}")
    sys.path.insert(0, SRC)
    import evenlat

    if os.path.dirname(os.path.dirname(os.path.abspath(evenlat.__file__))) != SRC:
        raise SystemExit(f"error: evenlat was imported from {evenlat.__file__}, not {SRC}")
    for name in PROGRAM_MODULES:
        importlib.import_module(f"evenlat.{name}")


def import_seconds() -> float:
    """Time of `import evenlat` in a fresh interpreter."""
    out = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, SRC],
        capture_output=True, text=True, check=True, timeout=120,
    )
    return float(out.stdout.split()[-1])


# a fixed invertible 9x9 integer matrix for the kernel (det 3528441075)
KERNEL_MATRIX = tuple(
    tuple((i * i * j + 3 * j * j + 5 * i + 2 * j) % 19 - 9 for j in range(9)) for i in range(9)
)
KERNEL_Q = (Fraction(1, 2), Fraction(3, 4), Fraction(1, 4), Fraction(1, 2))


def kernel() -> int:
    """Fixed pure-Python work of the kinds evenlat does: a Gauss-Jordan
    inverse over the rationals, and q-values over (Z/4)^4 kept in a dict."""
    n = len(KERNEL_MATRIX)
    a = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(KERNEL_MATRIX)]
    for c in range(n):
        p = next(r for r in range(c, n) if a[r][c] != 0)
        a[c], a[p] = a[p], a[c]
        pivot = a[c][c]
        a[c] = [x / pivot for x in a[c]]
        for r in range(n):
            if r != c and a[r][c] != 0:
                f = a[r][c]
                a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    values = {}
    for x in itertools.product(range(4), repeat=len(KERNEL_Q)):
        v = sum(e * e * q for e, q in zip(x, KERNEL_Q))
        values[x] = v - 2 * (v // 2)
    return len(values) + len(a)


class Speed:
    """Kernel times sampled between ops: the machine's speed over a run."""

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0

    def sample(self, budget: float) -> None:
        """Time the kernel at least once, and until ``budget`` seconds are spent."""
        spent = 0.0
        while True:
            start = time.perf_counter()
            kernel()
            self.samples.append(time.perf_counter() - start)
            spent += self.samples[-1]
            if spent >= budget:
                break
        self.spent += spent

    def scale(self) -> float:
        """Factor from this run's seconds to seconds at the reference speed."""
        return REF_KERNEL_S / statistics.fmean(self.samples)


class Loop:
    """Runs rounds of one workload's ops and keeps what the checks need."""

    def __init__(self, workload, inputs, speed: Speed | None = None):
        self.workload = workload
        self.inputs = inputs
        self.speed = speed                    # sampled after every op, when given
        self.first = [None] * len(inputs)     # canonical output of each input's first op
        self.differs = [0] * len(inputs)      # later ops whose output differed from it
        self.durations: list[float] = []
        self.attempted = 0
        self.failed = 0

    def round(self) -> None:
        for i, inp in enumerate(self.inputs):
            self.attempted += 1
            start = time.perf_counter()
            try:
                out = self.workload.op(inp)
            except Exception:  # noqa: BLE001 - a failed op is counted, the loop goes on
                self.failed += 1
                if self.failed == 1:
                    traceback.print_exc()
                continue
            self.durations.append(time.perf_counter() - start)
            if self.speed:
                self.speed.sample(KERNEL_SHARE * self.durations[-1])
            value = self.workload.canon(out)
            if self.first[i] is None:
                self.first[i] = value
            elif value != self.first[i]:
                self.differs[i] += 1

    def errors(self) -> list[str]:
        errors = []
        if self.failed:
            errors.append(f"{self.workload.name}: {self.failed} of {self.attempted} ops failed")
        for i, inp in enumerate(self.inputs):
            if self.first[i] is not None:
                errors += self.workload.check(inp, self.first[i])
            if self.differs[i]:
                errors.append(f"{self.workload.name} input {i}: output changed between rounds")
        return errors


def measure(workload, inputs, seconds: float, trace: bool):
    """Run whole rounds until ``seconds`` have passed (at least one round).

    Returns (loop, metrics, errors); metrics holds ops_per_s and op_p50_s
    untraced, or the per-layer metrics traced.
    """
    import tracing

    errors: list[str] = []
    start = time.perf_counter()
    deadline = start + seconds
    if not trace:
        loop = Loop(workload, inputs, Speed())
        loop.speed.sample(0)        # a scale even if every op fails
        while True:
            loop.round()
            if time.perf_counter() >= deadline:
                break
        wall = time.perf_counter() - start - loop.speed.spent
        scale = loop.speed.scale()
        metrics = {
            "ops_per_s": len(loop.durations) / (wall * scale),
            "op_p50_s": (statistics.median(loop.durations) if loop.durations else wall) * scale,
        }
        print(f"{workload.name} wall: ops_per_s = {len(loop.durations) / wall} 1/s, "
              f"op_p50_s = {metrics['op_p50_s'] / scale} s, kernel_p50 = {statistics.median(loop.speed.samples)} s, "
              f"kernel_mean = {statistics.fmean(loop.speed.samples)} s", file=sys.stderr)
        return loop, metrics, loop.errors()
    loop = Loop(workload, inputs)
    untraced, traced, tracers = [], [], []
    while True:
        t0 = time.perf_counter()
        loop.round()
        untraced.append(time.perf_counter() - t0)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            t0 = time.perf_counter()
            loop.round()
            traced.append(time.perf_counter() - t0)
        finally:
            tracer.uninstall()
        tracers.append(tracer)
        if time.perf_counter() >= deadline:
            break
    if any(t.counts() != tracers[0].counts() for t in tracers):
        errors.append(f"{workload.name}: call counts differ between traced rounds")
    for name in tracing.EXPECTED_CALLS[workload.name]:
        if tracers[0].calls[name] == 0:
            errors.append(f"{workload.name}: traced run recorded no call of {name}")
    # each traced round directly follows an untraced one: pairing them cancels slow drift
    overhead = statistics.median(t - u for t, u in zip(traced, untraced))
    return loop, tracing.per_layer(tracers, overhead), loop.errors() + errors


def run_one(name: str, seed: int, seconds: float, trace: bool) -> int:
    import tracing
    import workloads

    workload = workloads.WORKLOADS[name]
    workdir = os.path.join(WORK, str(os.getpid()))
    os.makedirs(workdir, exist_ok=True)
    try:
        load_program()
        setups = []     # (import, build) seconds
        while len(setups) < SETUP_REPEATS or sum(map(sum, setups)) < SETUP_MIN_S:
            import_s = import_seconds()
            t0 = time.perf_counter()
            inputs = workload.build(seed, workdir)
            setups.append((import_s, time.perf_counter() - t0))
        loop, metrics, errors = measure(workload, inputs, seconds, trace)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(WORK)
        except OSError:
            pass
    if trace:
        units = dict(tracing.PER_LAYER)
    else:
        units = dict(END_TO_END)
        # building the inputs is Python arithmetic and drifts with the
        # kernel; the import mostly reads and unmarshals files, and does not
        scale = loop.speed.scale()
        metrics["setup_s"] = statistics.median(i + b * scale for i, b in setups)
        print(f"{name} wall: setup_s = {statistics.median(map(sum, setups))} s", file=sys.stderr)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    for e in errors:
        print(f"check failed: {e}", file=sys.stderr)
    for key, unit in units.items():
        print(f"{name} {key} = {metrics[key]} {unit}", file=sys.stderr)
    print(f"{name} attempted = {loop.attempted} failed = {loop.failed}", file=sys.stderr)
    result = {
        "correct": not errors,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {key: {"value": metrics[key], "unit": unit} for key, unit in units.items()},
    }
    print(json.dumps(result), flush=True)
    return 0 if not errors else 1


def run_all_workloads(argv_tail: list[str]) -> int:
    """Each workload in its own process, one after the other."""
    import workloads

    results, status = {}, 0
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name, *argv_tail],
            stdout=subprocess.PIPE, text=True,
        )
        lines = proc.stdout.strip().splitlines()
        results[name] = json.loads(lines[-1]) if lines else None
        status = status or proc.returncode
    print(json.dumps(results))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("paper", "overlattices", "queries", "all"))
    parser.add_argument("--seed", type=int, default=0)
    # no default: BENCHMARK.json's run_seconds is the one run length
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        tail = ["--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        return run_all_workloads(tail)
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
