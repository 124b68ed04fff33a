"""Traced mode: wrap evenlat's public functions from outside and keep spans.

Nothing in the program changes.  ``Tracer.install`` replaces each target
function by a wrapper in every evenlat module that binds it by name (many
modules do ``from .exactlinalg import snf``), and methods on their class;
``uninstall`` puts the originals back, so untraced rounds run the
unmodified code.  A span's self time is its duration minus the time of
the wrapped calls it made.  ``q_value`` and ``b_value`` are only counted:
a timing wrapper would cost more than their bodies.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter
from dataclasses import dataclass

P, O, Q = "paper", "overlattices", "queries"


@dataclass(frozen=True)
class Target:
    """One wrapped function and what the traced run reports about it."""

    module: str
    path: str                       # attribute path in the module, "Class.method" for methods
    metrics: tuple = ("calls", "self_s")    # its per-layer metrics
    entry: str | None = None        # run_all entry whose time includes this span's
    on: tuple = (P,)                # workloads on which it must record calls > 0

    @property
    def name(self) -> str:
        return f"{self.module}.{self.path}"


ALL = (P, O, Q)
SELF = ("self_s",)
VERIFY_ENTRIES = (
    "lemma_3_1", "lemma_4_1", "lemma_4_2", "thm_4_3", "prop_4_4", "thm_4_5_mobius",
    "km_embedding", "prop_4_6", "section_6", "prop_6_2",
)
# in the order of PER_LAYER: spans with calls and self time, then self time only
SPANS = (
    Target("discform", "isotropic_subgroups", on=(P, O)),
    Target("discform", "overlattice", on=(O,)),
    Target("lattice", "rational_span_basis", on=(P, O)),
    Target("exactlinalg", "hnf", on=(P, O)),
    Target("discform", "class_of", on=(P, Q)),
    Target("exactlinalg", "RatMat.inverse", on=ALL),
    Target("discform", "are_isomorphic", on=(P, Q)),
    Target("discform", "from_lattice", on=ALL),
    Target("discform", "isotropic_elements", on=ALL),
    Target("lattice", "discriminant_group", on=ALL),
    Target("exactlinalg", "snf", on=ALL),
    Target("exactlinalg", "snf_rational", on=ALL),
    Target("exactlinalg", "signature"),
    Target("exactlinalg", "solve_rational"),
    Target("exactlinalg", "RatMat.det", on=ALL),
    Target("exactlinalg", "IntMat.det", on=ALL),
    Target("curves", "present"),
    Target("curves", "CurvePresentation.contains"),
    Target("curves", "find_even_four_certificate"),
    Target("curves", "triple_double_tower", SELF),
    Target("reconstruct", "reconstruct_24", SELF, entry="reconstruction_24"),
    Target("reconstruct", "reconstruct_xprime", SELF),
    Target("cli", "main", SELF, on=(O,)),
    Target("serialize", "dumps", SELF, on=(O,)),
    Target("verify", "reconstruction_entry", (), entry="reconstruction_24"),
    *(Target("verify", f"verify_{rid}", (), entry=rid) for rid in VERIFY_ENTRIES),
)
# only counted: a timing wrapper would cost more than their bodies
COUNTERS = (Target("discform", "q_value", ("calls",), on=ALL),
            Target("discform", "b_value", ("calls",), on=(P, Q)))

UNITS = {"calls": "count", "self_s": "s"}
ENTRIES = tuple(dict.fromkeys(t.entry for t in SPANS if t.entry))
PER_LAYER = (
    tuple((f"{t.name}.{k}", UNITS[k]) for t in SPANS for k in t.metrics)
    + tuple((f"{t.name}.calls", "count") for t in COUNTERS)
    + (
        ("discform.isotropic_subgroups.found", "count"),
        ("discform.isotropic_subgroups.yield", "ratio"),
        ("reconstruct.tier1_count", "count"),
        ("reconstruct.tier2_count", "count"),
        ("reconstruct.tier3_count", "count"),
    )
    + tuple((f"verify.{rid}.s", "s") for rid in ENTRIES)
    + (("trace.overhead_s", "s"),)
)
# spans and counters that must record calls > 0 on each workload's traced run
EXPECTED_CALLS = {w: tuple(t.name for t in SPANS + COUNTERS if w in t.on) for w in ALL}


class Tracer:
    """Call counts, inclusive and self times, kept in memory."""

    def __init__(self):
        self.calls = Counter()
        self.total = Counter()
        self.self_time = Counter()
        self.found = 0                  # subgroups returned by isotropic_subgroups
        self.q_in_subgroups = 0         # q_value calls made inside isotropic_subgroups
        self.tiers = (0, 0, 0)          # census sizes of the last reconstruct_24
        self._stack: list[float] = []   # time of wrapped children, per open span
        self._in_subgroups = 0
        self._restore: list[tuple[object, str, object]] = []

    def _span(self, name, fn):
        stack, calls, total, self_time = self._stack, self.calls, self.total, self.self_time

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            stack.append(0.0)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - start
                total[name] += dur
                self_time[name] += dur - stack.pop()
                if stack:
                    stack[-1] += dur

        return wrapper

    def _counter(self, name, fn):
        calls = self.calls
        in_subgroups = name == "discform.q_value"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            if in_subgroups and self._in_subgroups:
                self.q_in_subgroups += 1
            return fn(*args, **kwargs)

        return wrapper

    def _wrap(self, name, fn):
        if name == "discform.isotropic_subgroups":
            @functools.wraps(fn)
            def scoped(*args, **kwargs):
                self._in_subgroups += 1
                try:
                    out = fn(*args, **kwargs)
                finally:
                    self._in_subgroups -= 1
                self.found += len(out)
                return out

            return self._span(name, scoped)
        if name == "reconstruct.reconstruct_24":
            @functools.wraps(fn)
            def census(*args, **kwargs):
                rec = fn(*args, **kwargs)
                self.tiers = (rec.tier1_count, len(rec.tier2), len(rec.tier3))
                return rec

            return self._span(name, census)
        return self._span(name, fn)

    def install(self):
        if self._restore:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in sys.modules.items() if n == "evenlat" or n.startswith("evenlat.")]
        for kind, targets in ((self._wrap, SPANS), (self._counter, COUNTERS)):
            for t in targets:
                owner = importlib.import_module(f"evenlat.{t.module}")
                if "." in t.path:
                    cls_name, attr = t.path.split(".")
                    cls = getattr(owner, cls_name)
                    self._patch(cls, attr, kind(t.name, vars(cls)[attr]))
                    continue
                original = getattr(owner, t.path)
                wrapper = kind(t.name, original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, attr, wrapper)

    def _patch(self, owner, attr, value):
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def counts(self) -> tuple:
        """Everything that must repeat exactly from one traced round to the next."""
        return (tuple(sorted(self.calls.items())), self.found, self.q_in_subgroups, self.tiers)


def per_layer(rounds: list[Tracer], overhead_s: float) -> dict[str, float]:
    """Per-layer metrics, each per round of the workload's inputs.

    Counts are taken from the first traced round (run.py checks that every
    round repeats them exactly); times are means over the rounds.
    """
    first = rounds[0]

    def mean_time(attr, span):
        return sum(getattr(t, attr)[span] for t in rounds) / len(rounds)

    out = {}
    for t in SPANS:
        if "calls" in t.metrics:
            out[f"{t.name}.calls"] = first.calls[t.name]
        if "self_s" in t.metrics:
            out[f"{t.name}.self_s"] = mean_time("self_time", t.name)
    for t in COUNTERS:
        out[f"{t.name}.calls"] = first.calls[t.name]
    out["discform.isotropic_subgroups.found"] = first.found
    out["discform.isotropic_subgroups.yield"] = (
        first.found / first.q_in_subgroups if first.q_in_subgroups else 0.0
    )
    for tier, count in enumerate(first.tiers, 1):
        out[f"reconstruct.tier{tier}_count"] = count
    for rid in ENTRIES:
        out[f"verify.{rid}.s"] = sum(mean_time("total", t.name) for t in SPANS if t.entry == rid)
    out["trace.overhead_s"] = overhead_s
    return out
