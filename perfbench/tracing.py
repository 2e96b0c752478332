"""Per-layer tracing from outside the program.

While installed, a :class:`Tracer` replaces each traced function of the
``mahlercf`` layers with a wrapper that records a span (name, start, end,
parent) and the counts of the work it was given. Replacement patches module
attributes, so names bound by ``from ... import`` in other modules are
patched too, and a method is patched on its class. Nothing under ``src/`` is
edited, and uninstalling restores every attribute.

Spans stay in memory until the run ends. A span's self time is its duration
minus the part of it that its child spans cover; children running on
several threads may overlap, so their union is subtracted, not their sum.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import itertools
import os
import statistics
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from fractions import Fraction

LAYERS = ("fields", "recurrence", "laurent", "conditions", "patterns", "search", "kernels", "cli")

# The traced functions of each layer: its public functions, minus the
# per-element helpers (fp_inv, as_scalar, is_prime, ...) whose wrapper would
# cost more than their body, and the generator iter_witnesses, whose body
# runs interleaved with its consumer. cli adds _emit, the document writer.
TARGETS = {
    "fields": ("primes_between", "poly_roots_mod_p"),
    "recurrence": ("init_run", "extend_run", "run_over_q", "run_mod_p",
                   "history_mod_p", "first_beta_zero", "RecurrenceRun.extend"),
    "laurent": ("expand_g", "cf_extract", "convergents", "convergent_denominator_degrees",
                "residual_valuation", "mu_estimate"),
    "conditions": ("satisfying_pairs", "check_pair", "covered", "covered_up_to"),
    "patterns": ("spec_from_witness", "specs_for_prime", "expected_sequences",
                 "check_run_against", "verify_lemma", "nonzero_beta_catalog"),
    "search": ("scan_prime", "scan_range", "condition_tables", "density"),
    "kernels": ("run_history", "first_zero", "scan_grid", "density_count"),
    "cli": ("main", "_emit"),
}


def _history_indices(a, r):
    # run_history returns (alphas, betas, fail_index, cause) and runs to the
    # block boundary >= n when no beta vanishes
    n = a["n"]
    return {"indices": r[2] or n + (-n) % 3}


def _emitted_bytes(a, r):
    out = getattr(a["args"], "out", None)
    return {"bytes": os.path.getsize(out) if out else 0}


# Work counts per call, from the bound arguments and the result.
COUNTERS = {
    "kernels.scan_grid": lambda a, r: {
        "cells": a["p"] ** 2,
        # each pair runs to its first zero, a survivor to the horizon n
        "index_steps": int((r + (r == 0) * a["n"]).sum()),
    },
    "kernels.density_count": lambda a, r: {
        "cells": (a["u_hi"] - a["u_lo"] + 1) * (2 * a["b"] + 1),
    },
    "kernels.run_history": _history_indices,
    "laurent.expand_g": lambda a, r: {"depth": a["depth"]},
    "laurent.cf_extract": lambda a, r: {"terms": len(r)},
    "cli._emit": _emitted_bytes,
}


def _extend_name(a):
    return "recurrence.RecurrenceRun.extend." + ("q" if isinstance(a["self"].u, Fraction) else "fp")


# Spans whose name depends on the call: extend over Q and over F_p.
NAMERS = {"recurrence.RecurrenceRun.extend": _extend_name}

ROOT_PREFIX = "job."  # spans the benchmark opens around each timed call


@dataclass
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: int | None
    counts: dict = field(default_factory=dict)


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    out = {}
    for s in spans:
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children[s.sid]):
            lo, hi = max(lo, s.start), min(hi, s.end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[s.sid] = (s.end - s.start) - covered
    return out


class Tracer:
    """Collects spans from the wrapped layer functions of one process."""

    def __init__(self):
        self.spans: list[Span] = []
        self.missing: list[str] = []  # targets the program no longer has
        self._ids = itertools.count()
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._local.stack = self._main_stack

    def _parent(self) -> int | None:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            # a pool thread: the span that caused it is the one the main
            # thread has open while it waits for the pool
            stack = self._local.stack = []
        if stack:
            return stack[-1]
        return self._main_stack[-1] if self._main_stack else None

    @contextlib.contextmanager
    def span(self, name: str):
        """Record a span around a block; yields the Span (counts may be added)."""
        span = Span(next(self._ids), name, 0.0, 0.0, self._parent())
        stack = self._local.stack
        stack.append(span.sid)
        span.start = time.perf_counter()
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            stack.pop()
            self.spans.append(span)

    def _wrap(self, name: str, fn):
        counter = COUNTERS.get(name)
        namer = NAMERS.get(name)
        sig = inspect.signature(fn) if counter or namer else None
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            bound = sig.bind(*args, **kwargs).arguments if sig else None
            with tracer.span(namer(bound) if namer else name) as span:
                result = fn(*args, **kwargs)
            if counter:  # counted after the span ends, outside its time
                span.counts = counter(bound, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Patch every traced function for the duration of the block."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "mahlercf" or n.startswith("mahlercf."))]
        wrappers = {}  # original function -> wrapper
        restore = []  # (owner, attribute, original)
        for layer, names in TARGETS.items():
            module = sys.modules.get(f"mahlercf.{layer}")
            for dotted in names:
                owner_name, _, attr = dotted.rpartition(".")
                owner = getattr(module, owner_name, None) if owner_name else module
                original = vars(owner).get(attr) if owner is not None else None
                if original is None:
                    self.missing.append(f"{layer}.{dotted}")
                    continue
                wrapper = self._wrap(f"{layer}.{dotted}", original)
                if owner is module:
                    wrappers[original] = wrapper
                else:
                    restore.append((owner, attr, original))
                    setattr(owner, attr, wrapper)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    restore.append((module, attr, value))
                    setattr(module, attr, wrappers[value])
        try:
            yield self
        finally:
            for owner, attr, original in reversed(restore):
                setattr(owner, attr, original)


def aggregate(spans: list[Span]) -> dict[str, dict]:
    """Per span name: calls, inclusive seconds, self seconds and summed counts."""
    selfs = self_times(spans)
    out: dict[str, dict] = {}
    for s in spans:
        row = out.setdefault(s.name, defaultdict(int))
        row["calls"] += 1
        row["s"] += s.end - s.start
        row["self_s"] += selfs[s.sid]
        for key, value in s.counts.items():
            row[key] += value
    return out


# (metric, unit): "<span name>.<field>" for spans, "<layer>.self_s" for the
# self time of a whole layer, "trace.*" for the run itself.
PER_LAYER = [
    ("kernels.scan_grid.s", "s"), ("kernels.scan_grid.calls", "count"),
    ("kernels.scan_grid.cells", "count"), ("kernels.scan_grid.index_steps", "count"),
    ("kernels.density_count.s", "s"), ("kernels.density_count.calls", "count"),
    ("kernels.density_count.cells", "count"),
    ("kernels.run_history.s", "s"), ("kernels.run_history.calls", "count"),
    ("kernels.run_history.indices", "count"),
    ("search.condition_tables.s", "s"), ("search.scan_prime.self_s", "s"),
    ("search.scan_range.self_s", "s"), ("search.density.self_s", "s"),
    ("conditions.satisfying_pairs.s", "s"), ("conditions.satisfying_pairs.calls", "count"),
    ("conditions.covered_up_to.s", "s"), ("conditions.covered_up_to.calls", "count"),
    ("conditions.check_pair.calls", "count"),
    ("fields.poly_roots_mod_p.s", "s"), ("fields.poly_roots_mod_p.calls", "count"),
    ("fields.primes_between.s", "s"), ("fields.primes_between.calls", "count"),
    ("recurrence.RecurrenceRun.extend.q.s", "s"), ("recurrence.RecurrenceRun.extend.fp.s", "s"),
    ("recurrence.history_mod_p.self_s", "s"),
    ("patterns.specs_for_prime.s", "s"), ("patterns.specs_for_prime.calls", "count"),
    ("patterns.expected_sequences.s", "s"), ("patterns.check_run_against.s", "s"),
    ("patterns.verify_lemma.calls", "count"),
    ("laurent.expand_g.s", "s"), ("laurent.expand_g.calls", "count"),
    ("laurent.expand_g.depth", "count"),
    ("laurent.cf_extract.s", "s"), ("laurent.cf_extract.calls", "count"),
    ("laurent.cf_extract.terms", "count"), ("laurent.convergent_denominator_degrees.s", "s"),
    ("cli._emit.s", "s"), ("cli._emit.bytes", "bytes"), ("cli.main.self_s", "s"),
] + [(f"{layer}.self_s", "s") for layer in LAYERS] + [
    ("trace.untraced_wall_s", "s"), ("trace.traced_wall_s", "s"), ("trace.overhead_s", "s"),
    ("trace.layer_self_s", "s"), ("trace.spans", "count"),
]


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """The span-derived PER_LAYER values of one traced pass (0 for idle layers)."""
    rows = aggregate(spans)
    out = {}
    for metric, _ in PER_LAYER:
        if metric.startswith("trace."):
            continue
        name, fld = metric.rsplit(".", 1)
        if name in LAYERS:
            out[metric] = sum(r["self_s"] for n, r in rows.items() if n.split(".", 1)[0] == name)
        else:
            out[metric] = rows.get(name, {}).get(fld, 0)
    out["trace.layer_self_s"] = sum(out[f"{layer}.self_s"] for layer in LAYERS)
    out["trace.spans"] = len(spans)
    return out


def median_metrics(passes: list[dict[str, float]]) -> dict[str, float]:
    """Per metric, the median over traced passes (counts repeat exactly)."""
    return {k: statistics.median(p[k] for p in passes) for k in passes[0]}
