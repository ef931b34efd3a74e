"""Spans around the program's public functions, recorded from outside it.

``Tracer.installed()`` replaces each function named in ``SPANS`` by a wrapper,
at the name its callers look it up under (``cli.line_graph`` and
``analysis.line_graph`` are separate bindings), and puts the originals back
on exit.  No file of the program changes.  Spans are kept in memory as
``[name, start, end, parent index, verdict id]`` and reduced to per-layer
totals afterwards; a layer's self time is its spans' time minus that of
their direct children.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict
from contextlib import contextmanager

from lineconsistency import analysis, cli, core, io

# (owner, attribute, span name, layer)
SPANS = (
    (cli, "main", "cli.main", "cli"),
    (cli, "read_signed_graph", "io.read_signed_graph", "io.read"),
    (io, "new_signed_graph", "core.new_signed_graph", "core.build"),
    (core.SignedGraph, "__post_init__", "core.SignedGraph", "core.build"),
    (core.SignedGraph, "negative_subgraph", "core.negative_subgraph", "core.build"),
    (core.SignedGraph, "without_edges", "core.without_edges", "core.build"),
    (analysis, "find_isthmi", "traversal.find_isthmi", "traversal.bridges"),
    (analysis, "blocks", "traversal.blocks", "traversal.bridges"),
    (analysis, "is_balanced_fast", "cycles.is_balanced_fast", "cycles.balance"),
    (analysis, "find_negative_circle", "cycles.find_negative_circle", "cycles.balance"),
    (cli, "is_consistent_oracle", "cycles.is_consistent_oracle", "cycles.oracle"),
    (analysis, "is_consistent_oracle", "cycles.is_consistent_oracle", "cycles.oracle"),
    (analysis, "enumerate_circles", "cycles.enumerate_circles", "cycles.enumerate"),
    (cli, "line_graph", "linegraph.line_graph", "linegraph.build"),
    (analysis, "line_graph", "linegraph.line_graph", "linegraph.build"),
    (analysis, "check_condition_ii", "analysis.check_condition_ii", "analysis.condition_ii"),
    (analysis, "classify_structure", "analysis.classify_structure", "analysis.classify"),
    (analysis, "find_witness", "analysis.find_witness", "analysis.witness"),
    (analysis, "check_condition_i", "analysis.check_condition_i", "analysis.crosscheck"),
    (analysis, "check_condition_iii", "analysis.check_condition_iii", "analysis.crosscheck"),
    (analysis, "check_theorem1_simple", "analysis.check_theorem1_simple", "analysis.crosscheck"),
    (analysis, "check_corollary_3", "analysis.check_corollary_3", "analysis.crosscheck"),
)
LAYER = {name: layer for _, _, name, layer in SPANS}

# (metric, unit, how to read it from a Totals)
LAYER_METRICS = (
    ("cli.self_ms", "ms", lambda t: t.self_ms("cli")),
    ("io.read_ms", "ms", lambda t: t.inclusive_ms("io.read")),
    ("io.read_self_ms", "ms", lambda t: t.self_ms("io.read")),
    ("core.build_ms", "ms", lambda t: t.inclusive_ms("core.build")),
    ("core.graphs_built", "count", lambda t: t.calls["core.SignedGraph"]),
    ("traversal.bridges_ms", "ms", lambda t: t.inclusive_ms("traversal.bridges")),
    ("traversal.bridge_passes", "count",
     lambda t: t.calls["traversal.find_isthmi"] + t.calls["traversal.blocks"]),
    ("cycles.balance_ms", "ms", lambda t: t.inclusive_ms("cycles.balance")),
    ("cycles.balance_passes", "count",
     lambda t: t.calls["cycles.is_balanced_fast"] + t.calls["cycles.find_negative_circle"]),
    ("cycles.oracle_ms", "ms", lambda t: t.inclusive_ms("cycles.oracle")),
    ("cycles.enumerate_ms", "ms", lambda t: t.inclusive_ms("cycles.enumerate")),
    ("linegraph.build_ms", "ms", lambda t: t.inclusive_ms("linegraph.build")),
    ("linegraph.line_edges", "count", lambda t: t.counts["line_edges"]),
    ("analysis.condition_ii_self_ms", "ms", lambda t: t.self_ms("analysis.condition_ii")),
    ("analysis.classify_self_ms", "ms", lambda t: t.self_ms("analysis.classify")),
    ("analysis.crosscheck_ms", "ms", lambda t: t.inclusive_ms("analysis.crosscheck")),
    ("analysis.witness_self_ms", "ms", lambda t: t.self_ms("analysis.witness")),
    ("analysis.witness_candidates", "count", lambda t: t.counts["witness_candidates"]),
    ("analysis.witness_oracle_fallbacks", "count", lambda t: t.oracle_fallbacks),
)
COUNT_METRICS = tuple(name for name, unit, _ in LAYER_METRICS if unit == "count")


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = defaultdict(Counter)  # verdict id -> counter
        self.verdict = None
        self._stack = []

    def _span(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else None, self.verdict]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if name == "linegraph.line_graph":
                self.counts[self.verdict]["line_edges"] += len(result.edges)
            return result

        return traced

    def _count_witness_candidates(self, fn):
        spans, stack = self.spans, self._stack

        def counted(*args, **kwargs):
            if stack and spans[stack[-1]][0] == "analysis.find_witness":
                self.counts[self.verdict]["witness_candidates"] += 1
            return fn(*args, **kwargs)

        return counted

    @contextmanager
    def installed(self):
        """Wrap every function in SPANS, and candidate sign checks, for the
        duration of the block."""
        originals = [(owner, attr, owner.__dict__[attr]) for owner, attr, _, _ in SPANS]
        originals.append((analysis, "circle_vertex_sign", analysis.circle_vertex_sign))
        try:
            for owner, attr, name, _ in SPANS:
                setattr(owner, attr, self._span(name, owner.__dict__[attr]))
            analysis.circle_vertex_sign = self._count_witness_candidates(
                analysis.circle_vertex_sign
            )
            yield self
        finally:
            for owner, attr, original in originals:
                setattr(owner, attr, original)


class Totals:
    """Per-layer inclusive and self times, span counts and counters."""

    def __init__(self):
        self.inclusive = Counter()
        self.self_time = Counter()
        self.calls = Counter()
        self.counts = Counter()
        self.oracle_fallbacks = 0

    def inclusive_ms(self, layer):
        return 1e3 * self.inclusive[layer]

    def self_ms(self, layer):
        return 1e3 * self.self_time[layer]

    def metrics(self) -> dict:
        return {name: read(self) for name, _, read in LAYER_METRICS}


def totals_by_verdict(tracer: Tracer) -> dict:
    """verdict id -> Totals; inclusive time counts a span only when no
    ancestor belongs to the same layer."""
    spans = tracer.spans
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent is not None:
            child_time[parent] += end - start
    by_verdict = defaultdict(Totals)
    for i, (name, start, end, parent, verdict) in enumerate(spans):
        layer = LAYER[name]
        totals = by_verdict[verdict]
        totals.self_time[layer] += end - start - child_time[i]
        totals.calls[name] += 1
        if name == "cycles.is_consistent_oracle" and parent is not None \
                and spans[parent][0] == "analysis.find_witness":
            totals.oracle_fallbacks += 1
        ancestor = parent
        while ancestor is not None and LAYER[spans[ancestor][0]] != layer:
            ancestor = spans[ancestor][3]
        if ancestor is None:
            totals.inclusive[layer] += end - start
    for verdict, counts in tracer.counts.items():
        by_verdict[verdict].counts.update(counts)
    return by_verdict


def merge(parts) -> Totals:
    total = Totals()
    for part in parts:
        total.inclusive.update(part.inclusive)
        total.self_time.update(part.self_time)
        total.calls.update(part.calls)
        total.counts.update(part.counts)
        total.oracle_fallbacks += part.oracle_fallbacks
    return total
