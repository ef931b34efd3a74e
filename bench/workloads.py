"""The benchmark's four workloads: seeded inputs and the command run on each.

Inputs are built through ``lineconsistency.generate`` (stars and paths are
assembled edge by edge) and depend only on the workload name and the seed.
Sizes follow fixed ladders, so that runs on different seeds measure the same
mix of work; the seed picks the structure within each size.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Callable

from lineconsistency import generate
from lineconsistency.core import SignedGraph, new_signed_graph

import reference


@dataclass(frozen=True)
class Input:
    kind: str
    graph: SignedGraph


class GenerateClock:
    """Total time spent inside ``lineconsistency.generate`` calls."""

    def __init__(self):
        self.seconds = 0.0

    def call(self, fn, *args):
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self.seconds += time.perf_counter() - start


@dataclass(frozen=True)
class Workload:
    name: str
    argv: tuple  # CLI arguments; the input file is appended
    # Nominal seconds of one pass over the inputs on a 2-vCPU VM; a run of S
    # seconds makes round(S / pass_seconds) passes.
    pass_seconds: float
    build: Callable  # (seed, GenerateClock) -> list of Input


def _rng(workload: str, seed: int, *key) -> random.Random:
    return random.Random("/".join(map(str, (workload, seed) + key)))


def _ladder(low: int, high: int, steps: int) -> list:
    return [round(low * (high / low) ** (i / (steps - 1))) for i in range(steps)]


# Mean edge count one part of every kind adds to a large recipe: circles of
# 5, closed paths of 5, induced paths of 6, isthmus paths of 3.5, two
# pendant paths of 1.5 and four scaffold-tree edges.
LARGE_PART_EDGES = 26.5


def _large_recipe(edges: int, rng: random.Random) -> generate.Recipe:
    parts = max(1, round(edges / LARGE_PART_EDGES))
    return generate.Recipe(
        negative_circles=tuple(rng.choice((2, 4, 6, 8)) for _ in range(parts)),
        closing_paths=tuple(rng.choice((2, 4, 6)) for _ in range(parts)),
        induced_paths=tuple(rng.choice((2, 4, 6)) for _ in range(parts)),
        isthmus_paths=tuple(rng.randint(1, 6) for _ in range(parts)),
        pendant_positives=2 * parts,
        scaffold_tree=4 * parts,
    )


def _large_graph(name, seed, index, edges, clock):
    rng = _rng(name, seed, index)
    recipe = _large_recipe(edges, rng)
    return clock.call(generate.generate_line_consistent, recipe, rng.randrange(2**32))


def _consistent_large(seed, clock):
    name = "check-consistent-large"
    return [
        Input("recipe", _large_graph(name, seed, i, edges, clock))
        for i, edges in enumerate(_ladder(2_000, 50_000, 12))
    ]


def _flip_circle_edge(graph: SignedGraph, rng: random.Random) -> SignedGraph:
    """Make one edge of an all-negative circle component positive."""
    doc = {
        "vertices": list(graph.vertices),
        "edges": [
            {"id": e.id, "u": e.u, "v": e.v, "sign": e.sign.value}
            for e in graph.edges
        ],
    }
    degree = {}
    for e in graph.negative_edges:
        degree[e.u] = degree.get(e.u, 0) + 1
        degree[e.v] = degree.get(e.v, 0) + 1
    circles = [
        sorted(edges)
        for vertices, edges in reference.negative_components(doc)
        if edges and all(degree[v] == 2 for v in vertices)
    ]
    flip = rng.choice(rng.choice(circles))
    return new_signed_graph(
        graph.vertices,
        [(e.id, e.u, e.v, "+" if e.id == flip else e.sign.value) for e in graph.edges],
    )


def _star(degree: int, negatives: int, rng: random.Random) -> SignedGraph:
    signs = ["-"] * negatives + ["+"] * (degree - negatives)
    rng.shuffle(signs)
    return new_signed_graph(
        ["c"] + [f"l{i}" for i in range(degree)],
        [(f"e{i}", "c", f"l{i}", sign) for i, sign in enumerate(signs)],
    )


def _inconsistent_witness(seed, clock):
    name = "check-inconsistent-witness"
    inputs = []
    for i, edges in enumerate(_ladder(2_000, 32_000, 5)):
        graph = _large_graph(name, seed, i, edges, clock)
        inputs.append(Input("flipped", _flip_circle_edge(graph, _rng(name, seed, "flip", i))))
    for p in (0.1, 0.2, 0.3):
        rng = _rng(name, seed, "random", p)
        graph = clock.call(generate.random_signed_graph, 2_000, 4_000, p, rng.randrange(2**32))
        inputs.append(Input("random-sparse", graph))
    for i, degree in enumerate(range(20, 61, 5)):
        share = (0.25, 0.5, 0.75)[i % 3]
        inputs.append(Input("star", _star(degree, round(share * degree), _rng(name, seed, "star", i))))
    return inputs


# Mean edge count of one small part: circles of 3, closed paths of 4, induced
# paths of 5, isthmus paths of 2 and one pendant path of 1.5.
SMALL_PART_EDGES = 15.5


def _mixed_path(edges: int, rng: random.Random) -> SignedGraph:
    """A path of runs of one to three negative edges between positive ones."""
    signs = []
    while len(signs) < edges:
        signs += ["+"] + ["-"] * rng.randint(1, 3)
    return new_signed_graph(
        [f"p{i}" for i in range(edges + 1)],
        [(f"e{i}", f"p{i}", f"p{i + 1}", signs[i]) for i in range(edges)],
    )


def _decompose_large(seed, clock):
    name = "decompose-large"
    inputs = []
    sizes = (2_000, 2_000, 2_200, 2_200, 2_500, 2_500, 3_000, 3_000, 4_000, 4_000, 5_600, 6_000)
    for i, edges in enumerate(sizes):
        rng = _rng(name, seed, i)
        if i % 2:
            inputs.append(Input("path", _mixed_path(edges, rng)))
            continue
        parts = round(edges / SMALL_PART_EDGES)
        recipe = generate.Recipe(
            negative_circles=tuple(rng.choice((2, 4)) for _ in range(parts)),
            closing_paths=tuple(rng.choice((2, 4)) for _ in range(parts)),
            induced_paths=tuple(rng.choice((2, 4)) for _ in range(parts)),
            isthmus_paths=tuple(rng.randint(1, 3) for _ in range(parts)),
            pendant_positives=parts,
        )
        graph = clock.call(generate.generate_line_consistent, recipe, rng.randrange(2**32))
        inputs.append(Input("recipe-decompose", graph))
    return inputs


# Vertex and edge names built from '~' and '@', so that some line-graph edge
# ids collide in the program's text form.
_VERTEX_NAMES = ("x", "y", "x@y", "y@x", "x~y", "c", "d", "@", "c@d")
_EDGE_NAMES = (
    "1", "2", "3", "2@x", "1~2", "2@y", "1@x", "x", "~", "@", "3@x", "2~3",
    "1@x@y", "2@x@y", "e", "e@c", "1~2@x", "3~1",
)
NEGATIVE_SHARES = (0.0, 0.15, 0.35, 0.5, 0.65, 0.85, 1.0)


def _relabel(graph: SignedGraph, rng: random.Random) -> SignedGraph:
    vertex = dict(zip(graph.vertices, rng.sample(_VERTEX_NAMES, len(graph.vertices))))
    edge = dict(zip((e.id for e in graph.edges), rng.sample(_EDGE_NAMES, len(graph.edges))))
    return new_signed_graph(
        vertex.values(),
        [(edge[e.id], vertex[e.u], vertex[e.v], e.sign.value) for e in graph.edges],
    )


def roadmap_collision() -> SignedGraph:
    """Edges ``1`` and ``2`` meet at ``x@y`` and edges ``1`` and ``2@x`` meet
    at ``y``; both line-graph edges are named ``1~2@x@y``."""
    return new_signed_graph(
        ["x@y", "y", "c", "d"],
        [("1", "x@y", "y", "+"), ("2", "x@y", "c", "+"), ("2@x", "y", "d", "+")],
    )


def _crossval_small(seed, clock):
    name = "crossval-small"
    rng = _rng(name, seed)
    inputs = [Input("collision", roadmap_collision())]
    for i in range(2_400):
        if i % 8 == 7:
            recipe = generate.random_recipe(rng.randrange(2**32))
            graph = clock.call(generate.generate_line_consistent, recipe, rng.randrange(2**32))
            inputs.append(Input("small-recipe", graph))
            continue
        # n, negative share and m cycle on fixed grids, so every pool holds
        # the same number of graphs of each shape; the seed picks which
        # vertex pairs carry the edges and which edges are negative
        n = 2 + i % 6
        share = NEGATIVE_SHARES[(i // 6) % len(NEGATIVE_SHARES)]
        m = (i // 42) % (min(12, n * (n - 1)) + 1)
        graph = clock.call(generate.random_signed_graph, n, m, share, rng.randrange(2**32))
        if i % 10 == 3:
            inputs.append(Input("small-relabeled", _relabel(graph, rng)))
        else:
            inputs.append(Input("small-random", graph))
    return inputs


# BENCHMARK.json states why each workload exists.  decompose-large is not
# listed there: it is the only workload where classify_structure runs at a
# size where its per-component rescans show, but its verdicts take 0.2-2 s,
# so a run holds about two dozen samples and its median moved by 30% from
# run to run on a shared 2-vCPU VM.  Run it by name to measure the classifier.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("check-consistent-large", ("check", "--method", "ii", "--witness"),
                 3.8, _consistent_large),
        Workload("check-inconsistent-witness", ("check", "--method", "ii", "--witness"),
                 4.5, _inconsistent_witness),
        Workload("decompose-large", ("decompose",), 7.0, _decompose_large),
        Workload("crossval-small", ("check", "--witness"), 5.0, _crossval_small),
    )
}
