"""Circle enumeration and the definitional balance/consistency oracles.

The enumerator works on signed or marked multigraphs: digons come from
unordered parallel-edge pairs, longer circles from an elementary vertex-cycle
search confined to biconnected blocks, expanded over every choice of parallel
edge.  Cycle counts grow exponentially, so enumeration carries a hard cap;
these oracles are desk-scale tools by design.
"""

from __future__ import annotations

import itertools
from collections import defaultdict
from typing import NamedTuple, Optional

from .core import Circle, GraphError, Sign, SignedGraph, sign_product

DEFAULT_CIRCLE_CAP = 1_000_000


class CircleLimitError(GraphError):
    """Raised when enumeration would exceed the configured circle cap."""


class ConsistencyResult(NamedTuple):
    consistent: bool
    witness: Optional[Circle]


def _parallel_groups(edge_triples):
    groups = defaultdict(list)
    for eid, u, v in edge_triples:
        groups[(min(u, v), max(u, v))].append(eid)
    return {pair: sorted(eids) for pair, eids in sorted(groups.items())}


def _simple_adjacency(vertex_ids, edge_triples):
    """The underlying simple graph: vertex -> sorted distinct neighbours, and
    the parallel groups (sorted endpoint pair -> sorted edge ids)."""
    pair_edges = _parallel_groups(edge_triples)
    adj = {x: [] for x in vertex_ids}
    for u, v in pair_edges:
        adj[u].append(v)
        adj[v].append(u)
    return {x: tuple(sorted(ws)) for x, ws in adj.items()}, pair_edges


def _vertex_cycles_through(adj, start, banned):
    """Elementary vertex cycles (length >= 3) through ``start``.

    ``adj`` maps vertex -> sorted distinct neighbours.  Cycles visiting any
    vertex in ``banned`` are skipped; each cycle is produced once (the reverse
    traversal is suppressed by requiring path[1] < path[-1]).
    """
    path = [start]
    on_path = {start}
    stack = [iter(adj[start])]
    while stack:
        w = next(stack[-1], None)
        if w is None:
            stack.pop()
            on_path.discard(path.pop())
            continue
        if w == start:
            if len(path) >= 3 and path[1] < path[-1]:
                yield tuple(path)
            continue
        if w in on_path or w in banned:
            continue
        path.append(w)
        on_path.add(w)
        stack.append(iter(adj[w]))


def circles_through(graph, targets, max_circles):
    """Yield canonical circles of ``graph`` containing a target vertex.

    ``targets=None`` means every vertex, i.e. full enumeration.  Each circle
    is yielded exactly once: at its first target in sorted order.  Raises
    CircleLimitError once more than ``max_circles`` circles are yielded.
    """
    count = 0

    def emit(circle):
        nonlocal count
        count += 1
        if count > max_circles:
            raise CircleLimitError(f"more than {max_circles} circles")
        return circle

    target_set = set(graph.vertex_ids if targets is None else targets)
    # a circle through a target, digons included, lies in a block holding it
    blocks = [b for b in graph.traversal.blocks if not b[0].isdisjoint(target_set)]
    by_id = {eid: (eid, *graph._endpoints(graph._edge_number(eid)))
             for b in blocks for eid in b[1]}
    for (u, v), eids in _parallel_groups(by_id.values()).items():
        if len(eids) < 2:
            continue
        if u not in target_set and v not in target_set:
            continue
        for a, b in itertools.combinations(eids, 2):
            yield emit(Circle((a, b), (u, v)).canonical())

    for block_vertices, block_edges in blocks:
        if len(block_edges) < 3:
            continue
        block_targets = sorted(block_vertices & target_set)
        adj, pair_edges = _simple_adjacency(block_vertices, map(by_id.get, block_edges))
        for i, t in enumerate(block_targets):
            banned = set(block_targets[:i])
            for vertex_cycle in _vertex_cycles_through(adj, t, banned):
                pairs = zip(vertex_cycle, vertex_cycle[1:] + vertex_cycle[:1])
                choices = [pair_edges[(min(a, b), max(a, b))] for a, b in pairs]
                for combo in itertools.product(*choices):
                    yield emit(Circle(combo, vertex_cycle).canonical())


def _first_circle_through(adj, pair_edges, target, banned):
    """The first circle through ``target`` avoiding ``banned``, or None, in a
    graph given by ``_simple_adjacency``.

    Deterministic (sorted adjacency, lexicographically least parallel edges);
    used as a fast path by the consistency oracle.
    """
    for w in adj[target]:
        pair = (min(target, w), max(target, w))
        if len(pair_edges[pair]) >= 2 and w not in banned:
            return Circle(tuple(pair_edges[pair][:2]), pair).canonical()
    for vertex_cycle in _vertex_cycles_through(adj, target, banned):
        pairs = zip(vertex_cycle, vertex_cycle[1:] + vertex_cycle[:1])
        edges = tuple(pair_edges[(min(a, b), max(a, b))][0] for a, b in pairs)
        return Circle(edges, vertex_cycle).canonical()
    return None


def enumerate_circles(graph, *, max_circles: int = DEFAULT_CIRCLE_CAP) -> list:
    """Every elementary circle exactly once, canonical, deterministic order.

    Works on SignedGraph and MarkedGraph alike.  Raises CircleLimitError when
    the graph has more than ``max_circles`` circles.
    """
    return list(circles_through(graph, None, max_circles))


def is_balanced_oracle(graph: SignedGraph, *,
                       max_circles: int = DEFAULT_CIRCLE_CAP) -> bool:
    """Balance by definition: every circle has positive edge-sign product."""
    for circle in circles_through(graph, None, max_circles):
        if graph.sign_of_walk(circle).is_negative:
            return False
    return True


def is_balanced_fast(graph: SignedGraph) -> bool:
    """Balance in linear time, from the switching parities of the graph's
    depth-first search."""
    return graph.traversal.balanced


def find_negative_circle(graph: SignedGraph) -> Optional[Circle]:
    """A negative circle when the graph is unbalanced, else None.

    The witness is the fundamental circle of the first conflicting edge found
    by the graph's depth-first search: the tree path between its endpoints
    plus the edge.  Its sign is checked on the graph's columns.
    """
    cycle = graph.traversal.negative_cycle()
    if cycle is None:
        return None
    circle = Circle(*cycle).canonical()
    if graph.sign_of_walk(circle).is_positive:
        raise GraphError(f"the search's circle {circle} is not negative")
    return circle


def circle_vertex_sign(marked, circle: Circle) -> Sign:
    """Product of the vertex marks around a circle of a marked graph."""
    from .core import validate_circle

    validate_circle(marked, circle)
    return sign_product(marked.mark(v) for v in circle.vertices)


def is_consistent_oracle(marked, *,
                         max_circles: int = DEFAULT_CIRCLE_CAP) -> ConsistencyResult:
    """Consistency by definition, with a violating circle as witness.

    Circles avoiding every negative vertex are positive by inspection, so only
    circles through a negative vertex are enumerated.  A fast pass first looks
    for a circle through exactly one negative vertex (such a circle is negative
    outright, and enumeration order can otherwise bury it in dense graphs);
    the full restricted enumeration then decides, returning the first negative
    circle found in deterministic order as witness.
    """
    targets = marked.negative_vertex_ids
    if not targets:
        return ConsistencyResult(True, None)
    target_set = set(targets)
    adj, pair_edges = _simple_adjacency(marked.vertex_ids, marked.edge_triples())
    for t in targets:
        circle = _first_circle_through(adj, pair_edges, t, target_set - {t})
        if circle is not None:
            return ConsistencyResult(False, circle)
    for circle in circles_through(marked, targets, max_circles):
        if sign_product(marked.mark(v) for v in circle.vertices).is_negative:
            return ConsistencyResult(False, circle)
    return ConsistencyResult(True, None)
