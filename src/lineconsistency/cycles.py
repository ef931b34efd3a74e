"""Circle enumeration, ``circle_vertex_sign`` and the definitional balance and
consistency oracles.  Enumeration and the oracles search signed or marked
multigraphs on their integer columns: digons come from parallel-edge groups,
longer circles from a depth-first vertex-cycle search in each block that
prunes every branch closing no circle, expanded over every choice of parallel
edge.  So the work per circle is polynomial and the cap bounds time too; only
the number of circles grows exponentially.
"""

from __future__ import annotations

from itertools import combinations, compress, product
from math import comb, prod
from typing import NamedTuple, Optional

from .core import Circle, GraphError, Sign, SignedGraph, _circle, sign_product, validate_circle

DEFAULT_CIRCLE_CAP = 1_000_000


class CircleLimitError(GraphError):
    """Raised when enumeration would exceed the configured circle cap."""


class ConsistencyResult(NamedTuple):
    consistent: bool
    witness: Optional[Circle]


def _adjacency(graph, edges) -> dict:
    """The simple graph under the edge numbers ``edges`` (ascending): vertex
    -> {neighbour: the edges joining them}, both in index (= id) order."""
    tail, ends, groups, adj = graph.tail, graph.ends, {}, {}
    for k in edges:
        a = tail[k]
        groups.setdefault((a, a ^ ends[k]), []).append(k)
    for (a, b), group in sorted(groups.items()):
        adj.setdefault(a, {})[b] = group
        adj.setdefault(b, {})[a] = group
    return adj


def _extensions(adj, path, blocked) -> list:
    """The search's moves from the end of ``path`` (path[0] is the start), in
    neighbour order: the start when it closes a cycle of length >= 3 with
    path[1] < path[-1], and each neighbour w outside ``blocked`` that reaches
    a neighbour y > path[1] (y > w at the root) of the start outside
    ``blocked``; the other branches close no counted cycle (Read & Tarjan
    1975, Networks 5(3)), so every search node leads to one."""
    start, last = path[0], path[-1]
    moves, reach = [], {}  # reach[x]: the greatest start neighbour x reaches
    for w in adj[last]:
        if w == start:
            if len(path) > 2 and path[1] < last:
                moves.append(w)
        elif w not in blocked:
            if w not in reach:
                part, top = [w], -1
                reach[w] = -1
                for x in part:  # part grows as the search reaches vertices
                    for y in adj[x]:
                        if y == start:
                            if x > top:
                                top = x
                        elif y not in blocked and y not in reach:
                            reach[y] = -1
                            part.append(y)
                reach.update(dict.fromkeys(part, top))
            if reach[w] > (path[1] if len(path) > 1 else w):
                moves.append(w)
    return moves


def _vertex_cycles(adj, start, blocked):
    """Elementary vertex cycles (length >= 3) through ``start`` avoiding the
    other vertices of ``blocked``, in depth-first order, with the edges
    joining their pairs.  ``blocked`` is the caller's set and holds
    ``start``; the search adds its path to it and removes it again, so an
    exhausted search leaves the set as it was given."""
    path = [start]
    stack = [iter(_extensions(adj, path, blocked))]
    while stack:
        w = next(stack[-1], None)
        if w is None:
            stack.pop()
            if stack:
                blocked.discard(path.pop())
        elif w == start:
            yield tuple(path), [adj[a][b] for a, b in zip(path, path[1:] + path[:1])]
        else:
            path.append(w)
            blocked.add(w)
            stack.append(iter(_extensions(adj, path, blocked)))


def _cycles_through(graph, targets):
    """Every vertex cycle through a vertex of the set ``targets``, in emission
    order, as (vertices, an iterator over its circles' edge numbers, their
    count): first the digons touching a target, by endpoint pair; then, block
    by block by sorted vertex list, the longer cycles through each target of
    the block avoiding its lesser targets, over every choice of parallel edge.
    Only the blocks holding a target are read, from the traversal's grouping
    of edges by block, which is made once per graph."""
    label, sizes = graph.traversal.block_labels
    members = graph.traversal.block_members
    touched = {label[k] for v in targets for k in graph.incidence[v] if sizes[label[k]] > 1}
    blocks = sorted((_adjacency(graph, members[b]) for b in touched), key=sorted)
    digons = [((a, b), group) for adj in blocks for a, nbrs in adj.items()
              for b, group in nbrs.items() if a < b and len(group) > 1]
    for pair, group in sorted(digons):
        if not targets.isdisjoint(pair):
            yield pair, combinations(group, 2), comb(len(group), 2)
    for adj in blocks:
        blocked = set()  # the block's targets up to t
        for t in sorted(targets.intersection(adj)):
            blocked.add(t)
            for cycle, choices in _vertex_cycles(adj, t, blocked):
                yield cycle, product(*choices), prod(map(len, choices))


def circles_through(graph, targets, max_circles):
    """Yield canonical circles of ``graph`` containing a target vertex.

    ``targets=None`` means every vertex, i.e. full enumeration.  Each circle
    is yielded exactly once: at its first target in sorted order.  Raises
    CircleLimitError once more than ``max_circles`` circles are yielded.
    """
    numbers = range(len(graph.vertex_ids)) if targets is None else map(graph._vertex, targets)
    count = 0
    for cycle, combos, _ in _cycles_through(graph, set(numbers)):
        for combo in combos:
            count += 1
            if count > max_circles:
                raise CircleLimitError(f"more than {max_circles} circles")
            yield _circle(graph, cycle, combo)


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


def circle_vertex_sign(marked, circle: Circle) -> Sign:
    """Product of the vertex marks around a circle of a marked graph."""
    validate_circle(marked, circle)
    return sign_product(marked.mark(v) for v in circle.vertices)


def is_consistent_oracle(marked, *,
                         max_circles: int = DEFAULT_CIRCLE_CAP) -> ConsistencyResult:
    """Consistency by definition, with a violating circle as witness.

    Circles avoiding every negative vertex are positive by inspection, so only
    circles through a negative vertex are searched.  A fast pass first looks
    for a circle through exactly one negative vertex (such a circle is negative
    outright, and search order can otherwise bury it in dense graphs); the
    ``circles_through`` search then decides, returning its first negative
    circle as witness.  A vertex cycle's sign is the parity of its marks, so
    its parallel-edge choices are counted against the cap, not built.
    """
    marks = marked.marks
    targets = set(compress(range(len(marks)), marks))
    if not targets:
        return ConsistencyResult(True, None)
    adj = _adjacency(marked, range(len(marked.edge_ids)))
    for t in sorted(targets.intersection(adj)):  # each search borrows targets as its blocked set
        for w, edges in adj[t].items():
            if len(edges) > 1 and w not in targets:
                return ConsistencyResult(False, _circle(marked, (t, w), edges[:2]))
        for cycle, choices in _vertex_cycles(adj, t, targets):
            return ConsistencyResult(False, _circle(marked, cycle, [c[0] for c in choices]))
    count = 0
    for cycle, combos, circles in _cycles_through(marked, targets):
        negative = sum(map(marks.__getitem__, cycle)) & 1
        count += 1 if negative else circles  # a negative one ends at its first
        if count > max_circles:
            raise CircleLimitError(f"more than {max_circles} circles")
        if negative:
            return ConsistencyResult(False, _circle(marked, cycle, next(combos)))
    return ConsistencyResult(True, None)
