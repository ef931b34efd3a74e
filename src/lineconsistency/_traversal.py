"""One iterative depth-first search yielding bridges, blocks, components and
switching balance.

The search reads a graph's integer edge columns (``core._Multigraph``):
vertex ``i`` is the ``i``-th sorted vertex id, edge ``k`` the ``k``-th edge in
id order, joining ``tail[k]`` and ``tail[k] ^ ends[k]``, with ``negative[k]``
its sign bit and ``incidence[i]`` the edges at vertex ``i`` in id order.
Roots are taken in vertex order and each vertex's edges in edge-id order, so
results are deterministic, and nothing recurses.  One pass records discovery
numbers, low-links (Tarjan 1972), tree parent edges and switching parities
(Harary 1953); the rest is read from those arrays in linear time.
"""

from __future__ import annotations

from functools import cached_property
from itertools import compress
from operator import eq
from typing import NamedTuple


class Edges(NamedTuple):
    """A multigraph's edges as columns, in edge-id order."""

    ids: tuple
    tail: list
    ends: list
    negative: list
    incidence: list


def incidence(n: int, tail, ends) -> list:
    """For each of ``n`` vertices, the indices of its edges in edge order."""
    edges_at = [[] for _ in range(n)]
    for k, (a, e) in enumerate(zip(tail, ends)):
        edges_at[a].append(k)
        edges_at[a ^ e].append(k)
    return edges_at


class Traversal:
    """One depth-first search of a multigraph and what it gives.

    ``order`` lists vertices in discovery order, each component a contiguous
    run from its least vertex, its root; ``disc[v]`` is v's place in
    ``order``, ``low[v]`` the least discovery number one non-tree edge
    reaches from v's subtree, ``parent[v]`` the edge entering v (-1 at a
    root).  ``conflict`` is the first edge met whose sign contradicts the
    switching parities of its endpoints, or -1 when the graph is balanced.
    """

    def __init__(self, vertex_ids, edges: Edges):
        """Search the graph on ``vertex_ids`` (sorted) with these ``edges``."""
        adj, ends, odd = edges.incidence, edges.ends, edges.negative
        n = len(vertex_ids)
        disc = [-1] * n
        low = [0] * n
        parent = [-1] * n
        parity = [0] * n
        resume = [0] * n  # resume[v]: how many of v's edges are scanned
        order, conflict = [], -1
        for root in range(n):
            if disc[root] >= 0:
                continue
            disc[root] = low[root] = len(order)
            order.append(root)
            stack = [root]  # ints only: a deep search allocates nothing tracked
            while stack:
                v = stack[-1]
                incident, entering, i = adj[v], parent[v], resume[v]
                while i < len(incident):
                    k = incident[i]
                    i += 1
                    if k == entering:
                        continue
                    w = ends[k] ^ v
                    d = disc[w]
                    if d < 0:
                        disc[w] = low[w] = len(order)
                        order.append(w)
                        parent[w] = k
                        parity[w] = parity[v] ^ odd[k]
                        resume[v] = i
                        stack.append(w)
                        break
                    if d < low[v]:
                        low[v] = d
                    if conflict < 0 and parity[v] ^ parity[w] != odd[k]:
                        conflict = k
                else:
                    stack.pop()
                    if entering >= 0:
                        p = ends[entering] ^ v
                        if low[v] < low[p]:
                            low[p] = low[v]
        self.vertex_ids, self.edge_ids = vertex_ids, edges.ids
        self.tail, self.ends, self.order = edges.tail, ends, order
        self.disc, self.low, self.parent, self.conflict = disc, low, parent, conflict

    @property
    def balanced(self) -> bool:
        return self.conflict < 0

    @cached_property
    def bridges(self) -> frozenset:
        """Ids of the edges on no circle: tree edges into a vertex whose
        subtree no other edge leaves (low equals disc; at a root, which no
        edge enters, the parent is -1)."""
        entering = compress(self.parent, map(eq, self.low, self.disc))
        return frozenset(map(self.edge_ids.__getitem__, filter((-1).__ne__, entering)))

    def _runs(self):
        """The components as slices of ``order``."""
        order, parent = self.order, self.parent
        bounds = [i for i, v in enumerate(order) if parent[v] < 0] + [len(order)]
        return [order[start:end] for start, end in zip(bounds, bounds[1:])]

    @cached_property
    def components(self) -> list:
        """Vertex-id sets of the connected components, by least vertex."""
        return [{self.vertex_ids[v] for v in run} for run in self._runs()]

    @cached_property
    def blocks(self) -> list:
        """Blocks as (frozenset of vertex ids, frozenset of edge ids), sorted
        by (least vertex, least edge id); isolated vertices are blocks with no
        edges, and parallel edges share a block.

        A tree edge into w starts a block when no non-tree edge leaves w's
        subtree above w's parent, and otherwise joins the block of the tree
        edge entering the parent; a non-tree edge joins the block of the tree
        edge entering its deeper endpoint.
        """
        disc, low, parent = self.disc, self.low, self.parent
        tail, ends = self.tail, self.ends
        label = [-1] * len(tail)
        members = []
        for w in self.order:
            k = parent[w]
            if k < 0:
                continue
            p = ends[k] ^ w
            if low[w] >= disc[p]:
                label[k] = len(members)
                members.append([k])
            else:
                label[k] = label[parent[p]]
                members[label[k]].append(k)
        for k, a in enumerate(tail):
            if label[k] < 0:
                b = ends[k] ^ a
                members[label[parent[a if disc[a] > disc[b] else b]]].append(k)
        ids, edge_ids = self.vertex_ids, self.edge_ids
        found = [
            (
                frozenset(ids[x] for k in edges for x in (tail[k], tail[k] ^ ends[k])),
                frozenset(edge_ids[k] for k in edges),
            )
            for edges in members
        ]
        found.extend(
            (frozenset((ids[run[0]],)), frozenset())
            for run in self._runs() if len(run) == 1
        )
        found.sort(key=lambda b: (sorted(b[0]), sorted(b[1])))
        return found

    def negative_cycle(self):
        """(edge ids, vertex ids) of the conflicting edge's fundamental
        circle, which is negative, or None when balanced.

        A non-tree edge of a depth-first search joins a vertex to one of its
        ancestors, so the circle is the tree path up from the deeper
        endpoint, closed by the edge.
        """
        k = self.conflict
        if k < 0:
            return None
        a, b = self.tail[k], self.tail[k] ^ self.ends[k]
        v, top = (a, b) if self.disc[a] > self.disc[b] else (b, a)
        edges, vertices = [], [v]
        while v != top:
            edges.append(self.parent[v])
            v ^= self.ends[edges[-1]]
            vertices.append(v)
        edges.append(k)
        return (
            tuple(self.edge_ids[e] for e in edges),
            tuple(self.vertex_ids[x] for x in vertices),
        )


def connected_components(vertex_ids, edge_triples) -> list:
    """Vertex sets of the components, sorted by their least vertex."""
    index = {v: i for i, v in enumerate(vertex_ids)}
    ids, tail, ends = [], [], []
    for eid, u, v in edge_triples:
        a, b = index[u], index[v]
        ids.append(eid)
        tail.append(a)
        ends.append(a ^ b)
    edges = Edges(ids, tail, ends, [0] * len(ids), incidence(len(index), tail, ends))
    return Traversal(vertex_ids, edges).components
