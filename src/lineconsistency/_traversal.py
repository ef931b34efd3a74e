"""One iterative depth-first search yielding bridges, blocks, components and
switching balance, and a parity union-find yielding balance, components and
which chosen edges are bridges without incidence lists.

``Traversal(graph)`` reads the integer columns off a ``core._Multigraph``:
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
from itertools import chain, compress, filterfalse
from operator import eq


class Forest:
    """A parity union-find over a multigraph's columns: balance, components
    and which of some chosen edges close a circle, without incidence lists.

    Every edge is merged once, the edges numbered in ``last`` (distinct)
    after all the others.  ``up[v]`` is v's parent in the forest, v itself
    at a root; union by size keeps every find chain within log2(n) + 1
    vertices (Tarjan 1975, JACM 22(2)), and nothing recurses.  Each vertex
    also holds its switching parity relative to its parent (Harary 1953).
    An edge whose endpoints already share a root closes a circle; its sign
    is checked against their parities, so ``balanced`` does not depend on
    edge order and ``conflicts`` lists every edge that contradicts them.
    ``closed`` lists the ``last`` edges that closed a circle, in merge
    order: the other edges are merged first, and contracting them keeps
    exactly which ``last`` edges are bridges, so none closes a circle
    exactly when all of them are bridges.
    """

    def __init__(self, graph, last=()):
        tail, ends, negative = graph.tail, graph.ends, graph.negative
        n, m = len(graph.vertex_ids), len(tail)
        up, odd, size = list(range(n)), [0] * n, [1] * n
        conflicts, closing = [], []
        skip = set(last)
        edges = chain(filterfalse(skip.__contains__, range(m)), last) if skip else range(m)
        for k in edges:
            a = tail[k]
            b = a ^ ends[k]
            x = negative[k]  # becomes parity(a) ^ parity(b) ^ sign
            while up[a] != a:
                x ^= odd[a]
                a = up[a]
            while up[b] != b:
                x ^= odd[b]
                b = up[b]
            if a == b:
                if x:
                    conflicts.append(k)
                closing.append(k)
            elif size[a] < size[b]:
                up[a], odd[a] = b, x
                size[b] += size[a]
            else:
                up[b], odd[b] = a, x
                size[a] += size[b]
        self.tail, self.up, self.conflicts = tail, up, conflicts
        self.closed = list(filter(skip.__contains__, closing))

    @property
    def balanced(self) -> bool:
        return not self.conflicts

    def root(self, v: int) -> int:
        up = self.up
        while up[v] != v:
            v = up[v]
        return v

    def unbalanced_component(self):
        """(vertex numbers, edge numbers), both ascending, of the unbalanced
        component holding the least vertex, or None when balanced."""
        if not self.conflicts:
            return None
        roots = list(map(self.root, range(len(self.up))))
        unbalanced = {roots[self.tail[k]] for k in self.conflicts}
        r = next(filter(unbalanced.__contains__, roots))
        inside = map(r.__eq__, map(roots.__getitem__, self.tail))
        return (list(compress(range(len(roots)), map(r.__eq__, roots))),
                list(compress(range(len(self.tail)), inside)))


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

    def __init__(self, graph):
        """Search ``graph``, a ``core._Multigraph``, on its columns.  Only the
        columns are kept: the graph caches its traversal, so keeping the graph
        would make a reference cycle that only the collector frees."""
        adj, ends, odd = graph.incidence, graph.ends, graph.negative
        n = len(graph.vertex_ids)
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
        self.vertex_ids, self.edge_ids = graph.vertex_ids, graph.edge_ids
        self.tail, self.ends, self.order = graph.tail, ends, order
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
    def block_labels(self) -> tuple:
        """(label, sizes): ``label[k]`` numbers edge k's block, and
        ``sizes[b]`` counts block b's edges, so an edge is a bridge exactly
        when its block has one edge.

        A tree edge into w starts a block when no non-tree edge leaves w's
        subtree above w's parent, and otherwise joins the block of the tree
        edge entering the parent; a non-tree edge joins the block of the tree
        edge entering its deeper endpoint.
        """
        disc, low, parent, ends = self.disc, self.low, self.parent, self.ends
        label, sizes = [-1] * len(ends), []
        for w in self.order:
            k = parent[w]
            if k < 0:
                continue
            p = ends[k] ^ w
            if low[w] >= disc[p]:
                label[k] = len(sizes)
                sizes.append(0)
            else:
                label[k] = label[parent[p]]
            sizes[label[k]] += 1
        for k, a in enumerate(self.tail):
            if label[k] < 0:
                b = ends[k] ^ a
                label[k] = label[parent[a if disc[a] > disc[b] else b]]
                sizes[label[k]] += 1
        return label, sizes

    @cached_property
    def block_members(self) -> list:
        """``block_members[b]``: the numbers of block b's edges, ascending."""
        label, sizes = self.block_labels
        members = [[] for _ in sizes]
        for k, b in enumerate(label):
            members[b].append(k)
        return members

    @cached_property
    def blocks(self) -> list:
        """Blocks as (frozenset of vertex ids, frozenset of edge ids), sorted
        by (least vertex, least edge id); isolated vertices are blocks with no
        edges, and parallel edges share a block."""
        ids, edge_ids, tail, ends = self.vertex_ids, self.edge_ids, self.tail, self.ends
        found = [
            (
                frozenset(ids[x] for k in edges for x in (tail[k], tail[k] ^ ends[k])),
                frozenset(edge_ids[k] for k in edges),
            )
            for edges in self.block_members
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

