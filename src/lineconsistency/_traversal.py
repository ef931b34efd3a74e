"""A parity union-find yielding switching balance, components and which
chosen edges are bridges without incidence lists, and one iterative
depth-first search yielding block labels and components.  The union-find is
the package's one balance engine; the search reads no sign.  Both answer in
vertex and edge numbers, which their callers turn into ids; an isthmus
(bridge) is an edge alone in its block.

Both read the integer columns off a ``core._Multigraph``: vertex ``i`` is the
``i``-th sorted vertex id, edge ``k`` the ``k``-th edge in id order, joining
``tail[k]`` and ``tail[k] ^ ends[k]``, with ``negative[k]`` its sign, a 0/1
byte, read by ``Forest`` alone, and ``incidence[i]`` the edges at vertex
``i`` in id order, read by ``Traversal`` alone.  Roots are taken in vertex
order and each vertex's edges in edge-id order, so results are
deterministic, and nothing recurses.  The search's one pass records
discovery numbers, low-links (Tarjan 1972) and tree parent edges; the rest
is read from those arrays in linear time.
"""

from __future__ import annotations

from functools import cached_property
from itertools import compress, count


class Forest:
    """A parity union-find over a multigraph's columns: balance, components
    and which of some chosen edges close a circle, without incidence lists.

    Every edge is merged once, the edges numbered in ``last`` (distinct)
    after all the others.  ``up[v]`` is v's parent in the forest.  While
    the edges merge, a root holds minus its tree's size there, so there is
    no size list and no starting int object per vertex; once all are
    merged, each root points back to itself, so ``up[v] == v`` exactly at
    a root.  Union by size keeps every find chain within log2(n) + 1
    vertices (Tarjan 1975, JACM 22(2)), and nothing recurses.  Each vertex
    also holds its switching parity relative to its parent (Harary 1953).
    An edge whose endpoints already share a root closes a circle; its sign
    is checked against their parities, so ``balanced`` does not depend on
    edge order and ``conflicts`` lists every edge that contradicts them.
    ``closed`` lists the ``last`` edges that closed a circle, in merge
    order, recorded only while they merge: the other edges are merged
    first, and contracting them keeps exactly which ``last`` edges are
    bridges, so none closes a circle exactly when all of them are bridges.
    With ``last`` reversed from some order, ``closed[-1]`` is the first in
    that order that is not a bridge: the others on a circle through it come
    later, so are merged before it.
    Every route reads balance from the forest a graph caches,
    ``SignedGraph.forest``; condition ii seeds it with the one it decides
    with, which answers balance and ``unbalanced_component()`` as a fresh
    one does, since neither depends on the merge order.
    """

    def __init__(self, graph, last=()):
        tail, ends, negative = graph.tail, graph.ends, graph.negative
        n, m = len(graph.vertex_ids), len(tail)
        up, odd = [-1] * n, [0] * n  # a root's up is minus its tree's size
        conflicts, closed = [], []
        others = zip(count(), tail, ends, negative)
        if last:
            kept = bytearray(b"\x01") * m
            for k in last:
                kept[k] = 0
            others = compress(others, kept)
        tested = ((k, tail[k], ends[k], negative[k]) for k in last)
        for edges, closing in ((others, None), (tested, closed)):
            for k, a, e, x in edges:  # x becomes parity(a) ^ parity(b) ^ sign
                b = a ^ e
                while up[a] >= 0:
                    x ^= odd[a]
                    a = up[a]
                while up[b] >= 0:
                    x ^= odd[b]
                    b = up[b]
                if a == b:
                    if x:
                        conflicts.append(k)
                    if closing is not None:
                        closing.append(k)
                elif up[a] > up[b]:  # a's tree is the smaller
                    up[b] += up[a]
                    up[a], odd[a] = b, x
                else:
                    up[a] += up[b]
                    up[b], odd[b] = a, x
        for v, parent in enumerate(up):  # each root points to itself from here on
            if parent < 0:
                up[v] = v
        self.tail, self.up, self.conflicts, self.closed = tail, up, conflicts, closed

    @property
    def balanced(self) -> bool:
        return not self.conflicts

    def root(self, v: int) -> int:
        up = self.up
        while up[v] != v:
            v = up[v]
        return v

    def unbalanced_component(self):
        """The edge numbers, ascending, of the unbalanced component holding
        the least vertex, or None when balanced.  No find runs per vertex:
        up to log2(n) + 1 passes over ``up`` label the unbalanced trees, and
        one over ``tail`` cuts the least one's edges."""
        if not self.conflicts:
            return None
        roots = {self.root(self.tail[k]) for k in self.conflicts}
        label = [0] * len(self.up)  # 1 + the root on those trees, else 0
        for r in roots:
            label[r] = r + 1
        while (grown := list(map(label.__getitem__, self.up))) != label:
            label = grown
        if len(roots) > 1:  # the tree of the least labelled vertex alone
            label = list(map(next(filter(None, label)).__eq__, label))
        return list(compress(range(len(self.tail)), map(label.__getitem__, self.tail)))


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
    root).  It reads no sign: balance comes from ``Forest``.
    """

    def __init__(self, graph):
        """Search ``graph``, a ``core._Multigraph`` or anything with its
        ``vertex_ids``, ``tail``, ``ends`` and ``incidence``.  Only the
        columns are kept: the graph caches its traversal, so keeping the graph
        would make a reference cycle that only the collector frees."""
        adj, ends = graph.incidence, graph.ends
        n = len(graph.vertex_ids)
        disc = [-1] * n
        low = [0] * n
        parent = [-1] * n
        resume = [0] * n  # resume[v]: how many of v's edges are scanned
        order = []
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
                        resume[v] = i
                        stack.append(w)
                        break
                    if d < low[v]:
                        low[v] = d
                else:
                    stack.pop()
                    if entering >= 0:
                        p = ends[entering] ^ v
                        if low[v] < low[p]:
                            low[p] = low[v]
        self.tail, self.ends, self.order = graph.tail, ends, order
        self.disc, self.low, self.parent = disc, low, parent

    @cached_property
    def components(self) -> list:
        """Each component's vertex numbers in discovery order, the
        components by least vertex (their roots): the runs of ``order``."""
        order, parent = self.order, self.parent
        bounds = [i for i, v in enumerate(order) if parent[v] < 0] + [len(order)]
        return [order[start:end] for start, end in zip(bounds, bounds[1:])]

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
