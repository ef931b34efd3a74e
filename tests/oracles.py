"""Independent brute-force oracles used to freeze expected values.

These deliberately share no code with the library's enumeration: a circle is
found as an edge subset forming a connected 2-regular subgraph.  Exponential,
for tiny graphs only.  The slot-list sampler is the reference for the seeded
random generator.
"""

import itertools
import random

from lineconsistency.core import Sign, SignedEdge, SignedGraph, sign_product


def circle_edge_sets(graph):
    """Every circle of ``graph`` as a frozenset of edge ids, by brute force."""
    triples = graph.edge_triples()
    found = []
    for r in range(2, len(triples) + 1):
        for subset in itertools.combinations(triples, r):
            degree = {}
            for _, u, v in subset:
                degree[u] = degree.get(u, 0) + 1
                degree[v] = degree.get(v, 0) + 1
            if any(d != 2 for d in degree.values()):
                continue
            adjacency = {x: set() for x in degree}
            for _, u, v in subset:
                adjacency[u].add(v)
                adjacency[v].add(u)
            start = next(iter(degree))
            seen = {start}
            stack = [start]
            while stack:
                x = stack.pop()
                for y in adjacency[x]:
                    if y not in seen:
                        seen.add(y)
                        stack.append(y)
            if len(seen) == len(degree):
                found.append(frozenset(eid for eid, _, _ in subset))
    return found


def vertices_of_edge_set(graph, edge_set):
    vertices = set()
    for eid in edge_set:
        e = graph.edge(eid)
        vertices.update((e.u, e.v))
    return vertices


def balanced_bruteforce(graph):
    """Every circle has positive edge-sign product."""
    for edge_set in circle_edge_sets(graph):
        if sign_product(graph.edge(eid).sign for eid in edge_set).is_negative:
            return False
    return True


def consistent_bruteforce(marked):
    """Every circle has positive vertex-sign product."""
    for edge_set in circle_edge_sets(marked):
        vertices = vertices_of_edge_set(marked, edge_set)
        if sign_product(marked.mark(v) for v in vertices).is_negative:
            return False
    return True


def random_signed_graph_by_slots(n, m, negative_probability, seed):
    """The slot-list sampler ``generate.random_signed_graph`` replaced: it
    lists every sorted vertex pair twice and samples the list itself."""
    vertices = tuple(f"v{i}" for i in range(n))
    slots = sorted(itertools.combinations(vertices, 2)) * 2
    rng = random.Random(seed)
    chosen = sorted(rng.sample(slots, m)) if m else []
    edges = tuple(
        SignedEdge(
            f"e{j}",
            u,
            v,
            Sign.NEGATIVE if rng.random() < negative_probability else Sign.POSITIVE,
        )
        for j, (u, v) in enumerate(chosen)
    )
    return SignedGraph(vertices, edges)
