"""Vertex-marked line graphs of signed multigraphs.

The line graph has one vertex per edge of the input, marked with that edge's
sign, and one edge per unordered pair of distinct input edges *per shared
endpoint*, so a parallel pair in the input becomes a double edge here.
``line_graph`` fills its columns from the input's columns and builds no edge
or vertex value.  Line-graph circles read off the base graph (circle images and
witnesses) are built by ``line_circle`` and checked against the base graph by
``verify_witness``; neither builds the line graph.
"""

from __future__ import annotations

import itertools

from .core import Circle, GraphError, MarkedGraph, SignedGraph


def _line_edge_ids(ids, triples) -> list:
    """``a~b@s`` for each (i, j, s), where a is ``ids[i]`` and b is
    ``ids[j]``: the one place the id format is written."""
    return [f"{ids[i]}~{ids[j]}@{s}" for i, j, s in triples]


def line_edge_id(edge_a: str, edge_b: str, shared_vertex: str) -> str:
    """Identifier of the line-graph edge joining two edges at a common vertex.

    Encodes the pair and the shared endpoint so the two edges of a digon stay
    distinct.  Ids containing '~' or '@' can collide: at a vertex ``s`` with
    edges ``p``, ``q~r``, ``p~q`` and ``r``, the pairs ``p``/``q~r`` and
    ``p~q``/``r`` both give ``p~q~r@s``, MarkedGraph's duplicate-id check
    rejects the line graph, and every route that builds it raises GraphError,
    while condition ii still answers.
    """
    return _line_edge_ids(sorted((edge_a, edge_b)), [(0, 1, shared_vertex)])[0]


def line_graph(graph: SignedGraph) -> MarkedGraph:
    """The line graph of ``graph`` with vertex marks inherited from edge signs.

    Line-graph vertex ids are the originating edge ids verbatim, so circles in
    the result read directly against the input graph: line vertex k is edge
    k, marked by its negative bit, so a line edge's endpoints are the edge
    numbers it pairs, and each incidence list, in id order, gives its
    vertex's pairs of edges already sorted.
    """
    ids = graph.edge_ids
    pairs = [(a, b, v) for v, incident in zip(graph.vertex_ids, graph.incidence)
             for a, b in itertools.combinations(incident, 2)]
    return MarkedGraph._from_columns(
        ids, graph.negative, _line_edge_ids(ids, pairs),
        [p[0] for p in pairs], [p[1] for p in pairs], numbered=True)


def line_circle(lvertices: tuple, shared: tuple) -> Circle:
    """The line-graph circle through the edges ``lvertices`` in order, where
    edge k meets edge k + 1 at the vertex ``shared[k]``."""
    ledges = tuple(
        line_edge_id(a, b, s)
        for a, b, s in zip(lvertices, lvertices[1:] + lvertices[:1], shared)
    )
    return Circle(ledges, lvertices).canonical()


def verify_witness(graph: SignedGraph, witness: Circle) -> None:
    """Check in O(len(witness) log m), on the graph's columns, that ``witness``
    is a negative circle of the line graph of ``graph``: consecutive line
    vertices are edges of ``graph`` that the line edge between them joins at a
    shared endpoint, and an odd number of them are negative."""
    numbers, negative = [graph._edge_number(eid) for eid in witness.vertices], graph.negative
    edges = list(zip(witness.vertices, (set(graph._endpoints(k)) for k in numbers)))
    joined = all(
        line_edge in {line_edge_id(a, b, s) for s in ends_a & ends_b}
        for line_edge, (a, ends_a), (b, ends_b)
        in zip(witness.edges, edges, edges[1:] + edges[:1])
    )
    if not joined or not sum([negative[k] for k in numbers]) & 1:
        raise GraphError(f"witness {witness} is not a negative line-graph circle")


def circle_image(circle: Circle) -> Circle:
    """The circle of the line graph traced by a circle of the base graph.

    Its vertex-sign product in the line graph equals the original circle's
    edge-sign product.
    """
    return line_circle(circle.edges, circle.vertices[1:] + circle.vertices[:1])
