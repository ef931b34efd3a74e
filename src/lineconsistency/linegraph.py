"""Vertex-marked line graphs of signed multigraphs.

The line graph has one vertex per edge of the input, marked with that edge's
sign, and one edge per unordered pair of distinct input edges *per shared
endpoint*, so a parallel pair in the input becomes a double edge here.
Line-graph circles read off the base graph (circle images, vertex triangles,
witnesses) are built by ``line_circle`` and checked against the base graph by
``verify_witness``; neither builds the line graph.
"""

from __future__ import annotations

import itertools

from .core import (Circle, GraphError, MarkedGraph, SignedGraph, new_marked_graph,
                   sign_product)


def line_edge_id(edge_a: str, edge_b: str, shared_vertex: str) -> str:
    """Identifier of the line-graph edge joining two edges at a common vertex.

    Encodes the pair and the shared endpoint so the two edges of a digon stay
    distinct.  Collisions from pathological input ids containing '~'/'@' are
    caught by MarkedGraph's duplicate-id check.
    """
    a, b = sorted((edge_a, edge_b))
    return f"{a}~{b}@{shared_vertex}"


def line_graph(graph: SignedGraph) -> MarkedGraph:
    """The line graph of ``graph`` with vertex marks inherited from edge signs.

    Line-graph vertex ids are the originating edge ids verbatim, so circles in
    the result read directly against the input graph.
    """
    vertices = [(e.id, e.sign) for e in graph.edges]
    edges = []
    for v in graph.vertices:
        incident = graph.incident_edges(v)
        for a, b in itertools.combinations(incident, 2):
            edges.append((line_edge_id(a.id, b.id, v), a.id, b.id))
    return new_marked_graph(vertices, edges)


def line_circle(lvertices: tuple, shared: tuple) -> Circle:
    """The line-graph circle through the edges ``lvertices`` in order, where
    edge k meets edge k + 1 at the vertex ``shared[k]``."""
    ledges = tuple(
        line_edge_id(a, b, s)
        for a, b, s in zip(lvertices, lvertices[1:] + lvertices[:1], shared)
    )
    return Circle(ledges, lvertices).canonical()


def verify_witness(graph: SignedGraph, witness: Circle) -> None:
    """Check in O(len(witness)) that ``witness`` is a negative circle of the
    line graph of ``graph``: consecutive line vertices are edges of ``graph``
    that the line edge between them joins at a shared endpoint."""
    edges = [graph.edge(eid) for eid in witness.vertices]
    joined = all(
        line_edge in {line_edge_id(a.id, b.id, s) for s in a.endpoints & b.endpoints}
        for line_edge, a, b in zip(witness.edges, edges, edges[1:] + edges[:1])
    )
    if not joined or sign_product(e.sign for e in edges).is_positive:
        raise GraphError(f"witness {witness} is not a negative line-graph circle")


def circle_image(circle: Circle) -> Circle:
    """The circle of the line graph traced by a circle of the base graph.

    Its vertex-sign product in the line graph equals the original circle's
    edge-sign product.
    """
    return line_circle(circle.edges, circle.vertices[1:] + circle.vertices[:1])


def vertex_triangles(graph: SignedGraph) -> list:
    """Triangles of the line graph from three edges meeting at one vertex.

    One triangle per 3-subset of the incident edges of each vertex of degree
    at least 3; its vertex-sign product equals the product of the three edge
    signs.
    """
    return [
        line_circle(triple, (v, v, v))
        for v in graph.vertices
        for triple in itertools.combinations([e.id for e in graph.incident_edges(v)], 3)
    ]
