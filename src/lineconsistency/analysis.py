"""Structural line-consistency checks, classification, and counterexamples.

Four independent decision routes live here: three local/structural conditions,
a simple-graph criterion, and a full structural classification.  All of them
must agree with the definitional oracle (``cycles.is_consistent_oracle`` on
the line graph); the test suite enforces that agreement exhaustively.  The
second condition is the production checker (degree and sign facts, a bridge
pass only when a positive edge at a negative-degree-2 vertex needs testing,
and one balance pass); the others are cross-validation routes.  Witnesses
are built from the failing clause of condition ii in linear time.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, replace
from typing import Optional

from ._traversal import bridge_edges, biconnected_components, connected_components
from .core import Circle, GraphError, SignedGraph, sign_product
# line_graph, is_consistent_oracle and circle_vertex_sign are not used here
# but stay importable from this module: bench/tracer.py wraps them here.
from .cycles import (
    circle_vertex_sign,
    enumerate_circles,
    find_negative_circle,
    is_balanced_fast,
    is_consistent_oracle,
)
from .linegraph import circle_image, line_edge_id, line_graph

# The clauses of condition ii; find_witness builds one witness per clause.
NEGATIVE_DEGREE_ABOVE_2 = "negative-subgraph degree exceeds 2"
TWO_POSITIVE_EDGES = "negative-edge endpoint with two positive edges"
POSITIVE_EDGE_NOT_ISTHMUS = "negative-degree-2 positive edge not an isthmus"
UNBALANCED = "unbalanced"
_CONDITION_II_CLAUSES = (
    NEGATIVE_DEGREE_ABOVE_2, TWO_POSITIVE_EDGES, POSITIVE_EDGE_NOT_ISTHMUS, UNBALANCED
)


@dataclass(frozen=True)
class Verdict:
    """A line-consistency decision with the failing clause, when negative.

    ``vertex``/``edge`` name the offending elements when a local clause fails;
    ``witness`` is a negative circle of the line graph when one was attached.
    """

    line_consistent: bool
    failed_clause: Optional[str] = None
    vertex: Optional[str] = None
    edge: Optional[str] = None
    witness: Optional[Circle] = None

    def __post_init__(self):
        if not self.line_consistent and self.failed_clause is None:
            raise GraphError("negative verdict requires a failed clause")

    def with_witness(self, witness: Circle) -> "Verdict":
        return replace(self, witness=witness)


@dataclass(frozen=True)
class Block:
    """A maximal biconnected edge set, or an isolated vertex."""

    vertices: frozenset
    edges: frozenset
    nontrivial: bool


@dataclass(frozen=True)
class ComponentReport:
    """Classification of one component of the negative subgraph."""

    kind: str  # "circle" | "nontrivial-path" | "single-vertex" | "other"
    vertices: tuple
    edges: tuple
    ok: bool
    violations: tuple = ()
    is_block: Optional[bool] = None
    path_form: Optional[str] = None  # "induced" | "closes-circle-block"
    case: Optional[str] = None  # "a" | "b"
    endpoints: tuple = ()
    # Derived observations (consequences, reported but not enforced):
    endpoints_divalent: Optional[bool] = None
    endpoint_extras_positive_isthmi: Optional[bool] = None


@dataclass(frozen=True)
class StructureReport:
    """Per-component structural facts plus the overall decision."""

    balanced: bool
    components: tuple
    line_consistent: bool

    def as_verdict(self) -> Verdict:
        if self.line_consistent:
            return Verdict(True)
        if not self.balanced:
            return Verdict(False, UNBALANCED)
        for comp in self.components:
            if comp.violations:
                return Verdict(False, comp.violations[0])
        raise GraphError("inconsistent structure report")


def find_isthmi(graph: SignedGraph) -> frozenset:
    """Edges lying on no circle (deletion raises the component count)."""
    return bridge_edges(graph.vertex_ids, graph.edge_triples())


def blocks(graph: SignedGraph) -> list:
    """Maximal biconnected edge-subgraphs plus isolated vertices.

    A block is nontrivial iff it contains a circle, i.e. has at least two
    edges; trivial blocks are exactly isthmi and isolated vertices.
    """
    return [
        Block(vertices, edges, nontrivial=len(edges) >= 2)
        for vertices, edges in biconnected_components(
            graph.vertex_ids, graph.edge_triples()
        )
    ]


def _split_signs(edges):
    positive = [e for e in edges if e.sign.is_positive]
    negative = [e for e in edges if e.sign.is_negative]
    return positive, negative


def check_condition_i(graph: SignedGraph) -> Verdict:
    """Balanced; degree > 3 totally positive; degree 3 totally positive or
    exactly one positive edge, which is an isthmus."""
    isthmi = find_isthmi(graph)
    for v in graph.vertices:
        incident = graph.incident_edges(v)
        positive, _ = _split_signs(incident)
        if len(incident) > 3 and len(positive) != len(incident):
            return Verdict(False, "degree>3 not totally positive", vertex=v)
        if len(incident) == 3 and len(positive) != 3:
            if len(positive) != 1:
                return Verdict(False, "degree-3 vertex signs invalid", vertex=v)
            if positive[0].id not in isthmi:
                return Verdict(
                    False,
                    "degree-3 positive edge not an isthmus",
                    vertex=v,
                    edge=positive[0].id,
                )
    if not is_balanced_fast(graph):
        return Verdict(False, UNBALANCED)
    return Verdict(True)


def check_condition_ii(graph: SignedGraph) -> Verdict:
    """Balanced; the negative subgraph is a disjoint union of paths and
    circles; each endpoint of a negative edge has at most one positive edge,
    an isthmus when the vertex has two negative edges.

    The bridge pass runs only once a positive edge at a negative-degree-2
    vertex needs testing."""
    isthmi = None
    for v in graph.vertices:
        positive, negative = _split_signs(graph.incident_edges(v))
        if not negative:
            continue
        if len(negative) > 2:
            return Verdict(False, NEGATIVE_DEGREE_ABOVE_2, vertex=v)
        if len(positive) > 1:
            return Verdict(False, TWO_POSITIVE_EDGES, vertex=v)
        if len(negative) == 2 and positive:
            if isthmi is None:
                isthmi = find_isthmi(graph)
            if positive[0].id not in isthmi:
                return Verdict(
                    False, POSITIVE_EDGE_NOT_ISTHMUS, vertex=v, edge=positive[0].id
                )
    if not is_balanced_fast(graph):
        return Verdict(False, UNBALANCED)
    return Verdict(True)


def check_condition_iii(graph: SignedGraph) -> Verdict:
    """Degree > 3 totally positive; degree 3 totally positive or exactly one
    positive edge; after deleting all positive isthmi, balanced with every
    negative edge's endpoints of degree at most 2."""
    for v in graph.vertices:
        incident = graph.incident_edges(v)
        positive, _ = _split_signs(incident)
        if len(incident) > 3 and len(positive) != len(incident):
            return Verdict(False, "degree>3 not totally positive", vertex=v)
        if len(incident) == 3 and len(positive) not in (1, 3):
            return Verdict(False, "degree-3 vertex signs invalid", vertex=v)
    isthmi = find_isthmi(graph)
    pruned = graph.without_edges(
        e.id for e in graph.positive_edges if e.id in isthmi
    )
    if not is_balanced_fast(pruned):
        return Verdict(False, "unbalanced after deleting positive isthmi")
    for e in pruned.negative_edges:
        for v in (e.u, e.v):
            if pruned.degree(v) > 2:
                return Verdict(
                    False,
                    "negative-edge endpoint degree exceeds 2 "
                    "after deleting positive isthmi",
                    vertex=v,
                )
    return Verdict(True)


def check_theorem1_simple(graph: SignedGraph) -> Verdict:
    """The simple-graph criterion: balanced; degree > 3 totally positive;
    degree 3 totally positive or two negative edges lying on every circle
    through the vertex (checked against the circle enumeration, which runs
    only once such a vertex is reached)."""
    if not graph.is_simple:
        raise GraphError("requires a simple graph")
    circles = None
    for v in graph.vertices:
        incident = graph.incident_edges(v)
        positive, negative = _split_signs(incident)
        if len(incident) > 3 and len(positive) != len(incident):
            return Verdict(False, "degree>3 not totally positive", vertex=v)
        if len(incident) == 3 and len(positive) != 3:
            if len(negative) != 2:
                return Verdict(
                    False,
                    "degree-3 vertex without exactly two negative edges",
                    vertex=v,
                )
            if circles is None:
                circles = enumerate_circles(graph)
            pair = {negative[0].id, negative[1].id}
            for circle in circles:
                if v in circle.vertices and not pair <= set(circle.edges):
                    return Verdict(
                        False,
                        "degree-3 negative pair not on all circles "
                        "through the vertex",
                        vertex=v,
                    )
    if not is_balanced_fast(graph):
        return Verdict(False, UNBALANCED)
    return Verdict(True)


def check_corollary_3(graph: SignedGraph) -> Optional[bool]:
    """For connected bridgeless graphs of order >= 4 with no divalent vertex:
    line consistent iff all positive.  None when the corollary does not apply."""
    if len(graph.vertices) < 4:
        return None
    if len(connected_components(graph.vertex_ids, graph.edge_triples())) != 1:
        return None
    if find_isthmi(graph):
        return None
    if any(graph.degree(v) == 2 for v in graph.vertices):
        return None
    return all(e.sign.is_positive for e in graph.edges)


def _classify_kind(component, neg: SignedGraph):
    degrees = {v: neg.degree(v) for v in component}
    if len(component) == 1 and not any(degrees.values()):
        return "single-vertex", ()
    if all(d == 2 for d in degrees.values()):
        return "circle", ()
    ones = sorted(v for v, d in degrees.items() if d == 1)
    if all(d in (1, 2) for d in degrees.values()) and len(ones) == 2:
        return "nontrivial-path", tuple(ones)
    return "other", ()


def classify_structure(graph: SignedGraph) -> StructureReport:
    """Classify every negative-subgraph component against the structural form.

    Overall: balanced, every component a circle, nontrivial path, or single
    vertex, circle components forming blocks with only positive-isthmus
    attachments, and path components either induced or closing a circle block,
    sitting inside a nontrivial block (a) or made entirely of isthmi with
    block-free endpoints (b).  Divalent-endpoint and endpoint-attachment facts
    are consequences of the form; they are reported, not enforced.
    """
    negative = graph.negative_subgraph()
    isthmi = find_isthmi(graph)
    all_blocks = blocks(graph)
    block_edge_sets = {b.edges for b in all_blocks if b.edges}
    nontrivial = [b for b in all_blocks if b.nontrivial]
    in_nontrivial = set()
    for b in nontrivial:
        in_nontrivial.update(b.vertices)

    reports = []
    for component in connected_components(
        negative.vertex_ids, negative.edge_triples()
    ):
        vertices = tuple(sorted(component))
        comp_edges = tuple(
            sorted(e.id for e in negative.edges if e.u in component)
        )
        edge_set = frozenset(comp_edges)
        kind, endpoints = _classify_kind(component, negative)
        violations = []
        is_block = None
        path_form = None
        case = None
        endpoints_divalent = None
        endpoint_extras_ok = None

        def extras_at(v):
            return [e for e in graph.incident_edges(v) if e.id not in edge_set]

        if kind == "other":
            violations.append(
                "negative component is not a circle, path, or single vertex"
            )
        elif kind == "circle":
            is_block = edge_set in block_edge_sets
            if not is_block:
                violations.append("circle component is not a block")
            for v in vertices:
                extras = extras_at(v)
                if len(extras) > 1:
                    violations.append(
                        f"more than one extra edge at circle vertex {v!r}"
                    )
                elif extras and not (
                    extras[0].sign.is_positive and extras[0].id in isthmi
                ):
                    violations.append(
                        f"extra edge at circle vertex {v!r} "
                        "is not a positive isthmus"
                    )
        elif kind == "nontrivial-path":
            for v in endpoints:
                if graph.degree(v) > 2:
                    violations.append(f"path endpoint {v!r} is not at most divalent")
            for v in vertices:
                if v in endpoints:
                    continue
                extras = extras_at(v)
                if len(extras) > 1:
                    violations.append(
                        f"more than one extra edge at path vertex {v!r}"
                    )
                elif extras and not (
                    extras[0].sign.is_positive and extras[0].id in isthmi
                ):
                    violations.append(
                        f"extra edge at path vertex {v!r} is not a positive isthmus"
                    )
            inside = [
                e
                for e in graph.edges
                if e.id not in edge_set
                and e.u in component
                and e.v in component
            ]
            if not inside:
                path_form = "induced"
            elif (
                len(inside) == 1
                and inside[0].sign.is_positive
                and inside[0].endpoints == frozenset(endpoints)
                and frozenset(edge_set | {inside[0].id}) in block_edge_sets
            ):
                path_form = "closes-circle-block"
            else:
                violations.append("path is neither induced nor closes a circle block")
            if any(edge_set <= b.edges for b in nontrivial):
                case = "a"
                endpoints_divalent = all(graph.degree(v) == 2 for v in endpoints)
            elif edge_set <= isthmi and not any(
                v in in_nontrivial for v in endpoints
            ):
                case = "b"
                endpoint_extras_ok = all(
                    e.sign.is_positive and e.id in isthmi
                    for v in endpoints
                    for e in extras_at(v)
                )
            else:
                violations.append(
                    "path is neither inside a nontrivial block nor an "
                    "isthmus path with block-free endpoints"
                )

        reports.append(
            ComponentReport(
                kind=kind,
                vertices=vertices,
                edges=comp_edges,
                ok=not violations,
                violations=tuple(violations),
                is_block=is_block,
                path_form=path_form,
                case=case,
                endpoints=endpoints,
                endpoints_divalent=endpoints_divalent,
                endpoint_extras_positive_isthmi=endpoint_extras_ok,
            )
        )

    balanced = is_balanced_fast(graph)
    overall = balanced and all(r.ok for r in reports)
    return StructureReport(
        balanced=balanced, components=tuple(reports), line_consistent=overall
    )


def _circle_through_edge(graph: SignedGraph, edge) -> Optional[Circle]:
    """A shortest circle containing ``edge``: BFS between its endpoints
    avoiding the edge itself, then close with it.  None if it is an isthmus."""
    parent = {edge.u: None}
    queue = deque([edge.u])
    while queue and edge.v not in parent:
        v = queue.popleft()
        for e in graph.incident_edges(v):
            w = e.other_endpoint(v)
            if e.id != edge.id and w not in parent:
                parent[w] = e
                queue.append(w)
    if edge.v not in parent:
        return None
    # walk the tree path back from edge.v to edge.u; ``edge`` closes it
    vertices, edges = [edge.v], []
    while parent[vertices[-1]] is not None:
        e = parent[vertices[-1]]
        edges.append(e.id)
        vertices.append(e.other_endpoint(vertices[-1]))
    return Circle(tuple(edges) + (edge.id,), tuple(vertices))


def _line_circle(lvertices: tuple, shared: tuple) -> Circle:
    """The line-graph circle through the edges ``lvertices`` in order, where
    edge k meets edge k + 1 at the vertex ``shared[k]``."""
    ledges = tuple(
        line_edge_id(a, b, s)
        for a, b, s in zip(lvertices, lvertices[1:] + lvertices[:1], shared)
    )
    return Circle(ledges, lvertices).canonical()


def _verify_witness(graph: SignedGraph, witness: Circle) -> None:
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


def _clause_witness(graph: SignedGraph, failed: Verdict) -> Circle:
    """The paper's negative line-graph circle for a failed clause of
    condition ii."""
    v, clause = failed.vertex, failed.failed_clause
    if clause == UNBALANCED:
        return circle_image(find_negative_circle(graph))
    positive, negative = _split_signs(graph.incident_edges(v))
    if clause == NEGATIVE_DEGREE_ABOVE_2:
        return _line_circle(tuple(e.id for e in negative[:3]), (v, v, v))
    if clause == TWO_POSITIVE_EDGES:
        triangle = (negative[0].id, positive[0].id, positive[1].id)
        return _line_circle(triangle, (v, v, v))
    circle = _circle_through_edge(graph, graph.edge(failed.edge))
    if graph.sign_of_walk(circle).is_negative:
        return circle_image(circle)
    # rotated to start at v, C's last edge, the spare negative edge and C's
    # first edge meet at v
    spare = next(e.id for e in negative if e.id not in circle.edges)
    j = circle.vertices.index(v)
    return _line_circle(
        circle.edges[j:] + circle.edges[:j] + (spare,),
        circle.vertices[j + 1:] + circle.vertices[:j + 1] + (v,),
    )


def find_witness(graph: SignedGraph, failed: Verdict) -> Circle:
    """A negative circle of the line graph for a failed verdict on ``graph``.

    Built from the failing clause of condition ii, without the line graph:
    three negative edges, or one negative and two positive edges, at the
    vertex form a triangle (O(deg)); a shortest circle C through a
    non-isthmus positive edge gives C's image if C is negative, else that
    image with the spare negative edge interposed at the vertex (O(m)); an
    unbalanced graph gives the image of a negative circle (O(m)).  Verdicts
    of other methods are re-derived with condition ii, which agrees with
    them.  The witness is checked against ``graph`` before it is returned.
    """
    if failed.line_consistent:
        raise GraphError("graph is line consistent; there is no witness")
    if failed.failed_clause not in _CONDITION_II_CLAUSES:
        failed = check_condition_ii(graph)
        if failed.line_consistent:
            raise GraphError("condition ii finds the graph line consistent")
    witness = _clause_witness(graph, failed)
    _verify_witness(graph, witness)
    return witness
