"""Structural line-consistency checks, classification, and counterexamples.

Four independent decision routes live here: three local/structural conditions,
a simple-graph criterion, and a full structural classification.  All of them
must agree with the definitional oracle (``cycles.is_consistent_oracle`` on
the line graph); the test suite enforces that agreement exhaustively.  The
second condition is the production checker; the others are cross-validation
routes.  The cross-validation routes read isthmi, blocks, components and
balance from one iterative depth-first search per graph
(``SignedGraph.traversal``, linear and cached).  Condition ii reads balance,
and whether its tested edges are isthmi, from one parity union-find
(``_traversal.Forest``), and starts the search only to name a tested edge
that is not an isthmus.  Witnesses are derived from the failing clause of
condition ii in linear time; ``linegraph`` builds them as line-graph circles
and checks them.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import chain, compress
from operator import xor
from typing import Optional

from ._traversal import Forest
from .core import Circle, GraphError, SignedGraph
# line_graph, is_consistent_oracle, circle_vertex_sign and enumerate_circles are
# not used here but stay importable from this module: bench/tracer.py wraps them.
from .cycles import (
    DEFAULT_CIRCLE_CAP,
    circle_vertex_sign,
    circles_through,
    enumerate_circles,
    find_negative_circle,
    is_balanced_fast,
    is_consistent_oracle,
)
from .linegraph import circle_image, line_circle, line_graph, verify_witness

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
    return graph.traversal.bridges


def blocks(graph: SignedGraph) -> list:
    """Maximal biconnected edge-subgraphs plus isolated vertices.

    A block is nontrivial iff it contains a circle, i.e. has at least two
    edges; trivial blocks are exactly isthmi and isolated vertices.
    """
    return [
        Block(vertices, edges, nontrivial=len(edges) >= 2)
        for vertices, edges in graph.traversal.blocks
    ]


def _balance_verdict(graph: SignedGraph) -> Verdict:
    return Verdict(True) if is_balanced_fast(graph) else Verdict(False, UNBALANCED)


def _degree_sign_clause(graph: SignedGraph, degree3_clause: str,
                        at_mixed=lambda v, positive, negative: None):
    """The local clause of conditions i and iii and the simple-graph
    criterion: degree > 3 totally positive; degree 3 totally positive or
    exactly one positive edge (else ``degree3_clause`` fails), and
    ``at_mixed``, called with the edge ids split by sign at each degree-3
    vertex with one positive edge, returns no failed verdict.  The first
    failure in vertex order, or None."""
    ids, is_negative = graph.edge_ids, graph.negative
    for v, incident in zip(graph.vertices, graph.incidence):
        negative = [ids[k] for k in incident if is_negative[k]]
        if not negative or len(incident) < 3:
            continue
        if len(incident) > 3:
            return Verdict(False, "degree>3 not totally positive", vertex=v)
        positive = [ids[k] for k in incident if not is_negative[k]]
        if len(positive) != 1:
            return Verdict(False, degree3_clause, vertex=v)
        failed = at_mixed(v, positive[0], negative)
        if failed:
            return failed
    return None


def check_condition_i(graph: SignedGraph) -> Verdict:
    """Balanced; degree > 3 totally positive; degree 3 totally positive or
    exactly one positive edge, which is an isthmus."""
    isthmi = find_isthmi(graph)

    def isthmus(v, positive, _):
        if positive not in isthmi:
            return Verdict(False, "degree-3 positive edge not an isthmus",
                           vertex=v, edge=positive)

    return (_degree_sign_clause(graph, "degree-3 vertex signs invalid", isthmus)
            or _balance_verdict(graph))


def _local_clauses(graph: SignedGraph) -> tuple:
    """The local clauses of condition ii, read in vertex order over the
    vertices with a negative edge, up to the first that fails: (tested,
    failed).  ``tested`` maps each positive edge met at a vertex with two
    negative edges and one positive edge to the first such vertex, once
    even when both ends test it; ``failed`` is the failed verdict, or None.
    The degrees are counted in one pass over the columns."""
    tail, ends, negative = graph.tail, graph.ends, graph.negative
    n = len(graph.vertex_ids)
    # degrees, negative degrees and, at each vertex, the last positive edge
    # met: its only one when it has one
    degree, negative_degree, positive_at = [0] * n, [0] * n, [-1] * n
    for k, (a, e, odd) in enumerate(zip(tail, ends, negative)):
        b = a ^ e
        degree[a] += 1
        degree[b] += 1
        if odd:
            negative_degree[a] += 1
            negative_degree[b] += 1
        else:
            positive_at[a] = positive_at[b] = k
    tested = {}
    for i in compress(range(n), negative_degree):
        count = negative_degree[i]
        others = degree[i] - count
        if count > 2:
            return tested, Verdict(False, NEGATIVE_DEGREE_ABOVE_2, vertex=graph.vertices[i])
        if others > 1:
            return tested, Verdict(False, TWO_POSITIVE_EDGES, vertex=graph.vertices[i])
        if count == 2 and others == 1:
            tested.setdefault(positive_at[i], i)
    return tested, None


def check_condition_ii(graph: SignedGraph) -> Verdict:
    """Balanced; the negative subgraph is a disjoint union of paths and
    circles; each endpoint of a negative edge has at most one positive edge,
    an isthmus when the vertex has two negative edges.

    The local clauses are read from the graph's columns (``_local_clauses``,
    whose degree lists are freed before the forest is built).  The positive
    edges they test are merged last into one parity union-find
    (``_traversal.Forest``): when none of them closes a circle, all are
    isthmi and the forest's balance answers the last clause; when one does,
    the graph's depth-first search names the first in vertex order that is
    not an isthmus.  A local clause that fails before any edge is tested
    needs neither."""
    tested, failed = _local_clauses(graph)
    if failed and not tested:
        return failed
    forest = Forest(graph, list(tested))
    if forest.closed:
        isthmi = find_isthmi(graph)
        for k, i in tested.items():
            if graph.edge_ids[k] not in isthmi:
                return Verdict(False, POSITIVE_EDGE_NOT_ISTHMUS,
                               vertex=graph.vertices[i], edge=graph.edge_ids[k])
        raise GraphError("a tested edge closed a circle, yet every one is an isthmus")
    return failed or (Verdict(True) if forest.balanced else Verdict(False, UNBALANCED))


def check_condition_iii(graph: SignedGraph) -> Verdict:
    """Degree > 3 totally positive; degree 3 totally positive or exactly one
    positive edge; after deleting all positive isthmi, balanced with every
    negative edge's endpoints of degree at most 2.

    No second graph is built: isthmi lie on no circle, so deleting them
    leaves balance as it is, and each degree drops by the positive isthmi
    at the vertex."""
    failed = _degree_sign_clause(graph, "degree-3 vertex signs invalid")
    if failed:
        return failed
    isthmi = find_isthmi(graph)
    if not is_balanced_fast(graph):
        return Verdict(False, "unbalanced after deleting positive isthmi")
    degree = list(map(len, graph.incidence))
    edges = list(zip(graph.edge_ids, graph.tail, graph.ends, graph.negative))
    for eid, a, e, negative in edges:
        if not negative and eid in isthmi:
            degree[a] -= 1
            degree[a ^ e] -= 1
    for eid, a, e, negative in edges:
        if not negative:
            continue
        for x in (a, a ^ e):
            if degree[x] > 2:
                return Verdict(
                    False,
                    "negative-edge endpoint degree exceeds 2 "
                    "after deleting positive isthmi",
                    vertex=graph.vertices[x],
                )
    return Verdict(True)


def check_theorem1_simple(graph: SignedGraph) -> Verdict:
    """The simple-graph criterion: balanced; degree > 3 totally positive;
    degree 3 totally positive or two negative edges lying on every circle
    through the vertex (checked against the circles through that vertex
    alone, enumerated only once such a vertex is reached)."""
    if not graph.is_simple:
        raise GraphError("requires a simple graph")

    def pair_on_every_circle(v, _, negative):
        pair = set(negative)
        circles = circles_through(graph, (v,), DEFAULT_CIRCLE_CAP)
        if any(not pair <= set(c.edges) for c in circles):
            return Verdict(
                False,
                "degree-3 negative pair not on all circles through the vertex",
                vertex=v,
            )

    return _degree_sign_clause(
        graph, "degree-3 vertex without exactly two negative edges", pair_on_every_circle
    ) or _balance_verdict(graph)


def check_corollary_3(graph: SignedGraph) -> Optional[bool]:
    """For connected bridgeless graphs of order >= 4 with no divalent vertex:
    line consistent iff all positive.  None when the corollary does not apply."""
    if len(graph.vertices) < 4:
        return None
    if len(graph.traversal.components) != 1:
        return None
    if find_isthmi(graph):
        return None
    if 2 in map(len, graph.incidence):
        return None
    return not any(graph.negative)


def _classify_kind(degrees: list) -> str:
    """A negative component's kind, from its vertices' negative degrees."""
    if len(degrees) == 1:  # a vertex on no negative edge
        return "single-vertex"
    if all(d == 2 for d in degrees):
        return "circle"
    if degrees.count(1) == 2 and all(d in (1, 2) for d in degrees):
        return "nontrivial-path"
    return "other"


def classify_structure(graph: SignedGraph) -> StructureReport:
    """Classify every negative-subgraph component against the structural form.

    Overall: balanced, every component a circle, nontrivial path, or single
    vertex, circle components forming blocks with only positive-isthmus
    attachments, and path components either induced or closing a circle block,
    sitting inside a nontrivial block (a) or made entirely of isthmi with
    block-free endpoints (b).  Divalent-endpoint and endpoint-attachment facts
    are consequences of the form; they are reported, not enforced.

    Read from the columns and the traversal's per-edge block labels.  Every
    negative edge at a vertex lies in its component, so a component's extra
    edges at a vertex are the vertex's positive edges.
    """
    ids, edge_ids, tail, ends = graph.vertex_ids, graph.edge_ids, graph.tail, graph.ends
    negative, incidence = graph.negative, graph.incidence
    isthmi = find_isthmi(graph)
    label, sizes = graph.traversal.block_labels
    # the negative subgraph's components, by least vertex, from a search along
    # the negative edges; runs[i] lists component i's vertices in order
    component, runs = [-1] * len(ids), []
    for root in range(len(ids)):
        if component[root] < 0:
            component[root] = len(runs)
            run = [root]
            for v in run:  # run grows as the search reaches vertices
                for k in incidence[v]:
                    w = ends[k] ^ v
                    if negative[k] and component[w] < 0:
                        component[w] = len(runs)
                        run.append(w)
            runs.append(sorted(run))
    # each component's negative edges, and the positive edges inside it
    negative_edges = [[] for _ in runs]
    inside_edges = [[] for _ in runs]
    for k, (a, e) in enumerate(zip(tail, ends)):
        i = component[a]
        if negative[k]:
            negative_edges[i].append(k)
        elif i == component[a ^ e]:
            inside_edges[i].append(k)

    def isthmus(k):
        return edge_ids[k] in isthmi

    def whole_block(edges):  # whether edges are exactly one block's edges
        b = label[edges[0]]
        return sizes[b] == len(edges) and all(label[k] == b for k in edges)

    reports = []
    for run, comp_edges, inside in zip(runs, negative_edges, inside_edges):
        degrees = [sum(map(negative.__getitem__, incidence[v])) for v in run]
        kind = _classify_kind(degrees)
        endpoints = []
        violations = []
        is_block = path_form = case = endpoints_divalent = endpoint_extras_ok = None

        def check_extras(word, inner):
            """At most one extra edge at each inner vertex, a positive isthmus."""
            for v in inner:
                extras = [k for k in incidence[v] if not negative[k]]
                if len(extras) > 1:
                    violations.append(
                        f"more than one extra edge at {word} vertex {ids[v]!r}")
                elif extras and not isthmus(extras[0]):
                    violations.append(
                        f"extra edge at {word} vertex {ids[v]!r} is not a positive isthmus"
                    )

        if kind == "other":
            violations.append(
                "negative component is not a circle, path, or single vertex"
            )
        elif kind == "circle":
            is_block = whole_block(comp_edges)
            if not is_block:
                violations.append("circle component is not a block")
            check_extras("circle", run)
        elif kind == "nontrivial-path":
            endpoints = [v for v, d in zip(run, degrees) if d == 1]
            for v in endpoints:
                if len(incidence[v]) > 2:
                    violations.append(f"path endpoint {ids[v]!r} is not at most divalent")
            check_extras("path", (v for v in run if v not in endpoints))
            if not inside:
                path_form = "induced"
            elif (
                len(inside) == 1
                and [tail[inside[0]], tail[inside[0]] ^ ends[inside[0]]] == endpoints
                and whole_block(comp_edges + inside)
            ):
                path_form = "closes-circle-block"
            else:
                violations.append("path is neither induced nor closes a circle block")
            b = label[comp_edges[0]]
            if sizes[b] > 1 and all(label[k] == b for k in comp_edges):
                case = "a"
                endpoints_divalent = all(len(incidence[v]) == 2 for v in endpoints)
            elif all(map(isthmus, comp_edges)) and all(  # no endpoint in a nontrivial block
                isthmus(k) for v in endpoints for k in incidence[v]
            ):
                case = "b"
                # every edge at an endpoint is an isthmus, and the extra ones are positive
                endpoint_extras_ok = True
            else:
                violations.append(
                    "path is neither inside a nontrivial block nor an "
                    "isthmus path with block-free endpoints"
                )

        reports.append(
            ComponentReport(
                kind=kind,
                vertices=tuple(map(ids.__getitem__, run)),
                edges=tuple(map(edge_ids.__getitem__, comp_edges)),
                ok=not violations,
                violations=tuple(violations),
                is_block=is_block,
                path_form=path_form,
                case=case,
                endpoints=tuple(map(ids.__getitem__, endpoints)),
                endpoints_divalent=endpoints_divalent,
                endpoint_extras_positive_isthmi=endpoint_extras_ok,
            )
        )

    balanced = is_balanced_fast(graph)
    overall = balanced and all(r.ok for r in reports)
    return StructureReport(
        balanced=balanced, components=tuple(reports), line_consistent=overall
    )


def _circle_through_edge(graph: SignedGraph, k: int) -> Optional[Circle]:
    """A shortest circle containing edge ``k``: BFS over the incidence between
    its endpoints avoiding the edge itself, then close with it.  None if it is
    an isthmus."""
    ends, incidence, start = graph.ends, graph.incidence, graph.tail[k]
    goal = start ^ ends[k]
    parent = {start: -1}  # vertex -> the edge that reached it
    queue = deque([start])
    while queue and goal not in parent:
        v = queue.popleft()
        for j in incidence[v]:
            w = ends[j] ^ v
            if j != k and w not in parent:
                parent[w] = j
                queue.append(w)
    if goal not in parent:
        return None
    # walk the tree path back from goal to start; edge k closes it
    vertices, edges = [goal], []
    while parent[vertices[-1]] >= 0:
        edges.append(parent[vertices[-1]])
        vertices.append(ends[edges[-1]] ^ vertices[-1])
    edges.append(k)
    return Circle(tuple(map(graph.edge_ids.__getitem__, edges)),
                  tuple(map(graph.vertex_ids.__getitem__, vertices)))


def _clause_witness(graph: SignedGraph, failed: Verdict) -> Circle:
    """The paper's negative line-graph circle for a failed clause of
    condition ii, read from the graph's columns."""
    v, clause = failed.vertex, failed.failed_clause
    if clause == UNBALANCED:
        return circle_image(find_negative_circle(graph))
    ids, is_negative, tail = graph.edge_ids, graph.negative, graph.tail
    # v's edges in id order, read from the columns in one scan, not from the
    # incidence lists, which a graph failing a local clause has no other use for
    i, numbers = graph._vertex(v), range(len(tail))
    incident = sorted(chain(compress(numbers, map(i.__eq__, tail)),
                            compress(numbers, map(i.__eq__, map(xor, tail, graph.ends)))))
    positive = [ids[k] for k in incident if not is_negative[k]]
    negative = [ids[k] for k in incident if is_negative[k]]
    if clause == NEGATIVE_DEGREE_ABOVE_2:
        return line_circle(tuple(negative[:3]), (v, v, v))
    if clause == TWO_POSITIVE_EDGES:
        return line_circle((negative[0], positive[0], positive[1]), (v, v, v))
    circle = _circle_through_edge(graph, graph._edge_number(failed.edge))
    if graph.sign_of_walk(circle).is_negative:
        return circle_image(circle)
    # rotated to start at v, C's last edge, the spare negative edge and C's
    # first edge meet at v
    spare = next(eid for eid in negative if eid not in circle.edges)
    j = circle.vertices.index(v)
    return line_circle(
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
    them.  No edge value is built: the witness is read from the graph's columns
    and checked against ``graph`` in O(len log m) before it is returned.
    """
    if failed.line_consistent:
        raise GraphError("graph is line consistent; there is no witness")
    if failed.failed_clause not in _CONDITION_II_CLAUSES:
        failed = check_condition_ii(graph)
        if failed.line_consistent:
            raise GraphError("condition ii finds the graph line consistent")
    witness = _clause_witness(graph, failed)
    verify_witness(graph, witness)
    return witness
