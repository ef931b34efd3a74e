"""Structural line-consistency checks, classification, and counterexamples.

Five independent decision routes live here: three local/structural conditions,
a simple-graph criterion, and a full structural classification.  All of them
must agree with the definitional oracle (``cycles.is_consistent_oracle`` on
the line graph); the test suite enforces that agreement exhaustively.  The
second condition is the production checker; the others are cross-validation
routes.  Every route counts degrees and negative degrees once, in one pass
over the columns (``_degrees``, not cached).  One local pass over those counts
(``_local_clauses``) serves four routes, conditions i, ii and iii and the
simple-graph criterion: it stops at the same vertex and tests the same
positive edges for each, and each names the failed clause in its own words.
Balance comes from one parity union-find per graph (``_forest``, cached),
always built with those tested edges merged last, so every route reads the
same one; conditions i and ii, one body, also read from it which tested edge
is not an isthmus, with no search.  Condition iii, the classifier and
corollary 3 read block labels and components, in vertex and edge numbers,
from one iterative depth-first search per graph (``SignedGraph.traversal``,
linear and cached).  An isthmus is an edge alone in its block, and these
routes test it on the labels, ``sizes[label[k]] == 1``; ``find_isthmi`` gives
the same fact as a set of ids, for callers outside them.  The witnesses,
derived from condition ii's failing clause in linear time, are built and
checked as line-graph circles by ``linegraph``.  Both graph-wide witnesses
come from one breadth-first search (``_odd_circle``) stopping at the first
edge that contradicts its parities: a negative circle, searched in place over
the unbalanced component's edges that the forest cuts out, and a shortest
circle through a positive non-isthmus edge.
"""

from __future__ import annotations

from array import array
from collections import defaultdict
from dataclasses import dataclass
from itertools import chain, compress, count
from operator import xor
from typing import Optional

from ._traversal import Forest
from .core import Circle, GraphError, SignedGraph, _circle
# line_graph, is_consistent_oracle, circle_vertex_sign and enumerate_circles are
# not used here but stay importable from this module: bench/tracer.py wraps them.
from .cycles import (
    DEFAULT_CIRCLE_CAP,
    circle_vertex_sign,
    circles_through,
    enumerate_circles,
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
    """Ids of the edges alone in their block: those on no circle.  The id
    view of the block labels; the routes here test the labels themselves."""
    label, sizes = graph.traversal.block_labels
    return frozenset(compress(graph.edge_ids, [sizes[b] == 1 for b in label]))


def blocks(graph: SignedGraph) -> list:
    """Maximal biconnected edge-subgraphs plus isolated vertices, sorted by
    (sorted vertices, sorted edges).  A block is nontrivial iff it contains a
    circle, i.e. has at least two edges; trivial blocks are exactly isthmi
    and isolated vertices."""
    ids, edge_ids, tail, ends = graph.vertex_ids, graph.edge_ids, graph.tail, graph.ends
    found = [
        Block(frozenset(ids[x] for k in edges for x in (tail[k], tail[k] ^ ends[k])),
              frozenset(map(edge_ids.__getitem__, edges)), nontrivial=len(edges) >= 2)
        for edges in graph.traversal.block_members
    ]
    found.extend(Block(frozenset((ids[run[0]],)), frozenset(), nontrivial=False)
                 for run in graph.traversal.components if len(run) == 1)
    found.sort(key=lambda b: (sorted(b.vertices), sorted(b.edges)))
    return found


def _balance_verdict(forest: Forest) -> Verdict:
    return Verdict(True) if forest.balanced else Verdict(False, UNBALANCED)


_NO_EDGE = array("l", [-1])  # ``_degrees``' positive_at at a vertex with no positive edge


def _degrees(graph: SignedGraph) -> tuple:
    """(degree, negative_degree, positive_at), one pass over the columns:
    each vertex's degree and negative degree, and the last positive edge at
    it in id order, its only one when it has one (-1 when it has none).
    ``positive_at`` is an ``array``, so it holds no int object per edge."""
    n = len(graph.vertex_ids)
    degree, negative_degree, positive_at = [0] * n, [0] * n, _NO_EDGE * n
    for k, a, e, odd in zip(count(), graph.tail, graph.ends, graph.negative):
        b = a ^ e
        degree[a] += 1
        degree[b] += 1
        if odd:
            negative_degree[a] += 1
            negative_degree[b] += 1
        else:
            positive_at[a] = positive_at[b] = k
    return degree, negative_degree, positive_at


def _local_clauses(graph: SignedGraph, degrees: tuple, clause) -> tuple:
    """The local clause every route opens with, read in vertex order over the
    vertices with a negative edge, from ``degrees`` (``_degrees(graph)``), up
    to the first that fails: (tested, failed).  A vertex passes at degree at
    most 2, or at degree 3 with two negative edges, whose positive edge it
    tests.  ``tested`` maps each tested edge to the first vertex testing it,
    once even when both ends test it; ``failed`` is the failed verdict, its
    clause named by the route's ``clause(degree, negative degree)``, or None.
    Two vertices testing one edge k fail or pass together in every route,
    so the first names them both: k is an isthmus or not, and a circle
    through one missing its negative pair runs along k, so it runs through
    the other and misses that one's pair too."""
    degree, negative_degree, positive_at = degrees
    tested = {}
    for i in compress(range(len(degree)), negative_degree):
        if degree[i] == 3 and negative_degree[i] == 2:
            tested.setdefault(positive_at[i], i)
        elif degree[i] > 2:
            return tested, Verdict(False, clause(degree[i], negative_degree[i]),
                                   vertex=graph.vertices[i])
    return tested, None


def _condition_ii_clause(degree: int, negatives: int) -> str:
    return NEGATIVE_DEGREE_ABOVE_2 if negatives > 2 else TWO_POSITIVE_EDGES


def _sign_clause(degree: int, negatives: int) -> str:  # conditions i and iii
    return "degree-3 vertex signs invalid" if degree == 3 else "degree>3 not totally positive"


def _theorem1_clause(degree: int, negatives: int) -> str:
    return ("degree-3 vertex without exactly two negative edges" if degree == 3
            else _sign_clause(degree, negatives))


def _forest(graph: SignedGraph, tested: Optional[dict] = None, degrees=None) -> Forest:
    """The graph's one parity union-find (``_traversal.Forest``), cached on
    it and built here alone, with the positive edges the local pass tests
    (``tested``, found here from ``degrees`` when None) merged last, in
    reverse vertex order.  The pass stops at the same vertex in every route,
    so the forest depends on the graph alone."""
    forest = graph.__dict__.get("forest")
    if forest is None:
        if tested is None:
            tested = _local_clauses(graph, degrees or _degrees(graph), _sign_clause)[0]
        forest = graph.__dict__["forest"] = Forest(graph, list(reversed(tested)))
    return forest


def _isthmus_clauses(graph: SignedGraph, clause, not_isthmus: str) -> Verdict:
    """Conditions i and ii, which differ only in the names of a failed local
    clause (``clause``) and of a tested edge that is not an isthmus.  When no
    tested edge closes a circle in the graph's forest, all are isthmi; else
    the last to close one is the first in vertex order that is not.  A local
    clause failing before any edge is tested needs no forest."""
    tested, failed = _local_clauses(graph, _degrees(graph), clause)
    if failed and not tested:
        return failed
    forest = _forest(graph, tested)
    if forest.closed:
        k = forest.closed[-1]
        return Verdict(False, not_isthmus,
                       vertex=graph.vertices[tested[k]], edge=graph.edge_ids[k])
    return failed or _balance_verdict(forest)


def check_condition_i(graph: SignedGraph) -> Verdict:
    """Balanced; degree > 3 totally positive; degree 3 totally positive or
    exactly one positive edge, which is an isthmus."""
    return _isthmus_clauses(graph, _sign_clause, "degree-3 positive edge not an isthmus")


def check_condition_ii(graph: SignedGraph) -> Verdict:
    """Balanced; the negative subgraph is a disjoint union of paths and
    circles; each endpoint of a negative edge has at most one positive edge,
    an isthmus when the vertex has two negative edges.

    Condition i's decision (``_isthmus_clauses``) under the clause names
    ``find_witness`` builds from.  It runs no search: the local clauses come
    from the columns, isthmi and balance from the graph's forest."""
    return _isthmus_clauses(graph, _condition_ii_clause, POSITIVE_EDGE_NOT_ISTHMUS)


def is_balanced_fast(graph: SignedGraph) -> bool:
    """Balance in O(m log n) time, from the switching parities of the
    graph's parity union-find (``_forest``)."""
    return _forest(graph).balanced


def find_negative_circle(graph: SignedGraph) -> Optional[Circle]:
    """A negative circle when the graph is unbalanced, else None.

    The graph's parity union-find (``_forest``) cuts out the edges of the
    unbalanced component with the least vertex in C-level passes.  They
    alone are indexed by the graph's vertex numbers, each vertex's edges
    ascending, and searched in place, with no subgraph built: a breadth-first
    search from that least vertex (``_odd_circle``) stops at the first edge
    whose sign contradicts the switching parities, whose circle has at most
    twice that vertex's eccentricity plus one edges.  Its sign is checked.
    """
    edges = _forest(graph).unbalanced_component()
    if edges is None:
        return None
    tail, ends, edges_at = graph.tail, graph.ends, defaultdict(list)
    for k in edges:
        a = tail[k]
        edges_at[a].append(k)
        edges_at[a ^ ends[k]].append(k)
    circle = _odd_circle(graph, min(edges_at), graph.negative.__getitem__, edges_at)
    if graph.sign_of_walk(circle).is_positive:
        raise GraphError(f"the search's circle {circle} is not negative")
    return circle


def _odd_circle(graph: SignedGraph, root: int, odd, incidence, skip=-1) -> Optional[Circle]:
    """The circle closed by the first edge whose oddness, ``odd(k)``,
    contradicts the switching parities of a breadth-first tree grown from
    vertex ``root`` (Harary 1953) along ``incidence[v]`` at each vertex v,
    or None when no edge of root's component does; edge ``skip`` never
    enters the tree.  The circle is that edge and the tree paths from its
    ends up to where they meet, each at most root's eccentricity long.  Only
    the vertices reached are kept, so the search costs what it visits."""
    up = {root: -2}  # vertex -> 2 * the edge entering it + its parity, -2 at the root
    ends, queue = graph.ends, [root]
    for v in queue:  # queue grows as the search reaches vertices
        for k in incidence[v]:
            w = ends[k] ^ v
            if w not in up:
                if k != skip:
                    up[w] = k << 1 | (up[v] ^ odd(k)) & 1
                    queue.append(w)
            elif (up[v] ^ up[w] ^ odd(k)) & 1:
                a, b = [v], [w]  # each end and its ancestors, up to the root
                for path in a, b:
                    while up[path[-1]] >= 0:
                        path.append(path[-1] ^ ends[up[path[-1]] >> 1])
                while len(a) > 1 < len(b) and a[-2] == b[-2]:  # cut to where they meet
                    a.pop()
                    b.pop()
                b.reverse()  # from where they meet down to w
                return _circle(graph, a + b[1:], [up[x] >> 1 for x in a[:-1] + b[1:]] + [k])
    return None


def check_condition_iii(graph: SignedGraph) -> Verdict:
    """Degree > 3 totally positive; degree 3 totally positive or exactly one
    positive edge; after deleting all positive isthmi, balanced with every
    negative edge's endpoints of degree at most 2.

    No second graph is built: isthmi lie on no circle, so deleting them
    leaves balance as it is.  Once the local clause holds, each endpoint of
    a negative edge has degree at most 2, or degree 3 with one positive
    edge, and keeps degree 3 exactly when that edge is not an isthmus."""
    degree, _, positive_at = degrees = _degrees(graph)
    tested, failed = _local_clauses(graph, degrees, _sign_clause)
    if failed:
        return failed
    if not _forest(graph, tested).balanced:
        return Verdict(False, "unbalanced after deleting positive isthmi")
    label, sizes = graph.traversal.block_labels
    for a, e in compress(zip(graph.tail, graph.ends), graph.negative):
        for x in (a, a ^ e):
            if degree[x] == 3 and sizes[label[positive_at[x]]] > 1:
                return Verdict(False, "negative-edge endpoint degree exceeds 2 after "
                               "deleting positive isthmi", vertex=graph.vertices[x])
    return Verdict(True)


def check_theorem1_simple(graph: SignedGraph) -> Verdict:
    """The simple-graph criterion: balanced; degree > 3 totally positive;
    degree 3 totally positive or two negative edges lying on every circle
    through the vertex (checked against the circles through that vertex
    alone, enumerated only once such a vertex is reached, and at one vertex
    per tested positive edge, the first testing it)."""
    if not graph.is_simple:
        raise GraphError("requires a simple graph")
    tested, failed = _local_clauses(graph, _degrees(graph), _theorem1_clause)
    off_circle = "degree-3 negative pair not on all circles through the vertex"
    for i in tested.values():
        v = graph.vertices[i]
        pair = {graph.edge_ids[k] for k in graph.incidence[i] if graph.negative[k]}
        circles = circles_through(graph, (v,), DEFAULT_CIRCLE_CAP)
        if any(not pair <= set(c.edges) for c in circles):
            return Verdict(False, off_circle, vertex=v)
    return failed or _balance_verdict(_forest(graph, tested))


def check_corollary_3(graph: SignedGraph) -> Optional[bool]:
    """For connected bridgeless graphs of order >= 4 with no divalent vertex:
    line consistent iff all positive.  None when the corollary does not apply.
    Every block has an edge, so the graph has an isthmus exactly when some
    block has one edge."""
    if len(graph.vertices) < 4:
        return None
    if len(graph.traversal.components) != 1:
        return None
    if 1 in graph.traversal.block_labels[1]:
        return None
    if 2 in _degrees(graph)[0]:
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

    Read from the columns, ``_degrees`` and the traversal's per-edge block
    labels, where an isthmus is an edge whose block has one edge.  Every
    negative edge at a vertex lies in its component, so a component's extra
    edges at a vertex are the vertex's positive edges; one loop tests them at
    its vertices of negative degree 2, a circle's vertices or a path's inner ones.
    """
    ids, edge_ids, tail, ends = graph.vertex_ids, graph.edge_ids, graph.tail, graph.ends
    negative, incidence = graph.negative, graph.incidence
    degree, negative_degree, positive_at = degrees = _degrees(graph)
    _forest(graph, degrees=degrees)  # built from these counts; is_balanced_fast reads it
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
        return sizes[label[k]] == 1

    def common_block(edges):  # the label of the block holding all of edges, or None
        b = label[edges[0]]
        return b if all(label[k] == b for k in edges) else None

    reports = []
    for run, comp_edges, inside in zip(runs, negative_edges, inside_edges):
        degrees = [negative_degree[v] for v in run]
        kind = _classify_kind(degrees)
        path = kind == "nontrivial-path"
        endpoints = [v for v, d in zip(run, degrees) if d == 1] if path else []
        inner = [v for v, d in zip(run, degrees) if d == 2] if path or kind == "circle" else []
        violations = []
        is_block = path_form = case = endpoints_divalent = endpoint_extras_ok = None
        if kind == "other":
            violations.append("negative component is not a circle, path, or single vertex")
        elif kind == "circle":
            b = common_block(comp_edges)
            is_block = b is not None and sizes[b] == len(comp_edges)
            if not is_block:
                violations.append("circle component is not a block")
        for v in endpoints:
            if degree[v] > 2:
                violations.append(f"path endpoint {ids[v]!r} is not at most divalent")
        word = "path" if path else "circle"
        for v in inner:  # at most one extra edge, a positive isthmus
            if degree[v] > 3:
                violations.append(f"more than one extra edge at {word} vertex {ids[v]!r}")
            elif degree[v] == 3 and not isthmus(positive_at[v]):
                violations.append(
                    f"extra edge at {word} vertex {ids[v]!r} is not a positive isthmus"
                )
        if path:
            b = common_block(comp_edges)
            if not inside:
                path_form = "induced"
            elif (
                len(inside) == 1
                and [tail[inside[0]], tail[inside[0]] ^ ends[inside[0]]] == endpoints
                and label[inside[0]] == b
                and sizes[b] == len(comp_edges) + 1
            ):
                path_form = "closes-circle-block"
            else:
                violations.append("path is neither induced nor closes a circle block")
            if b is not None and sizes[b] > 1:
                case = "a"
                endpoints_divalent = all(degree[v] == 2 for v in endpoints)
            elif all(map(isthmus, comp_edges)) and all(  # no endpoint in a nontrivial block
                    isthmus(k) for v in endpoints for k in incidence[v]):
                case = "b"
                # every edge at an endpoint is an isthmus, and the extra ones are positive
                endpoint_extras_ok = True
            else:
                violations.append("path is neither inside a nontrivial block nor an "
                                  "isthmus path with block-free endpoints")

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
    """A shortest circle containing edge ``k``, or None if it is an isthmus:
    the breadth-first search from its tail with ``k`` alone odd and kept out
    of the tree meets ``k`` first from its other end, reached along a
    shortest path that avoids it."""
    return _odd_circle(graph, graph.tail[k], k.__eq__, graph.incidence, k)


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
    unbalanced graph gives the image of a negative circle, searched in place
    over the edges that the graph's union-find cuts out in C-level passes.
    Both circles come from one breadth-first search (``_odd_circle``),
    C's with the edge alone odd and kept out of the tree.  Verdicts of other
    methods are re-derived with condition ii, which agrees with them.  No
    edge value is built: the witness is read from the graph's columns and
    checked against ``graph`` in O(len log m) before it is returned.
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
