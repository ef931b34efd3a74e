"""Immutable data model: signed multigraphs, marked multigraphs, circles, walks.

Edges carry explicit string identifiers so parallel edges stay distinguishable.
A graph is stored as integer columns (``_Multigraph``): its sorted vertex
ids, its edge ids in id order, each edge's endpoints as indices into the
vertex ids, and a negative bit per edge.  The depth-first search and the
checks of condition ii read the columns; edge values (``SignedEdge``) are
built from them only when a caller asks for ``edges``, ``edge()`` or
``incident_edges()``, and a graph built from edge values keeps the values it
was given.  The graph constructors are the one place the graph invariants are
checked: unique vertex ids, unique edge ids, no loops, and both endpoints
among the vertices; a violation names its position in the given order
(``vertices[i]`` or ``edges[i]``).  All values are frozen and every transform
returns a new value, so everything here is safe to share between threads.
"""

from __future__ import annotations

import enum
from dataclasses import FrozenInstanceError, dataclass
from functools import cached_property, reduce
from itertools import repeat
from operator import eq, xor
from typing import Iterable, Union

from . import _traversal


class GraphError(ValueError):
    """Invalid graph construction, lookup, or circle/walk validation."""


class Sign(enum.Enum):
    """Edge or vertex sign; the two-element group under multiplication."""

    POSITIVE = "+"
    NEGATIVE = "-"

    def __mul__(self, other: "Sign") -> "Sign":
        if not isinstance(other, Sign):
            return NotImplemented
        return Sign.POSITIVE if self is other else Sign.NEGATIVE

    @property
    def is_positive(self) -> bool:
        return self is Sign.POSITIVE

    @property
    def is_negative(self) -> bool:
        return self is Sign.NEGATIVE

    @classmethod
    def from_symbol(cls, symbol: str) -> "Sign":
        if symbol == "+":
            return cls.POSITIVE
        if symbol == "-":
            return cls.NEGATIVE
        raise GraphError(f"invalid sign {symbol!r}: expected '+' or '-'")

    def __str__(self) -> str:
        return self.value


def sign_product(signs: Iterable[Sign]) -> Sign:
    """Product of signs; the empty product is positive."""
    return reduce(Sign.__mul__, signs, Sign.POSITIVE)


@dataclass(frozen=True)
class Edge:
    """An unsigned edge (used by marked graphs).

    Endpoints are an unordered pair and are stored sorted, so edges compare
    structurally regardless of the order they were given in.
    """

    id: str
    u: str
    v: str

    def __post_init__(self):
        if self.u > self.v:
            u, v = self.v, self.u
            object.__setattr__(self, "u", u)
            object.__setattr__(self, "v", v)

    def touches(self, vertex: str) -> bool:
        return vertex in (self.u, self.v)

    def other_endpoint(self, vertex: str) -> str:
        if vertex == self.u:
            return self.v
        if vertex == self.v:
            return self.u
        raise GraphError(f"vertex {vertex!r} is not an endpoint of edge {self.id!r}")

    @property
    def endpoints(self) -> frozenset:
        return frozenset((self.u, self.v))


@dataclass(frozen=True)
class SignedEdge(Edge):
    """An edge of a signed graph."""

    sign: Sign = Sign.POSITIVE


def _check(vertex_ids, edge_ids, us, vs) -> tuple:
    """The graph invariants, on vertex ids and edge columns in their given
    order: raise GraphError naming, by its position, the first duplicate
    vertex id, duplicate edge id, loop or endpoint that is not a vertex.

    Return the sorted vertex ids, the edge positions in id order, the edge
    ids in that order, and, in the given order, each edge's endpoints as
    indices into the sorted vertex ids.  The checks run on whole columns;
    only a graph that fails one is walked in its given order, to name the
    first offender."""
    vertices = tuple(sorted(vertex_ids))
    index = dict(zip(vertices, range(len(vertices))))
    order = sorted(range(len(edge_ids)), key=edge_ids.__getitem__)
    ids = tuple(map(edge_ids.__getitem__, order))
    a = list(map(index.get, us, repeat(-1)))
    b = list(map(index.get, vs, repeat(-1)))
    if (len(index) == len(vertices) and not any(map(eq, ids, ids[1:]))
            and -1 not in a and -1 not in b and not any(map(eq, a, b))):
        return vertices, order, ids, a, b
    seen = set()
    for i, v in enumerate(vertex_ids):
        if v in seen:
            raise GraphError(f"vertices[{i}]: duplicate vertex id {v!r}")
        seen.add(v)
    seen = set()
    for i, (eid, u, v) in enumerate(zip(edge_ids, us, vs)):
        if eid in seen:
            raise GraphError(f"edges[{i}]: duplicate edge id {eid!r}")
        seen.add(eid)
        if u == v:
            raise GraphError(f"edges[{i}]: loop edge {eid!r} at vertex {u!r}")
        for endpoint in (u, v):
            if endpoint not in index:
                raise GraphError(f"edges[{i}]: endpoint {endpoint!r} is not a vertex")


class _Multigraph:
    """A graph's columns, edge lookup, incidence and the one depth-first
    search, shared by signed and marked graphs.

    ``vertex_ids`` are sorted and vertex i is ``vertex_ids[i]``; edge k is
    the k-th edge in id order, ``edge_ids[k]``, joining ``tail[k]`` and
    ``tail[k] ^ ends[k]`` (the lesser index is the tail), and
    ``negative[k]`` is true when it is negative.  Everything cached is
    derived from these columns.
    """

    def _store_columns(self, vertex_ids, edge_ids, us, vs, negative) -> list:
        """Check the invariants on the given order, then store the columns
        in id order; return that order as positions in the given one."""
        vertices, order, ids, a, b = _check(vertex_ids, edge_ids, us, vs)
        a, b = list(map(a.__getitem__, order)), list(map(b.__getitem__, order))
        self.__dict__.update(
            vertex_ids=vertices,
            edge_ids=ids,
            tail=[x if x < y else y for x, y in zip(a, b)],
            ends=list(map(xor, a, b)),
            negative=list(map(negative.__getitem__, order)),
        )
        return order

    @cached_property
    def incidence(self) -> list:
        """incidence[i]: the indices of vertex i's edges, in id order."""
        return _traversal.incidence(len(self.vertex_ids), self.tail, self.ends)

    @cached_property
    def _vertex_index(self) -> dict:
        return dict(zip(self.vertex_ids, range(len(self.vertex_ids))))

    @cached_property
    def _edge_index(self) -> dict:
        return dict(zip(self.edge_ids, range(len(self.edge_ids))))

    @cached_property
    def traversal(self) -> _traversal.Traversal:
        """The graph's one depth-first search: bridges, blocks, components
        and switching balance (an unsigned edge counts as positive)."""
        return _traversal.Traversal(self.vertex_ids, _traversal.Edges(
            self.edge_ids, self.tail, self.ends, self.negative, self.incidence
        ))

    def _vertex(self, vertex: str) -> int:
        try:
            return self._vertex_index[vertex]
        except KeyError:
            raise GraphError(f"unknown vertex {vertex!r}") from None

    def edge_triples(self) -> tuple:
        """Edges as (id, u, v) triples."""
        return tuple((e.id, e.u, e.v) for e in self.edges)

    def edge(self, edge_id: str) -> Edge:
        try:
            return self.edges[self._edge_index[edge_id]]
        except KeyError:
            raise GraphError(f"unknown edge {edge_id!r}") from None

    def incident_edges(self, vertex: str) -> tuple:
        edges = self.edges
        return tuple(edges[k] for k in self.incidence[self._vertex(vertex)])

    def degree(self, vertex: str) -> int:
        return len(self.incidence[self._vertex(vertex)])


class SignedGraph(_Multigraph):
    """A loopless multigraph with signed edges.

    ``vertices`` is kept sorted and ``edges`` sorted by edge id; two graphs
    are equal when their columns are, which is when their vertices and
    edges are.
    """

    def __init__(self, vertices: Iterable[str] = (), edges: Iterable = ()):
        edges, negative = tuple(edges), Sign.NEGATIVE
        self.__post_init__(
            tuple(vertices),
            [e.id for e in edges],
            [e.u for e in edges],
            [e.v for e in edges],
            [e.sign is negative for e in edges],
            edges,
        )

    @classmethod
    def _from_columns(cls, vertex_ids, edge_ids, us, vs, negative) -> "SignedGraph":
        """The graph on ``vertex_ids`` whose edge k is ``edge_ids[k]`` from
        ``us[k]`` to ``vs[k]``, negative when ``negative[k]``, with the same
        checks as the constructor."""
        graph = cls.__new__(cls)
        graph.__post_init__(vertex_ids, edge_ids, us, vs, negative)
        return graph

    def __post_init__(self, vertex_ids, edge_ids, us, vs, negative, edges=None):
        # every construction runs through this one method, under this name:
        # bench/tracer.py counts the graphs built by wrapping it
        order = self._store_columns(vertex_ids, edge_ids, us, vs, negative)
        self.__dict__["vertices"] = self.vertex_ids
        if edges is not None:
            self.__dict__["edges"] = tuple(map(edges.__getitem__, order))

    @cached_property
    def edges(self) -> tuple:
        """The edges as SignedEdge values, in id order."""
        vertices, signs = self.vertices, (Sign.POSITIVE, Sign.NEGATIVE)
        return tuple(
            SignedEdge(eid, vertices[a], vertices[a ^ e], signs[negative])
            for eid, a, e, negative in zip(self.edge_ids, self.tail, self.ends,
                                           self.negative)
        )

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def _key(self) -> tuple:
        return (self.vertices, self.edge_ids, self.tail, self.ends, self.negative)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(tuple(map(tuple, self._key())))

    def __repr__(self) -> str:
        return f"SignedGraph(vertices={self.vertices!r}, edges={self.edges!r})"

    def has_edge(self, edge_id: str) -> bool:
        return edge_id in self._edge_index

    def is_totally_positive(self, vertex: str) -> bool:
        return all(e.sign.is_positive for e in self.incident_edges(vertex))

    def is_totally_negative(self, vertex: str) -> bool:
        return all(e.sign.is_negative for e in self.incident_edges(vertex))

    @property
    def negative_edges(self) -> tuple:
        return tuple(e for e in self.edges if e.sign.is_negative)

    @property
    def positive_edges(self) -> tuple:
        return tuple(e for e in self.edges if e.sign.is_positive)

    def negative_subgraph(self) -> "SignedGraph":
        """Spanning subgraph keeping exactly the negative edges."""
        return SignedGraph(self.vertices, self.negative_edges)

    def without_edges(self, edge_ids: Iterable[str]) -> "SignedGraph":
        drop = set(edge_ids)
        for edge_id in drop:
            self.edge(edge_id)
        return SignedGraph(
            self.vertices, tuple(e for e in self.edges if e.id not in drop)
        )

    @property
    def is_simple(self) -> bool:
        return len(set(zip(self.tail, self.ends))) == len(self.tail)

    def sign_of_walk(self, walk: Union["Walk", "Circle"]) -> Sign:
        """Product of edge signs along a walk or circle of this graph."""
        if isinstance(walk, Circle):
            validate_circle(self, walk)
            return sign_product(self.edge(eid).sign for eid in walk.edges)
        _validate_walk(self, walk)
        return sign_product(self.edge(eid).sign for eid in walk.edges)


@dataclass(frozen=True)
class MarkedVertex:
    """A vertex of a marked graph, carrying its sign."""

    id: str
    sign: Sign


@dataclass(frozen=True)
class MarkedGraph(_Multigraph):
    """A loopless multigraph with signed vertices (a marked graph)."""

    vertices: tuple = ()
    edges: tuple = ()

    def __post_init__(self):
        vertices, edges = tuple(self.vertices), tuple(self.edges)
        order = self._store_columns(
            tuple(mv.id for mv in vertices),
            [e.id for e in edges],
            [e.u for e in edges],
            [e.v for e in edges],
            [False] * len(edges),
        )
        object.__setattr__(
            self, "vertices", tuple(sorted(vertices, key=lambda mv: mv.id))
        )
        object.__setattr__(self, "edges", tuple(map(edges.__getitem__, order)))

    @cached_property
    def _mark_index(self) -> dict:
        return {mv.id: mv.sign for mv in self.vertices}

    def mark(self, vertex: str) -> Sign:
        try:
            return self._mark_index[vertex]
        except KeyError:
            raise GraphError(f"unknown vertex {vertex!r}") from None

    @property
    def negative_vertex_ids(self) -> tuple:
        return tuple(mv.id for mv in self.vertices if mv.sign.is_negative)


@dataclass(frozen=True)
class Circle:
    """An elementary closed edge sequence.

    ``edges[i]`` joins ``vertices[i]`` to ``vertices[(i + 1) % len]``.  Length 2
    is a digon and needs the two edges parallel, which ``validate_circle``
    checks against a host graph.
    """

    edges: tuple
    vertices: tuple

    def __post_init__(self):
        object.__setattr__(self, "edges", tuple(self.edges))
        object.__setattr__(self, "vertices", tuple(self.vertices))
        if len(self.edges) < 2:
            raise GraphError("a circle has at least 2 edges")
        if len(self.edges) != len(self.vertices):
            raise GraphError("circle edge and vertex sequences differ in length")
        if len(set(self.edges)) != len(self.edges):
            raise GraphError("circle repeats an edge")
        if len(set(self.vertices)) != len(self.vertices):
            raise GraphError("circle repeats a vertex")

    def __len__(self) -> int:
        return len(self.edges)

    def canonical(self) -> "Circle":
        """Rotation/reflection with the lexicographically least edge sequence:
        the edges are distinct, so it starts at the least edge, in one of the
        two directions (linear time)."""
        k = self.edges.index(min(self.edges))
        edges = self.edges[k:] + self.edges[:k]
        vertices = self.vertices[k:] + self.vertices[:k]
        # the same circle traversed backwards from the least edge
        backwards = (edges[:1] + edges[:0:-1], vertices[1::-1] + vertices[:1:-1])
        return Circle(*min((edges, vertices), backwards))


@dataclass(frozen=True)
class Walk:
    """An edge sequence where consecutive edges share an endpoint."""

    edges: tuple = ()
    closed: bool = False

    def __post_init__(self):
        object.__setattr__(self, "edges", tuple(self.edges))


def _validate_walk(graph, walk: Walk) -> None:
    if not walk.edges:
        return
    # Thread (start, current) vertex pairs through the edge sequence; a walk is
    # valid iff some threading survives, and closes iff one returns to start.
    first = graph.edge(walk.edges[0])
    states = {(first.u, first.v), (first.v, first.u)}
    for eid in walk.edges[1:]:
        e = graph.edge(eid)
        states = {
            (start, e.other_endpoint(current))
            for start, current in states
            if e.touches(current)
        }
        if not states:
            raise GraphError(f"walk breaks at edge {eid!r}: not incident")
    if walk.closed and not any(start == current for start, current in states):
        raise GraphError("closed walk does not return to its start vertex")


def validate_circle(graph, circle: Circle) -> None:
    """Check that ``circle`` is a circle of ``graph``; raise GraphError if not."""
    n = len(circle)
    for i, eid in enumerate(circle.edges):
        e = graph.edge(eid)
        expected = frozenset((circle.vertices[i], circle.vertices[(i + 1) % n]))
        if e.endpoints != expected:
            raise GraphError(
                f"circle edge {eid!r} does not join "
                f"{sorted(expected)[0]!r} and {sorted(expected)[1]!r}"
            )


def new_signed_graph(vertices: Iterable[str], edges: Iterable) -> SignedGraph:
    """Build a validated SignedGraph.

    ``edges`` items may be SignedEdge values or (id, u, v, sign) tuples where
    the sign is a Sign or one of the symbols "+"/"-".
    """
    built = []
    for item in edges:
        if isinstance(item, SignedEdge):
            built.append(item)
            continue
        eid, u, v, sign = item
        if not isinstance(sign, Sign):
            sign = Sign.from_symbol(sign)
        built.append(SignedEdge(str(eid), str(u), str(v), sign))
    return SignedGraph(tuple(str(v) for v in vertices), tuple(built))


def new_marked_graph(vertices: Iterable, edges: Iterable) -> MarkedGraph:
    """Build a validated MarkedGraph from (id, sign) and (id, u, v) items."""
    marked = []
    for item in vertices:
        if isinstance(item, MarkedVertex):
            marked.append(item)
            continue
        vid, sign = item
        if not isinstance(sign, Sign):
            sign = Sign.from_symbol(sign)
        marked.append(MarkedVertex(str(vid), sign))
    built = []
    for item in edges:
        if isinstance(item, Edge):
            built.append(item)
        else:
            eid, u, v = item
            built.append(Edge(str(eid), str(u), str(v)))
    return MarkedGraph(tuple(marked), tuple(built))
