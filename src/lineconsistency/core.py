"""Immutable data model: signed multigraphs, marked multigraphs and circles.

Edges carry explicit string identifiers so parallel edges stay distinguishable.
A graph is stored as integer columns (``_Multigraph``): its sorted vertex
ids, its edge ids in id order, each edge's endpoints as indices into the
vertex ids, and its signs as ``bytes``, one 0/1 byte per edge, whatever
built it, so graphs built on different paths compare and hash equal.  The
depth-first search (block labels, components), the parity union-find
(balance), circle checks and witnesses read the columns and find an id by
bisecting the sorted ids, so checking a circle of length L costs O(L log m).
A marked graph has the same columns, its signs all 0, plus a negative bit
per vertex.  Edge and vertex values (``SignedEdge``, ``Edge``,
``MarkedVertex``) are derived from the columns when a caller asks for
``edges``, a marked graph's ``vertices``, ``edge()`` or
``incident_edges()``.  Every graph is filled from columns, and that is the
one place the graph invariants are checked: unique vertex ids, unique edge
ids, no loops, and both endpoints among the vertices; a violation names its
position in the given order (``vertices[i]`` or ``edges[i]``).  The
endpoints come as ids, or as numbers from a caller that already holds them
(the JSON reader, subgraphs, the line graph), so that no endpoint is looked
up twice.  All values are frozen and every transform returns a new value, so
everything here is safe to share between threads.
"""

from __future__ import annotations

import enum
from bisect import bisect_left
from dataclasses import FrozenInstanceError, dataclass
from functools import cached_property, reduce
from itertools import compress, islice, repeat, starmap
from operator import eq, lt, xor
from types import SimpleNamespace
from typing import Iterable

from . import _traversal


class GraphError(ValueError):
    """Invalid graph construction, lookup, or circle validation."""


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


_SIGNS = (Sign.POSITIVE, Sign.NEGATIVE)  # indexed by a negative bit


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


@dataclass(frozen=True)
class SignedEdge(Edge):
    """An edge of a signed graph; the sign is a Sign or its symbol "+"/"-"."""

    sign: Sign = Sign.POSITIVE

    def __post_init__(self):
        super().__post_init__()
        if self.sign.__class__ is not Sign:
            object.__setattr__(self, "sign", Sign.from_symbol(self.sign))


def _ascending(ids) -> bool:
    """Whether ``ids`` are strictly ascending, hence also distinct: one
    C-level pass over neighbouring pairs, with no copy."""
    return all(map(lt, ids, islice(ids, 1, None)))


def _check(vertex_ids, edge_ids, us, vs, numbered=False) -> tuple:
    """The graph invariants, on vertex ids and edge columns in their given
    order: raise GraphError naming, by its position, the first duplicate
    vertex id, duplicate edge id, loop or endpoint that is not a vertex.

    ``us`` and ``vs`` are endpoint ids or, when ``numbered``, a caller's
    endpoint numbers: indices into ``vertex_ids``.  Return the sorted vertex
    ids, the edge positions in id order (None when the edges already
    arrive in id order), the edge ids in id order, and, in the given order,
    each edge's lesser endpoint, as an index into the sorted vertex ids,
    and the xor of its two endpoints' indices.  Ids that arrive strictly
    ascending, as every document the JSON writer emits has them, are
    neither sorted nor copied in a new order, and their endpoint numbers
    are kept; any other order is sorted, and numbered endpoints are then
    numbered again through their ids.  The checks run on whole columns;
    only a graph that fails one is walked in its given order, to name the
    first offender."""
    n = len(vertex_ids)
    if numbered and not _ascending(vertex_ids):
        if not all(0 <= x < n for column in (us, vs) for x in column):
            raise GraphError("endpoint numbers must index the vertex ids")
        numbered, us, vs = False, [vertex_ids[x] for x in us], [vertex_ids[x] for x in vs]
    if numbered:
        vertices, a, b = tuple(vertex_ids), us, vs
    else:
        vertices = tuple(vertex_ids if _ascending(vertex_ids) else sorted(vertex_ids))
        index = dict(zip(vertices, range(n)))
        # an endpoint that is not a vertex is numbered -1
        a = list(map(index.get, us, repeat(-1)))
        b = list(map(index.get, vs, repeat(-1)))
    tail = [x if x < y else y for x, y in zip(a, b)]
    ends = list(map(xor, a, b))  # 0 for a loop
    if numbered:
        known = not tail or (min(tail) >= 0 and max(a) < n and max(b) < n)
    else:
        known = len(index) == n and -1 not in tail
    if _ascending(edge_ids):
        order, distinct, ids = None, True, tuple(edge_ids)
    else:
        order = sorted(range(len(edge_ids)), key=edge_ids.__getitem__)
        ids = tuple(map(edge_ids.__getitem__, order))
        distinct = not any(map(eq, ids, islice(ids, 1, None)))
    if known and distinct and 0 not in ends:
        return vertices, order, ids, tail, ends
    if numbered:
        if not known:
            raise GraphError("endpoint numbers must index the vertex ids")
        us, vs = map(vertices.__getitem__, a), map(vertices.__getitem__, b)
    seen = set()
    for i, v in enumerate(vertex_ids):
        if v in seen:
            raise GraphError(f"vertices[{i}]: duplicate vertex id {v!r}")
        seen.add(v)
    seen = set()
    for i, (eid, u, v, x, y) in enumerate(zip(edge_ids, us, vs, a, b)):
        if eid in seen:
            raise GraphError(f"edges[{i}]: duplicate edge id {eid!r}")
        seen.add(eid)
        if u == v:
            raise GraphError(f"edges[{i}]: loop edge {eid!r} at vertex {u!r}")
        for endpoint, number in ((u, x), (v, y)):
            if number < 0:
                raise GraphError(f"edges[{i}]: endpoint {endpoint!r} is not a vertex")


def _find(ids, key) -> int:
    """The index of ``key`` in the sorted ``ids``, or -1."""
    try:
        i = bisect_left(ids, key)
    except TypeError:  # not comparable with the ids, so not among them
        return -1
    return i if i < len(ids) and ids[i] == key else -1


class _Multigraph:
    """A graph's columns, edge lookup, incidence and the one depth-first
    search, shared by signed and marked graphs.

    ``vertex_ids`` are sorted and vertex i is ``vertex_ids[i]``; edge k is
    the k-th edge in id order, ``edge_ids[k]``, joining ``tail[k]`` and
    ``tail[k] ^ ends[k]`` (the lesser index is the tail), and
    ``negative[k]``, a byte of the ``bytes`` column, is 1 when it is
    negative, else 0.  Everything cached is
    derived from these columns.
    """

    @classmethod
    def _from_columns(cls, *columns, numbered=False):
        """The graph with the given columns, in the order its
        ``__post_init__`` takes them, with the same checks as the
        constructor; ``numbered`` as for ``_check``."""
        graph = cls.__new__(cls)
        graph.__post_init__(*columns, numbered)
        return graph

    def _store_columns(self, vertex_ids, edge_ids, us, vs, negative, numbered) -> None:
        """Check the invariants on the given order, then store the columns
        in id order.  Columns given in id order are permuted by nothing.
        The negative bits, any iterable of 0/1 or bools, are stored as
        ``bytes``, one byte per edge: a given ``bytes`` in id order is kept,
        as it cannot change, and anything else is copied."""
        vertices, order, ids, tail, ends = _check(vertex_ids, edge_ids, us, vs, numbered)
        if order is not None:
            tail = list(map(tail.__getitem__, order))
            ends = list(map(ends.__getitem__, order))
            negative = map(negative.__getitem__, order)
        negative = bytes(negative)
        self.__dict__.update(
            vertex_ids=vertices, edge_ids=ids, tail=tail, ends=ends, negative=negative)

    @cached_property
    def incidence(self) -> list:
        """incidence[i]: the indices of vertex i's edges, in id order."""
        return _traversal.incidence(len(self.vertex_ids), self.tail, self.ends)

    @cached_property
    def traversal(self) -> _traversal.Traversal:
        """The graph's one depth-first search, in vertex and edge numbers:
        block labels and components.  Balance is ``SignedGraph.forest``'s."""
        return _traversal.Traversal(self)

    def _vertex(self, vertex: str) -> int:
        i = _find(self.vertex_ids, vertex)
        if i < 0:
            raise GraphError(f"unknown vertex {vertex!r}")
        return i

    def _edge_number(self, edge_id: str) -> int:
        k = _find(self.edge_ids, edge_id)
        if k < 0:
            raise GraphError(f"unknown edge {edge_id!r}")
        return k

    def _endpoints(self, k: int) -> tuple:
        """The ids of edge k's endpoints, the lesser first."""
        a = self.tail[k]
        return self.vertex_ids[a], self.vertex_ids[a ^ self.ends[k]]

    def edge_triples(self) -> tuple:
        """Edges as (id, u, v) triples, in id order, read from the columns."""
        ids = self.vertex_ids
        return tuple((eid, ids[a], ids[a ^ e])
                     for eid, a, e in zip(self.edge_ids, self.tail, self.ends))

    def edge(self, edge_id: str) -> Edge:
        return self.edges[self._edge_number(edge_id)]

    def incident_edges(self, vertex: str) -> tuple:
        edges = self.edges
        return tuple(edges[k] for k in self.incidence[self._vertex(vertex)])

    def degree(self, vertex: str) -> int:
        return len(self.incidence[self._vertex(vertex)])

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(tuple(map(tuple, self._key())))

    def __repr__(self) -> str:
        return f"{type(self).__name__}(vertices={self.vertices!r}, edges={self.edges!r})"


class SignedGraph(_Multigraph):
    """A loopless multigraph with signed edges.

    ``vertices`` is kept sorted and ``edges`` sorted by edge id; two graphs
    are equal when their columns are, which is when their vertices and
    edges are.
    """

    def __init__(self, vertices: Iterable = (), edges: Iterable = ()):
        """``edges`` items may be SignedEdge values or (id, u, v, sign)
        tuples, whose sign is a Sign or one of the symbols "+"/"-"; vertex
        ids and tuple fields are stringified.  The items go straight into
        the graph's columns; no edge value is built."""
        rows = []
        for item in edges:
            if isinstance(item, SignedEdge):
                rows.append((item.id, item.u, item.v, item.sign is Sign.NEGATIVE))
                continue
            eid, u, v, sign = item
            if not isinstance(sign, Sign):
                sign = Sign.from_symbol(sign)
            rows.append((str(eid), str(u), str(v), sign is Sign.NEGATIVE))
        self.__post_init__(tuple(str(v) for v in vertices), *_columns(rows, 4))

    def __post_init__(self, vertex_ids, edge_ids, us, vs, negative, numbered=False):
        """Fill the graph on ``vertex_ids`` whose edge k is ``edge_ids[k]``
        from ``us[k]`` to ``vs[k]``, negative when ``negative[k]``; the
        endpoints are ids, or numbers when ``numbered`` (see ``_check``)."""
        # every construction runs through this one method, under this name:
        # bench/tracer.py counts the graphs built by wrapping it
        self._store_columns(vertex_ids, edge_ids, us, vs, negative, numbered)
        self.__dict__["vertices"] = self.vertex_ids

    @cached_property
    def edges(self) -> tuple:
        """The edges as SignedEdge values, in id order."""
        vertices = self.vertices
        return tuple(
            SignedEdge(eid, vertices[a], vertices[a ^ e], _SIGNS[negative])
            for eid, a, e, negative in zip(self.edge_ids, self.tail, self.ends,
                                           self.negative)
        )

    @cached_property
    def forest(self) -> _traversal.Forest:
        """The parity union-find all balance is read from (condition ii seeds it)."""
        return _traversal.Forest(self)

    def _key(self) -> tuple:
        return (self.vertices, self.edge_ids, self.tail, self.ends, self.negative)

    @property
    def negative_edges(self) -> tuple:
        return tuple(compress(self.edges, self.negative))

    def _part(self, edges) -> "SignedGraph":
        """The spanning subgraph keeping the edge numbers ``edges``,
        ascending, cut from the columns."""
        tail, ends, negative = self.tail, self.ends, self.negative
        return SignedGraph._from_columns(
            self.vertex_ids, list(map(self.edge_ids.__getitem__, edges)),
            [tail[k] for k in edges], [tail[k] ^ ends[k] for k in edges],
            bytes([negative[k] for k in edges]), numbered=True)

    def negative_subgraph(self) -> "SignedGraph":
        """Spanning subgraph keeping exactly the negative edges."""
        return self._part(list(compress(range(len(self.tail)), self.negative)))

    def without_edges(self, edge_ids: Iterable[str]) -> "SignedGraph":
        drop = set(map(self._edge_number, edge_ids))
        return self._part([k for k in range(len(self.tail)) if k not in drop])

    @property
    def is_simple(self) -> bool:
        return len(set(zip(self.tail, self.ends))) == len(self.tail)

    def sign_of_walk(self, circle: Circle) -> Sign:
        """Product of edge signs around a circle of this graph."""
        negative = self.negative
        return _SIGNS[sum([negative[k] for k in validate_circle(self, circle)]) & 1]


@dataclass(frozen=True)
class MarkedVertex:
    """A vertex of a marked graph; the sign is a Sign or its symbol "+"/"-"."""

    id: str
    sign: Sign

    def __post_init__(self):
        if self.sign.__class__ is not Sign:
            object.__setattr__(self, "sign", Sign.from_symbol(self.sign))


class MarkedGraph(_Multigraph):
    """A loopless multigraph with signed vertices (a marked graph): the
    columns of ``SignedGraph`` with all-zero ``negative``, plus ``marks[i]``,
    true when vertex i is negative."""

    def __init__(self, vertices: Iterable = (), edges: Iterable = ()):
        """``vertices`` items may be MarkedVertex values or (id, sign)
        tuples and ``edges`` items Edge values or (id, u, v) tuples, taken
        into the columns as ``SignedGraph`` takes its items."""
        marked = []
        for item in vertices:
            if isinstance(item, MarkedVertex):
                marked.append((item.id, item.sign is Sign.NEGATIVE))
                continue
            vid, sign = item
            if not isinstance(sign, Sign):
                sign = Sign.from_symbol(sign)
            marked.append((str(vid), sign is Sign.NEGATIVE))
        rows = []
        for item in edges:
            if isinstance(item, Edge):
                rows.append((item.id, item.u, item.v))
                continue
            eid, u, v = item
            rows.append((str(eid), str(u), str(v)))
        self.__post_init__(*_columns(marked, 2), *_columns(rows, 3))

    def __post_init__(self, vertex_ids, marks, edge_ids, us, vs, numbered=False) -> None:
        """Fill the marked graph on ``vertex_ids``, the i-th negative when
        ``marks[i]``, whose edge k is ``edge_ids[k]`` from ``us[k]`` to
        ``vs[k]``, ids or numbers as ``SignedGraph`` takes them."""
        self._store_columns(vertex_ids, edge_ids, us, vs, bytes(len(us)), numbered)
        if self.vertex_ids != tuple(vertex_ids):  # put the marks in id order
            marks = map(dict(zip(vertex_ids, marks)).__getitem__, self.vertex_ids)
        self.__dict__["marks"] = list(marks)

    @cached_property
    def vertices(self) -> tuple:
        """The vertices as MarkedVertex values, by id."""
        signs = map(_SIGNS.__getitem__, self.marks)
        return tuple(map(MarkedVertex, self.vertex_ids, signs))

    @cached_property
    def edges(self) -> tuple:
        """The edges as Edge values, in id order."""
        return tuple(starmap(Edge, self.edge_triples()))

    def _key(self) -> tuple:
        return (self.vertex_ids, self.marks, self.edge_ids, self.tail, self.ends)

    def mark(self, vertex: str) -> Sign:
        return _SIGNS[self.marks[self._vertex(vertex)]]


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


def _circle(graph, cycle, edges) -> Circle:
    """The canonical circle along the vertex numbers ``cycle`` and the edge
    numbers ``edges``, built once (``Circle.canonical`` reads only them)."""
    return Circle.canonical(SimpleNamespace(
        edges=tuple(map(graph.edge_ids.__getitem__, edges)),
        vertices=tuple(map(graph.vertex_ids.__getitem__, cycle))))


def validate_circle(graph, circle: Circle) -> list:
    """Check that ``circle`` is a circle of ``graph``, signed or marked, from
    its columns in O(len(circle) log m); raise GraphError if not.  Return the
    numbers of the circle's edges, in its order."""
    n, numbers = len(circle), []
    for i, eid in enumerate(circle.edges):
        k = graph._edge_number(eid)
        u, v = sorted((circle.vertices[i], circle.vertices[(i + 1) % n]))
        if graph._endpoints(k) != (u, v):
            raise GraphError(f"circle edge {eid!r} does not join {u!r} and {v!r}")
        numbers.append(k)
    return numbers


def _columns(rows: list, width: int):
    """The columns of equal-length rows; ``width`` empty ones for no rows."""
    return zip(*rows) if rows else ((),) * width


# the constructors under the names README and the benchmark read
new_signed_graph = SignedGraph
new_marked_graph = MarkedGraph
