"""JSON serialization of graphs and reports, plus Graphviz DOT export.

The JSON schema: ``{"vertices": [str, ...], "edges": [{"id", "u", "v",
"sign"}, ...]}`` with signs written as "+" or "-".  Numeric identifiers are
stringified on read; booleans are rejected.  The reader checks only the
document's shape, taking the decoded edges straight into the graph's
columns (ids, endpoints, negative bits) without building edge values; the
graph invariants (unique ids, no loops, endpoints among the vertices) are
checked once, by the graph constructor, and its error is re-raised as
GraphFormatError with the same ``vertices[i]``/``edges[i]`` location.
Vertex ids and edge objects are decoded only by ``_vertex_ids`` and
``_edge_columns``.  Input in the writers' layout longer than one chunk
(``_CHUNK``: 64K characters, or bytes of a file) has its vertices decoded
first, then its edges a chunk at a time, each chunk's endpoints numbered
before it is dropped.  A regular file's text is never held whole.  Stdin,
a smaller file and a file the stream refuses (a fault, or a ``\\r`` byte)
are read as a text, which is dropped before the graph is built (and freed,
as the CLI's loader holds no other reference).  A text in any other layout,
or with a fault or an endpoint that is not a vertex, is decoded whole,
which names the fault at its place.  Ids that arrive in id order, as the
writers emit them, are not sorted.  The writers emit the canonical text of
``json.dumps(document, indent=2, sort_keys=True)`` straight from the
columns, each id quoted by json's own C string encoder: writes are
byte-deterministic, reads of writes round-trip structurally, and ids must
be strings (another id raises TypeError).
"""

from __future__ import annotations

import json
import os
from json.encoder import encode_basestring_ascii
from operator import itemgetter
from stat import S_ISREG

# new_signed_graph is not used here but stays importable from this module:
# bench/tracer.py wraps it.
from .core import GraphError, MarkedGraph, Sign, SignedGraph, new_signed_graph

_STRING = frozenset((str,))
_NEGATIVE = {"+": False, "-": True}  # a sign symbol's negative bit
_ID, _U, _V, _SIGN = map(itemgetter, ("id", "u", "v", "sign"))


class GraphFormatError(GraphError):
    """Malformed JSON input: parse failure or schema violation."""


def _identifier(value, where):
    if isinstance(value, bool):
        raise GraphFormatError(f"{where}: boolean is not a valid identifier")
    if isinstance(value, str):
        return value
    if isinstance(value, int):
        return str(value)
    raise GraphFormatError(f"{where}: identifier must be a string or an integer")


def _vertex_ids(values: list) -> list:
    if _STRING.issuperset(map(type, values)):
        return values
    return [_identifier(v, f"vertices[{i}]") for i, v in enumerate(values)]


def _edge_columns(items: list) -> tuple:
    """(ids, us, vs, negative bits as ``bytes``) of the decoded edge
    objects, in their given order, or GraphFormatError at the first one out
    of shape.

    The common document (objects with string ids and a "+"/"-" sign) is
    taken column by column; any other is walked edge by edge, which
    stringifies integer ids and locates the first fault."""
    try:
        ids = list(map(_ID, items))
        us = list(map(_U, items))
        vs = list(map(_V, items))
        # str.join raises TypeError at an id or endpoint that is not a string,
        # and each sign is read once: any other symbol raises KeyError
        "".join(ids), "".join(us), "".join(vs)
        return ids, us, vs, bytes(map(_NEGATIVE.__getitem__, map(_SIGN, items)))
    except (TypeError, KeyError):
        pass
    ids, us, vs, negative = [], [], [], []
    for i, item in enumerate(items):
        where = f"edges[{i}]"
        if not isinstance(item, dict):
            raise GraphFormatError(f"{where}: must be an object")
        for key in ("id", "u", "v", "sign"):
            if key not in item:
                raise GraphFormatError(f"{where}: missing key {key!r}")
        ids.append(_identifier(item["id"], f"{where}.id"))
        us.append(_identifier(item["u"], f"{where}.u"))
        vs.append(_identifier(item["v"], f"{where}.v"))
        try:
            negative.append(Sign.from_symbol(item["sign"]) is Sign.NEGATIVE)
        except GraphError as exc:
            raise GraphFormatError(f"{where}.sign: {exc}") from None
    return ids, us, vs, bytes(negative)


def _text_pieces(text: str):
    """A writers'-layout text's vertex array, then its edges in chunks cut at
    the first ``_BETWEEN`` past ``_CHUNK`` characters, or ValueError.  A JSON
    string holds no literal newline, so a cut falls between two edges."""
    end = text.rfind(_VERTICES)
    if end < 0 or not (text.startswith(_HEAD) and text.endswith(_TAIL)):
        raise ValueError
    yield text[end + len(_VERTICES) - 1:1 - len(_TAIL)]
    start = len(_HEAD) - 1
    while start < end:
        cut = text.find(_BETWEEN, start + _CHUNK, end)
        stop = end if cut < 0 else cut + len(_CLOSE)
        yield text[start:stop]
        start = stop + 1  # past the comma


def _file_pieces(path: str):
    """``_text_pieces`` of a regular file larger than one chunk: its end read
    back, each byte once, in doubling windows to the last ``_VERTICES``, then
    ``_CHUNK``-byte blocks cut at their last ``_BETWEEN``, so that each piece
    decodes alone as strict UTF-8.  ValueError also for a ``\\r`` (text mode's newlines)."""
    status = os.stat(path)
    if not (S_ISREG(status.st_mode) and status.st_size > _CHUNK):
        raise ValueError
    with open(path, "rb") as handle:
        if handle.read(len(_HEAD)) != _HEAD.encode():
            raise ValueError
        end, size, window, between = -1, status.st_size, _CHUNK, _BETWEEN.encode()
        offset, tail, marker = size, b"", _VERTICES.encode()
        while end < 0 < offset:  # each window reads only the bytes before the last
            start, window = max(size - window, 0), 2 * window
            handle.seek(start)
            tail = handle.read(offset - start) + tail  # then a marker starting in them
            end, offset = tail.rfind(marker, 0, offset - start + len(marker) - 1), start
        if end < 0 or len(tail) != size - offset or b"\r" in tail \
                or not tail.endswith(_TAIL.encode()):  # len: the file shrank
            raise ValueError
        yield tail[end + len(_VERTICES) - 1:1 - len(_TAIL)].decode()
        del tail
        end, data = end + offset, bytearray()
        handle.seek(len(_HEAD) - 1)
        while handle.tell() < end:
            block = handle.read(min(_CHUNK, end - handle.tell()))
            if not block or b"\r" in block:  # the file shrank, or a \r
                raise ValueError
            data += block
            cut = data.rfind(between, max(len(data) - len(block) - len(between) + 1, 0))
            if cut >= 0:
                yield data[:cut + len(_CLOSE)].decode()
                del data[:cut + len(_CLOSE) + 1]  # and the comma
        yield data.decode()


def _writer_columns(pieces):
    """The columns of a source's pieces, each piece's endpoints numbered
    before it is dropped, or None when the source refuses, a piece does not
    decode, the decoders name a fault, or an endpoint is not a vertex."""
    ids, a, b, negative = [], [], [], bytearray()
    try:
        # "[" ... "]" decodes to a list, or not at all
        vertices = _vertex_ids(json.loads(next(pieces)))
        index = dict(zip(vertices, range(len(vertices))))
        for piece in pieces:
            chunk_ids, us, vs, bits = _edge_columns(json.loads("[" + piece + "]"))
            ids += chunk_ids
            a += map(index.__getitem__, us)
            b += map(index.__getitem__, vs)
            negative += bits
    except (ValueError, RecursionError, KeyError, OSError):  # the whole read names it
        return None
    return vertices, ids, a, b, negative


def _document_columns(document) -> tuple:
    """The columns of a decoded document, with endpoint ids, or
    GraphFormatError at its first fault of shape."""
    if not isinstance(document, dict):
        raise GraphFormatError("top level must be an object")
    for key in ("vertices", "edges"):
        if key not in document:
            raise GraphFormatError(f"missing key {key!r}")
        if not isinstance(document[key], list):
            raise GraphFormatError(f"{key!r} must be an array")
    return (_vertex_ids(document["vertices"]), *_edge_columns(document["edges"]))


def read_signed_graph(text: str) -> SignedGraph:
    """Parse a JSON document into a validated SignedGraph.  A text in the
    writers' layout longer than one chunk is decoded a chunk of edges at a
    time, any other whole; the text is dropped before the graph is built."""
    columns = _writer_columns(_text_pieces(text)) if len(text) > _CHUNK else None
    numbered = columns is not None
    if not numbered:
        try:
            document = json.loads(text)
        except (ValueError, RecursionError) as exc:
            # a JSONDecodeError, an integer literal too long to convert, or
            # arrays or objects nested deeper than the recursion limit
            raise GraphFormatError(f"invalid JSON: {exc}") from None
    del text
    if not numbered:
        columns = _document_columns(document)
        del document
    return _graph(columns, numbered)


def stream_signed_graph(path: str):
    """The graph in the file at ``path`` via ``_file_pieces``, or None: read it whole."""
    columns = _writer_columns(_file_pieces(path))
    return None if columns is None else _graph(columns, numbered=True)


def _graph(columns: tuple, numbered: bool) -> SignedGraph:
    try:
        return SignedGraph._from_columns(*columns, numbered=numbered)
    except GraphError as exc:
        raise GraphFormatError(str(exc)) from None


# items of json.dumps(indent=2, sort_keys=True)'s lists: objects at depth 2
_EDGE = '{\n      "id": %s,\n      "sign": "%s",\n      "u": %s,\n      "v": %s\n    }'
_LINE_EDGE = '{\n      "id": %s,\n      "u": %s,\n      "v": %s\n    }'
_MARK = '{\n      "id": %s,\n      "sign": "%s"\n    }'


# The writers' layout, as _document emits it with at least one edge: the
# text starts with _HEAD, has _VERTICES between its two arrays and ends
# with _TAIL, and _BETWEEN, a comma after _CLOSE, joins two edge objects.
_HEAD = '{\n  "edges": [\n    {'
_CLOSE = "\n    }"
_BETWEEN = _CLOSE + ",\n    {"
_VERTICES = '\n  ],\n  "vertices": ['
_TAIL = "]\n}\n"
_CHUNK = 1 << 16  # characters (a file's bytes) of edges per chunk, and an edge more


def _document(edges: list, vertices: list) -> str:
    """``json.dumps({"edges": [...], "vertices": [...]}, indent=2,
    sort_keys=True) + "\\n"`` from the lists' items, written at depth 2."""
    lists = ("[\n    " + ",\n    ".join(x) + "\n  ]" if x else "[]"
             for x in (edges, vertices))
    return '{\n  "edges": %s,\n  "vertices": %s\n}\n' % tuple(lists)


def write_signed_graph(graph: SignedGraph) -> str:
    """Canonical JSON for a signed graph; read(write(g)) equals g."""
    quoted = list(map(encode_basestring_ascii, graph.vertex_ids))
    edges = [
        _EDGE % (encode_basestring_ascii(eid), "+-"[n], quoted[a], quoted[a ^ e])
        for eid, a, e, n in zip(graph.edge_ids, graph.tail, graph.ends, graph.negative)
    ]
    return _document(edges, quoted)


def write_marked_graph(marked: MarkedGraph) -> str:
    """Canonical JSON for a marked graph (vertices carry the signs)."""
    quoted = list(map(encode_basestring_ascii, marked.vertex_ids))
    edges = [
        _LINE_EDGE % (encode_basestring_ascii(eid), quoted[a], quoted[a ^ e])
        for eid, a, e in zip(marked.edge_ids, marked.tail, marked.ends)
    ]
    marks = [_MARK % (q, "+-"[n]) for q, n in zip(quoted, marked.marks)]
    return _document(edges, marks)


def structure_report_to_dict(report) -> dict:
    """``dataclasses.asdict(report)`` without its deep copies: the report's
    fields, with each component's fields copied shallowly into a dict.  The
    components' fields are ids, tuples of ids and flags, all immutable, so
    their tuples are shared, not copied."""
    return {**vars(report), "components": tuple(dict(vars(c)) for c in report.components)}


def _quote(identifier: str) -> str:
    escaped = identifier.replace("\\", "\\\\").replace('"', '\\"')
    return f'"{escaped}"'


def export_dot(graph, report=None) -> str:
    """Graphviz DOT text: positive edges solid, negative dashed; marked-graph
    vertex signs in node labels; structure-report components as clusters.
    Edges and marks are read from the graph's columns."""
    lines = ["graph {"]
    clustered = set()
    if report is not None:
        for i, comp in enumerate(report.components):
            lines.append(f"  subgraph cluster_{i} {{")
            label = comp.kind
            if comp.is_block:
                label += " (block)"
            if comp.case:
                label += f" (case {comp.case})"
            lines.append(f'    label="{label}";')
            for v in comp.vertices:
                lines.append(f"    {_node_line(graph, graph._vertex(v))}")
                clustered.add(v)
            lines.append("  }")
    ids = graph.vertex_ids
    for i, v in enumerate(ids):
        if v not in clustered:
            lines.append(f"  {_node_line(graph, i)}")
    for eid, a, e, negative in zip(graph.edge_ids, graph.tail, graph.ends, graph.negative):
        lines.append(
            f"  {_quote(ids[a])} -- {_quote(ids[a ^ e])} "
            f"[label={_quote(eid)}, style={'dashed' if negative else 'solid'}];"
        )
    lines.append("}")
    return "\n".join(lines) + "\n"


def _node_line(graph, i: int) -> str:
    """The DOT line of vertex i, with its mark on a marked graph."""
    vertex = graph.vertex_ids[i]
    if isinstance(graph, MarkedGraph):
        label = _quote(f"{vertex} [{'+-'[graph.marks[i]]}]")
        return f"{_quote(vertex)} [label={label}];"
    return f"{_quote(vertex)};"
