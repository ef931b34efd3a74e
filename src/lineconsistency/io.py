"""JSON serialization of graphs and reports, plus Graphviz DOT export.

The JSON schema: ``{"vertices": [str, ...], "edges": [{"id", "u", "v",
"sign"}, ...]}`` with signs written as "+" or "-".  Numeric identifiers are
stringified on read; booleans are rejected.  The reader checks only the
document's shape, in one pass that takes the decoded edges straight into the
graph's columns (ids, endpoints, negative bits) without building edge values;
the graph invariants (unique ids, no loops, endpoints among the vertices) are
checked once, by the graph constructor, and its error is re-raised as
GraphFormatError with the same ``vertices[i]``/``edges[i]`` location.  Output
is canonical (keys and lists sorted), so writes are byte-deterministic and
reads of writes round-trip structurally.
"""

from __future__ import annotations

import json
from dataclasses import asdict
from itertools import chain

from .analysis import StructureReport
# new_signed_graph is not used here but stays importable from this module:
# bench/tracer.py wraps it.
from .core import GraphError, MarkedGraph, Sign, SignedGraph, new_signed_graph

_STRING = frozenset((str,))
_SIGN_SYMBOLS = frozenset(("+", "-"))


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
    """(ids, us, vs, negative bits) of the decoded edge objects, in their
    given order, or GraphFormatError at the first one out of shape.

    The common document (objects with string ids and a "+"/"-" sign) is
    taken column by column; any other is walked edge by edge, which
    stringifies integer ids and locates the first fault."""
    try:
        ids = [item["id"] for item in items]
        us = [item["u"] for item in items]
        vs = [item["v"] for item in items]
        signs = [item["sign"] for item in items]
        if (_STRING.issuperset(map(type, chain(ids, us, vs)))
                and _SIGN_SYMBOLS.issuperset(signs)):
            return ids, us, vs, list(map("-".__eq__, signs))
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
    return ids, us, vs, negative


def read_signed_graph(text: str) -> SignedGraph:
    """Parse a JSON document into a validated SignedGraph."""
    try:
        document = json.loads(text)
    except json.JSONDecodeError as exc:
        raise GraphFormatError(f"invalid JSON: {exc}") from None
    if not isinstance(document, dict):
        raise GraphFormatError("top level must be an object")
    for key in ("vertices", "edges"):
        if key not in document:
            raise GraphFormatError(f"missing key {key!r}")
        if not isinstance(document[key], list):
            raise GraphFormatError(f"{key!r} must be an array")
    vertices = _vertex_ids(document["vertices"])
    columns = _edge_columns(document["edges"])
    try:
        return SignedGraph._from_columns(vertices, *columns)
    except GraphError as exc:
        raise GraphFormatError(str(exc)) from None


def write_signed_graph(graph: SignedGraph) -> str:
    """Canonical JSON for a signed graph; read(write(g)) equals g."""
    document = {
        "vertices": list(graph.vertices),
        "edges": [
            {"id": e.id, "u": e.u, "v": e.v, "sign": e.sign.value}
            for e in graph.edges
        ],
    }
    return json.dumps(document, indent=2, sort_keys=True) + "\n"


def write_marked_graph(marked: MarkedGraph) -> str:
    """Canonical JSON for a marked graph (vertices carry the signs)."""
    document = {
        "vertices": [
            {"id": mv.id, "sign": mv.sign.value} for mv in marked.vertices
        ],
        "edges": [{"id": e.id, "u": e.u, "v": e.v} for e in marked.edges],
    }
    return json.dumps(document, indent=2, sort_keys=True) + "\n"


def structure_report_to_dict(report: StructureReport) -> dict:
    return asdict(report)


def _quote(identifier: str) -> str:
    escaped = identifier.replace("\\", "\\\\").replace('"', '\\"')
    return f'"{escaped}"'


def export_dot(graph, report: StructureReport = None) -> str:
    """Graphviz DOT text: positive edges solid, negative dashed; marked-graph
    vertex signs in node labels; structure-report components as clusters."""
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
                lines.append(f"    {_node_line(graph, v)}")
                clustered.add(v)
            lines.append("  }")
    for v in graph.vertex_ids:
        if v not in clustered:
            lines.append(f"  {_node_line(graph, v)}")
    for e in graph.edges:
        style = "solid"
        sign = getattr(e, "sign", None)
        if sign is not None and sign.is_negative:
            style = "dashed"
        lines.append(
            f"  {_quote(e.u)} -- {_quote(e.v)} "
            f"[label={_quote(e.id)}, style={style}];"
        )
    lines.append("}")
    return "\n".join(lines) + "\n"


def _node_line(graph, vertex: str) -> str:
    if isinstance(graph, MarkedGraph):
        label = _quote(f"{vertex} [{graph.mark(vertex).value}]")
        return f"{_quote(vertex)} [label={label}];"
    return f"{_quote(vertex)};"
