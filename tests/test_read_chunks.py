"""The reader's two paths: a text in the writers' layout is decoded a chunk
of edges at a time, any other whole.  Both must give the same graph, or the
same GraphFormatError text, on every input."""

import json
import sys
from io import StringIO

import pytest
from oracles import differential_corpus

from lineconsistency import (
    GraphFormatError,
    exhaustive_signed_graphs,
    new_signed_graph,
    read_signed_graph,
    write_signed_graph,
)
from lineconsistency import io as reader
from lineconsistency.cli import main

FAMILIES = ("exhaustive", "random", "recipes", "crossval", "collisions", "circles",
            "tested-edges", "negative-paths", "flipped")


def _outcome(text):
    """The graph read from ``text``, or the text of the error the read raises."""
    try:
        return read_signed_graph(text)
    except GraphFormatError as exc:
        return str(exc)


def _whole_outcome(monkeypatch, text):
    """``_outcome`` with every text decoded whole."""
    with monkeypatch.context() as patched:
        patched.setattr(reader, "_writer_columns", lambda text: None)
        return _outcome(text)


def _check_output(monkeypatch, capsys, text) -> tuple:
    monkeypatch.setattr(sys, "stdin", StringIO(text))
    code = main(["check", "--method", "ii", "--witness", "-"])
    return (code, *capsys.readouterr())


@pytest.fixture
def decoded_lengths(monkeypatch):
    """The lengths of the texts json.loads decodes while the test runs."""
    lengths, loads = [], json.loads

    def recorded(text, *args, **kwargs):
        lengths.append(len(text))
        return loads(text, *args, **kwargs)

    monkeypatch.setattr(reader.json, "loads", recorded)
    return lengths


def _corpus(family, large_document):
    if family == "large":
        return [read_signed_graph(large_document)]
    if family == "exhaustive-3-3":
        return exhaustive_signed_graphs(3, 3)
    return differential_corpus(family)


@pytest.mark.parametrize("family", [*FAMILIES, "exhaustive-3-3", "large"])
def test_chunked_read_matches_the_minified_document(family, monkeypatch, capsys,
                                                    decoded_lengths, large_document):
    # small chunks, so that small graphs span many of them; the large
    # document is read in chunks of the default size
    for i, graph in enumerate(_corpus(family, large_document)):
        if family != "large":
            monkeypatch.setattr(reader, "_CHUNK", (1, 40, 100)[i % 3])
        text = write_signed_graph(graph)
        twin = json.dumps(json.loads(text))
        decoded_lengths.clear()
        read = read_signed_graph(text)
        if graph.edge_ids:  # the chunked path ran: no decode took the whole text
            assert decoded_lengths and max(decoded_lengths) < len(text), graph
        assert read == read_signed_graph(twin) == graph
        assert (_check_output(monkeypatch, capsys, text)
                == _check_output(monkeypatch, capsys, twin)), graph


def test_large_document_spans_many_chunks(large_document, decoded_lengths):
    read_signed_graph(large_document)
    # the vertices, then one decode per chunk of about _CHUNK characters
    vertices, *chunks = decoded_lengths
    assert vertices < len(large_document) // 5
    assert len(chunks) > len(large_document) // (2 * reader._CHUNK)
    assert max(chunks) < reader._CHUNK + 200


def test_text_of_one_chunk_is_decoded_whole(decoded_lengths):
    text = write_signed_graph(new_signed_graph("ab", [("e", "a", "b", "-")]))
    read_signed_graph(text)
    assert decoded_lengths == [len(text)]


_BASE = new_signed_graph("123456", [
    ("e1", "1", "2", "-"), ("e2", "2", "3", "+"), ("e3", "3", "4", "-"),
    ("e4", "4", "5", "+"), ("e5", "5", "6", "-"), ("e6", "6", "1", "+"),
])
_TEXT = write_signed_graph(_BASE)
_VERTICES = '  "vertices": [\n    "1",\n    "2",\n    "3",\n    "4",\n    "5",\n    "6"\n  ]'


def _edge(eid):
    """The writer's text of edge ``eid`` of _BASE."""
    start = _TEXT.index(f'{{\n      "id": "{eid}"')
    return _TEXT[start:_TEXT.index("}", start) + 1]


def _with_edge(eid, old, new):
    return _TEXT.replace(_edge(eid), _edge(eid).replace(old, new))


_ADVERSARIAL = {
    "escaped-ids": write_signed_graph(new_signed_graph(
        ["a\nb", 'q"', "back\\slash", "},\n    {", "é", "☃"],
        [("x\n", "a\nb", 'q"', "-"), ("},\n    {", 'q"', "back\\slash", "+"),
         ("éé", "back\\slash", "},\n    {", "-"),
         ('"', "},\n    {", "é", "+"), ("\\", "é", "☃", "-")])),
    "raw-non-ascii": write_signed_graph(new_signed_graph(
        ["é", "☃", "z"], [("éz", "é", "z", "-"), ("☃", "☃", "z", "+")],
    )).replace("\\u00e9", "é").replace("\\u2603", "☃"),
    "integer-id": _with_edge("e3", '"id": "e3"', '"id": 3'),
    "integer-endpoint": _with_edge("e4", '"u": "4"', '"u": 4'),
    "integer-vertex": _TEXT.replace('\n    "3",', "\n    3,"),
    "unknown-integer-endpoint": _with_edge("e4", '"u": "4"', '"u": 9'),
    "extra-key": _with_edge("e2", '"sign"', '"weight": 2,\n      "sign"'),
    "missing-key": _with_edge("e5", '\n      "sign": "-",', ""),
    "sign-x": _with_edge("e3", '"sign": "-"', '"sign": "x"'),
    "sign-true": _with_edge("e3", '"sign": "-"', '"sign": true'),
    "array-item": _TEXT.replace(_edge("e2"), '[\n      "e2"\n    ]'),
    "duplicate-edge-id": _with_edge("e5", '"e5"', '"e1"'),
    "duplicate-vertex": _TEXT.replace('\n    "3",', '\n    "3",\n    "3",'),
    "unknown-endpoint": _with_edge("e5", '"v": "6"', '"v": "9"'),
    "loop": _with_edge("e3", '"v": "4"', '"v": "3"'),
    "unknown-endpoint-after-loop": _with_edge("e6", '"u": "1"', '"u": "9"').replace(
        _edge("e3"), _edge("e3").replace('"v": "4"', '"v": "3"')),
    "vertices-out-of-order": _TEXT.replace(_VERTICES, _VERTICES.replace('"1"', '"0"')
                                           .replace('"6"', '"1"').replace('"0"', '"6"')),
    "edges-out-of-order": _TEXT.replace(_edge("e2"), "@").replace(_edge("e5"), _edge("e2"))
    .replace("@", _edge("e5")),
    "space-after-the-end": _TEXT + " ",
    "truncated": _TEXT[:-2],
    "truncated-edges": _TEXT[:_TEXT.index(_edge("e4"))] + _TEXT[_TEXT.index("\n  ],"):],
    "broken-edge": _with_edge("e3", '"u": "3"', '"u": 3"'),
    "no-vertices-key": _TEXT.replace('"vertices": [', '"nodes": ['),
    "second-vertices-key": (_TEXT[:-3] + ",\n"
                            + _VERTICES.replace('"6"', '"6",\n    "7"') + "\n}\n"),
    "separator-inside-an-edge": _with_edge(
        "e2", '"sign"', '"x": [\n  ],\n  "vertices": [\n    "1"\n  ],\n      "sign"'),
    "between-inside-an-edge": _with_edge(
        "e2", '"sign"', '"x": [{\n    },\n    {\n    }],\n      "sign"'),
}


# the texts the chunked path reads to the end; any other is decoded whole
_CHUNKED = {"escaped-ids", "raw-non-ascii", "integer-id", "integer-endpoint",
            "integer-vertex", "extra-key", "duplicate-edge-id", "duplicate-vertex", "loop",
            "vertices-out-of-order", "edges-out-of-order", "separator-inside-an-edge"}


@pytest.mark.parametrize("name", list(_ADVERSARIAL))
def test_writer_layout_texts_read_as_their_whole_decoding(name, monkeypatch,
                                                          decoded_lengths):
    text = _ADVERSARIAL[name]
    assert text.startswith(reader._HEAD) and text != _TEXT
    monkeypatch.setattr(reader, "_CHUNK", 1)
    fast = _outcome(text)
    assert (max(decoded_lengths) < len(text)) == (name in _CHUNKED)
    assert fast == _whole_outcome(monkeypatch, text)
    try:
        twin = json.dumps(json.loads(text))
    except ValueError:  # no minified twin
        assert isinstance(fast, str) and fast.startswith("invalid JSON: ")
        return
    assert fast == _outcome(twin)


def test_adversarial_outcomes():
    """What the adversarial texts read as, so that no case passes by
    failing on both paths alike."""
    graphs = {name for name, text in _ADVERSARIAL.items()
              if not isinstance(_outcome(text), str)}
    assert graphs == {"escaped-ids", "raw-non-ascii", "integer-id", "integer-endpoint",
                      "integer-vertex", "extra-key", "vertices-out-of-order",
                      "edges-out-of-order", "space-after-the-end", "second-vertices-key",
                      "separator-inside-an-edge", "between-inside-an-edge"}
    assert _outcome(_ADVERSARIAL["duplicate-edge-id"]) == "edges[4]: duplicate edge id 'e1'"
    assert _outcome(_ADVERSARIAL["loop"]) == "edges[2]: loop edge 'e3' at vertex '3'"
    assert _outcome(_ADVERSARIAL["unknown-endpoint-after-loop"]) == (
        "edges[2]: loop edge 'e3' at vertex '3'")
    assert _outcome(_ADVERSARIAL["vertices-out-of-order"]) == _BASE
    assert _outcome(_ADVERSARIAL["no-vertices-key"]) == "missing key 'vertices'"


def test_every_cut_reads_the_same_graph(monkeypatch, decoded_lengths):
    last = len("[\n    " + _edge("e6") + "]")  # the decode of the last edge alone
    pieces = set()
    for chunk in range(1, len(_TEXT) + 2):
        monkeypatch.setattr(reader, "_CHUNK", chunk)
        decoded_lengths.clear()
        assert read_signed_graph(_TEXT) == _BASE
        pieces.add(len(decoded_lengths) - 1)  # less the vertices' decode
        if chunk < len(_TEXT):
            assert len(decoded_lengths) > 1, chunk
            if chunk < len(_edge("e1")):
                assert decoded_lengths[-1] == last, chunk
    assert {0, 1, 2, 3, 6} <= pieces  # a whole decode, and one to six chunks


@pytest.fixture
def edge_column_calls(monkeypatch):
    """The number of edge objects in each call of io._edge_columns while
    the test runs."""
    calls, edge_columns = [], reader._edge_columns

    def counted(items):
        calls.append(len(items))
        return edge_columns(items)

    monkeypatch.setattr(reader, "_edge_columns", counted)
    return calls


def test_edge_columns_decodes_every_chunk(large_document, monkeypatch, decoded_lengths,
                                          edge_column_calls, tmp_path):
    # _edge_columns is the reader's one decoder of edge objects: once per
    # chunk of a writer text or of a streamed file, once for the whole of
    # its minified twin
    path = tmp_path / "graph.json"
    for text, chunk in ((large_document, reader._CHUNK), (_TEXT, 1), (_TEXT, 40),
                        (_TEXT, 100)):
        monkeypatch.setattr(reader, "_CHUNK", chunk)
        twin = json.dumps(json.loads(text))
        path.write_text(text)
        graphs = []
        for read, source in ((read_signed_graph, text), (reader.stream_signed_graph, path)):
            decoded_lengths.clear()
            edge_column_calls.clear()
            graphs.append(read(source))
            chunks = len(decoded_lengths) - 1  # less the vertices' decode
            assert chunks > 1 and len(edge_column_calls) == chunks
            assert sum(edge_column_calls) == len(graphs[-1].edge_ids)
        graph, streamed = graphs
        assert streamed == graph
        edge_column_calls.clear()
        assert read_signed_graph(twin) == graph
        assert edge_column_calls == [len(graph.edge_ids)]
