import dataclasses
import hashlib
import json
import random

import pytest
from hypothesis import given, settings, strategies as st
from oracles import (
    differential_corpus,
    export_dot_by_values,
    write_marked_graph_by_document,
    write_signed_graph_by_document,
)

from lineconsistency import (
    GraphError,
    GraphFormatError,
    MarkedGraph,
    Recipe,
    Sign,
    SignedEdge,
    SignedGraph,
    classify_structure,
    exhaustive_signed_graphs,
    export_dot,
    generate_line_consistent,
    line_graph,
    new_marked_graph,
    new_signed_graph,
    random_recipe,
    random_signed_graph,
    read_signed_graph,
    structure_report_to_dict,
    write_marked_graph,
    write_signed_graph,
)
from lineconsistency import core


class TestRead:
    def test_minimal_document(self):
        g = read_signed_graph(
            '{"vertices":["a","b"],'
            '"edges":[{"id":"e1","u":"a","v":"b","sign":"-"}]}'
        )
        assert g.vertices == ("a", "b")
        [e] = g.edges
        assert e.sign is Sign.NEGATIVE

    def test_invalid_json(self):
        with pytest.raises(GraphFormatError, match="invalid JSON"):
            read_signed_graph("{nope")

    def test_bad_sign(self):
        with pytest.raises(GraphFormatError, match="sign"):
            read_signed_graph(
                '{"vertices":["a","b"],'
                '"edges":[{"id":"e1","u":"a","v":"b","sign":"x"}]}'
            )

    def test_boolean_sign_rejected(self):
        with pytest.raises(GraphFormatError, match="sign"):
            read_signed_graph(
                '{"vertices":["a","b"],'
                '"edges":[{"id":"e1","u":"a","v":"b","sign":true}]}'
            )

    def test_loop_rejected_with_location(self):
        with pytest.raises(GraphFormatError, match=r"edges\[0\].*loop"):
            read_signed_graph(
                '{"vertices":["a"],'
                '"edges":[{"id":"e1","u":"a","v":"a","sign":"+"}]}'
            )

    def test_duplicate_id_with_location(self):
        with pytest.raises(GraphFormatError, match=r"edges\[1\].*duplicate"):
            read_signed_graph(
                '{"vertices":["a","b"],"edges":['
                '{"id":"e1","u":"a","v":"b","sign":"+"},'
                '{"id":"e1","u":"a","v":"b","sign":"-"}]}'
            )

    def test_duplicate_vertex_id_with_location(self):
        with pytest.raises(
            GraphFormatError, match=r"vertices\[2\]: duplicate vertex id 'a'"
        ):
            read_signed_graph('{"vertices":["a","b","a"],"edges":[]}')

    def test_unknown_endpoint(self):
        with pytest.raises(GraphFormatError, match="not a vertex"):
            read_signed_graph(
                '{"vertices":["a"],'
                '"edges":[{"id":"e1","u":"a","v":"b","sign":"+"}]}'
            )

    @pytest.mark.parametrize("document, message", [
        ('{"vertices":["c","b","c","a"],"edges":[]}',
         "vertices[2]: duplicate vertex id 'c'"),
        ('{"vertices":["a","b"],"edges":['
         '{"id":"e1","u":"a","v":"b","sign":"+"},'
         '{"id":"e3","u":"a","v":"b","sign":"+"},'
         '{"id":"e1","u":"a","v":"b","sign":"-"}]}',
         "edges[2]: duplicate edge id 'e1'"),
        ('{"vertices":["a","b"],"edges":['
         '{"id":"e2","u":"a","v":"b","sign":"+"},'
         '{"id":"e1","u":"b","v":"b","sign":"+"}]}',
         "edges[1]: loop edge 'e1' at vertex 'b'"),
        ('{"vertices":["a","b"],"edges":['
         '{"id":"e2","u":"a","v":"b","sign":"+"},'
         '{"id":"e1","u":"a","v":"z","sign":"+"}]}',
         "edges[1]: endpoint 'z' is not a vertex"),
        ('{"vertices":["a","b"],"edges":['
         '{"id":"e2","u":"a","v":"b","sign":"+"},'
         '{"id":"e1","u":"a","v":"b","sign":"x"}]}',
         "edges[1].sign: invalid sign 'x': expected '+' or '-'"),
        ('[["a"], []]', "top level must be an object"),
        ('{"vertices":{"a":1},"edges":[]}', "'vertices' must be an array"),
        ('{"vertices":["a","b"],"edges":['
         '{"id":"e2","u":"a","v":"b","sign":"+"},'
         '"e1"]}',
         "edges[1]: must be an object"),
        ('{"vertices":["a","b"],"edges":['
         '{"id":"e2","u":"a","v":"b","sign":"+"},'
         '{"id":"e1","u":"a","v":"b"}]}',
         "edges[1]: missing key 'sign'"),
        ('{"vertices":["a","b"],"edges":['
         '{"id":"e2","u":"a","v":"b","sign":"+"},'
         '{"id":1.5,"u":"a","v":"b","sign":"+"}]}',
         "edges[1].id: identifier must be a string or an integer"),
        ('{"vertices":["a","b"],"edges":['
         '{"id":"e1","u":"a","v":"b","sign":"+"},'
         '{"id":"e2","u":"a","v":"b","sign":"+"},'
         '{"id":"e2","u":"a","v":"b","sign":"-"}]}',
         "edges[2]: duplicate edge id 'e2'"),
        ('{"vertices":["a","b"],"edges":['
         '{"id":9,"u":"a","v":"b","sign":"+"},'
         '{"id":10,"u":"a","v":"b","sign":"+"},'
         '{"id":"10","u":"a","v":"b","sign":"-"}]}',
         "edges[2]: duplicate edge id '10'"),
    ], ids=["duplicate-vertex", "duplicate-edge", "loop", "unknown-endpoint",
            "bad-sign", "top-level-not-object", "vertices-not-array",
            "edge-not-object", "missing-sign", "float-id",
            "adjacent-duplicate-edge", "stringified-duplicate-edge"])
    def test_single_fault_located(self, document, message):
        # sorted, each offender would sit at another index: positions are as given
        with pytest.raises(GraphFormatError) as caught:
            read_signed_graph(document)
        assert str(caught.value) == message

    def test_numeric_identifiers_stringified(self):
        g = read_signed_graph(
            '{"vertices":[1,2],"edges":[{"id":7,"u":1,"v":2,"sign":"+"}]}'
        )
        assert g.vertices == ("1", "2")
        assert g.edges[0].id == "7"
        # "10" sorts before "9": read in any order, the same columns result
        edges = [{"id": i, "u": i % 4, "v": (i + 1) % 4, "sign": "+-"[i % 3 > 0]}
                 for i in range(1, 13)]
        in_id_order = sorted(edges, key=lambda e: str(e["id"]))
        shuffled = edges[:]
        random.Random(3).shuffle(shuffled)
        keys = [
            read_signed_graph(json.dumps({"vertices": vertices, "edges": order}))._key()
            for order in (in_id_order, in_id_order[::-1], edges, edges[::-1], shuffled)
            for vertices in ([0, 1, 2, 3], [3, 2, 1, 0])
        ]
        assert all(key == keys[0] for key in keys)
        assert keys[0][0] == ("0", "1", "2", "3")
        assert keys[0][1] == tuple(sorted(map(str, range(1, 13))))

    def test_boolean_identifier_rejected(self):
        with pytest.raises(GraphFormatError, match="boolean"):
            read_signed_graph('{"vertices":[true],"edges":[]}')

    def test_missing_keys(self):
        with pytest.raises(GraphFormatError, match="missing key"):
            read_signed_graph('{"vertices":[]}')

    def test_read_peaks_under_75_percent_of_the_document(self, large_document, traced_peak):
        # the edges are decoded a chunk at a time, so the whole document is
        # never alive: the read peaks at the columns and one chunk
        assert large_document.count('"id"') == 19_969
        document = traced_peak(lambda: json.loads(large_document))
        read = traced_peak(lambda: read_signed_graph(large_document))
        assert read <= 0.75 * document


def built_graphs():
    """Graphs from every constructor: JSON, tuples, edge values, generators."""
    yield "read", read_signed_graph(
        '{"vertices":["b","a","c",7],"edges":['
        '{"id":"e2","u":"c","v":"a","sign":"-"},{"id":"e1","u":"b","v":"a","sign":"+"},'
        '{"id":3,"u":"a","v":7,"sign":"-"},{"id":"e0","u":"a","v":"c","sign":"+"}]}'
    )
    yield "tuples", new_signed_graph(
        "dcba", [("x", "d", "a", "-"), ("w", "b", "a", "+"), ("y", "a", "b", "-")]
    )
    yield "edge-values", SignedGraph(
        ("q", "p", "r"),
        (SignedEdge("f2", "r", "p", Sign.NEGATIVE), SignedEdge("f1", "q", "p")),
    )
    yield "exhaustive", list(exhaustive_signed_graphs(3, 3))[-1]
    yield "random", random_signed_graph(12, 30, 0.4, 5)
    yield "recipe", generate_line_consistent(random_recipe(4), 4)


class TestColumns:
    """A graph holds columns and builds its edge values on demand, however it
    was built; graphs read from JSON and built from values must agree."""

    @pytest.mark.parametrize("name, graph", list(built_graphs()))
    def test_json_round_trip_agrees_with_direct_construction(self, name, graph):
        read = read_signed_graph(write_signed_graph(graph))
        direct = SignedGraph(graph.vertices, graph.edges)
        for other in (read, direct):
            assert other == graph and graph == other
            assert hash(other) == hash(graph)
            assert repr(other) == repr(graph)
            assert other.edges == graph.edges
            for e in graph.edges:
                assert other.edge(e.id) == e
            for v in graph.vertices:
                assert other.incident_edges(v) == graph.incident_edges(v)
                assert other.degree(v) == graph.degree(v)

    def test_built_from_edge_values_equals_them(self):
        edges = (SignedEdge("b", "y", "x", Sign.NEGATIVE), SignedEdge("a", "x", "z"))
        graph = SignedGraph(("z", "y", "x"), edges)
        assert graph.edges == (edges[1], edges[0])
        assert graph.edge("b") == edges[0]

    def test_built_from_tuples_builds_edge_values_only_when_read(self,
                                                                built_edge_values):
        graph = new_signed_graph(
            "abc", [("e2", "c", "b", "-"), ("e1", "a", "b", Sign.POSITIVE)]
        )
        assert graph.degree("b") == 2
        assert built_edge_values == []
        edges = graph.edges
        assert built_edge_values == ["e1", "e2"]
        assert edges == (
            SignedEdge("e1", "a", "b"), SignedEdge("e2", "b", "c", Sign.NEGATIVE)
        )
        assert graph.edge("e2") is edges[1]

    def test_graphs_differing_in_one_column_differ(self):
        graph = new_signed_graph("abc", [("e1", "a", "b", "+"), ("e2", "b", "c", "-")])
        for other in (
            new_signed_graph("abc", [("e1", "a", "b", "-"), ("e2", "b", "c", "-")]),
            new_signed_graph("abc", [("e1", "a", "c", "+"), ("e2", "b", "c", "-")]),
            new_signed_graph("abc", [("e1", "a", "b", "+"), ("e3", "b", "c", "-")]),
            new_signed_graph("abcd", [("e1", "a", "b", "+"), ("e2", "b", "c", "-")]),
        ):
            assert other != graph


class TestWrite:
    def test_empty_graph(self):
        text = write_signed_graph(new_signed_graph([], []))
        assert '"edges": []' in text and '"vertices": []' in text

    def test_round_trip_triangle(self):
        g = new_signed_graph(
            "cba",
            [("e2", "b", "c", "-"), ("e1", "a", "b", "+"), ("e3", "c", "a", "+")],
        )
        assert read_signed_graph(write_signed_graph(g)) == g

    def test_byte_determinism(self):
        g = random_signed_graph(5, 7, 0.5, 3)
        assert write_signed_graph(g) == write_signed_graph(g)

    @pytest.mark.parametrize("graph", [
        random_signed_graph(12, 20, 0.5, 2),
        generate_line_consistent(Recipe(negative_circles=(4,), isthmus_paths=(3, 3),
                                        scaffold_tree=2), 1),
    ], ids=["random", "recipe"])
    def test_written_ids_are_read_without_a_sort(self, graph, monkeypatch):
        # ids cross a digit boundary, where string order is not numeric order
        assert {"e9", "e10"} <= set(graph.edge_ids)
        assert {"9", "10"} <= {v[1:] for v in graph.vertex_ids}
        text = write_signed_graph(graph)
        document = json.loads(text)
        ids = [e["id"] for e in document["edges"]]
        vertices = document["vertices"]
        assert all(map(str.__lt__, ids, ids[1:]))
        assert all(map(str.__lt__, vertices, vertices[1:]))
        sorts = []

        def counted(*args, **kwargs):
            sorts.append(args)
            return sorted(*args, **kwargs)

        monkeypatch.setattr(core, "sorted", counted, raising=False)
        assert read_signed_graph(text) == graph and sorts == []
        document["edges"].reverse()
        document["vertices"].reverse()
        assert read_signed_graph(json.dumps(document)) == graph and len(sorts) == 2

    @given(st.integers(0, 2000), st.integers(1, 7), st.integers(0, 12))
    @settings(max_examples=100, deadline=None)
    def test_round_trip_random(self, seed, n, m):
        g = random_signed_graph(n, min(m, n * (n - 1)), 0.5, seed)
        text = write_signed_graph(g)
        again = read_signed_graph(text)
        assert again == g
        assert write_signed_graph(again) == text

    def test_marked_graph_schema(self):
        g = new_signed_graph("ab", [("e1", "a", "b", "+"), ("e2", "a", "b", "-")])
        text = write_marked_graph(line_graph(g))
        assert '"sign": "-"' in text
        assert '"e1~e2@a"' in text


# ids that json writes with escapes: quotes, backslashes, control and
# non-ASCII characters, an astral character and a lone surrogate
_ESCAPED_IDS = ('a"b', "c\\d", "e\nf", "g\th", "\x00", "\u00fc", "\u20acx", "\U0001f600",
                "\ud800", "/", "")


def _escaping_graph():
    ring = sorted(_ESCAPED_IDS)
    return new_signed_graph(ring, [
        (f"{ring[i - 1]}|{v}", ring[i - 1], v, "-" if i % 3 else "+")
        for i, v in enumerate(ring)
    ])


def _benchmark_shaped_recipe(edges: int, seed: int) -> Recipe:
    """A recipe of about ``edges`` edges with the part mix of the benchmark's
    large line-consistent inputs (26.5 edges per part on average)."""
    rng = random.Random(seed)
    parts = round(edges / 26.5)
    return Recipe(
        negative_circles=tuple(rng.choice((2, 4, 6, 8)) for _ in range(parts)),
        closing_paths=tuple(rng.choice((2, 4, 6)) for _ in range(parts)),
        induced_paths=tuple(rng.choice((2, 4, 6)) for _ in range(parts)),
        isthmus_paths=tuple(rng.randint(1, 6) for _ in range(parts)),
        pendant_positives=2 * parts,
        scaffold_tree=4 * parts,
    )


def _recipe_graphs(count: int) -> list:
    return [generate_line_consistent(random_recipe(s), s) for s in range(count)]


class TestCanonicalText:
    """The writers emit exactly the text of ``json.dumps(document, indent=2,
    sort_keys=True)`` on the document of dicts, kept in ``oracles``."""

    @pytest.mark.parametrize("family", [
        "exhaustive", "random", "recipes", "empty", "isolated", "escaped",
    ])
    def test_writers_match_the_document_writers(self, family):
        graphs = {
            "exhaustive": lambda: exhaustive_signed_graphs(4, 5),
            "random": lambda: (
                random_signed_graph(n, min(s % 23, n * (n - 1)), s % 11 / 10, s)
                for s in range(300) for n in [2 + s % 9]
            ),
            "recipes": lambda: _recipe_graphs(200),
            "empty": lambda: [new_signed_graph([], [])],
            "isolated": lambda: [new_signed_graph(["b", "a", "c"], []),
                                 new_signed_graph("abcd", [("x", "d", "b", "-")])],
            "escaped": lambda: [_escaping_graph()],
        }[family]()
        marked = family not in ("exhaustive", "random")
        for graph in graphs:
            assert write_signed_graph(graph) == write_signed_graph_by_document(graph)
            if marked:
                lg = line_graph(graph)
                assert write_marked_graph(lg) == write_marked_graph_by_document(lg)

    @pytest.mark.parametrize("marked", [
        MarkedGraph(),
        new_marked_graph([("b", "-"), ("a", "+")], []),
        new_marked_graph([(v, "-+"[i % 2]) for i, v in enumerate(_ESCAPED_IDS)],
                         [("q\"", 'a"b', "\x00"), ("r", "/", "")]),
    ], ids=["empty", "isolated", "escaped"])
    def test_marked_writer_on_graphs_no_line_graph_gives(self, marked):
        assert write_marked_graph(marked) == write_marked_graph_by_document(marked)

    def test_ids_must_be_strings(self):
        # json.dumps wrote these as numbers, which read back as other ids;
        # the constructor stringifies vertex ids, so fill the columns
        graph = SignedGraph._from_columns((1, 2), ["e1"], [1], [2], [False])
        with pytest.raises(TypeError):
            write_signed_graph(graph)

    def test_escaped_ids_round_trip(self):
        graph = _escaping_graph()
        assert read_signed_graph(write_signed_graph(graph)) == graph

    def test_golden_digests(self):
        """SHA-256 of the text written for fixed seeded calls: any change to
        the generators' draws or to the writers' bytes shows here."""
        def digest(texts):
            return hashlib.sha256("".join(texts).encode()).hexdigest()

        small = _recipe_graphs(50)
        assert {
            "recipe-50k": digest([write_signed_graph(
                generate_line_consistent(_benchmark_shaped_recipe(50_000, 2014), 11))]),
            "random-2000-4000": digest([write_signed_graph(
                random_signed_graph(2000, 4000, 0.2, 7))]),
            "small-recipes": digest(map(write_signed_graph, small)),
            "small-line-graphs": digest(write_marked_graph(line_graph(g)) for g in small),
        } == GOLDEN_DIGESTS

    @pytest.mark.parametrize("build", [
        lambda: generate_line_consistent(_benchmark_shaped_recipe(2_000, 3), 3),
        lambda: random_signed_graph(50, 200, 0.3, 3),
    ], ids=["recipe", "random"])
    def test_generate_and_write_build_no_edge_values(self, build, built_edge_values):
        text = write_signed_graph(build())
        assert text.count('"id"') > 100
        assert built_edge_values == []


# computed with the document writers and the edge-value recipe builder that
# tests/oracles.py keeps
GOLDEN_DIGESTS = {
    "recipe-50k":
        "08a314603936b52951c5a0a3480b9f09b85e81f3c9c131d4e7a3b12ec75b4cda",
    "random-2000-4000":
        "93b4161285a7525db89c5177aa0dd1aef83f0f034474951ba48b37f3198de0d9",
    "small-recipes":
        "c6df015492309f6085946c4e513f5132c52cc33977548fc35ebbf334d98c1d94",
    "small-line-graphs":
        "3ba8b423204706b0db9c6b9bcef0551c45d0a195386e7ccd7690307e4470bc40",
}


class TestDot:
    def test_negative_edges_dashed(self):
        g = new_signed_graph("ab", [("e1", "a", "b", "-")])
        dot = export_dot(g)
        assert "style=dashed" in dot
        assert dot.startswith("graph {")

    def test_positive_edges_solid(self):
        g = new_signed_graph("ab", [("e1", "a", "b", "+")])
        assert "style=solid" in export_dot(g)

    def test_marked_vertex_labels(self):
        g = new_signed_graph("ab", [("e1", "a", "b", "-")])
        dot = export_dot(line_graph(g))
        assert '"e1" [label="e1 [-]"];' in dot

    def test_report_clusters(self):
        g = new_signed_graph(
            "abcd",
            [("e1", "a", "b", "-"), ("e2", "b", "c", "-"),
             ("e3", "c", "d", "-"), ("e4", "d", "a", "-")],
        )
        report = classify_structure(g)
        dot = export_dot(g, report)
        assert "subgraph cluster_0" in dot
        assert "circle (block)" in dot

    def test_identifier_escaping(self):
        g = new_signed_graph(['a"b', "c"], [("e1", 'a"b', "c", "+")])
        dot = export_dot(g)
        assert '"a\\"b"' in dot

    def test_byte_determinism(self):
        g = random_signed_graph(5, 6, 0.5, 9)
        assert export_dot(g) == export_dot(g)

    @pytest.mark.parametrize("family", ["exhaustive", "recipes", "collisions", "escaped"])
    def test_columns_match_the_edge_value_writer(self, family):
        graphs = ([_escaping_graph()] if family == "escaped"
                  else differential_corpus(family))
        for graph in graphs:
            report = classify_structure(graph)
            assert export_dot(graph) == export_dot_by_values(graph)
            assert export_dot(graph, report) == export_dot_by_values(graph, report)
            try:
                marked = line_graph(graph)
            except GraphError:  # colliding line-graph edge ids
                continue
            assert export_dot(marked) == export_dot_by_values(marked)


def test_structure_report_to_dict_is_json_friendly():
    import json

    g = new_signed_graph(
        "abc", [("e1", "a", "b", "-"), ("e2", "b", "c", "-")]
    )
    report = classify_structure(g)
    text = json.dumps(structure_report_to_dict(report), sort_keys=True)
    assert '"kind": "nontrivial-path"' in text


@pytest.mark.parametrize("family", [
    "exhaustive", "random", "recipes", "crossval", "collisions", "circles", "tested-edges",
    "negative-paths", "flipped"])
def test_structure_report_to_dict_is_asdict(family):
    """The report's dict is the one ``dataclasses.asdict`` builds, tuples
    kept as tuples, and its JSON text is the same, byte for byte."""
    for graph in differential_corpus(family):
        report = classify_structure(graph)
        fast, deep = structure_report_to_dict(report), dataclasses.asdict(report)
        assert fast == deep  # a tuple never equals a list
        assert (json.dumps(fast, indent=2, sort_keys=True)
                == json.dumps(deep, indent=2, sort_keys=True))
