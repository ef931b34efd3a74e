import pytest
from hypothesis import given, settings, strategies as st

from lineconsistency import (
    GraphFormatError,
    Sign,
    SignedEdge,
    SignedGraph,
    classify_structure,
    exhaustive_signed_graphs,
    export_dot,
    generate_line_consistent,
    line_graph,
    new_signed_graph,
    random_recipe,
    random_signed_graph,
    read_signed_graph,
    structure_report_to_dict,
    write_marked_graph,
    write_signed_graph,
)


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
    ], ids=["duplicate-vertex", "duplicate-edge", "loop", "unknown-endpoint",
            "bad-sign", "top-level-not-object", "vertices-not-array",
            "edge-not-object", "missing-sign", "float-id"])
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

    def test_boolean_identifier_rejected(self):
        with pytest.raises(GraphFormatError, match="boolean"):
            read_signed_graph('{"vertices":[true],"edges":[]}')

    def test_missing_keys(self):
        with pytest.raises(GraphFormatError, match="missing key"):
            read_signed_graph('{"vertices":[]}')


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
    """A graph read from JSON holds columns and builds its edge values on
    demand; one built from edge values keeps them.  Both must agree."""

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

    def test_built_from_edge_values_keeps_them(self):
        edges = (SignedEdge("b", "y", "x", Sign.NEGATIVE), SignedEdge("a", "x", "z"))
        graph = SignedGraph(("z", "y", "x"), edges)
        assert graph.edges[0] is edges[1] and graph.edges[1] is edges[0]
        assert graph.edge("b") is edges[0]

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


def test_structure_report_to_dict_is_json_friendly():
    import json

    g = new_signed_graph(
        "abc", [("e1", "a", "b", "-"), ("e2", "b", "c", "-")]
    )
    report = classify_structure(g)
    text = json.dumps(structure_report_to_dict(report), sort_keys=True)
    assert '"kind": "nontrivial-path"' in text
