import json
import random
from itertools import compress

import pytest
from hypothesis import given, strategies as st

from lineconsistency import (
    Circle,
    Edge,
    GraphError,
    MarkedGraph,
    MarkedVertex,
    Sign,
    SignedEdge,
    SignedGraph,
    check_condition_ii,
    classify_structure,
    exhaustive_signed_graphs,
    generate_line_consistent,
    line_graph,
    new_marked_graph,
    new_signed_graph,
    random_recipe,
    random_signed_graph,
    read_signed_graph,
    sign_product,
    validate_circle,
    write_signed_graph,
)
from lineconsistency.io import stream_signed_graph


def triangle(signs="+++"):
    return new_signed_graph(
        "abc",
        [("e1", "a", "b", signs[0]), ("e2", "b", "c", signs[1]),
         ("e3", "c", "a", signs[2])],
    )


def star3(signs="+++"):
    return new_signed_graph(
        ["c", "l1", "l2", "l3"],
        [(f"e{i}", "c", f"l{i}", s) for i, s in zip((1, 2, 3), signs)],
    )


class TestSign:
    def test_group_law(self):
        for s in Sign:
            assert Sign.POSITIVE * s is s
            assert s * Sign.POSITIVE is s
        assert Sign.NEGATIVE * Sign.NEGATIVE is Sign.POSITIVE
        with pytest.raises(TypeError):
            Sign.POSITIVE * 1

    def test_empty_product_is_positive(self):
        assert sign_product([]) is Sign.POSITIVE

    def test_from_symbol(self):
        assert Sign.from_symbol("+") is Sign.POSITIVE
        assert Sign.from_symbol("-") is Sign.NEGATIVE
        assert [str(Sign.from_symbol(symbol)) for symbol in "+-"] == ["+", "-"]
        with pytest.raises(GraphError):
            Sign.from_symbol("x")


class TestConstruction:
    def test_triangle_accepted(self):
        g = triangle()
        assert g.vertices == ("a", "b", "c")
        assert len(g.edges) == 3

    def test_loop_rejected(self):
        with pytest.raises(GraphError, match="loop"):
            new_signed_graph(["a"], [("e1", "a", "a", "+")])

    def test_parallel_pair_accepted(self):
        g = new_signed_graph("ab", [("e1", "a", "b", "+"), ("e2", "a", "b", "-")])
        assert g.degree("a") == 2
        assert not g.is_simple

    def test_duplicate_edge_id_rejected(self):
        with pytest.raises(GraphError, match="duplicate"):
            new_signed_graph("ab", [("e1", "a", "b", "+"), ("e1", "a", "b", "-")])

    def test_unknown_endpoint_rejected(self):
        with pytest.raises(GraphError, match="not a vertex"):
            new_signed_graph("ab", [("e1", "a", "q", "+")])

    def test_duplicate_vertex_id_rejected_at_given_position(self):
        # sorted, the duplicate 'c' would sit at index 3
        vertices = ["c", "b", "c", "a"]
        message = r"^vertices\[2\]: duplicate vertex id 'c'$"
        with pytest.raises(GraphError, match=message):
            new_signed_graph(vertices, [])
        with pytest.raises(GraphError, match=message):
            new_marked_graph([(v, "+") for v in vertices], [])

    @pytest.mark.parametrize("edges, message", [
        ([("e2", "a", "b", "+"), ("e1", "a", "a", "+")],
         "edges[1]: loop edge 'e1' at vertex 'a'"),
        ([("e2", "a", "b", "+"), ("e1", "a", "q", "+")],
         "edges[1]: endpoint 'q' is not a vertex"),
        ([("e1", "a", "b", "+"), ("e3", "a", "b", "+"), ("e1", "a", "b", "-")],
         "edges[2]: duplicate edge id 'e1'"),
        # in id order but for an adjacent duplicate: not strictly ascending
        ([("e1", "a", "b", "+"), ("e2", "a", "b", "+"), ("e2", "a", "b", "-")],
         "edges[2]: duplicate edge id 'e2'"),
        ([(9, "a", "b", "+"), (10, "a", "b", "+"), ("10", "a", "b", "-")],
         "edges[2]: duplicate edge id '10'"),
    ])
    def test_edge_faults_located_at_given_position(self, edges, message):
        # sorted by id, the offending edge would sit at another index
        with pytest.raises(GraphError) as signed:
            new_signed_graph("ab", edges)
        with pytest.raises(GraphError) as marked:
            new_marked_graph([("a", "+"), ("b", "-")], [e[:3] for e in edges])
        assert str(signed.value) == str(marked.value) == message


class TestOneConstructorPerKind:
    """Each graph kind has one constructor, which takes values, tuples or a
    mix of them; ``_from_columns`` fills the same graph from columns."""

    def test_the_new_names_are_the_classes(self):
        assert new_signed_graph is SignedGraph
        assert new_marked_graph is MarkedGraph

    def test_signed_graph_from_values_tuples_a_mix_and_columns(self):
        tuples = [("e2", "b", "a", "-"), ("e1", "a", "b", "+"), ("e3", "c", "b", Sign.NEGATIVE)]
        values = [SignedEdge(*t) for t in tuples]
        graphs = [
            SignedGraph("abc", values),
            SignedGraph("abc", tuples),
            SignedGraph(["a", "b", "c"], [values[0], tuples[1], values[2]]),
            SignedGraph._from_columns(("a", "b", "c"), ["e2", "e1", "e3"], ["b", "a", "c"],
                                      ["a", "b", "b"], [True, False, True]),
        ]
        assert all(graph == graphs[0] for graph in graphs)
        assert graphs[0].edges == (values[1], values[0], values[2])
        # vertex ids and tuple fields are stringified; arguments may be omitted
        assert SignedGraph([1, 2], [(7, 1, 2, "-")]) == SignedGraph("12", [("7", "1", "2", "-")])
        assert SignedGraph() == SignedGraph((), ()) == SignedGraph._from_columns((), [], [], [], [])

    def test_marked_graph_from_values_tuples_a_mix_and_columns(self):
        vertices = [("y", "-"), ("x", Sign.POSITIVE)]
        edges = [("d2", "y", "x"), ("d1", "x", "y")]
        vertex_values = [MarkedVertex(*v) for v in vertices]
        edge_values = [Edge(*e) for e in edges]
        graphs = [
            MarkedGraph(vertex_values, edge_values),
            MarkedGraph(vertices, edges),
            MarkedGraph([vertex_values[0], vertices[1]], [edges[0], edge_values[1]]),
            MarkedGraph._from_columns(("y", "x"), [True, False], ["d2", "d1"],
                                      ["y", "x"], ["x", "y"]),
        ]
        assert all(graph == graphs[0] for graph in graphs)
        assert graphs[0].vertices == (vertex_values[1], vertex_values[0])
        assert MarkedGraph([(1, "+"), (2, "-")], [(7, 1, 2)]) == MarkedGraph(
            [("1", "+"), ("2", "-")], [("7", "1", "2")])
        assert MarkedGraph() == MarkedGraph._from_columns((), [], [], [], [])

    @pytest.mark.parametrize("edges, message", [
        ([("e1", "a", "b", "x")], "invalid sign 'x': expected '+' or '-'"),
        ([("e1", "a", "a", "+")], "edges[0]: loop edge 'e1' at vertex 'a'"),
        ([("e1", "a", "b", "+"), ("e1", "b", "a", "-")], "edges[1]: duplicate edge id 'e1'"),
    ])
    def test_signed_errors_keep_their_messages(self, edges, message):
        with pytest.raises(GraphError) as from_tuples:
            SignedGraph("ab", edges)
        with pytest.raises(GraphError) as from_values:
            SignedGraph("ab", [SignedEdge(*e) for e in edges])
        assert str(from_tuples.value) == str(from_values.value) == message

    def test_duplicate_vertex_ids_keep_their_message(self):
        with pytest.raises(GraphError) as signed:
            SignedGraph("aa")
        with pytest.raises(GraphError) as marked:
            MarkedGraph([MarkedVertex("a", "+"), ("a", "-")])
        assert str(signed.value) == str(marked.value) == "vertices[1]: duplicate vertex id 'a'"

    @pytest.mark.parametrize("build", [
        lambda: SignedGraph("ab", [("e1", "a", "b")]),
        lambda: SignedGraph("ab", [("e1", "a", "b", "+", "x")]),
        lambda: MarkedGraph([("a",)]),
        lambda: MarkedGraph([("a", "+"), ("b", "+")], [("d1", "a", "b", "+")]),
    ])
    def test_a_tuple_of_the_wrong_length_is_refused(self, build):
        with pytest.raises(ValueError) as raised:
            build()
        assert type(raised.value) is ValueError  # the unpacking's, not a GraphError


class TestNumberedEndpoints:
    """``_from_columns(..., numbered=True)`` takes endpoints as indices into
    the given vertex ids and fills the graph their ids give, with the same
    checks and messages."""

    @pytest.mark.parametrize("vertices", ["abc", "cab", "bca"])
    def test_numbers_give_the_graph_their_ids_give(self, vertices):
        us, vs = ["b", "a", "c"], ["c", "b", "a"]
        by_ids = SignedGraph._from_columns(tuple(vertices), ["e2", "e1", "e0"], us, vs,
                                           [True, False, True])
        numbers = [list(map(vertices.index, column)) for column in (us, vs)]
        by_numbers = SignedGraph._from_columns(tuple(vertices), ["e2", "e1", "e0"], *numbers,
                                               [True, False, True], numbered=True)
        assert by_numbers == by_ids == SignedGraph("abc", [
            ("e2", "b", "c", "-"), ("e1", "a", "b", "+"), ("e0", "c", "a", "-")])
        marked = MarkedGraph._from_columns(tuple(vertices), [True, False, False], ["d1"],
                                           *[[x[0]] for x in numbers], numbered=True)
        assert marked == MarkedGraph(list(zip(vertices, "-++")), [("d1", us[0], vs[0])])

    @pytest.mark.parametrize("vertices, us, vs, message", [
        ("abc", [0, 1], [1, 1], "edges[1]: loop edge 'e1' at vertex 'b'"),
        ("cba", [0, 2], [1, 2], "edges[1]: loop edge 'e1' at vertex 'a'"),
        ("aba", [0, 1], [1, 2], "vertices[2]: duplicate vertex id 'a'"),
        ("abc", [0, 1], [1, 3], "endpoint numbers must index the vertex ids"),
        ("abc", [0, -1], [1, 2], "endpoint numbers must index the vertex ids"),
        ("cba", [0, 1], [3, 2], "endpoint numbers must index the vertex ids"),
        ("cba", [0, -3], [1, 2], "endpoint numbers must index the vertex ids"),
    ])
    def test_errors(self, vertices, us, vs, message):
        with pytest.raises(GraphError) as raised:
            SignedGraph._from_columns(tuple(vertices), ["e0", "e1"], us, vs, [False, True],
                                      numbered=True)
        assert str(raised.value) == message

    def test_duplicate_edge_id(self):
        with pytest.raises(GraphError, match=r"^edges\[2\]: duplicate edge id 'e0'$"):
            SignedGraph._from_columns(("a", "b", "c"), ["e0", "e1", "e0"], [0, 1, 0],
                                      [1, 2, 2], [False] * 3, numbered=True)


class TestSignedEdgeSign:
    def test_symbols_become_signs(self):
        # the negative 3-star from edge values with symbol signs
        star = SignedGraph("abcd", [SignedEdge(f"e{x}", "a", x, "-") for x in "bcd"])
        assert all(e.sign is Sign.NEGATIVE for e in star.edges)
        verdict = check_condition_ii(star)
        assert (verdict.line_consistent, verdict.failed_clause, verdict.vertex) == (
            False, "negative-subgraph degree exceeds 2", "a")
        report = classify_structure(star)
        assert report.balanced and not report.line_consistent

    @pytest.mark.parametrize("sign", [True, 1, None, "x", "+-"])
    def test_other_signs_rejected(self, sign):
        with pytest.raises(GraphError, match="invalid sign"):
            SignedEdge("x", "a", "b", sign)


class TestAccessors:
    def test_degree(self):
        assert triangle().degree("a") == 2
        assert star3().degree("c") == 3
        pp = new_signed_graph("ab", [("e1", "a", "b", "+"), ("e2", "a", "b", "-")])
        assert pp.degree("a") == 2

    def test_degree_unknown_vertex(self):
        with pytest.raises(GraphError, match="unknown vertex"):
            triangle().degree("z")

    def test_negative_subgraph(self):
        assert triangle().negative_subgraph().edges == ()
        c4 = new_signed_graph(
            "abcd",
            [("e1", "a", "b", "-"), ("e2", "b", "c", "-"),
             ("e3", "c", "d", "-"), ("e4", "d", "a", "-")],
        )
        assert c4.negative_subgraph() == c4
        neg = star3("+--").negative_subgraph()
        assert {e.id for e in neg.edges} == {"e2", "e3"}
        assert neg.vertices == star3().vertices  # spanning: leaves retained

    def test_graphs_are_frozen(self):
        from dataclasses import FrozenInstanceError

        g = triangle()
        with pytest.raises(FrozenInstanceError):
            g.vertices = ()
        with pytest.raises(FrozenInstanceError):
            del g.edges
        assert g == triangle()

    def test_transforms_return_new_values(self):
        g = star3("+--")
        trimmed = g.without_edges(["e1"])
        assert len(g.edges) == 3 and len(trimmed.edges) == 2
        assert g.negative_subgraph() is not g

    def test_without_unknown_edge_rejected(self):
        with pytest.raises(GraphError) as raised:
            star3().without_edges(["e2", "nope"])
        assert str(raised.value) == "unknown edge 'nope'"

    def test_transforms_build_no_values(self, built_edge_values):
        g = new_signed_graph("abcd", [("e3", "d", "a", "-"), ("e1", "a", "b", "+"),
                                      ("e2", "c", "b", "-")])
        neg, trimmed = g.negative_subgraph(), g.without_edges(["e3"])
        assert built_edge_values == []
        assert neg == new_signed_graph("abcd", [("e2", "b", "c", "-"),
                                                ("e3", "a", "d", "-")])
        assert trimmed == new_signed_graph("abcd", [("e1", "a", "b", "+"),
                                                    ("e2", "b", "c", "-")])
        assert g.without_edges([]) == g and g.without_edges(g.edge_ids).edges == ()
        assert built_edge_values == []
        assert g.negative_edges == neg.edges


class TestWalks:
    def test_sign_of_circle(self):
        g = triangle()
        circle = Circle(("e1", "e2", "e3"), ("a", "b", "c"))
        assert g.sign_of_walk(circle) is Sign.POSITIVE
        one_neg = triangle("-++")
        assert one_neg.sign_of_walk(circle) is Sign.NEGATIVE
        c4 = new_signed_graph(
            "abcd",
            [("e1", "a", "b", "-"), ("e2", "b", "c", "-"),
             ("e3", "c", "d", "+"), ("e4", "d", "a", "+")],
        )
        square = Circle(("e1", "e2", "e3", "e4"), ("a", "b", "c", "d"))
        assert c4.sign_of_walk(square) is Sign.POSITIVE

    def test_sign_of_circle_bisects_once_per_edge(self, monkeypatch):
        ring = [f"v{i}" for i in range(12)]
        graph = new_signed_graph(ring, [
            (f"e{i}", ring[i], ring[(i + 1) % 12], "-+"[i % 4 == 0]) for i in range(12)
        ])
        circle = Circle([f"e{i}" for i in range(12)], ring)
        calls = []
        edge_number = SignedGraph._edge_number

        def counted(self, edge_id):
            calls.append(edge_id)
            return edge_number(self, edge_id)

        monkeypatch.setattr(SignedGraph, "_edge_number", counted)
        assert graph.sign_of_walk(circle) is Sign.NEGATIVE
        assert calls == list(circle.edges)

    @given(st.integers(0, 500), st.integers(1, 7), st.integers(0, 12))
    def test_degree_sum(self, seed, n, m):
        g = random_signed_graph(n, min(m, n * (n - 1)), 0.3, seed)
        assert sum(g.degree(v) for v in g.vertices) == 2 * len(g.edges)


class TestCircle:
    def test_invariants(self):
        with pytest.raises(GraphError):
            Circle(("e1",), ("a",))
        with pytest.raises(GraphError, match="repeats an edge"):
            Circle(("e1", "e1"), ("a", "b"))
        with pytest.raises(GraphError, match="repeats a vertex"):
            Circle(("e1", "e2", "e3"), ("a", "b", "a"))

    def test_canonical_rotation_and_reflection(self):
        base = Circle(("e2", "e3", "e1"), ("b", "c", "a"))
        assert base.canonical() == Circle(("e1", "e2", "e3"), ("a", "b", "c"))
        mirrored = Circle(("e3", "e2", "e1"), ("a", "c", "b"))
        assert mirrored.canonical() == base.canonical()

    def test_canonical_is_least_of_all_orientations(self):
        rng = random.Random(3)
        for n in list(range(2, 9)) * 40:
            edges = tuple(rng.sample([f"e{i}" for i in range(12)], n))
            vertices = tuple(rng.sample([f"v{i}" for i in range(12)], n))
            circle = Circle(edges, vertices)
            reversed_circle = (tuple(reversed(edges)),
                               (vertices[0],) + tuple(reversed(vertices[1:])))
            least = min(
                (e[k:] + e[:k], v[k:] + v[:k])
                for e, v in ((edges, vertices), reversed_circle)
                for k in range(n)
            )
            assert circle.canonical() == Circle(*least)

    def test_validate_against_graph(self):
        g = triangle()
        validate_circle(g, Circle(("e1", "e2", "e3"), ("a", "b", "c")))
        with pytest.raises(GraphError):
            validate_circle(g, Circle(("e1", "e3", "e2"), ("a", "b", "c")))

    def test_digon_needs_parallel_edges(self):
        pp = new_signed_graph("ab", [("e1", "a", "b", "+"), ("e2", "a", "b", "-")])
        validate_circle(pp, Circle(("e1", "e2"), ("a", "b")))
        g = new_signed_graph(
            "abc", [("e1", "a", "b", "+"), ("e2", "b", "c", "+")]
        )
        with pytest.raises(GraphError):
            validate_circle(g, Circle(("e1", "e2"), ("a", "b")))


def lookup_graphs():
    """A triangle on vertices b, d, f with edges e2, e4, e6, built three ways."""
    edges = [("e2", "b", "d", "+"), ("e4", "d", "f", "-"), ("e6", "f", "b", "+")]
    tuples = new_signed_graph("fdb", edges)
    return {
        "json": read_signed_graph(write_signed_graph(tuples)),
        "tuples": tuples,
        "marked": new_marked_graph([("b", "+"), ("d", "-"), ("f", "+")],
                                   [e[:3] for e in edges]),
    }


class TestLookups:
    """Ids are found by bisecting the sorted ids: unknown ones before the
    first, between two and after the last id are all reported."""

    @pytest.mark.parametrize("vertex, edge", [
        ("a", "e1"), ("c", "e3"), ("g", "e7"), (7, 7),
    ], ids=["before-first", "between", "after-last", "not-a-string"])
    @pytest.mark.parametrize("kind", ["json", "tuples", "marked"])
    def test_unknown_ids(self, kind, vertex, edge):
        graph = lookup_graphs()[kind]
        calls = [
            (lambda: graph.edge(edge), f"unknown edge {edge!r}"),
            (lambda: graph.degree(vertex), f"unknown vertex {vertex!r}"),
            (lambda: graph.incident_edges(vertex), f"unknown vertex {vertex!r}"),
            (lambda: validate_circle(graph, Circle((edge, "e4", "e6"), "bdf")),
             f"unknown edge {edge!r}"),
        ]
        if kind == "marked":
            calls.append((lambda: graph.mark(vertex), f"unknown vertex {vertex!r}"))
        if isinstance(vertex, str):
            pair = sorted((vertex, "d"))
            calls.append((lambda: validate_circle(graph, Circle(("e2", "e4", "e6"),
                                                                (vertex, "d", "f"))),
                          f"circle edge 'e2' does not join {pair[0]!r} and {pair[1]!r}"))
        for call, message in calls:
            with pytest.raises(GraphError) as raised:
                call()
            assert str(raised.value) == message

    @pytest.mark.parametrize("kind", ["json", "tuples", "marked"])
    def test_first_and_last_ids_found(self, kind):
        graph = lookup_graphs()[kind]
        assert [graph.edge(e).id for e in ("e2", "e4", "e6")] == ["e2", "e4", "e6"]
        assert [graph.degree(v) for v in "bdf"] == [2, 2, 2]
        assert [e.id for e in graph.incident_edges("f")] == ["e4", "e6"]
        validate_circle(graph, Circle(("e2", "e4", "e6"), "bdf"))
        validate_circle(graph, Circle(("e6", "e4", "e2"), "bfd"))


class TestMarkedGraph:
    def test_construction_and_marks(self):
        m = new_marked_graph(
            [("x", "+"), ("y", "-")], [("d1", "x", "y"), ("d2", "x", "y")]
        )
        assert m.mark("x") is Sign.POSITIVE
        assert m.mark("y") is Sign.NEGATIVE
        assert m.degree("x") == 2
        assert tuple(compress(m.vertex_ids, m.marks)) == ("y",)

    def test_loop_rejected(self):
        with pytest.raises(GraphError, match="loop"):
            new_marked_graph([("x", "+")], [("d1", "x", "x")])

    def test_built_from_items_builds_no_values(self, built_edge_values):
        m = new_marked_graph([("y", "-"), (1, Sign.POSITIVE)], [(7, 1, "y")])
        assert built_edge_values == []
        assert (m.vertex_ids, m.marks, m.edge_triples()) == (
            ("1", "y"), [False, True], (("7", "1", "y"),))
        with pytest.raises(GraphError) as raised:
            new_marked_graph([("y", True)], [])
        assert str(raised.value) == "invalid sign True: expected '+' or '-'"

    @staticmethod
    def unsorted():
        """The marked graph y(-) x(+) z(+), edges d2, d1 on x-y, d3 on y-z,
        each given out of id order, from values and from items."""
        vertices = (MarkedVertex("y", Sign.NEGATIVE), MarkedVertex("x", Sign.POSITIVE),
                    MarkedVertex("z", Sign.POSITIVE))
        edges = (Edge("d2", "y", "x"), Edge("d1", "x", "y"), Edge("d3", "z", "y"))
        items = new_marked_graph([("y", "-"), ("x", "+"), ("z", "+")],
                                 [("d2", "y", "x"), ("d1", "x", "y"), ("d3", "z", "y")])
        return MarkedGraph(vertices, edges), items

    def test_values_sorted_and_equal_across_constructions(self):
        values, items = self.unsorted()
        expected_vertices = (MarkedVertex("x", Sign.POSITIVE),
                             MarkedVertex("y", Sign.NEGATIVE),
                             MarkedVertex("z", Sign.POSITIVE))
        expected_edges = (Edge("d1", "x", "y"), Edge("d2", "x", "y"), Edge("d3", "y", "z"))
        for graph in (values, items):
            assert graph.vertices == expected_vertices
            assert graph.edges == expected_edges
            assert graph.vertex_ids == ("x", "y", "z")
            assert tuple(compress(graph.vertex_ids, graph.marks)) == ("y",)
            assert [graph.mark(v) for v in "xyz"] == [Sign.POSITIVE, Sign.NEGATIVE,
                                                      Sign.POSITIVE]
            assert graph.edge_triples() == (("d1", "x", "y"), ("d2", "x", "y"),
                                            ("d3", "y", "z"))
        assert values == items and hash(values) == hash(items)
        assert MarkedGraph(expected_vertices, expected_edges) == values

    def test_graphs_differing_in_a_mark_or_an_edge_differ(self):
        values, _ = self.unsorted()
        flipped = new_marked_graph([("x", "+"), ("y", "+"), ("z", "+")],
                                   [("d1", "x", "y"), ("d2", "x", "y"), ("d3", "y", "z")])
        moved = new_marked_graph([("x", "+"), ("y", "-"), ("z", "+")],
                                 [("d1", "x", "y"), ("d2", "x", "z"), ("d3", "y", "z")])
        assert values != flipped and values != moved
        signed = new_signed_graph("xyz", [("d1", "x", "y", "+"), ("d2", "x", "y", "+"),
                                          ("d3", "y", "z", "+")])
        assert values != signed and signed != values

    def test_repr(self):
        values, items = self.unsorted()
        assert repr(values) == repr(items) == (
            "MarkedGraph(vertices=(MarkedVertex(id='x', sign=<Sign.POSITIVE: '+'>), "
            "MarkedVertex(id='y', sign=<Sign.NEGATIVE: '-'>), "
            "MarkedVertex(id='z', sign=<Sign.POSITIVE: '+'>)), "
            "edges=(Edge(id='d1', u='x', v='y'), Edge(id='d2', u='x', v='y'), "
            "Edge(id='d3', u='y', v='z')))"
        )

    def test_frozen(self):
        from dataclasses import FrozenInstanceError

        for graph in self.unsorted():
            with pytest.raises(FrozenInstanceError):
                graph.vertices = ()
            with pytest.raises(FrozenInstanceError):
                graph.edges = ()
            with pytest.raises(FrozenInstanceError):
                del graph.vertices
        assert self.unsorted()[0] == self.unsorted()[1]

    def test_empty(self):
        empty = MarkedGraph()
        negative = tuple(compress(empty.vertex_ids, empty.marks))
        assert (empty.vertices, empty.edges, negative) == ((), (), ())
        assert empty == new_marked_graph([], []) == MarkedGraph((), ())
        assert hash(empty) == hash(MarkedGraph())
        assert repr(empty) == "MarkedGraph(vertices=(), edges=())"

    @pytest.mark.parametrize("vertices, edges, message", [
        ([("x", "+"), ("y", "-"), ("x", "-")], [], "vertices[2]: duplicate vertex id 'x'"),
        ([("x", "+"), ("y", "-")], [("d2", "x", "y"), ("d1", "y", "x"), ("d2", "y", "x")],
         "edges[2]: duplicate edge id 'd2'"),
        ([("x", "+"), ("y", "-")], [("d1", "x", "y"), ("d2", "x", "w")],
         "edges[1]: endpoint 'w' is not a vertex"),
        ([("x", "+"), ("y", "-")], [("d1", "x", "y"), ("d1", "y", "x")],
         "edges[1]: duplicate edge id 'd1'"),
    ])
    def test_errors_name_the_given_position(self, vertices, edges, message):
        with pytest.raises(GraphError) as raised:
            new_marked_graph(vertices, edges)
        assert str(raised.value) == message
        with pytest.raises(GraphError) as raised:
            MarkedGraph([MarkedVertex(v, Sign.from_symbol(s)) for v, s in vertices],
                        [Edge(*e) for e in edges])
        assert str(raised.value) == message

    def test_vertex_sign_symbols(self):
        assert MarkedVertex("y", "-") == MarkedVertex("y", Sign.NEGATIVE)
        marked = MarkedGraph((MarkedVertex("y", "-"),))
        assert tuple(compress(marked.vertex_ids, marked.marks)) == ("y",)
        with pytest.raises(GraphError, match="invalid sign"):
            MarkedVertex("y", True)


class TestSignColumn:
    """Every graph's ``negative`` column is ``bytes``, one 0/1 byte per edge,
    whatever built it, so graphs built on different paths compare and hash
    equal."""

    @staticmethod
    def assert_same(graphs):
        first = graphs[0]
        for graph in graphs:
            assert type(graph.negative) is bytes and set(graph.negative) <= {0, 1}
            assert len(graph.negative) == len(graph.edge_ids)
            assert graph == first and hash(graph) == hash(first)

    def test_the_reader_and_the_constructor(self, tmp_path, large_document):
        path = tmp_path / "large.json"
        path.write_text(large_document)
        chunked = read_signed_graph(large_document)
        # another layout is decoded whole
        whole = read_signed_graph(json.dumps(json.loads(large_document)))
        streamed = stream_signed_graph(str(path))
        tuples = SignedGraph(chunked.vertex_ids,
                             [(e.id, e.u, e.v, e.sign.value) for e in chunked.edges])
        values = SignedGraph(chunked.vertices, chunked.edges)
        self.assert_same([chunked, whole, streamed, tuples, values])
        assert 0 < sum(chunked.negative) < len(chunked.negative)

    def test_parts_and_generators(self):
        recipe = random_recipe(5)
        graphs = [random_signed_graph(9, 20, 0.5, 3), generate_line_consistent(recipe, 5),
                  *exhaustive_signed_graphs(3, 2)]
        for graph in graphs:
            self.assert_same([graph, read_signed_graph(write_signed_graph(graph))])
            negative = graph.negative_subgraph()
            self.assert_same([negative, SignedGraph(graph.vertices, graph.negative_edges)])
            kept = graph.edges[1:]
            self.assert_same([graph.without_edges(graph.edge_ids[:1]),
                              SignedGraph(graph.vertices, kept)])

    def test_the_line_graph(self):
        graph = random_signed_graph(8, 12, 0.5, 3)
        marked = line_graph(graph)
        assert type(marked.negative) is bytes
        assert marked.negative == bytes(len(marked.edge_ids))
        assert marked.marks == list(graph.negative) and any(marked.marks)
        rebuilt = MarkedGraph(marked.vertices, marked.edges)
        assert rebuilt.negative == marked.negative
        assert rebuilt == marked and hash(rebuilt) == hash(marked)


def test_structural_equality_is_order_independent():
    a = new_signed_graph("ba", [("e2", "b", "a", "-"), ("e1", "a", "b", "+")])
    b = new_signed_graph("ab", [("e1", "a", "b", "+"), ("e2", "a", "b", "-")])
    assert a == b
    assert isinstance(a, SignedGraph)
    # integer ids, stringified: "10" sorts before "9", so numeric order is
    # not id order; edges in id order are stored as given, any other sorted
    edges = [(i, f"v{i % 4}", f"v{(i + 1) % 4}", "-" if i % 3 else "+")
             for i in range(1, 13)]
    in_id_order = sorted(edges, key=lambda e: str(e[0]))
    shuffled = edges[:]
    random.Random(3).shuffle(shuffled)
    orders = [in_id_order, in_id_order[::-1], edges, edges[::-1], shuffled]
    vertices = [f"v{i}" for i in range(4)]
    signed = [new_signed_graph(vertices[::-1], order) for order in orders]
    marked = [new_marked_graph([(v, "+") for v in vertices], [e[:3] for e in order])
              for order in orders]
    for graphs in (signed, marked):
        keys = [graph._key() for graph in graphs]
        assert all(key == keys[0] for key in keys)
        assert all(graph == graphs[0] for graph in graphs)
    assert signed[0].edge_ids == tuple(sorted(map(str, range(1, 13))))
    assert signed[0].vertex_ids == ("v0", "v1", "v2", "v3")
