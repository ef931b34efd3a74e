import itertools
import math
import re

import pytest
from oracles import (
    differential_corpus,
    line_graph_by_values,
    write_marked_graph_by_document,
)

from lineconsistency import (
    Circle,
    GraphError,
    Sign,
    circle_image,
    circle_vertex_sign,
    enumerate_circles,
    exhaustive_signed_graphs,
    line_graph,
    new_signed_graph,
    validate_circle,
    write_marked_graph,
)
from lineconsistency.linegraph import line_circle, verify_witness


def star(k, signs=None):
    signs = signs or "+" * k
    return new_signed_graph(
        ["c"] + [f"l{i}" for i in range(k)],
        [(f"e{i}", "c", f"l{i}", s) for i, s in enumerate(signs)],
    )


class TestLineGraph:
    def test_path_gives_single_edge(self):
        g = new_signed_graph("abc", [("e1", "a", "b", "+"), ("e2", "b", "c", "-")])
        m = line_graph(g)
        assert m.vertex_ids == ("e1", "e2")
        assert [(e.u, e.v) for e in m.edges] == [("e1", "e2")]

    def test_parallel_pair_gives_double_edge(self):
        g = new_signed_graph("ab", [("e1", "a", "b", "+"), ("e2", "a", "b", "-")])
        m = line_graph(g)
        assert m.vertex_ids == ("e1", "e2")
        assert len(m.edges) == 2
        assert all(frozenset((e.u, e.v)) == frozenset(("e1", "e2")) for e in m.edges)

    def test_triangle_maps_to_triangle(self):
        g = new_signed_graph(
            "abc", [("e1", "a", "b", "+"), ("e2", "b", "c", "-"),
                    ("e3", "c", "a", "+")]
        )
        m = line_graph(g)
        assert len(m.vertices) == 3 and len(m.edges) == 3
        assert m.mark("e1") is Sign.POSITIVE
        assert m.mark("e2") is Sign.NEGATIVE

    def test_marks_are_edge_signs(self):
        g = star(4, "+-+-")
        m = line_graph(g)
        for e in g.edges:
            assert m.mark(e.id) is e.sign

    def test_counting_formulae(self):
        for g in exhaustive_signed_graphs(4, 4):
            m = line_graph(g)
            assert len(m.vertices) == len(g.edges)
            expected = sum(
                math.comb(g.degree(v), 2) for v in g.vertices
            )
            assert len(m.edges) == expected


class TestAgainstEdgeValues:
    """``line_graph`` fills its columns straight from the graph's; the
    builder it replaced, which read edge values, is kept in ``oracles``."""

    @pytest.mark.parametrize("family", ["exhaustive", "random", "recipes", "collisions"])
    def test_same_line_graph_or_same_error(self, family):
        errors = 0
        for graph in differential_corpus(family):
            try:
                expected = line_graph_by_values(graph)
            except GraphError as exc:
                errors += 1
                with pytest.raises(GraphError) as raised:
                    line_graph(graph)
                assert str(raised.value) == str(exc)
                continue
            found = line_graph(graph)
            assert found == expected and hash(found) == hash(expected)
            assert (list(itertools.compress(found.vertex_ids, found.marks))
                    == list(itertools.compress(expected.vertex_ids, expected.marks)))
            assert found.edge_triples() == expected.edge_triples()
            assert write_marked_graph(found) == write_marked_graph_by_document(expected)
            assert (found.vertices, found.edges) == (expected.vertices, expected.edges)
            assert repr(found) == repr(expected)
        # '~'/'@' ids: some line-graph edge ids collide, with the same message
        assert (errors > 0) == (family == "collisions")

    def test_collision_names_the_duplicate(self):
        star_ids = new_signed_graph("sabcd", [
            ("p", "s", "a", "+"), ("q~r", "s", "b", "+"), ("p~q", "s", "c", "+"),
            ("r", "s", "d", "+")])
        with pytest.raises(GraphError, match=r"^edges\[4\]: duplicate edge id 'p~q~r@s'$"):
            line_graph(star_ids)


class TestCircleImage:
    def test_image_sign_equals_circle_sign(self):
        for g in exhaustive_signed_graphs(4, 5):
            m = line_graph(g)
            for circle in enumerate_circles(g):
                if len(circle) < 3:
                    continue
                image = circle_image(circle)
                validate_circle(m, image)
                assert circle_vertex_sign(m, image) is g.sign_of_walk(circle)

    def test_digon_image(self):
        g = new_signed_graph("ab", [("e1", "a", "b", "-"), ("e2", "a", "b", "+")])
        m = line_graph(g)
        [digon] = enumerate_circles(g)
        image = circle_image(digon)
        validate_circle(m, image)
        assert circle_vertex_sign(m, image) is Sign.NEGATIVE


class TestVerifyWitness:
    def refused(self, graph, witness):
        message = f"witness {witness} is not a negative line-graph circle"
        with pytest.raises(GraphError, match=f"^{re.escape(message)}$"):
            verify_witness(graph, witness)

    def test_refuses_the_image_of_a_positive_circle(self):
        image = circle_image(Circle(("e1", "e2", "e3"), ("a", "b", "c")))
        for signs, negative in (("--+", False), ("---", True)):
            g = new_signed_graph("abc", [("e1", "a", "b", signs[0]), ("e2", "b", "c", signs[1]),
                                         ("e3", "c", "a", signs[2])])
            if negative:
                verify_witness(g, image)
            else:
                self.refused(g, image)

    def test_refuses_a_line_edge_at_a_vertex_its_edges_do_not_share(self):
        g = star(3, "---")
        verify_witness(g, line_circle(("e0", "e1", "e2"), ("c", "c", "c")))
        # e0 and e1 meet at c only, not at e0's leaf l0
        self.refused(g, line_circle(("e0", "e1", "e2"), ("l0", "c", "c")))


class TestVertexTriangles:
    def test_triangles_are_line_graph_circles(self):
        # three edges at one vertex give a line-graph triangle, built as the
        # condition-ii witnesses build theirs
        g = star(4, "+--+")
        m = line_graph(g)
        triangles = [
            line_circle(triple, (v, v, v))
            for v in g.vertices
            for triple in itertools.combinations([e.id for e in g.incident_edges(v)], 3)
        ]
        assert len(triangles) == 4
        for t in triangles:
            validate_circle(m, t)
            signs = [m.mark(v) for v in t.vertices]
            product = Sign.POSITIVE
            for s in signs:
                product = product * s
            assert circle_vertex_sign(m, t) is product
