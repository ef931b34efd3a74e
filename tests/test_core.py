import random

import pytest
from hypothesis import given, strategies as st

from lineconsistency import (
    Circle,
    GraphError,
    Sign,
    SignedGraph,
    Walk,
    new_marked_graph,
    new_signed_graph,
    random_signed_graph,
    sign_product,
    validate_circle,
)


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

    def test_empty_product_is_positive(self):
        assert sign_product([]) is Sign.POSITIVE

    def test_from_symbol(self):
        assert Sign.from_symbol("+") is Sign.POSITIVE
        assert Sign.from_symbol("-") is Sign.NEGATIVE
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
    ])
    def test_edge_faults_located_at_given_position(self, edges, message):
        # sorted by id, the offending edge would sit at another index
        with pytest.raises(GraphError) as signed:
            new_signed_graph("ab", edges)
        with pytest.raises(GraphError) as marked:
            new_marked_graph([("a", "+"), ("b", "-")], [e[:3] for e in edges])
        assert str(signed.value) == str(marked.value) == message


class TestAccessors:
    def test_degree(self):
        assert triangle().degree("a") == 2
        assert star3().degree("c") == 3
        pp = new_signed_graph("ab", [("e1", "a", "b", "+"), ("e2", "a", "b", "-")])
        assert pp.degree("a") == 2

    def test_degree_unknown_vertex(self):
        with pytest.raises(GraphError, match="unknown vertex"):
            triangle().degree("z")

    def test_totally_positive(self):
        assert triangle().is_totally_positive("a")
        assert not star3("+--").is_totally_positive("c")
        isolated = new_signed_graph("a", [])
        assert isolated.is_totally_positive("a")
        assert isolated.is_totally_negative("a")

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

    def test_walk_validation(self):
        g = triangle()
        assert g.sign_of_walk(Walk(("e1", "e2"))) is Sign.POSITIVE
        with pytest.raises(GraphError, match="unknown edge"):
            g.sign_of_walk(Walk(("e1", "zz")))
        path = new_signed_graph(
            "abcd", [("e1", "a", "b", "+"), ("e2", "c", "d", "+")]
        )
        with pytest.raises(GraphError, match="not incident"):
            path.sign_of_walk(Walk(("e1", "e2")))

    def test_closed_walk_must_return(self):
        g = new_signed_graph(
            "abc", [("e1", "a", "b", "+"), ("e2", "b", "c", "+")]
        )
        with pytest.raises(GraphError, match="return"):
            g.sign_of_walk(Walk(("e1", "e2"), closed=True))
        assert triangle().sign_of_walk(
            Walk(("e1", "e2", "e3"), closed=True)
        ) is Sign.POSITIVE

    @staticmethod
    def _random_walk(g, seed, length):
        import random

        rng = random.Random(seed)
        if not g.edges:
            return None
        e = rng.choice(g.edges)
        edges = [e.id]
        current = rng.choice((e.u, e.v))
        for _ in range(length):
            incident = g.incident_edges(current)
            e = rng.choice(incident)
            edges.append(e.id)
            current = e.other_endpoint(current)
        return Walk(tuple(edges))

    @given(st.integers(0, 500), st.integers(2, 6), st.integers(1, 8),
           st.integers(1, 10), st.integers(1, 9))
    def test_concatenation_multiplies_signs(self, seed, n, m, length, cut):
        g = random_signed_graph(n, min(m, n * (n - 1)), 0.5, seed)
        walk = self._random_walk(g, seed, length)
        if walk is None:
            return
        cut = min(cut, len(walk.edges) - 1)
        head, tail = Walk(walk.edges[:cut]), Walk(walk.edges[cut:])
        assert g.sign_of_walk(walk) is (
            g.sign_of_walk(head) * g.sign_of_walk(tail)
        )

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


class TestMarkedGraph:
    def test_construction_and_marks(self):
        m = new_marked_graph(
            [("x", "+"), ("y", "-")], [("d1", "x", "y"), ("d2", "x", "y")]
        )
        assert m.mark("x") is Sign.POSITIVE
        assert m.mark("y") is Sign.NEGATIVE
        assert m.degree("x") == 2
        assert m.negative_vertex_ids == ("y",)

    def test_loop_rejected(self):
        with pytest.raises(GraphError, match="loop"):
            new_marked_graph([("x", "+")], [("d1", "x", "x")])


def test_structural_equality_is_order_independent():
    a = new_signed_graph("ba", [("e2", "b", "a", "-"), ("e1", "a", "b", "+")])
    b = new_signed_graph("ab", [("e1", "a", "b", "+"), ("e2", "a", "b", "-")])
    assert a == b
    assert isinstance(a, SignedGraph)
