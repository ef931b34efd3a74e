import itertools

import pytest
from hypothesis import given, settings, strategies as st

from lineconsistency import (
    Circle,
    CircleLimitError,
    GraphError,
    Sign,
    circle_vertex_sign,
    enumerate_circles,
    exhaustive_signed_graphs,
    find_negative_circle,
    is_balanced_fast,
    is_balanced_oracle,
    is_consistent_oracle,
    check_theorem1_simple,
    line_graph,
    new_marked_graph,
    new_signed_graph,
    random_signed_graph,
    read_signed_graph,
    write_signed_graph,
)
from oracles import balanced_bruteforce, circle_edge_sets


def complete_graph(n, sign="+"):
    vertices = [f"v{i}" for i in range(n)]
    edges = [
        (f"e{i}", u, v, sign)
        for i, (u, v) in enumerate(itertools.combinations(vertices, 2))
    ]
    return new_signed_graph(vertices, edges)


class TestEnumerateCircles:
    def test_tree_has_no_circles(self):
        tree = new_signed_graph(
            "abcd", [("e1", "a", "b", "+"), ("e2", "b", "c", "+"),
                     ("e3", "b", "d", "-")]
        )
        assert enumerate_circles(tree) == []

    def test_triangle_has_one(self):
        g = new_signed_graph(
            "abc", [("e1", "a", "b", "+"), ("e2", "b", "c", "+"),
                    ("e3", "c", "a", "+")]
        )
        assert len(enumerate_circles(g)) == 1

    def test_k4_matches_bruteforce(self):
        g = complete_graph(4)
        brute = circle_edge_sets(g)
        assert len(brute) == 7  # frozen from the edge-subset oracle
        circles = enumerate_circles(g)
        assert len(circles) == 7
        assert {frozenset(c.edges) for c in circles} == set(brute)

    def test_digons_from_parallel_pairs(self):
        g = new_signed_graph(
            "ab", [("e1", "a", "b", "+"), ("e2", "a", "b", "-"),
                   ("e3", "a", "b", "+")]
        )
        circles = enumerate_circles(g)
        assert [c.edges for c in circles if len(c) == 2] == [
            ("e1", "e2"), ("e1", "e3"), ("e2", "e3")
        ]

    def test_parallel_edges_multiply_circles(self):
        # triangle with one doubled side: 1 digon + 2 triangles
        g = new_signed_graph(
            "abc", [("e1", "a", "b", "+"), ("e1b", "a", "b", "+"),
                    ("e2", "b", "c", "+"), ("e3", "c", "a", "+")]
        )
        circles = enumerate_circles(g)
        assert len(circles) == 3
        assert {frozenset(c.edges) for c in circles} == set(circle_edge_sets(g))

    def test_matches_bruteforce_exhaustively(self):
        for g in exhaustive_signed_graphs(4, 4):
            assert {frozenset(c.edges) for c in enumerate_circles(g)} == set(
                circle_edge_sets(g)
            ), g

    def test_deterministic_order(self):
        g = complete_graph(5)
        assert enumerate_circles(g) == enumerate_circles(g)

    def test_works_on_marked_graphs(self):
        m = new_marked_graph(
            [("x", "+"), ("y", "-"), ("z", "+")],
            [("d1", "x", "y"), ("d2", "x", "y"), ("d3", "y", "z"),
             ("d4", "z", "x")],
        )
        circles = enumerate_circles(m)
        lengths = sorted(len(c) for c in circles)
        assert lengths == [2, 3, 3]  # the digon and one triangle per copy

    def test_every_circle_is_canonical_and_valid(self):
        from lineconsistency import validate_circle

        g = complete_graph(5)
        for c in enumerate_circles(g):
            validate_circle(g, c)
            assert c == c.canonical()

    def test_cap_overflow_raises(self):
        with pytest.raises(CircleLimitError):
            enumerate_circles(complete_graph(7), max_circles=100)

    @given(st.integers(0, 300), st.integers(1, 6), st.integers(0, 9))
    @settings(max_examples=60, deadline=None)
    def test_cycle_space_lower_bound(self, seed, n, m):
        g = random_signed_graph(n, min(m, n * (n - 1)), 0.5, seed)
        circles = enumerate_circles(g)
        components = len(g.traversal.components)
        betti = len(g.edges) - len(g.vertices) + components
        assert len(circles) >= betti
        assert (len(circles) == 0) == (betti == 0)


class TestBalance:
    def test_oracles_read_the_columns(self, built_edge_values):
        def k4(negative):  # K4 on a, b, c, d; the edges named by their ends
            return read_signed_graph(write_signed_graph(new_signed_graph("abcd", [
                (u + v, u, v, "-" if u + v in negative else "+")
                for u, v in itertools.combinations("abcd", 2)
            ])))

        cut, pair = k4({"ab", "ac", "ad"}), k4({"ab", "ac"})
        # balanced: every circle is enumerated and signed
        assert is_balanced_oracle(cut)
        # at a, the negative pair misses circle a-b-d: found by enumeration
        verdict = check_theorem1_simple(pair)
        assert (verdict.line_consistent, verdict.vertex) == (False, "a")
        assert built_edge_values == []

    def test_all_positive_balanced(self):
        assert is_balanced_oracle(complete_graph(4))
        assert is_balanced_fast(complete_graph(4))

    def test_single_negative_edge_is_balanced(self):
        g = new_signed_graph("ab", [("e1", "a", "b", "-")])
        assert is_balanced_fast(g) and is_balanced_oracle(g)

    def test_unbalanced_triangle(self):
        g = new_signed_graph(
            "abc", [("e1", "a", "b", "-"), ("e2", "b", "c", "+"),
                    ("e3", "c", "a", "+")]
        )
        assert not is_balanced_oracle(g)
        assert not is_balanced_fast(g)

    def test_even_negatives_balanced(self):
        c4 = new_signed_graph(
            "abcd", [("e1", "a", "b", "-"), ("e2", "b", "c", "-"),
                     ("e3", "c", "d", "+"), ("e4", "d", "a", "+")]
        )
        assert is_balanced_oracle(c4) and is_balanced_fast(c4)

    def test_fast_equals_oracle_exhaustively(self):
        for g in exhaustive_signed_graphs(4, 5):
            assert is_balanced_fast(g) == balanced_bruteforce(g), g

    @given(st.integers(0, 2000), st.integers(1, 6), st.integers(0, 10))
    @settings(max_examples=120, deadline=None)
    def test_fast_equals_oracle_random(self, seed, n, m):
        g = random_signed_graph(n, min(m, n * (n - 1)), 0.4, seed)
        assert is_balanced_fast(g) == is_balanced_oracle(g)

    def test_negative_circle_witness(self):
        for seed in range(200):
            g = random_signed_graph(6, 9, 0.5, seed)
            circle = find_negative_circle(g)
            if circle is None:
                assert is_balanced_oracle(g)
            else:
                assert g.sign_of_walk(circle) is Sign.NEGATIVE

    def test_positive_circle_from_the_search_raises(self, monkeypatch):
        # a raised error, not an assert, so the check survives python -O
        from lineconsistency._traversal import Traversal

        monkeypatch.setattr(Traversal, "negative_cycle",
                            lambda self: (("e1", "e2", "e3"), ("a", "b", "c")))
        triangle = new_signed_graph(
            "abc", [("e1", "a", "b", "+"), ("e2", "b", "c", "+"), ("e3", "c", "a", "+")]
        )
        with pytest.raises(GraphError, match="is not negative"):
            find_negative_circle(triangle)


class TestConsistencyOracle:
    def test_all_positive_marks(self):
        m = new_marked_graph(
            [("x", "+"), ("y", "+"), ("z", "+")],
            [("d1", "x", "y"), ("d2", "y", "z"), ("d3", "z", "x")],
        )
        assert is_consistent_oracle(m).consistent

    def test_all_negative_triangle(self):
        m = new_marked_graph(
            [("x", "-"), ("y", "-"), ("z", "-")],
            [("d1", "x", "y"), ("d2", "y", "z"), ("d3", "z", "x")],
        )
        consistent, witness = is_consistent_oracle(m)
        assert not consistent
        assert witness is not None
        assert circle_vertex_sign(m, witness) is Sign.NEGATIVE

    def test_two_negatives_triangle_consistent(self):
        m = new_marked_graph(
            [("x", "+"), ("y", "-"), ("z", "-")],
            [("d1", "x", "y"), ("d2", "y", "z"), ("d3", "z", "x")],
        )
        assert is_consistent_oracle(m).consistent

    def test_matches_bruteforce_on_line_graphs(self):
        from oracles import consistent_bruteforce

        for g in exhaustive_signed_graphs(3, 4):
            marked = line_graph(g)
            assert is_consistent_oracle(marked).consistent == (
                consistent_bruteforce(marked)
            ), g

    def test_dense_positive_graph_is_fast(self):
        # doubled K4, all positive: consistent without enumerating its
        # enormous line-graph cycle space
        vertices = "abcd"
        edges = []
        for i, (u, v) in enumerate(itertools.combinations(vertices, 2)):
            edges.append((f"e{2 * i}", u, v, "+"))
            edges.append((f"e{2 * i + 1}", u, v, "+"))
        g = new_signed_graph(vertices, edges)
        assert is_consistent_oracle(line_graph(g)).consistent

    def test_dense_graph_with_negative_pair_short_circuits(self):
        vertices = "abcd"
        edges = []
        for i, (u, v) in enumerate(itertools.combinations(vertices, 2)):
            sign = "-" if (u, v) == ("a", "b") else "+"
            edges.append((f"e{2 * i}", u, v, sign))
            edges.append((f"e{2 * i + 1}", u, v, sign))
        g = new_signed_graph(vertices, edges)
        consistent, witness = is_consistent_oracle(line_graph(g))
        assert not consistent
        assert circle_vertex_sign(line_graph(g), witness) is Sign.NEGATIVE


class TestCircleVertexSign:
    def test_digon_marks(self):
        m = new_marked_graph(
            [("x", "+"), ("y", "+")], [("d1", "x", "y"), ("d2", "x", "y")]
        )
        digon = Circle(("d1", "d2"), ("x", "y"))
        assert circle_vertex_sign(m, digon) is Sign.POSITIVE

    def test_even_and_odd_counts(self):
        marks4 = new_marked_graph(
            [(v, "-") for v in "wxyz"],
            [("d1", "w", "x"), ("d2", "x", "y"), ("d3", "y", "z"),
             ("d4", "z", "w")],
        )
        square = Circle(("d1", "d2", "d3", "d4"), ("w", "x", "y", "z"))
        assert circle_vertex_sign(marks4, square) is Sign.POSITIVE
        marks5 = new_marked_graph(
            [("a", "-"), ("b", "-"), ("c", "+"), ("d", "+"), ("e", "-")],
            [("d1", "a", "b"), ("d2", "b", "c"), ("d3", "c", "d"),
             ("d4", "d", "e"), ("d5", "e", "a")],
        )
        ring = Circle(("d1", "d2", "d3", "d4", "d5"), ("a", "b", "c", "d", "e"))
        assert circle_vertex_sign(marks5, ring) is Sign.NEGATIVE

    def test_rejects_foreign_circle(self):
        m = new_marked_graph(
            [("x", "+"), ("y", "+")], [("d1", "x", "y"), ("d2", "x", "y")]
        )
        with pytest.raises(GraphError):
            circle_vertex_sign(m, Circle(("d1", "zz"), ("x", "y")))
