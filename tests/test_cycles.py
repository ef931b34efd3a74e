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
    generate_line_consistent,
    is_balanced_fast,
    is_balanced_oracle,
    is_consistent_oracle,
    check_condition_ii,
    check_theorem1_simple,
    cycles,
    line_graph,
    new_marked_graph,
    new_signed_graph,
    random_recipe,
    random_signed_graph,
    read_signed_graph,
    write_signed_graph,
)
from lineconsistency.cycles import DEFAULT_CIRCLE_CAP
from oracles import (
    balanced_bruteforce,
    circle_edge_sets,
    circles_through_by_ids,
    differential_corpus,
    is_consistent_oracle_by_ids,
    random_marked_multigraph,
)


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
        from lineconsistency import analysis

        # the searched part is the unbalanced component, so the positive
        # triangle x-p-q shares x with the negative triangle x-y-z
        monkeypatch.setattr(analysis, "_odd_circle",
                            lambda *args: Circle(("g1", "g2", "g3"), ("x", "p", "q")))
        triangles = new_signed_graph(
            "pqxyz", [("f1", "x", "y", "-"), ("f2", "y", "z", "+"), ("f3", "z", "x", "+"),
                      ("g1", "x", "p", "+"), ("g2", "p", "q", "+"), ("g3", "q", "x", "+")]
        )
        with pytest.raises(GraphError, match="is not negative"):
            find_negative_circle(triangles)


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


def k_family(k, negative_path=2):
    """K_k on x0..x(k-1), all positive, with a negative path from u to v hung
    from it by the positive edges u - x0 and v - x1.  In its line graph every
    circle through a negative vertex passes through all the others."""
    edges = [(f"p{a}{b}", f"x{a}", f"x{b}", "+")
             for a, b in itertools.combinations(range(k), 2)]
    path = ["u"] + [f"w{i}" for i in range(1, negative_path)] + ["v"]
    edges += [(f"n{i}", a, b, "-") for i, (a, b) in enumerate(zip(path, path[1:]))]
    edges += [("hu", "u", "x0", "+"), ("hv", "v", "x1", "+")]
    return new_signed_graph([f"x{i}" for i in range(k)] + path, edges)


def guarded_marks(negatives):
    """K10 on c0..c9, all positive, and a path c1 - a - t - ... - u - c0
    whose vertices t, ..., u are the negative ones: every circle through a
    negative vertex passes through all the others."""
    clique = [f"c{i}" for i in range(10)]
    path = ["c1", "a", "t"] + [f"s{i}" for i in range(negatives - 2)] + ["u", "c0"]
    edges = [(f"k{a}{b}", f"c{a}", f"c{b}") for a, b in itertools.combinations(range(10), 2)]
    edges += [(f"q{i}", a, b) for i, (a, b) in enumerate(zip(path, path[1:]))]
    return new_marked_graph(
        [(v, "-" if v in path[2:-1] else "+") for v in clique + path[1:-1]], edges)


def _oracle_outcome(oracle, marked, cap):
    """The oracle's answer and witness, or its CircleLimitError message."""
    try:
        return oracle(marked, max_circles=cap)
    except CircleLimitError as exc:
        return str(exc)


def _circle_list(through, graph, targets, cap):
    """The circles a search yields, then its CircleLimitError message."""
    found = []
    try:
        for circle in through(graph, targets, cap):
            found.append(circle)
    except CircleLimitError as exc:
        found.append(str(exc))
    return found


def _marked_corpus(family):
    if family == "marked":
        return map(random_marked_multigraph, range(5_000))
    graphs = []
    for graph in differential_corpus(family):
        try:
            graphs.append(line_graph(graph))
        except GraphError:  # colliding line-graph edge ids
            pass
    return graphs


class TestSearchMatchesReference:
    """The search on integer incidence against the string-dict search it
    replaced, kept in ``oracles``: the same answers, witnesses, circle lists
    and CircleLimitError messages."""

    @pytest.mark.parametrize("family", ["crossval", "exhaustive", "collisions", "marked"])
    def test_oracle_answer_witness_or_limit(self, family):
        for marked in _marked_corpus(family):
            for cap in (1, 2, 5, 50, DEFAULT_CIRCLE_CAP):
                assert (_oracle_outcome(is_consistent_oracle, marked, cap)
                        == _oracle_outcome(is_consistent_oracle_by_ids, marked, cap)), marked

    @pytest.mark.parametrize("family", ["crossval", "exhaustive", "collisions", "marked"])
    def test_circle_lists(self, family):
        # the 6,256 exhaustive line graphs are left to the oracle test above:
        # here they would take 7 s more
        graphs = [] if family == "exhaustive" else list(_marked_corpus(family))
        if family == "marked":  # the oracle's search: through the negative vertices
            for graph in graphs:
                negative = tuple(itertools.compress(graph.vertex_ids, graph.marks))
                assert (_circle_list(cycles.circles_through, graph, negative, 50)
                        == _circle_list(circles_through_by_ids, graph, negative, 50)), graph
        else:
            graphs += differential_corpus(family)
        for graph in graphs:
            assert (_circle_list(cycles.circles_through, graph, None, 50)
                    == _circle_list(circles_through_by_ids, graph, None, 50)), graph
            if len(graph.edge_ids) <= 6:
                assert enumerate_circles(graph) == list(
                    circles_through_by_ids(graph, None, DEFAULT_CIRCLE_CAP))


class TestSearchWork:
    """Every search node below a root leads to a counted circle, at most
    n - 1 levels down, and there are fewer than 3n roots: one per negative
    vertex in the fast pass and one per target of each block.  So a search
    that stops at its c-th counted circle makes at most (n - 1) * c + 3n
    extension steps."""

    @staticmethod
    def budget(marked, circles):
        return (len(marked.vertex_ids) - 1) * circles + 3 * len(marked.vertex_ids)

    @pytest.fixture
    def extensions(self, monkeypatch):
        """The length of the path at each extension step."""
        calls = []
        extend = cycles._extensions

        def counted(adj, path, blocked):
            calls.append(len(path))
            return extend(adj, path, blocked)

        monkeypatch.setattr(cycles, "_extensions", counted)
        return calls

    @pytest.mark.parametrize("k", [5, 6, 7, 8])
    def test_k_family_reaches_the_cap_within_budget(self, k, extensions):
        graph = k_family(k)
        assert check_condition_ii(graph).line_consistent
        marked = line_graph(graph)
        with pytest.raises(CircleLimitError, match="more than 1000 circles"):
            is_consistent_oracle(marked, max_circles=1000)
        assert len(extensions) <= self.budget(marked, 1001)

    def test_odd_negative_path_gives_a_witness_within_budget(self, extensions):
        # every circle through a negative vertex holds all three
        marked = line_graph(k_family(8, negative_path=3))
        consistent, witness = is_consistent_oracle(marked, max_circles=1000)
        assert not consistent and circle_vertex_sign(marked, witness) is Sign.NEGATIVE
        assert len(extensions) <= self.budget(marked, 1)

    @pytest.mark.parametrize("negatives", [2, 3])
    def test_guarded_negative_vertices_within_budget(self, negatives, extensions):
        marked = guarded_marks(negatives)
        if negatives == 2:
            with pytest.raises(CircleLimitError, match="more than 1000 circles"):
                is_consistent_oracle(marked, max_circles=1000)
        else:
            consistent, witness = is_consistent_oracle(marked, max_circles=1000)
            assert not consistent and circle_vertex_sign(marked, witness) is Sign.NEGATIVE
        # the fast pass stops at each negative vertex's root, where no branch
        # can close a circle; the full search's root then descends
        assert extensions[:negatives + 2] == [1] * (negatives + 1) + [2]
        assert len(extensions) <= self.budget(marked, 1001 if negatives == 2 else 1)


class TestFastPassBlockedSet:
    @pytest.fixture
    def searches(self, monkeypatch):
        """[blocked set, whether the search ran to its end and left the set
        as given] for each vertex-cycle search, in call order."""
        calls = []
        search = cycles._vertex_cycles

        def recorded(adj, start, blocked):
            given, call = set(blocked), [blocked, False]
            calls.append(call)
            yield from search(adj, start, blocked)
            call[1] = blocked == given

        monkeypatch.setattr(cycles, "_vertex_cycles", recorded)
        return calls

    @pytest.mark.parametrize("graph", [
        k_family(4), k_family(5),
        *(generate_line_consistent(random_recipe(s), s) for s in (0, 3)),
    ])
    def test_one_set_for_every_search_of_the_fast_pass(self, graph, searches):
        marked = line_graph(graph)
        targets = set(itertools.compress(range(len(marked.marks)), marked.marks))
        assert is_consistent_oracle(marked).consistent
        # a consistent line graph: the fast pass searches from every target
        # on an edge, then the second pass searches, and each runs to its end
        fast = [blocked for blocked, _ in searches[:sum(bool(marked.incidence[i])
                                                         for i in targets)]]
        assert len(fast) >= 2 and all(blocked is fast[0] for blocked in fast)
        assert fast[0] == targets
        assert all(done for _, done in searches)


class TestOracleBuildsOnlyItsWitness:
    @pytest.fixture
    def built_circles(self, monkeypatch):
        built = []
        post_init = Circle.__post_init__

        def counted(self):
            post_init(self)
            built.append(self)

        monkeypatch.setattr(Circle, "__post_init__", counted)
        return built

    def test_no_circle_on_a_consistent_line_graph(self, built_circles):
        # 1,464 positive circles through the negative line vertices
        assert is_consistent_oracle(line_graph(k_family(4))) == (True, None)
        assert built_circles == []

    @pytest.mark.parametrize("graph", [
        k_family(4, negative_path=3),  # found by the full search
        new_signed_graph("abc", [("e1", "a", "b", "-"), ("e2", "b", "c", "+"),
                                 ("e3", "c", "a", "+")]),  # by the fast pass
    ])
    def test_one_circle_on_an_inconsistent_line_graph(self, graph, built_circles):
        consistent, witness = is_consistent_oracle(line_graph(graph))
        assert not consistent and built_circles == [witness]
