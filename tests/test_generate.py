import itertools
from collections import Counter

import pytest
from oracles import generate_line_consistent_by_edges, random_signed_graph_by_slots

from lineconsistency import (
    Circle,
    GraphError,
    Recipe,
    Sign,
    SignedEdge,
    SignedGraph,
    check_condition_ii,
    exhaustive_signed_graphs,
    generate_line_consistent,
    is_consistent_oracle,
    line_graph,
    random_recipe,
    random_signed_graph,
    write_signed_graph,
)


class TestExhaustive:
    def test_two_vertices_one_edge(self):
        graphs = list(exhaustive_signed_graphs(2, 1))
        # K1, the edgeless pair, and the single edge in both signings
        assert len(graphs) == 4
        with_edges = [g for g in graphs if g.edges]
        assert len(with_edges) == 2

    def test_single_vertex_only(self):
        graphs = list(exhaustive_signed_graphs(1, 5))
        assert len(graphs) == 1
        assert graphs[0].vertices == ("v0",)

    def test_three_three_census(self):
        graphs = list(exhaustive_signed_graphs(3, 3))
        # per-pair multiplicities in {0,1,2}, every signing:
        # n=1: 1; n=2: 7; n=3: 87
        assert len(graphs) == 95
        triangles = [
            g for g in graphs
            if len(g.vertices) == 3 and len(g.edges) == 3 and g.is_simple
            and all(g.degree(v) == 2 for v in g.vertices)
        ]
        assert len(triangles) == 8  # 2^3 signings

    def test_no_duplicates(self):
        seen = set()
        for g in exhaustive_signed_graphs(3, 3):
            key = write_signed_graph(g) + ";".join(g.vertices)
            assert key not in seen
            seen.add(key)

    def test_multiplicity_capped_at_two(self):
        for g in exhaustive_signed_graphs(3, 6):
            pair_counts = {}
            for e in g.edges:
                pair = frozenset((e.u, e.v))
                pair_counts[pair] = pair_counts.get(pair, 0) + 1
            assert all(c <= 2 for c in pair_counts.values())

    def test_bounds_enforced(self):
        with pytest.raises(GraphError, match="bounds"):
            list(exhaustive_signed_graphs(8, 3))

    def test_equals_a_stream_of_edge_values(self):
        """Every vertex count, multiplicity vector and signing, positive
        first, with edge e{j} on the j-th slot, as SignedEdge values."""
        reference = []
        for n in range(1, 4):
            vertices = tuple(f"v{i}" for i in range(n))
            pairs = list(itertools.combinations(vertices, 2))
            for counts in itertools.product(range(3), repeat=len(pairs)):
                if sum(counts) > 3:
                    continue
                slots = [p for p, c in zip(pairs, counts) for _ in range(c)]
                for signs in itertools.product((Sign.POSITIVE, Sign.NEGATIVE),
                                               repeat=len(slots)):
                    reference.append(SignedGraph(vertices, [
                        SignedEdge(f"e{j}", u, v, s)
                        for j, ((u, v), s) in enumerate(zip(slots, signs))]))
        graphs = list(exhaustive_signed_graphs(3, 3))
        assert graphs == reference
        assert [g.edges for g in graphs] == [g.edges for g in reference]

    def test_builds_no_edge_values(self, built_edge_values):
        assert sum(1 for _ in exhaustive_signed_graphs(4, 4)) > 1000
        assert built_edge_values == []


class TestRandom:
    def test_edgeless(self):
        g = random_signed_graph(5, 0, 0.5, 1)
        assert len(g.vertices) == 5 and g.edges == ()

    def test_all_positive_when_p_zero(self):
        g = random_signed_graph(4, 6, 0.0, 7)
        assert len(g.edges) == 6
        assert all(e.sign.is_positive for e in g.edges)
        # always balanced and totally positive, hence line consistent
        assert check_condition_ii(g).line_consistent

    def test_deterministic(self):
        a = random_signed_graph(6, 9, 0.4, 42)
        b = random_signed_graph(6, 9, 0.4, 42)
        assert a == b
        assert a != random_signed_graph(6, 9, 0.4, 43)

    def test_impossible_parameters(self):
        with pytest.raises(GraphError, match="impossible"):
            random_signed_graph(1, 3, 0.5, 0)
        with pytest.raises(GraphError, match="impossible"):
            random_signed_graph(3, 7, 0.5, 0)  # 2*C(3,2) = 6 < 7
        with pytest.raises(GraphError, match="impossible"):
            random_signed_graph(5, -1, 0.5, 1)
        with pytest.raises(GraphError, match="impossible"):
            random_signed_graph(0, -1, 0.5, 1)
        # counts that are not integers, a probability that is not a number
        for args in ((3, 2.5, 0.5, 1), (3.0, 2, 0.5, 1), (3, 2, "0.5", 1)):
            with pytest.raises(GraphError, match="impossible"):
                random_signed_graph(*args)

    def test_no_loops_and_capped_multiplicity(self):
        for seed in range(50):
            g = random_signed_graph(5, 10, 0.5, seed)
            pair_counts = {}
            for e in g.edges:
                assert e.u != e.v
                pair = frozenset((e.u, e.v))
                pair_counts[pair] = pair_counts.get(pair, 0) + 1
            assert all(c <= 2 for c in pair_counts.values())


class TestRandomSampler:
    """random_signed_graph draws slot indices instead of listing the slots;
    the slot-list sampler it replaced is the reference."""

    def test_equals_the_slot_list_sampler_up_to_seven_vertices(self):
        for n in range(8):
            for m in range(n * (n - 1) + 1):  # every feasible edge count
                for seed in (0, 1):
                    expected = random_signed_graph_by_slots(n, m, 0.5, seed)
                    graph = random_signed_graph(n, m, 0.5, seed)
                    assert graph == expected
                    assert graph.edges == expected.edges

    @pytest.mark.parametrize("n, m", [
        (50, 1), (50, 100), (50, 2_450), (300, 600), (300, 40_000), (2_000, 4_000),
    ])
    def test_equals_the_slot_list_sampler_on_larger_graphs(self, n, m):
        expected = random_signed_graph_by_slots(n, m, 0.3, n + m)
        graph = random_signed_graph(n, m, 0.3, n + m)
        assert graph.edges == expected.edges
        assert graph == expected

    def test_pairs_at_unranks_every_pair(self):
        # the tree-based unranking that random_signed_graph uses once the
        # pairs far outnumber the edges, checked against the listing
        from lineconsistency.generate import _pairs_at

        for n in range(13):
            vertices = tuple(f"v{i}" for i in range(n))
            listed = sorted(itertools.combinations(vertices, 2))
            ranks = sorted(list(range(len(listed))) * 2)
            assert _pairs_at(vertices, ranks) == [listed[r] for r in ranks]

    def test_samples_slot_indices(self, monkeypatch):
        import random

        sample = random.Random.sample
        populations = []

        def spied(self, population, k):
            populations.append(population)
            return sample(self, population, k)

        monkeypatch.setattr(random.Random, "sample", spied)
        graph = random_signed_graph(2_000, 20, 0.5, 9)
        assert populations == [range(2_000 * 1_999)]
        assert len(graph.edges) == 20
        assert max(Counter(frozenset((e.u, e.v)) for e in graph.edges).values()) <= 2


class TestRecipe:
    def test_negative_circle_recipe(self):
        g = generate_line_consistent(Recipe(negative_circles=(4,)), 0)
        assert len(g.edges) == 4
        assert all(e.sign.is_negative for e in g.edges)
        assert is_consistent_oracle(line_graph(g)).consistent

    def test_odd_closing_path_rejected(self):
        # a negative path of odd length closed by one positive edge would make
        # a negative circle: unbalanced, never line consistent
        with pytest.raises(GraphError, match="even"):
            Recipe(closing_paths=(3,))

    def test_closing_path_recipe(self):
        g = generate_line_consistent(Recipe(closing_paths=(2,)), 0)
        signs = sorted(e.sign.value for e in g.edges)
        assert signs == ["+", "-", "-"]
        assert is_consistent_oracle(line_graph(g)).consistent

    def test_isthmus_path_with_extensions(self):
        recipe = Recipe(isthmus_paths=(2,), pendant_positives=3)
        g = generate_line_consistent(recipe, 5)
        assert check_condition_ii(g).line_consistent
        assert max(g.degree(v) for v in g.vertices) <= 3

    def test_unsatisfiable_attachments(self):
        with pytest.raises(GraphError, match="unsatisfiable"):
            generate_line_consistent(
                Recipe(negative_circles=(2,), pendant_positives=5), 0
            )

    def test_deterministic(self):
        recipe = random_recipe(11)
        assert generate_line_consistent(recipe, 3) == generate_line_consistent(
            recipe, 3
        )

    def test_equals_the_edge_value_builder(self):
        recipes = [(random_recipe(seed), seed) for seed in range(200)]
        recipes.append((Recipe((2, 8), (2, 6), (4, 2), (1, 6), 9, 20), 7))
        for recipe, seed in recipes:
            g = generate_line_consistent(recipe, seed)
            reference = generate_line_consistent_by_edges(recipe, seed)
            assert g == reference and g.edges == reference.edges, seed

    def test_sampled_recipes_are_sound(self):
        for seed in range(150):
            g = generate_line_consistent(random_recipe(seed), seed)
            assert check_condition_ii(g).line_consistent, seed
            assert is_consistent_oracle(line_graph(g)).consistent, seed


@pytest.mark.parametrize("build, message", [
    (lambda: list(exhaustive_signed_graphs(2, -1)),
     "bounds exceeded: max_edges must be nonnegative"),
    (lambda: random_signed_graph(-1, 0, 0.5, 1), "impossible parameters: negative vertex count"),
    (lambda: random_signed_graph(3, 1, 1.5, 1), "negative_probability must be within [0, 1]"),
    (lambda: Recipe(isthmus_paths=(0,)),
     "unsatisfiable recipe: isthmus path length must be >= 1"),
    (lambda: Recipe(pendant_positives=-1), "unsatisfiable recipe: negative count"),
    (lambda: Circle(("a", "b"), ("x",)), "circle edge and vertex sequences differ in length"),
])
def test_invalid_parameters_are_named(build, message):
    with pytest.raises(GraphError) as raised:
        build()
    assert str(raised.value) == message
