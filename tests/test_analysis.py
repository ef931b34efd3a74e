import gc
import weakref

import pytest
from oracles import (
    assert_negative_circle_by_definition,
    assert_shortest_circle_through,
    check_condition_i_by_isthmi,
    check_condition_ii_by_search,
    check_condition_iii_by_isthmi,
    check_corollary_3_by_isthmi,
    classify_structure_by_values,
    clause_witness_from,
    differential_corpus,
    flipped_recipe,
    spliced_graph,
)

from lineconsistency import (
    GraphError,
    Sign,
    Verdict,
    analysis,
    blocks,
    check_condition_i,
    check_condition_ii,
    check_condition_iii,
    check_corollary_3,
    check_theorem1_simple,
    circle_vertex_sign,
    classify_structure,
    enumerate_circles,
    exhaustive_signed_graphs,
    find_isthmi,
    find_negative_circle,
    find_witness,
    is_balanced_fast,
    is_consistent_oracle,
    line_edge_id,
    line_graph,
    new_signed_graph,
    read_signed_graph,
    validate_circle,
)
from lineconsistency import _traversal
from lineconsistency.core import SignedGraph
from lineconsistency.linegraph import verify_witness

ALL_CHECKS = (check_condition_i, check_condition_ii, check_condition_iii)


def sg(vertices, *edges):
    return new_signed_graph(vertices, edges)


def path3():
    return sg("abcd", ("e1", "a", "b", "+"), ("e2", "b", "c", "-"),
              ("e3", "c", "d", "+"))


def circle4(signs="++++"):
    return sg("abcd", ("e1", "a", "b", signs[0]), ("e2", "b", "c", signs[1]),
              ("e3", "c", "d", signs[2]), ("e4", "d", "a", signs[3]))


def paw(triangle_signs="+++", pendant_sign="+"):
    """Triangle a-b-c plus pendant edge c-d."""
    return sg("abcd",
              ("e1", "a", "b", triangle_signs[0]),
              ("e2", "b", "c", triangle_signs[1]),
              ("e3", "c", "a", triangle_signs[2]),
              ("e4", "c", "d", pendant_sign))


def star(signs):
    return sg(["c"] + [f"l{i}" for i in range(1, len(signs) + 1)],
              *[(f"e{i}", "c", f"l{i}", s) for i, s in enumerate(signs, 1)])


def mixed_then_failing(mixed, failing, isthmus):
    """A degree-3 vertex ``mixed`` with negative edges n1, n2 and positive
    edge p, beside a star centre ``failing`` of degree 4 with a negative
    edge.  p is an isthmus, or lies on the balanced triangle p, q, n1, which
    misses n2."""
    edges = [("n1", mixed, "x1", "-"), ("n2", mixed, "x2", "-"), ("p", mixed, "c", "+"),
             ("f1", failing, "l1", "-"), ("f2", failing, "l2", "+"),
             ("f3", failing, "l3", "+"), ("f4", failing, "l4", "+")]
    if not isthmus:
        edges.append(("q", "c", "x1", "-"))
    return sg([mixed, failing, "c", "x1", "x2", "l1", "l2", "l3", "l4"], *edges)


def forbidden(*args, **kwargs):
    raise AssertionError("must not be called")


class TestIsthmi:
    def test_path_all_isthmi(self):
        assert find_isthmi(path3()) == {"e1", "e2", "e3"}

    def test_circle_none(self):
        assert find_isthmi(circle4()) == frozenset()

    def test_paw_pendant_only(self):
        assert find_isthmi(paw()) == {"e4"}

    def test_parallel_edges_are_not_isthmi(self):
        g = sg("ab", ("e1", "a", "b", "+"), ("e2", "a", "b", "-"))
        assert find_isthmi(g) == frozenset()

    def test_equals_edges_on_no_circle(self):
        for g in exhaustive_signed_graphs(4, 5):
            on_circle = set()
            for c in enumerate_circles(g):
                on_circle.update(c.edges)
            expected = {e.id for e in g.edges} - on_circle
            assert find_isthmi(g) == expected, g


class TestBlocks:
    def test_paw(self):
        result = blocks(paw())
        by_edges = {b.edges: b.nontrivial for b in result}
        assert by_edges == {
            frozenset(("e1", "e2", "e3")): True,
            frozenset(("e4",)): False,
        }

    def test_circle_single_nontrivial(self):
        [b] = blocks(circle4())
        assert b.nontrivial and b.edges == frozenset(("e1", "e2", "e3", "e4"))

    def test_path_three_trivial(self):
        result = blocks(path3())
        assert len(result) == 3
        assert all(not b.nontrivial and len(b.edges) == 1 for b in result)

    def test_isolated_vertex_is_trivial_block(self):
        g = sg("abc", ("e1", "a", "b", "+"))
        result = blocks(g)
        assert (frozenset("c"), frozenset(), False) in {
            (b.vertices, b.edges, b.nontrivial) for b in result
        }

    def test_digon_is_nontrivial(self):
        g = sg("ab", ("e1", "a", "b", "-"), ("e2", "a", "b", "-"))
        [b] = blocks(g)
        assert b.nontrivial

    def test_circles_live_in_single_blocks(self):
        for g in exhaustive_signed_graphs(4, 5):
            block_edge_sets = [b.edges for b in blocks(g)]
            for c in enumerate_circles(g):
                assert sum(
                    1 for edges in block_edge_sets if set(c.edges) <= edges
                ) == 1

    def test_trivial_blocks_are_isthmi_and_isolated_vertices(self):
        for g in exhaustive_signed_graphs(4, 4):
            isthmi = find_isthmi(g)
            for b in blocks(g):
                if b.nontrivial:
                    continue
                assert not b.edges or set(b.edges) <= isthmi


class TestConditionI:
    def test_star4_one_negative(self):
        g = sg(["c", "l1", "l2", "l3", "l4"],
               ("e1", "c", "l1", "-"), ("e2", "c", "l2", "+"),
               ("e3", "c", "l3", "+"), ("e4", "c", "l4", "+"))
        v = check_condition_i(g)
        assert not v.line_consistent
        assert v.failed_clause == "degree>3 not totally positive"
        assert v.vertex == "c"

    def test_star3_one_positive_isthmus(self):
        v = check_condition_i(star("+--"))
        assert v.line_consistent
        # cross-checked against the oracle: L is a triangle marked (+,-,-)
        assert is_consistent_oracle(line_graph(star("+--"))).consistent

    def test_pendant_positive_edge_on_circle(self):
        # balanced C4 (vu-, uy-, yx+, xv+) plus negative pendant vw
        g = sg("vuyxw",
               ("vu", "v", "u", "-"), ("uy", "u", "y", "-"),
               ("yx", "y", "x", "+"), ("xv", "x", "v", "+"),
               ("vw", "v", "w", "-"))
        v = check_condition_i(g)
        assert not v.line_consistent
        assert v.failed_clause == "degree-3 positive edge not an isthmus"
        assert v.vertex == "v" and v.edge == "xv"
        # the oracle finds the length-5 negative circle through all five edges
        result = is_consistent_oracle(line_graph(g))
        assert not result.consistent
        witness = find_witness(g, v)
        assert len(witness) == 5
        assert set(witness.vertices) == {"vu", "vw", "xv", "yx", "uy"}

    def test_a_not_isthmus_edge_before_a_local_failure_is_named_first(self):
        # the degree-3 vertex a comes first in vertex order
        v = check_condition_i(mixed_then_failing("a", "b", isthmus=False))
        assert v == Verdict(False, "degree-3 positive edge not an isthmus",
                            vertex="a", edge="p")
        # the failing vertex a comes first
        v = check_condition_i(mixed_then_failing("b", "a", isthmus=False))
        assert v == Verdict(False, "degree>3 not totally positive", vertex="a")

    def test_an_isthmus_before_a_local_failure_passes_to_it(self):
        v = check_condition_i(mixed_then_failing("a", "b", isthmus=True))
        assert v == Verdict(False, "degree>3 not totally positive", vertex="b")
        v = check_condition_i(mixed_then_failing("b", "a", isthmus=True))
        assert v == Verdict(False, "degree>3 not totally positive", vertex="a")


class TestConditionII:
    def test_all_negative_star(self):
        v = check_condition_ii(star("---"))
        assert not v.line_consistent
        assert v.failed_clause == "negative-subgraph degree exceeds 2"

    def test_all_negative_c4(self):
        g = circle4("----")
        assert check_condition_ii(g).line_consistent
        assert is_consistent_oracle(line_graph(g)).consistent

    def test_paw_negative_pendant(self):
        g = paw("+++", "-")
        v = check_condition_ii(g)
        assert not v.line_consistent
        assert v.failed_clause == "negative-edge endpoint with two positive edges"
        assert v.vertex == "c"
        witness = find_witness(g, v)
        assert len(witness) == 3  # the vertex triangle at the cutpoint
        marked = line_graph(g)
        assert circle_vertex_sign(marked, witness) is Sign.NEGATIVE

    def test_bridge_pass_only_when_a_positive_edge_needs_it(self, monkeypatch):
        monkeypatch.setattr(analysis, "find_isthmi", forbidden)
        assert not check_condition_ii(star("----")).line_consistent
        assert not check_condition_ii(paw("+++", "-")).line_consistent
        assert check_condition_ii(circle4("----")).line_consistent

    def test_local_clause_failure_runs_no_traversal(self, monkeypatch):
        monkeypatch.setattr(_traversal, "Traversal", forbidden)
        for g in (star("----"), paw("+++", "-")):
            v = check_condition_ii(g)
            assert not v.line_consistent
            assert len(find_witness(g, v)) == 3

    def test_working_memory_is_under_40_bytes_a_vertex(self, large_document, traced_peak):
        # the union-find keeps its tree sizes in the roots' parent slots and
        # the degree pass its edge numbers in an array: no int object is kept
        # per vertex or per positive edge
        graph = read_signed_graph(large_document)
        verdicts = []
        peak = traced_peak(lambda: verdicts.append(check_condition_ii(graph)))
        assert verdicts == [Verdict(True)]
        assert peak <= 40 * len(graph.vertex_ids)


class TestConditionIII:
    def test_star3_after_deletion(self):
        assert check_condition_iii(star("+--")).line_consistent

    def test_all_positive_triangle(self):
        g = sg("abc", ("e1", "a", "b", "+"), ("e2", "b", "c", "+"),
               ("e3", "c", "a", "+"))
        assert check_condition_iii(g).line_consistent

    def test_unbalanced_triangle(self):
        g = sg("abc", ("e1", "a", "b", "-"), ("e2", "b", "c", "+"),
               ("e3", "c", "a", "+"))
        v = check_condition_iii(g)
        assert not v.line_consistent
        assert v.failed_clause == "unbalanced after deleting positive isthmi"

    def test_builds_no_second_graph(self, monkeypatch):
        from lineconsistency.core import SignedGraph

        graphs = [paw("+++", "+"), star("+--"), circle4("--++"), circle4("-+++"),
                  sg("abcdef", ("e1", "a", "b", "-"), ("e2", "b", "c", "-"),
                     ("e3", "c", "d", "+"), ("e4", "d", "e", "-"),
                     ("e5", "e", "f", "+"), ("e6", "c", "a", "+"))]
        built = []
        monkeypatch.setattr(SignedGraph, "__post_init__",
                            lambda self, *args: built.append(args))
        verdicts = [check_condition_iii(g).line_consistent for g in graphs]
        assert verdicts == [True, True, True, False, False]
        assert built == []

    def test_degrees_drop_by_the_positive_isthmi(self):
        # e has degree 3 but keeps 2 once the positive isthmus e2 is gone, so
        # the first failing endpoint is c, on the later negative edge e4
        g = sg("bcdef", ("e1", "d", "e", "-"), ("e2", "e", "f", "+"),
               ("e3", "c", "d", "+"), ("e4", "c", "e", "-"), ("e5", "b", "c", "-"))
        v = check_condition_iii(g)
        assert (v.failed_clause, v.vertex) == (
            "negative-edge endpoint degree exceeds 2 after deleting positive isthmi",
            "c",
        )

    def test_counts_the_degrees_once(self, monkeypatch):
        # the local clause and the degrees after deleting isthmi share one count
        calls = []
        monkeypatch.setattr(analysis, "_degrees",
                            lambda graph, counted=analysis._degrees:
                            calls.append(graph) or counted(graph))
        for g in (star("+--"), paw("+++", "+"), circle4("--++"), circle4("-+++")):
            calls.clear()
            check_condition_iii(g)
            assert len(calls) == 1, g


def hung_squares(count):
    """``count`` negative squares, each hung by a positive isthmus at its
    vertex vi from hi on a positive path h0 - h1 - ...: vi is a degree-3
    vertex whose two negative edges lie on its one circle."""
    vertices, edges = [], []
    for i in range(count):
        h, v, a, b, c = (f"{x}{i}" for x in "hvabc")
        vertices += [h, v, a, b, c]
        edges += [(f"i{i}", h, v, "+"), (f"n{i}1", v, a, "-"),
                  (f"n{i}2", a, b, "-"), (f"n{i}3", b, c, "-"),
                  (f"n{i}4", c, v, "-")]
        if i:
            edges.append((f"p{i}", f"h{i - 1}", h, "+"))
    return new_signed_graph(vertices, edges)


class TestTheorem1:
    def test_star3_vacuous(self):
        assert check_theorem1_simple(star("+--")).line_consistent

    def test_paw_negative_pendant(self):
        assert not check_theorem1_simple(paw("+++", "-")).line_consistent

    def test_all_positive_k4(self):
        import itertools

        edges = [(f"e{i}", u, v, "+") for i, (u, v) in
                 enumerate(itertools.combinations("abcd", 2))]
        assert check_theorem1_simple(sg("abcd", *edges)).line_consistent

    def test_rejects_multigraphs(self):
        g = sg("ab", ("e1", "a", "b", "+"), ("e2", "a", "b", "+"))
        with pytest.raises(GraphError, match="simple"):
            check_theorem1_simple(g)

    def test_enumerates_circles_only_at_a_two_negative_degree_3_vertex(
            self, monkeypatch):
        monkeypatch.setattr(analysis, "circles_through", forbidden)
        assert not check_theorem1_simple(star("-+++")).line_consistent
        assert not check_theorem1_simple(paw("+++", "-")).line_consistent
        assert check_theorem1_simple(circle4("----")).line_consistent
        # the patched name is the one the criterion enumerates through
        with pytest.raises(AssertionError, match="must not be called"):
            check_theorem1_simple(star("+--"))

    def test_a_pair_off_a_circle_before_a_local_failure_is_named_first(self):
        clause = "degree-3 negative pair not on all circles through the vertex"
        v = check_theorem1_simple(mixed_then_failing("a", "b", isthmus=False))
        assert v == Verdict(False, clause, vertex="a")
        v = check_theorem1_simple(mixed_then_failing("b", "a", isthmus=False))
        assert v == Verdict(False, "degree>3 not totally positive", vertex="a")

    def test_a_pair_on_every_circle_before_a_local_failure_passes_to_it(self):
        v = check_theorem1_simple(mixed_then_failing("a", "b", isthmus=True))
        assert v == Verdict(False, "degree>3 not totally positive", vertex="b")
        v = check_theorem1_simple(mixed_then_failing("b", "a", isthmus=True))
        assert v == Verdict(False, "degree>3 not totally positive", vertex="a")

    def test_counts_only_circles_through_the_vertex_against_the_cap(self):
        # K11 has 5,488,059 circles, more than the default cap of 10^6; the
        # one two-negative degree-3 vertex v lies on one circle, a negative
        # square hung from the clique by a positive isthmus
        import itertools

        clique = [f"k{i:02d}" for i in range(11)]
        edges = [(f"p{u}{w}", u, w, "+") for u, w in itertools.combinations(clique, 2)]
        edges += [("isthmus", "v", "k00", "+"), ("n1", "v", "a", "-"),
                  ("n2", "a", "b", "-"), ("n3", "b", "c", "-"), ("n4", "c", "v", "-")]
        graph = new_signed_graph(clique + ["v", "a", "b", "c"], edges)
        assert check_theorem1_simple(graph) == Verdict(True)

    def test_searches_only_the_blocks_through_each_tested_vertex(self, monkeypatch):
        from lineconsistency import cycles

        searched = []
        adjacency = cycles._adjacency

        def counted(graph, edges):
            searched.append(edges)
            return adjacency(graph, edges)

        monkeypatch.setattr(cycles, "_adjacency", counted)
        assert check_theorem1_simple(hung_squares(20)).line_consistent
        assert len(searched) == 20  # one square per tested vertex, not 20 each

    def test_groups_the_block_labels_once_for_all_tested_vertices(self):
        class CountedList(list):
            iterations = 0

            def __iter__(self):
                CountedList.iterations += 1
                return super().__iter__()

        graph = hung_squares(20)
        label, sizes = graph.traversal.block_labels
        graph.traversal.__dict__["block_labels"] = (CountedList(label), sizes)
        assert check_theorem1_simple(graph).line_consistent
        # one grouping pass over the edges' block labels, not one per square
        assert CountedList.iterations == 1

    def test_agrees_with_condition_ii_on_simple_graphs(self):
        for g in exhaustive_signed_graphs(4, 5):
            if not g.is_simple:
                continue
            assert (check_theorem1_simple(g).line_consistent
                    == check_condition_ii(g).line_consistent), g


def shared_positive_edge(on_circle):
    """Degree-3 vertices u < v, each with two negative edges, joined by the
    positive edge k, which the positive edge ac puts on a circle with one
    negative edge at each of them, or which is an isthmus."""
    edges = [("k", "u", "v", "+"), ("n1", "u", "a", "-"), ("n2", "u", "b", "-"),
             ("n3", "v", "c", "-"), ("n4", "v", "d", "-")]
    if on_circle:
        edges.append(("ac", "a", "c", "+"))
    return sg("abcduv", *edges)


class TestLocalPass:
    """One pass decides the local clause of conditions i, ii and iii and the
    simple-graph criterion; each route names the failed clause itself."""

    def test_the_lesser_vertex_on_a_shared_positive_edge_is_named(self):
        graph = shared_positive_edge(on_circle=True)
        assert check_condition_i(graph) == Verdict(
            False, "degree-3 positive edge not an isthmus", vertex="u", edge="k")
        assert check_condition_ii(graph) == Verdict(
            False, analysis.POSITIVE_EDGE_NOT_ISTHMUS, vertex="u", edge="k")
        assert check_theorem1_simple(graph) == Verdict(
            False, "degree-3 negative pair not on all circles through the vertex",
            vertex="u")
        assert not check_condition_iii(graph).line_consistent
        assert not is_consistent_oracle(line_graph(graph)).consistent

    def test_a_shared_isthmus_is_enumerated_at_one_vertex(self, monkeypatch):
        calls = []
        monkeypatch.setattr(analysis, "circles_through",
                            lambda graph, *args, found=analysis.circles_through:
                            calls.append(args) or found(graph, *args))
        graph = shared_positive_edge(on_circle=False)
        assert check_theorem1_simple(graph) == Verdict(True)
        assert [vertices for vertices, _ in calls] == [("u",)]
        assert all(check(graph) == Verdict(True) for check in ALL_CHECKS)

    @pytest.mark.parametrize("graph, clauses", [
        # degree 3, three negative edges
        (star("---"), ("degree-3 vertex signs invalid", analysis.NEGATIVE_DEGREE_ABOVE_2,
                       "degree-3 vertex without exactly two negative edges")),
        # degree 3, one negative edge
        (star("-++"), ("degree-3 vertex signs invalid", analysis.TWO_POSITIVE_EDGES,
                       "degree-3 vertex without exactly two negative edges")),
        # degree 4, three negative edges
        (star("---+"), ("degree>3 not totally positive", analysis.NEGATIVE_DEGREE_ABOVE_2,
                        "degree>3 not totally positive")),
        # degree 4, two negative edges
        (star("--++"), ("degree>3 not totally positive", analysis.TWO_POSITIVE_EDGES,
                        "degree>3 not totally positive")),
    ], ids=["3-negative", "1-negative", "degree-4-3-negative", "degree-4-2-negative"])
    def test_each_route_names_the_failed_vertex_in_its_own_words(self, graph, clauses):
        routes = (check_condition_i, check_condition_ii, check_theorem1_simple)
        assert [route(graph) for route in routes] == [
            Verdict(False, clause, vertex="c") for clause in clauses]
        assert check_condition_iii(graph) == check_condition_i(graph)


class TestCorollary3:
    def test_k4_all_positive(self):
        import itertools

        edges = [(f"e{i}", u, v, "+") for i, (u, v) in
                 enumerate(itertools.combinations("abcd", 2))]
        assert check_corollary_3(sg("abcd", *edges)) is True

    def test_k4_one_negative(self):
        import itertools

        pairs = list(itertools.combinations("abcd", 2))
        edges = [(f"e{i}", u, v, "-" if i == 0 else "+")
                 for i, (u, v) in enumerate(pairs)]
        assert check_corollary_3(sg("abcd", *edges)) is False

    def test_divalent_vertices_not_applicable(self):
        assert check_corollary_3(circle4()) is None

    def test_small_or_bridged_not_applicable(self):
        assert check_corollary_3(path3()) is None
        assert check_corollary_3(
            sg("abc", ("e1", "a", "b", "+"), ("e2", "b", "c", "+"),
               ("e3", "c", "a", "+"))
        ) is None

    def test_agrees_with_condition_ii_when_applicable(self):
        for g in exhaustive_signed_graphs(4, 6):
            value = check_corollary_3(g)
            if value is not None:
                assert value == check_condition_ii(g).line_consistent, g


class TestClassifyStructure:
    def test_all_negative_c4(self):
        report = classify_structure(circle4("----"))
        assert report.line_consistent
        [comp] = report.components
        assert comp.kind == "circle" and comp.is_block and comp.ok

    def test_star3_isthmus_path(self):
        report = classify_structure(star("+--"))
        assert report.line_consistent
        paths = [c for c in report.components if c.kind == "nontrivial-path"]
        assert len(paths) == 1
        [comp] = paths
        assert comp.case == "b"
        assert comp.path_form == "induced"
        assert comp.endpoint_extras_positive_isthmi

    def test_three_quarter_negative_c4_is_unbalanced(self):
        # All but one edge of a circle block may be negative only when the
        # negative count is even; with three negatives the circle itself is
        # negative, so this graph is unbalanced and NOT line consistent.
        g = circle4("---+")
        report = classify_structure(g)
        assert not report.balanced
        assert not report.line_consistent
        assert not is_consistent_oracle(line_graph(g)).consistent
        # the structural clauses themselves hold; balance is what fails
        [comp] = report.components
        assert comp.kind == "nontrivial-path"
        assert comp.path_form == "closes-circle-block"
        assert comp.case == "a"
        assert comp.ok

    def test_half_negative_c4_closing_block(self):
        g = circle4("--++")
        report = classify_structure(g)
        assert report.line_consistent
        [comp] = [c for c in report.components if c.kind == "nontrivial-path"]
        assert comp.path_form == "induced"
        assert comp.case == "a"
        assert comp.endpoints_divalent

    def test_c3_closing_positive_edge(self):
        g = sg("abc", ("e1", "a", "b", "-"), ("e2", "b", "c", "-"),
               ("e3", "c", "a", "+"))
        report = classify_structure(g)
        assert report.line_consistent
        [comp] = report.components
        assert comp.path_form == "closes-circle-block"

    def test_vertices_partition(self):
        for g in exhaustive_signed_graphs(4, 4):
            report = classify_structure(g)
            seen = [v for comp in report.components for v in comp.vertices]
            assert sorted(seen) == list(g.vertices)

    def test_kinds_match_degree_profiles(self):
        for g in exhaustive_signed_graphs(4, 5):
            neg = g.negative_subgraph()
            for comp in classify_structure(g).components:
                degrees = sorted(neg.degree(v) for v in comp.vertices)
                if comp.kind == "single-vertex":
                    assert degrees == [0]
                elif comp.kind == "circle":
                    assert all(d == 2 for d in degrees)
                elif comp.kind == "nontrivial-path":
                    assert degrees[:2] == [1, 1] and all(
                        d == 2 for d in degrees[2:]
                    )

    def test_derived_facts_hold_when_consistent(self):
        for g in exhaustive_signed_graphs(4, 5):
            report = classify_structure(g)
            if not report.line_consistent:
                continue
            for comp in report.components:
                if comp.case == "a":
                    assert comp.endpoints_divalent
                if comp.case == "b":
                    assert comp.endpoint_extras_positive_isthmi


class TestAgreement:
    def test_all_methods_match_oracle(self):
        for g in exhaustive_signed_graphs(4, 4):
            expected = is_consistent_oracle(line_graph(g)).consistent
            for check in ALL_CHECKS:
                assert check(g).line_consistent == expected, (g, check.__name__)
            assert classify_structure(g).line_consistent == expected, g

    def test_disconnected_inputs_conjoin(self):
        # consistent component + inconsistent component -> inconsistent
        g = sg("abcxyz",
               ("e1", "a", "b", "-"), ("e2", "b", "c", "-"),
               ("f1", "x", "y", "-"), ("f2", "y", "z", "-"),
               ("f3", "z", "x", "-"))
        expected = is_consistent_oracle(line_graph(g)).consistent
        assert expected is False
        for check in ALL_CHECKS:
            assert check(g).line_consistent is False


class TestFindWitness:
    def test_all_negative_star_gives_vertex_triangle(self):
        g = star("---")
        witness = find_witness(g, check_condition_ii(g))
        assert len(witness) == 3
        assert set(witness.vertices) == {"e1", "e2", "e3"}

    def test_three_negative_edges_give_a_vertex_triangle(self):
        g = star("-+--")
        verdict = check_condition_ii(g)
        assert verdict.failed_clause == "negative-subgraph degree exceeds 2"
        witness = find_witness(g, verdict)
        assert set(witness.vertices) == {"e1", "e3", "e4"}
        assert all(e.endswith("@c") for e in witness.edges)

    def test_two_positive_edges_give_a_vertex_triangle(self):
        g = star("+-+")
        verdict = check_condition_ii(g)
        assert verdict.failed_clause == (
            "negative-edge endpoint with two positive edges"
        )
        witness = find_witness(g, verdict)
        assert set(witness.vertices) == {"e1", "e2", "e3"}
        assert all(e.endswith("@c") for e in witness.edges)

    def test_positive_circle_through_the_edge_gets_interposed(self):
        # balanced C4 (vu-, uy-, yx+, xv+) plus negative pendant vw
        g = sg("vuyxw",
               ("vu", "v", "u", "-"), ("uy", "u", "y", "-"),
               ("yx", "y", "x", "+"), ("xv", "x", "v", "+"),
               ("vw", "v", "w", "-"))
        verdict = check_condition_ii(g)
        assert verdict.failed_clause == (
            "negative-degree-2 positive edge not an isthmus"
        )
        assert (verdict.vertex, verdict.edge) == ("v", "xv")
        witness = find_witness(g, verdict)
        # the image of the circle, with vw interposed between vu and xv at v
        assert set(witness.vertices) == {"uy", "vu", "vw", "xv", "yx"}
        assert set(witness.edges) == {
            line_edge_id("uy", "vu", "u"), line_edge_id("vu", "vw", "v"),
            line_edge_id("vw", "xv", "v"), line_edge_id("xv", "yx", "x"),
            line_edge_id("yx", "uy", "y"),
        }

    def test_negative_circle_through_the_edge_gives_its_image(self):
        g = sg("avwx", ("va", "v", "a", "-"), ("ax", "a", "x", "+"),
               ("vx", "v", "x", "+"), ("vw", "v", "w", "-"))
        verdict = check_condition_ii(g)
        assert verdict.failed_clause == (
            "negative-degree-2 positive edge not an isthmus"
        )
        assert (verdict.vertex, verdict.edge) == ("v", "vx")
        witness = find_witness(g, verdict)
        assert set(witness.vertices) == {"ax", "va", "vx"}
        assert set(witness.edges) == {
            line_edge_id("ax", "va", "a"), line_edge_id("va", "vx", "v"),
            line_edge_id("vx", "ax", "x"),
        }

    def test_unbalanced_gives_the_image_of_a_negative_circle(self):
        g = sg("abc", ("e1", "a", "b", "-"), ("e2", "b", "c", "+"),
               ("e3", "c", "a", "+"))
        verdict = check_condition_ii(g)
        assert verdict.failed_clause == "unbalanced"
        witness = find_witness(g, verdict)
        assert set(witness.vertices) == {"e1", "e2", "e3"}
        assert {e.rsplit("@", 1)[1] for e in witness.edges} == {"a", "b", "c"}

    def test_large_negative_star_gives_a_triangle_at_the_centre(self):
        g = star("-" * 2000)
        witness = find_witness(g, check_condition_ii(g))
        assert len(witness) == 3
        assert all(e.endswith("@c") for e in witness.edges)

    def test_every_method_without_the_line_graph(self, monkeypatch):
        cases = []
        for g in exhaustive_signed_graphs(4, 4):
            marked = line_graph(g)
            if is_consistent_oracle(marked).consistent:
                continue
            verdicts = [check(g) for check in ALL_CHECKS]
            verdicts.append(classify_structure(g).as_verdict())
            verdicts.append(Verdict(False, "negative circle in the line graph"))
            if g.is_simple:
                verdicts.append(check_theorem1_simple(g))
            cases.append((g, marked, verdicts))
        assert cases
        monkeypatch.setattr(analysis, "line_graph", forbidden)
        monkeypatch.setattr(analysis, "is_consistent_oracle", forbidden)
        for g, marked, verdicts in cases:
            for verdict in verdicts:
                witness = find_witness(g, verdict)
                validate_circle(marked, witness)
                assert circle_vertex_sign(marked, witness) is Sign.NEGATIVE, g

    def test_no_circle_runs_through_an_isthmus(self):
        # e2 of the path is an isthmus, so no circle closes through it; the
        # circle through e5 of the square hung on that path is the square
        g = sg("abcdef", ("e1", "a", "b", "+"), ("e2", "b", "c", "-"),
               ("e3", "c", "d", "+"), ("e4", "d", "e", "+"), ("e5", "e", "f", "+"),
               ("e6", "f", "c", "+"))
        assert analysis._circle_through_edge(g, g._edge_number("e2")) is None
        circle = analysis._circle_through_edge(g, g._edge_number("e5"))
        assert set(circle.edges) == {"e3", "e4", "e5", "e6"}
        validate_circle(g, circle)

    def test_raises_on_consistent_graph(self):
        g = circle4("----")
        with pytest.raises(GraphError, match="consistent"):
            find_witness(g, check_condition_ii(g))

    def test_refuses_another_methods_wrong_verdict(self):
        # a negative verdict of another method is re-derived with condition
        # ii, which cannot agree with it on a line-consistent graph
        g = circle4("----")
        fabricated = Verdict(False, "negative circle in the line graph")
        with pytest.raises(GraphError, match="^condition ii finds the graph line consistent$"):
            find_witness(g, fabricated)

    def test_witnesses_verify_exhaustively(self):
        for g in exhaustive_signed_graphs(4, 4):
            marked = line_graph(g)
            verdict = check_condition_ii(g)
            if verdict.line_consistent:
                continue
            witness = find_witness(g, verdict)
            validate_circle(marked, witness)
            assert circle_vertex_sign(marked, witness) is Sign.NEGATIVE, g

    def test_deterministic(self):
        from lineconsistency import random_signed_graph

        for seed in range(80):
            g = random_signed_graph(6, 9, 0.5, seed)
            verdict = check_condition_ii(g)
            if verdict.line_consistent:
                continue
            assert find_witness(g, verdict) == find_witness(g, verdict)


class TestVerdict:
    def test_negative_needs_clause(self):
        from lineconsistency import Verdict

        with pytest.raises(GraphError):
            Verdict(False)

    def test_a_report_without_a_reason_has_no_verdict(self):
        from lineconsistency import StructureReport

        with pytest.raises(GraphError, match="^inconsistent structure report$"):
            StructureReport(True, (), False).as_verdict()


def test_degenerate_inputs():
    empty = sg("")
    assert all(check(empty).line_consistent for check in ALL_CHECKS)
    edgeless = sg("abc")
    assert all(check(edgeless).line_consistent for check in ALL_CHECKS)
    assert classify_structure(edgeless).line_consistent
    # an all-negative degree-3 forest is still inconsistent
    forest = star("---")
    assert not any(check(forest).line_consistent for check in ALL_CHECKS)


@pytest.mark.parametrize("family", [
    "exhaustive", "random", "recipes", "crossval", "collisions", "circles", "tested-edges",
    "negative-paths", "flipped"])
def test_classifier_matches_the_edge_value_classifier(family):
    """The classifier reads the columns and the traversal's block labels;
    the one it replaced, which read edge values, is kept in ``oracles``, with
    isthmi, blocks and balance read from networkx on a subdivided graph."""
    for graph in differential_corpus(family):
        assert classify_structure(graph) == classify_structure_by_values(graph)


@pytest.mark.parametrize("family", [
    "exhaustive", "random", "recipes", "crossval", "collisions", "circles", "tested-edges",
    "negative-paths", "flipped"])
def test_condition_ii_matches_the_search(family, monkeypatch):
    """Condition ii read from the parity union-find gives the verdicts and
    named vertices and edges that the whole graph's depth-first search gave;
    that reference is kept in ``oracles``.  The negative circle and the
    circle through a positive edge that is not an isthmus meet their
    definitions, checked with networkx, and the witnesses are the paper's
    constructions on them.  Condition ii itself builds no search and no
    incidence list."""
    searches = []
    monkeypatch.setattr(_traversal, "incidence",
                        lambda *args, built=_traversal.incidence:
                        searches.append("incidence") or built(*args))
    monkeypatch.setattr(_traversal, "Traversal",
                        lambda graph, built=_traversal.Traversal:
                        searches.append("Traversal") or built(graph))
    for graph in differential_corpus(family):
        searches.clear()
        verdict = check_condition_ii(graph)
        assert searches == [], graph
        expected = check_condition_ii_by_search(graph)
        assert verdict == expected, graph
        circle = find_negative_circle(graph)
        assert_negative_circle_by_definition(graph, circle)
        if verdict.failed_clause == analysis.POSITIVE_EDGE_NOT_ISTHMUS:
            circle = analysis._circle_through_edge(graph, graph._edge_number(verdict.edge))
            assert_shortest_circle_through(graph, verdict.edge, circle)
        if not verdict.line_consistent:
            assert find_witness(graph, verdict) == clause_witness_from(graph, expected, circle)


@pytest.mark.parametrize("family", ["random", "circles", "negative-paths", "flipped"])
def test_kept_forest_changes_no_circle_and_no_verdict(family):
    """Condition ii seeds the graph's cached forest with its own union-find,
    merged in its own order, which ``find_negative_circle`` then reads.  On
    a fresh graph, the circle found before condition ii ran is the one found
    after, and a circle found first never changes condition ii's verdict."""
    kept = 0
    for graph in differential_corpus(family):
        first, second = (SignedGraph(graph.vertices, graph.edges) for _ in range(2))
        circle = find_negative_circle(first)
        cached = first.__dict__["forest"]  # the search built the graph's forest
        assert check_condition_ii(first) == check_condition_ii(second), graph
        if first.forest is not cached:  # condition ii seeded its own
            kept += circle is not None
        assert find_negative_circle(first) == circle == find_negative_circle(second), graph
    assert kept > 0


def test_the_routes_build_one_forest_per_graph(monkeypatch):
    """On a fresh unbalanced graph, balance, the negative circle, conditions
    i and iii and the classifier all read the graph's cached union-find:
    exactly one ``Forest`` is built between them, at every binding."""
    built = []

    def counted(graph, *args, cls=_traversal.Forest):
        built.append(graph)
        return cls(graph, *args)

    monkeypatch.setattr(_traversal, "Forest", counted)
    monkeypatch.setattr(analysis, "Forest", counted)
    unbalanced = 0
    for graph in [*differential_corpus("flipped"), *differential_corpus("circles")]:
        graph = SignedGraph(graph.vertices, graph.edges)  # nothing cached
        built.clear()
        if is_balanced_fast(graph):
            continue
        assert find_negative_circle(graph) is not None, graph
        verdicts = [check_condition_i(graph), check_condition_iii(graph),
                    classify_structure(graph).as_verdict()]
        assert not any(v.line_consistent for v in verdicts), graph
        assert len(built) == 1 and built[0] is graph, graph
        unbalanced += 1
    assert unbalanced > 100


def test_negative_circle_is_short_on_a_large_spliced_graph():
    """About 2 * 10^4 positive edges with one of them spliced into a path
    through one negative edge: the negative circle keeps within twice the
    least vertex's eccentricity plus one, where the depth-first search's
    fundamental circle ran through thousands of edges, and the witness is a
    negative circle of the line graph."""
    graph = spliced_graph(20000, 3)
    assert_negative_circle_by_definition(graph, find_negative_circle(graph))
    verdict = check_condition_ii(graph)
    assert verdict.failed_clause == analysis.UNBALANCED
    verify_witness(graph, find_witness(graph, verdict))


def test_a_checked_and_witnessed_graph_dies_by_reference_counting():
    """Nothing cached on a graph refers back to it (``Traversal``'s rule), so
    with the cycle collector off a graph dies as soon as the last reference
    goes, after condition ii, the witness and the search have all run."""
    died = []
    gc.disable()
    try:
        for seed in range(3):
            graph = flipped_recipe(seed)
            verdict = check_condition_ii(graph)
            find_witness(graph, verdict)
            assert "forest" in graph.__dict__ and graph.traversal.components
            weakref.finalize(graph, died.append, seed)
            del graph
            assert died[-1:] == [seed]
    finally:
        gc.enable()


@pytest.mark.parametrize("family", [
    "exhaustive", "random", "recipes", "crossval", "collisions", "circles", "tested-edges",
    "negative-paths"])
def test_routes_read_isthmi_from_the_block_labels(family, monkeypatch):
    """Conditions i and iii and corollary 3 test the block labels and never
    build ``find_isthmi``'s id set; their answers are those of the routes
    that read the id set, kept in ``oracles``."""
    calls = []
    monkeypatch.setattr(analysis, "find_isthmi",
                        lambda graph, built=find_isthmi: calls.append(graph) or built(graph))
    routes = ((check_condition_i, check_condition_i_by_isthmi),
              (check_condition_iii, check_condition_iii_by_isthmi),
              (check_corollary_3, check_corollary_3_by_isthmi))
    for graph in differential_corpus(family):
        for route, reference in routes:
            assert route(graph) == reference(graph), (route.__name__, graph)
    assert calls == []
