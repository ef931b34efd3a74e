import pytest

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
    find_witness,
    is_consistent_oracle,
    line_edge_id,
    line_graph,
    new_signed_graph,
    validate_circle,
)
from lineconsistency import _traversal

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
        simple_adjacency = cycles._simple_adjacency

        def counted(vertex_ids, edge_triples):
            searched.append(vertex_ids)
            return simple_adjacency(vertex_ids, edge_triples)

        monkeypatch.setattr(cycles, "_simple_adjacency", counted)
        # 20 negative squares, each hung by a positive isthmus at its vertex
        # vi from hi on a positive path h0 - h1 - ... - h19
        vertices, edges = [], []
        for i in range(20):
            h, v, a, b, c = (f"{x}{i}" for x in "hvabc")
            vertices += [h, v, a, b, c]
            edges += [(f"i{i}", h, v, "+"), (f"n{i}1", v, a, "-"),
                      (f"n{i}2", a, b, "-"), (f"n{i}3", b, c, "-"),
                      (f"n{i}4", c, v, "-")]
            if i:
                edges.append((f"p{i}", f"h{i - 1}", h, "+"))
        assert check_theorem1_simple(new_signed_graph(vertices, edges)).line_consistent
        assert len(searched) == 20  # one square per tested vertex, not 20 each

    def test_agrees_with_condition_ii_on_simple_graphs(self):
        for g in exhaustive_signed_graphs(4, 5):
            if not g.is_simple:
                continue
            assert (check_theorem1_simple(g).line_consistent
                    == check_condition_ii(g).line_consistent), g


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

    def test_raises_on_consistent_graph(self):
        g = circle4("----")
        with pytest.raises(GraphError, match="consistent"):
            find_witness(g, check_condition_ii(g))

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

    def test_with_witness(self):
        g = star("---")
        verdict = check_condition_ii(g)
        witness = find_witness(g, verdict)
        attached = verdict.with_witness(witness)
        assert attached.witness == witness
        assert attached.failed_clause == verdict.failed_clause


def test_degenerate_inputs():
    empty = sg("")
    assert all(check(empty).line_consistent for check in ALL_CHECKS)
    edgeless = sg("abc")
    assert all(check(edgeless).line_consistent for check in ALL_CHECKS)
    assert classify_structure(edgeless).line_consistent
    # an all-negative degree-3 forest is still inconsistent
    forest = star("---")
    assert not any(check(forest).line_consistent for check in ALL_CHECKS)
