import hashlib
import json
import sys
import tracemalloc
from collections import Counter
from io import StringIO

import pytest
from oracles import check_condition_ii_by_search, differential_corpus, spliced_graph
from test_read_chunks import FAMILIES

from lineconsistency import (
    CircleLimitError,
    GraphError,
    SignedGraph,
    check_condition_i,
    check_condition_ii,
    check_condition_iii,
    check_corollary_3,
    check_theorem1_simple,
    classify_structure,
    generate_line_consistent,
    line_edge_id,
    new_signed_graph,
    random_recipe,
    random_signed_graph,
    read_signed_graph,
    write_signed_graph,
)
from lineconsistency import _traversal, analysis
from lineconsistency._traversal import Forest
from lineconsistency import cli as cli_module
from lineconsistency.analysis import (
    UNBALANCED, _condition_ii_clause, _degrees, _local_clauses)
from lineconsistency.cli import main


def write_graph(tmp_path, name, vertices, edges):
    g = new_signed_graph(vertices, edges)
    path = tmp_path / name
    path.write_text(write_signed_graph(g))
    return str(path)


def write_padded(tmp_path, edges):
    """The graph of ``edges`` beside a positive path of 1,000 edges."""
    vertices = sorted({x for e in edges for x in e[1:3]})
    vertices += [f"p{i:04d}" for i in range(1001)]
    edges = edges + [(f"q{i:04d}", f"p{i:04d}", f"p{i + 1:04d}", "+")
                     for i in range(1000)]
    return write_graph(tmp_path, "padded.json", vertices, edges)


@pytest.fixture
def neg_star(tmp_path):
    return write_graph(
        tmp_path, "star.json", ["c", "l1", "l2", "l3"],
        [(f"e{i}", "c", f"l{i}", "-") for i in (1, 2, 3)],
    )


@pytest.fixture
def neg_c4(tmp_path):
    return write_graph(
        tmp_path, "c4.json", "abcd",
        [("e1", "a", "b", "-"), ("e2", "b", "c", "-"),
         ("e3", "c", "d", "-"), ("e4", "d", "a", "-")],
    )


@pytest.fixture
def parallel_pair(tmp_path):
    return write_graph(
        tmp_path, "pp.json", "ab",
        [("e1", "a", "b", "-"), ("e2", "a", "b", "-")],
    )


# the graphs of each clause of condition ii, and the output of check
# --method ii --witness on each beside a positive path of 1,000 edges
PADDED_CASES = [
    # a negative circle block with a positive chord path and pendants:
    # every local clause runs, two positive edges are tested, balance is read
    ([("e1", "a", "b", "-"), ("e2", "b", "c", "-"), ("e3", "c", "d", "-"),
      ("e4", "d", "a", "-"), ("e5", "a", "e", "+"), ("e6", "e", "f", "+"),
      ("e7", "c", "g", "+")], None, None),
    ([("e1", "a", "b", "-"), ("e2", "a", "c", "-"), ("e3", "a", "d", "-")],
     "negative-subgraph degree exceeds 2",
     '{"edges": ["e1~e2@a", "e1~e3@a", "e2~e3@a"], "vertices": ["e2", "e1", "e3"]}'),
    ([("e1", "a", "b", "-"), ("e2", "a", "c", "+"), ("e3", "a", "d", "+")],
     "negative-edge endpoint with two positive edges",
     '{"edges": ["e1~e2@a", "e1~e3@a", "e2~e3@a"], "vertices": ["e2", "e1", "e3"]}'),
    # the shortest circle through e3 is negative: its image
    ([("e1", "a", "b", "-"), ("e2", "a", "c", "-"), ("e3", "a", "d", "+"),
      ("e4", "d", "b", "+")],
     "negative-degree-2 positive edge not an isthmus",
     '{"edges": ["e1~e3@a", "e1~e4@b", "e3~e4@d"], "vertices": ["e3", "e1", "e4"]}'),
    # the shortest circle through e3 is positive: the spare e2 interposed
    ([("e1", "a", "b", "-"), ("e2", "a", "c", "-"), ("e3", "a", "d", "+"),
      ("e4", "d", "b", "-")],
     "negative-degree-2 positive edge not an isthmus",
     '{"edges": ["e1~e2@a", "e1~e4@b", "e3~e4@d", "e2~e3@a"], '
     '"vertices": ["e2", "e1", "e4", "e3"]}'),
    ([("e1", "a", "b", "-"), ("e2", "b", "c", "+"), ("e3", "c", "a", "+")],
     "unbalanced",
     '{"edges": ["e1~e2@b", "e1~e3@a", "e2~e3@c"], "vertices": ["e2", "e1", "e3"]}'),
]
PADDED_IDS = ["consistent", "degree-above-2", "two-positive-edges",
              "not-isthmus-negative-circle", "not-isthmus-spare-edge", "unbalanced"]


class TestCheck:
    def test_inconsistent_exits_1_with_witness(self, neg_star, capsys):
        code = main(["check", neg_star, "--witness"])
        out = capsys.readouterr().out
        assert code == 1
        assert "NOT line consistent" in out
        assert "witness" in out
        payload = json.loads(out.split("witness ", 1)[1].splitlines()[0])
        assert sorted(payload["vertices"]) == ["e1", "e2", "e3"]
        shared = {line.split(": witness ")[1] for line in out.splitlines()
                  if ": witness " in line and not line.startswith("oracle")}
        assert len(shared) == 1

    def test_consistent_exits_0_all_methods(self, neg_c4, capsys):
        code = main(["check", neg_c4])
        out = capsys.readouterr().out
        assert code == 0
        for method in ("i", "ii", "iii", "thm1", "structure", "oracle"):
            assert f"{method}: line consistent" in out

    def test_thm1_on_multigraph_is_input_error(self, parallel_pair, capsys):
        code = main(["check", parallel_pair, "--method", "thm1"])
        assert code == 2
        assert "simple" in capsys.readouterr().err

    def test_all_skips_thm1_on_multigraphs(self, parallel_pair, capsys):
        code = main(["check", parallel_pair])
        out = capsys.readouterr().out
        assert code == 0
        assert "thm1" not in out

    def test_single_method(self, neg_star, capsys):
        code = main(["check", neg_star, "--method", "ii"])
        out = capsys.readouterr().out
        assert code == 1
        assert out.startswith("ii: NOT line consistent")

    def test_a_witness_is_built_only_for_a_verdict_without_one(self, neg_star,
                                                                 monkeypatch, capsys):
        """The oracle's verdict carries its own circle, so ``--method oracle``
        builds no witness; the other methods' verdicts share one."""
        calls = []
        monkeypatch.setattr(analysis, "find_witness",
                            lambda *args, built=analysis.find_witness:
                            calls.append(args) or built(*args))
        assert main(["check", neg_star, "--method", "oracle", "--witness"]) == 1
        assert capsys.readouterr().out == (
            "oracle: NOT line consistent (clause: negative circle in the line graph)\n"
            'oracle: witness {"edges": ["e1~e2@c", "e1~e3@c", "e2~e3@c"], '
            '"vertices": ["e2", "e1", "e3"]}\n')
        assert calls == []
        assert main(["check", neg_star, "--witness"]) == 1
        assert len(calls) == 1

    def test_each_witness_is_formatted_once(self, monkeypatch, capsys):
        """Every failed method prints a witness, but at most two distinct
        circles are shown, the oracle's own and the one the other methods
        share, and each is formatted once."""
        formatted = []
        monkeypatch.setattr(cli_module, "_witness_json",
                            lambda circle, built=cli_module._witness_json:
                            formatted.append(circle) or built(circle))
        distinct = Counter()
        for graph in differential_corpus("crossval"):
            formatted.clear()
            monkeypatch.setattr(sys, "stdin", StringIO(write_signed_graph(graph)))
            main(["check", "--witness", "-"])
            shown = {line.split(" witness ")[1]
                     for line in capsys.readouterr().out.splitlines() if " witness " in line}
            assert len(formatted) == len(shown) <= 2, graph
            distinct[len(shown)] += 1
        assert distinct[1] and distinct[2], distinct

    def test_missing_file_exits_2(self, capsys):
        assert main(["check", "/nonexistent/g.json"]) == 2

    def test_malformed_json_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{broken")
        assert main(["check", str(path)]) == 2

    @pytest.mark.parametrize("command", [["check"], ["decompose"], ["line-graph", "-"]],
                             ids=["check", "decompose", "line-graph"])
    @pytest.mark.parametrize("content, message", [
        (b'{"vertices": [' + b"1" * 5000 + b'], "edges": []}',
         "invalid JSON: Exceeds the limit (4300 digits) for integer string conversion"),
        (b"[" * 100_000 + b"]" * 100_000,
         "invalid JSON: maximum recursion depth exceeded while decoding a JSON array"),
        ('{"vertices": ["\xe9"], "edges": []}'.encode("latin-1"),
         "cannot decode input: 'utf-8' codec can't decode byte 0xe9 in position 15"),
    ], ids=["long-integer", "deep-nesting", "not-utf-8"])
    def test_unreadable_input_exits_2(self, tmp_path, capsys, command, content, message):
        path = tmp_path / "bad.json"
        path.write_bytes(content)
        assert main([command[0], str(path), *command[1:]]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(f"error: {message}") and err.count("\n") == 1

    def test_check_peaks_under_85_percent_of_the_text_and_document(
            self, tmp_path, capsys, large_document, traced_peak):
        # the reader decodes the edges a chunk at a time and frees the text
        # before the graph is built; condition ii then allocates less
        path = tmp_path / "large.json"
        path.write_text(large_document)
        document = traced_peak(lambda: json.loads(large_document))
        whole = sys.getsizeof(large_document) + document
        peak = traced_peak(lambda: main(["check", "--method", "ii", str(path)]))
        assert capsys.readouterr().out == "ii: line consistent\n"
        assert peak <= 0.85 * whole

    def test_check_of_a_file_peaks_under_1_6_times_its_graph(
            self, tmp_path, capsys, large_document, traced_peak):
        # the file's edges are read from disk a chunk at a time, so its whole
        # text is never held: the graph and condition ii set the peak
        path = tmp_path / "large.json"
        path.write_text(large_document)
        tracemalloc.start()
        try:
            graph = read_signed_graph(large_document)
            size = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        peak = traced_peak(lambda: main(["check", "--method", "ii", str(path)]))
        assert capsys.readouterr().out == "ii: line consistent\n"
        assert len(graph.edge_ids) == 19_969 and peak <= 1.6 * size

    def test_byte_identical_reports(self, neg_star, capsys):
        main(["check", neg_star, "--witness"])
        first = capsys.readouterr().out
        main(["check", neg_star, "--witness"])
        assert capsys.readouterr().out == first

    def test_line_edge_id_collision_gets_a_witness(self, tmp_path, capsys):
        # line_edge_id names both the pair (1, 2) at x@y and (1, 2@x) at y
        # "1~2@x@y", so this input has no line graph, but it has a witness
        path = write_graph(
            tmp_path, "collide.json", ["x@y", "y", "c", "d", "e"],
            [("1", "x@y", "y", "-"), ("2", "x@y", "c", "+"),
             ("2@x", "y", "d", "-"), ("3", "y", "e", "-")],
        )
        assert main(["check", path, "--method", "ii", "--witness"]) == 1
        out = capsys.readouterr().out
        payload = json.loads(out.split("witness ", 1)[1])
        vertices, edges = payload["vertices"], payload["edges"]
        assert sorted(vertices) == ["1", "2@x", "3"]
        assert sorted(edges) == sorted(
            line_edge_id(a, b, "y")
            for a, b in zip(vertices, vertices[1:] + vertices[:1])
        )

    @pytest.fixture
    def incidence_sizes(self, monkeypatch):
        """The vertex count of every index the breadth-first search is
        handed; building an incidence or a depth-first search fails."""

        def forbidden(*args):
            raise AssertionError("an incidence or a depth-first search was built")

        sizes = []
        monkeypatch.setattr(analysis, "_odd_circle",
                            lambda graph, root, odd, index, *rest, search=analysis._odd_circle:
                            sizes.append(len(index)) or search(graph, root, odd, index, *rest))
        monkeypatch.setattr(_traversal, "incidence", forbidden)
        monkeypatch.setattr(_traversal, "Traversal", forbidden)
        return sizes

    def test_unbalanced_witness_runs_no_depth_first_search(self, tmp_path, capsys,
                                                           incidence_sizes):
        # no local clause fails; the triangle with one negative edge is
        # unbalanced, and its image is the witness
        path = write_graph(
            tmp_path, "unbalanced.json", "abc",
            [("e1", "a", "b", "-"), ("e2", "b", "c", "+"), ("e3", "c", "a", "+")],
        )
        assert main(["check", path, "--method", "ii", "--witness"]) == 1
        out = capsys.readouterr().out
        assert "(clause: unbalanced)" in out
        payload = json.loads(out.split("witness ", 1)[1])
        assert sorted(payload["vertices"]) == ["e1", "e2", "e3"]
        assert incidence_sizes == [3]

    def test_unbalanced_witness_searches_only_its_component(self, tmp_path, capsys,
                                                            incidence_sizes):
        # a balanced path of 1,000 edges, then the unbalanced triangle, whose
        # vertex and edge ids sort after the path's
        edges = [(f"q{i:04d}", f"p{i:04d}", f"p{i + 1:04d}", "-" if i % 3 else "+")
                 for i in range(1000)]
        edges += [("t1", "x", "y", "-"), ("t2", "y", "z", "+"), ("t3", "z", "x", "+")]
        path = write_graph(tmp_path, "beside.json",
                           [f"p{i:04d}" for i in range(1001)] + ["x", "y", "z"], edges)
        assert main(["check", path, "--method", "ii", "--witness"]) == 1
        assert "(clause: unbalanced)" in capsys.readouterr().out
        assert incidence_sizes == [3]

    @pytest.mark.parametrize("edges, clause, witness", PADDED_CASES, ids=PADDED_IDS)
    def test_check_builds_no_edge_values(self, tmp_path, capsys, built_edge_values,
                                         edges, clause, witness):
        # building the edge values would show as over 1,000 ids
        code = main(["check", write_padded(tmp_path, edges), "--method", "ii", "--witness"])
        if clause is None:
            assert (code, capsys.readouterr().out) == (0, "ii: line consistent\n")
        else:
            assert (code, capsys.readouterr().out) == (1, (
                f"ii: NOT line consistent (clause: {clause})\n"
                f"ii: witness {witness}\n"
            ))
        assert built_edge_values == []

    @pytest.mark.parametrize("edges, clause, witness", PADDED_CASES[:5],
                             ids=PADDED_IDS[:5])
    def test_check_builds_no_incidence_and_no_search(self, tmp_path, monkeypatch, capsys,
                                                     edges, clause, witness):
        """Condition ii and the local clauses' witnesses read the columns:
        the padded graphs above run no search, and build no incidence list
        but for the breadth-first search of a not-isthmus witness."""
        from lineconsistency import _traversal

        calls = Counter()
        incidence = _traversal.incidence

        def counted_incidence(*args):
            calls["incidence"] += 1
            return incidence(*args)

        class Counted(_traversal.Traversal):
            def __init__(self, graph):
                calls["Traversal"] += 1
                super().__init__(graph)

        monkeypatch.setattr(_traversal, "incidence", counted_incidence)
        monkeypatch.setattr(_traversal, "Traversal", Counted)
        code = main(["check", write_padded(tmp_path, edges), "--method", "ii", "--witness"])
        out = capsys.readouterr().out
        assert code == (0 if clause is None else 1)
        assert clause is None or f"ii: witness {witness}" in out
        not_isthmus = clause == "negative-degree-2 positive edge not an isthmus"
        assert calls == (Counter(incidence=1) if not_isthmus else Counter())

    def test_all_methods_build_no_edge_values(self, tmp_path, capsys, built_edge_values):
        """``check --witness`` with every method (the classifier, the line
        graph and the oracle among them) on small seeded graphs: random
        multigraphs of 2-7 vertices and up to 12 edges across negative
        shares, recipe graphs, and ids whose line-graph edge ids collide."""
        graphs = [
            random_signed_graph(n, min(i % 13, n * (n - 1)), (i // 6) % 7 / 6, i)
            for i in range(84) for n in [2 + i % 6]
        ]
        graphs += [generate_line_consistent(random_recipe(s), s) for s in range(6)]
        graphs.append(new_signed_graph(["x@y", "y", "c", "d"], [
            ("1", "x@y", "y", "+"), ("2", "x@y", "c", "+"), ("2@x", "y", "d", "+")]))
        codes = Counter()
        for i, graph in enumerate(graphs):
            path = tmp_path / f"{i}.json"
            path.write_text(write_signed_graph(graph))
            codes[main(["check", str(path), "--witness"])] += 1
        assert codes[0] > 20 and codes[1] > 20 and codes[2] == 1 and not codes[3]
        assert "oracle: witness" in capsys.readouterr().out
        assert built_edge_values == []

    def test_duplicate_vertex_id_exits_2(self, tmp_path, capsys):
        path = tmp_path / "dup.json"
        path.write_text('{"vertices": ["a", "b", "a"], "edges": []}')
        assert main(["check", str(path)]) == 2
        assert "vertices[2]: duplicate vertex id 'a'" in capsys.readouterr().err

    def test_circle_limit_exits_4(self, neg_star, monkeypatch, capsys):
        from lineconsistency import cli as cli_module

        def over_cap(graph):
            raise CircleLimitError("more than 10 circles")

        monkeypatch.setattr(cli_module.analysis, "check_theorem1_simple", over_cap)
        assert main(["check", neg_star, "--method", "thm1"]) == 4
        assert capsys.readouterr().err == "resource limit: more than 10 circles\n"

    def test_internal_disagreement_exits_3(self, neg_star, monkeypatch, capsys):
        from lineconsistency import Verdict
        from lineconsistency import cli as cli_module

        monkeypatch.setattr(
            cli_module.analysis, "check_condition_i", lambda g: Verdict(True)
        )
        code = main(["check", neg_star])
        assert code == 3
        assert "methods disagree" in capsys.readouterr().err


class TestParser:
    def test_two_calls_build_one_parser(self, neg_star, monkeypatch, capsys):
        from lineconsistency import cli as cli_module

        build = cli_module.build_parser
        built = []

        def counted():
            built.append(1)
            return build()

        monkeypatch.setattr(cli_module, "build_parser", counted)
        cli_module._parser.cache_clear()
        try:
            assert main(["check", neg_star, "--method", "ii"]) == 1
            assert main(["decompose", neg_star]) == 0
        finally:
            cli_module._parser.cache_clear()
        assert len(built) == 1

    def test_handlers_look_up_the_library_when_they_run(self, neg_star, monkeypatch,
                                                        capsys):
        from lineconsistency import Verdict
        from lineconsistency import cli as cli_module

        assert main(["check", neg_star, "--method", "ii"]) == 1
        monkeypatch.setattr(cli_module.analysis, "check_condition_ii",
                            lambda graph: Verdict(True))
        capsys.readouterr()
        assert main(["check", neg_star, "--method", "ii"]) == 0
        assert capsys.readouterr().out == "ii: line consistent\n"


class TestLineGraph:
    def test_json_output(self, tmp_path, parallel_pair):
        out = tmp_path / "lg.json"
        assert main(["line-graph", parallel_pair, str(out)]) == 0
        doc = json.loads(out.read_text())
        assert [v["id"] for v in doc["vertices"]] == ["e1", "e2"]
        assert len(doc["edges"]) == 2  # double edge from the parallel pair

    def test_dot_output(self, tmp_path, neg_star):
        out = tmp_path / "lg.dot"
        assert main(["line-graph", neg_star, str(out), "--format", "dot"]) == 0
        text = out.read_text()
        assert text.startswith("graph {")
        assert '[label="e1 [-]"]' in text

    def test_stdout(self, neg_star, capsys):
        assert main(["line-graph", neg_star, "-"]) == 0
        assert '"vertices"' in capsys.readouterr().out


class TestDecompose:
    def test_report_json(self, neg_c4, capsys):
        assert main(["decompose", neg_c4]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["line_consistent"] is True
        assert doc["components"][0]["kind"] == "circle"
        assert doc["components"][0]["is_block"] is True

    def test_inconsistent_graph_still_reports(self, neg_star, capsys):
        assert main(["decompose", neg_star]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["line_consistent"] is False
        assert doc["components"][0]["kind"] == "other"


class TestFuzz:
    def test_exhaustive_small(self, capsys):
        code = main(["fuzz", "--exhaustive", "--max-n", "3", "--max-m", "3"])
        out = capsys.readouterr().out
        assert code == 0
        assert "graphs checked: 95" in out
        assert "disagreements: 0" in out

    def test_random_deterministic(self, capsys):
        argv = ["fuzz", "--count", "60", "--max-n", "6", "--max-m", "9",
                "--seed", "5"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == first

    def test_recipes_verified(self, capsys):
        code = main(["fuzz", "--count", "0", "--recipes", "25", "--seed", "3"])
        out = capsys.readouterr().out
        assert code == 0
        assert "graphs checked: 25" in out
        assert "disagreements: 0" in out

    def test_oracle_runs_once_per_graph(self, monkeypatch, capsys):
        from lineconsistency import cli as cli_module

        oracle = cli_module.is_consistent_oracle
        calls = []

        def counted(marked):
            calls.append(marked)
            return oracle(marked)

        monkeypatch.setattr(cli_module, "is_consistent_oracle", counted)
        assert main(["fuzz", "--count", "20", "--seed", "4"]) == 0
        assert "graphs checked: 20" in capsys.readouterr().out
        assert len(calls) == 20

    def test_disagreement_prints_each_counterexample(self, monkeypatch, capsys):
        from lineconsistency import analysis, check_condition_ii, read_signed_graph

        monkeypatch.setattr(analysis, "check_condition_i",
                            lambda graph: analysis.Verdict(True))
        code = main(["fuzz", "--exhaustive", "--max-n", "3", "--max-m", "3"])
        out = capsys.readouterr().out
        assert code == 3
        assert "line consistent: 47" in out
        assert "disagreements: 48" in out  # every graph the oracle rejects
        blocks = out.split("counterexample:\n")[1:]
        assert len(blocks) == 48
        for block in blocks:
            document, failure = block.rsplit("}\n", 1)
            assert failure == "  method i says True, oracle says False\n"
            graph = read_signed_graph(document + "}")
            assert not check_condition_ii(graph).line_consistent

    def test_production_disagreement_prints_each_counterexample(self, monkeypatch,
                                                                capsys):
        """A wrong positive verdict of condition ii, which the witness is
        built from, is reported like any other method's."""
        from lineconsistency import analysis, check_condition_i, read_signed_graph

        monkeypatch.setattr(analysis, "check_condition_ii",
                            lambda graph: analysis.Verdict(True))
        code = main(["fuzz", "--exhaustive", "--max-n", "3", "--max-m", "3"])
        out = capsys.readouterr().out
        assert code == 3
        assert "line consistent: 47" in out
        assert "disagreements: 48" in out
        blocks = out.split("counterexample:\n")[1:]
        assert len(blocks) == 48
        for block in blocks:
            document, failure = block.rsplit("}\n", 1)
            assert failure == "  method ii says True, oracle says False\n"
            graph = read_signed_graph(document + "}")
            assert not check_condition_i(graph).line_consistent

    def test_corollary_disagreement_is_reported(self, monkeypatch, capsys):
        from lineconsistency import analysis

        # the corollary, patched to contradict condition ii, hence the oracle
        monkeypatch.setattr(analysis, "check_corollary_3",
                            lambda graph: not check_condition_ii(graph).line_consistent)
        code = main(["fuzz", "--exhaustive", "--max-n", "3", "--max-m", "3"])
        out = capsys.readouterr().out
        assert code == 3
        assert "disagreements: 95" in out  # every graph
        failures = Counter(block.rsplit("}\n", 1)[1]
                           for block in out.split("counterexample:\n")[1:])
        assert failures == {"  corollary says False, oracle says True\n": 47,
                            "  corollary says True, oracle says False\n": 48}

    def test_positive_witness_is_reported(self, monkeypatch, capsys):
        from lineconsistency import Sign
        from lineconsistency import cli as cli_module

        monkeypatch.setattr(cli_module, "circle_vertex_sign",
                            lambda marked, circle: Sign.POSITIVE)
        code = main(["fuzz", "--exhaustive", "--max-n", "3", "--max-m", "3"])
        out = capsys.readouterr().out
        assert code == 3
        assert "disagreements: 48" in out  # every graph the oracle rejects
        failures = Counter(block.rsplit("}\n", 1)[1]
                           for block in out.split("counterexample:\n")[1:])
        assert failures == {"  witness circle is not negative\n": 48}

    def test_bad_bounds_exit_2(self, capsys):
        assert main(["fuzz", "--max-n", "0"]) == 2
        assert main(["fuzz", "--exhaustive", "--max-n", "9"]) == 2
        assert main(["fuzz", "--count", "-5"]) == 2
        assert main(["fuzz", "--count", "0", "--recipes", "-3"]) == 2
        err = capsys.readouterr().err
        assert err.count("error: bounds exceeded: ") == 4
        assert "--count must be nonnegative" in err
        assert "--recipes must be nonnegative" in err


# one route of each command, patched where the command looks it up
CRASH_ROUTES = {
    "check": (["check", "STAR", "--method", "ii"], analysis, "check_condition_ii"),
    "line-graph": (["line-graph", "STAR", "-"], cli_module, "line_graph"),
    "decompose": (["decompose", "STAR"], analysis, "classify_structure"),
    "fuzz": (["fuzz", "--count", "2", "--max-n", "3"], cli_module, "is_consistent_oracle"),
}


@pytest.mark.parametrize("command", list(CRASH_ROUTES))
@pytest.mark.parametrize("error, code, first_line", [
    (MemoryError(), 4, "resource limit: out of memory"),
    (RuntimeError("boom\nagain"), 5, "unexpected error: RuntimeError('boom\\nagain')"),
], ids=["memory", "runtime"])
def test_an_escaping_exception_never_exits_1(command, error, code, first_line, neg_star,
                                             monkeypatch, capsys):
    argv, owner, route = CRASH_ROUTES[command]

    def crash(*args):
        raise error

    monkeypatch.setattr(owner, route, crash)
    assert main([neg_star if arg == "STAR" else arg for arg in argv]) == code
    err = capsys.readouterr().err.splitlines()
    assert err[0] == first_line
    if code == 4:
        assert len(err) == 1
    else:  # the traceback follows
        assert err[1] == "Traceback (most recent call last):"
        assert err[-2:] == ["RuntimeError: boom", "again"]


@pytest.mark.parametrize("family", ["tested-edges", "random", "circles", "flipped"])
def test_witness_check_builds_one_forest_per_input(family, monkeypatch, capsys):
    """check --method ii --witness builds one parity union-find per input, the
    one condition ii decides with, and the witness of an unbalanced graph
    reads it; a local clause that fails before any edge is tested needs
    none.  The forests are counted at every module binding of the class."""
    built = []

    def counted(graph, *args, cls=_traversal.Forest):
        built.append(graph)
        return cls(graph, *args)

    bindings = [name for name, module in sys.modules.items()
                if name.startswith("lineconsistency")
                and getattr(module, "Forest", None) is _traversal.Forest]
    assert {"lineconsistency._traversal", "lineconsistency.analysis"} <= set(bindings)
    for name in bindings:
        monkeypatch.setattr(sys.modules[name], "Forest", counted)
    kinds = Counter()
    for graph in differential_corpus(family):
        built.clear()
        monkeypatch.setattr(sys, "stdin", StringIO(write_signed_graph(graph)))
        code = main(["check", "--method", "ii", "--witness", "-"])
        capsys.readouterr()
        forests = len(built)
        verdict = check_condition_ii_by_search(graph)
        tested, failed = _local_clauses(graph, _degrees(graph), _condition_ii_clause)
        assert code == int(not verdict.line_consistent), graph
        assert forests == (0 if failed and not tested else 1), graph
        kinds[forests, verdict.failed_clause] += 1
    if family != "tested-edges":  # there every graph tests an edge, none is unbalanced
        assert kinds[1, UNBALANCED] and any(f == 0 for f, _ in kinds), kinds


@pytest.mark.parametrize("family", FAMILIES + ("spliced",))
def test_witness_check_builds_one_graph_per_input(family, monkeypatch, capsys, tmp_path):
    """check --method ii --witness builds one graph, the one it reads, on
    every unbalanced input: the negative circle is searched in place, not
    in a copy of its component.  The graphs are counted at the one method
    every construction runs through."""
    built, construct = [], SignedGraph.__post_init__
    monkeypatch.setattr(SignedGraph, "__post_init__",
                        lambda graph, *columns: built.append(graph) or construct(graph, *columns))
    graphs = [spliced_graph(20000, 3)] if family == "spliced" else differential_corpus(family)
    path, unbalanced = tmp_path / "graph.json", 0
    for graph in graphs:
        if Forest(graph).balanced:
            continue
        path.write_text(write_signed_graph(graph))
        built.clear()
        main(["check", str(path), "--method", "ii", "--witness"])
        unbalanced += f"(clause: {UNBALANCED})" in capsys.readouterr().out
        assert len(built) == 1, graph
    # recipe graphs are line consistent, and no tested-edges graph fails on balance
    assert unbalanced or family in ("recipes", "tested-edges")


# The SHA-256 of every verdict, report and check output over the golden
# corpus (see test_outputs_match_the_golden_digest).
GOLDEN_DIGEST = "ae72938cdad1d44d5ba0c6e9b615d9f01c55d8ede2722da4b5858f040f81472f"
GOLDEN_FAMILIES = ("crossval", "collisions", "circles", "tested-edges")


def test_outputs_match_the_golden_digest(monkeypatch, capsys):
    """Pins outputs byte for byte on the 1,186 graphs of four corpus
    families: the repr of each route's verdict or report (or of the error
    the simple-graph criterion raises), then the exit code, stdout and stderr
    of check --witness with the graph's document on stdin."""
    digest = hashlib.sha256()
    for family in GOLDEN_FAMILIES:
        for graph in differential_corpus(family):
            try:
                simple = check_theorem1_simple(graph)
            except GraphError as error:
                simple = error
            for result in (check_condition_i(graph), check_condition_ii(graph),
                           check_condition_iii(graph), simple,
                           check_corollary_3(graph), classify_structure(graph)):
                digest.update(f"{result!r}\n".encode())
            monkeypatch.setattr(sys, "stdin", StringIO(write_signed_graph(graph)))
            code = main(["check", "--witness", "-"])
            out, err = capsys.readouterr()
            digest.update(f"{code}\0{out}\0{err}\0".encode())
    assert digest.hexdigest() == GOLDEN_DIGEST, (
        "outputs changed; an intended change must re-pin GOLDEN_DIGEST and "
        "record the new digest in CHANGES.md")
