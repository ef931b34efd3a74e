import json

import pytest

from lineconsistency import (
    CircleLimitError,
    line_edge_id,
    new_signed_graph,
    write_signed_graph,
)
from lineconsistency.cli import main


def write_graph(tmp_path, name, vertices, edges):
    g = new_signed_graph(vertices, edges)
    path = tmp_path / name
    path.write_text(write_signed_graph(g))
    return str(path)


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

    def test_missing_file_exits_2(self, capsys):
        assert main(["check", "/nonexistent/g.json"]) == 2

    def test_malformed_json_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{broken")
        assert main(["check", str(path)]) == 2

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

    def test_unbalanced_witness_reuses_the_traversal(self, tmp_path, monkeypatch,
                                                     capsys):
        from lineconsistency import _traversal

        searched = []

        class Counted(_traversal.Traversal):
            def __init__(self, vertex_ids, edges):
                searched.append(vertex_ids)
                super().__init__(vertex_ids, edges)

        monkeypatch.setattr(_traversal, "Traversal", Counted)
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
        assert len(searched) == 1

    def test_consistent_check_builds_no_edge_values(self, tmp_path, monkeypatch,
                                                    capsys):
        from lineconsistency import core

        # a negative circle block with a positive chord path and pendants:
        # every local clause, the bridge pass and the balance pass run
        path = write_graph(
            tmp_path, "consistent.json", "abcdefg",
            [("e1", "a", "b", "-"), ("e2", "b", "c", "-"), ("e3", "c", "d", "-"),
             ("e4", "d", "a", "-"), ("e5", "a", "e", "+"), ("e6", "e", "f", "+"),
             ("e7", "c", "g", "+")],
        )
        built = []
        edge_post_init = core.Edge.__post_init__

        def counted(self):
            built.append(self.id)
            edge_post_init(self)

        monkeypatch.setattr(core.SignedEdge, "__post_init__", counted)
        assert main(["check", path, "--method", "ii", "--witness"]) == 0
        assert capsys.readouterr().out == "ii: line consistent\n"
        assert built == []

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

    def test_bad_bounds_exit_2(self, capsys):
        assert main(["fuzz", "--max-n", "0"]) == 2
        assert main(["fuzz", "--exhaustive", "--max-n", "9"]) == 2
