"""README's examples run as written and do what their comments say."""

import re
from pathlib import Path

from lineconsistency import new_signed_graph, read_signed_graph
from lineconsistency.linegraph import verify_witness

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def fenced(language):
    return re.findall(rf"```{language}\n(.*?)```", README, re.S)


def test_library_quick_start_runs_and_says_what_its_comments_claim():
    (code,) = fenced("python")
    names = {}
    exec(code, names)
    g, verdict, witness = names["g"], names["verdict"], names["witness"]
    assert not verdict.line_consistent
    assert verdict.failed_clause == "negative-subgraph degree exceeds 2"
    assert len(witness) == 3
    verify_witness(g, witness)
    assert not names["is_consistent_oracle"](names["line_graph"](g)).consistent
    assert names["report"].line_consistent is False


def test_cli_input_example_reads():
    (document,) = fenced("json")
    assert read_signed_graph(document) == new_signed_graph("ab", [("e1", "a", "b", "-")])
