"""Tests of the benchmark itself: the independent answers and checks, the
last output line, and exact counts that repeat on two runs with one seed.

    python3 -m pytest bench/test_bench.py -q

The repeat test runs every workload twice with tracing (about three minutes).
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys

import pytest

import program

program.use_checkout_sources()

import reference  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from lineconsistency import io, is_consistent_oracle, line_graph  # noqa: E402


def doc_of(graph):
    return json.loads(io.write_signed_graph(graph))


def test_line_graph_reference_matches_the_definitional_oracle():
    inputs = workloads.WORKLOADS["crossval-small"].build(5, workloads.GenerateClock())
    for item in inputs:
        doc = doc_of(item.graph)
        if reference.has_line_id_collision(doc):
            continue  # the program cannot build this line graph
        assert reference.line_graph_consistent(doc) == \
            is_consistent_oracle(line_graph(item.graph)).consistent


def test_negative_digon_of_the_line_graph():
    doc = {"vertices": ["a", "b"], "edges": [
        {"id": "p", "u": "a", "v": "b", "sign": "+"},
        {"id": "n", "u": "a", "v": "b", "sign": "-"},
    ]}
    assert not reference.line_graph_consistent(doc)


def test_roadmap_collision_is_predicted_and_consistent():
    doc = doc_of(workloads.roadmap_collision())
    assert reference.has_line_id_collision(doc)
    assert reference.line_graph_consistent(doc)
    assert not reference.has_line_id_collision(doc_of(workloads._star(5, 3, random.Random(1))))


def test_certificates_reject_broken_promises():
    star = doc_of(workloads._star(6, 3, random.Random(2)))
    assert reference.known_answer("star", star) is False
    with pytest.raises(reference.CertificateError):
        reference.known_answer("recipe", {"vertices": ["a", "b"], "edges": [
            {"id": "1", "u": "a", "v": "b", "sign": "+"},
            {"id": "2", "u": "a", "v": "b", "sign": "-"},
        ]})
    with pytest.raises(reference.CertificateError):
        reference.known_answer("flipped", star)
    with pytest.raises(reference.CertificateError, match="negative triple"):
        reference.known_answer("recipe", star)  # a tree, so balanced


def test_census_counts_kinds_like_decompose():
    path = doc_of(workloads._mixed_path(9, random.Random(3)))
    census = reference.negative_census(path)
    assert census["single-vertex"] + census["nontrivial-path"] == \
        len(reference.negative_components(path))
    assert census["other"] == 0 and census["circle"] == 0


STAR = {"e0": ("c", "l0", "-"), "e1": ("c", "l1", "-"), "e2": ("c", "l2", "-"),
        "e3": ("c", "l3", "+")}


def test_witness_check_accepts_a_negative_triangle():
    witness = {"vertices": ["e0", "e1", "e2"],
               "edges": ["e0~e1@c", "e1~e2@c", "e0~e2@c"]}
    assert reference.witness_error(STAR, witness) is None


@pytest.mark.parametrize("witness, reason", [
    ({"vertices": ["e0", "e1", "e3"], "edges": ["e0~e1@c", "e1~e3@c", "e0~e3@c"]},
     "positive"),
    ({"vertices": ["e0", "e1", "e1"], "edges": ["e0~e1@c", "e1~e1@c", "e0~e1@x"]},
     "repeats"),
    ({"vertices": ["e0", "e1", "e2"], "edges": ["e0~e1@l0", "e1~e2@c", "e0~e2@c"]},
     "does not join"),
    ({"vertices": ["e0", "e9", "e2"], "edges": ["a", "b", "c"]}, "not an input edge"),
])
def test_witness_check_rejects(witness, reason):
    assert reason in reference.witness_error(STAR, witness)


def raise_error(argv):
    raise RuntimeError("boom")


@pytest.mark.parametrize("main, kind", [
    (lambda argv: 3, "disagreement"),
    (raise_error, "raised"),
    (lambda argv: 2, "exit-2"),
])
def test_crash_or_disagreement_is_a_wrong_verdict(main, kind):
    import run

    entry = {"file": "x.json", "expected": True, "collision": False}
    _, code, stdout, err = run.run_verdict(main, ["check", "x.json"])
    assert run.judge(entry, None, False, code, stdout, err) == (1, kind)


def test_only_a_known_collision_may_exit_2():
    import run

    entry = {"file": "x.json", "expected": True, "collision": True}
    stderr = "error: duplicate edge id '1~2@x@y'"
    assert run.judge(entry, None, False, 2, "", stderr) == (0, "line-id-collision")
    assert run.judge(entry, None, False, 3, "", stderr) == (1, "disagreement")


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_exact_counts_repeat_on_one_seed(workload):
    results = []
    for _ in range(2):
        done = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", workload, "--seed", "11",
             "--seconds", "1", "--trace", "1"],
            cwd=program.ROOT, capture_output=True, text=True, timeout=600,
        )
        assert done.returncode == 0, done.stderr
        last = json.loads(done.stdout.splitlines()[-1])
        assert set(last) == {"correct", "attempted", "failed", "metrics"}
        assert last["correct"]
        results.append({name: last["metrics"][name]["value"] for name in tracer.COUNT_METRICS})
    assert results[0] == results[1]


def test_fails_without_program_sources():
    bare = program.ROOT / "bench" / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(program.ROOT / "bench", bare / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(program.ROOT / "BENCHMARK.json", bare)
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "crossval-small", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    shutil.rmtree(bare)
    assert done.returncode != 0
    assert done.stdout == ""
