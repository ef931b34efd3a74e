"""Command-line front end.

Subcommands: ``check`` (run any or all line-consistency checks), ``line-graph``
(emit the marked line graph as JSON or DOT), ``decompose`` (structural report
as JSON), and ``fuzz`` (agreement testing of every check against the oracle).

Exit codes: 0 line consistent / success, 1 not line consistent, 2 input or
parameter error, 3 internal disagreement between methods, 4 resource limit
(an exponential method exceeded its circle cap, or memory ran out), 5 any
other exception, a fault of the program: a one-line summary, then the
traceback, on stderr.  So exit 1 always means a NO verdict.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import random
import sys
import traceback

from . import analysis, generate
from .core import GraphError, SignedGraph
from .cycles import CircleLimitError, circle_vertex_sign, is_consistent_oracle
from .io import (
    GraphFormatError,
    export_dot,
    read_signed_graph,
    stream_signed_graph,
    structure_report_to_dict,
    write_marked_graph,
    write_signed_graph,
)
from .linegraph import line_graph

EXIT_CONSISTENT = 0
EXIT_INCONSISTENT = 1
EXIT_INPUT_ERROR = 2
EXIT_DISAGREEMENT = 3
EXIT_RESOURCE_LIMIT = 4
EXIT_UNEXPECTED = 5

_METHODS = ("i", "ii", "iii", "thm1", "structure", "oracle")


def _load(path: str) -> SignedGraph:
    # a regular file over one chunk is streamed, never held whole; others go as text
    try:
        if path == "-":
            return read_signed_graph(sys.stdin.read())
        graph = stream_signed_graph(path)
        if graph is not None:
            return graph
        with open(path, "r", encoding="utf-8") as handle:
            return read_signed_graph(handle.read())
    except UnicodeDecodeError as exc:
        raise GraphFormatError(f"cannot decode input: {exc}") from None


def _methods_for(graph: SignedGraph) -> list:
    """The methods that decide ``graph``: every one, except the simple-graph
    criterion on a graph with parallel edges."""
    return [m for m in _METHODS if m != "thm1" or graph.is_simple]


def _run_method(graph: SignedGraph, method: str) -> analysis.Verdict:
    if method == "i":
        return analysis.check_condition_i(graph)
    if method == "ii":
        return analysis.check_condition_ii(graph)
    if method == "iii":
        return analysis.check_condition_iii(graph)
    if method == "thm1":
        return analysis.check_theorem1_simple(graph)
    if method == "structure":
        return analysis.classify_structure(graph).as_verdict()
    consistent, witness = is_consistent_oracle(line_graph(graph))  # method == "oracle"
    if consistent:
        return analysis.Verdict(True)
    return analysis.Verdict(
        False, "negative circle in the line graph", witness=witness
    )


def _witness_json(witness) -> str:
    return json.dumps(
        {"edges": list(witness.edges), "vertices": list(witness.vertices)}, sort_keys=True
    )


def cmd_check(args) -> int:
    graph = _load(args.input)
    methods = _methods_for(graph) if args.method == "all" else [args.method]
    verdicts = {method: _run_method(graph, method) for method in methods}
    answers = {v.line_consistent for v in verdicts.values()}
    witness = None  # built only for a failed verdict that carries none of its own
    if args.witness and answers == {False} and None in [v.witness for v in verdicts.values()]:
        witness = analysis.find_witness(graph, verdicts.get("ii", verdicts[methods[0]]))
    shown_json = functools.cache(_witness_json)  # each distinct circle formatted once
    for method, verdict in verdicts.items():
        if verdict.line_consistent:
            print(f"{method}: line consistent")
        else:
            print(f"{method}: NOT line consistent (clause: {verdict.failed_clause})")
            shown = verdict.witness or witness  # the oracle keeps its own circle
            if args.witness and shown:
                print(f"{method}: witness {shown_json(shown)}")
    if len(answers) > 1:
        detail = {m: v.line_consistent for m, v in sorted(verdicts.items())}
        print(f"internal error: methods disagree: {detail}", file=sys.stderr)
        return EXIT_DISAGREEMENT
    return EXIT_CONSISTENT if answers.pop() else EXIT_INCONSISTENT


def cmd_line_graph(args) -> int:
    graph = _load(args.input)
    marked = line_graph(graph)
    text = export_dot(marked) if args.format == "dot" else write_marked_graph(marked)
    if args.output == "-":
        sys.stdout.write(text)
    else:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
    return EXIT_CONSISTENT


def cmd_decompose(args) -> int:
    graph = _load(args.input)
    report = analysis.classify_structure(graph)
    print(json.dumps(structure_report_to_dict(report), indent=2, sort_keys=True))
    return EXIT_CONSISTENT


def _agreement_failures(graph: SignedGraph) -> tuple:
    """The oracle's answer, and the failures of all-method agreement with it
    and of witness validity."""
    marked = line_graph(graph)
    oracle = is_consistent_oracle(marked)
    failures = []
    verdicts = {
        method: _run_method(graph, method)
        for method in _methods_for(graph) if method != "oracle"
    }
    for method, verdict in sorted(verdicts.items()):
        if verdict.line_consistent != oracle.consistent:
            failures.append(
                f"method {method} says {verdict.line_consistent}, "
                f"oracle says {oracle.consistent}"
            )
    corollary = analysis.check_corollary_3(graph)
    if corollary is not None and corollary != oracle.consistent:
        failures.append(
            f"corollary says {corollary}, oracle says {oracle.consistent}"
        )
    if not oracle.consistent and not verdicts["ii"].line_consistent:
        witness = analysis.find_witness(graph, verdicts["ii"])
        if not circle_vertex_sign(marked, witness).is_negative:
            failures.append("witness circle is not negative")
    return oracle.consistent, failures


def cmd_fuzz(args) -> int:
    if args.max_n < 1:
        raise GraphError("bounds exceeded: --max-n must be at least 1")
    for flag, value in (("--max-m", args.max_m), ("--count", args.count),
                        ("--recipes", args.recipes)):
        if value < 0:
            raise GraphError(f"bounds exceeded: {flag} must be nonnegative")

    graphs = []
    if args.exhaustive:
        graphs.append(generate.exhaustive_signed_graphs(args.max_n, args.max_m))
    else:
        rng = random.Random(args.seed)

        def random_stream():
            for _ in range(args.count):
                n = rng.randint(1, args.max_n)
                cap = n * (n - 1)  # parallel multiplicity 2
                m = rng.randint(0, min(args.max_m, cap))
                yield generate.random_signed_graph(
                    n, m, rng.random(), rng.randrange(2**32)
                )

        graphs.append(random_stream())
    if args.recipes:
        graphs.append(
            generate.generate_line_consistent(
                generate.random_recipe(args.seed + offset), args.seed + offset
            )
            for offset in range(args.recipes)
        )

    checked = consistent = 0
    disagreements = []
    for graph in itertools.chain.from_iterable(graphs):
        oracle_consistent, failures = _agreement_failures(graph)
        checked += 1
        consistent += oracle_consistent
        if failures:
            disagreements.append((graph, failures))
    print(f"graphs checked: {checked}")
    print(f"line consistent: {consistent}")
    print(f"disagreements: {len(disagreements)}")
    for graph, failures in disagreements:
        print("counterexample:")
        sys.stdout.write(write_signed_graph(graph))
        for failure in failures:
            print(f"  {failure}")
    return EXIT_DISAGREEMENT if disagreements else EXIT_CONSISTENT


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lineconsistency",
        description="Decide whether a signed multigraph is line consistent.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="run line-consistency checks")
    check.add_argument("input", help="signed-graph JSON file, or - for stdin")
    check.add_argument(
        "--method", choices=_METHODS + ("all",), default="all",
        help="which check to run (default: all, with agreement asserted)",
    )
    check.add_argument(
        "--witness", action="store_true",
        help="attach a negative line-graph circle to failed verdicts",
    )
    check.set_defaults(func=cmd_check)

    lg = sub.add_parser("line-graph", help="write the marked line graph")
    lg.add_argument("input", help="signed-graph JSON file, or - for stdin")
    lg.add_argument("output", help="output file, or - for stdout")
    lg.add_argument("--format", choices=("json", "dot"), default="json")
    lg.set_defaults(func=cmd_line_graph)

    dec = sub.add_parser("decompose", help="structural classification as JSON")
    dec.add_argument("input", help="signed-graph JSON file, or - for stdin")
    dec.set_defaults(func=cmd_decompose)

    fuzz = sub.add_parser("fuzz", help="cross-validate all checks on a corpus")
    fuzz.add_argument("--max-n", type=int, default=5)
    fuzz.add_argument("--max-m", type=int, default=8)
    fuzz.add_argument("--count", type=int, default=100)
    fuzz.add_argument("--seed", type=int, default=0)
    fuzz.add_argument("--exhaustive", action="store_true")
    fuzz.add_argument(
        "--recipes", type=int, default=0,
        help="also verify this many generated line-consistent graphs",
    )
    fuzz.set_defaults(func=cmd_fuzz)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on first use and kept: its handlers look up the
    library's functions when they run."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except CircleLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return EXIT_RESOURCE_LIMIT
    except (GraphError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except MemoryError:
        print("resource limit: out of memory", file=sys.stderr)
        return EXIT_RESOURCE_LIMIT
    except Exception as exc:
        print(f"unexpected error: {exc!r}", file=sys.stderr)
        traceback.print_exc()
        return EXIT_UNEXPECTED


def entry_point():
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
