"""Benchmark of the lineconsistency CLI, from JSON text to checked verdict.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S [--trace 0|1]

Each workload (see workloads.py) is a closed loop: one client on one thread
calls ``lineconsistency.cli.main`` in process on one input file after
another, with stdout captured, and checks every answer against one known
without the program (reference.py), outside the timed region.  A run makes
``round(S / pass_seconds)`` passes over the same inputs, so runs on any seed
take the same number of samples.

Set-up (package import, seeded generation, writing the files) runs three
times in child processes and ``setup_s`` is the median; the measured process
keeps no generated graph, so ``peak_rss_mb`` is the verdicts' own.
``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` calls every
input once untraced and once traced, in alternating order, and reports
per-layer totals per pass and means per verdict (tracer.py);
``trace.overhead_frac`` compares the two kinds of call.

Output: ``metric``/``layer`` lines with name, value and unit, a ``context``
line, then as the last line one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Results and, for traced runs,
the spans of one traced pass are written under bench/out/.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import program
import reference

BENCH = Path(__file__).resolve().parent
OUT = BENCH / "out"
SETUP_RUNS = 3
END_TO_END_UNITS = {
    "verdict_p50_ms": "ms",
    "verdict_tail_ms": "ms",
    "edges_per_s": "1/s",
    "wrong_verdicts": "count",
    "failed_frac": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
# Printed on the metric lines but left out of the last line's ``metrics``:
# wrong_verdicts and failed_frac are 0 on most workloads and reach the last
# line as ``correct`` and ``failed``/``attempted``.  The tail rests on the
# few slowest samples of a run, and between runs on a shared 2-vCPU VM it
# spread by up to a third of its median, more than any bound allows.
NOT_IN_METRICS = ("wrong_verdicts", "failed_frac", "verdict_tail_ms")


def parse_args(argv, names):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=list(names) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_setup(name, seed, inputs_dir, with_reference):
    command = [sys.executable, str(BENCH / "setup_inputs.py"), name, str(seed), str(inputs_dir)]
    if with_reference:
        command.append("--reference")
    done = subprocess.run(command, capture_output=True, text=True)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"error: set-up of {name} failed")
    return json.loads(done.stdout.splitlines()[-1])


def run_verdict(main, argv):
    """One CLI call: (seconds, exit code or None if it raised, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = main(argv)
        except Exception as exc:  # a crash is a failed operation, not the end of the run
            code = None
            err.write(f"raised {exc!r}")
        elapsed = time.perf_counter() - start
    return elapsed, code, out.getvalue(), err.getvalue()


def judge(entry, path, decompose, code, stdout, stderr):
    """(wrong verdict count, failure kind or None) of one CLI call.

    Only an input with a known line-graph id collision may exit 2 for a
    duplicate edge id; any other exit 2, an exit 3 (methods disagree) or a
    raised exception is a wrong verdict.
    """
    if code not in (0, 1):
        if code == 2 and entry["collision"] and "duplicate edge id" in stderr:
            return 0, "line-id-collision"
        kind = {2: "exit-2", 3: "disagreement"}.get(code, "raised")
        print(f"wrong: {entry['file']}: {kind}: {stderr.strip()[-300:]}", file=sys.stderr)
        return 1, kind
    expected = entry["expected"]
    if decompose:
        problems = [] if code == 0 else [f"exit {code}"]
        problems += reference.decompose_output_problems(stdout, expected, entry["census"])
    else:
        problems = [] if code == (0 if expected else 1) else [f"exit {code}"]
        table = {} if expected else reference.edge_table(reference.load(path))
        problems += reference.check_output_problems(stdout, expected, table)
    if problems:
        print(f"wrong: {entry['file']}: {'; '.join(problems)}", file=sys.stderr)
    return len(problems), ("wrong-verdict" if problems else None)


class Pass:
    """The samples and outcomes of one pass over every input."""

    def __init__(self, argv, inputs_dir):
        self.argv = list(argv)
        self.inputs_dir = inputs_dir
        self.seconds = []
        self.wrong = 0
        self.failures = {}
        self.answered_edges = 0

    def call(self, cli, entry):
        """Run and time the CLI on one input, then check its answer."""
        path = self.inputs_dir / entry["file"]
        elapsed, code, stdout, stderr = run_verdict(cli.main, self.argv + [str(path)])
        decompose = self.argv[0] == "decompose"
        wrong, failure = judge(entry, path, decompose, code, stdout, stderr)
        self.seconds.append(elapsed)
        self.wrong += wrong
        if failure:
            self.failures[failure] = self.failures.get(failure, 0) + 1
        else:
            self.answered_edges += entry["m"]


def run_pass(cli, argv, entries, inputs_dir):
    result = Pass(argv, inputs_dir)
    gc.collect()
    for entry in entries:
        result.call(cli, entry)
    return result


def run_traced_pass(cli, argv, entries, inputs_dir, recorder, flip):
    """Every input once untraced and once traced, in alternating order, so
    both kinds of call see the same interpreter state."""
    plain = Pass(argv, inputs_dir)
    traced = Pass(argv, inputs_dir)
    gc.collect()
    for verdict, entry in enumerate(entries):
        recorder.verdict = verdict
        for tracing_on in ((False, True) if (verdict + flip) % 2 == 0 else (True, False)):
            if tracing_on:
                with recorder.installed():
                    traced.call(cli, entry)
            else:
                plain.call(cli, entry)
    return plain, traced


def tail(samples):
    """The highest sample with at least ten samples above it, its percentile."""
    ordered = sorted(samples)
    index = max(0, len(ordered) - 11)
    return ordered[index], 100.0 * (index + 1) / len(ordered)


def git_sha():
    if not (program.ROOT / ".git").exists():
        return None  # an exported checkout: git would answer for a parent directory
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=program.ROOT,
                          capture_output=True, text=True)
    return done.stdout.strip() or None


def input_summary(entries):
    kinds = {}
    for entry in entries:
        kinds[entry["kind"]] = kinds.get(entry["kind"], 0) + 1
    return {
        "graphs": len(entries),
        "kinds": kinds,
        "n_range": [min(e["n"] for e in entries), max(e["n"] for e in entries)],
        "m_range": [min(e["m"] for e in entries), max(e["m"] for e in entries)],
        "edges_per_pass": sum(e["m"] for e in entries),
        "negative_components": sum(e["negative_components"] for e in entries),
        "line_id_collision_inputs": sum(e["collision"] for e in entries),
    }


def decade_table(by_verdict, entries):
    """Per-layer nanoseconds per input edge, grouped by the decade of m."""
    from tracer import LAYER_METRICS

    groups = {}
    for verdict, totals in by_verdict.items():
        decade = f"1e{int(math.log10(max(1, entries[verdict]['m'])))}"
        groups.setdefault(decade, []).append((entries[verdict]["m"], totals.metrics()))
    table = {}
    for decade, rows in sorted(groups.items()):
        edges = sum(m for m, _ in rows)
        table[decade] = {
            "verdicts": len(rows),
            "edges": edges,
            "ns_per_edge": {
                name: 1e6 * sum(metrics[name] for _, metrics in rows) / edges
                for name, unit, _ in LAYER_METRICS
                if unit == "ms"
            },
        }
    return table


def measure(args, cli, workload, entries, inputs_dir, context):
    passes = max(1, round(args.seconds / workload.pass_seconds))
    runs = [run_pass(cli, workload.argv, entries, inputs_dir) for _ in range(passes)]
    samples = [s for run in runs for s in run.seconds]
    value, percentile = tail(samples)
    context.update(passes=passes, verdicts=len(samples),
                   tail_percentile=round(percentile, 2))
    metrics = {
        "verdict_p50_ms": 1e3 * statistics.median(samples),
        "verdict_tail_ms": 1e3 * value,
        "edges_per_s": sum(run.answered_edges for run in runs) / sum(samples),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return runs, metrics


def measure_traced(args, cli, workload, entries, inputs_dir, context):
    import tracer as tracing

    passes = max(1, round(args.seconds / (2 * workload.pass_seconds)))
    runs, ratios, layer_runs, spans = [], [], [], None
    for flip in range(passes):
        recorder = tracing.Tracer()
        plain, traced = run_traced_pass(cli, workload.argv, entries, inputs_dir, recorder, flip)
        runs += [plain, traced]
        ratios.append(sum(traced.seconds) / sum(plain.seconds) - 1)
        by_verdict = tracing.totals_by_verdict(recorder)
        layer_runs.append(tracing.merge(by_verdict.values()).metrics())
        if spans is None:
            spans = recorder.spans
            context["ns_per_edge_by_decade"] = decade_table(by_verdict, entries)
    counts_repeat = all(
        [layer[name] for name in tracing.COUNT_METRICS]
        == [layer_runs[0][name] for name in tracing.COUNT_METRICS]
        for layer in layer_runs
    )
    context.update(passes=passes, counts_repeat=counts_repeat)
    units = {name: unit for name, unit, _ in tracing.LAYER_METRICS}
    metrics = {}
    for name in units:
        metrics[name] = statistics.median(layer[name] for layer in layer_runs)
        metrics[f"{name}.per_verdict"] = metrics[name] / len(entries)
    metrics["trace.overhead_frac"] = statistics.median(ratios)
    units.update({f"{name}.per_verdict": unit for name, unit in units.items()})
    units["generate.build_ms"] = "ms"
    units["trace.overhead_frac"] = "ratio"
    metrics["generate.build_ms"] = context["generate_ms"]
    start = spans[0][1] if spans else 0.0
    (OUT / f"{args.workload}-seed{args.seed}-spans.json").write_text(json.dumps({
        "fields": ["name", "start_s", "end_s", "parent", "verdict"],
        "spans": [[n, s - start, e - start, p, v] for n, s, e, p, v in spans],
    }))
    return runs, metrics, units, counts_repeat


def run_workload(args, workload) -> int:
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    inputs_dir = OUT / tag
    shutil.rmtree(inputs_dir, ignore_errors=True)
    setups = [
        run_setup(args.workload, args.seed, inputs_dir, i == SETUP_RUNS - 1)
        for i in range(SETUP_RUNS)
    ]
    manifest = json.loads((inputs_dir / "manifest.json").read_text())
    entries = manifest["inputs"]

    import lineconsistency
    from lineconsistency import cli

    program.check_origin(lineconsistency)
    middle = sorted(setups, key=lambda s: s["setup_s"])[SETUP_RUNS // 2]
    context = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "loop": "closed, one client, one thread, in process",
        "pass_seconds": workload.pass_seconds,
        "setup_runs_s": [s["setup_s"] for s in setups],
        "import_s": middle["import_s"],
        "generate_ms": 1e3 * middle["generate_s"],
        "inputs": input_summary(entries),
    }
    # warm-up call on the smallest input, not measured: first-call costs
    smallest = min(entries, key=lambda e: e["m"])
    run_verdict(cli.main, list(workload.argv) + [str(inputs_dir / smallest["file"])])
    # The benchmark's own objects go to the permanent generation, so the
    # program's collections scan about what they would in a fresh process.
    gc.collect()
    gc.freeze()

    if args.trace:
        runs, metrics, units, consistent = measure_traced(
            args, cli, workload, entries, inputs_dir, context
        )
        prefix = "layer"
    else:
        runs, metrics = measure(args, cli, workload, entries, inputs_dir, context)
        units, consistent, prefix = END_TO_END_UNITS, True, "metric"
    shutil.rmtree(inputs_dir, ignore_errors=True)

    attempted = sum(len(run.seconds) for run in runs)
    wrong = sum(run.wrong for run in runs)
    failures = {}
    for run in runs:
        for kind, count in run.failures.items():
            failures[kind] = failures.get(kind, 0) + count
    failed = sum(failures.values())
    context["failures"] = failures
    if not args.trace:
        metrics["setup_s"] = statistics.median(s["setup_s"] for s in setups)
        metrics["wrong_verdicts"] = wrong
        metrics["failed_frac"] = failed / attempted
        metrics = {name: metrics[name] for name in END_TO_END_UNITS}
    for name, value in metrics.items():
        print(f"{prefix} {name} {value:.6g} {units[name]}")
    if not consistent:
        print("error: exact counts differ between traced passes", file=sys.stderr)
    print("context " + json.dumps(context, sort_keys=True))
    result = {
        "correct": wrong == 0 and consistent,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
            if name not in NOT_IN_METRICS
        },
    }
    (OUT / f"{tag}.json").write_text(json.dumps({"context": context, "result": result,
                                                 "reported": metrics}, indent=1))
    print(json.dumps(result))
    return 0


def run_all(args, names) -> int:
    """Every workload in its own process, then one table of their metrics."""
    rows, results = [], {}
    for name in names:
        command = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
        done = subprocess.run(command, capture_output=True, text=True)
        sys.stderr.write(done.stderr)
        lines = done.stdout.splitlines()
        if done.returncode != 0 or not lines:
            raise SystemExit(f"error: workload {name} failed")
        results[name] = json.loads(lines[-1])
        rows += [(name,) + tuple(line.split()[1:]) for line in lines
                 if line.startswith(("metric ", "layer "))]
    width = max(len(row[1]) for row in rows)
    for name, metric, value, unit in rows:
        print(f"{name:28} {metric:{width}} {value:>12} {unit}")
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {
            f"{name}/{metric}": entry
            for name, r in results.items()
            for metric, entry in r["metrics"].items()
        },
    }))
    return 0


def main(argv=None) -> int:
    program.use_checkout_sources()
    from workloads import WORKLOADS

    args = parse_args(argv, WORKLOADS)
    OUT.mkdir(exist_ok=True)
    if args.workload == "all":
        return run_all(args, WORKLOADS)
    return run_workload(args, WORKLOADS[args.workload])


if __name__ == "__main__":
    sys.exit(main())
