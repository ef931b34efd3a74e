"""Time ``check --method ii --witness`` and read its peak memory at scale.

    python3 scripts/scale_check.py [--src DIR] [--sizes 10000 100000 1000000]
                                   [--inputs DIR] [--repeat N]

For each size n, two graphs are written with ``write_signed_graph``, each
unless its file is already there: ``INPUTS/random-n.json`` holds
``random_signed_graph(n // 2, n, 0.0, 1)``, a line-consistent graph with no
negative edge, so every pass of condition ii runs; ``INPUTS/spliced-n.json``
holds the same graph with its first edge x-y on a circle replaced by the
path x-u (+), u-w (-), w-y (+), so that only balance fails and the witness
is a negative circle.  Each run is a fresh ``python3 -m lineconsistency.cli``
process on the sources in ``--src`` (default: this checkout's ``src``),
given the file by its path (``"input": "file"``, which the CLI streams from
disk) and then through stdin (``"input": "stdin"``, read as one text); its
wall time, its own maximum resident set size (``ru_maxrss``, from
``os.wait4``) and the length of the witness it printed, if any, are printed
as one JSON line per run.  Inputs are written by a child process too, so
this process stays small.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

WRITE = """
import sys
from lineconsistency import (
    find_isthmi, new_signed_graph, random_signed_graph, write_signed_graph)
kind, n, path = sys.argv[1], int(sys.argv[2]), sys.argv[3]
graph = random_signed_graph(n // 2, n, 0.0, 1)
if kind == "spliced":
    isthmi = find_isthmi(graph)
    cut = next(t for t in graph.edge_triples() if t[0] not in isthmi)
    graph = new_signed_graph(graph.vertices + ("u", "w"), [
        *((eid, a, b, "+") for eid, a, b in graph.edge_triples() if eid != cut[0]),
        ("s1", cut[1], "u", "+"), ("s2", "u", "w", "-"), ("s3", "w", cut[2], "+")])
text = write_signed_graph(graph)
with open(path, "w", encoding="utf-8") as handle:
    handle.write(text)
"""


def child_env(src: Path) -> dict:
    return {**os.environ, "PYTHONPATH": str(src)}


def write_input(src: Path, kind: str, n: int, path: Path) -> None:
    if not path.exists():
        subprocess.run([sys.executable, "-c", WRITE, kind, str(n), str(path)],
                       env=child_env(src), check=True)


def timed_check(src: Path, path: Path, source: str) -> dict:
    """One CLI run on ``path``, named by its path (``source`` "file") or fed
    through stdin ("stdin"): exit code, wall seconds, maxrss in MB and the
    witness's length (None when none is printed)."""
    argv = [sys.executable, "-m", "lineconsistency.cli", "check", "--method", "ii",
            "--witness", "-" if source == "stdin" else str(path)]
    with open(path, "rb") as stdin, tempfile.TemporaryFile() as stdout:
        start = time.perf_counter()
        child = subprocess.Popen(argv, env=child_env(src), stdin=stdin, stdout=stdout)
        _, status, usage = os.wait4(child.pid, 0)
        seconds = time.perf_counter() - start
        stdout.seek(0)
        printed = stdout.read().decode()
    child.returncode = os.waitstatus_to_exitcode(status)  # reaped here, not by Popen
    _, found, witness = printed.partition("witness ")
    return {"exit": child.returncode, "seconds": round(seconds, 3),
            "maxrss_mb": round(usage.ru_maxrss / 1024, 1),
            "witness": len(json.loads(witness)["edges"]) if found else None}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src")
    parser.add_argument("--sizes", type=int, nargs="+", default=[10**4, 10**5, 10**6])
    parser.add_argument("--inputs", type=Path, default=None)
    parser.add_argument("--repeat", type=int, default=1)
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as scratch:
        inputs = args.inputs or Path(scratch)
        inputs.mkdir(parents=True, exist_ok=True)
        for n, kind in itertools.product(args.sizes, ("random", "spliced")):
            path = inputs / f"{kind}-{n}.json"
            write_input(args.src, kind, n, path)
            for _, source in itertools.product(range(args.repeat), ("file", "stdin")):
                run = timed_check(args.src, path, source)
                row = {"edges": n, "graph": kind, "input": source, "src": str(args.src),
                       **run}
                print(json.dumps(row), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
