"""Write one workload's input files; run.py runs this in a child process.

    python3 bench/setup_inputs.py WORKLOAD SEED OUTDIR [--reference]

The set-up time covers the package import, seeded generation and writing
every input with ``io.write_signed_graph``, timed from inside this process.
It is printed as one JSON object.  With ``--reference`` the known answers are
then computed (outside the timed part) and written to OUTDIR/manifest.json.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import program


def main(argv) -> None:
    name, seed, out = argv[0], int(argv[1]), Path(argv[2])
    program.use_checkout_sources()
    start = time.perf_counter()
    import lineconsistency
    from lineconsistency.io import write_signed_graph

    import workloads

    imported = time.perf_counter()
    program.check_origin(lineconsistency)
    clock = workloads.GenerateClock()
    inputs = workloads.WORKLOADS[name].build(seed, clock)
    out.mkdir(parents=True, exist_ok=True)
    texts = []
    for i, item in enumerate(inputs):
        text = write_signed_graph(item.graph)
        (out / f"{i:05d}-{item.kind}.json").write_text(text, encoding="utf-8")
        texts.append(text)
    end = time.perf_counter()
    if "--reference" in argv[3:]:
        write_manifest(out, inputs, texts)
    print(json.dumps({
        "setup_s": end - start,
        "import_s": imported - start,
        "generate_s": clock.seconds,
    }))


def write_manifest(out: Path, inputs, texts) -> None:
    import reference

    entries = []
    for i, (item, text) in enumerate(zip(inputs, texts)):
        doc = json.loads(text)
        census = reference.negative_census(doc)
        entries.append({
            "file": f"{i:05d}-{item.kind}.json",
            "kind": item.kind,
            "n": len(doc["vertices"]),
            "m": len(doc["edges"]),
            "negative_components": sum(census.values()),
            "census": dict(census),
            "expected": reference.known_answer(item.kind, doc),
            "collision": reference.has_line_id_collision(doc),
        })
    (out / "manifest.json").write_text(json.dumps({"inputs": entries}), encoding="utf-8")


if __name__ == "__main__":
    main(sys.argv[1:])
