"""The benchmark's tracer wraps functions at the names their callers look
them up under; every such name must stay bound where the tracer reads it."""

import importlib.util
from pathlib import Path

from lineconsistency import analysis

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_is_bound_on_its_owner():
    names = [(owner, attr) for owner, attr, _, _ in load_tracer().SPANS]
    names.append((analysis, "circle_vertex_sign"))
    missing = [
        f"{owner.__name__}.{attr}" for owner, attr in names if attr not in owner.__dict__
    ]
    assert not missing
