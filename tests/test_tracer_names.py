"""The benchmark's tracer wraps functions at the names their callers look
them up under; every such name must stay bound where the tracer reads it,
and an import no module reads is allowed only when the tracer wraps it."""

import ast
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


def unused_imports(path):
    """The names ``path``'s imports bind that the module never reads."""
    tree = ast.parse(path.read_text())
    imported = {
        (alias.asname or alias.name).split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        or isinstance(node, ast.ImportFrom) and node.module != "__future__"
        for alias in node.names
    }
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return imported - used


def test_no_module_imports_a_name_it_does_not_use():
    # a binding the tracer wraps may be imported only so that it can be wrapped
    traced = {(owner.__name__, attr) for owner, attr, _, _ in load_tracer().SPANS}
    traced.add((analysis.__name__, "circle_vertex_sign"))
    unused = [
        f"{path.stem}.{name}"
        for path in sorted(Path(analysis.__file__).parent.glob("*.py"))
        if path.name != "__init__.py"
        for name in sorted(unused_imports(path))
        if (f"lineconsistency.{path.stem}", name) not in traced
    ]
    assert not unused


def private_definitions(trees):
    """The names of the functions, methods and classes in ``trees`` whose
    names begin with a single underscore."""
    return {
        node.name
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name.startswith("_") and not node.name.startswith("__")
    }


def names_read(trees):
    """Every name read as a variable or an attribute in ``trees``."""
    return {
        node.id if isinstance(node, ast.Name) else node.attr
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        or isinstance(node, ast.Attribute)
    }


def test_no_private_definition_is_left_unread():
    """Every function, method or class named with a single leading
    underscore is read somewhere in the package, by name or attribute."""
    trees = [ast.parse(path.read_text())
             for path in sorted(Path(analysis.__file__).parent.glob("*.py"))]
    private = private_definitions(trees)
    assert len(private) > 30  # the guard reads the package's own definitions
    assert not sorted(private - names_read(trees))
