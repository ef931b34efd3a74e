"""The benchmark's tracer wraps functions at the names their callers look
them up under; every such name must stay bound where the tracer reads it,
and an import no module reads is allowed only when the tracer wraps it.
Every binding the package calls through stays called there, so its span
keeps recording.  Every function, method and class of the package has a
reader, the modules the reader and the checks run on import no package
module but core and _traversal, and the witness search lives in analysis,
beside condition ii, and there alone a graph's forest is written."""

import ast
import importlib.util
import re
from pathlib import Path
from types import ModuleType

from lineconsistency import analysis
from lineconsistency.core import SignedGraph

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "bench" / "tracer.py"
PACKAGE = Path(analysis.__file__).parent


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


# The wrapped bindings that nothing in the package reads, so their spans read
# 0 on every run; ROADMAP item 7 deletes them or moves their spans.
DEAD_SPANS = {
    "io.new_signed_graph", "SignedGraph.negative_subgraph", "SignedGraph.without_edges",
    "analysis.find_isthmi", "analysis.blocks", "analysis.is_consistent_oracle",
    "analysis.enumerate_circles", "analysis.line_graph", "analysis.circle_vertex_sign",
}


def test_every_live_span_stays_live():
    """A module's binding is live when the module reads the name, or another
    package module reads it as ``module.attr``; a class's binding is live
    when a package module reads it as an attribute.  A live binding going
    dark loses its span's time, and a listed one coming alive leaves the
    list."""
    trees = {path.stem: ast.parse(path.read_text()) for path in PACKAGE.glob("*.py")}
    loaded = {stem: {node.id for node in ast.walk(tree)
                     if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
              for stem, tree in trees.items()}
    # (reading module, the name the attribute is read on, the attribute)
    attributes = {(stem, getattr(node.value, "id", None), node.attr)
                  for stem, tree in trees.items() for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    bindings = [(owner, attr) for owner, attr, _, _ in load_tracer().SPANS]
    bindings.append((analysis, "circle_vertex_sign"))
    dead = set()
    for owner, attr in bindings:
        if isinstance(owner, ModuleType):
            module = owner.__name__.rpartition(".")[2]
            live = attr in loaded[module] or any(
                (stem, module, attr) in attributes for stem in trees if stem != module)
            name = f"{module}.{attr}"
        else:
            live = any(read == attr for _, _, read in attributes)
            name = f"{owner.__name__}.{attr}"
        if not live:
            dead.add(name)
    assert dead == DEAD_SPANS


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


def parse(paths):
    return [ast.parse(path.read_text()) for path in sorted(paths)]


def definitions(trees):
    """The names of the functions, methods and classes in ``trees``."""
    return {
        node.name
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
    }


def methods(trees):
    """The names of the methods and properties in ``trees``: the functions
    defined in a class's body."""
    return {
        item.name
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
        for item in node.body
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
    }


def attributes_read(trees):
    """Every name read as an attribute in ``trees``."""
    return {node.attr for tree in trees for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)}


def names_read(trees):
    """Every name read as a variable or an attribute in ``trees``."""
    return attributes_read(trees) | {
        node.id
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }


def test_no_private_definition_is_left_unread():
    """Every function, method or class named with a single leading
    underscore is read somewhere in the package, by name or attribute."""
    trees = parse(PACKAGE.glob("*.py"))
    private = {name for name in definitions(trees)
               if name.startswith("_") and not name.startswith("__")}
    assert len(private) > 30  # the guard reads the package's own definitions
    assert not sorted(private - names_read(trees))


def readme_code():
    """README.md's code spans and code blocks, joined: the API it documents."""
    return " ".join(re.findall(r"```.*?```|`[^`\n]+`", (ROOT / "README.md").read_text(), re.S))


def test_no_public_definition_is_left_unread():
    """Every function, method or class named without a leading underscore
    is read by the package, by the benchmark (counting the attributes the
    tracer wraps), by README.md's code or by the acceptance suite.  A method
    or property counts as read only when a reader reads it as an attribute,
    so a variable of the same name does not keep it."""
    package = parse(PACKAGE.glob("*.py"))
    public = {name for name in definitions(package) if not name.startswith("_")}
    assert len(public) > 80  # the guard reads the package's own definitions
    members = methods(package)
    assert {"edges", "traversal"} <= members  # the guard sees methods and properties
    readers = package + parse((ROOT / "bench").glob("*.py")) + parse(
        [ROOT / "tests" / "test_acceptance.py"])
    code = readme_code()
    as_attribute = (attributes_read(readers) | set(re.findall(r"\.(\w+)", code))
                    | {attr for _, attr, _, _ in load_tracer().SPANS})
    by_name = names_read(readers) | set(re.findall(r"\w+", code))
    unread = {name for name in public - as_attribute if name in members or name not in by_name}
    assert not sorted(unread)


def package_imports(path):
    """The package modules ``path`` imports, by their names in the package;
    an absolute import of the package itself reads as ``__init__``."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and node.level:
            found.update([node.module] if node.module else [a.name for a in node.names])
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [node.module] if isinstance(node, ast.ImportFrom) else [
                alias.name for alias in node.names]
            found.update(name.partition(".")[2] or "__init__" for name in names
                         if name.split(".")[0] == "lineconsistency")
    return found


def test_production_modules_import_only_core_and_traversal():
    """The graph, its traversal, the JSON reader and writers and the line
    graph import no route: cycles, analysis and cli stay off their path."""
    assert package_imports(PACKAGE / "core.py") == {"_traversal"}  # the guard sees imports
    others = {name: package_imports(PACKAGE / name) - {"core", "_traversal"}
              for name in ("core.py", "_traversal.py", "io.py", "linegraph.py")}
    assert not {name: found for name, found in others.items() if found}


def forest_writes(path):
    """The subscripts under the key "forest" in ``path``: how a module
    caches a graph's forest, writing ``graph.__dict__["forest"]``."""
    return [node for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Subscript) and isinstance(node.slice, ast.Constant)
            and node.slice.value == "forest"]


def test_the_witness_search_lives_beside_condition_ii():
    """cycles holds the definitional routes and imports only core; the
    graph's cached forest, which condition ii and the negative-circle search
    read, is built in analysis alone, not by the graph."""
    assert package_imports(PACKAGE / "cycles.py") == {"core"}
    assert not hasattr(SignedGraph, "forest")
    writers = [path.name for path in sorted(PACKAGE.glob("*.py")) if forest_writes(path)]
    assert writers == ["analysis.py"]


def test_the_test_references_import_no_private_name():
    """tests/oracles.py builds its references from definitions and public
    names, so a fault in a private helper cannot move a route and its
    reference together."""
    imported = []
    for node in ast.walk(ast.parse((ROOT / "tests" / "oracles.py").read_text())):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("lineconsistency"):
            imported += [node.module] + [alias.name for alias in node.names]
        elif isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names
                         if alias.name.startswith("lineconsistency")]
    assert {"lineconsistency.analysis", "Verdict"} <= set(imported)  # the guard sees them
    assert not [name for name in imported if any(
        part.startswith("_") for part in name.split("."))]


def test_the_test_references_import_no_balance_engine():
    """tests/oracles.py reads balance from its definition, so it imports
    neither the routes' balance nor their negative-circle search nor the
    union-find both read."""
    tree = ast.parse((ROOT / "tests" / "oracles.py").read_text())
    imported = {alias.name for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names}
    assert "Verdict" in imported  # the guard sees the imported names
    assert not imported & {"is_balanced_fast", "find_negative_circle", "Forest"}
