"""List the statements of ``src/lineconsistency`` that the test suite never runs.

    python3 scripts/unrun_lines.py [pytest arguments]

Runs the test suite (default: ``-q --continue-on-collection-errors tests``,
the tier-1 command) in this process under ``sys.settrace`` and
``threading.settrace``, recording every line event in the package's files,
then prints one ``file:line: text`` per statement none of whose header lines
ran.  A simple statement's header is all its lines; an ``if``, ``elif`` or
``while`` header is its condition's lines, since a multi-line condition fires
no event on its keyword's line; a ``for`` or ``with`` header runs from its
keyword to the end of its iterable or context expressions; a ``def`` or
``class`` header runs from its first decorator to its name.  A ``try``,
whose keyword runs no code, is left out; its parts are listed as statements
of their own.  Docstrings run no code either and are left out.  Code that
runs only in a child process, such as the console-script entry point, is
listed too.  Only the standard library and the test runner are used; the
run takes about as long as the suite does under a line tracer, a few
minutes.
"""

from __future__ import annotations

import ast
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "lineconsistency"


def header_lines(node: ast.stmt) -> range:
    """The lines whose events show that ``node`` ran."""
    if isinstance(node, (ast.If, ast.While)):
        return range(node.test.lineno, node.test.end_lineno + 1)
    if isinstance(node, (ast.For, ast.AsyncFor)):
        return range(node.lineno, node.iter.end_lineno + 1)
    if isinstance(node, (ast.With, ast.AsyncWith)):
        return range(node.lineno, max(item.context_expr.end_lineno for item in node.items) + 1)
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        first = min([node.lineno] + [d.lineno for d in node.decorator_list])
        return range(first, node.lineno + 1)
    return range(node.lineno, node.end_lineno + 1)


def runs_code(node: ast.stmt) -> bool:
    """False for a ``try`` keyword and a docstring, which emit no line event."""
    if isinstance(node, (ast.Try, getattr(ast, "TryStar", ast.Try))):
        return False
    return not (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
                and isinstance(node.value.value, str))


def unrun(path: Path, ran: set) -> list:
    """(line, text) of each statement in ``path`` none of whose header lines
    is in ``ran``, in line order."""
    text = path.read_text()
    lines = text.splitlines()
    found = []
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, ast.stmt) and runs_code(node):
            header = header_lines(node)
            if not any(line in ran for line in header):
                found.append((header[0], lines[header[0] - 1].strip()))
    return sorted(found)


def main(argv: list) -> int:
    files = {str(path): path for path in sorted(PACKAGE.glob("*.py"))}
    ran = {name: set() for name in files}

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def trace(frame, event, arg):
        return local if frame.f_code.co_filename in ran else None

    sys.path.insert(0, str(ROOT / "src"))
    import pytest

    threading.settrace(trace)
    sys.settrace(trace)
    try:
        code = pytest.main(argv or ["-q", "--continue-on-collection-errors",
                                    "-p", "no:cacheprovider", str(ROOT / "tests")])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    for name, path in files.items():
        for line, text in unrun(path, ran[name]):
            print(f"{path.relative_to(ROOT)}:{line}: {text}")
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
