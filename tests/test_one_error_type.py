"""Every input the library rejects raises DomainError, its one exception
type, so a caller has one type to catch and the CLI one exit code to give.
The only other raises are a bare re-raise and the end of an Ensemble."""

import ast
from pathlib import Path

ROOT = Path(__file__).parents[1]


def _raises(node, scope=""):
    """(scope, raised name, line) of each raise under node: the scope is the
    dotted class and function path, and a bare re-raise names None."""
    for child in ast.iter_child_nodes(node):
        inner = scope
        if isinstance(child, (ast.ClassDef, ast.FunctionDef)):
            inner = f"{scope}.{child.name}" if scope else child.name
        elif isinstance(child, ast.Raise):
            exc = child.exc.func if isinstance(child.exc, ast.Call) else child.exc
            yield scope, None if exc is None else ast.unparse(exc), child.lineno
        yield from _raises(child, inner)


def _allowed(scope, name):
    return name in ("DomainError", None) or (scope, name) == ("Ensemble.__next__", "StopIteration")


def test_every_raise_is_a_domain_error():
    stray = [f"{path.name}:{line}: {scope} raises {name}"
             for path in sorted((ROOT / "src" / "beamsim").glob("*.py"))
             for scope, name, line in _raises(ast.parse(path.read_text()))
             if not _allowed(scope, name)]
    assert stray == []
