"""Every public name of the library has a caller: a use in src/ beyond its
own definition, or in the acceptance suite.  A name nothing runs is deleted
with its tests, or waits here with the reason it stays."""

import ast
from pathlib import Path

ROOT = Path(__file__).parents[1]
# public names that neither the library nor an acceptance criterion calls yet
WAITING = {
    "photon_counts": "photon counting on the CLI (ROADMAP item 5) will call it",
    "fano_factor": "photon counting on the CLI (ROADMAP item 5) will call it",
    "intensity_samples": "photon counting on the CLI (ROADMAP item 5) will call it",
    "generate_trace": "the README's way to regenerate one trace by its index",
}


def _defined(tree):
    """(name, member) of the public top-level functions and classes, and of
    the public methods and properties of those classes (members)."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, False
            if isinstance(node, ast.ClassDef):
                yield from ((m.name, True) for m in node.body
                            if isinstance(m, ast.FunctionDef) and not m.name.startswith("_"))


def _used(tree):
    """(name, member) of each name and attribute the tree reads.  A member
    is read only as an attribute; the CLI's flags on its argparse namespace
    `args` (args.duration, say) are not the library's."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, False
        elif isinstance(node, ast.Attribute) and not (
                isinstance(node.value, ast.Name) and node.value.id == "args"):
            yield from ((node.attr, False), (node.attr, True))


def test_every_public_name_has_a_caller():
    library = sorted((ROOT / "src" / "beamsim").glob("*.py"))
    trees = {path: ast.parse(path.read_text())
             for path in [*library, ROOT / "tests" / "test_acceptance.py"]}
    defined = {name for path in library for name in _defined(trees[path])}
    used = {name for tree in trees.values() for name in _used(tree)}
    uncalled = {name for name, _ in defined - used}
    assert sorted(uncalled - set(WAITING)) == []
    assert sorted(set(WAITING) - uncalled) == []   # a deleted or called name leaves the list
