"""No code in the program that only tests call.

Every function, class and method defined in src/ics_scope (dunder methods
excepted, which Python calls itself) must be referenced somewhere in
src/ics_scope outside its own definition: by a name, an attribute or an
import alias. A definition only the tests reach belongs in the tests.
"""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "ics_scope"

_DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _referenced(tree: ast.AST) -> Counter:
    """Each name the tree refers to, by the number of places it does."""
    names: Counter[str] = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            names[node.attr] += 1
        elif isinstance(node, ast.alias):
            names[node.asname or node.name] += 1
    return names


def _definitions(tree: ast.Module, module: str):
    """(qualified name, name, node) of every definition in a module, nested ones included."""

    def walk(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, _DEFINITIONS):
                qualified = f"{prefix}.{child.name}"
                yield qualified, child.name, child
                yield from walk(child, qualified)
            else:
                yield from walk(child, prefix)

    yield from walk(tree, module)


def _unreferenced(src: Path = SRC) -> list[str]:
    trees = {path.stem: ast.parse(path.read_text(), str(path))
             for path in sorted(src.glob("*.py"))}
    everywhere: Counter[str] = Counter()
    for tree in trees.values():
        everywhere.update(_referenced(tree))
    unused = []
    for module, tree in trees.items():
        for qualified, name, node in _definitions(tree, module):
            if name.startswith("__") and name.endswith("__"):
                continue
            if everywhere[name] - _referenced(node)[name] == 0:
                unused.append(qualified)
    return unused


def test_every_definition_in_src_is_referenced_in_src():
    assert _unreferenced() == []


def test_a_definition_only_tests_call_is_reported(tmp_path):
    package = tmp_path / "ics_scope"
    package.mkdir()
    (package / "a.py").write_text(
        "from .b import used\n\n"
        "def caller():\n    return used()\n\n"
        "def recursive(n):\n    return recursive(n - 1) if n else 0\n\n"
        "class Kept:\n    def method(self):\n        return 1\n\n"
        "    def __repr__(self):\n        return ''\n\n"
        "def outer():\n    def inner():\n        return Kept().method()\n    return inner()\n")
    (package / "b.py").write_text(
        "def used():\n    return 1\n\ndef only_tests():\n    return caller, outer\n")
    assert _unreferenced(package) == ["a.recursive", "b.only_tests"]
