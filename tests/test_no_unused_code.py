"""Every function, method and class of ``src/rlzg`` is named somewhere in
the program: ``src/``, ``demos/`` or ``perfbench/``.  Code that only
tests name belongs in the tests.

A definition counts as named when its name appears as a name, an
attribute, an imported name or an exact string constant (the tracer
finds functions by string).  Dunder methods are called by Python itself
and are exempt.
"""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PROGRAM = ("src", "demos", "perfbench")


def _names(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield from node.name.split(".")
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value


def test_every_definition_is_named_by_the_program():
    named: set[str] = set()
    defined = []
    for top in PROGRAM:
        for path in sorted((ROOT / top).rglob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            named.update(_names(tree))
            if top == "src":
                defined += [
                    (path.relative_to(ROOT), node.lineno, node.name)
                    for node in ast.walk(tree)
                    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                ]
    unused = [
        f"{path}:{line} {name}"
        for path, line, name in defined
        if name not in named and not (name.startswith("__") and name.endswith("__"))
    ]
    assert not unused, "named nowhere in the program:\n" + "\n".join(unused)
