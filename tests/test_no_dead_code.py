"""Every module-level private name in ``src/symcover`` is used in the package.

A private function, class or constant that nothing in ``src/`` references
besides its own definition is dead code; tests alone do not keep it alive.
So is a private method that nothing in ``src/`` calls outside its own body,
a public function or class that ``__init__.py`` does not export and
nothing else in ``src/`` references, and an attribute that ``src/`` assigns
and never reads.  A private name is also not imported into another module.
"""

from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path
from typing import Iterator

SRC = Path(__file__).parent.parent / "src" / "symcover"


def defined_names(node: ast.stmt) -> list[str]:
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.Assign):
        return [t.id for t in node.targets if isinstance(t, ast.Name)]
    if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        return [node.target.id]
    return []


def references(node: ast.AST) -> Iterator[str]:
    """Every name, attribute and imported name that ``node`` mentions."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.alias):
            yield sub.name


def used_names(node: ast.stmt) -> set[str]:
    return set(references(node))


def unreferenced(selected) -> list[str]:
    """Module-level names, chosen by ``selected(node, name)``, that no other
    top-level statement in ``src/`` references."""
    statements = [
        (path.name, node)
        for path in sorted(SRC.glob("*.py"))
        for node in ast.parse(path.read_text(encoding="utf-8")).body
    ]
    uses = [used_names(node) for _, node in statements]
    dead = []
    for i, (module, node) in enumerate(statements):
        for name in defined_names(node):
            if not selected(node, name):
                continue
            if not any(name in names for j, names in enumerate(uses) if j != i):
                dead.append(f"{module}: {name}")
    return dead


def test_every_private_module_name_is_used_in_src():
    dead = unreferenced(lambda node, name: name.startswith("_") and not name.endswith("__"))
    assert not dead, dead


def test_every_private_method_is_used_in_src():
    # a method's name is looked up as an attribute, so any reference by that
    # name outside the method's own body counts as a use
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py"))}
    uses = Counter(name for tree in trees.values() for name in references(tree))
    dead = [
        f"{module}: {cls.name}.{method.name}"
        for module, tree in trees.items()
        for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
        for method in cls.body
        if isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef))
        and method.name.startswith("_") and not method.name.endswith("__")
        and uses[method.name] == Counter(references(method))[method.name]
    ]
    assert not dead, dead


def test_every_public_name_outside_the_api_is_used_in_src():
    # a public function or class that __init__.py does not export has no
    # caller but the package itself
    init = ast.parse((SRC / "__init__.py").read_text(encoding="utf-8"))
    exported = {
        alias.name
        for node in init.body if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    dead = unreferenced(
        lambda node, name: isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not name.startswith("_") and name not in exported
    )
    assert not dead, dead


def test_every_stored_attribute_is_read_in_src():
    stored, read = [], set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute):
                if isinstance(node.ctx, ast.Store):
                    stored.append(f"{path.name}:{node.lineno}: {node.attr}")
                else:
                    read.add(node.attr)
    unread = [where for where in stored if where.rsplit(" ", 1)[1] not in read]
    assert not unread, unread


def test_no_module_imports_a_private_name_from_another():
    # a private name belongs to its own module; importing the private
    # module _bitgraph itself (``from . import _bitgraph``) is allowed
    crossings = [
        f"{path.name}: from .{node.module} import {alias.name}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ImportFrom) and node.module is not None
        for alias in node.names if alias.name.startswith("_")
    ]
    assert not crossings, crossings
