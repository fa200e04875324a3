"""Every module-level private name in ``src/symcover`` is used in the package.

A private function, class or constant that nothing in ``src/`` references
besides its own definition is dead code; tests alone do not keep it alive.
So is an attribute that ``src/`` assigns and never reads.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).parent.parent / "src" / "symcover"


def defined_names(node: ast.stmt) -> list[str]:
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.Assign):
        return [t.id for t in node.targets if isinstance(t, ast.Name)]
    if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        return [node.target.id]
    return []


def used_names(node: ast.stmt) -> set[str]:
    used = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            used.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            used.add(sub.attr)
        elif isinstance(sub, ast.alias):
            used.add(sub.name)
    return used


def test_every_private_module_name_is_used_in_src():
    statements = [
        (path.name, node)
        for path in sorted(SRC.glob("*.py"))
        for node in ast.parse(path.read_text(encoding="utf-8")).body
    ]
    uses = [used_names(node) for _, node in statements]
    dead = []
    for i, (module, node) in enumerate(statements):
        for name in defined_names(node):
            if not name.startswith("_") or name.endswith("__"):
                continue
            if not any(name in names for j, names in enumerate(uses) if j != i):
                dead.append(f"{module}: {name}")
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
