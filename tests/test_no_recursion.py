"""No function in ``src/symcover`` reaches itself through calls, but the
ones in ``ALLOWED``.

Python's recursion limit bounds how deep a recursion may go, so a walk over
a deep input (a long path, a large clique, a tall certificate) keeps its own
stack instead.  A call counts when it names a function of the same module by
its bare name (a module-level function, or one nested in an enclosing
function) or a method of the same class through ``self.``.  A function on a
cycle of that call graph recurses, directly or through others, so a check
for direct self-calls alone would miss a mutual pair.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).parent.parent / "src" / "symcover"
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)

ALLOWED = {
    "decomposability.py: DecompositionEngine.is_vd_mask":
        "one frame per link or deletion step; making it iterative is ROADMAP item 2",
}


def own_nodes(node: ast.AST):
    """Nodes under ``node``, not descending into nested functions or classes."""
    for child in ast.iter_child_nodes(node):
        yield child
        if not isinstance(child, (*FUNCTIONS, ast.ClassDef, ast.Lambda)):
            yield from own_nodes(child)


def call_graph(tree: ast.Module) -> dict[str, set[str]]:
    """Qualified name of each function -> qualified names of its callees."""
    graph: dict[str, set[str]] = {}

    def visit(fn, qual: str, cls: ast.ClassDef | None, scope: dict[str, str]) -> None:
        nested = [n for n in own_nodes(fn) if isinstance(n, FUNCTIONS)]
        scope = {**scope, **{n.name: f"{qual}.{n.name}" for n in nested}}
        methods = {n.name for n in cls.body if isinstance(n, FUNCTIONS)} if cls else set()
        callees = graph.setdefault(qual, set())
        for call in (n for n in own_nodes(fn) if isinstance(n, ast.Call)):
            f = call.func
            if isinstance(f, ast.Name) and f.id in scope:
                callees.add(scope[f.id])
            elif (isinstance(f, ast.Attribute) and isinstance(f.value, ast.Name)
                  and f.value.id == "self" and f.attr in methods):
                callees.add(f"{cls.name}.{f.attr}")
        for n in nested:
            visit(n, f"{qual}.{n.name}", cls, scope)

    module_scope = {n.name: n.name for n in tree.body if isinstance(n, FUNCTIONS)}
    for node in tree.body:
        if isinstance(node, FUNCTIONS):
            visit(node, node.name, None, module_scope)
        elif isinstance(node, ast.ClassDef):
            for method in (n for n in node.body if isinstance(n, FUNCTIONS)):
                visit(method, f"{node.name}.{method.name}", node, module_scope)
    return graph


def recursive_functions(graph: dict[str, set[str]]) -> list[str]:
    """Every function that reaches itself along the edges of ``graph``."""
    found = []
    for start, callees in graph.items():
        seen, stack = set(), list(callees)
        while stack:
            f = stack.pop()
            if f == start:
                found.append(start)
                break
            if f not in seen:
                seen.add(f)
                stack.extend(graph.get(f, ()))
    return found


def test_call_graph_sees_nested_and_mutual_recursion():
    tree = ast.parse(
        "def walk(t):\n"
        "    def go(u):\n"
        "        return [go(c) for c in u]\n"
        "    return go(t)\n"
        "class E:\n"
        "    def a(self, m):\n"
        "        return self.b(m)\n"
        "    def b(self, m):\n"
        "        return m and self.a(m - 1)\n"
        "    def c(self):\n"
        "        return walk(self.a(3))\n"
    )
    assert sorted(recursive_functions(call_graph(tree))) == ["E.a", "E.b", "walk.go"]


def test_only_the_allowed_functions_recurse():
    found = {
        f"{path.name}: {name}"
        for path in sorted(SRC.glob("*.py"))
        for name in recursive_functions(call_graph(ast.parse(path.read_text(encoding="utf-8"))))
    }
    assert found == set(ALLOWED), sorted(found ^ set(ALLOWED))
