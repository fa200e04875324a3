from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))
# a test run leaves no bytecode cache under src/
sys.dont_write_bytecode = True

import hashlib

from symcover.decomposability import is_vertex_decomposable, linear_order_from_certificate
from symcover.duplication import duplicate_edges
from symcover.enumeration import as_graph, graphs_up_to_isomorphism
from symcover.graphs import StarCompleteSpec, add_whiskers, attach_star_complete, build_graph

FIXTURES = Path(__file__).parent.parent / "src" / "symcover" / "fixtures"


def c4():
    return build_graph(
        ["x1", "x2", "x3", "x4"],
        [("x1", "x2"), ("x2", "x3"), ("x3", "x4"), ("x1", "x4")],
    )


def p3():
    return build_graph(["x1", "x2", "x3"], [("x1", "x2"), ("x2", "x3")])


def single_edge():
    return build_graph(["x", "y"], [("x", "y")])


def cycle(n):
    return build_graph(
        [f"x{i}" for i in range(1, n + 1)],
        [(f"x{i}", f"x{i % n + 1}") for i in range(1, n + 1)],
    )


def five_vertex_example():
    # a 4-clique minus one edge, plus a pendant path: two triangles meet
    # along x2-x4 and x5 hangs off x3
    return build_graph(
        ["x1", "x2", "x3", "x4", "x5"],
        [("x1", "x2"), ("x1", "x4"), ("x2", "x3"), ("x2", "x4"), ("x3", "x4"), ("x3", "x5")],
    )


def fish():
    # 4-cycle x1..x4 with a triangle x1, x5, x6 attached at x1
    graph, _ = attach_star_complete(c4(), StarCompleteSpec("x1", (3,)))
    return graph


def whiskered_fish():
    return add_whiskers(fish(), ["x5"]).graph


def random_graph(rng, n, p=0.5, prefix="x"):
    """G(n, p) on ``prefix``1..``prefix``n, each pair drawn from ``rng`` in order."""
    names = [f"{prefix}{i}" for i in range(1, n + 1)]
    edges = [(a, b) for i, a in enumerate(names) for b in names[i + 1 :] if rng.random() < p]
    return build_graph(names, edges)


def boundary_duplication():
    """(C4 with a whisker at x1)(3,1,1,3,1): not decomposable, and x1.1 its one shedder."""
    w = add_whiskers(c4(), ["x1"])
    return duplicate_edges(w.graph, (3, 1, 1, 3, 1))


def certified_order_digest(max_vertices: int) -> str:
    """sha256 prefix of one line per graph on up to ``max_vertices``
    vertices, one per isomorphism class: "no", or the generators of the
    order read off its certificate."""
    digest = hashlib.sha256()
    for n in range(1, max_vertices + 1):
        for edges in graphs_up_to_isomorphism(n):
            g = as_graph(n, edges)
            cert = is_vertex_decomposable(g)
            line = "no" if cert is None else " ".join(
                m.render(g.vertex_names) for m in linear_order_from_certificate(g, cert))
            digest.update(f"{line}\n".encode())
    return digest.hexdigest()[:12]


@pytest.fixture(scope="session")
def small_graph_atlas():
    """All graphs on up to 7 vertices, one labeled representative per class."""
    atlas = []
    for n in range(1, 8):
        atlas.extend(as_graph(n, e) for e in graphs_up_to_isomorphism(n))
    return atlas
