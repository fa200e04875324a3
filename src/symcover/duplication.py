"""Duplication of graph vertices and edges.

Both constructions replace each vertex x by shadow copies x.1, x.2, ... and
each edge {x, y} by the bipartite-like pattern {x.p, y.q : p + q <= r + 1},
where r is the multiplicity assigned to that edge.  Duplicating vertices
uses one global multiplicity k (every vertex gets exactly k shadows, even
isolated ones); duplicating edges takes one multiplicity per edge, in the
graph's canonical edge order, and only creates the shadows its expansions
need.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .graphs import Graph, GraphError, WhiskeredGraph, shadow_vertex


@dataclass(frozen=True)
class DuplicationTuple:
    """Per-edge duplication multiplicities, aligned with the edge order."""

    values: tuple[int, ...]

    def __post_init__(self) -> None:
        for v in self.values:
            if v < 0:
                raise GraphError(f"duplication multiplicities must be >= 0, got {v}")

    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self):
        return iter(self.values)

    def __getitem__(self, i: int) -> int:
        return self.values[i]

    @classmethod
    def constant(cls, k: int, length: int) -> DuplicationTuple:
        return cls((k,) * length)

    @classmethod
    def parse(cls, text: str) -> DuplicationTuple:
        try:
            return cls(tuple(int(part) for part in text.split(",")))
        except ValueError as exc:
            raise GraphError(f"malformed duplication tuple {text!r}") from exc

    def render(self) -> str:
        return ",".join(str(v) for v in self.values)


def coerce_tuple(t: DuplicationTuple | Sequence[int]) -> DuplicationTuple:
    return t if isinstance(t, DuplicationTuple) else DuplicationTuple(tuple(t))


def expand_edge(edge: tuple[str, str], r: int) -> tuple[tuple[str, str], ...]:
    """Shadow edges {x.p, y.q}, p + q <= r + 1, of one edge at multiplicity ``r``.

    Empty when r = 0.  This is the one shadow-edge rule of both duplications.
    """
    if r < 0:
        raise GraphError(f"edge multiplicity must be >= 0, got {r}")
    u, v = edge
    return tuple(
        (f"{u}.{p}", f"{v}.{q}")
        for p in range(1, r + 1)
        for q in range(1, r + 2 - p)
    )


def duplicate_edges(graph: Graph, t: DuplicationTuple | Sequence[int]) -> Graph:
    """Duplicate every edge by its own multiplicity.

    Shadows with the same (base, copy) coordinates are identified across
    edges.  Vertex order: base vertices in graph order, copies ascending.
    Edge order: edges in graph order, each expansion in (p, q) order.
    """
    t = coerce_tuple(t)
    if len(t) != graph.edge_count:
        raise GraphError(
            f"tuple length {len(t)} does not match the {graph.edge_count} edges of the graph"
        )
    copies: dict[str, int] = {}
    all_edges: list[tuple[str, str]] = []
    for edge, r in zip(graph.edges, t):
        all_edges.extend(expand_edge(edge, r))
        for end in edge:
            copies[end] = max(copies.get(end, 0), r)
    verts = [
        shadow_vertex(v.name, p)
        for v in graph.vertices
        for p in range(1, copies.get(v.name, 0) + 1)
    ]
    return Graph(verts, all_edges)


def duplicate_vertices(graph: Graph, k: int) -> Graph:
    """Duplicate every vertex k times; edges follow the p + q <= k + 1 rule.

    Equals edge duplication with the constant tuple (k, ..., k) except that
    every vertex gets exactly k shadows, so isolated vertices keep isolated
    shadows.  Vertex order: the shadow x_i.p of the i-th vertex (counting
    from 0) is vertex i*k + p - 1, which ``symbolic_power`` relies on.
    """
    if k < 1:
        raise GraphError(f"vertex duplication multiplicity must be >= 1, got {k}")
    verts = [shadow_vertex(v.name, p) for v in graph.vertices for p in range(1, k + 1)]
    edges = [shadow for edge in graph.edges for shadow in expand_edge(edge, k)]
    return Graph(verts, edges)


def shadows_of(graph: Graph, base: str) -> tuple[str, ...]:
    """Names of the shadow copies of ``base``, in copy order."""
    mine = [v for v in graph.vertices if v.kind == "shadow" and v.base == base]
    return tuple(v.name for v in sorted(mine, key=lambda v: v.copy or 0))


def satisfies_whisker_dominance(whiskered: WhiskeredGraph, t: DuplicationTuple | Sequence[int]) -> bool:
    """Check that every whisker edge's multiplicity dominates its support.

    For each support vertex x, the multiplicity of every whisker edge at x
    must be >= the multiplicity of every non-whisker edge incident to x.
    Vacuously true when there are no whiskers; constant tuples always pass.
    """
    t = coerce_tuple(t)
    graph = whiskered.graph
    if len(t) != graph.edge_count:
        raise GraphError(
            f"tuple length {len(t)} does not match the {graph.edge_count} edges of the graph"
        )
    by_edge = {frozenset(e): t[i] for i, e in enumerate(graph.edges)}
    for support in whiskered.support_set:
        incident = [
            by_edge[frozenset((support, nbr))]
            for nbr in whiskered.base.neighbors(support)
        ]
        if not incident:
            continue
        worst = max(incident)
        for edge in whiskered.whisker_edges[support]:
            if by_edge[frozenset(edge)] < worst:
                return False
    return True
