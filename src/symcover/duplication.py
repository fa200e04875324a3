"""Duplication of graph vertices and edges.

Both constructions replace each vertex x by shadow copies x.1, x.2, ... and
each edge {x, y} by the bipartite-like pattern {x.p, y.q : p + q <= r + 1},
where r is the multiplicity assigned to that edge.  Duplicating vertices
uses one global multiplicity k (every vertex gets exactly k shadows, even
isolated ones); duplicating edges takes one multiplicity per edge, in the
graph's canonical edge order, and only creates the shadows its expansions
need.  The name ``x.p`` is the only record of which vertex a shadow copies,
as it is for the slots of ``ideals.polarize``.

A duplication tuple is a plain ``tuple[int, ...]``, one multiplicity per
edge; ``parse_tuple`` and ``render_tuple`` convert it from and to the
comma-separated text of the CLI and the reports.

The counterexample search builds edge duplications as adjacency rows
(``duplicated_edge_rows``) and checks whisker dominance on edge positions
(``dominance_rules``), by the same rules as the named versions.
"""

from __future__ import annotations

from functools import cache
from typing import Sequence

from .graphs import Graph, GraphError, WhiskeredGraph


def parse_tuple(text: str) -> tuple[int, ...]:
    """A duplication tuple from comma-separated multiplicities, each >= 0."""
    try:
        t = tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise GraphError(f"malformed duplication tuple {text!r}") from exc
    for v in t:
        if v < 0:
            raise GraphError(f"duplication multiplicities must be >= 0, got {v}")
    return t


def render_tuple(t: Sequence[int]) -> str:
    return ",".join(map(str, t))


@cache
def copy_pairs(r: int) -> tuple[tuple[int, int], ...]:
    """Copy indices (p, q), p + q <= r + 1, of one edge at multiplicity ``r``.

    In (p, q) order; empty when r = 0.  This is the one shadow-edge rule of
    both duplications and of ``duplicated_edge_rows``.
    """
    if r < 0:
        raise GraphError(f"edge multiplicity must be >= 0, got {r}")
    return tuple((p, q) for p in range(1, r + 1) for q in range(1, r + 2 - p))


def expand_edge(edge: tuple[str, str], r: int) -> tuple[tuple[str, str], ...]:
    """Shadow edges {x.p, y.q}, p + q <= r + 1, of one edge at multiplicity ``r``."""
    u, v = edge
    return tuple((f"{u}.{p}", f"{v}.{q}") for p, q in copy_pairs(r))


def duplicate_edges(graph: Graph, t: Sequence[int]) -> Graph:
    """Duplicate every edge by its own multiplicity.

    Shadows with the same (base, copy) coordinates are identified across
    edges.  Vertex order: base vertices in graph order, copies ascending.
    Edge order: edges in graph order, each expansion in (p, q) order.
    """
    if len(t) != graph.edge_count:
        raise GraphError(
            f"tuple length {len(t)} does not match the {graph.edge_count} edges of the graph"
        )
    pairs = [(graph.index_of(u), graph.index_of(v)) for u, v in graph.edges]
    verts = [
        f"{name}.{p}"
        for name, c in zip(graph.vertex_names, _copy_counts(graph.vertex_count, pairs, t))
        for p in range(1, c + 1)
    ]
    edges = [shadow for edge, r in zip(graph.edges, t) for shadow in expand_edge(edge, r)]
    return Graph(verts, edges)


def _copy_counts(vertex_count: int, edges: Sequence[tuple[int, int]], t: Sequence[int]) -> list[int]:
    """Shadows per vertex in an edge duplication: its largest edge multiplicity."""
    copies = [0] * vertex_count
    for (i, j), r in zip(edges, t):
        copies[i] = max(copies[i], r)
        copies[j] = max(copies[j], r)
    return copies


def duplicated_edge_rows(
    vertex_count: int, edges: Sequence[tuple[int, int]], t: Sequence[int]
) -> list[int]:
    """Adjacency rows of ``duplicate_edges`` for a graph given by index pairs.

    ``edges`` lists the graph's edges as (i, j) vertex indices in edge
    order and ``t`` their multiplicities.  The rows follow the vertex order
    of ``duplicate_edges``: base vertices in order, copies ascending.
    """
    first = []  # row of each vertex's first shadow
    total = 0
    for c in _copy_counts(vertex_count, edges, t):
        first.append(total)
        total += c
    rows = [0] * total
    for (i, j), r in zip(edges, t):
        for p, q in copy_pairs(r):
            a = first[i] + p - 1
            b = first[j] + q - 1
            rows[a] |= 1 << b
            rows[b] |= 1 << a
    return rows


def duplicate_vertices(graph: Graph, k: int) -> Graph:
    """Duplicate every vertex k times; edges follow the p + q <= k + 1 rule.

    Equals edge duplication with the constant tuple (k, ..., k) except that
    every vertex gets exactly k shadows, so isolated vertices keep isolated
    shadows.  Vertex order: the shadow x_i.p of the i-th vertex (counting
    from 0) is vertex i*k + p - 1, which ``symbolic_power`` relies on.
    """
    if k < 1:
        raise GraphError(f"vertex duplication multiplicity must be >= 1, got {k}")
    verts = [f"{name}.{p}" for name in graph.vertex_names for p in range(1, k + 1)]
    edges = [shadow for edge in graph.edges for shadow in expand_edge(edge, k)]
    return Graph(verts, edges)


def split_shadow(name: str) -> tuple[str, int] | None:
    """The base and copy p of a shadow name ``base.p``, or None for any other name.

    The base is nonempty; p >= 1 is in ASCII digits with no leading zero.
    """
    stem, _, p = name.rpartition(".")
    if stem and p.isascii() and p.isdigit() and p[0] != "0":
        return stem, int(p)
    return None


def shadows_of(graph: Graph, base: str) -> tuple[str, ...]:
    """The shadows ``base.p`` (p >= 1) among the vertices of ``graph``, in copy order."""
    copies = sorted(
        (shadow[1], name)
        for name in graph.vertex_names
        if (shadow := split_shadow(name)) and shadow[0] == base
    )
    return tuple(name for _, name in copies)


DominanceRule = tuple[tuple[int, ...], tuple[int, ...]]


def dominance_rules(whiskered: WhiskeredGraph) -> tuple[DominanceRule, ...]:
    """Whisker dominance as edge positions, one rule per support vertex.

    A rule is (positions of the support's base edges, positions of its
    whisker edges) in the whiskered graph's edge order; supports without
    base edges give no rule.  A base edge of a support joins it to a vertex
    that is not its own leaf: another support's leaf has degree 1, so it is
    never adjacent.
    """
    graph = whiskered.graph
    position = {frozenset(e): i for i, e in enumerate(graph.edges)}
    rules = []
    for support, leaves in whiskered.leaves.items():
        incident = tuple(
            position[frozenset((support, nbr))]
            for nbr in graph.neighbors(support) if nbr not in leaves
        )
        if incident:
            rules.append((incident, tuple(position[frozenset((support, x))] for x in leaves)))
    return tuple(rules)


def dominates(rules: Sequence[DominanceRule], t: Sequence[int]) -> bool:
    """True iff at every rule each whisker entry is >= each base-edge entry."""
    return all(
        min(t[i] for i in whiskers) >= max(t[i] for i in incident)
        for incident, whiskers in rules
    )


def satisfies_whisker_dominance(whiskered: WhiskeredGraph, t: Sequence[int]) -> bool:
    """Check that every whisker edge's multiplicity dominates its support.

    For each support vertex x, the multiplicity of every whisker edge at x
    must be >= the multiplicity of every non-whisker edge incident to x.
    Vacuously true when there are no whiskers; constant tuples always pass.
    """
    graph = whiskered.graph
    if len(t) != graph.edge_count:
        raise GraphError(
            f"tuple length {len(t)} does not match the {graph.edge_count} edges of the graph"
        )
    return dominates(dominance_rules(whiskered), t)
