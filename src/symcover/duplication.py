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

Below the named graphs, a duplication is the adjacency rows that
``duplicated_edge_rows`` builds from edge index pairs, and this module is the
one place that knows where the shadows sit: ``shadow_blocks`` gives each base
vertex's block of consecutive rows as a mask, copies ascending, and the named
duplications take their shadows' names from such blocks.  Whisker dominance
is a list of edge position pairs (``dominance_rules``).
"""

from __future__ import annotations

from functools import cache
from itertools import accumulate
from typing import Sequence

from .graphs import Graph, GraphError, WhiskeredGraph


# the largest multiplicity, and so exponent, read from text: J(G)^(k) has
# generators with exponent k, and a slot mask holds one bit per unit of
# exponent, so a short file or flag could otherwise ask for gigabytes
MAX_MULTIPLICITY = 10_000


def parse_tuple(text: str) -> tuple[int, ...]:
    """A duplication tuple from comma-separated multiplicities in 0..MAX_MULTIPLICITY."""
    try:
        t = tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise GraphError(f"malformed duplication tuple {text!r}") from exc
    for v in t:
        if not 0 <= v <= MAX_MULTIPLICITY:
            raise GraphError(f"duplication multiplicity {v} is not in 0..{MAX_MULTIPLICITY}")
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


def duplicate_edges(graph: Graph, t: Sequence[int]) -> Graph:
    """Duplicate every edge by its own multiplicity.

    Shadows with the same (base, copy) coordinates are identified across
    edges.  Vertex order: base vertices in graph order, copies ascending.
    Edge order: edges in graph order, each expansion in (p, q) order.
    """
    _check_tuple_length(graph, t)
    return _named_duplication(graph, shadow_blocks(graph.vertex_count, graph.edge_indices, t), t)


def shadow_blocks(
    vertex_count: int, edges: Sequence[tuple[int, int]], t: Sequence[int]
) -> list[int]:
    """The mask of each base vertex's shadows in ``duplicated_edge_rows``.

    A vertex has as many shadows as its largest edge multiplicity, so one on
    no edge has none.  Its block follows those of the vertices before it,
    and its copy p is the block's p-th lowest bit.
    """
    copies = [0] * vertex_count
    for (i, j), r in zip(edges, t):
        copies[i] = max(copies[i], r)
        copies[j] = max(copies[j], r)
    return [((1 << c) - 1) << first for c, first in zip(copies, accumulate(copies, initial=0))]


def duplicated_edge_rows(
    vertex_count: int, edges: Sequence[tuple[int, int]], t: Sequence[int]
) -> list[int]:
    """Adjacency rows of ``duplicate_edges`` for a graph given by index pairs.

    ``edges`` lists the graph's edges as (i, j) vertex indices in edge
    order and ``t`` their multiplicities.  The rows follow the vertex order
    of ``duplicate_edges``, as laid out by ``shadow_blocks``.
    """
    blocks = shadow_blocks(vertex_count, edges, t)
    first = [b.bit_length() - b.bit_count() for b in blocks]  # row of each first shadow
    rows = [0] * sum(b.bit_count() for b in blocks)
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
    shadows.  Vertex order: base vertices in graph order, copies ascending.
    """
    if k < 1:
        raise GraphError(f"vertex duplication multiplicity must be >= 1, got {k}")
    blocks = [((1 << k) - 1) << (k * i) for i in range(graph.vertex_count)]
    return _named_duplication(graph, blocks, (k,) * graph.edge_count)


def _named_duplication(graph: Graph, blocks: Sequence[int], t: Sequence[int]) -> Graph:
    """The duplication of ``graph`` by t, its shadows x.1, x.2, ... in the rows ``blocks[x]``."""
    names = [f"{name}.{p}" for name, block in zip(graph.vertex_names, blocks)
             for p in range(1, block.bit_count() + 1)]
    first = [b.bit_length() - b.bit_count() for b in blocks]
    edges = [(names[first[i] + p - 1], names[first[j] + q - 1])
             for (i, j), r in zip(graph.edge_indices, t) for p, q in copy_pairs(r)]
    return Graph(names, edges)


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


def dominance_rules(whiskered: WhiskeredGraph) -> tuple[tuple[int, int], ...]:
    """Whisker dominance as (whisker edge, base edge) position pairs.

    One pair (w, b) per inequality t[w] >= t[b]: w is a whisker edge at a
    support and b a base edge at the same support, as positions in the
    whiskered graph's edge order.  A base edge of a support joins it to a
    vertex that is not its own leaf: another support's leaf has degree 1,
    so it is never adjacent.
    """
    edges = whiskered.graph.edges
    position = {frozenset(e): i for i, e in enumerate(edges)}
    pairs = []
    for support, leaves in whiskered.leaves.items():
        whiskers = [position[frozenset((support, leaf))] for leaf in leaves]
        bases = [i for i, e in enumerate(edges) if support in e and i not in whiskers]
        pairs += [(w, b) for w in whiskers for b in bases]
    return tuple(pairs)


def dominates(pairs: Sequence[tuple[int, int]], t: Sequence[int]) -> bool:
    """True iff t[w] >= t[b] for every pair (w, b) of ``dominance_rules``."""
    return all(t[w] >= t[b] for w, b in pairs)


def satisfies_whisker_dominance(whiskered: WhiskeredGraph, t: Sequence[int]) -> bool:
    """Check that every whisker edge's multiplicity dominates its support.

    For each support vertex x, the multiplicity of every whisker edge at x
    must be >= the multiplicity of every non-whisker edge incident to x.
    Vacuously true when there are no whiskers; constant tuples always pass.
    """
    _check_tuple_length(whiskered.graph, t)
    return dominates(dominance_rules(whiskered), t)


def _check_tuple_length(graph: Graph, t: Sequence[int]) -> None:
    if len(t) != graph.edge_count:
        raise GraphError(f"tuple length {len(t)} does not match "
                         f"the {graph.edge_count} edges of the graph")
