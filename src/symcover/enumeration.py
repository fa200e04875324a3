"""Exhaustive enumeration of small graphs up to isomorphism.

Graphs on n vertices are represented as frozensets of index pairs (i, j)
with i < j; the invariants and the connectivity test read bitmask adjacency
rows built once from those pairs.  Canonical forms are computed by brute
force: vertices are partitioned by an iterated neighborhood invariant,
ranked to small integers after each round, and the edge bitmask is
maximized over all permutations that respect the partition, each pair's
bit read from a table cached per vertex count.  That is exponential in the
worst case but entirely adequate below ~8 vertices, which is all this
package ever enumerates.  The same permutations give the automorphism
group: an automorphism preserves the partition, so it is one of them, and
a permutation is one exactly when it maps every edge onto an edge.

The levels up to 7 vertices never change, so they ship as a table,
``graphs7.txt``, that vertex augmentation generated; only level 8 is
augmented at run time.
"""

from __future__ import annotations

import os
from functools import cache
from itertools import chain, combinations, permutations, product
from typing import Iterable, Iterator, Sequence

from ._bitgraph import bits, components
from .graphs import Graph, build_graph

EdgeSet = frozenset[tuple[int, int]]


@cache
def _pair_bits(n: int) -> tuple[tuple[int, ...], ...]:
    """``bit[a][b]``: the edge-mask bit of the pair {a, b} on n vertices,
    pairs numbered in ``combinations`` order."""
    bit = [[0] * n for _ in range(n)]
    for i, (a, b) in enumerate(combinations(range(n), 2)):
        bit[a][b] = bit[b][a] = 1 << i
    return tuple(map(tuple, bit))


def _rows(n: int, edges: EdgeSet) -> list[int]:
    """Adjacency rows of an indexed edge set, as bitmasks."""
    rows = [0] * n
    for i, j in edges:
        rows[i] |= 1 << j
        rows[j] |= 1 << i
    return rows


def _refined_classes(rows: Sequence[int]) -> list[list[int]]:
    """Partition vertices by an isomorphism-invariant signature.

    A vertex's signature starts as its degree; each round pairs it with the
    sorted signatures of its neighbors.  After each round a signature is
    replaced by its rank among the distinct ones.  Ranking keeps every
    comparison, so the classes and their order are those that the nested
    signatures would give, but the next round compares small integers.
    """
    nbrs = [list(bits(row)) for row in rows]
    rank = [len(nb) for nb in nbrs]
    for _ in range(2):
        sig = [(rank[v], tuple(sorted([rank[w] for w in nb]))) for v, nb in enumerate(nbrs)]
        index = {key: i for i, key in enumerate(sorted(set(sig)))}
        rank = [index[key] for key in sig]
    classes: list[list[int]] = [[] for _ in index]
    for v, r in enumerate(rank):
        classes[r].append(v)
    return classes


def _class_respecting_permutations(classes: list[list[int]]) -> Iterator[tuple[int, ...]]:
    """All relabelings sending the i-th invariant class to the i-th block of
    positions; only within-class arrangements vary.  The block layout depends
    only on the (sorted) class signatures, so isomorphic graphs search the
    same target space.  The last class varies fastest.
    """
    mapping = [0] * sum(len(cls) for cls in classes)
    for arrangement in product(*(permutations(cls) for cls in classes)):
        for position, v in enumerate(chain.from_iterable(arrangement)):
            mapping[v] = position
        yield tuple(mapping)


def canonical_form(n: int, edges: EdgeSet) -> tuple:
    """A label-independent key for a graph on vertices 0..n-1."""
    bit = _pair_bits(n)
    best_mask = -1
    for perm in _class_respecting_permutations(_refined_classes(_rows(n, edges))):
        mask = 0
        for i, j in edges:
            mask |= bit[perm[i]][perm[j]]
        if mask > best_mask:
            best_mask = mask
    return (n, best_mask)


def automorphisms(rows: Sequence[int]) -> list[tuple[int, ...]]:
    """Aut(G) as permutations sigma, vertex v going to sigma[v].

    The candidates are the permutations inside the invariant classes; the
    ones that map every edge onto an edge are the automorphisms (a
    bijection that maps the finite edge set into itself is onto).  The
    identity comes first.
    """
    classes = _refined_classes(rows)
    edges = [(v, w) for v, row in enumerate(rows) for w in bits(row) if w > v]
    # class-respecting relabelings send vertices to block positions; reading
    # the positions back through ``flat`` makes each one a permutation
    # within the classes, starting with the identity
    flat = [v for cls in classes for v in cls]
    found = []
    for perm in _class_respecting_permutations(classes):
        sigma = tuple(flat[perm[v]] for v in range(len(rows)))
        if all(rows[sigma[v]] >> sigma[w] & 1 for v, w in edges):
            found.append(sigma)
    return found


def _tabled_level(n: int) -> tuple[EdgeSet, ...]:
    """Level n, 1 <= n <= 7, read from the bundled table.

    Line n of the table lists the level's representatives, in order, each
    as the hex mask of its edges with pairs numbered as in ``_pair_bits``.
    Only that line is parsed.
    """
    with open(os.path.join(os.path.dirname(__file__), "graphs7.txt"), encoding="ascii") as table:
        line = table.read().splitlines()[n - 1]
    pairs = list(combinations(range(n), 2))
    return tuple(frozenset(pairs[i] for i in bits(int(mask, 16))) for mask in line.split())


def _augmented(n: int, parents: Iterable[EdgeSet]) -> tuple[EdgeSet, ...]:
    """Level n built from level n-1 by vertex augmentation.

    Every representative on n-1 vertices is extended by a new vertex with
    every possible neighborhood, then deduplicated by canonical form; the
    first candidate of each class is kept.  Results are sorted by canonical
    form, so the order is reproducible.
    """
    reps: dict[tuple, EdgeSet] = {}
    new = n - 1
    for smaller in parents:
        for neighborhood in range(1 << new):
            edges = set(smaller)
            for v in range(new):
                if neighborhood >> v & 1:
                    edges.add((v, new))
            candidate = frozenset(edges)
            key = canonical_form(n, candidate)
            if key not in reps:
                reps[key] = candidate
    return tuple(reps[key] for key in sorted(reps))


@cache
def graphs_up_to_isomorphism(n: int) -> tuple[EdgeSet, ...]:
    """All graphs on exactly n vertices, one representative per class.

    Levels up to 7 vertices (1,252 graphs) are read from the bundled table,
    which ``_augmented`` generated; larger levels are augmented from there.
    Each level is produced once per process.
    """
    if n == 0:
        return (frozenset(),)
    if n <= 7:
        return _tabled_level(n)
    level = _tabled_level(7)
    for m in range(8, n + 1):
        level = _augmented(m, level)
    return level


def _is_connected(n: int, edges: EdgeSet) -> bool:
    return n <= 1 or components(_rows(n, edges), (1 << n) - 1) == [(1 << n) - 1]


def connected_graphs_up_to_isomorphism(n: int) -> tuple[EdgeSet, ...]:
    return tuple(e for e in graphs_up_to_isomorphism(n) if _is_connected(n, e))


def as_graph(n: int, edges: EdgeSet) -> Graph:
    """Materialize an indexed edge set as a named graph x1..xn."""
    names = [f"x{i + 1}" for i in range(n)]
    return build_graph(names, sorted((names[i], names[j]) for i, j in edges))
