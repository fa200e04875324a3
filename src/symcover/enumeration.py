"""Exhaustive enumeration of small graphs up to isomorphism.

Graphs on n vertices are represented as frozensets of index pairs (i, j)
with i < j; the invariants and the connectivity test read bitmask adjacency
rows built once from those pairs.  Canonical forms are computed by brute
force: vertices are partitioned by an iterated neighborhood invariant and
the edge bitmask is maximized over all permutations that respect the
partition.  That is exponential in the worst case but entirely adequate
below ~8 vertices, which is all this package ever enumerates.  The same
permutations give the automorphism group: an automorphism preserves the
partition, so it is one of them.
"""

from __future__ import annotations

from functools import cache
from itertools import chain, combinations, permutations, product
from typing import Iterator, Sequence

from ._bitgraph import bits, components
from .graphs import Graph, build_graph

EdgeSet = frozenset[tuple[int, int]]


def _pair_index(n: int) -> dict[tuple[int, int], int]:
    return {pair: i for i, pair in enumerate(combinations(range(n), 2))}


def _rows(n: int, edges: EdgeSet) -> list[int]:
    """Adjacency rows of an indexed edge set, as bitmasks."""
    rows = [0] * n
    for i, j in edges:
        rows[i] |= 1 << j
        rows[j] |= 1 << i
    return rows


def _refined_classes(rows: Sequence[int]) -> list[list[int]]:
    """Partition vertices by an isomorphism-invariant signature."""
    n = len(rows)
    sig: list[tuple] = [(rows[v].bit_count(),) for v in range(n)]
    for _ in range(2):
        sig = [
            (*sig[v], tuple(sorted(sig[w] for w in bits(rows[v]))))
            for v in range(n)
        ]
    classes: dict[tuple, list[int]] = {}
    for v in range(n):
        classes.setdefault(sig[v], []).append(v)
    return [classes[key] for key in sorted(classes)]


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
    pair_index = _pair_index(n)
    best_mask = -1
    for perm in _class_respecting_permutations(_refined_classes(_rows(n, edges))):
        mask = 0
        for i, j in edges:
            a, b = perm[i], perm[j]
            if a > b:
                a, b = b, a
            mask |= 1 << pair_index[(a, b)]
        if mask > best_mask:
            best_mask = mask
    return (n, best_mask)


def automorphisms(rows: Sequence[int]) -> list[tuple[int, ...]]:
    """Aut(G) as permutations sigma, vertex v going to sigma[v].

    The candidates are the permutations inside the invariant classes; the
    ones that map every adjacency row onto the row of the image vertex are
    the automorphisms.  The identity comes first.
    """
    classes = _refined_classes(rows)
    # class-respecting relabelings send vertices to block positions; reading
    # the positions back through ``flat`` makes each one a permutation
    # within the classes, starting with the identity
    flat = [v for cls in classes for v in cls]
    found = []
    for perm in _class_respecting_permutations(classes):
        sigma = tuple(flat[perm[v]] for v in range(len(rows)))
        if all(
            sum(1 << sigma[w] for w in bits(row)) == rows[sigma[v]]
            for v, row in enumerate(rows)
        ):
            found.append(sigma)
    return found


@cache
def graphs_up_to_isomorphism(n: int) -> tuple[EdgeSet, ...]:
    """All graphs on exactly n vertices, one representative per class.

    Built by vertex augmentation: every representative on n-1 vertices is
    extended by a new vertex with every possible neighborhood, then
    deduplicated by canonical form.  Results are sorted by canonical form,
    so the order is reproducible.  Each level is built once per process.
    """
    if n == 0:
        return (frozenset(),)
    reps: dict[tuple, EdgeSet] = {}
    new = n - 1
    for smaller in graphs_up_to_isomorphism(n - 1):
        for neighborhood in range(1 << (n - 1)):
            edges = set(smaller)
            for v in range(n - 1):
                if neighborhood >> v & 1:
                    edges.add((v, new))
            candidate = frozenset(edges)
            key = canonical_form(n, candidate)
            if key not in reps:
                reps[key] = candidate
    return tuple(reps[key] for key in sorted(reps))


def _is_connected(n: int, edges: EdgeSet) -> bool:
    return n <= 1 or len(components(_rows(n, edges), (1 << n) - 1)) == 1


def connected_graphs_up_to_isomorphism(n: int) -> tuple[EdgeSet, ...]:
    return tuple(e for e in graphs_up_to_isomorphism(n) if _is_connected(n, e))


def as_graph(n: int, edges: EdgeSet) -> Graph:
    """Materialize an indexed edge set as a named graph x1..xn."""
    names = [f"x{i + 1}" for i in range(n)]
    return build_graph(names, sorted((names[i], names[j]) for i, j in edges))
