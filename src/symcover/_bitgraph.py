"""Bitmask subroutines shared by the graph layer and the decomposability engine.

Vertices are indices 0..n-1; vertex subsets and adjacency rows are Python
ints used as bitsets.  Everything here is exact and deterministic: iteration
is always in increasing bit order and Bron-Kerbosch uses a fixed pivot rule.
"""

from __future__ import annotations

from typing import Iterator, Sequence


def bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def components(adj: Sequence[int], mask: int) -> list[int]:
    """Connected components with an edge of the induced subgraph, as masks,
    in bit order.  An isolated vertex costs one row lookup and is left out."""
    out = []
    remaining = mask
    while remaining:
        seed = remaining & -remaining
        remaining ^= seed
        frontier = adj[seed.bit_length() - 1] & mask
        if not frontier:
            continue
        comp = seed | frontier
        while frontier:
            grown = 0
            while frontier:
                low = frontier & -frontier
                frontier ^= low
                grown |= adj[low.bit_length() - 1]
            frontier = grown & mask & ~comp
            comp |= frontier
        out.append(comp)
        remaining &= ~comp
    return out


def is_forest(adj: Sequence[int], mask: int) -> bool:
    """True if the induced subgraph on ``mask`` has no cycle.

    A graph is a forest iff every component has exactly one more vertex
    than it has edges.
    """
    for comp in components(adj, mask):
        edge_ends = sum((adj[v] & comp).bit_count() for v in bits(comp))
        if edge_ends // 2 != comp.bit_count() - 1:
            return False
    return True


def maximal_independent_sets(adj: Sequence[int], mask: int) -> Iterator[int]:
    """Yield the maximal independent sets of the induced subgraph on ``mask``.

    Bron-Kerbosch with pivoting on the complement graph, run on an explicit
    stack so that no recursion limit bounds the size of a set.  The empty
    graph has the single maximal independent set 0.
    """
    # non-neighborhood rows restricted to mask; independent sets are cliques
    # of this complement adjacency
    na = {v: mask & ~adj[v] & ~(1 << v) for v in bits(mask)}
    # frames [r, p, x, candidates not yet branched on]; the branch (r, p, x)
    # being opened is held outside the stack
    stack: list[list[int]] = []
    r, p, x = 0, mask, 0
    while True:
        if not p:
            if not x:
                yield r
        else:
            pivot = -1
            best = -1
            probe = p | x
            while probe:
                low = probe & -probe
                probe ^= low
                u = low.bit_length() - 1
                score = (p & na[u]).bit_count()
                if score > best:
                    best = score
                    pivot = u
            stack.append([r, p, x, p & ~na[pivot]])
        while stack:
            frame = stack[-1]
            cand = frame[3]
            if cand:
                low = cand & -cand
                v = low.bit_length() - 1
                r, p, x = frame[0] | low, frame[1] & na[v], frame[2] & na[v]
                frame[1] &= ~low
                frame[2] |= low
                frame[3] = cand ^ low
                break
            stack.pop()
        else:
            return
