"""Property tests on random small graphs.

The search in mode ii gives every tuple of an Aut(h) orbit the verdict of
the orbit's first tuple; that rests on vertex decomposability being a graph
invariant, which the relabeling and orbit properties below check directly.
"""

from __future__ import annotations

from itertools import combinations

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from symcover.decomposability import DecompositionEngine, vertex_decomposable  # noqa: E402
from symcover.duplication import duplicate_edges  # noqa: E402
from symcover.enumeration import automorphisms, edge_permutation  # noqa: E402
from symcover.graphs import build_graph  # noqa: E402

from oracles import brute_vertex_decomposable  # noqa: E402

# a fixed example count and no example database: the same inputs every run
PROPERTY = settings(max_examples=200, deadline=None, derandomize=True, database=None)


@st.composite
def graphs(draw, max_vertices=7):
    n = draw(st.integers(1, max_vertices))
    pairs = list(combinations(range(n), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    names = [f"v{i}" for i in range(n)]
    return build_graph(names, [(names[i], names[j]) for (i, j), k in zip(pairs, keep) if k])


@PROPERTY
@given(graphs())
def test_engine_matches_the_definition(g):
    assert vertex_decomposable(g) == brute_vertex_decomposable(g)


@PROPERTY
@given(graphs(), st.randoms(use_true_random=False))
def test_verdict_ignores_vertex_labels(g, rng):
    relabel = list(range(g.vertex_count))
    rng.shuffle(relabel)
    rows = g.adjacency_masks()
    moved = [0] * len(rows)
    for v, row in enumerate(rows):
        moved[relabel[v]] = sum(1 << relabel[w] for w in range(len(rows)) if row >> w & 1)
    assert DecompositionEngine(moved).is_vd() == DecompositionEngine(rows).is_vd()


@st.composite
def graphs_with_tuples(draw):
    g = draw(graphs(max_vertices=5))
    t = draw(st.lists(st.integers(1, 3), min_size=g.edge_count, max_size=g.edge_count))
    return g, t


@PROPERTY
@given(graphs_with_tuples())
def test_edge_duplication_verdict_is_constant_on_orbits(case):
    g, t = case
    edges = [(g.index_of(u), g.index_of(v)) for u, v in g.edges]
    verdict = vertex_decomposable(duplicate_edges(g, t))
    for sigma in automorphisms(g.adjacency_masks()):
        image = [0] * len(t)
        for e, target in enumerate(edge_permutation(sigma, edges)):
            image[target] = t[e]
        assert vertex_decomposable(duplicate_edges(g, image)) == verdict, (g.edges, sigma, t)
