from __future__ import annotations

import random
from itertools import product

import pytest

from symcover._bitgraph import bits
from symcover.duplication import (
    duplicate_edges,
    duplicate_vertices,
    duplicated_edge_rows,
    expand_edge,
    parse_tuple,
    render_tuple,
    satisfies_whisker_dominance,
    shadows_of,
)
from symcover.enumeration import automorphisms
from symcover.graphs import GraphError, add_whiskers, build_graph
from symcover.ideals import cover_ideal
from symcover.scenarios import _tuple_image_orders

from conftest import c4, cycle, fish, single_edge
from oracles import are_isomorphic


def random_graph(rng, n, p=0.5):
    names = [f"x{i}" for i in range(1, n + 1)]
    edges = [(a, b) for i, a in enumerate(names) for b in names[i + 1 :] if rng.random() < p]
    return build_graph(names, edges)


def pairs(edges):
    return {frozenset(e) for e in edges}


# -- expand_edge ---------------------------------------------------------------

def test_expand_edge_multiplicity_one_is_the_edge():
    assert expand_edge(("x1", "x2"), 1) == (("x1.1", "x2.1"),)


def test_expand_edge_multiplicity_two():
    assert pairs(expand_edge(("x1", "x2"), 2)) == {
        frozenset({"x1.1", "x2.1"}),
        frozenset({"x1.1", "x2.2"}),
        frozenset({"x1.2", "x2.1"}),
    }


def test_expand_edge_multiplicity_three():
    edges = expand_edge(("x3", "x4"), 3)
    assert len(edges) == 6
    # p + q <= 4 by direct enumeration
    expected = {(p, q) for p in range(1, 4) for q in range(1, 4) if p + q <= 4}
    got = {(int(u.split(".")[1]), int(v.split(".")[1])) for u, v in edges}
    assert got == expected


def test_expand_edge_zero_is_empty():
    assert expand_edge(("a", "b"), 0) == ()


# -- duplicate_edges -------------------------------------------------------------

@pytest.mark.parametrize("r", [0, 1, 2, 3])
def test_duplicate_single_edge_shadows(r):
    g = duplicate_edges(single_edge(), (r,))
    expected = [(base, p) for base in ("x", "y") for p in range(1, r + 1)]
    assert g.vertex_names == tuple(f"{base}.{p}" for base, p in expected)
    for base in ("x", "y"):
        assert shadows_of(g, base) == tuple(f"{base}.{p}" for p in range(1, r + 1))
    assert g.edges == expand_edge(("x", "y"), r)
    assert g.edge_count == r * (r + 1) // 2


def test_duplicate_edges_figure_counts():
    g = duplicate_edges(c4(), parse_tuple("1,2,3,2"))
    assert g.vertex_count == 10 and g.edge_count == 13
    assert shadows_of(g, "x1") == ("x1.1", "x1.2")
    assert shadows_of(g, "x3") == ("x3.1", "x3.2", "x3.3")


def test_shadows_are_read_off_dotted_names():
    # a base name may itself contain a dot: the shadows of a are a.1, a.2,
    # and those of a.1 are a.1.1, a.1.2; a.0 and a.01 are nobody's shadows
    g = build_graph(["a", "a.1", "b"], [("a", "b"), ("a.1", "b")])
    dup = duplicate_edges(g, (2, 3))
    assert shadows_of(dup, "a") == ("a.1", "a.2")
    assert shadows_of(dup, "a.1") == ("a.1.1", "a.1.2", "a.1.3")
    assert shadows_of(dup, "b") == ("b.1", "b.2", "b.3")
    assert shadows_of(dup, "c") == ()
    assert shadows_of(duplicate_vertices(g, 2), "a.1") == ("a.1.1", "a.1.2")
    # copy order, not vertex order, and only names of the form base.p, p >= 1
    mixed = build_graph(["a.10", "a.2", "a.0", "a.01", "a.x", "a.1"], [])
    assert shadows_of(mixed, "a") == ("a.1", "a.2", "a.10")


def test_tuple_text_round_trip_and_errors():
    assert parse_tuple("1,2,3,2") == (1, 2, 3, 2)
    assert parse_tuple("0") == (0,)
    assert render_tuple((1, 2, 3, 2)) == "1,2,3,2"
    for bad in ("", "1,,2", "1,x", "1.5", "1,-1"):
        with pytest.raises(GraphError):
            parse_tuple(bad)


def test_duplicate_edges_identity_tuple():
    g = c4()
    dup = duplicate_edges(g, (1, 1, 1, 1))
    assert are_isomorphic(dup, g)
    assert dup.vertex_names == ("x1.1", "x2.1", "x3.1", "x4.1")


def test_duplicate_edges_zero_tuple_is_empty():
    dup = duplicate_edges(c4(), (0, 0, 0, 0))
    assert dup.vertex_count == 0 and dup.edge_count == 0


def test_duplicate_edges_length_mismatch():
    with pytest.raises(GraphError):
        duplicate_edges(c4(), (1, 1, 1))


def test_shadow_identification_across_edges():
    # x2 sits on two edges with different multiplicities; its shadows appear once
    g = build_graph(["x1", "x2", "x3"], [("x1", "x2"), ("x2", "x3")])
    dup = duplicate_edges(g, (1, 2))
    assert dup.vertex_names == ("x1.1", "x2.1", "x2.2", "x3.1", "x3.2")


def test_edge_duplication_rows_match_named_graphs():
    for base in (cycle(3), c4(), fish()):
        h = add_whiskers(base, base.minimum_cycle_cover()).graph
        edges = [(h.index_of(u), h.index_of(v)) for u, v in h.edges]
        for t in product((1, 2, 3), repeat=h.edge_count):
            assert duplicated_edge_rows(h.vertex_count, edges, t) == (
                duplicate_edges(h, t).adjacency_masks()
            ), (base.edges, t)


def shadow_positions(vertex_count, edges, t):
    """Row index of each shadow (x, p) in ``duplicated_edge_rows``."""
    copies = [0] * vertex_count
    for (i, j), r in zip(edges, t):
        copies[i] = max(copies[i], r)
        copies[j] = max(copies[j], r)
    slots = [(x, p) for x in range(vertex_count) for p in range(1, copies[x] + 1)]
    return {slot: row for row, slot in enumerate(slots)}


def test_automorphisms_carry_edge_duplications_onto_each_other():
    # x.p -> sigma(x).p maps the duplication by t onto the duplication by
    # sigma.t, where (sigma.t)[sigma(e)] = t[e]; the paw whiskered at its
    # degree-3 vertex has an automorphism swapping its own leaf and a whisker
    paw = build_graph(["x1", "x2", "x3", "x4"],
                      [("x1", "x2"), ("x1", "x3"), ("x2", "x3"), ("x1", "x4")])
    cases = [(c4(), c4().minimum_cycle_cover()), (fish(), fish().minimum_cycle_cover()),
             (paw, ["x1"])]
    for base, cover in cases:
        h = add_whiskers(base, cover).graph
        edges = [(h.index_of(u), h.index_of(v)) for u, v in h.edges]
        group = automorphisms(h.adjacency_masks())[1:]
        orders = _tuple_image_orders(h.adjacency_masks(), edges)
        assert group and len(orders) == len(group), base.edges
        for sigma, order in zip(group, orders):
            for t in product((1, 2, 3), repeat=len(edges)):
                image = [t[i] for i in order]
                source = shadow_positions(h.vertex_count, edges, t)
                target = shadow_positions(h.vertex_count, edges, image)
                to = {row: target[(sigma[x], p)] for (x, p), row in source.items()}
                rows = duplicated_edge_rows(h.vertex_count, edges, t)
                mapped = [0] * len(rows)
                for a, row in enumerate(rows):
                    mapped[to[a]] = sum(1 << to[b] for b in bits(row))
                assert mapped == duplicated_edge_rows(h.vertex_count, edges, image), (
                    base.edges, sigma, t)


def test_edge_duplication_rows_with_zero_entries():
    g = build_graph(["a", "b", "c", "d"], [("a", "b"), ("b", "c"), ("c", "d")])
    edges = [(0, 1), (1, 2), (2, 3)]
    for t in product((0, 1, 2), repeat=3):
        assert duplicated_edge_rows(4, edges, t) == duplicate_edges(g, t).adjacency_masks()


# -- duplicate_vertices ------------------------------------------------------------

def test_duplicate_vertices_figure_counts():
    g = duplicate_vertices(c4(), 2)
    assert g.vertex_count == 8 and g.edge_count == 12


def test_duplicate_vertices_k1_is_renaming():
    g = duplicate_vertices(c4(), 1)
    assert are_isomorphic(g, c4())


def test_duplicate_vertices_single_edge_k3():
    g = duplicate_vertices(single_edge(), 3)
    assert g.vertex_count == 6 and g.edge_count == 6


def test_duplicate_vertices_rejects_k0():
    with pytest.raises(GraphError):
        duplicate_vertices(c4(), 0)


def test_vertex_and_edge_duplication_agree():
    rng = random.Random(23)
    for _ in range(12):
        g = random_graph(rng, rng.randint(1, 5))
        k = rng.randint(1, 3)
        by_vertex = duplicate_vertices(g, k)
        by_edge = duplicate_edges(g, (k,) * g.edge_count)
        assert pairs(by_vertex.edges) == pairs(by_edge.edges)
        # vertex sets agree up to isolated shadows of isolated base vertices
        isolated = {v for v in g.vertex_names if g.degree(v) == 0}
        expected_extra = {f"{v}.{p}" for v in isolated for p in range(1, k + 1)}
        assert set(by_vertex.vertex_names) - set(by_edge.vertex_names) == expected_extra
        assert cover_ideal(by_vertex) == cover_ideal(by_edge)


def test_monotone_tuples_give_subgraphs():
    # entrywise larger tuples only add shadows and shadow edges; the smaller
    # duplication is a subgraph under the shared naming (not induced: a path
    # with tuples (1,2) vs (2,2) gains the edge x1.1-x2.2 between old names)
    rng = random.Random(29)
    for _ in range(12):
        g = random_graph(rng, rng.randint(2, 5))
        if not g.edge_count:
            continue
        small = [rng.randint(0, 2) for _ in range(g.edge_count)]
        big = [v + rng.randint(0, 2) for v in small]
        lo = duplicate_edges(g, small)
        hi = duplicate_edges(g, big)
        assert set(lo.vertex_names) <= set(hi.vertex_names)
        assert pairs(lo.edges) <= pairs(hi.edges)


def test_monotone_induced_counterexample():
    path = build_graph(["x1", "x2", "x3"], [("x1", "x2"), ("x2", "x3")])
    lo = duplicate_edges(path, (1, 2))
    hi = duplicate_edges(path, (2, 2))
    assert not lo.has_edge("x1.1", "x2.2")
    assert hi.has_edge("x1.1", "x2.2")  # both endpoints already exist in lo


def test_deletion_identity_on_random_instances():
    # removing the first k shadows of a vertex is the same construction with
    # every incident multiplicity lowered by k, up to isolated vertices
    rng = random.Random(31)
    done = 0
    while done < 15:
        g = random_graph(rng, rng.randint(2, 5))
        if not g.edge_count:
            continue
        done += 1
        t = [rng.randint(1, 3) for _ in range(g.edge_count)]
        x = rng.choice([v for v in g.vertex_names if g.degree(v) > 0])
        k = rng.randint(1, 3)
        dup = duplicate_edges(g, t)
        removed = [f"{x}.{p}" for p in range(1, k + 1) if dup.has_vertex(f"{x}.{p}")]
        left = dup.delete_vertices(removed)

        reduced = [
            max(0, r - k) if x in e else r
            for e, r in zip(g.edges, t)
        ]
        right = duplicate_edges(g, reduced)

        def strip(graph):
            return graph.induced_subgraph([v for v in graph.vertex_names if graph.degree(v) > 0])

        assert are_isomorphic(strip(left), strip(right))


# -- whisker dominance ---------------------------------------------------------------

def test_constant_tuples_always_dominate():
    w = add_whiskers(c4(), ["x1", "x3"])
    for k in (1, 2, 3):
        assert satisfies_whisker_dominance(w, (k,) * w.graph.edge_count)


def test_boundary_tuple_fails_dominance():
    w = add_whiskers(c4(), ["x1"])
    assert not satisfies_whisker_dominance(w, (3, 1, 1, 3, 1))
    assert satisfies_whisker_dominance(w, (3, 1, 1, 3, 3))


def test_dominance_vacuous_without_whiskers():
    w = add_whiskers(c4(), [])
    assert satisfies_whisker_dominance(w, (0, 5, 1, 2))


def test_dominance_checks_every_whisker():
    w = add_whiskers(c4(), ["x1"], {"x1": 2})
    # edges: 4 cycle edges then whiskers (x1, x5), (x1, x6)
    assert satisfies_whisker_dominance(w, (2, 1, 1, 2, 2, 2))
    assert not satisfies_whisker_dominance(w, (2, 1, 1, 2, 2, 1))


def test_dominance_length_mismatch():
    w = add_whiskers(c4(), ["x1"])
    with pytest.raises(GraphError):
        satisfies_whisker_dominance(w, (1, 1, 1))
