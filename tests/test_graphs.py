from __future__ import annotations

import json
import random

import pytest

from symcover.graphs import (
    Graph,
    GraphError,
    StarCompleteSpec,
    WhiskeredGraph,
    add_whiskers,
    attach_star_complete,
    build_graph,
    fresh_names,
    glue_along_edge,
    graph_from_json_dict,
    graph_to_json_dict,
    parse_graph_text,
    render_graph_text,
)

from conftest import c4, cycle, fish, five_vertex_example, p3, single_edge, whiskered_fish
from oracles import (
    brute_independent,
    brute_maximal_independent_sets,
    brute_minimal_vertex_covers,
    brute_minimum_cycle_cover,
    dfs_has_cycle,
    is_simplicial_vertex,
    subsets,
)


def random_graph(rng, n, p=0.5):
    names = [f"v{i}" for i in range(1, n + 1)]
    edges = [(a, b) for i, a in enumerate(names) for b in names[i + 1 :] if rng.random() < p]
    return build_graph(names, edges)


# -- construction -----------------------------------------------------------

def test_build_graph_c4():
    g = c4()
    assert g.vertex_count == 4 and g.edge_count == 4
    assert g.edges[0] == ("x1", "x2")
    assert g.neighbors("x1") == {"x2", "x4"}


def test_build_graph_five_vertex_example():
    g = five_vertex_example()
    assert g.vertex_count == 5 and g.edge_count == 6
    assert g.degree("x2") == 3 and g.degree("x5") == 1


def test_vertex_provenance_validation():
    # a vertex is a nonempty name; which vertices are whiskers, and at which
    # support, is recorded by WhiskeredGraph alone
    assert Graph(["x1"]).vertex_names == ("x1",)
    with pytest.raises(GraphError, match="nonempty"):
        Graph(["x1", ""])
    graph = build_graph(["a", "b", "c"], [("a", "b"), ("a", "c")])
    w = WhiskeredGraph(graph=graph, leaves={"a": ("c",)})
    assert list(w.leaves) == ["a"] and w.leaves["a"] == ("c",)
    with pytest.raises(GraphError, match="no whisker edges"):
        WhiskeredGraph(graph=graph, leaves={"a": ()})


def test_whiskered_graph_rejects_a_leaf_listed_twice():
    graph = build_graph(["a", "b", "c"], [("a", "b"), ("a", "c")])
    with pytest.raises(GraphError, match="twice"):
        WhiskeredGraph(graph=graph, leaves={"a": ("c", "c")})
    doc = {"vertices": ["a", "b", "c"], "edges": [["a", "b"], ["a", "c"]],
           "whiskers": [{"support": "a", "leaf": "c"}, {"support": "a", "leaf": "c"}]}
    with pytest.raises(GraphError, match="twice"):
        graph_from_json_dict(doc)


def test_build_graph_rejects_loops_and_duplicates():
    with pytest.raises(GraphError):
        build_graph(["x1"], [("x1", "x1")])
    with pytest.raises(GraphError):
        build_graph(["a", "b"], [("a", "b"), ("b", "a")])
    with pytest.raises(GraphError):
        build_graph(["a", "a"], [])
    with pytest.raises(GraphError):
        build_graph(["a"], [("a", "b")])


def test_induced_subgraph_keeps_orders():
    g = five_vertex_example()
    h = g.induced_subgraph(["x2", "x3", "x4"])
    assert h.vertex_names == ("x2", "x3", "x4")
    assert h.edges == (("x2", "x3"), ("x2", "x4"), ("x3", "x4"))


# -- independence and covers --------------------------------------------------

def test_row_queries_match_edge_list(small_graph_atlas):
    # every expected answer is computed from ``graph.edges`` alone
    for g in small_graph_atlas:
        names = g.vertex_names
        keys = {frozenset(e) for e in g.edges}
        nbrs = {v: frozenset(w for key in keys if v in key for w in key - {v}) for v in names}
        for u in names:
            assert g.neighbors(u) == nbrs[u]
            assert g.degree(u) == len(nbrs[u])
            assert is_simplicial_vertex(g, u) == all(
                frozenset((a, b)) in keys for a in nbrs[u] for b in nbrs[u] if a != b
            )
            assert not g.has_edge(u, "zz")
            for w in names:
                assert g.has_edge(u, w) == (frozenset((u, w)) in keys)
        assert g.adjacency_masks() == [
            sum(1 << names.index(w) for w in nbrs[v]) for v in names
        ]
        reordered = build_graph(names, [(w, u) for u, w in reversed(g.edges)])
        assert reordered == g and hash(reordered) == hash(g)
        # relabel by reversing the vertex order: equal exactly when that
        # reversal is an automorphism
        flip = dict(zip(names, reversed(names)))
        relabelled = build_graph(names, [(flip[u], flip[w]) for u, w in g.edges])
        automorphic = {frozenset((flip[u], flip[w])) for u, w in g.edges} == keys
        assert (relabelled == g) == automorphic
        assert (hash(relabelled) == hash(g)) == automorphic
        if g.edges:
            assert build_graph(names, g.edges[:-1]) != g


def test_is_independent_set_examples():
    g = c4()
    assert brute_independent(g, {"x1", "x3"})
    assert not brute_independent(g, {"x1", "x2"})
    assert brute_independent(g, set())


def test_maximal_independent_sets_examples():
    assert c4().maximal_independent_sets() == [frozenset({"x1", "x3"}), frozenset({"x2", "x4"})]
    edgeless = build_graph(["a", "b"], [])
    assert edgeless.maximal_independent_sets() == [frozenset({"a", "b"})]
    assert p3().maximal_independent_sets() == [frozenset({"x2"}), frozenset({"x1", "x3"})]


def test_minimal_vertex_covers_examples():
    assert set(c4().minimal_vertex_covers()) == {frozenset({"x2", "x4"}), frozenset({"x1", "x3"})}
    assert set(single_edge().minimal_vertex_covers()) == {frozenset({"x"}), frozenset({"y"})}
    assert all(len(c) >= 3 for c in five_vertex_example().minimal_vertex_covers())


def test_independence_and_covers_match_brute_force():
    rng = random.Random(7)
    for _ in range(25):
        g = random_graph(rng, rng.randint(1, 7))
        assert set(g.maximal_independent_sets()) == brute_maximal_independent_sets(g)
        assert set(g.minimal_vertex_covers()) == brute_minimal_vertex_covers(g)
        # complement relation between the two collections
        everything = set(g.vertex_names)
        assert {frozenset(everything - f) for f in g.maximal_independent_sets()} == set(
            g.minimal_vertex_covers()
        )


def test_simplicial_vertex_examples():
    w = add_whiskers(c4(), ["x1"]).graph
    assert is_simplicial_vertex(w, "x5")
    assert not is_simplicial_vertex(c4(), "x1")
    k3 = build_graph(["a", "b", "c"], [("a", "b"), ("a", "c"), ("b", "c")])
    assert is_simplicial_vertex(k3, "a")


# -- cycle covers -------------------------------------------------------------

def test_is_cycle_cover_examples():
    g = five_vertex_example()
    assert g.is_cycle_cover({"x2"})
    assert not g.is_cycle_cover({"x5"})  # the triangle x1, x2, x4 survives
    assert g.is_cycle_cover(g.vertex_names)


def test_cycle_cover_matches_dfs_oracle():
    rng = random.Random(11)
    for _ in range(25):
        g = random_graph(rng, rng.randint(1, 6))
        for s in subsets(g.vertex_names):
            assert g.is_cycle_cover(s) == (not dfs_has_cycle(g, set(s)))


def test_every_vertex_cover_is_a_cycle_cover():
    rng = random.Random(13)
    for _ in range(25):
        g = random_graph(rng, rng.randint(1, 7))
        for cover in g.minimal_vertex_covers():
            assert g.is_cycle_cover(cover)


def test_minimum_cycle_cover_examples():
    assert five_vertex_example().minimum_cycle_cover() == {"x2"}
    forest = build_graph(["a", "b", "c"], [("a", "b"), ("b", "c")])
    assert forest.minimum_cycle_cover() == set()
    assert fish().minimum_cycle_cover() == {"x1"}


def test_minimum_cycle_cover_matches_brute_force():
    rng = random.Random(17)
    for _ in range(15):
        g = random_graph(rng, rng.randint(1, 6))
        ours = g.minimum_cycle_cover()
        brute = brute_minimum_cycle_cover(g)
        assert len(ours) == len(brute)
        assert g.is_cycle_cover(ours)


# -- whiskers -----------------------------------------------------------------

def test_add_whiskers_c4():
    w = add_whiskers(c4(), ["x1"])
    assert w.graph.vertex_count == 5 and w.graph.edge_count == 5
    assert w.graph.edges[4] == ("x1", "x5")
    assert w.leaves == {"x1": ("x5",)}


def test_add_whiskers_empty_support():
    w = add_whiskers(c4(), [])
    assert w.graph == c4()
    assert not w.leaves


def test_add_whiskers_fish_names_follow_figure():
    w = add_whiskers(fish(), ["x5"])
    assert w.graph.vertex_names == ("x1", "x2", "x3", "x4", "x5", "x6", "x7")
    assert w.graph.edges[-1] == ("x5", "x7")


def test_add_whiskers_round_trip():
    rng = random.Random(19)
    for _ in range(10):
        g = random_graph(rng, rng.randint(1, 6))
        supports = [v for v in g.vertex_names if rng.random() < 0.5]
        counts = {s: rng.randint(1, 3) for s in supports}
        w = add_whiskers(g, supports, counts)
        assert w.graph.delete_vertices(x for leaves in w.leaves.values() for x in leaves) == g
        assert list(w.leaves) == [v for v in g.vertex_names if v in counts]
        for s in supports:
            assert len(w.leaves[s]) == counts[s]
            for leaf in w.leaves[s]:
                assert w.graph.degree(leaf) == 1 and w.graph.has_edge(s, leaf)


def test_add_whiskers_rejects_bad_input():
    with pytest.raises(GraphError):
        add_whiskers(c4(), ["nope"])
    with pytest.raises(GraphError):
        add_whiskers(c4(), ["x1"], {"x1": 0})
    with pytest.raises(GraphError, match="x9"):
        add_whiskers(c4(), ["x1"], {"x1": 1, "x9": 4})
    # a count for a vertex outside the support set adds nothing
    assert add_whiskers(c4(), ["x1"], {"x1": 1, "x2": 3}) == add_whiskers(c4(), ["x1"])


def test_whiskered_graph_rejects_whisker_edge_that_is_not_an_edge():
    # c is recorded as a whisker of a, but its only edge is b-c
    graph = build_graph(["a", "b", "c"], [("a", "b"), ("b", "c")])
    with pytest.raises(GraphError, match="not an edge"):
        WhiskeredGraph(graph=graph, leaves={"a": ("c",)})


def test_whisker_names_fall_back_when_not_numbered():
    g = build_graph(["left", "right"], [("left", "right")])
    w = add_whiskers(g, ["left"])
    assert w.graph.vertex_names == ("left", "right", "w1")


@pytest.mark.parametrize("existing, count, stem, expected", [
    (["x1", "x2", "x3", "x4"], 2, "w", ["x5", "x6"]),   # a common stem continues
    (["x3", "x1"], 2, "w", ["x4", "x5"]),               # after the top, not in the gap
    (["x1", "y2"], 2, "w", ["w1", "w2"]),               # mixed stems
    (["left", "x1"], 1, "k", ["k1"]),                   # a name without digits
    (["a", "w1", "w3"], 3, "w", ["w2", "w4", "w5"]),    # collisions with the fallback
    (["w1", "w2"], 1, "w", ["w3"]),                     # the fallback as common stem
    ([], 2, "k", ["k1", "k2"]),                         # no existing names
    (["x1"], 0, "w", []),
])
def test_fresh_names_table(existing, count, stem, expected):
    assert fresh_names(existing, count, fallback_stem=stem) == expected


# -- gluing ---------------------------------------------------------------------

def test_glue_figure_shape():
    g = build_graph(
        ["x1", "x2", "x3", "x4", "x5"],
        [("x1", "x2"), ("x1", "x3"), ("x1", "x4"), ("x1", "x5"), ("x3", "x4"), ("x4", "x5")],
    )
    h = build_graph(
        ["x1", "x2", "x3", "x4"],
        [("x1", "x2"), ("x1", "x3"), ("x1", "x4"), ("x3", "x4")],
    )
    k = glue_along_edge(g, h, ("x1", "x2"))
    assert k.vertex_names == ("x1", "x2", "x3", "x4", "x5", "y3", "y4")
    assert k.vertex_count == g.vertex_count + h.vertex_count - 2
    assert k.edge_count == g.edge_count + h.edge_count - 1
    assert k.has_edge("x1", "y3") and k.has_edge("y3", "y4") and k.has_edge("x1", "y4")


def test_glue_bare_edge_is_idempotent():
    e = single_edge()
    assert glue_along_edge(e, e, ("x", "y")) == e


def test_glue_two_triangles_gives_diamond():
    t = build_graph(["a", "b", "c"], [("a", "b"), ("a", "c"), ("b", "c")])
    k = glue_along_edge(t, t, ("a", "b"))
    assert k.vertex_count == 4 and k.edge_count == 5
    assert not k.has_edge("c", "yc")


def test_glue_requires_shared_edge():
    with pytest.raises(GraphError):
        glue_along_edge(c4(), p3(), ("x1", "x3"))


# -- star complete attachments ---------------------------------------------------

def test_attach_triangle_gives_fish():
    g, classification = attach_star_complete(c4(), StarCompleteSpec("x1", (3,)))
    assert classification == "pure"
    assert g.vertex_count == 6 and g.edge_count == 7
    assert g.has_edge("x1", "x5") and g.has_edge("x1", "x6") and g.has_edge("x5", "x6")


def test_attach_k2_is_a_whisker():
    g, classification = attach_star_complete(c4(), StarCompleteSpec("x1", (2,)))
    assert classification == "non-pure"
    assert g == add_whiskers(c4(), ["x1"]).graph
    assert g.neighbors("x5") == {"x1"}


def test_attach_triangle_plus_whisker():
    g, classification = attach_star_complete(c4(), StarCompleteSpec("x1", (3, 2)))
    assert classification == "non-pure"
    assert g.vertex_count == 7 and g.edge_count == 8
    assert g.degree("x7") == 1


def test_attach_classification_rule():
    assert StarCompleteSpec("x", (3, 4, 5)).classification == "pure"
    assert StarCompleteSpec("x", (3, 2)).classification == "non-pure"
    with pytest.raises(GraphError):
        StarCompleteSpec("x", (1,))
    with pytest.raises(GraphError):
        attach_star_complete(c4(), StarCompleteSpec("zz", (3,)))


# -- files -----------------------------------------------------------------------

def test_text_round_trip():
    for g in (c4(), five_vertex_example(), whiskered_fish(), build_graph(["a"], [])):
        assert parse_graph_text(render_graph_text(g)).edges == g.edges
        assert parse_graph_text(render_graph_text(g)).vertex_names == g.vertex_names


def test_text_parse_errors():
    with pytest.raises(GraphError):
        parse_graph_text("edge: a b\n")
    with pytest.raises(GraphError):
        parse_graph_text("vertices: a b\nedge: a\n")
    with pytest.raises(GraphError):
        parse_graph_text("vertices: a b\nnonsense\n")


def test_json_round_trip_with_whiskers():
    w = add_whiskers(c4(), ["x1"], {"x1": 2})
    doc = graph_to_json_dict(w.graph, w)
    assert doc["whiskers"] == [
        {"support": "x1", "leaf": "x5"},
        {"support": "x1", "leaf": "x6"},
    ]
    back = graph_from_json_dict(json.loads(json.dumps(doc)))
    assert back == w.graph
    # the loader checks the whiskers and returns names only; the document's
    # whiskers are those of the record rebuilt around the loaded graph
    rebuilt = WhiskeredGraph(graph=back, leaves=w.leaves)
    assert rebuilt == w
    assert graph_to_json_dict(back, rebuilt) == doc
