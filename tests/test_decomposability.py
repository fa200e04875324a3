from __future__ import annotations

import random

import pytest

from symcover.cli import main
from symcover.decomposability import (
    DecompositionCertificate,
    DecompositionEngine,
    check_shedding_sequence,
    is_shedding_vertex,
    is_vertex_decomposable,
    linear_order_from_certificate,
    render_certificate,
    validate_certificate,
    vertex_decomposable,
)
from symcover.duplication import duplicate_edges, duplicate_vertices
from symcover.graphs import GraphError, add_whiskers, build_graph, save_graph
from symcover.ideals import cover_ideal, has_linear_quotients, is_linear_quotients_order

from conftest import (
    boundary_duplication, c4, certified_order_digest, cycle, p3, random_graph, single_edge,
    whiskered_fish,
)
from oracles import (
    brute_is_shedding,
    brute_vertex_decomposable,
    is_shedding_vertex_by_definition,
    is_simplicial_vertex,
    reference_certificate,
)


# -- shedding ---------------------------------------------------------------------

def test_whisker_support_sheds():
    w = add_whiskers(c4(), ["x1"]).graph
    assert is_shedding_vertex(w, "x1")


def test_c4_has_no_shedding_vertex():
    for v in c4().vertex_names:
        assert not is_shedding_vertex(c4(), v)


def test_boundary_duplication_has_unique_shedding_vertex():
    g = boundary_duplication()
    shedders = [v for v in g.vertex_names if is_shedding_vertex(g, v)]
    assert shedders == ["x1.1"]


def test_shedding_restatement_matches_literal_definition():
    rng = random.Random(73)
    for _ in range(30):
        g = random_graph(rng, rng.randint(1, 6))
        for v in g.vertex_names:
            assert is_shedding_vertex(g, v) == is_shedding_vertex_by_definition(g, v)


def test_shedding_matches_brute_oracle():
    rng = random.Random(79)
    for _ in range(20):
        g = random_graph(rng, rng.randint(1, 6))
        for v in g.vertex_names:
            assert is_shedding_vertex(g, v) == brute_is_shedding(g, v)


def test_neighbors_of_simplicial_vertices_shed():
    rng = random.Random(83)
    for _ in range(30):
        g = random_graph(rng, rng.randint(2, 7))
        for v in g.vertex_names:
            if g.degree(v) > 0 and is_simplicial_vertex(g, v):
                for w in g.neighbors(v):
                    assert is_shedding_vertex(g, w)


def test_isolated_vertices_never_shed():
    g = build_graph(["a", "b", "c"], [("a", "b")])
    assert not is_shedding_vertex(g, "c")


def test_sheds_on_induced_subgraphs_matches_brute_oracle():
    rng = random.Random(109)
    for _ in range(200):
        g = random_graph(rng, rng.randint(1, 9), p=rng.random())
        engine = DecompositionEngine(g.adjacency_masks())
        for mask in (g.full_mask(), *(rng.getrandbits(g.vertex_count) for _ in range(3))):
            sub = g.induced_subgraph(g.names_of(mask))
            for name in sub.vertex_names:
                assert engine.sheds(mask, g.index_of(name)) == brute_is_shedding(sub, name), (
                    g.edges, sub.vertex_names, name)


def test_sheds_edge_cases():
    # v isolated inside the mask, though not in the whole graph
    g = build_graph(["v", "a", "b"], [("v", "a"), ("a", "b")])
    engine = DecompositionEngine(g.adjacency_masks())
    assert not engine.sheds(g.mask_of(["v", "b"]), g.index_of("v"))
    # G - N[v] empty: every neighbor is dominated by v
    star = build_graph(["v", "a", "b"], [("v", "a"), ("v", "b")])
    assert is_shedding_vertex(star, "v")
    # C5: no neighbor of v is dominated, and covering one kills the other
    # neighbor's only candidate, so v sheds only after a dead-end branch
    c5 = build_graph(["v", "w1", "w2", "a", "b"],
                     [("v", "w1"), ("v", "w2"), ("w1", "a"), ("w2", "b"), ("a", "b")])
    assert is_shedding_vertex(c5, "v") and brute_is_shedding(c5, "v")
    # w1 has the fewest candidates, {a, b}; the dead one blocks all of w2's
    # and the other blocks none, so v does not shed: the other and c cover
    # w1 and w2.  Both labelings are checked so either branch order meets
    # the dead end
    for dead in ("a", "b"):
        h = build_graph(
            ["v", "w1", "w2", "a", "b", "c", "d", "e"],
            [("v", "w1"), ("v", "w2"), ("w1", "a"), ("w1", "b"),
             ("w2", "c"), ("w2", "d"), ("w2", "e"),
             (dead, "c"), (dead, "d"), (dead, "e")],
        )
        assert not is_shedding_vertex(h, "v") and not brute_is_shedding(h, "v")


# -- vertex decomposability ----------------------------------------------------------

def test_edgeless_graph_certificate_has_no_nodes():
    g = build_graph(["a", "b"], [])
    cert = is_vertex_decomposable(g)
    assert cert == DecompositionCertificate(())
    assert validate_certificate(g, cert)


def test_whiskered_fish_is_decomposable_at_k1_not_k2():
    wf = whiskered_fish()
    cert = is_vertex_decomposable(wf)
    assert cert is not None and validate_certificate(wf, cert)
    assert is_vertex_decomposable(duplicate_vertices(wf, 2)) is None


def test_boundary_duplication_not_decomposable():
    assert not vertex_decomposable(boundary_duplication())


def test_long_path_is_decomposable():
    # the number of maximal independent sets of a path grows exponentially,
    # so this stays fast only because the shedding test never lists them
    names = [f"x{i}" for i in range(1, 121)]
    assert vertex_decomposable(build_graph(names, list(zip(names, names[1:])))) is True


def test_verdict_matches_brute_recursion():
    rng = random.Random(89)
    for _ in range(30):
        g = random_graph(rng, rng.randint(1, 6))
        assert vertex_decomposable(g) == brute_vertex_decomposable(g)


def test_link_rule_keeps_verdicts_and_certificates(small_graph_atlas):
    # refuting a component at a failing vertex link changes which masks get
    # decided, never a verdict or the memoized shedder of a VD component
    for g in small_graph_atlas:
        cert, expected = is_vertex_decomposable(g), reference_certificate(g)
        assert (cert is None) == (expected is None), g.edges
        if cert is not None:
            assert render_certificate(cert) == render_certificate(expected), g.edges


def test_sparse_no_is_refuted_at_a_failing_link(monkeypatch):
    # G(50, 0.08) from this seed is not VD.  Trying every candidate, as the
    # engine did before the link rule, takes 136,240 shedding tests to say
    # so; the link sweep needs 21.  Counted, since wall time is not stable.
    g = random_graph(random.Random(13), 50, p=0.08)
    sheds = DecompositionEngine.sheds
    calls = []

    def counting(self, mask, v):
        calls.append(v)
        if len(calls) > 100:
            pytest.fail("more than 100 shedding tests")
        return sheds(self, mask, v)

    monkeypatch.setattr(DecompositionEngine, "sheds", counting)
    assert not vertex_decomposable(g)


def test_neighbors_of_simplicial_vertices_skip_the_shedding_test(monkeypatch):
    # every component of a path the engine meets has a simplicial end, so the
    # clique rule decides it by the links of that end's closed neighborhood
    # and stores the end's neighbor with no shedding test; one that runs the
    # test on each shedder makes 38 calls on P_40.  Counted, since wall time
    # is not stable.
    names = [f"x{i}" for i in range(1, 41)]
    sheds = DecompositionEngine.sheds
    calls = []

    def counting(self, mask, v):
        calls.append(v)
        return sheds(self, mask, v)

    monkeypatch.setattr(DecompositionEngine, "sheds", counting)
    assert vertex_decomposable(build_graph(names, list(zip(names, names[1:]))))
    assert calls == []


def test_a_clique_is_decided_by_its_links_alone():
    # every vertex of K_50 is simplicial and every link is empty, so the
    # clique rule decides K_50 without deciding any deletion: one memo entry,
    # where an engine that decides each deletion leaves 49.
    full = (1 << 50) - 1
    engine = DecompositionEngine([full & ~(1 << v) for v in range(50)])
    assert engine.is_vd()
    assert engine._shedder == {full: 0}


def test_certificate_walk_asks_the_engine_only_on_a_memo_miss(monkeypatch):
    # the walk reads each memoized shedder itself.  On C8 whiskered at every
    # vertex, at k = 3, all 69 components it walks are in the memo, so it
    # asks the engine no more than the verdict did; a walk that asks for
    # every component makes 69 more calls.  A triangle's deletion is one the
    # clique rule skips, so its walk decides that component on demand.
    real = DecompositionEngine.is_vd_mask
    asked = []

    def counting(self, mask):
        asked.append(mask)
        return real(self, mask)

    monkeypatch.setattr(DecompositionEngine, "is_vd_mask", counting)
    g = duplicate_vertices(add_whiskers(cycle(8), cycle(8).vertex_names).graph, 3)
    assert vertex_decomposable(g)
    verdict_calls = len(asked)
    asked.clear()
    cert = is_vertex_decomposable(g)
    assert len(cert.nodes) == 69 and len(asked) == verdict_calls
    triangle = build_graph(["a", "b", "c"], [("a", "b"), ("a", "c"), ("b", "c")])
    cert = is_vertex_decomposable(triangle)
    assert render_certificate(cert) == "shed a from {a, b, c}\nshed b from {b, c}"
    assert validate_certificate(triangle, cert)


def test_verdict_invariant_under_relabeling():
    # the verdict is canonical even though the certificate is not: shuffle
    # vertex order and names, re-ask, compare
    rng = random.Random(97)
    for _ in range(20):
        g = random_graph(rng, rng.randint(1, 8))
        names = list(g.vertex_names)
        shuffled = names.copy()
        rng.shuffle(shuffled)
        rename = dict(zip(names, shuffled))
        h = build_graph(
            sorted(shuffled),
            [(rename[u], rename[v]) for u, v in g.edges],
        )
        assert vertex_decomposable(g) == vertex_decomposable(h)


def test_isolated_vertices_do_not_change_the_verdict():
    rng = random.Random(101)
    for _ in range(15):
        g = random_graph(rng, rng.randint(1, 6))
        plus = build_graph(list(g.vertex_names) + ["loner"], g.edges)
        assert vertex_decomposable(g) == vertex_decomposable(plus)


def path_graph(n):
    names = [f"x{i}" for i in range(1, n + 1)]
    return build_graph(names, list(zip(names, names[1:])))


def test_certificates_validate_and_render():
    cert = is_vertex_decomposable(p3())
    assert cert.nodes == ((("x1", "x2", "x3"), "x2"),)
    assert validate_certificate(p3(), cert)
    assert render_certificate(cert) == "shed x2 from {x1, x2, x3}"
    # one node per component reached, largest first: on P_5 the root, its
    # deletion's path x3-x4-x5 (x1 is left isolated) and its link x4-x5
    cert = is_vertex_decomposable(path_graph(5))
    assert render_certificate(cert).splitlines() == [
        "shed x2 from {x1, x2, x3, x4, x5}",
        "shed x4 from {x3, x4, x5}",
        "shed x4 from {x4, x5}",
    ]


def test_tampered_certificate_rejected():
    def rejects(graph, *nodes):
        return not validate_certificate(graph, DecompositionCertificate(nodes))

    p3_all = ("x1", "x2", "x3")
    assert validate_certificate(p3(), DecompositionCertificate(((p3_all, "x2"),)))
    # a vertex that does not shed its component
    assert rejects(p3(), (p3_all, "x1"))
    # C4 whiskered at x1: x1 sheds at the root, but in the path x2-x3-x4
    # left by deleting it (x5 isolated) the end x2 does not shed
    w = add_whiskers(c4(), ["x1"]).graph
    root = (("x1", "x2", "x3", "x4", "x5"), "x1")
    assert is_vertex_decomposable(w).nodes == (root, (("x2", "x3", "x4"), "x3"))
    assert rejects(w, root, (("x2", "x3", "x4"), "x2"))
    # a vertex outside its component, and names that are not vertices
    assert rejects(w, root, (("x2", "x3", "x4"), "x1"))
    assert rejects(p3(), (p3_all, "zz"))
    assert rejects(p3(), (("x1", "x2", "zz"), "x2"))
    # a disconnected component, whose parts have valid nodes of their own,
    # a component that repeats a name, and one listed twice
    two = build_graph(["a", "b", "c", "d"], [("a", "b"), ("c", "d")])
    assert validate_certificate(two, DecompositionCertificate(((("c", "d"), "c"), (("a", "b"), "a"))))
    assert rejects(two, (("a", "b", "c", "d"), "a"), (("c", "d"), "c"), (("a", "b"), "a"))
    assert rejects(p3(), (("x1", "x2", "x2", "x3"), "x2"))
    assert rejects(p3(), (p3_all, "x2"), (p3_all, "x2"))
    # a missing node for the root component, a deletion child or a link child
    nodes = is_vertex_decomposable(path_graph(5)).nodes
    assert validate_certificate(path_graph(5), DecompositionCertificate(nodes))
    for missing in range(3):
        assert rejects(path_graph(5), *nodes[:missing], *nodes[missing + 1:])
    # a certificate for another graph
    assert not validate_certificate(c4(), is_vertex_decomposable(p3()))


def test_decomposable_cover_ideals_have_linear_quotients():
    rng = random.Random(103)
    for _ in range(20):
        g = random_graph(rng, rng.randint(2, 6))
        if g.edge_count and vertex_decomposable(g):
            assert has_linear_quotients(cover_ideal(g)) is not None


# -- shedding sequences -----------------------------------------------------------------

def test_empty_sequence_reduces_to_plain_check():
    for g in (p3(), c4(), whiskered_fish()):
        trace = check_shedding_sequence(g, [])
        assert trace.steps == ()
        assert trace.verdict == trace.final_vd == vertex_decomposable(g)


def test_constant_two_duplication_sequence_passes():
    w = add_whiskers(c4(), ["x1"]).graph
    dup = duplicate_edges(w, (2, 2, 2, 2, 2))
    trace = check_shedding_sequence(dup, ["x1.1", "x1.2"])
    assert trace.verdict
    assert all(step.sheds and step.after_link_vd for step in trace.steps)
    assert trace.final_vd


def test_boundary_sequence_fails_downstream():
    trace = check_shedding_sequence(boundary_duplication(), ["x1.1"])
    assert trace.steps[0].sheds
    assert trace.steps[0].after_link_vd
    assert not trace.final_vd
    assert not trace.verdict


def test_sequence_rejects_bad_vertices():
    with pytest.raises(GraphError):
        check_shedding_sequence(c4(), ["x1", "x1"])
    with pytest.raises(GraphError):
        check_shedding_sequence(c4(), ["zz"])
    # one pass over the sequence still names the first bad entry
    with pytest.raises(GraphError, match="unknown vertex 'zz'"):
        check_shedding_sequence(c4(), ["x1", "zz", "x1"])
    with pytest.raises(GraphError, match="repeated vertex 'x1'"):
        check_shedding_sequence(c4(), ["x1", "x2", "x1"])


def test_sequence_success_implies_decomposable():
    # sequence verdicts are sound: whenever the checker says yes on a
    # whiskered graph, the plain decision agrees
    rng = random.Random(107)
    for _ in range(15):
        g = random_graph(rng, rng.randint(2, 5))
        supports = [v for v in g.vertex_names if rng.random() < 0.4]
        w = add_whiskers(g, supports)
        zs = [v for v in supports if rng.random() < 0.7]
        trace = check_shedding_sequence(w.graph, zs)
        if trace.verdict:
            assert vertex_decomposable(w.graph)


def test_sequence_soundness_on_all_small_whiskered_graphs():
    # exhaustively: whisker every connected base graph on <= 4 vertices at
    # every support set and run the support vertices as the sequence
    from itertools import combinations

    from symcover.enumeration import as_graph, connected_graphs_up_to_isomorphism

    for n in range(1, 5):
        for edges in connected_graphs_up_to_isomorphism(n):
            g = as_graph(n, edges)
            for size in range(n + 1):
                for combo in combinations(g.vertex_names, size):
                    w = add_whiskers(g, combo)
                    trace = check_shedding_sequence(w.graph, list(combo))
                    if trace.verdict:
                        assert vertex_decomposable(w.graph)


# -- certificate to generator order -------------------------------------------------------

def test_order_from_certificate_p3():
    cert = is_vertex_decomposable(p3())
    order = linear_order_from_certificate(p3(), cert)
    assert is_linear_quotients_order(cover_ideal(p3()), order)


def test_order_from_certificate_single_edge():
    cert = is_vertex_decomposable(single_edge())
    order = linear_order_from_certificate(single_edge(), cert)
    assert [g.render(("x", "y")) for g in order] in (["x", "y"], ["y", "x"])


def test_order_from_certificate_whiskered_fish():
    wf = whiskered_fish()
    cert = is_vertex_decomposable(wf)
    order = linear_order_from_certificate(wf, cert)
    assert is_linear_quotients_order(cover_ideal(wf), order)


def test_certified_orders_are_pinned():
    # every graph on up to 6 vertices (208 classes); the digest was taken
    # while certificates were trees of stages, so the one-node-per-component
    # certificate unwinds into the same orders
    assert certified_order_digest(6) == "b424fd862a40"


def test_order_from_certificate_rejects_foreign_certificate():
    cert = is_vertex_decomposable(p3())
    with pytest.raises(GraphError):
        linear_order_from_certificate(c4(), cert)


def test_engine_verdict_agrees_with_the_certificate():
    g = whiskered_fish()
    engine = DecompositionEngine(g.adjacency_masks())
    assert engine.is_vd()
    assert validate_certificate(g, is_vertex_decomposable(g))


def test_engine_reuses_memo_across_queries():
    wf = whiskered_fish()
    engine = DecompositionEngine(wf.adjacency_masks())
    assert engine.is_vd()
    full = wf.full_mask()
    for v in wf.vertex_names:
        engine.is_vd_mask(full & ~(1 << wf.index_of(v)))
    assert engine.is_vd()


def test_deep_graphs_are_decided_within_the_recursion_limit(capsys, tmp_path):
    # the engine recurses once per link or deletion it decides: on P_n the
    # clique rule takes the link of the second vertex first, three vertices
    # a step, and every link of K_n is empty, so K_n needs one frame at any
    # size.  Every certificate walk keeps its own stack
    names = [f"p{i}" for i in range(1000)]
    path = tmp_path / "p1000.graph"
    save_graph(build_graph(names, list(zip(names, names[1:]))), str(path))
    assert main(["check-vd", str(path)]) == 0
    assert capsys.readouterr().out == "vertex decomposable: yes\n"
    names = [f"k{i}" for i in range(600)]
    clique = build_graph(names, [(a, b) for i, a in enumerate(names) for b in names[i + 1:]])
    cert = is_vertex_decomposable(clique)
    assert validate_certificate(clique, cert)
    assert len(render_certificate(cert).splitlines()) == 599
    assert len(linear_order_from_certificate(clique, cert)) == 600
    names = [f"k{i}" for i in range(1000)]
    path = tmp_path / "k1000.graph"
    save_graph(build_graph(names, [(a, b) for i, a in enumerate(names) for b in names[i + 1:]]),
               str(path))
    assert main(["check-vd", str(path)]) == 0
    assert capsys.readouterr().out == "vertex decomposable: yes\n"
