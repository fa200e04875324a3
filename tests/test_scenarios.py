from __future__ import annotations

import contextlib
import hashlib
import io
import json
from itertools import combinations

import pytest

from symcover.cli import main
from symcover.decomposability import DecompositionEngine, vertex_decomposable
from symcover.duplication import duplicate_vertices, duplicated_edge_rows
from symcover.enumeration import as_graph, connected_graphs_up_to_isomorphism
from symcover.graphs import GraphError, StarCompleteSpec, add_whiskers, build_graph
from symcover.ideals import symbolic_power
import symcover.scenarios
from symcover.scenarios import (
    _orbit_minimal_non_covers,
    _whiskered_engines,
    counterexample_search,
    verify_edge_theorem,
    verify_glue_star,
    verify_glue_theorem,
    verify_main_theorem,
)

from conftest import c4, fish, five_vertex_example
from oracles import are_isomorphic, colored_canonical_form


def step(report, name):
    matches = [s for s in report.steps if s.name == name]
    assert matches, f"no step named {name!r} in {[s.name for s in report.steps]}"
    return matches[0]


# -- main theorem -------------------------------------------------------------------

def test_main_theorem_five_vertex_example_passes():
    report = verify_main_theorem(five_vertex_example(), ["x2"], 1, k_max=2)
    assert report.overall_pass
    assert not report.flags
    assert step(report, "cycle-cover").passed
    for k in (1, 2):
        assert step(report, f"vertex-decomposable k={k}").observed == "yes"
        assert step(report, f"linear-quotients k={k}").observed == "yes"


def test_main_theorem_fish_explores_and_breaks_at_k2():
    report = verify_main_theorem(fish(), ["x5"], 1, k_max=2)
    assert any("not a cycle cover" in f for f in report.flags)
    assert step(report, "vertex-decomposable k=1").observed == "yes"
    assert step(report, "vertex-decomposable k=2").observed == "no"
    # exploration never asserts, so the report still counts as clean
    assert report.overall_pass
    assert all(s.expected is None for s in report.steps)


def test_main_theorem_edgeless_is_vacuous():
    report = verify_main_theorem(build_graph(["a", "b"], []), [], 1, k_max=1)
    assert report.overall_pass
    assert step(report, "vertex-decomposable k=1").observed == "yes"
    assert step(report, "linear-quotients k=1").observed == "whole ring (no generators)"


def test_main_theorem_generator_cap(monkeypatch):
    monkeypatch.setattr(symcover.scenarios, "_LQ_GENERATOR_CAP", 2)
    report = verify_main_theorem(five_vertex_example(), ["x2"], 1, k_max=1)
    assert "skipped" in step(report, "linear-quotients k=1").observed
    assert report.overall_pass


# -- edge theorem --------------------------------------------------------------------

def test_edge_theorem_constant_tuple_passes():
    report = verify_edge_theorem(c4(), ["x1"], 1, (2, 2, 2, 2, 2))
    assert report.overall_pass and not report.flags
    assert step(report, "whisker-dominance").observed == "yes"
    assert step(report, "vertex-decomposable").passed


def test_edge_theorem_boundary_tuple_observes_failure():
    report = verify_edge_theorem(c4(), ["x1"], 1, (3, 1, 1, 3, 1))
    assert step(report, "whisker-dominance").observed == "no"
    assert step(report, "vertex-decomposable").observed == "no"
    assert step(report, "vertex-decomposable").expected is None
    assert report.overall_pass  # nothing asserted, nothing failed


def test_edge_theorem_unicyclic_with_dominant_whisker():
    # a 5-cycle with a pendant path edge; the whisker entry dominates
    g = build_graph(
        ["x1", "x2", "x3", "x4", "x5"],
        [("x1", "x2"), ("x2", "x3"), ("x3", "x4"), ("x4", "x5"), ("x1", "x5")],
    )
    report = verify_edge_theorem(g, ["x1"], 1, (2, 1, 1, 1, 2, 2))
    assert report.overall_pass
    assert step(report, "vertex-decomposable").observed == "yes"


def test_edge_theorem_zero_multiplicity_is_exploration():
    # a zero entry deletes its edge's shadows, so nothing may be asserted
    zero_flag = "hypothesis violated: a duplication multiplicity is zero; exploring anyway"
    for t in ((0, 0, 0, 0, 0), (1, 0, 0, 0, 1), (2, 2, 2, 2, 0)):
        report = verify_edge_theorem(c4(), ["x1"], 1, t)
        assert zero_flag in report.flags, t
        assert all(s.expected is None for s in report.steps if s.name != "cycle-cover"), t
        assert step(report, "cycle-cover").passed


def test_edge_theorem_length_mismatch():
    with pytest.raises(GraphError):
        verify_edge_theorem(c4(), ["x1"], 1, (1, 1, 1))


# -- star attachments -------------------------------------------------------------------

def test_star_non_pure_attachment_passes():
    report = verify_glue_star(c4(), ["x1"], [StarCompleteSpec("x1", (3, 2))], k_max=2)
    assert report.overall_pass and not report.flags
    assert step(report, "attachment x1").observed == "non-pure"
    assert step(report, "vertex-decomposable k=2").passed


def test_star_pure_attachment_breaks_at_k2():
    report = verify_glue_star(c4(), ["x1"], [StarCompleteSpec("x1", (3,))], k_max=2)
    assert step(report, "attachment x1").observed == "pure"
    assert step(report, "vertex-decomposable k=1").observed == "yes"
    assert step(report, "vertex-decomposable k=2").observed == "no"
    assert report.overall_pass


def test_star_attachment_outside_cover_is_flagged():
    report = verify_glue_star(c4(), ["x1"], [StarCompleteSpec("x2", (3, 2))], k_max=1)
    assert any("outside" in f for f in report.flags)
    assert any("received no attachment" in f for f in report.flags)
    assert all(s.expected is None or s.name == "cycle-cover" for s in report.steps)


def test_star_empty_spec_list_is_flagged():
    report = verify_glue_star(c4(), ["x1"], [], k_max=1)
    assert any("received no attachment" in f for f in report.flags)


# -- gluing -------------------------------------------------------------------------------

def glue_factors():
    g = build_graph(
        ["x1", "x2", "x3", "x4", "x5"],
        [("x1", "x2"), ("x1", "x3"), ("x1", "x4"), ("x1", "x5"), ("x3", "x4"), ("x4", "x5")],
    )
    h = build_graph(
        ["x1", "x2", "x3", "x4"],
        [("x1", "x2"), ("x1", "x3"), ("x1", "x4"), ("x3", "x4")],
    )
    return g, h


def test_glue_identity_tuple_passes():
    g, h = glue_factors()
    report = verify_glue_theorem(g, h, ("x1", "x2"), (1,) * 6, (1,) * 4)
    assert report.overall_pass
    assert step(report, "glued-vertex-decomposable").passed


def test_glue_whiskered_triangles_constant_two():
    t = build_graph(["x1", "x2", "x3", "x4"],
                    [("x1", "x2"), ("x1", "x3"), ("x2", "x3"), ("x1", "x4")])
    report = verify_glue_theorem(t, t, ("x1", "x4"), (2,) * 4, (2,) * 4)
    assert report.overall_pass
    assert step(report, "factor-G-shedding-sequence").observed == "yes"
    assert step(report, "glued-shedding-sequence").passed


def test_glue_zero_multiplicity_is_exploration():
    zero_flag = "hypothesis violated: a duplication multiplicity is zero; exploring anyway"
    g, h = glue_factors()
    for tuple_g, tuple_h in (((1, 0, 0, 0, 0, 0), (1, 0, 0, 0)),
                             ((1, 1, 1, 1, 1, 1), (1, 1, 0, 1)),
                             ((0,) * 6, (0,) * 4)):
        report = verify_glue_theorem(g, h, ("x1", "x2"), tuple_g, tuple_h)
        assert report.flags.count(zero_flag) == 1, (tuple_g, tuple_h)
        assert all(s.expected is None for s in report.steps), (tuple_g, tuple_h)


def test_glue_requires_common_leaf():
    g, h = glue_factors()
    with pytest.raises(GraphError):
        verify_glue_theorem(g, h, ("x1", "x3"), (1,) * 6, (1,) * 4)
    with pytest.raises(GraphError):
        verify_glue_theorem(g, h, ("x1", "x2"), (2,) * 6, (1,) * 4)


# -- search --------------------------------------------------------------------------------

def test_search_guards():
    with pytest.raises(GraphError):
        list(counterexample_search(9, 2, "i"))
    with pytest.raises(GraphError):
        list(counterexample_search(4, 4, "i"))
    with pytest.raises(GraphError):
        list(counterexample_search(4, 2, "iii"))


def test_search_mode_i_trees_only_yield_nothing():
    assert list(counterexample_search(2, 2, "i")) == []


def test_search_mode_i_smoke():
    reports = list(counterexample_search(4, 2, "i"))
    assert reports
    for r in reports:
        assert any("not a cycle cover" in f for f in r.flags)
        assert r.steps[0].name == "vertex-decomposable k=1"
        assert r.steps[0].observed == "yes"


def test_search_mode_i_rediscovers_the_fish_family():
    target = fish()
    hits = []
    for r in counterexample_search(6, 2, "i"):
        if not any("boundary" in f for f in r.flags):
            continue
        edges = [tuple(e.split("-")) for e in r.inputs["edges"].split(",")]
        names = sorted({v for e in edges for v in e})
        base = build_graph(names, edges)
        if are_isomorphic(base, target) and r.inputs["S"] != "(empty)":
            hits.append(r)
    assert hits, "no boundary report on a fish-shaped base graph"
    assert any(len(r.inputs["S"].split("+")) == 1 for r in hits)


def test_search_mode_ii_reports_the_boundary_tuple():
    # on the whiskered 4-cycle, the non-dominant pattern that assigns 3 to
    # both cycle edges at the whiskered vertex and 1 elsewhere must be
    # reported with a failing decomposability verdict
    found = False
    for r in counterexample_search(4, 3, "ii"):
        edges = [tuple(e.split("-")) for e in r.inputs["edges"].split(",")]
        if "tuple" not in r.inputs or len(edges) != 4:
            continue
        names = sorted({v for e in edges for v in e})
        base = build_graph(names, edges)
        if not are_isomorphic(base, c4()):
            continue
        support = r.inputs["S"]
        entries = [int(x) for x in r.inputs["tuple"].split(",")]
        at_support = [i for i, e in enumerate(edges) if support in e]
        off_support = [i for i in range(len(edges)) if i not in at_support]
        whisker_entry = entries[4]
        if (
            whisker_entry == 1
            and all(entries[i] == 3 for i in at_support)
            and all(entries[i] == 1 for i in off_support)
        ):
            assert r.steps[0].name == "vertex-decomposable"
            assert r.steps[0].observed == "no"
            found = True
    assert found


def test_orbit_minimal_sets_match_colored_canonical_forms():
    # the sets the search used to keep: the first S in enumeration order
    # for each colored canonical form of (G, S)
    for n in range(1, 7):
        for edges in connected_graphs_up_to_isomorphism(n):
            g = as_graph(n, edges)
            seen = set()
            expected = []
            for size in range(n + 1):
                for combo in combinations(range(n), size):
                    if g.is_cycle_cover([g.vertex_names[i] for i in combo]):
                        continue
                    key = colored_canonical_form(n, edges, [int(i in combo) for i in range(n)])
                    if key not in seen:
                        seen.add(key)
                        expected.append(combo)
            assert list(_orbit_minimal_non_covers(g.adjacency_masks())) == expected, (
                n, sorted(edges))


def test_shared_engine_masks_match_whiskered_duplications():
    # whiskering at S and duplicating k times is an induced subgraph of the
    # duplicated graph whiskered at every vertex, so one engine answers all S
    for n in range(1, 6):
        for edges in connected_graphs_up_to_isomorphism(n):
            g = as_graph(n, edges)
            engines = _whiskered_engines(g, 3)
            for k, (engine, base, leaves) in enumerate(engines, start=1):
                for size in range(n + 1):
                    for combo in combinations(range(n), size):
                        names = [g.vertex_names[i] for i in combo]
                        expected = vertex_decomposable(
                            duplicate_vertices(add_whiskers(g, names).graph, k)
                        )
                        got = engine.is_vd_mask(base | sum(leaves[i] for i in combo))
                        assert got == expected, (sorted(edges), names, k)


def search_digest(*argv):
    """sha256 prefix of the stdout of ``symcover search`` with these options."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["search", *argv])
    assert code == 0
    return hashlib.sha256(out.getvalue().encode()).hexdigest()[:12]


def test_search_mode_i_output_is_pinned():
    # taken before both search modes shared one base-graph loop
    argv = ("--max-vertices", "6", "--max-k", "2", "--mode", "i")
    assert search_digest(*argv) == "a6dd35a8ca0f"
    assert search_digest(*argv, "--format", "json") == "ec4c90b830a5"


def test_search_mode_ii_output_is_pinned():
    # sha256 of the stdout of this command, taken before the search ran on
    # adjacency rows
    assert search_digest("--max-vertices", "4", "--max-k", "3", "--mode", "ii") == "159751323ee7"


def test_search_mode_ii_output_is_pinned_at_five_vertices():
    # taken before the search shared verdicts across Aut(h) orbits
    assert search_digest("--max-vertices", "5", "--max-k", "2", "--mode", "ii") == "1f5a88bb4bcf"


@pytest.mark.parametrize("max_vertices, max_k, reports", [(5, 2, 11408), (4, 3, 5901)])
def test_search_mode_ii_verdicts_match_cold_engines(max_vertices, max_k, reports):
    # a verdict shared from an earlier tuple of the same Aut(h) orbit must
    # equal a cold engine run on the tuple's own duplication
    levels = {n: connected_graphs_up_to_isomorphism(n) for n in range(1, max_vertices + 1)}
    built = {}
    checked = 0
    for r in counterexample_search(max_vertices, max_k, "ii"):
        if "tuple" not in r.inputs:
            continue
        _, n_part, g_part, _ = r.scenario.split("/")
        key = (int(n_part[1:]), int(g_part[1:]))
        if key not in built:
            g = as_graph(key[0], levels[key[0]][key[1]])
            h = add_whiskers(g, r.inputs["S"].split("+")).graph
            built[key] = (h.vertex_count, [(h.index_of(u), h.index_of(v)) for u, v in h.edges])
        vertex_count, pairs = built[key]
        entries = [int(x) for x in r.inputs["tuple"].split(",")]
        cold = DecompositionEngine(duplicated_edge_rows(vertex_count, pairs, entries)).is_vd()
        assert step(r, "vertex-decomposable").observed == ("yes" if cold else "no"), r.scenario
        checked += 1
    assert checked == reports


@pytest.mark.parametrize("kind", ["main", "edge", "star"])
def test_verifiers_build_no_named_duplication(monkeypatch, kind):
    # a verifier builds only the whiskered graph, or one graph per star
    # attachment, and decides each duplication on its rows; the symbolic
    # power reads G_k's rows without building a named graph either
    import symcover.graphs

    graph = c4()
    specs = [StarCompleteSpec("x1", (3, 2)), StarCompleteSpec("x3", (3,))]
    verify = {
        "main": lambda: verify_main_theorem(graph, ["x1", "x3"], 1, k_max=3),
        "edge": lambda: verify_edge_theorem(graph, ["x1"], 1, (2, 2, 2, 2, 2)),
        "star": lambda: verify_glue_star(graph, ["x1", "x3"], specs, k_max=3),
    }[kind]
    constructed = []
    init = symcover.graphs.Graph.__init__

    def counting_init(self, *args, **kwargs):
        constructed.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(symcover.graphs.Graph, "__init__", counting_init)
    assert verify().overall_pass
    assert len(constructed) == (len(specs) if kind == "star" else 1)
    constructed.clear()
    symbolic_power(graph, 2)
    assert constructed == []


def test_reports_render_deterministically():
    a = verify_main_theorem(five_vertex_example(), ["x2"], 1, k_max=2)
    b = verify_main_theorem(five_vertex_example(), ["x2"], 1, k_max=2)
    assert a.to_text() == b.to_text()
    assert json.dumps(a.to_json_dict()) == json.dumps(b.to_json_dict())
