"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines inline.

Criterion 5 note: its third fact asserts that after deleting x1.1 from the
boundary duplication no shedding vertex remains.  That is false for the
graph this package constructs (and must construct): the shadow x2.2 keeps
the single neighbor x1.2 once x1.1 is gone, so x1.2 is the neighbor of a
simplicial vertex and therefore sheds.  The companion 10-vertex/13-edge
fixture pins the same p+q rule that forces those edges to exist.  The fact
is kept as stated and fails honestly; the other two facts of the criterion
hold and the headline non-decomposability verdict is unaffected.
"""

from __future__ import annotations

import json
import random

from symcover.cli import main as cli_main
from symcover.decomposability import (
    is_shedding_vertex,
    is_vertex_decomposable,
    linear_order_from_certificate,
    vertex_decomposable,
)
from symcover.duplication import duplicate_edges, duplicate_vertices
from symcover.enumeration import as_graph, connected_graphs_up_to_isomorphism
from symcover.graphs import StarCompleteSpec, add_whiskers, attach_star_complete, build_graph
from symcover.ideals import (
    cover_ideal,
    has_linear_quotients,
    is_linear_quotients_order,
    polarize,
    symbolic_power,
)

from conftest import FIXTURES, boundary_duplication, c4, cycle, five_vertex_example, whiskered_fish
from oracles import is_shedding_vertex_by_definition, symbolic_power_by_intersection


def report(number: int, name: str, ok: bool) -> None:
    print(f"ACCEPTANCE {number:>2} {name}: {'PASS' if ok else 'FAIL'}", flush=True)
    assert ok, f"criterion {number} ({name})"


def connected_atlas(max_n: int):
    for n in range(1, max_n + 1):
        for edges in connected_graphs_up_to_isomorphism(n):
            yield as_graph(n, edges)


def test_criterion_1_polarization_identity():
    # both sides read the maximal independent sets of G_k: symbolic_power
    # merges their complements' shadows back into powers.  So this pins the
    # shadow layout and that merge; criterion 2 and brute_symbolic_generators
    # remain the independent checks of the generators themselves.
    ok = True
    for g in connected_atlas(5):
        for k in (1, 2, 3):
            if polarize(symbolic_power(g, k)) != cover_ideal(duplicate_vertices(g, k)):
                ok = False
    report(1, "polarization-identity", ok)


def test_criterion_2_symbolic_intersection_oracle():
    ok = True
    for g in connected_atlas(5):
        for k in (1, 2, 3):
            if symbolic_power(g, k) != symbolic_power_by_intersection(g, k):
                ok = False
    report(2, "symbolic-power-oracle", ok)


def test_criterion_3_main_theorem_smoke_suite():
    ok = True
    for g in (cycle(3), cycle(4), cycle(5), five_vertex_example()):
        cover = sorted(g.minimum_cycle_cover(), key=g.index_of)
        h = add_whiskers(g, cover).graph
        for k in (1, 2, 3):
            if not vertex_decomposable(duplicate_vertices(h, k)):
                ok = False
        for k in (1, 2):
            if has_linear_quotients(symbolic_power(h, k)) is None:
                ok = False
    report(3, "main-theorem-smoke", ok)


def test_criterion_4_fish_counterexample():
    wf = whiskered_fish()
    ok = vertex_decomposable(wf) and not vertex_decomposable(duplicate_vertices(wf, 2))
    report(4, "fish-counterexample", ok)


def test_criterion_5a_boundary_not_decomposable():
    report(5, "boundary-not-decomposable", not vertex_decomposable(boundary_duplication()))


def test_criterion_5b_boundary_unique_shedding_vertex():
    g = boundary_duplication()
    shedders = [v for v in g.vertex_names if is_shedding_vertex(g, v)]
    report(5, "boundary-unique-shedder-x1.1", shedders == ["x1.1"])


def test_criterion_5c_no_shedder_after_deletion():
    # see the module docstring: x1.2 sheds after the deletion, so this fact
    # is expected to fail while staying faithful to its statement
    g = boundary_duplication().delete_vertices(["x1.1"])
    shedders = [v for v in g.vertex_names if is_shedding_vertex(g, v)]
    report(5, "boundary-no-shedder-after-deleting-x1.1", shedders == [])


def test_criterion_6_duplication_fixtures():
    by_tuple = duplicate_edges(c4(), (1, 2, 3, 2))
    expected_tuple_edges = {
        frozenset(e)
        for e in [
            ("x1.1", "x2.1"),
            ("x2.1", "x3.1"), ("x2.1", "x3.2"), ("x2.2", "x3.1"),
            ("x3.1", "x4.1"), ("x3.1", "x4.2"), ("x3.1", "x4.3"),
            ("x3.2", "x4.1"), ("x3.2", "x4.2"), ("x3.3", "x4.1"),
            ("x1.1", "x4.1"), ("x1.1", "x4.2"), ("x1.2", "x4.1"),
        ]
    }
    ok = (
        by_tuple.vertex_count == 10
        and by_tuple.edge_count == 13
        and {frozenset(e) for e in by_tuple.edges} == expected_tuple_edges
    )

    by_k = duplicate_vertices(c4(), 2)
    expected_k_edges = set()
    for u, v in c4().edges:
        expected_k_edges |= {
            frozenset({f"{u}.1", f"{v}.1"}),
            frozenset({f"{u}.1", f"{v}.2"}),
            frozenset({f"{u}.2", f"{v}.1"}),
        }
    ok = ok and by_k.vertex_count == 8 and by_k.edge_count == 12
    ok = ok and {frozenset(e) for e in by_k.edges} == expected_k_edges
    report(6, "edge-duplication-fixtures", ok)


def test_criterion_7_star_complete_dichotomy():
    non_pure, cls_np = attach_star_complete(c4(), StarCompleteSpec("x1", (3, 2)))
    pure, cls_p = attach_star_complete(c4(), StarCompleteSpec("x1", (3,)))
    ok = (
        cls_np == "non-pure"
        and cls_p == "pure"
        and vertex_decomposable(duplicate_vertices(non_pure, 2))
        and not vertex_decomposable(duplicate_vertices(pure, 2))
    )
    report(7, "star-complete-dichotomy", ok)


def test_criterion_8_shedding_restatement_equivalence(small_graph_atlas):
    ok = True
    for g in small_graph_atlas:
        for v in g.vertex_names:
            if is_shedding_vertex(g, v) != is_shedding_vertex_by_definition(g, v):
                ok = False
    report(8, "shedding-restatement-equivalence", ok)


def test_criterion_9_certificate_order_soundness():
    rng = random.Random(20240131)
    checked = 0
    ok = True
    while checked < 50:
        n = rng.randint(2, 8)
        p = rng.uniform(0.2, 0.8)
        names = [f"x{i}" for i in range(1, n + 1)]
        edges = [
            (a, b) for i, a in enumerate(names) for b in names[i + 1 :]
            if rng.random() < p
        ]
        g = build_graph(names, edges)
        if not g.edge_count:
            continue
        cert = is_vertex_decomposable(g)
        if cert is None:
            continue
        checked += 1
        order = linear_order_from_certificate(g, cert)
        if not is_linear_quotients_order(cover_ideal(g), order):
            ok = False
    report(9, "certificate-order-soundness", ok)


def test_criterion_10_cli_fixture_determinism(capsys):
    spec = json.loads((FIXTURES / "scenarios.json").read_text())
    ok = True
    for scenario in spec["scenarios"]:
        argv = [
            str(FIXTURES / arg[1:]) if arg.startswith("@") else arg
            for arg in scenario["argv"]
        ]
        runs = []
        for _ in range(2):
            code = cli_main(argv)
            out = capsys.readouterr().out.encode()
            runs.append((code, out))
        if runs[0] != runs[1] or runs[0][0] != scenario["expect_exit"]:
            ok = False
    report(10, "cli-fixture-determinism", ok)
