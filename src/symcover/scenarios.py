"""Scenario harness: run the theorem-shaped checks on concrete inputs.

Each verifier builds the graphs a theorem talks about, runs the relevant
decisions (cycle cover, whisker dominance, vertex decomposability, linear
quotients), and returns a ScenarioReport.  When a theorem's hypothesis
fails, the verifier never turns the conclusion into an assertion: it keeps
running in exploration mode and records what it observed, because the
interesting counterexamples are exactly the hypothesis-violating runs.

Reports render deterministically: identical inputs give byte-identical
output.  The CLI prints a search's reports in enumeration order, as they
are yielded.

The verifiers but glue, and the search, decide on adjacency rows and vertex
masks, with no named duplication.  Mode i rests on an induced-subgraph
identity: whiskering G at S and duplicating k times gives the subgraph of
W_k induced on the shadows of G and of the leaves at S, where W is G
whiskered at every vertex, its leaf of vertex i being vertex n + i.  W_k is
built from G's edge index pairs and the whisker pairs (i, n + i), so one
decomposability engine per base graph and k answers every S and shares its
memo across them.  S is tried once per orbit of Aut(G), as the orbit's
lexicographically smallest set.  Mode ii builds the rows of each edge
duplication straight from the whiskered graph's edge index pairs, and
decides each orbit of tuples under Aut(h), h the whiskered graph, once: an
automorphism of h carries one tuple's duplication onto the other's.
Whisker dominance is not Aut(h)-invariant (an automorphism may swap a
whisker with a leaf of G), so it is still checked tuple by tuple.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from itertools import combinations, product
from typing import Iterator, Mapping, Sequence

from . import _bitgraph
from .decomposability import DecompositionEngine, check_shedding_sequence, vertex_decomposable
from .duplication import (
    dominance_rules,
    dominates,
    duplicate_edges,
    duplicated_edge_rows,
    render_tuple,
    satisfies_whisker_dominance,
    shadow_blocks,
    shadows_of,
)
from .enumeration import as_graph, automorphisms, connected_graphs_up_to_isomorphism
from .graphs import (
    Graph,
    GraphError,
    StarCompleteSpec,
    WhiskeredGraph,
    add_whiskers,
    attach_star_complete,
    glue_along_edge,
    render_graph_text,
)
from .ideals import has_linear_quotients, symbolic_power


# ---------------------------------------------------------------------------
# reports

@dataclass
class ScenarioStep:
    """One check inside a scenario; ``expected`` is None for observations."""

    name: str
    observed: str
    expected: str | None = None

    @property
    def passed(self) -> bool | None:
        if self.expected is None:
            return None
        return self.observed == self.expected


@dataclass
class ScenarioReport:
    scenario: str
    inputs: dict[str, str]
    steps: list[ScenarioStep] = field(default_factory=list)
    flags: list[str] = field(default_factory=list)

    @property
    def overall_pass(self) -> bool:
        return all(step.passed is not False for step in self.steps)

    def observe(self, name: str, observed: str) -> None:
        self.steps.append(ScenarioStep(name, observed))

    def check(self, name: str, observed: str, asserting: bool) -> None:
        """Expect ``"yes"`` while the hypotheses hold, else only observe."""
        self.steps.append(ScenarioStep(name, observed, "yes" if asserting else None))

    def flag(self, message: str) -> None:
        self.flags.append(message)

    def to_text(self) -> str:
        lines = [f"scenario: {self.scenario}"]
        for key, value in self.inputs.items():
            lines.append(f"input {key}: {value}")
        for message in self.flags:
            lines.append(f"flag: {message}")
        for step in self.steps:
            if step.expected is None:
                lines.append(f"step {step.name}: observed={step.observed}")
            else:
                word = "pass" if step.passed else "FAIL"
                lines.append(
                    f"step {step.name}: observed={step.observed} "
                    f"expected={step.expected} [{word}]"
                )
        lines.append(f"overall: {'PASS' if self.overall_pass else 'FAIL'}")
        return "\n".join(lines) + "\n"

    def to_json_dict(self) -> dict:
        return {
            "scenario": self.scenario,
            "inputs": dict(self.inputs),
            "flags": list(self.flags),
            "steps": [
                {"name": s.name, "observed": s.observed, "expected": s.expected,
                 "passed": s.passed}
                for s in self.steps
            ],
            "overall_pass": self.overall_pass,
        }


def graph_digest(graph: Graph) -> str:
    return hashlib.sha256(render_graph_text(graph).encode()).hexdigest()[:12]


def _yesno(value: bool) -> str:
    return "yes" if value else "no"


def _edge_list(graph: Graph) -> str:
    return ",".join(f"{u}-{v}" for u, v in graph.edges)


# ---------------------------------------------------------------------------
# theorem verifiers

_LQ_K_MAX = 2              # verify main tests linear quotients for k up to this
_LQ_GENERATOR_CAP = 200    # and skips ideals with more generators than this


def _require_k(k_max: int) -> None:
    # with no k to test, a verifier would pass without checking decomposability
    if k_max < 1:
        raise GraphError(f"duplication bound k must be >= 1, got {k_max}")


def _counts_text(whiskered: WhiskeredGraph) -> str:
    """Whiskers per support in vertex order, as ``a=3,b=1``; empty when each has one."""
    if all(len(leaves) == 1 for leaves in whiskered.leaves.values()):
        return ""
    return ",".join(f"{s}={len(leaves)}" for s, leaves in whiskered.leaves.items())


def _whiskering_report(
    kind: str, graph: Graph, cover: Sequence[str], id_tail: str, counts: str = "", **inputs: str
) -> tuple[ScenarioReport, bool]:
    """A verifier's report with its cycle-cover step, and whether S is one.

    The id and the inputs start with the graph, the set S and any whisker
    ``counts``; ``id_tail`` and ``inputs`` add what the verifier takes besides.
    """
    digest = graph_digest(graph)
    s = "+".join(cover)
    head = {"graph": digest, "edges": _edge_list(graph), "S": s or "(empty)"}
    if counts:
        head["counts"] = counts
        id_tail = f"counts={counts}/{id_tail}"
    report = ScenarioReport(
        scenario=f"verify-{kind}/{digest}/S={s or '-'}/{id_tail}", inputs={**head, **inputs}
    )
    is_cover = graph.is_cycle_cover(cover)
    report.check("cycle-cover", _yesno(is_cover), is_cover)
    if not is_cover:
        report.flag("hypothesis violated: S is not a cycle cover; exploring anyway")
    return report, is_cover


def _duplication_is_vd(graph: Graph, t: Sequence[int]) -> bool:
    """Whether graph's duplication by t is vertex decomposable; isolated shadows never change it."""
    rows = duplicated_edge_rows(graph.vertex_count, graph.edge_indices, t)
    return DecompositionEngine(rows).is_vd()


def _no_zero_multiplicity(report: ScenarioReport, *tuples: Sequence[int]) -> bool:
    """Flag a zero entry, which deletes its edge: no theorem here allows one."""
    if any(0 in t for t in tuples):
        report.flag("hypothesis violated: a duplication multiplicity is zero; exploring anyway")
        return False
    return True


def verify_main_theorem(
    graph: Graph,
    cycle_cover: Sequence[str],
    counts: Mapping[str, int] | int = 1,
    k_max: int = 2,
) -> ScenarioReport:
    """Whisker at a claimed cycle cover, then duplicate and test.

    For each k up to ``k_max`` the k-fold vertex duplication of the
    whiskered graph must be vertex decomposable, and for k up to
    ``_LQ_K_MAX`` the k-th symbolic power of its cover ideal must have
    linear quotients (skipped above ``_LQ_GENERATOR_CAP`` generators).  When
    the given set is not a cycle cover the run downgrades to exploration.
    """
    _require_k(k_max)
    whiskered = add_whiskers(graph, cycle_cover, counts)
    report, asserting = _whiskering_report(
        "main", graph, list(whiskered.leaves), f"k={k_max}", _counts_text(whiskered),
        k_max=str(k_max),
    )
    h = whiskered.graph
    for k in range(1, k_max + 1):
        verdict = _duplication_is_vd(h, (k,) * h.edge_count)
        report.check(f"vertex-decomposable k={k}", _yesno(verdict), asserting)
        if k <= _LQ_K_MAX:
            ideal = symbolic_power(h, k)
            name = f"linear-quotients k={k}"
            if ideal.is_whole_ring:
                report.observe(name, "whole ring (no generators)")
            elif len(ideal.generators) > _LQ_GENERATOR_CAP:
                report.observe(
                    name, f"skipped ({len(ideal.generators)} generators > cap {_LQ_GENERATOR_CAP})"
                )
            else:
                order = has_linear_quotients(ideal)
                report.check(name, _yesno(order is not None), asserting)
    return report


def verify_edge_theorem(
    graph: Graph,
    cycle_cover: Sequence[str],
    counts: Mapping[str, int] | int,
    t: Sequence[int],
) -> ScenarioReport:
    """Whisker at a cycle cover, duplicate edges by a tuple, and test.

    When the tuple is whisker-dominant with no zero entry and the set is a
    cycle cover, the edge-duplicated graph is asserted vertex decomposable;
    otherwise the verdict is recorded as an observation.
    """
    whiskered = add_whiskers(graph, cycle_cover, counts)
    text = render_tuple(t)
    report, is_cover = _whiskering_report(
        "edge", graph, list(whiskered.leaves), f"t={text}", _counts_text(whiskered), tuple=text
    )
    dominant = satisfies_whisker_dominance(whiskered, t)
    asserting = _no_zero_multiplicity(report, t) and is_cover and dominant
    report.check("whisker-dominance", _yesno(dominant), asserting)
    if not dominant:
        report.flag("hypothesis violated: tuple is not whisker-dominant; exploring anyway")

    verdict = _duplication_is_vd(whiskered.graph, t)
    report.check("vertex-decomposable", _yesno(verdict), asserting)
    return report


def verify_glue_star(
    graph: Graph,
    cycle_cover: Sequence[str],
    specs: Sequence[StarCompleteSpec],
    k_max: int = 2,
) -> ScenarioReport:
    """Attach star complete graphs at a cycle cover, duplicate, and test.

    The vertex-decomposability assertion fires only when every attachment
    is non-pure, every cycle-cover vertex received one, and the attachment
    sites lie inside the cycle cover; anything else is exploration.  A
    vertex takes at most one spec, which lists all of its cliques.
    """
    _require_k(k_max)
    attached_at = {s.attach_at for s in specs}
    if len(attached_at) < len(specs):
        raise GraphError("two attachments name the same vertex; give its cliques in one spec")
    cover = sorted(set(cycle_cover), key=graph.index_of)
    spec_text = ";".join(f"{s.attach_at}:{','.join(map(str, s.clique_sizes))}" for s in specs)
    report, asserting = _whiskering_report(
        "star", graph, cover, f"spec={spec_text or '-'}/k={k_max}",
        specs=spec_text or "(none)", k_max=str(k_max),
    )
    for s in specs:
        if s.attach_at not in cover:
            report.flag(f"attachment at {s.attach_at} lies outside the cycle-cover set")
            asserting = False
    for v in cover:
        if v not in attached_at:
            report.flag(f"cycle-cover vertex {v} received no attachment")
            asserting = False

    current = graph
    for s in specs:
        current, classification = attach_star_complete(current, s)
        report.observe(f"attachment {s.attach_at}", classification)
        if classification != "non-pure":
            asserting = False

    for k in range(1, k_max + 1):
        verdict = _duplication_is_vd(current, (k,) * current.edge_count)
        report.check(f"vertex-decomposable k={k}", _yesno(verdict), asserting)
    return report


def verify_glue_theorem(
    g: Graph,
    h: Graph,
    edge: tuple[str, str],
    tuple_g: Sequence[int],
    tuple_h: Sequence[int],
) -> ScenarioReport:
    """Glue two graphs along a common leaf edge and test the duplication.

    Both factors must duplicate the shared edge with the same multiplicity,
    which must dominate every other entry, and no entry may be zero.  The
    shadows of the support vertex are checked as a shedding sequence in
    each factor and in the glued graph; when both factors pass, the glued
    duplication is asserted vertex decomposable.
    """
    u, v = edge
    if not (g.has_edge(u, v) and h.has_edge(u, v)):
        raise GraphError(f"{{{u}, {v}}} must be an edge of both graphs")
    leaf_candidates = [w for w in (u, v) if g.degree(w) == 1 and h.degree(w) == 1]
    if not leaf_candidates:
        raise GraphError(f"{{{u}, {v}}} is not a common leaf edge")
    leaf = leaf_candidates[0]
    support = v if leaf == u else u

    if len(tuple_g) != g.edge_count or len(tuple_h) != h.edge_count:
        raise GraphError("tuple lengths must match the edge counts of the factors")
    key = frozenset(edge)
    pos_g = next(i for i, e in enumerate(g.edges) if frozenset(e) == key)
    pos_h = next(i for i, e in enumerate(h.edges) if frozenset(e) == key)
    shared = tuple_g[pos_g]
    if tuple_h[pos_h] != shared:
        raise GraphError("the shared edge must receive the same multiplicity in both factors")

    text_g, text_h = render_tuple(tuple_g), render_tuple(tuple_h)
    report = ScenarioReport(
        scenario=f"verify-glue/{graph_digest(g)}+{graph_digest(h)}/e={u}-{v}/t={text_g}/{text_h}",
        inputs={
            "graph": graph_digest(g),
            "graph2": graph_digest(h),
            "edge": f"{u}-{v}",
            "tuple": text_g,
            "tuple2": text_h,
        },
    )
    asserting = True
    if shared < max(tuple_g) or shared < max(tuple_h):
        report.flag("shared-edge multiplicity is not maximal; exploring anyway")
        asserting = False
    asserting = _no_zero_multiplicity(report, tuple_g, tuple_h) and asserting

    def shed_support(graph: Graph, t: Sequence[int]) -> tuple[Graph, bool]:
        """The duplication of ``graph`` by t, and whether the first
        ``shared`` shadows of the support form a shedding sequence in it."""
        dup = duplicate_edges(graph, t)
        return dup, check_shedding_sequence(dup, shadows_of(dup, support)[:shared]).verdict

    factor_ok = True
    for label, factor, t in (("G", g, tuple_g), ("H", h, tuple_h)):
        ok = shed_support(factor, t)[1]
        report.observe(f"factor-{label}-shedding-sequence", _yesno(ok))
        factor_ok = factor_ok and ok

    glued_tuple = (*tuple_g, *tuple_h[:pos_h], *tuple_h[pos_h + 1:])
    glued_dup, glued_ok = shed_support(glue_along_edge(g, h, edge), glued_tuple)
    verdict = vertex_decomposable(glued_dup)
    asserting = asserting and factor_ok
    report.check("glued-shedding-sequence", _yesno(glued_ok), asserting)
    report.check("glued-vertex-decomposable", _yesno(verdict), asserting)
    if not factor_ok:
        report.flag("a factor failed its shedding sequence; glued check is exploration")
    return report


# ---------------------------------------------------------------------------
# counterexample search

_TUPLE_SPACE_CAP = 20000


def counterexample_search(max_vertices: int, max_k: int, mode: str) -> Iterator[ScenarioReport]:
    """Stream edge-case reports over all small connected graphs.

    mode "i": whisker at sets that are NOT cycle covers and duplicate
    vertices.  Reports appear when the unduplicated graph is vertex
    decomposable but some k breaks it (a boundary witness), or when every
    k up to ``max_k`` passes anyway (evidence the hypothesis could be
    weakened).  Sets that an automorphism of the base graph maps onto each
    other give the same verdicts; only the first of them in enumeration
    order is reported.

    mode "ii": whisker at the minimum cycle cover and enumerate duplication
    tuples with entries in 1..max_k that are NOT whisker-dominant; every
    such tuple is reported with its vertex-decomposability verdict.  Tuples
    that an automorphism of the whiskered graph maps onto each other give
    isomorphic duplications, so the first of them in enumeration order is
    decided and the rest reuse its verdict.

    Reports come in enumeration order, and the CLI prints them in that
    order.  Scenario ids encode the enumeration position, but they sort in
    that order only up to 7 vertices: at 8, g1000 sorts before g101.
    """
    if not 1 <= max_vertices <= 8:
        raise GraphError("max_vertices must be between 1 and 8")
    if not 1 <= max_k <= 3:
        raise GraphError("max_k must be between 1 and 3")
    if mode not in ("i", "ii"):
        raise GraphError(f"unknown search mode {mode!r}")
    if mode == "i":
        yield from _search_non_cycle_covers(max_vertices, max_k)
    else:
        yield from _search_tuple_violations(max_vertices, max_k)


def _base_graphs(max_vertices: int) -> Iterator[tuple[Graph, str, dict[str, str]]]:
    """Every connected graph with a cycle, up to ``max_vertices`` vertices.

    In enumeration order, each with its id stem ``n{n}/g{index:03d}`` and
    its report inputs.  Forests are left out: every vertex set is a cycle
    cover of a forest.
    """
    for n in range(1, max_vertices + 1):
        for g_index, edges in enumerate(connected_graphs_up_to_isomorphism(n)):
            graph = as_graph(n, edges)
            if not graph.is_cycle_cover(()):
                inputs = {"graph": graph_digest(graph), "edges": _edge_list(graph)}
                yield graph, f"n{n}/g{g_index:03d}", inputs


def _search_non_cycle_covers(max_vertices: int, max_k: int) -> Iterator[ScenarioReport]:
    for graph, stem, inputs in _base_graphs(max_vertices):
        engines = _whiskered_engines(graph, max_k)
        for combo in _orbit_minimal_non_covers(graph.adjacency_masks()):
            report = _explore_non_cycle_cover(engines, graph, combo, inputs, stem)
            if report is not None:
                yield report


def _orbit_minimal_non_covers(rows: Sequence[int]) -> Iterator[tuple[int, ...]]:
    """Vertex sets S that are not cycle covers, one per Aut(G) orbit.

    Sets come in enumeration order (by size, then lexicographically), and
    the one kept from each orbit is its first, the lexicographically
    smallest: the image of S under no automorphism precedes S.  Orbits
    preserve size, and between two sets of one size the one holding the
    lowest element of their symmetric difference comes first.
    """
    n = len(rows)
    full = (1 << n) - 1
    images = [[1 << image for image in sigma] for sigma in automorphisms(rows)[1:]]
    for size in range(n + 1):
        for combo in combinations(range(n), size):
            smask = sum(1 << i for i in combo)
            if _bitgraph.is_forest(rows, full & ~smask):
                continue
            for bit in images:
                diff = smask ^ sum(bit[i] for i in combo)
                if diff & -diff & ~smask:
                    break  # the image holds the lowest differing vertex
            else:
                yield combo


def _whiskered_engines(
    graph: Graph, max_k: int
) -> list[tuple[DecompositionEngine, int, list[int]]]:
    """One engine on W_k per k up to ``max_k``, W being G whiskered everywhere.

    Each comes with the mask of G's shadows in W_k and the mask of each
    vertex's leaf shadows: with the leaf masks of S added, the first mask
    induces G whiskered at S and duplicated k times, up to vertex names.
    """
    n = graph.vertex_count
    pairs = graph.edge_indices + tuple((i, n + i) for i in range(n))
    engines = []
    for k in range(1, max_k + 1):
        t = (k,) * len(pairs)
        blocks = shadow_blocks(2 * n, pairs, t)
        engine = DecompositionEngine(duplicated_edge_rows(2 * n, pairs, t))
        engines.append((engine, sum(blocks[:n]), blocks[n:]))
    return engines


def _explore_non_cycle_cover(
    engines: Sequence[tuple[DecompositionEngine, int, list[int]]],
    graph: Graph,
    combo: Sequence[int],
    inputs: Mapping[str, str],
    stem: str,
) -> ScenarioReport | None:
    max_k = len(engines)
    verdicts: list[bool] = []
    for engine, base, leaves in engines:
        verdicts.append(engine.is_vd_mask(base | sum(leaves[i] for i in combo)))
        if not verdicts[-1]:
            break
    if not verdicts[0]:
        return None  # not decomposable even before duplicating: not an edge case
    names = [graph.vertex_names[i] for i in combo]
    report = ScenarioReport(
        scenario=f"search-i/{stem}/S{len(names)}:{'+'.join(names) or '-'}",
        inputs={**inputs, "S": "+".join(names) or "(empty)", "max_k": str(max_k)},
    )
    report.flag("S is not a cycle cover")
    for k, verdict in enumerate(verdicts, start=1):
        report.observe(f"vertex-decomposable k={k}", _yesno(verdict))
    if all(verdicts) and len(verdicts) == max_k:
        report.flag("edge case: decomposability survived without the cycle-cover hypothesis")
    else:
        report.flag(f"boundary: decomposability broke at k={len(verdicts)}")
    return report


def _search_tuple_violations(max_vertices: int, max_k: int) -> Iterator[ScenarioReport]:
    for graph, stem, inputs in _base_graphs(max_vertices):
        whiskered = add_whiskers(graph, graph.minimum_cycle_cover())
        h = whiskered.graph
        m = h.edge_count
        base = f"search-ii/{stem}"
        inputs = {**inputs, "S": "+".join(whiskered.leaves)}
        if max_k**m > _TUPLE_SPACE_CAP:
            report = ScenarioReport(scenario=f"{base}/skipped", inputs=inputs)
            report.flag(
                f"skipped: {max_k}^{m} tuples exceed the desk-scale cap {_TUPLE_SPACE_CAP}"
            )
            yield report
            continue
        dominance = dominance_rules(whiskered)
        orders = _tuple_image_orders(h.adjacency_masks(), h.edge_indices)
        shared: dict[tuple[int, ...], bool] = {}  # verdicts of images not reached yet
        for entries in product(range(1, max_k + 1), repeat=m):
            if dominates(dominance, entries):
                continue
            verdict = shared.pop(entries, None)
            if verdict is None:  # the first tuple of its Aut(h) orbit
                verdict = _duplication_is_vd(h, entries)
                for order in orders:
                    image = tuple(map(entries.__getitem__, order))
                    if image > entries and not dominates(dominance, image):
                        shared[image] = verdict
            t = render_tuple(entries)
            report = ScenarioReport(scenario=f"{base}/t={t}", inputs={**inputs, "tuple": t})
            report.flag("tuple is not whisker-dominant")
            report.observe("vertex-decomposable", _yesno(verdict))
            if verdict:
                report.flag("edge case: decomposability survived a non-dominant tuple")
            yield report


def _tuple_image_orders(
    rows: Sequence[int], pairs: Sequence[tuple[int, int]]
) -> list[list[int]]:
    """How Aut(h) moves duplication tuples: one gather order per automorphism.

    An automorphism sigma of h carries the duplication of h by t onto the
    duplication by sigma.t, where (sigma.t)[sigma(e)] = t[e], through
    x.p -> sigma(x).p: the shadow-edge rule is symmetric in an edge's two
    ends.  So sigma.t is ``tuple(t[i] for i in order)`` with
    order[sigma(e)] = e, sigma(e) the position of {sigma(a), sigma(b)} for
    e = {a, b}.  The identity is left out.
    """
    position = {frozenset(e): i for i, e in enumerate(pairs)}
    orders = []
    for sigma in automorphisms(rows)[1:]:
        order = [0] * len(pairs)
        for e, (a, b) in enumerate(pairs):
            order[position[frozenset((sigma[a], sigma[b]))]] = e
        orders.append(order)
    return orders
