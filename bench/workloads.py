"""Inputs, passes and correctness checks of the four benchmark workloads.

``build(name, seed)`` makes a workload's inputs; that is set-up.  A pass then
runs every item once, one after another (a closed loop with one client), and
checks each answer.  An item is one query in ``vd-families`` and
``lq-ideals``; in ``search-*`` it is the wait for the next report that the
search yields, and the whole CLI text output is checked against a digest
pinned on the seed code.  README.md says why each workload exists.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import symcover as sc
from symcover import cli

FIXTURES = Path(sc.__file__).parent / "fixtures"

# argv, sha256 prefix of the text output, report count; the sweep is
# exhaustive, so these workloads ignore the seed
SEARCHES = {
    "search-i": (["search", "--max-vertices", "6", "--max-k", "2", "--mode", "i"],
                 "a6dd35a8ca0f", 979),
    "search-ii": (["search", "--max-vertices", "5", "--max-k", "2", "--mode", "ii"],
                  "1f5a88bb4bcf", 11408),
}
TINY_SEARCHES = {
    "search-i": (["search", "--max-vertices", "3", "--max-k", "2", "--mode", "i"],
                 "3f1ced81bb21", 1),
    "search-ii": (["search", "--max-vertices", "3", "--max-k", "2", "--mode", "ii"],
                  "e93678d12152", 6),
}

# verdicts pinned on the seed code; every "no" here is a known boundary case
WHISKERED_FISH_VD = {1: True, 2: False, 3: False, 4: False}
FIXTURE_LQ = {  # graph -> k -> has linear quotients (None: over the generator cap)
    "fish": {1: True, 2: False, 3: False},
    "whiskered-fish": {1: True, 2: False, 3: None},
    "whiskered-c4": {1: True, 2: True, 3: True},
    "five-vertex": {1: True, 2: True, 3: True},
}
LQ_GENERATOR_CAP = 20
# (vertices, chords) of the seeded random graphs: one graph per cell, so the
# sizes stay the same from seed to seed.  The LQ graphs are smaller: the
# symbolic power's candidate list, and with it peak memory, grows with
# 3^(vertices) at k = 2, which would make peak_rss_mb follow the seed.
VD_CELLS = tuple((n, chords) for n in (7, 8, 9) for chords in (1, 2, 3))
LQ_CELLS = tuple((n, chords) for n in (5, 6, 7) for chords in (1, 2, 3))
# glue fixtures of scenarios.json: factors, shared edge, tuples
GLUES = (
    ("glue_g.graph", "glue_h.graph", ("x1", "x2"), (1,) * 6, (1,) * 4),
    ("triangle_whiskered.graph", "triangle_whiskered.graph", ("x1", "x4"), (2,) * 4, (2,) * 4),
)


class CheckFailed(Exception):
    pass


def check(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


@dataclass
class PassResult:
    pass_s: float
    latencies: list[float]
    attempted: int
    failures: list[str] = field(default_factory=list)


# ---------------------------------------------------------------------------
# graphs made by the benchmark, not by symcover.enumeration

def path(n: int) -> sc.Graph:
    names = [f"x{i}" for i in range(1, n + 1)]
    return sc.build_graph(names, list(zip(names, names[1:])))


def cycle(n: int) -> sc.Graph:
    names = [f"x{i}" for i in range(1, n + 1)]
    return sc.build_graph(names, list(zip(names, names[1:] + names[:1])))


def random_graph(rng: random.Random, n: int, chords: int) -> sc.Graph:
    """A random spanning tree on n vertices plus ``chords`` extra edges."""
    edges = {(rng.randrange(v), v) for v in range(1, n)}
    others = [(u, v) for v in range(n) for u in range(v) if (u, v) not in edges]
    edges.update(rng.sample(others, chords))
    names = [f"x{i}" for i in range(1, n + 1)]
    return sc.build_graph(names, [(names[u], names[v]) for u, v in sorted(edges)])


def random_whiskered(rng: random.Random, sizes) -> list[tuple[str, sc.Graph]]:
    """One random graph per (vertices, chords) size, whiskered at a minimum cycle cover."""
    out = []
    for n, chords in sizes:
        g = random_graph(rng, n, chords)
        cover = sorted(g.minimum_cycle_cover(), key=g.index_of)
        out.append((f"random n={n} edges={','.join(f'{u}-{v}' for u, v in g.edges)}",
                    sc.add_whiskers(g, cover).graph))
    return out


def edge_position(graph: sc.Graph, edge: tuple[str, str]) -> int:
    return next(i for i, e in enumerate(graph.edges) if set(e) == set(edge))


def fixture(name: str) -> sc.Graph:
    return sc.load_graph(str(FIXTURES / name))


# ---------------------------------------------------------------------------
# passes

Items = list[tuple[str, Callable[[], None]]]


def run_items(fixed: Items, seeded: Items) -> PassResult:
    """Run the fixed items, then the seeded ones.

    Only fixed items give latency samples: a seeded item's cost moves with
    the seed, and so would the item at any percentile's rank.  Seeded items
    are still timed in ``pass_s`` and checked.
    """
    latencies: list[float] = []
    failures: list[str] = []
    started = time.perf_counter()
    for samples, items in ((latencies, fixed), ([], seeded)):
        for label, run in items:
            t0 = time.perf_counter()
            try:
                run()
            except Exception as exc:  # a raising query is a failed item, not a crash
                failures.append(f"{label}: {type(exc).__name__}: {exc}")
            samples.append(time.perf_counter() - t0)
    return PassResult(time.perf_counter() - started, latencies, len(fixed) + len(seeded),
                      failures)


def run_cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


def search_pass(argv: list[str], digest: str, count: int) -> PassResult:
    """One ``symcover search`` through ``cli.main``; items end at each yielded report."""
    stamps: list[float] = []
    search = cli.counterexample_search

    def stamped(*args, **kwargs):
        for report in search(*args, **kwargs):
            stamps.append(time.perf_counter())
            yield report

    cli.counterexample_search = stamped
    try:
        started = time.perf_counter()
        code, text = run_cli(argv)
        pass_s = time.perf_counter() - started
    finally:
        cli.counterexample_search = search
    # with no report at all, the whole pass is the one item
    marks = [started] + (stamps or [started + pass_s])
    latencies = [b - a for a, b in zip(marks, marks[1:])]
    got = hashlib.sha256(text.encode()).hexdigest()[:12]
    failures = []
    if (code, got, len(stamps)) != (0, digest, count):
        failures.append(f"exit {code}, digest {got}, {len(stamps)} reports; "
                        f"expected exit 0, digest {digest}, {count} reports")
    attempted = max(len(stamps), 1)
    # one digest covers the whole output, so a mismatch fails every report
    return PassResult(pass_s, latencies, attempted, failures * attempted)


# ---------------------------------------------------------------------------
# items

def vd_verdict(graph: sc.Graph, expected: bool) -> Callable[[], None]:
    def run() -> None:
        got = sc.vertex_decomposable(graph)
        check(got == expected, f"vertex_decomposable is {got}")
    return run


def vd_certified(base: sc.Graph, k: int, expected: bool,
                 with_order: bool = True) -> Callable[[], None]:
    """G_k, its certificate, the certificate's validation and its LQ order."""
    def run() -> None:
        g = sc.duplicate_vertices(base, k)
        cert = sc.is_vertex_decomposable(g)
        check((cert is not None) == expected, f"verdict {cert is not None}")
        if cert is None:
            return
        check(sc.validate_certificate(g, cert), "certificate rejected")
        if not with_order:
            return
        order = sc.linear_order_from_certificate(g, cert)
        check(sc.is_linear_quotients_order(sc.cover_ideal(g), order), "order rejected")
    return run


def shedding_sequence(graph: sc.Graph, t: tuple[int, ...], support: str,
                      shared: int) -> Callable[[], None]:
    def run() -> None:
        dup = sc.duplicate_edges(graph, t)
        trace = sc.check_shedding_sequence(dup, sc.shadows_of(dup, support)[:shared])
        check(trace.verdict, "shedding sequence rejected")
    return run


def lq_item(graph: sc.Graph, k: int, expected: bool | None,
            cap: int | None = LQ_GENERATOR_CAP) -> Callable[[], None]:
    """Symbolic power, polarization round trip, and the LQ search below ``cap``."""
    def run() -> None:
        ideal = sc.symbolic_power(graph, k)
        check(sc.depolarize(sc.polarize(ideal)) == ideal, "depolarize(polarize(I)) != I")
        capped = cap is not None and len(ideal.generators) > cap
        check(capped == (expected is None), f"{len(ideal.generators)} generators")
        if capped:
            return
        order = sc.has_linear_quotients(ideal)
        check((order is not None) == expected, f"linear quotients {order is not None}")
        if order is not None:
            check(sc.is_linear_quotients_order(ideal, order), "order rejected")
    return run


def scenario_item(entry: dict) -> Callable[[], None]:
    argv = [str(FIXTURES / a[1:]) if a.startswith("@") else a for a in entry["argv"]]

    def run() -> None:
        code, text = run_cli(argv)
        check(code == entry["expect_exit"], f"exit {code}")
        lines = text.splitlines()
        if "expect_overall" in entry:
            check(f"overall: {entry['expect_overall']}" in lines, "overall verdict")
        if "expect_step" in entry:
            step = entry["expect_step"]
            prefix = f"step {step['name']}: observed={step['observed']}"
            check(any(line.startswith(prefix) for line in lines), f"no line {prefix!r}")
    return run


# ---------------------------------------------------------------------------
# workloads

def vd_families(seed: int, tiny: bool) -> tuple[Items, Items]:
    if tiny:
        wc4 = sc.add_whiskers(cycle(4), ["x1"]).graph
        return [("P_10", vd_verdict(path(10), True))] + [
            (f"whiskered C4 k={k}", vd_certified(wc4, k, True)) for k in (1, 2)
        ], []
    items = [(f"P_{n}", vd_verdict(path(n), True)) for n in range(10, 41, 5)]
    for n in range(4, 9):
        wc = sc.add_whiskers(cycle(n), ["x1"]).graph
        items += [(f"whiskered C{n} k={k}", vd_certified(wc, k, True)) for k in range(1, 5)]
    wf = fixture("fish_whiskered.graph")
    items += [(f"whiskered fish k={k}", vd_certified(wf, k, yes))
              for k, yes in WHISKERED_FISH_VD.items()]
    boundary = sc.duplicate_edges(sc.add_whiskers(cycle(4), ["x1"]).graph, (3, 1, 1, 3, 1))
    items.append(("boundary (3,1,1,3,1)", vd_verdict(boundary, False)))
    for g_file, h_file, edge, t_g, t_h in GLUES:
        g, h = fixture(g_file), fixture(h_file)
        leaf = next(w for w in edge if g.degree(w) == 1 and h.degree(w) == 1)
        support = edge[1] if leaf == edge[0] else edge[0]
        pos_g, pos_h = edge_position(g, edge), edge_position(h, edge)
        glued = sc.glue_along_edge(g, h, edge)
        t_glued = t_g + t_h[:pos_h] + t_h[pos_h + 1:]
        for label, graph, t in ((g_file, g, t_g), (h_file, h, t_h),
                                (f"{g_file}+{h_file}", glued, t_glued)):
            items.append((f"shedding sequence {label}",
                          shedding_sequence(graph, t, support, t_g[pos_g])))
    rng = random.Random(f"vd-families/{seed}")
    seeded: Items = []
    for label, h in random_whiskered(rng, VD_CELLS):
        # the order's cost grows with the square of the generator count,
        # which varies several-fold between seeds at k >= 2; the whiskered
        # cycles above carry the order layer with fixed inputs instead
        seeded += [(f"{label} k={k}", vd_certified(h, k, True, with_order=k == 1))
                   for k in (1, 2, 3)]
    return items, seeded


def lq_ideals(seed: int, tiny: bool) -> tuple[Items, Items]:
    wc4 = sc.add_whiskers(cycle(4), ["x1"]).graph
    if tiny:
        entry = json.loads((FIXTURES / "scenarios.json").read_text())["scenarios"][0]
        return [(entry["name"], scenario_item(entry))] + [
            (f"whiskered-c4 k={k}", lq_item(wc4, k, True)) for k in (1, 2)
        ], []
    graphs = {"fish": fixture("fish.graph"), "whiskered-fish": fixture("fish_whiskered.graph"),
              "whiskered-c4": wc4,
              "five-vertex": fixture("fivevertex.graph")}
    items = [(f"{name} k={k}", lq_item(graphs[name], k, yes))
             for name, by_k in FIXTURE_LQ.items() for k, yes in by_k.items()]
    scenarios = json.loads((FIXTURES / "scenarios.json").read_text())["scenarios"]
    items += [(entry["name"], scenario_item(entry)) for entry in scenarios]
    rng = random.Random(f"lq-ideals/{seed}")
    # "yes" searches finish without backtracking, so these need no cap
    seeded = [(f"{label} k=2", lq_item(h, 2, True, cap=None))
              for label, h in random_whiskered(rng, LQ_CELLS)]
    return items, seeded


def build(name: str, seed: int, tiny: bool = False,
          digest: str | None = None) -> Callable[[], PassResult]:
    """Make one workload's inputs and return its pass.

    ``digest`` replaces the pinned search digest.
    """
    if name in SEARCHES:
        argv, pinned, count = (TINY_SEARCHES if tiny else SEARCHES)[name]
        expected = digest or pinned
        return lambda: search_pass(argv, expected, count)
    if name == "vd-families":
        fixed, seeded = vd_families(seed, tiny)
    elif name == "lq-ideals":
        fixed, seeded = lq_ideals(seed, tiny)
    else:
        raise ValueError(f"unknown workload {name!r}")
    return lambda: run_items(fixed, seeded)
