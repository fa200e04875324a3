"""In-memory span tracer that wraps symcover's layer boundaries from outside.

Nothing under ``src/`` is edited: :meth:`Tracer.install` replaces each traced
function with a wrapper in every ``symcover`` module namespace that holds it
(so ``from .decomposability import vertex_decomposable`` in ``scenarios`` is
traced too) and on the class for methods and constructors.

A span is (name, parent span, start, end).  Spans live in four flat arrays
while the pass runs and are written out once at the end.  A generator is
recorded as one span per resumption, so its spans nest inside whichever span
consumed it.  Self time of a span is its duration minus the durations of its
direct children; spans nest strictly because the benchmark is one thread.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from array import array
from collections import Counter
from pathlib import Path

# (module, qualified name) of every traced boundary: the functions the
# per-layer metrics name, plus every other symcover function that the
# benchmark or another layer calls, so that their time is not counted in
# the caller's layer.  Hot leaf helpers such as ``_bitgraph.bits`` are left
# out on purpose: a span per bit would cost more than the work it measures,
# so their time counts as their caller's.
TARGETS = (
    ("cli", "main"),
    ("scenarios", "counterexample_search"),
    ("scenarios", "verify_main_theorem"),
    ("scenarios", "verify_edge_theorem"),
    ("scenarios", "verify_glue_star"),
    ("scenarios", "verify_glue_theorem"),
    ("scenarios", "ScenarioReport.to_text"),
    ("enumeration", "canonical_form"),
    ("enumeration", "connected_graphs_up_to_isomorphism"),
    ("graphs", "Graph.__init__"),
    ("graphs", "Graph.is_cycle_cover"),
    ("graphs", "Graph.minimum_cycle_cover"),
    ("graphs", "Graph.minimal_vertex_covers"),
    ("graphs", "add_whiskers"),
    ("graphs", "attach_star_complete"),
    ("graphs", "glue_along_edge"),
    ("graphs", "load_graph"),
    ("duplication", "duplicate_vertices"),
    ("duplication", "duplicate_edges"),
    ("duplication", "satisfies_whisker_dominance"),
    ("duplication", "shadows_of"),
    ("decomposability", "vertex_decomposable"),
    ("decomposability", "is_vertex_decomposable"),
    ("decomposability", "validate_certificate"),
    ("decomposability", "linear_order_from_certificate"),
    ("decomposability", "check_shedding_sequence"),
    ("decomposability", "DecompositionEngine.sheds"),
    ("decomposability", "DecompositionEngine.is_vd_mask"),
    ("ideals", "MonomialIdeal.__init__"),
    ("ideals", "cover_ideal"),
    ("ideals", "symbolic_power"),
    ("ideals", "polarize"),
    ("ideals", "depolarize"),
    ("ideals", "has_linear_quotients"),
    ("ideals", "is_linear_quotients_order"),
    ("ideals", "load_ideal"),
    ("_bitgraph", "maximal_independent_sets"),
)

# the eight layers; ``_bitgraph`` is reported as ``bitgraph`` because metric
# names must start with a letter or digit
LAYERS = ("cli", "scenarios", "enumeration", "graphs", "duplication",
          "decomposability", "ideals", "bitgraph")

ROOT = "bench.pass"


def span_name(module: str, qualname: str) -> str:
    """``graphs.Graph.__init__`` is named ``graphs.Graph``: one span per construction."""
    return f"{module.lstrip('_')}.{qualname.removesuffix('.__init__')}"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.kind = array("H")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self._open = [-1]
        self.calls: Counter[str] = Counter()
        self.yielded: Counter[str] = Counter()
        self.positive: Counter[str] = Counter()
        self._restore: list[tuple[object, str, object]] = []
        self._saved_limit = 0

    # -- recording ----------------------------------------------------------

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name_id: int) -> int:
        index = len(self.start)
        self.kind.append(name_id)
        self.parent.append(self._open[-1])
        self.end.append(0.0)
        self._open.append(index)
        self.start.append(time.perf_counter())
        return index

    def close(self, index: int) -> None:
        self.end[index] = time.perf_counter()
        self._open.pop()

    def _wrap(self, name: str, fn):
        name_id = self.name_id(name)
        opener, closer = self.open, self.close
        calls, yielded, positive = self.calls, self.yielded, self.positive

        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def traced_gen(*args, **kwargs):
                calls[name] += 1
                inner = fn(*args, **kwargs)
                try:
                    while True:
                        index = opener(name_id)
                        try:
                            item = next(inner)
                        except StopIteration:
                            return
                        finally:
                            closer(index)
                        yielded[name] += 1
                        yield item
                finally:
                    inner.close()

            return traced_gen

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = opener(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                closer(index)
            calls[name] += 1
            if result:
                positive[name] += 1
            return result

        return traced

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        import symcover

        modules = [symcover] + [
            m for key, m in sys.modules.items() if key.startswith("symcover.")
        ]
        for module_name, qualname in TARGETS:
            owner = sys.modules[f"symcover.{module_name}"]
            *outer, attr = qualname.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            wrapped = self._wrap(span_name(module_name, qualname), original)
            if outer:
                self._patch(owner, attr, original, wrapped)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, original, wrapped)
        # every traced call adds one wrapper frame, so a recursion through
        # traced functions is at most twice as deep as untraced
        self._saved_limit = sys.getrecursionlimit()
        sys.setrecursionlimit(2 * self._saved_limit + 50)

    def _patch(self, owner, key: str, original, wrapped) -> None:
        setattr(owner, key, wrapped)
        self._restore.append((owner, key, original))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()
        if self._saved_limit:
            sys.setrecursionlimit(self._saved_limit)

    # -- analysis -------------------------------------------------------------

    def self_times(self) -> tuple[dict[str, float], dict[str, float]]:
        """Per span name: summed self time and summed (inclusive) duration."""
        n = len(self.start)
        children = [0.0] * n
        durations = [self.end[i] - self.start[i] for i in range(n)]
        parent = self.parent
        for i in range(n):
            p = parent[i]
            if p >= 0:
                children[p] += durations[i]
        own: Counter[str] = Counter()
        total: Counter[str] = Counter()
        names, kind = self.names, self.kind
        for i in range(n):
            name = names[kind[i]]
            own[name] += durations[i] - children[i]
            total[name] += durations[i]
        return dict(own), dict(total)

    def write(self, path: Path) -> None:
        """One JSON header line, then the kind, parent, start and end arrays."""
        path.parent.mkdir(parents=True, exist_ok=True)
        header = {
            "names": self.names,
            "spans": len(self.start),
            "arrays": [["kind", "H"], ["parent", "q"], ["start", "d"], ["end", "d"]],
        }
        with open(path, "wb") as out:
            out.write(json.dumps(header).encode() + b"\n")
            for column in (self.kind, self.parent, self.start, self.end):
                column.tofile(out)


# stats reported per span name; ``scenarios.verify`` sums the four verifiers
REPORTED = {
    "bitgraph.maximal_independent_sets": ("calls", "yielded", "self_s"),
    "decomposability.DecompositionEngine.sheds": ("calls", "self_s", "true_ratio"),
    "decomposability.DecompositionEngine.is_vd_mask": ("calls",),
    "decomposability.vertex_decomposable": ("calls", "total_s"),
    "decomposability.is_vertex_decomposable": ("calls", "total_s"),
    "decomposability.validate_certificate": ("calls", "self_s"),
    "decomposability.linear_order_from_certificate": ("calls", "self_s"),
    "decomposability.check_shedding_sequence": ("calls", "self_s"),
    "ideals.is_linear_quotients_order": ("calls", "self_s"),
    "enumeration.canonical_form": ("calls", "self_s"),
    "enumeration.connected_graphs_up_to_isomorphism": ("calls", "self_s"),
    "duplication.duplicate_vertices": ("calls", "self_s"),
    "duplication.duplicate_edges": ("calls", "self_s"),
    "duplication.satisfies_whisker_dominance": ("calls", "self_s"),
    "graphs.Graph": ("calls", "self_s"),
    "graphs.add_whiskers": ("calls", "self_s"),
    "graphs.Graph.is_cycle_cover": ("calls", "self_s"),
    "graphs.Graph.minimum_cycle_cover": ("calls", "self_s"),
    "graphs.Graph.minimal_vertex_covers": ("calls", "self_s"),
    "ideals.symbolic_power": ("calls", "self_s"),
    "ideals.cover_ideal": ("calls", "self_s"),
    "ideals.polarize": ("calls", "self_s"),
    "ideals.MonomialIdeal": ("calls", "self_s"),
    "ideals.has_linear_quotients": ("calls", "self_s", "yes_ratio"),
    "scenarios.counterexample_search": ("yielded",),
    "scenarios.verify": ("calls", "self_s"),
    "scenarios.ScenarioReport.to_text": ("calls", "self_s"),
    "cli.main": ("calls", "self_s"),
}
UNITS = {"calls": "count", "yielded": "count", "spans": "count",
         "true_ratio": "ratio", "yes_ratio": "ratio"}


def unit_of(name: str) -> str:
    """Unit of a per-layer metric; every other stat is a time in seconds."""
    return UNITS.get(name.rsplit(".", 1)[1], "s")


def _group(name: str) -> str:
    return "scenarios.verify" if name.startswith("scenarios.verify_") else name


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced pass, named ``<layer>.<function>.<stat>``.

    Ratios are 0 when the function was not called.  ``trace.unattributed_s``
    is the benchmark's own time inside the pass (checks and tracing
    bookkeeping outside any traced call): the eight layers' self times plus
    it sum to ``trace.pass_s``.
    """
    own, total = tracer.self_times()
    stats: dict[str, Counter] = {}
    for name in set(own) | set(tracer.calls) | set(tracer.yielded):
        acc = stats.setdefault(_group(name), Counter())
        acc["calls"] += tracer.calls[name]
        acc["yielded"] += tracer.yielded[name]
        acc["positive"] += tracer.positive[name]
        acc["self_s"] += own.get(name, 0.0)
        acc["total_s"] += total.get(name, 0.0)
    out: dict[str, float] = {}
    for name, wanted in REPORTED.items():
        acc = stats.get(name, Counter())
        for stat in wanted:
            if stat.endswith("_ratio"):
                value = acc["positive"] / acc["calls"] if acc["calls"] else 0.0
            else:
                value = acc[stat]
            out[f"{name}.{stat}"] = value
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(v for k, v in own.items() if k.startswith(layer + "."))
    out["trace.pass_s"] = total.get(ROOT, 0.0)
    out["trace.unattributed_s"] = own.get(ROOT, 0.0)
    out["trace.spans"] = len(tracer.start)
    return out
