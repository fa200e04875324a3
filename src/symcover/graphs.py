"""Finite simple graphs with named vertices and the constructions built on them.

The graph layer keeps three pieces of structure that the rest of the package
relies on:

* vertices are ordered (insertion order is canonical),
* edges are ordered (insertion order defines the edge indexing e_1..e_m used
  by duplication tuples),
* vertices are plain names without whitespace; a name states what the rest
  of the package needs to know of a vertex.  The shadow ``x.p`` of a duplication
  is named for its base ``x`` and copy ``p`` (see duplication.py), and
  ``WhiskeredGraph``, a map from each support to its leaves, is the one
  record of which vertices are whiskers.

Adjacency is held once, in ``Graph._rows``: one bitmask row per vertex over
the vertex order, built in ``Graph.__init__``.  Every graph query reads those
rows, and ``adjacency_masks`` hands a copy to the decomposability engine;
names appear only at the boundary.

All values are immutable after construction and all operations are pure.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from itertools import chain, combinations
from typing import Iterable, Mapping, Sequence

from . import _bitgraph


class GraphError(ValueError):
    """Raised for malformed graphs or graph operations on bad input."""


# ---------------------------------------------------------------------------
# graphs

class Graph:
    """Finite simple undirected graph over named, ordered vertices."""

    __slots__ = ("_names", "_index", "_edges", "_edge_indices", "_rows")

    def __init__(self, vertices: Sequence[str], edges: Sequence[tuple[str, str]] = ()):
        names = tuple(vertices)
        index: dict[str, int] = {}
        for i, name in enumerate(names):
            if name.split() != [name]:
                raise GraphError(f"vertex name {name!r} must be nonempty and free of whitespace")
            if name in index:
                raise GraphError(f"duplicate vertex name {name!r}")
            index[name] = i

        pairs: list[tuple[int, int]] = []
        rows = [0] * len(names)
        for u, w in edges:
            if u not in index:
                raise GraphError(f"edge endpoint {u!r} is not a vertex")
            if w not in index:
                raise GraphError(f"edge endpoint {w!r} is not a vertex")
            if u == w:
                raise GraphError(f"loop at {u!r} is not allowed")
            i, j = index[u], index[w]
            if rows[i] >> j & 1:
                raise GraphError(f"duplicate edge {{{u}, {w}}}")
            rows[i] |= 1 << j
            rows[j] |= 1 << i
            pairs.append((i, j))

        self._names = names
        self._index = index
        self._edges = tuple((names[i], names[j]) for i, j in pairs)
        self._edge_indices = tuple(pairs)
        self._rows = tuple(rows)

    # -- basic accessors ----------------------------------------------------

    @property
    def vertex_names(self) -> tuple[str, ...]:
        return self._names

    @property
    def edges(self) -> tuple[tuple[str, str], ...]:
        return self._edges

    @property
    def edge_indices(self) -> tuple[tuple[int, int], ...]:
        return self._edge_indices

    @property
    def vertex_count(self) -> int:
        return len(self._names)

    @property
    def edge_count(self) -> int:
        return len(self._edges)

    def has_vertex(self, name: str) -> bool:
        return name in self._index

    def index_of(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise GraphError(f"unknown vertex {name!r}") from None

    def has_edge(self, u: str, v: str) -> bool:
        i = self._index.get(u)
        j = self._index.get(v)
        return i is not None and j is not None and bool(self._rows[i] >> j & 1)

    def neighbors(self, name: str) -> frozenset[str]:
        return frozenset(self.names_of(self._rows[self.index_of(name)]))

    def degree(self, name: str) -> int:
        return self._rows[self.index_of(name)].bit_count()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self._names == other._names and self._rows == other._rows

    def __hash__(self) -> int:
        return hash((self._names, self._rows))

    def __repr__(self) -> str:
        return f"Graph({self.vertex_count} vertices, {self.edge_count} edges)"

    # -- bitmask view -------------------------------------------------------

    def adjacency_masks(self) -> list[int]:
        """Adjacency rows as bitsets over the vertex order."""
        return list(self._rows)

    def full_mask(self) -> int:
        return (1 << len(self._names)) - 1

    def mask_of(self, names: Iterable[str]) -> int:
        mask = 0
        for name in names:
            mask |= 1 << self.index_of(name)
        return mask

    def names_of(self, mask: int) -> tuple[str, ...]:
        return tuple(self._names[i] for i in _bitgraph.bits(mask))

    # -- subgraphs ----------------------------------------------------------

    def induced_subgraph(self, names: Iterable[str]) -> Graph:
        """Induced subgraph, keeping vertex and edge order."""
        keep = set(names)
        for name in keep:
            self.index_of(name)
        edges = [(u, w) for u, w in self._edges if u in keep and w in keep]
        return Graph([v for v in self._names if v in keep], edges)

    def delete_vertices(self, names: Iterable[str]) -> Graph:
        drop = set(names)
        for name in drop:
            self.index_of(name)
        return self.induced_subgraph(n for n in self.vertex_names if n not in drop)

    # -- independence and covers ---------------------------------------------

    def _canonical_sets(self, masks: Iterable[int]) -> list[frozenset[str]]:
        """Vertex sets ordered by size, then lexicographically by indices."""
        ordered = sorted(masks, key=lambda m: (m.bit_count(), tuple(_bitgraph.bits(m))))
        return [frozenset(self.names_of(m)) for m in ordered]

    def maximal_independent_sets(self) -> list[frozenset[str]]:
        """All inclusion-maximal independent sets, canonically ordered.

        Order: by size, then lexicographically by vertex indices.
        """
        return self._canonical_sets(
            _bitgraph.maximal_independent_sets(self._rows, self.full_mask())
        )

    def minimal_vertex_covers(self) -> list[frozenset[str]]:
        """Complements of the maximal independent sets, canonically ordered."""
        full = self.full_mask()
        return self._canonical_sets(
            full & ~mask for mask in _bitgraph.maximal_independent_sets(self._rows, full)
        )

    # -- cycles ---------------------------------------------------------------

    def is_cycle_cover(self, names: Iterable[str]) -> bool:
        """True iff removing the given vertices leaves an acyclic graph."""
        return _bitgraph.is_forest(self._rows, self.full_mask() & ~self.mask_of(names))

    def minimum_cycle_cover(self) -> frozenset[str]:
        """A smallest vertex set meeting every cycle, exact by increasing size.

        Ties are broken by canonical vertex order, so the result is
        deterministic.  Search is exhaustive; intended for small graphs.
        """
        full = self.full_mask()
        names = self.vertex_names
        for size in range(len(names) + 1):
            for combo in combinations(range(len(names)), size):
                mask = 0
                for i in combo:
                    mask |= 1 << i
                if _bitgraph.is_forest(self._rows, full & ~mask):
                    return frozenset(names[i] for i in combo)
        raise AssertionError("the full vertex set is always a cycle cover")


def build_graph(vertex_names: Sequence[str], edge_pairs: Sequence[tuple[str, str]]) -> Graph:
    """Build a simple graph; the order of ``edge_pairs`` is the edge indexing."""
    return Graph(list(vertex_names), list(edge_pairs))


# ---------------------------------------------------------------------------
# fresh vertex names

_NUMBERED = re.compile(r"^(.*?)(\d+)$")


def fresh_names(existing: Iterable[str], count: int, fallback_stem: str) -> list[str]:
    """Deterministic fresh names that do not collide with ``existing``.

    When every existing name is ``<stem><integer>`` with one common stem, the
    numbering simply continues (x1..x4 grows x5, x6, ...), matching how the
    constructions here are usually drawn.  Otherwise names are derived from
    ``fallback_stem``.
    """
    taken = set(existing)
    numbered = [_NUMBERED.match(name) for name in taken]
    if taken and all(numbered) and len({m.group(1) for m in numbered}) == 1:
        stem, nxt = numbered[0].group(1), 1 + max(int(m.group(2)) for m in numbered)
    else:
        stem, nxt = fallback_stem, 1
    out: list[str] = []
    while len(out) < count:
        cand = f"{stem}{nxt}"
        nxt += 1
        if cand not in taken:
            out.append(cand)
    return out


# ---------------------------------------------------------------------------
# whiskering

@dataclass(frozen=True)
class WhiskeredGraph:
    """A graph together with the whiskers added to it.

    ``graph`` is the whiskered graph and ``leaves`` maps each support vertex
    to its whisker leaves, in order; the base graph is ``graph`` without the
    leaves.  Edge order in ``graph`` is: all base edges first, then whisker
    edges grouped by support in canonical vertex order.  This record is the
    one place that says which vertices are whiskers.
    """

    graph: Graph
    leaves: Mapping[str, tuple[str, ...]]

    def __post_init__(self) -> None:
        for s, leaves in self.leaves.items():
            if not leaves:
                raise GraphError(f"support vertex {s!r} has no whisker edges")
            if len(set(leaves)) < len(leaves):
                raise GraphError(f"support vertex {s!r} lists a whisker leaf twice")
            for leaf in leaves:
                if leaf in self.leaves:
                    raise GraphError(f"whisker leaf {leaf!r} is also a support")
                if not self.graph.has_edge(s, leaf):
                    raise GraphError(f"whisker edge ({s}, {leaf}) is not an edge of the graph")
                if self.graph.degree(leaf) != 1:
                    raise GraphError(f"whisker vertex {leaf!r} must have degree 1")


def add_whiskers(
    graph: Graph,
    supports: Iterable[str],
    counts: Mapping[str, int] | int = 1,
) -> WhiskeredGraph:
    """Attach pendant vertices at each support vertex.

    ``counts`` gives the number of whiskers per support vertex (an int means
    that many at every support; default one each).  A support without a
    count is an error.  A count for a vertex outside ``supports`` is
    ignored; one for a name that is not a vertex is an error.
    """
    support_list = sorted(set(supports), key=graph.index_of)
    if isinstance(counts, int):
        counts = {s: counts for s in support_list}
    for name in counts:
        if not graph.has_vertex(name):
            raise GraphError(f"whisker count for unknown vertex {name!r}")
    total = 0
    for s in support_list:
        if s not in counts:
            raise GraphError(f"no whisker count for support {s!r}")
        c = counts[s]
        if c < 1:
            raise GraphError(f"whisker count for {s!r} must be >= 1, got {c}")
        total += c

    fresh = fresh_names(graph.vertex_names, total, fallback_stem="w")
    names = iter(fresh)
    leaves = {s: tuple(next(names) for _ in range(counts[s])) for s in support_list}
    wedges = tuple((s, leaf) for s in support_list for leaf in leaves[s])
    return WhiskeredGraph(Graph(graph.vertex_names + tuple(fresh), graph.edges + wedges), leaves)


# ---------------------------------------------------------------------------
# gluing and star complete attachments

def glue_along_edge(g: Graph, h: Graph, edge: tuple[str, str]) -> Graph:
    """Glue a fresh copy of ``h`` onto ``g`` by identifying the shared edge.

    The two endpoints of ``edge`` are identified; every other vertex of the
    copy is renamed with a ``y`` prefix (x3 -> y3), suffixed if that collides.
    """
    u, v = edge
    if not g.has_edge(u, v):
        raise GraphError(f"edge {{{u}, {v}}} is not an edge of the first graph")
    if not h.has_edge(u, v):
        raise GraphError(f"edge {{{u}, {v}}} is not an edge of the second graph")

    used = set(g.vertex_names)
    rename: dict[str, str] = {u: u, v: v}
    for name in h.vertex_names:
        if name in (u, v):
            continue
        cand = "y" + name[1:] if name.startswith("x") else "y" + name
        bump = 2
        fresh = cand
        while fresh in used:
            fresh = f"{cand}_{bump}"
            bump += 1
        rename[name] = fresh
        used.add(fresh)

    verts = list(g.vertex_names)
    verts.extend(rename[name] for name in h.vertex_names if name not in (u, v))
    edges = list(g.edges)
    for a, b in h.edges:
        if frozenset((a, b)) == frozenset((u, v)):
            continue
        edges.append((rename[a], rename[b]))
    return Graph(verts, edges)


@dataclass(frozen=True)
class StarCompleteSpec:
    """Cliques to be joined at a common vertex of a graph.

    Each entry of ``clique_sizes`` counts the vertices of one clique
    including the common vertex, so an entry of 2 is a pendant edge.
    """

    attach_at: str
    clique_sizes: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.clique_sizes:
            raise GraphError("star complete attachment needs at least one clique")
        for s in self.clique_sizes:
            if s < 2:
                raise GraphError(f"clique size must be >= 2, got {s}")

    @property
    def classification(self) -> str:
        """``"pure"`` iff every maximal clique has at least 3 vertices."""
        return "pure" if min(self.clique_sizes) >= 3 else "non-pure"


def attach_star_complete(graph: Graph, spec: StarCompleteSpec) -> tuple[Graph, str]:
    """Attach the specified cliques at the common vertex; returns (graph, purity)."""
    center = spec.attach_at
    graph.index_of(center)
    total_new = sum(s - 1 for s in spec.clique_sizes)
    names = fresh_names(graph.vertex_names, total_new, fallback_stem="k")

    edges = list(graph.edges)
    pos = 0
    for size in spec.clique_sizes:
        ring = [center, *names[pos : pos + size - 1]]
        pos += size - 1
        edges.extend(combinations(ring, 2))
    return Graph(graph.vertex_names + tuple(names), edges), spec.classification


# ---------------------------------------------------------------------------
# file formats

def render_graph_text(graph: Graph) -> str:
    """Plain text form: one ``vertices:`` header, then ``edge:`` lines in order."""
    lines = ["vertices: " + " ".join(graph.vertex_names)]
    lines.extend(f"edge: {u} {v}" for u, v in graph.edges)
    return "\n".join(lines) + "\n"


def parse_graph_text(text: str) -> Graph:
    vertices: list[str] | None = None
    edges: list[tuple[str, str]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("vertices:"):
            if vertices is not None:
                raise GraphError(f"line {lineno}: repeated vertices header")
            vertices = line[len("vertices:"):].split()
        elif line.startswith("edge:"):
            parts = line[len("edge:"):].split()
            if len(parts) != 2:
                raise GraphError(f"line {lineno}: an edge needs exactly two endpoints")
            edges.append((parts[0], parts[1]))
        else:
            raise GraphError(f"line {lineno}: unrecognized line {line!r}")
    if vertices is None:
        raise GraphError("missing 'vertices:' header line")
    return build_graph(vertices, edges)


def graph_to_json_dict(graph: Graph, whiskered: WhiskeredGraph | None = None) -> dict:
    doc: dict = {
        "vertices": list(graph.vertex_names),
        "edges": [[u, v] for u, v in graph.edges],
    }
    if whiskered is not None:
        doc["whiskers"] = [
            {"support": support, "leaf": leaf}
            for support, leaves in whiskered.leaves.items() for leaf in leaves
        ]
    return doc


def graph_from_json_dict(doc: Mapping) -> Graph:
    """Read a graph document.

    Vertex names are JSON strings.  An optional ``whiskers`` list of
    {"support", "leaf"} entries must make a valid ``WhiskeredGraph``; the
    plain graph is returned.  Any other key is an error, so a misspelt one
    is never read as absent.
    """
    doc = {"whiskers": [], **doc}
    # a string would otherwise be read as a list of its characters
    for key in ("vertices", "edges", "whiskers"):
        if not isinstance(doc.get(key), list):
            raise GraphError(f"malformed graph document: {key!r} must be a JSON list")
    if not all(isinstance(e, list) for e in doc["edges"]):
        raise GraphError("malformed graph document: each edge must be a JSON list [u, v]")
    try:
        edges = [(u, v) for u, v in doc["edges"]]
        whiskers = [(w["support"], w["leaf"]) for w in doc["whiskers"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise GraphError(f"malformed graph document: {exc}") from exc
    unknown = (set(doc) - {"vertices", "edges", "whiskers"}).union(
        *(set(w) - {"support", "leaf"} for w in doc["whiskers"]))
    if unknown:
        raise GraphError(f"malformed graph document: unknown key {min(unknown)!r}")
    for name in chain(doc["vertices"], *edges, *whiskers):
        if not isinstance(name, str):
            raise GraphError(f"malformed graph document: vertex name {name!r} is not a string")
    graph = build_graph(doc["vertices"], edges)
    leaves: dict[str, tuple[str, ...]] = {}
    for support, leaf in whiskers:
        leaves[support] = leaves.get(support, ()) + (leaf,)
    WhiskeredGraph(graph, leaves)
    return graph


def load_graph(path: str) -> Graph:
    """Read a graph file, sniffing JSON versus the plain text format."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise GraphError(f"graph file {path!r} is not UTF-8: {exc}") from None
    stripped = text.lstrip()
    if stripped.startswith("{"):
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise GraphError(f"malformed JSON graph: {exc}") from exc
        except RecursionError:
            raise GraphError("malformed JSON graph: nested too deeply") from None
        return graph_from_json_dict(doc)
    return parse_graph_text(text)


def save_graph(graph: Graph, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        if path.endswith(".json"):
            json.dump(graph_to_json_dict(graph), fh, indent=2, sort_keys=True)
            fh.write("\n")
        else:
            fh.write(render_graph_text(graph))
