"""Vertex decomposability of independence complexes, at the graph level.

A graph is vertex decomposable when it is edgeless, or when it has a
shedding vertex x (no independent set of G - N[x] is maximal in G - x)
whose deletion G - x and link G - N[x] are both vertex decomposable.

The engine below answers that question exactly with three sound reductions:

* verdicts are memoized on vertex subsets of one ambient graph (deletion and
  link are both induced subgraphs, so every recursive instance is a mask),
* isolated vertices are stripped before lookup (they never change the
  verdict),
* connected components are decided independently (the independence complex
  of a disjoint union is the join, which is vertex decomposable iff both
  factors are).

The shedding test never lists maximal independent sets.  It backtracks over
the neighbors of x, looking for an independent set of G - N[x] that meets
the neighborhood of each of them; the search is at most deg x deep.  A
neighbor w with N[w] inside N[x] leaves it nothing to pick, so x sheds at
once (Woodroofe's dominated-pair lemma).

Candidate shedding vertices are tried in canonical vertex order, neighbors
of simplicial vertices first.  Those always shed by the dominated-pair exit:
a simplicial s adjacent to x has N[s] inside N[x].  This mirrors the way
whiskered graphs are actually decomposed and finds certificates fast.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from . import _bitgraph
from .graphs import Graph, GraphError
from .ideals import Monomial, cover_ideal, is_linear_quotients_order


# ---------------------------------------------------------------------------
# certificates

@dataclass(frozen=True)
class CertificateLeaf:
    """An edgeless stage; its independence complex is a simplex."""

    vertices: tuple[str, ...]


@dataclass(frozen=True)
class CertificateNode:
    """One shedding step with its deletion and link branches."""

    shedding: str
    deletion: "DecompositionCertificate"
    link: "DecompositionCertificate"


DecompositionCertificate = CertificateLeaf | CertificateNode


def render_certificate(cert: DecompositionCertificate, indent: int = 0) -> str:
    pad = "  " * indent
    if isinstance(cert, CertificateLeaf):
        return f"{pad}simplex {{{', '.join(cert.vertices)}}}"
    lines = [
        f"{pad}shed {cert.shedding}",
        f"{pad}  del:",
        render_certificate(cert.deletion, indent + 2),
        f"{pad}  link:",
        render_certificate(cert.link, indent + 2),
    ]
    return "\n".join(lines)


def validate_certificate(graph: Graph, cert: DecompositionCertificate) -> bool:
    """Walk a certificate and re-check every claim it makes.

    Each node is checked on its vertex mask: a shedding vertex must be a
    vertex of that induced subgraph and shed there, and a leaf must cover
    exactly the vertices of its mask and be edgeless.  Every shed vertex
    leaves the mask of its deletion branch, so the leaf checks pin the
    vertex set of every node above them.
    """
    engine = DecompositionEngine(graph.adjacency_masks())

    def holds(mask: int, node: DecompositionCertificate) -> bool:
        if isinstance(node, CertificateLeaf):
            return (
                frozenset(node.vertices) == frozenset(graph.names_of(mask))
                and not _bitgraph.isolated_stripped(engine._adj, mask)
            )
        if not graph.has_vertex(node.shedding):
            return False
        v = graph.index_of(node.shedding)
        return (
            bool(mask >> v & 1)
            and engine.sheds(mask, v)
            and holds(mask & ~(1 << v), node.deletion)
            and holds(mask & ~engine._closed(v), node.link)
        )

    return holds(graph.full_mask(), cert)


# ---------------------------------------------------------------------------
# the engine

class DecompositionEngine:
    """Exact vertex-decomposability over induced subgraphs of one graph.

    The ambient graph is given by its adjacency rows (bitmasks over vertex
    indices); ``names`` is needed only to build certificates, which name
    their vertices.  One engine instance shares its memo tables across every
    query about induced subgraphs of the ambient graph, which is what the
    sequence checker and the scenario search rely on.  The search in mode i
    asks one engine on W_k, the k-fold duplication of G whiskered at every
    vertex, about every whisker set S: whiskering G at S and duplicating k
    times gives the induced subgraph of W_k on the shadows of G and of the
    leaves at S.
    """

    def __init__(self, rows: Sequence[int], names: Sequence[str] | None = None):
        self._adj = list(rows)
        self._names = None if names is None else tuple(names)
        self._full = (1 << len(self._adj)) - 1
        self._shedder: dict[int, int] = {}  # component mask -> vertex that decomposes it, or -1
        self._cert_cache: dict[int, DecompositionCertificate] = {}

    # -- mask arithmetic ----------------------------------------------------

    def _closed(self, v: int) -> int:
        return self._adj[v] | (1 << v)

    # -- shedding -----------------------------------------------------------

    def sheds(self, mask: int, v: int) -> bool:
        """Shedding test for vertex v inside the induced subgraph ``mask``.

        v sheds when no independent set of G - N[v] is maximal in G - v.
        Such a set extends to a maximal one of G - N[v], so v fails to shed
        exactly when some independent set S of G - N[v] meets N(w) for every
        neighbor w of v.  The search for S backtracks over the neighbors of
        v that S does not touch yet, most constrained first; a neighbor's
        candidates are its neighbors in G - N[v] that are neither in S nor
        adjacent to S.  Each step covers at least one neighbor of v, so the
        search is at most deg v deep.  A neighbor w with N[w] inside N[v]
        has no candidates at all, so v sheds at once: that is Woodroofe's
        dominated-pair lemma.  An isolated v has no neighbors to cover and
        never sheds.
        """
        adj = self._adj
        # (vertices S may still take, neighbors of v that S does not touch)
        stack = [(mask & ~self._closed(v), adj[v] & mask)]
        while stack:
            allowed, open_nbrs = stack.pop()
            if not open_nbrs:
                return False
            fewest = None
            probe = open_nbrs
            while probe:
                low = probe & -probe
                probe ^= low
                cand = adj[low.bit_length() - 1] & allowed
                if fewest is None or cand.bit_count() < fewest.bit_count():
                    fewest = cand
                    if not cand:
                        break
            # branch on each candidate u, excluding the ones already tried:
            # every S that covers the chosen neighbor holds a first candidate
            while fewest:
                low = fewest & -fewest
                fewest ^= low
                u = low.bit_length() - 1
                stack.append((allowed & ~self._closed(u), open_nbrs & ~adj[u]))
                allowed &= ~low
        return True

    # -- decomposability ----------------------------------------------------

    def _candidates(self, mask: int) -> list[int]:
        """Vertices of ``mask`` in the order the recursion tries them:
        neighbors of simplicial vertices first, then the rest, each part in
        increasing index order."""
        adj = self._adj
        marked = 0
        probe = mask
        while probe:
            low = probe & -probe
            probe ^= low
            nbrs = adj[low.bit_length() - 1] & mask
            if not nbrs & ~marked:
                continue  # nothing left to mark, or an isolated vertex
            # simplicial when N[u] holds all of nbrs for every neighbor u
            rest = nbrs
            while rest:
                bit = rest & -rest
                rest ^= bit
                if nbrs & ~adj[bit.bit_length() - 1] & ~bit:
                    break
            else:
                marked |= nbrs
        return [*_bitgraph.bits(marked), *_bitgraph.bits(mask & ~marked)]

    def is_vd_mask(self, mask: int) -> bool:
        """Vertex decomposability of the induced subgraph on ``mask``."""
        core = _bitgraph.isolated_stripped(self._adj, mask)
        for comp in _bitgraph.components(self._adj, core):
            if not self._vd_component(comp):
                return False
        return True

    def _vd_component(self, cmask: int) -> bool:
        known = self._shedder.get(cmask)
        if known is not None:
            return known >= 0
        shedder = -1
        for v in self._candidates(cmask):
            if not self.sheds(cmask, v):
                continue
            deletion = cmask & ~(1 << v)
            link = cmask & ~self._closed(v)
            if self.is_vd_mask(deletion) and self.is_vd_mask(link):
                shedder = v
                break
        self._shedder[cmask] = shedder
        return shedder >= 0

    def is_vd(self) -> bool:
        return self.is_vd_mask(self._full)

    # -- certificates ---------------------------------------------------------

    def certificate_for_mask(self, mask: int) -> DecompositionCertificate | None:
        if self._names is None:
            raise GraphError("certificates need the vertex names of the engine's graph")
        if not self.is_vd_mask(mask):
            return None
        cached = self._cert_cache.get(mask)
        if cached is not None:
            return cached
        core = _bitgraph.isolated_stripped(self._adj, mask)
        if not core:
            cert: DecompositionCertificate = CertificateLeaf(
                tuple(self._names[i] for i in _bitgraph.bits(mask))
            )
        else:
            # every component of the stripped core has an edge
            v = self._shedder[_bitgraph.components(self._adj, core)[0]]
            deletion = self.certificate_for_mask(mask & ~(1 << v))
            link = self.certificate_for_mask(mask & ~self._closed(v))
            assert deletion is not None and link is not None
            cert = CertificateNode(self._names[v], deletion, link)
        self._cert_cache[mask] = cert
        return cert

    def certificate(self) -> DecompositionCertificate | None:
        return self.certificate_for_mask(self._full)


def is_shedding_vertex(graph: Graph, name: str) -> bool:
    """True iff no independent set of G - N[x] is maximal in G - x."""
    return DecompositionEngine(graph.adjacency_masks()).sheds(
        graph.full_mask(), graph.index_of(name)
    )


def is_vertex_decomposable(graph: Graph) -> DecompositionCertificate | None:
    """Certificate of vertex decomposability, or None when there is none."""
    return DecompositionEngine(graph.adjacency_masks(), graph.vertex_names).certificate()


def vertex_decomposable(graph: Graph) -> bool:
    """Verdict only; skips building the certificate tree."""
    return DecompositionEngine(graph.adjacency_masks()).is_vd()


# ---------------------------------------------------------------------------
# shedding sequences

@dataclass(frozen=True)
class SequenceStep:
    """One step of a shedding sequence: the vertex, whether it sheds in the
    graph it was applied to, and whether its link (the closed-neighborhood
    removal) is vertex decomposable."""

    vertex: str
    sheds: bool
    after_link_vd: bool


@dataclass(frozen=True)
class SheddingSequenceTrace:
    steps: tuple[SequenceStep, ...]
    final_vd: bool

    @property
    def verdict(self) -> bool:
        """True iff each step sheds with a decomposable link and the final graph is decomposable."""
        return self.final_vd and all(s.sheds and s.after_link_vd for s in self.steps)


def check_shedding_sequence(graph: Graph, vertices: Sequence[str]) -> SheddingSequenceTrace:
    """Verify a shedding sequence z_1..z_m.

    Conditions: each z_i sheds in the graph left after deleting
    z_1..z_{i-1}; each closed-neighborhood removal at z_i leaves a vertex
    decomposable graph; and the final deletion-only graph is vertex
    decomposable.  A step records the first two conditions; the deletions
    in between need no check of their own, because the final graph and the
    links decide them.  A true verdict certifies the input graph vertex
    decomposable.
    """
    seen: set[str] = set()
    for name in vertices:
        graph.index_of(name)
        if name in seen:
            raise GraphError(f"repeated vertex {name!r} in shedding sequence")
        seen.add(name)

    engine = DecompositionEngine(graph.adjacency_masks())
    current = graph.full_mask()
    steps: list[SequenceStep] = []
    for name in vertices:
        v = graph.index_of(name)
        steps.append(
            SequenceStep(
                vertex=name,
                sheds=engine.sheds(current, v),
                after_link_vd=engine.is_vd_mask(current & ~engine._closed(v)),
            )
        )
        current &= ~(1 << v)

    return SheddingSequenceTrace(steps=tuple(steps), final_vd=engine.is_vd_mask(current))


# ---------------------------------------------------------------------------
# from certificates to generator orders

def _shelling_facets(cert: DecompositionCertificate) -> list[frozenset[str]]:
    """Unwind a certificate into a shelling of the independence complex.

    Facets of the deletion branch come first, then the link branch's facets
    each extended by the shedding vertex; at an edgeless stage the whole
    vertex set is the unique facet.
    """
    if isinstance(cert, CertificateLeaf):
        return [frozenset(cert.vertices)]
    deletion_facets = _shelling_facets(cert.deletion)
    link_facets = _shelling_facets(cert.link)
    return deletion_facets + [f | {cert.shedding} for f in link_facets]


def linear_order_from_certificate(
    graph: Graph, cert: DecompositionCertificate
) -> list[Monomial]:
    """Generator ordering of the cover ideal extracted from a certificate.

    The certificate unwinds to a shelling of the independence complex;
    complementing each facet gives the minimal vertex covers in an order
    whose cover-product generators have linear quotients.  The output is
    re-validated before being returned; a validation failure means the
    construction itself is broken and raises.
    """
    if not validate_certificate(graph, cert):
        raise GraphError("certificate does not certify this graph")
    ideal = cover_ideal(graph)
    if ideal.is_whole_ring:
        return []
    facets = _shelling_facets(cert)
    everything = set(graph.vertex_names)
    order = [Monomial.of({v: 1 for v in everything - facet}) for facet in facets]
    if not is_linear_quotients_order(ideal, order):
        raise AssertionError(
            "internal error: certificate unwinding produced a non-linear-quotients order"
        )
    return order
