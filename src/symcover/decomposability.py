"""Vertex decomposability of independence complexes, at the graph level.

A graph is vertex decomposable when it is edgeless, or when it has a
shedding vertex x (no independent set of G - N[x] is maximal in G - x)
whose deletion G - x and link G - N[x] are both vertex decomposable.

The engine below answers that question exactly with four sound reductions:

* verdicts are memoized on vertex subsets of one ambient graph (deletion and
  link are both induced subgraphs, so every recursive instance is a mask),
* isolated vertices are left out (they never change the verdict) by the
  one scan that splits a mask into its components, which keeps only
  components with an edge,
* connected components are decided independently (the independence complex
  of a disjoint union is the join, which is vertex decomposable iff both
  factors are),
* a vertex u whose link G - N[u] is not vertex decomposable refutes G,
  whether u sheds or not.

That last one is the link rule: every vertex link of a vertex decomposable
complex is vertex decomposable (Provan–Billera, Math. Oper. Res. 1980, for
pure complexes; the same induction proves it for the nonpure ones of
Björner–Wachs, Trans. AMS 1997).  Ind(G - N[u]) is the link of u in
Ind(G).  Induct on the number of vertices, with x a shedding vertex of a
vertex decomposable complex D and u a vertex of D.  If u = x, lk(u) is
vertex decomposable by definition.  If x and u are adjacent, no face holds
both, so lk(u) = lk_{del x}(u).  Otherwise x sheds lk(u), with deletion
lk_{del x}(u) and link lk_{lk x}(u), both vertex decomposable by
induction: a facet F of both would make F ∪ {u} a facet of both lk(x) and
del(x), which a shedding vertex rules out.

The shedding test never lists maximal independent sets.  It backtracks over
the neighbors of x, looking for an independent set of G - N[x] that meets
the neighborhood of each of them; the search is at most deg x deep.  A
neighbor w with N[w] inside N[x] leaves it nothing to pick, so x sheds at
once (Woodroofe's dominated-pair lemma).

Candidate shedding vertices are tried in canonical vertex order, neighbors
of simplicial vertices first.  Those always shed by the dominated-pair exit:
a simplicial s adjacent to x has N[s] inside N[x].  So the engine accepts
them without the shedding test; the certificate validator still runs it on
every node.  One scan of a component marks them, and the lowest marked
vertex is the first candidate; the full candidate list is built only for
the link sweep, when the first candidate fails.  This mirrors the way
whiskered graphs are actually decomposed and finds certificates fast.

The engine holds only the adjacency rows and that memo.  Certificates are
read off the memo, and every walk over one keeps its own stack.  Checking a
certificate and unwinding it into a shelling are one walk.
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


def render_certificate(cert: DecompositionCertificate) -> str:
    """One stage per line, each branch four spaces deeper than its node."""
    lines = []
    stack: list[tuple[str, DecompositionCertificate | str]] = [("", cert)]
    while stack:
        pad, node = stack.pop()
        if isinstance(node, str):
            lines.append(pad + node)
        elif isinstance(node, CertificateLeaf):
            lines.append(f"{pad}simplex {{{', '.join(node.vertices)}}}")
        else:
            inner = pad + "    "
            stack += [(inner, node.link), (pad, "  link:"), (inner, node.deletion),
                      (pad, "  del:"), (pad, f"shed {node.shedding}")]
    return "\n".join(lines)


def _certified_facets(graph: Graph, cert: DecompositionCertificate) -> list[int] | None:
    """Re-check every claim a certificate makes and unwind it into a shelling
    of the independence complex, in one walk; None when a claim fails.

    Each node is checked on its vertex mask: a shedding vertex must be a
    vertex of that induced subgraph and shed there, and a leaf must cover
    exactly the vertices of its mask and be edgeless.  Every shed vertex
    leaves the mask of its deletion branch, so the leaf checks pin the
    vertex set of every node above them.  Facets of the deletion branch come
    first, then the link branch's facets each extended by the shedding
    vertex, so each leaf, in order, gives one facet mask: its own mask and
    every vertex shed above it on the way into a link.
    """
    engine = DecompositionEngine(graph.adjacency_masks())
    facets = []
    stack = [(graph.full_mask(), 0, cert)]
    while stack:
        mask, shed, node = stack.pop()
        if isinstance(node, CertificateLeaf):
            if (frozenset(node.vertices) != frozenset(graph.names_of(mask))
                    or _bitgraph.components(engine._adj, mask)):
                return None
            facets.append(shed | mask)
            continue
        if not graph.has_vertex(node.shedding):
            return None
        v = graph.index_of(node.shedding)
        if not (mask >> v & 1 and engine.sheds(mask, v)):
            return None
        stack += [(mask & ~engine._closed(v), shed | 1 << v, node.link),
                  (mask & ~(1 << v), shed, node.deletion)]
    return facets


def validate_certificate(graph: Graph, cert: DecompositionCertificate) -> bool:
    """Walk a certificate and re-check every claim it makes."""
    return _certified_facets(graph, cert) is not None


# ---------------------------------------------------------------------------
# the engine

class DecompositionEngine:
    """Exact vertex-decomposability over induced subgraphs of one graph.

    The engine holds the ambient graph's adjacency rows (bitmasks over
    vertex indices) and one memo, ``_shedder``, from each decided component
    mask to the vertex that decomposes it, or -1.  Every query about an
    induced subgraph shares that memo, which the sequence checker, the
    certificate reader and the scenario search rely on.
    """

    def __init__(self, rows: Sequence[int]):
        self._adj = list(rows)
        self._full = (1 << len(self._adj)) - 1
        self._shedder: dict[int, int] = {}

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

    def _simplicial_neighbors(self, mask: int) -> int:
        """The mask of vertices of ``mask`` adjacent to a simplicial vertex
        of the induced subgraph.  Each of them sheds (the dominated-pair
        exit of ``sheds``), and the recursion tries them first."""
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
        return marked

    def is_vd_mask(self, mask: int) -> bool:
        """Vertex decomposability of the induced subgraph on ``mask``: a
        component's shedder is memoized once its deletion and link are decided.

        Candidates come in a fixed order: neighbors of simplicial vertices
        first, then the rest, each part in increasing index order.  The
        first candidate is tried link first, and a link that is not VD
        refutes the component at once.  When the first candidate does not
        decompose it, every vertex link is decided, in candidate order, and
        the first that is not VD refutes it (the link rule in the module
        docstring); only then are the other candidates tried, shedding test
        and then deletion, since every link is now known VD.  A neighbor of
        a simplicial vertex is never given the shedding test: it sheds.  A
        VD component has no failing link, so its shedder is the first
        candidate that sheds with a VD deletion and link.
        """
        for comp in _bitgraph.components(self._adj, mask):
            shedder = self._shedder.get(comp)
            if shedder is None:
                shedder = -1
                marked = self._simplicial_neighbors(comp)
                first = marked or comp
                v = (first & -first).bit_length() - 1
                first_sheds = marked or self.sheds(comp, v)
                if first_sheds and not self.is_vd_mask(comp & ~self._closed(v)):
                    pass  # a failing link refutes comp
                elif first_sheds and self.is_vd_mask(comp & ~(1 << v)):
                    shedder = v
                else:
                    cands = [*_bitgraph.bits(marked), *_bitgraph.bits(comp & ~marked)]
                    for u in cands:
                        if not self.is_vd_mask(comp & ~self._closed(u)):
                            break  # a failing link refutes comp
                    else:
                        for u in cands[1:]:
                            if ((marked >> u & 1 or self.sheds(comp, u))
                                    and self.is_vd_mask(comp & ~(1 << u))):
                                shedder = u
                                break
                self._shedder[comp] = shedder
            if shedder < 0:
                return False
        return True

    def is_vd(self) -> bool:
        return self.is_vd_mask(self._full)


def is_shedding_vertex(graph: Graph, name: str) -> bool:
    """True iff no independent set of G - N[x] is maximal in G - x."""
    return DecompositionEngine(graph.adjacency_masks()).sheds(
        graph.full_mask(), graph.index_of(name)
    )


def is_vertex_decomposable(graph: Graph) -> DecompositionCertificate | None:
    """Certificate of vertex decomposability, or None when there is none.

    Each stage sheds the memoized vertex of its first component.  Stages
    are gathered on a stack, then built smallest mask first, so branches
    that reach one mask share its subtree.
    """
    engine = DecompositionEngine(graph.adjacency_masks())
    if not engine.is_vd():
        return None
    shed: dict[int, int] = {}  # stage mask -> the vertex it sheds, or -1 when edgeless
    stack = [graph.full_mask()]
    while stack:
        mask = stack.pop()
        if mask in shed:
            continue
        comps = _bitgraph.components(engine._adj, mask)
        # every component has an edge and a memoized shedder
        v = shed[mask] = engine._shedder[comps[0]] if comps else -1
        if comps:
            stack += [mask & ~(1 << v), mask & ~engine._closed(v)]
    built: dict[int, DecompositionCertificate] = {}
    for mask, v in sorted(shed.items()):  # a branch is a submask, so it is built first
        built[mask] = CertificateLeaf(graph.names_of(mask)) if v < 0 else CertificateNode(
            graph.vertex_names[v], built[mask & ~(1 << v)], built[mask & ~engine._closed(v)])
    return built[graph.full_mask()]


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
    engine = DecompositionEngine(graph.adjacency_masks())
    current = graph.full_mask()
    steps: list[SequenceStep] = []
    for name in vertices:
        v = graph.index_of(name)
        if not current >> v & 1:  # an earlier step deleted it
            raise GraphError(f"repeated vertex {name!r} in shedding sequence")
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

def linear_order_from_certificate(
    graph: Graph, cert: DecompositionCertificate
) -> list[Monomial]:
    """Generator ordering of the cover ideal extracted from a certificate.

    The walk that checks the certificate also unwinds it to a shelling of
    the independence complex; complementing each facet gives the minimal
    vertex covers in an order whose cover-product generators have linear
    quotients.  The output is re-validated before being returned; a
    validation failure means the construction itself is broken and raises.
    """
    facets = _certified_facets(graph, cert)
    if facets is None:
        raise GraphError("certificate does not certify this graph")
    ideal = cover_ideal(graph)
    if ideal.is_whole_ring:
        return []
    full = graph.full_mask()
    order = [Monomial.of({v: 1 for v in graph.names_of(full & ~facet)}) for facet in facets]
    if not is_linear_quotients_order(ideal, order):
        raise AssertionError(
            "internal error: certificate unwinding produced a non-linear-quotients order"
        )
    return order
