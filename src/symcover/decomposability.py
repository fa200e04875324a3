"""Vertex decomposability of independence complexes, at the graph level.

A graph is vertex decomposable when it is edgeless, or when it has a
shedding vertex x (no independent set of G - N[x] is maximal in G - x)
whose deletion G - x and link G - N[x] are both vertex decomposable.

The engine below answers that question exactly with five sound reductions:

* verdicts are memoized on vertex subsets of one ambient graph (deletion and
  link are both induced subgraphs, so every recursive instance is a mask),
* isolated vertices are left out (they never change the verdict) by the
  one scan that splits a mask into its components, which keeps only
  components with an edge,
* connected components are decided independently (the independence complex
  of a disjoint union is the join, which is vertex decomposable iff both
  factors are),
* a vertex u whose link G - N[u] is not vertex decomposable refutes G,
  whether u sheds or not,
* a graph G with a simplicial vertex s is vertex decomposable iff
  G - N[y] is for every y in N[s].

The fourth is the link rule: every vertex link of a vertex decomposable
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

The fifth is the clique rule.  N[s] is a clique, because s is simplicial.
One way, it is the link rule.  The other way, shed the neighbors x_1, ...,
x_m of s in turn.  Each x_i sheds by the dominated-pair exit, since s is
still simplicial and N[s] lies inside N[x_i].  Its link in the graph left
is G - N[x_i], because the x_j shed before it are its neighbors, and that
link is vertex decomposable.  At the end s is isolated beside G - N[s],
which is vertex decomposable too.  When G is vertex decomposable, every
G - N[y] is, and the same sequence begun at x_2 in G - x_1 shows that
G - x_1 is vertex decomposable.  So x_1 sheds G with a decomposable
deletion and link.  The engine takes for x_1 the lowest vertex adjacent to
any simplicial vertex and stores it as G's shedder, a certificate node,
though the verdict never decides G - x_1.  Whiskered graphs and their
duplications are full of simplicial vertices (every whisker leaf and its
shadows), so the clique rule decides most of the components the engine
meets.

The engine holds only the adjacency rows and that memo.  A certificate is
the part of the memo a graph reaches: one shedder per component, so it is
never larger than the memo, however many facets the shelling has.  Each
node is checked on its own, and every walk over a certificate keeps its
own stack.
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
class DecompositionCertificate:
    """The engine's memo for one graph, cut down to the components it reaches.

    Each node is a connected component C, as its vertex names in vertex
    order, and a vertex v that sheds C.  Every component of the graph, and
    of C - v and C - N[v] for each node, has a node of its own.  A join of
    vertex decomposable complexes is vertex decomposable, and so is a cone
    over one, so the nodes prove each component vertex decomposable from the
    smallest up, and with them the graph.  Nodes are listed by descending
    component mask, so each comes before its children.  An edgeless graph
    has no nodes.
    """

    nodes: tuple[tuple[tuple[str, ...], str], ...]


def render_certificate(cert: DecompositionCertificate) -> str:
    """One line per node: ``shed v from {a, b, c}``."""
    return "\n".join(f"shed {v} from {{{', '.join(comp)}}}" for comp, v in cert.nodes)


def _branches(engine: "DecompositionEngine", comp: int, v: int) -> list[int]:
    """The components of C - v and of C - N[v]."""
    adj = engine._adj
    return (_bitgraph.components(adj, comp & ~(1 << v))
            + _bitgraph.components(adj, comp & ~engine._closed(v)))


def validate_certificate(graph: Graph, cert: DecompositionCertificate) -> bool:
    """Re-check every claim a certificate makes.

    A node is checked on its own: its names are distinct vertices of the
    graph that induce a connected subgraph, listed by no other node, and its
    vertex lies in that component and sheds it.  Then every component of
    the graph and of each node's two branches must have a node.
    """
    engine = DecompositionEngine(graph.adjacency_masks())
    shedders: dict[int, int] = {}
    for names, shed in cert.nodes:
        try:
            comp, v = graph.mask_of(names), graph.index_of(shed)
        except GraphError:  # a name that is not a vertex
            return False
        if (comp.bit_count() != len(names) or comp in shedders or not comp >> v & 1
                or _bitgraph.components(engine._adj, comp) != [comp]
                or not engine.sheds(comp, v)):
            return False
        shedders[comp] = v
    needed = _bitgraph.components(engine._adj, graph.full_mask())
    for comp, v in shedders.items():
        needed += _branches(engine, comp, v)
    return all(c in shedders for c in needed)


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

    def _simplicial_vertex(self, comp: int) -> int:
        """The first simplicial vertex of the component ``comp`` whose lowest
        neighbor is lowest among all simplicial vertices, or -1 if none."""
        adj = self._adj
        # lowest: the bit of found's lowest neighbor, at first above them all
        found, lowest = -1, self._full + 1
        probe = comp
        while probe:
            low = probe & -probe
            probe ^= low
            nbrs = adj[low.bit_length() - 1] & comp
            if nbrs & -nbrs >= lowest:
                continue  # it could not lower the neighbor found so far
            # simplicial when N[u] holds all of nbrs for every neighbor u
            rest = nbrs
            while rest:
                bit = rest & -rest
                rest ^= bit
                if nbrs & ~adj[bit.bit_length() - 1] & ~bit:
                    break
            else:
                found, lowest = low.bit_length() - 1, nbrs & -nbrs
                if lowest == comp & -comp:
                    break  # no vertex of comp is lower
        return found

    def is_vd_mask(self, mask: int) -> bool:
        """Vertex decomposability of the induced subgraph on ``mask``; each
        component's shedder, or -1, is memoized.

        The clique rule decides a component C with a simplicial vertex s
        whose neighbor x is the lowest vertex adjacent to any simplicial
        vertex.  It decides C - N[y] for y in N[s], x's link first, and
        stores x, or -1 at the first link that is not VD.  The plain rule
        decides any other component.  Its lowest vertex is tried first:
        shedding test, link, deletion.  When that fails, every vertex link
        is decided in index order, and the first that is not VD refutes C
        (the link rule); then the other vertices are tried, shedding test
        and deletion, in index order.
        """
        for comp in _bitgraph.components(self._adj, mask):
            shedder = self._shedder.get(comp)
            if shedder is None:
                s = self._simplicial_vertex(comp)
                if s >= 0:  # the clique rule
                    nbrs = self._adj[s] & comp
                    x = nbrs & -nbrs
                    shedder = x.bit_length() - 1
                    for y in (shedder, *_bitgraph.bits((nbrs | 1 << s) ^ x)):
                        if not self.is_vd_mask(comp & ~self._closed(y)):
                            shedder = -1  # a failing link refutes comp
                            break
                else:  # the plain rule
                    shedder = -1
                    v = (comp & -comp).bit_length() - 1
                    if (self.sheds(comp, v) and self.is_vd_mask(comp & ~self._closed(v))
                            and self.is_vd_mask(comp & ~(1 << v))):
                        shedder = v
                    else:  # the sweep meets a failing link of v first
                        for u in _bitgraph.bits(comp):
                            if not self.is_vd_mask(comp & ~self._closed(u)):
                                break  # a failing link refutes comp
                        else:
                            for u in _bitgraph.bits(comp & ~(1 << v)):
                                if self.sheds(comp, u) and self.is_vd_mask(comp & ~(1 << u)):
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

    The walk reads the memoized shedder of each component it reaches, from
    the components of the graph through those of each deletion and link.
    The clique rule skips deletions, so a component missing from the memo
    is decided on demand; the engine is asked only then.
    """
    engine = DecompositionEngine(graph.adjacency_masks())
    if not engine.is_vd():
        return None
    reached: dict[int, int] = {}
    stack = _bitgraph.components(engine._adj, graph.full_mask())
    while stack:
        comp = stack.pop()
        if comp not in reached:
            v = engine._shedder.get(comp)
            if v is None:
                engine.is_vd_mask(comp)
                v = engine._shedder[comp]
            reached[comp] = v
            stack += _branches(engine, comp, v)
    return DecompositionCertificate(tuple((graph.names_of(comp), graph.vertex_names[v])
                                          for comp, v in sorted(reached.items(), reverse=True)))


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

    Once the certificate checks out, it unwinds into a shelling of the
    independence complex, one stage at a time.  A stage sheds the vertex of
    its first component; the deletion's facets come first, then the link's,
    each extended by the shed vertex, and an edgeless stage is one facet.
    Complementing each facet gives the minimal vertex covers in an order
    whose cover-product generators have linear quotients.  Each cover, a
    vertex mask, is looked up among the cover ideal's generators, keyed by
    their vertex masks.  The output is re-validated before being returned;
    a cover that is no generator, or an order without linear quotients,
    means the construction itself is broken and raises.
    """
    if not validate_certificate(graph, cert):
        raise GraphError("certificate does not certify this graph")
    ideal = cover_ideal(graph)
    if ideal.is_whole_ring:
        return []
    bit = {name: 1 << i for i, name in enumerate(graph.vertex_names)}
    generator_of = {sum(bit[name] for name, _ in g.exps): g for g in ideal.generators}
    shedders = {graph.mask_of(names): graph.index_of(v) for names, v in cert.nodes}
    adj, full = graph.adjacency_masks(), graph.full_mask()
    order = []
    stack = [(full, 0)]  # (stage mask, the vertices shed into links above it)
    while stack:
        mask, shed = stack.pop()
        comps = _bitgraph.components(adj, mask)
        if not comps:
            order.append(generator_of.get(full & ~(shed | mask)))
            continue
        v = shedders[comps[0]]
        stack += [(mask & ~(adj[v] | 1 << v), shed | 1 << v), (mask & ~(1 << v), shed)]
    if None in order or not is_linear_quotients_order(ideal, order):
        raise AssertionError(
            "internal error: certificate unwinding produced a non-generator or a "
            "non-linear-quotients order"
        )
    return order
