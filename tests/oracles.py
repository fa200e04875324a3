"""Independent brute-force reference implementations used only by tests.

Everything here is written the dumbest defensible way (subset enumeration,
permutation search, naive recursion, exponent-by-exponent monomial
arithmetic) so that the tested code paths and the oracles cannot share a
bug.  The exceptions are ``are_isomorphic``, a test helper that compares
the package's own canonical forms, ``colored_canonical_form``, which
extends them to vertex colorings with the package's permutation search and
its own pair numbering, and ``ReferenceEngine``, which keeps the package's
shedding test but lists its candidates itself, gives every candidate the
shedding test, and has no link rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, permutations
from typing import Sequence

from symcover._bitgraph import bits, components
from symcover.decomposability import DecompositionCertificate, DecompositionEngine
from symcover.enumeration import (
    EdgeSet,
    _class_respecting_permutations,
    _rows,
    canonical_form,
)
from symcover.graphs import Graph, WhiskeredGraph
from symcover.ideals import IdealError, Monomial, MonomialIdeal


# ---------------------------------------------------------------------------
# graphs

def closed_neighborhood(graph: Graph, x: str) -> frozenset[str]:
    return graph.neighbors(x) | {x}


def is_simplicial_vertex(graph: Graph, x: str) -> bool:
    """True iff the closed neighborhood of x induces a clique."""
    return all(graph.has_edge(a, b) for a, b in combinations(graph.neighbors(x), 2))


def brute_whisker_dominance(whiskered: WhiskeredGraph, t: Sequence[int]) -> bool:
    """At every support x, each whisker edge {x, leaf} has an entry of ``t``
    at least that of each other edge {x, y}; ``t`` follows the edge list."""
    graph = whiskered.graph
    entry = {frozenset(e): r for e, r in zip(graph.edges, t)}
    for x, leaves in whiskered.leaves.items():
        for leaf in leaves:
            for y in graph.neighbors(x) - set(leaves):
                if entry[frozenset((x, leaf))] < entry[frozenset((x, y))]:
                    return False
    return True


def are_isomorphic(g: Graph, h: Graph) -> bool:
    """Isomorphism test for small graphs by comparing canonical forms."""
    if g.vertex_count != h.vertex_count or g.edge_count != h.edge_count:
        return False
    return canonical_form(*_as_indexed(g)) == canonical_form(*_as_indexed(h))


def colored_canonical_form(n: int, edges: EdgeSet, colors: Sequence[int]) -> tuple:
    """A label-independent key for a graph on 0..n-1 with vertex colors.

    Two colored graphs get the same key iff an isomorphism maps colors to
    equal colors; so on one graph, two vertex sets S get the same key iff
    an automorphism maps one onto the other.
    """
    rows = _rows(n, edges)
    sig: list[tuple] = [(colors[v], rows[v].bit_count()) for v in range(n)]
    for _ in range(2):
        sig = [(*sig[v], tuple(sorted(sig[w] for w in bits(rows[v])))) for v in range(n)]
    by_sig: dict[tuple, list[int]] = {}
    for v in range(n):
        by_sig.setdefault(sig[v], []).append(v)
    pair_index = {pair: i for i, pair in enumerate(combinations(range(n), 2))}
    best: tuple | None = None
    for perm in _class_respecting_permutations([by_sig[key] for key in sorted(by_sig)]):
        mask = 0
        for i, j in edges:
            mask |= 1 << pair_index[(min(perm[i], perm[j]), max(perm[i], perm[j]))]
        mapped = [0] * n
        for v in range(n):
            mapped[perm[v]] = colors[v]
        key = (mask, tuple(mapped))
        if best is None or key > best:
            best = key
    return (n, *best)


def _as_indexed(graph: Graph) -> tuple[int, EdgeSet]:
    index = {name: i for i, name in enumerate(graph.vertex_names)}
    edges = frozenset(
        (min(index[u], index[v]), max(index[u], index[v])) for u, v in graph.edges
    )
    return graph.vertex_count, edges


def subsets(names):
    names = list(names)
    for size in range(len(names) + 1):
        yield from (set(c) for c in combinations(names, size))


def brute_independent(graph: Graph, chosen: set[str]) -> bool:
    return not any(u in chosen and v in chosen for u, v in graph.edges)


def brute_maximal_independent_sets(graph: Graph) -> set[frozenset[str]]:
    independents = [s for s in subsets(graph.vertex_names) if brute_independent(graph, s)]
    out = set()
    for s in independents:
        if not any(s < t for t in independents):
            out.add(frozenset(s))
    return out


def brute_minimal_vertex_covers(graph: Graph) -> set[frozenset[str]]:
    everything = set(graph.vertex_names)
    return {frozenset(everything - m) for m in brute_maximal_independent_sets(graph)}


def dfs_has_cycle(graph: Graph, removed: set[str]) -> bool:
    """Back-edge detection, written independently of the library's checks."""
    kept = [v for v in graph.vertex_names if v not in removed]
    adj = {v: [w for w in graph.neighbors(v) if w not in removed] for v in kept}
    color: dict[str, int] = {}

    def visit(v: str, parent: str | None) -> bool:
        color[v] = 1
        for w in adj[v]:
            if w == parent:
                parent = None  # skip the tree edge once; simple graphs have no repeats
                continue
            if w in color:
                return True
            if visit(w, v):
                return True
        return False

    for v in kept:
        if v not in color and visit(v, None):
            return True
    return False


def brute_minimum_cycle_cover(graph: Graph) -> set[str]:
    for size in range(graph.vertex_count + 1):
        for combo in combinations(graph.vertex_names, size):
            if not dfs_has_cycle(graph, set(combo)):
                return set(combo)
    raise AssertionError("unreachable")


def brute_symbolic_generators(graph: Graph, k: int, bound: int) -> set[Monomial]:
    """Divisibility-minimal vectors with a_u + a_v >= k per edge, entries <= bound.

    Raising an entry keeps every edge condition, so the feasible vectors are
    closed upward inside the box, and a feasible vector is minimal iff
    lowering any one positive entry by 1 breaks a condition.
    """
    names = graph.vertex_names
    feasible = []

    def rec(i: int, vec: list[int]) -> None:
        if i == len(names):
            feasible.append(tuple(vec))
            return
        for val in range(bound + 1):
            vec.append(val)
            rec(i + 1, vec)
            vec.pop()

    rec(0, [])
    ok = [
        v for v in feasible
        if all(v[names.index(a)] + v[names.index(b)] >= k for a, b in graph.edges)
    ]
    feasible_set = set(ok)
    minimal = [
        v for v in ok
        if not any(v[i] and v[:i] + (v[i] - 1,) + v[i + 1:] in feasible_set
                   for i in range(len(v)))
    ]
    return {Monomial.of({names[i]: e for i, e in enumerate(v) if e}) for v in minimal}


def brute_is_shedding(graph: Graph, x: str) -> bool:
    """Literal reading: no independent set of G - N[x] is maximal in G - x."""
    closed = closed_neighborhood(graph, x)
    outside = [v for v in graph.vertex_names if v not in closed]
    deleted = [v for v in graph.vertex_names if v != x]
    deleted_graph = graph.induced_subgraph(deleted)
    maximal = brute_maximal_independent_sets(deleted_graph)
    for s in subsets(outside):
        if brute_independent(graph, s) and frozenset(s) in maximal:
            return False
    return True


def independent_sets(adj: list[int], mask: int):
    """Yield every independent set (including the empty one) within ``mask``."""

    def expand(chosen: int, todo: int):
        if todo == 0:
            yield chosen
            return
        low = todo & -todo
        v = low.bit_length() - 1
        yield from expand(chosen, todo & ~low)
        if not (adj[v] & chosen):
            yield from expand(chosen | low, todo & ~low & ~adj[v])

    # the second recursion already prunes neighbors, so sets are generated once
    yield from expand(0, mask)


def is_shedding_vertex_by_definition(graph: Graph, x: str) -> bool:
    """Literal test on bitmasks: no independent set of G - N[x] is maximal in G - x.

    Unlike :func:`brute_is_shedding` it enumerates only the independent sets
    of G - N[x], which keeps it fast enough for the 7-vertex atlas.
    """
    adj = graph.adjacency_masks()
    i = graph.index_of(x)
    deleted = graph.full_mask() & ~(1 << i)
    beyond = deleted & ~adj[i]
    for candidate in independent_sets(adj, beyond):
        extendable = any(
            deleted >> w & 1 and not candidate >> w & 1 and not adj[w] & candidate
            for w in range(len(adj))
        )
        if not extendable:
            # the candidate is a maximal independent set of G - x
            return False
    return True


def brute_vertex_decomposable(graph: Graph) -> bool:
    """Definition-shaped recursion without memoization or reductions."""
    if graph.edge_count == 0:
        return True
    for x in graph.vertex_names:
        if not brute_is_shedding(graph, x):
            continue
        deletion = graph.delete_vertices([x])
        link = graph.delete_vertices(closed_neighborhood(graph, x))
        if brute_vertex_decomposable(deletion) and brute_vertex_decomposable(link):
            return True
    return False


class ReferenceEngine(DecompositionEngine):
    """The engine's candidate loop without the link rule: each candidate in
    turn is tested for shedding, then its deletion, then its link, and a
    component is refuted only once every candidate has failed."""

    def _candidates(self, mask: int) -> list[int]:
        """Vertices of ``mask``, neighbors of simplicial vertices first, then
        the rest, each part in increasing index order."""
        marked = 0
        for u in bits(mask):
            nbrs = self._adj[u] & mask
            if nbrs and all(nbrs & ~self._closed(w) == 0 for w in bits(nbrs)):
                marked |= nbrs
        return [*bits(marked), *bits(mask & ~marked)]

    def is_vd_mask(self, mask: int) -> bool:
        for comp in components(self._adj, mask):
            if comp not in self._shedder:
                self._shedder[comp] = -1
                for v in self._candidates(comp):
                    if (self.sheds(comp, v) and self.is_vd_mask(comp & ~(1 << v))
                            and self.is_vd_mask(comp & ~self._closed(v))):
                        self._shedder[comp] = v
                        break
            if self._shedder[comp] < 0:
                return False
        return True


def reference_certificate(graph: Graph):
    """The certificate ``is_vertex_decomposable`` reads off its memo, built by
    plain recursion over the reference engine's memo; None when not VD."""
    engine = ReferenceEngine(graph.adjacency_masks())
    if not engine.is_vd():
        return None
    nodes: dict[int, int] = {}

    def visit(mask: int) -> None:
        for comp in components(engine._adj, mask):
            if comp not in nodes:
                v = nodes[comp] = engine._shedder[comp]
                visit(comp & ~(1 << v))
                visit(comp & ~engine._closed(v))

    visit(graph.full_mask())
    return DecompositionCertificate(tuple(
        (graph.names_of(comp), graph.vertex_names[v])
        for comp, v in sorted(nodes.items(), reverse=True)
    ))


def shelling_facets(graph: Graph, cert) -> list[frozenset[str]]:
    """Unwind a certificate into a shelling of the independence complex.

    Each stage sheds the certified vertex of its first component, the one
    holding its first vertex (in vertex order) that has a neighbor.  Facets
    of the deletion come first, then the link's facets each extended by the
    shed vertex; an edgeless stage is one facet.
    """
    shedder = {frozenset(comp): v for comp, v in cert.nodes}

    def unwind(stage: frozenset[str]) -> list[frozenset[str]]:
        seeds = [v for v in graph.vertex_names if v in stage and graph.neighbors(v) & stage]
        if not seeds:
            return [stage]
        comp = {seeds[0]}
        while any(graph.neighbors(u) & stage - comp for u in comp):
            comp |= {w for u in comp for w in graph.neighbors(u) & stage}
        v = shedder[frozenset(comp)]
        link = unwind(stage - closed_neighborhood(graph, v))
        return unwind(stage - {v}) + [facet | {v} for facet in link]

    return unwind(frozenset(graph.vertex_names))


# ---------------------------------------------------------------------------
# monomials and ideals, exponent by exponent

def exponent(m: Monomial, var: str) -> int:
    return dict(m.exps).get(var, 0)


def degree(m: Monomial) -> int:
    return sum(e for _, e in m.exps)


def is_squarefree(m: Monomial) -> bool:
    return all(e == 1 for _, e in m.exps)


def divides(a: Monomial, b: Monomial) -> bool:
    return all(exponent(b, v) >= e for v, e in a.exps)


def mul(a: Monomial, b: Monomial) -> Monomial:
    return Monomial.of(list(a.exps) + list(b.exps))


def lcm(a: Monomial, b: Monomial) -> Monomial:
    out = dict(a.exps)
    for v, e in b.exps:
        out[v] = max(out.get(v, 0), e)
    return Monomial.of(out)


def contains(ideal: MonomialIdeal, m: Monomial) -> bool:
    return ideal.is_whole_ring or any(divides(g, m) for g in ideal.generators)


def intersect(left: MonomialIdeal, right: MonomialIdeal) -> MonomialIdeal:
    """Intersection via pairwise least common multiples, then minimalization."""
    if left.variables != right.variables:
        raise IdealError("intersection requires matching ambient variables")
    if left.is_whole_ring:
        return right
    if right.is_whole_ring:
        return left
    gens = [lcm(a, b) for a in left.generators for b in right.generators]
    return MonomialIdeal(left.variables, gens)


def brute_polarize(ideal: MonomialIdeal) -> MonomialIdeal:
    """Polarization slot by slot: every power x^a becomes the string slots
    x.1 ... x.a, merged through ``Monomial.of``, and the generators go
    through the minimalizing constructor, which lays out their masks."""
    if ideal.is_whole_ring:
        return ideal
    depth = {v: max((exponent(g, v) for g in ideal.generators), default=0)
             for v in ideal.variables}
    variables = [f"{v}.{j}" for v in ideal.variables for j in range(1, depth[v] + 1)]
    gens = [Monomial.of({f"{v}.{j}": 1 for v, e in g.exps for j in range(1, e + 1)})
            for g in ideal.generators]
    return MonomialIdeal(variables, gens)


@dataclass(frozen=True)
class EdgePrime:
    """The height-two prime (u, v) attached to an edge."""

    u: str
    v: str

    def __post_init__(self) -> None:
        if self.u == self.v:
            raise IdealError("an edge prime needs two distinct variables")

    def power(self, k: int, variables: Sequence[str]) -> MonomialIdeal:
        """The k-th power (u, v)^k, generated by u^i v^(k-i)."""
        if k < 1:
            raise IdealError(f"prime power exponent must be >= 1, got {k}")
        gens = [Monomial.of({self.u: i, self.v: k - i}) for i in range(k + 1)]
        return MonomialIdeal(variables, gens)


def minimal_primes(graph: Graph) -> list[EdgePrime]:
    """One edge prime per edge, in canonical edge order."""
    return [EdgePrime(u, v) for u, v in graph.edges]


def symbolic_membership(graph: Graph, k: int, m: Monomial) -> bool:
    """Membership in the k-th symbolic power of the cover ideal.

    A monomial lies in every localized k-th power iff its exponents sum to
    at least k across each edge.
    """
    if k < 1:
        raise IdealError(f"symbolic power exponent must be >= 1, got {k}")
    return all(exponent(m, u) + exponent(m, v) >= k for u, v in graph.edges)


def symbolic_power_by_intersection(graph: Graph, k: int) -> MonomialIdeal:
    """The k-th symbolic power as the intersection of the k-th edge-prime powers."""
    if k < 1:
        raise IdealError(f"symbolic power exponent must be >= 1, got {k}")
    names = graph.vertex_names
    result = MonomialIdeal.whole(names)
    for prime in minimal_primes(graph):
        result = intersect(result, prime.power(k, names))
    return result


def colon(g: Monomial, c: Monomial) -> Monomial:
    """g : c, i.e. g divided by gcd(g, c), exponent by exponent."""
    return Monomial.of({v: max(0, e - exponent(c, v)) for v, e in g.exps})


def naive_colon_is_linear(chosen: list[Monomial], candidate: Monomial) -> bool:
    colons = [colon(g, candidate) for g in chosen]
    variables = {c.exps[0][0] for c in colons if degree(c) == 1}
    return all(any(exponent(c, v) >= 1 for v in variables) for c in colons)


def naive_is_linear_quotients_order(order: list[Monomial]) -> bool:
    return all(naive_colon_is_linear(order[:i], order[i]) for i in range(1, len(order)))


def first_accepted_order(items: list, accept) -> list | None:
    """Prefix-pruned search over permutations in input order, no memo.

    Returns the first order, trying items in input order at each position,
    whose every item is accepted by ``accept(prefix, item)``.
    """

    def rec(order: list, rest: list) -> list | None:
        if not rest:
            return order
        for i, g in enumerate(rest):
            if accept(order, g):
                found = rec(order + [g], rest[:i] + rest[i + 1 :])
                if found is not None:
                    return found
        return None

    return rec([], items)


def naive_has_linear_quotients(ideal: MonomialIdeal) -> bool:
    return first_accepted_order(list(ideal.generators), naive_colon_is_linear) is not None


def exhaustive_linear_quotients_orders(ideal: MonomialIdeal):
    """Yield every accepting permutation; only for very small ideals."""
    gens = list(ideal.generators)
    for perm in permutations(gens):
        if naive_is_linear_quotients_order(list(perm)):
            yield list(perm)
