"""Property tests on random small graphs, and fuzzing of the parsers.

The search in mode ii gives every tuple of an Aut(h) orbit the verdict of
the orbit's first tuple; that rests on vertex decomposability being a graph
invariant, which the relabeling and orbit properties below check directly.

Every parser of user input either returns a value or raises its own error
(``GraphError`` or ``IdealError``), which the CLI turns into exit code 2;
any other exception would escape as a traceback.
"""

from __future__ import annotations

import random
from itertools import combinations

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from symcover.decomposability import (  # noqa: E402
    DecompositionEngine,
    is_vertex_decomposable,
    linear_order_from_certificate,
    render_certificate,
    validate_certificate,
    vertex_decomposable,
)
from symcover.duplication import (  # noqa: E402
    MAX_MULTIPLICITY,
    duplicate_edges,
    parse_tuple,
    render_tuple,
    satisfies_whisker_dominance,
)
from symcover.enumeration import automorphisms  # noqa: E402
from symcover.graphs import (  # noqa: E402
    GraphError,
    add_whiskers,
    build_graph,
    graph_from_json_dict,
    graph_to_json_dict,
    parse_graph_text,
    render_graph_text,
)
from symcover.ideals import (  # noqa: E402
    IdealError,
    Monomial,
    MonomialIdeal,
    depolarize,
    parse_ideal_text,
    polarize,
    render_ideal_text,
    symbolic_power,
)
from symcover.scenarios import _tuple_image_orders  # noqa: E402

from conftest import random_graph  # noqa: E402
from oracles import (  # noqa: E402
    brute_is_shedding,
    brute_maximal_independent_sets,
    brute_polarize,
    brute_vertex_decomposable,
    brute_whisker_dominance,
    is_simplicial_vertex,
    reference_certificate,
    shelling_facets,
)

# a fixed example count and no example database: the same inputs every run
PROPERTY = settings(max_examples=200, deadline=None, derandomize=True, database=None)


@st.composite
def graphs(draw, max_vertices=7):
    n = draw(st.integers(1, max_vertices))
    pairs = list(combinations(range(n), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    names = [f"v{i}" for i in range(n)]
    return build_graph(names, [(names[i], names[j]) for (i, j), k in zip(pairs, keep) if k])


@PROPERTY
@given(graphs())
def test_engine_matches_the_definition(g):
    assert vertex_decomposable(g) == brute_vertex_decomposable(g)
    cert = is_vertex_decomposable(g)
    assert (cert is not None) == vertex_decomposable(g)
    if cert is not None:
        # the certificate unwinds into a shelling whose facets are the
        # maximal independent sets, each once, and the order walk on its own
        # stack follows the plain recursion over stages
        assert validate_certificate(g, cert)
        facets = shelling_facets(g, cert)
        assert len(facets) == len(set(facets)) and set(facets) == brute_maximal_independent_sets(g)
        everything = set(g.vertex_names)
        expected = [Monomial.of({v: 1 for v in everything - f})
                    for f in facets] if g.edge_count else []
        assert linear_order_from_certificate(g, cert) == expected
        assert len(render_certificate(cert).splitlines()) == len(cert.nodes)


@PROPERTY
@given(graphs(max_vertices=10))
def test_link_rule_matches_the_reference_engine(g):
    cert, expected = is_vertex_decomposable(g), reference_certificate(g)
    assert (cert is None) == (expected is None)
    if cert is not None:
        assert render_certificate(cert) == render_certificate(expected)


@PROPERTY
@given(graphs(max_vertices=8))
def test_vertex_links_of_a_vd_graph_are_vd(g):
    # the lemma the engine's link sweep rests on: Ind(G - N[u]) is the link
    # of u in Ind(G), and the links of a VD complex are VD
    if brute_vertex_decomposable(g):
        for u in g.vertex_names:
            closed = g.neighbors(u) | {u}
            assert brute_vertex_decomposable(g.delete_vertices(closed)), u


@PROPERTY
@given(graphs(max_vertices=8))
def test_clique_rule_matches_the_definition(g):
    # the rule the engine decides a component with a simplicial vertex s by:
    # it is VD iff every link C - N[y], for y in N[s], is VD
    for s in g.vertex_names:
        if g.degree(s) and is_simplicial_vertex(g, s):
            comp, todo = {s}, [s]
            while todo:
                fresh = g.neighbors(todo.pop()) - comp
                comp |= fresh
                todo += fresh
            c = g.induced_subgraph(comp)
            links = [c.delete_vertices(c.neighbors(y) | {y}) for y in c.neighbors(s) | {s}]
            assert brute_vertex_decomposable(c) == all(map(brute_vertex_decomposable, links)), (
                g.edges, s)


@PROPERTY
@given(graphs(max_vertices=9))
def test_neighbors_of_simplicial_vertices_shed_by_definition(g):
    # Woodroofe's dominated-pair lemma, which lets the engine accept these
    # vertices as shedders without testing them
    for s in g.vertex_names:
        if g.degree(s) and is_simplicial_vertex(g, s):
            for x in g.neighbors(s):
                assert brute_is_shedding(g, x), (g.edges, s, x)


@PROPERTY
@given(graphs(), st.randoms(use_true_random=False))
def test_verdict_ignores_vertex_labels(g, rng):
    relabel = list(range(g.vertex_count))
    rng.shuffle(relabel)
    rows = g.adjacency_masks()
    moved = [0] * len(rows)
    for v, row in enumerate(rows):
        moved[relabel[v]] = sum(1 << relabel[w] for w in range(len(rows)) if row >> w & 1)
    assert DecompositionEngine(moved).is_vd() == DecompositionEngine(rows).is_vd()


@st.composite
def graphs_with_tuples(draw):
    g = draw(graphs(max_vertices=5))
    t = draw(st.lists(st.integers(1, 3), min_size=g.edge_count, max_size=g.edge_count))
    return g, t


@PROPERTY
@given(graphs_with_tuples())
def test_edge_duplication_verdict_is_constant_on_orbits(case):
    g, t = case
    edges = [(g.index_of(u), g.index_of(v)) for u, v in g.edges]
    verdict = vertex_decomposable(duplicate_edges(g, t))
    rows = g.adjacency_masks()
    for sigma, order in zip(automorphisms(rows)[1:], _tuple_image_orders(rows, edges)):
        image = [t[i] for i in order]
        assert vertex_decomposable(duplicate_edges(g, image)) == verdict, (g.edges, sigma, t)


@st.composite
def whiskered_with_tuples(draw):
    g = draw(graphs())
    supports = draw(st.lists(st.sampled_from(g.vertex_names), unique=True))
    w = add_whiskers(g, supports, {s: draw(st.integers(1, 3)) for s in supports})
    m = w.graph.edge_count
    return w, tuple(draw(st.lists(st.integers(0, 3), min_size=m, max_size=m)))


@PROPERTY
@given(whiskered_with_tuples())
def test_whisker_dominance_matches_the_definition(case):
    # the cases hold supports with several whiskers, supports with no base
    # edge (isolated in g) and zero entries
    w, t = case
    assert satisfies_whisker_dominance(w, t) == brute_whisker_dominance(w, t), (
        w.graph.edges, t)


# -- parsers ------------------------------------------------------------------

NAMES = st.sampled_from(["a", "b", "a.1", "x1", ""])


def lines(*shapes):
    """Text of up to six lines, each drawn from one of ``shapes``."""
    return st.lists(st.one_of(*shapes), max_size=6).map("\n".join)


def headed(header, parts=NAMES):
    return st.lists(parts, max_size=4).map(lambda words: " ".join([header, *words]))


GRAPH_TEXT = st.one_of(st.text(), lines(
    headed("vertices:"), headed("edge:"), st.sampled_from(["# note", "", "nonsense"])
))
# exponents stay small: a generator's slot mask has one bit per unit of
# exponent, so a many-digit exponent costs memory rather than an exception
FACTOR = st.tuples(NAMES, st.sampled_from(["", "^2", "^0", "^-1", "^", "^a", "^2^3"])).map("".join)
IDEAL_TEXT = st.one_of(st.text(), lines(
    headed("variables:"), st.lists(FACTOR, min_size=1, max_size=3).map("*".join),
    st.sampled_from(["whole-ring", "1", "# note", ""]),
))
TUPLE_TEXT = st.one_of(st.text(), st.lists(
    st.sampled_from(["0", "1", "2", "-1", "", "x", " 3", "1.5"]), min_size=1, max_size=5
).map(",".join))
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=3) | NAMES,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=12,
)
WHISKER = st.fixed_dictionaries({}, optional={"leaf": NAMES | JSON_VALUES, "support": NAMES})
GRAPH_DOCS = st.fixed_dictionaries({}, optional={
    "vertices": st.lists(NAMES, max_size=4) | JSON_VALUES,
    "edges": st.lists(st.lists(NAMES, max_size=3), max_size=4) | JSON_VALUES,
    "whiskers": st.lists(WHISKER, max_size=3) | JSON_VALUES,
})


@pytest.mark.parametrize("parse, inputs, error", [
    (parse_graph_text, GRAPH_TEXT, GraphError),
    (graph_from_json_dict, GRAPH_DOCS, GraphError),
    (parse_tuple, TUPLE_TEXT, GraphError),
    (parse_ideal_text, IDEAL_TEXT, IdealError),
], ids=["graph-text", "graph-json", "tuple", "ideal-text"])
@PROPERTY
@given(data=st.data())
def test_parser_returns_or_raises_its_own_error(parse, inputs, error, data):
    try:
        parse(data.draw(inputs))
    except error:
        pass


@st.composite
def named_graph_inputs(draw):
    """Vertex names drawn from any text, and edges between them in any order.

    Half the names are drawn with no separator or control character, so
    most graphs are valid.
    """
    clean = st.text(st.characters(blacklist_categories=("Z", "Cc")), min_size=1, max_size=4)
    names = draw(st.lists(clean | st.text(max_size=4), unique=True, max_size=6))
    pairs = [(u, v) for u, v in combinations(names, 2) if draw(st.booleans())]
    return names, draw(st.permutations(pairs))


@PROPERTY
@given(named_graph_inputs(), st.data())
def test_graph_text_and_json_round_trip(case, data):
    # the text format splits names on whitespace, so no name may hold any
    names, pairs = case
    if any(not name or any(c.isspace() for c in name) for name in names):
        with pytest.raises(GraphError):
            build_graph(names, pairs)
        return
    g = build_graph(names, pairs)
    back = parse_graph_text(render_graph_text(g))
    assert back == g and back.edges == g.edges
    w = add_whiskers(g, data.draw(st.lists(st.sampled_from(g.vertex_names), max_size=3))
                     if g.vertex_count else [])
    back = graph_from_json_dict(graph_to_json_dict(w.graph, w))
    assert back == w.graph and back.edges == w.graph.edges


@st.composite
def ideals(draw, name=st.text(min_size=1, max_size=3)):
    """Monomial ideals over nonempty variable names, exponents up to 3."""
    names = draw(st.lists(name, unique=True, min_size=1, max_size=4))
    exponents = st.lists(st.integers(0, 3), min_size=len(names), max_size=len(names))
    gens = draw(st.lists(exponents.filter(any), min_size=1, max_size=5))
    return MonomialIdeal(names, [Monomial.of(zip(names, e)) for e in gens])


def assert_text_round_trip(ideal: MonomialIdeal) -> None:
    """The ideal writer refuses a name the reader could not read back, and
    otherwise writes what reads back exactly.  The reader splits the
    variables line on whitespace, skips '#' lines, reads '*' and '^' as
    monomial syntax and a generator "1" as the unit."""
    if any(name.split() != [name] or name.startswith("#") or "*" in name or "^" in name
           or name == "1" for name in ideal.variables):
        with pytest.raises(IdealError):
            render_ideal_text(ideal)
        return
    back = parse_ideal_text(render_ideal_text(ideal))
    assert back == ideal and back.variables == ideal.variables


# names that may hold whitespace, '*' or '^', start with '#', or be the
# unit "1"
NAME_CORE = st.text("ab.#*^1", min_size=1, max_size=2)
TEXT_NAMES = NAME_CORE | st.tuples(NAME_CORE, st.sampled_from([" ", "\t"]), NAME_CORE).map("".join)


@PROPERTY
@given(ideals(TEXT_NAMES))
def test_ideal_text_round_trip(ideal):
    assert_text_round_trip(ideal)


@PROPERTY
@given(st.lists(NAME_CORE, unique=True, min_size=1, max_size=5), st.integers(1, 2), st.data())
def test_graph_to_ideal_text_round_trip(names, k, data):
    # a vertex name may hold what ideal text cannot, so cover-ideal (k = 1)
    # and symbolic-power either refuse to write or write what reads back
    pairs = [(u, v) for u, v in combinations(names, 2) if data.draw(st.booleans())]
    assert_text_round_trip(symbolic_power(build_graph(names, pairs), k))


@PROPERTY
@given(ideals())
def test_depolarize_undoes_polarize(ideal):
    assert depolarize(polarize(ideal)) == ideal


def assert_polarizes_as_the_oracle(ideal: MonomialIdeal) -> None:
    """Same ambient slots, generators in the same order, same slot masks:
    ``==`` alone ignores order and the ambient ring.  The slot masks are
    also the ideal's own: its layout is its polarization."""
    got, want = polarize(ideal), brute_polarize(ideal)
    assert got.variables == want.variables
    assert got.generators == want.generators
    assert list(got._masks.items()) == list(want._masks.items())
    assert list(got._masks.values()) == list(ideal._masks.values())
    assert got.is_whole_ring == want.is_whole_ring


@PROPERTY
@given(ideals())
def test_polarize_matches_the_oracle(ideal):
    assert_polarizes_as_the_oracle(ideal)


@PROPERTY
@given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.integers(1, 4))
def test_polarize_matches_the_oracle_on_symbolic_powers(seed, n, k):
    assert_polarizes_as_the_oracle(symbolic_power(random_graph(random.Random(seed), n), k))


@PROPERTY
@given(st.lists(st.integers(0, MAX_MULTIPLICITY), min_size=1, max_size=8).map(tuple))
def test_tuple_text_round_trip(t):
    assert parse_tuple(render_tuple(t)) == t
