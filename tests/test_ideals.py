from __future__ import annotations

import hashlib
import random
import re
from itertools import combinations

import pytest

from symcover import ideals
from symcover.duplication import duplicate_vertices
from symcover.graphs import add_whiskers, build_graph
from symcover.ideals import (
    IdealError,
    Monomial,
    MonomialIdeal,
    cover_ideal,
    depolarize,
    has_linear_quotients,
    is_linear_quotients_order,
    parse_ideal_text,
    parse_monomial,
    polarize,
    render_ideal_text,
    symbolic_power,
)

from symcover.enumeration import (
    as_graph,
    connected_graphs_up_to_isomorphism,
    graphs_up_to_isomorphism,
)

from conftest import (
    c4, cycle, fish, five_vertex_example, p3, random_graph, single_edge, whiskered_fish,
)
from oracles import (
    EdgePrime,
    brute_symbolic_generators,
    colon,
    contains,
    degree,
    divides,
    exhaustive_linear_quotients_orders,
    exponent,
    first_accepted_order,
    intersect,
    is_squarefree,
    lcm,
    minimal_primes,
    mul,
    naive_colon_is_linear,
    naive_has_linear_quotients,
    naive_is_linear_quotients_order,
    symbolic_membership,
    symbolic_power_by_intersection,
)


def m(text: str) -> Monomial:
    return parse_monomial(text)


def gens(ideal: MonomialIdeal) -> set[str]:
    return {g.render(ideal.variables) for g in ideal.generators}


# -- monomials -------------------------------------------------------------------

def test_monomial_basics():
    a = m("x1^2*x3")
    assert degree(a) == 3 and exponent(a, "x1") == 2 and exponent(a, "x9") == 0
    assert not is_squarefree(a) and is_squarefree(m("x1*x3"))
    assert divides(m("x1"), a) and not divides(a, m("x1*x3"))
    assert lcm(a, m("x3^2*x4")) == m("x1^2*x3^2*x4")
    assert colon(a, m("x1*x4")) == m("x1*x3")
    assert degree(m("1")) == 0


def test_monomial_parse_render_round_trip():
    # the largest exponent the parser accepts
    for text in ("x1", "x1*x2", "x2^3*x10", "x1.1*x1.2", "1", "x^10000"):
        assert parse_monomial(text) == parse_monomial(parse_monomial(text).render())
    with pytest.raises(IdealError):
        parse_monomial("x^0meow*")
    with pytest.raises(IdealError):
        Monomial.of({"x": -1})


def test_monomial_rejects_a_zero_exponent_a_repeat_and_an_unsorted_pair():
    for exps, message in (((("x", 1), ("y", 0)), "exponent of 'y' must be >= 1, got 0"),
                          ((("x", 1), ("x", 2)), "variable 'x' repeated in monomial"),
                          ((("y", 1), ("x", 1)), "must be sorted; use Monomial.of()")):
        with pytest.raises(IdealError, match=re.escape(message)):
            Monomial(exps)


def test_ideal_minimalizes_and_sorts():
    ideal = MonomialIdeal(("x1", "x2"), [m("x1*x2"), m("x1"), m("x2^2")])
    assert gens(ideal) == {"x1", "x2^2"}
    assert [g.render(ideal.variables) for g in ideal.generators] == ["x1", "x2^2"]
    # every given generator must lie in the ring, also one a smaller one divides
    for outside in ([m("x3")], [m("x1"), m("x1*x3")]):
        with pytest.raises(IdealError):
            MonomialIdeal(("x1", "x2"), outside)


def test_whole_ring_marker():
    whole = MonomialIdeal.whole(("x1",))
    assert whole.is_whole_ring and contains(whole, m("1"))
    with pytest.raises(IdealError):
        MonomialIdeal(("x1",), [m("1")])


# -- cover ideals ------------------------------------------------------------------

def test_cover_ideal_examples():
    assert gens(cover_ideal(c4())) == {"x1*x3", "x2*x4"}
    assert gens(cover_ideal(single_edge())) == {"x", "y"}
    assert gens(cover_ideal(p3())) == {"x2", "x1*x3"}


def test_cover_ideal_edgeless_is_whole_ring():
    assert cover_ideal(build_graph(["a", "b"], [])).is_whole_ring


def test_cover_ideal_is_the_first_symbolic_power(small_graph_atlas):
    # one generator rule: J(G) = J(G)^(1), generators in the order of the
    # minimal vertex covers
    for g in small_graph_atlas:
        if g.vertex_count > 6:
            continue
        ideal = cover_ideal(g)
        first = symbolic_power(g, 1)
        assert ideal.generators == first.generators, g.edges
        assert ideal.variables == first.variables == g.vertex_names
        assert ideal.is_whole_ring == first.is_whole_ring == (g.edge_count == 0)
        if g.edge_count:
            covers = [Monomial.of({v: 1 for v in c}) for c in g.minimal_vertex_covers()]
            assert list(ideal.generators) == covers, g.edges


def test_symbolic_powers_are_pinned():
    # sha256 prefix of the text of J(G)^(k) for k = 1, 2, 3 and of J(G), for
    # every graph on up to six vertices (624 symbolic powers), taken while
    # symbolic_power still read G_k off the named vertex duplication
    digest = hashlib.sha256()
    for n in range(1, 7):
        for edges in graphs_up_to_isomorphism(n):
            g = as_graph(n, edges)
            for k in (1, 2, 3):
                digest.update(render_ideal_text(symbolic_power(g, k)).encode())
            digest.update(render_ideal_text(cover_ideal(g)).encode())
    assert digest.hexdigest()[:12] == "bb7d9b3b710c"


def test_minimal_primes_examples():
    assert minimal_primes(c4()) == [
        EdgePrime("x1", "x2"),
        EdgePrime("x2", "x3"),
        EdgePrime("x3", "x4"),
        EdgePrime("x1", "x4"),
    ]
    assert minimal_primes(single_edge()) == [EdgePrime("x", "y")]
    assert minimal_primes(build_graph(["a"], [])) == []


# -- symbolic powers ----------------------------------------------------------------

def test_symbolic_membership_examples():
    g = c4()
    assert symbolic_membership(g, 2, m("x1*x2*x3*x4"))
    assert not symbolic_membership(g, 2, m("x1*x3"))
    for generator in cover_ideal(g).generators:
        assert symbolic_membership(g, 1, generator)


def test_symbolic_power_examples():
    assert gens(symbolic_power(c4(), 2)) == {"x1^2*x3^2", "x2^2*x4^2", "x1*x2*x3*x4"}
    assert symbolic_power(c4(), 1) == cover_ideal(c4())
    assert gens(symbolic_power(single_edge(), 3)) == {"x^3", "x^2*y", "x*y^2", "y^3"}


def test_symbolic_power_entry_bound_lemma():
    # minimal solutions never need entries above k: compare against a brute
    # search over the larger box {0..k+2}^n
    rng = random.Random(37)
    for _ in range(10):
        g = random_graph(rng, rng.randint(1, 4))
        k = rng.randint(1, 3)
        ours = set(symbolic_power(g, k).generators) if not symbolic_power(g, k).is_whole_ring else set()
        brute = brute_symbolic_generators(g, k, bound=k + 2)
        if g.edge_count == 0:
            assert symbolic_power(g, k).is_whole_ring
        else:
            assert ours == brute


def test_symbolic_power_matches_the_minimalizing_constructor(small_graph_atlas):
    # symbolic_power reads each generator straight off a maximal independent
    # set of G_k and skips the divisibility scan; the constructor, given the
    # brute-force generators, minimalizes and sorts them itself.  Both must
    # hold the same generators in the same order with the same slot masks.
    # The extra graphs list their vertices out of name order, so exponent
    # pairs must be put in name order, and have isolated vertices at either
    # end and in between, which get no slots
    graphs = [g for g in small_graph_atlas if g.vertex_count <= 6] + [
        build_graph(["z", "b", "q", "a", "c"], [("z", "a"), ("a", "c"), ("b", "c"), ("z", "b")]),
        build_graph(["i0", "x2", "x1", "i9"], [("x2", "x1")]),
        build_graph(["p", "i1", "q", "i2", "r", "i3"], [("r", "p"), ("q", "r")]),
        build_graph(["a", "a.1", "b.2", "c"], [("a", "a.1"), ("a.1", "b.2")]),
    ]
    for g in graphs:
        for k in (1, 2, 3):
            fast = symbolic_power(g, k)
            if g.edge_count == 0:
                assert fast.is_whole_ring
                continue
            generic = MonomialIdeal(g.vertex_names, brute_symbolic_generators(g, k, bound=k))
            assert list(fast._masks.items()) == list(generic._masks.items()), (g.edges, k)
            assert (fast.variables, fast.generators) == (generic.variables, generic.generators)


def test_symbolic_power_matches_intersection_oracle():
    rng = random.Random(41)
    for _ in range(12):
        g = random_graph(rng, rng.randint(1, 5))
        k = rng.randint(1, 3)
        assert symbolic_power(g, k) == symbolic_power_by_intersection(g, k)
    for g in (c4(), fish(), whiskered_fish(), five_vertex_example()):
        assert symbolic_power(g, 4) == symbolic_power_by_intersection(g, 4)


def test_symbolic_power_of_whiskered_c8_at_k4():
    wc8 = add_whiskers(cycle(8), ["x1"]).graph
    assert len(symbolic_power(wc8, 4).generators) == 245


def test_symbolic_power_with_isolated_vertex_and_dotted_names():
    # vertex names that look like shadows, and a vertex on no edge, which
    # gets exponent 0 in every generator
    g = build_graph(["a", "a.1", "b.2", "c"], [("a", "a.1"), ("a.1", "b.2")])
    assert render_ideal_text(symbolic_power(g, 3)) == (
        "variables: a a.1 b.2 c\n"
        "a.1^3\n"
        "a*a.1^2*b.2\n"
        "a^2*a.1*b.2^2\n"
        "a^3*b.2^3\n"
    )


def test_many_isolated_vertices_do_not_hit_the_recursion_limit():
    # isolated vertices and their shadows lie in every maximal independent
    # set, so each set holds hundreds of vertices
    isolated = [f"z{i}" for i in range(250)]
    g = build_graph(["a", "b", *isolated], [("a", "b")])
    assert len(symbolic_power(g, 4).generators) == 5
    isolated = [f"z{i}" for i in range(1000)]
    g = build_graph(["a", "b", *isolated], [("a", "b")])
    assert cover_ideal(g).generators == (parse_monomial("a"), parse_monomial("b"))


def test_membership_agrees_with_generators():
    g = p3()
    ideal = symbolic_power(g, 2)
    rng = random.Random(43)
    for _ in range(50):
        probe = Monomial.of({v: rng.randint(0, 3) for v in g.vertex_names})
        assert contains(ideal, probe) == symbolic_membership(g, 2, probe)


def test_ordinary_power_inside_symbolic_power():
    rng = random.Random(47)
    for _ in range(10):
        g = random_graph(rng, rng.randint(2, 5))
        if not g.edge_count:
            continue
        cov = cover_ideal(g)
        k = rng.randint(1, 3)
        for combo in combinations(list(cov.generators) * k, k):
            product = Monomial.one()
            for factor in combo:
                product = mul(product, factor)
            assert symbolic_membership(g, k, product)


# -- intersection ----------------------------------------------------------------------

def test_intersect_examples():
    ambient = ("x", "y")
    left = MonomialIdeal(ambient, [m("x")])
    right = MonomialIdeal(ambient, [m("y")])
    assert gens(intersect(left, right)) == {"x*y"}
    assert intersect(left, MonomialIdeal.whole(ambient)) == left

    g = p3()
    byhand = intersect(
        EdgePrime("x1", "x2").power(2, g.vertex_names),
        EdgePrime("x2", "x3").power(2, g.vertex_names),
    )
    assert byhand == symbolic_power(g, 2)


def test_intersect_requires_matching_ambient():
    with pytest.raises(IdealError):
        intersect(MonomialIdeal(("x",), [m("x")]), MonomialIdeal(("y",), [m("y")]))


# -- polarization -----------------------------------------------------------------------

def test_polarize_examples():
    ideal = MonomialIdeal(("x1", "x3"), [m("x1^2*x3^2")])
    assert gens(polarize(ideal)) == {"x1.1*x1.2*x3.1*x3.2"}

    squarefree = cover_ideal(c4())
    pol = polarize(squarefree)
    assert gens(pol) == {"x1.1*x3.1", "x2.1*x4.1"}
    assert all(is_squarefree(g) for g in pol.generators)


def test_polarize_matches_vertex_duplication():
    # the same masks in the same order: a certified order of J(G_k) is one of J(G)^(k)
    for k in (1, 2, 3):
        polarized = polarize(symbolic_power(c4(), k))
        duplicated = cover_ideal(duplicate_vertices(c4(), k))
        assert polarized == duplicated
        assert list(polarized._masks.items()) == list(duplicated._masks.items())


def test_depolarize_round_trip():
    rng = random.Random(53)
    for _ in range(10):
        g = random_graph(rng, rng.randint(2, 5))
        if not g.edge_count:
            continue
        ideal = symbolic_power(g, rng.randint(1, 3))
        assert depolarize(polarize(ideal)) == ideal


def test_depolarize_minimalizes_what_it_merges():
    # any ideal may be depolarized, so merged generators can divide or equal
    # one another, and only the minimal ones stay
    divided = MonomialIdeal(["a.1", "a.2", "b"], [m("a.1*b"), m("a.2")])
    assert depolarize(divided).generators == (m("a"),)
    assert depolarize(divided).variables == ("a", "b")
    equal = MonomialIdeal(["a.1", "a.2", "b"], [m("a.1*b"), m("a.2*b")])
    assert depolarize(equal).generators == (m("a*b"),)


def test_depolarize_merges_only_shadow_names():
    # a slot is read as duplication.shadows_of reads a shadow: nonempty base,
    # ASCII digits, no leading zero
    merged = MonomialIdeal(["a.1", "a.2", "b.1", "a.1.1"], [parse_monomial("a.1*a.2*b.1*a.1.1")])
    assert gens(depolarize(merged)) == {"a^2*b*a.1"}
    for name in (".1", "a.0", "a.01", "a.\u0663", "a.", "a.x"):
        kept = MonomialIdeal([name, "b.1"], [parse_monomial(f"{name}*b.1")])
        assert depolarize(kept) == MonomialIdeal([name, "b"], [Monomial.of({name: 1, "b": 1})])
    # a variable that is no slot keeps its name, so the text parses back
    assert render_ideal_text(depolarize(MonomialIdeal([".1"], [parse_monomial(".1")]))) == (
        "variables: .1\n.1\n"
    )


# -- linear quotients ----------------------------------------------------------------------

def test_linear_quotients_accepts_p3_cover():
    ideal = cover_ideal(p3())
    order = has_linear_quotients(ideal)
    assert order is not None
    assert [g.render(ideal.variables) for g in order] == ["x2", "x1*x3"]
    assert is_linear_quotients_order(ideal, order)


def test_linear_quotients_rejects_c4_cover():
    ideal = cover_ideal(c4())
    assert has_linear_quotients(ideal) is None
    assert not is_linear_quotients_order(ideal, list(ideal.generators))
    assert not is_linear_quotients_order(ideal, list(reversed(ideal.generators)))


def test_linear_quotients_singleton():
    ideal = MonomialIdeal(("x", "y"), [m("x^2*y")])
    assert has_linear_quotients(ideal) == [m("x^2*y")]
    assert is_linear_quotients_order(ideal, [m("x^2*y")])


def test_is_linear_quotients_order_examples():
    ideal = cover_ideal(p3())
    assert is_linear_quotients_order(ideal, [m("x2"), m("x1*x3")])
    assert not is_linear_quotients_order(ideal, [m("x1*x3"), m("x2")])
    with pytest.raises(IdealError):
        is_linear_quotients_order(ideal, [m("x2")])
    with pytest.raises(IdealError):
        has_linear_quotients(MonomialIdeal.whole(("x",)))


def test_linear_quotients_found_orders_validate():
    rng = random.Random(59)
    for _ in range(15):
        g = random_graph(rng, rng.randint(2, 6))
        if not g.edge_count:
            continue
        ideal = symbolic_power(g, rng.randint(1, 2))
        order = has_linear_quotients(ideal)
        if order is not None:
            assert is_linear_quotients_order(ideal, order)


def test_order_check_matches_colon_oracle_on_symbolic_powers():
    # shuffles mostly fail early; the found order and its adjacent swaps
    # probe every position, including late failures
    rng = random.Random(73)
    verdicts = {True: 0, False: 0}
    for n in range(2, 6):
        for edges in connected_graphs_up_to_isomorphism(n):
            for k in (1, 2, 3):
                ideal = symbolic_power(as_graph(n, edges), k)
                gens = list(ideal.generators)
                orders = [gens, gens[::-1]]
                for _ in range(6):
                    orders.append(rng.sample(gens, len(gens)))
                found = has_linear_quotients(ideal)
                if found is not None:
                    orders.append(found)
                    for _ in range(4):
                        i = rng.randrange(len(found) - 1)
                        orders.append(found[:i] + [found[i + 1], found[i]] + found[i + 2:])
                for order in orders:
                    verdict = is_linear_quotients_order(ideal, order)
                    assert verdict == naive_is_linear_quotients_order(order), (edges, k, order)
                    verdicts[verdict] += 1
    assert min(verdicts.values()) > 300, verdicts


@pytest.mark.parametrize("ambient, order, expected", [
    (("x", "y"), ["x^2", "x*y"], True),
    (("x", "y"), ["x*y", "x^2"], True),
    (("x", "y"), ["x^2", "y^2"], False),
    (("x", "y"), ["x^2", "x*y", "y^2"], True),
    (("x", "y"), ["x^3", "x^2*y", "x*y^2", "y^3"], True),
    (("x", "y"), ["x^3", "y^3", "x^2*y", "x*y^2"], False),
    (("x", "y"), ["x^2*y"], True),
    (("x", "w", "y", "z"), ["y*z", "x^2*z"], True),
    (("x", "w", "y", "z"), ["x^2*z", "y*z"], False),
])
def test_order_check_non_squarefree_edge_cases(ambient, order, expected):
    # w is an ambient variable no generator uses: it owns no slots
    order = [m(text) for text in order]
    ideal = MonomialIdeal(ambient, order)
    assert naive_is_linear_quotients_order(order) == expected
    assert is_linear_quotients_order(ideal, order) == expected
    assert (has_linear_quotients(ideal) is not None) == naive_has_linear_quotients(ideal)


@pytest.mark.parametrize("graph, k, expected", [
    (fish, 1, "x1*x3*x5 x1*x3*x6 x1*x2*x4*x5 x1*x2*x4*x6 x2*x4*x5*x6"),
    (fish, 2, None),
    (fish, 3, None),
    (five_vertex_example, 3,
     "x1^2*x2^2*x3^3*x4 x1^2*x2^2*x3^2*x4*x5 x1^2*x2*x3^3*x4^2 x1^2*x2*x3^2*x4^2*x5 "
     "x1*x2^2*x3^3*x4^2 x1*x2^2*x3^2*x4^2*x5 x1*x2^2*x3*x4^2*x5^2 x1^3*x2^3*x3^3 "
     "x1^3*x3^3*x4^3 x2^3*x3^3*x4^3 x2^3*x3^2*x4^3*x5 x2^3*x3*x4^3*x5^2 x2^3*x4^3*x5^3"),
    (lambda: add_whiskers(cycle(4), ["x1"]).graph, 3,
     "x1^3*x3^3 x1^3*x2*x3^2*x4 x1^2*x2*x3^2*x4*x5 x1^3*x2^2*x3*x4^2 x1^2*x2^2*x3*x4^2*x5 "
     "x1*x2^2*x3*x4^2*x5^2 x1^3*x2^3*x4^3 x1^2*x2^3*x4^3*x5 x1*x2^3*x4^3*x5^2 x2^3*x4^3*x5^3"),
    (whiskered_fish, 3, None),
], ids=["fish-1", "fish-2", "fish-3", "five-vertex-3", "whiskered-c4-3", "whiskered-fish-3"])
def test_linear_quotients_pinned_orders(graph, k, expected):
    ideal = symbolic_power(graph(), k)
    order = has_linear_quotients(ideal)
    rendered = None if order is None else " ".join(g.render(ideal.variables) for g in order)
    assert rendered == expected


def test_linear_quotients_search_backtracks_like_plain_recursion(monkeypatch):
    # On the ideals of these tests the search never backtracks into an
    # order once one exists, so a random stand-in for the colon test drives
    # the backtracking and the dead-prefix memo.  Like the real test it
    # depends only on the chosen set, which is what makes the memo sound.
    ideal = MonomialIdeal(tuple(f"x{i}" for i in range(6)), [m(f"x{i}") for i in range(6)])
    masks = list(ideal._masks.values())
    outcomes = {True: 0, False: 0}
    for seed in range(150):
        def accept(placed, candidate):
            return random.Random(f"{seed}/{sorted(placed)}/{candidate}").random() < 0.35

        expected = first_accepted_order(masks, accept)
        monkeypatch.setattr(ideals, "_linear_colons", accept)
        order = has_linear_quotients(ideal)
        monkeypatch.undo()
        got = None if order is None else [ideal._masks[g] for g in order]
        assert got == expected, seed
        outcomes[expected is not None] += 1
    assert min(outcomes.values()) > 20, outcomes


def test_linear_quotients_search_cost_is_bounded(monkeypatch):
    # a "no" stops at the first degree block with no valid order, so fish
    # k = 3 (19 generators) and whiskered fish k = 3 (24) need few colon
    # tests; a count is stable where wall time is not
    real = ideals._linear_colons
    calls = 0

    def counting(placed, candidate):
        nonlocal calls
        calls += 1
        return real(placed, candidate)

    monkeypatch.setattr(ideals, "_linear_colons", counting)
    for graph, bound in ((fish, 100), (whiskered_fish, 50)):
        calls = 0
        assert has_linear_quotients(symbolic_power(graph(), 3)) is None
        assert 0 < calls <= bound, (graph.__name__, calls)


def test_linear_quotients_matches_plain_search_on_symbolic_powers():
    # the blockwise search returns the first order of the search over all
    # orders, not only its verdict
    ideals_seen = {True: 0, False: 0}
    for n in range(2, 6):
        for edges in connected_graphs_up_to_isomorphism(n):
            for k in (1, 2, 3):
                ideal = symbolic_power(as_graph(n, edges), k)
                if len(ideal.generators) > 10:
                    continue
                expected = first_accepted_order(list(ideal.generators), naive_colon_is_linear)
                assert has_linear_quotients(ideal) == expected, (edges, k)
                ideals_seen[expected is not None] += 1
    assert min(ideals_seen.values()) > 5, ideals_seen


def test_degree_descent_swap_keeps_linear_quotients():
    # Jahan-Zheng: swapping adjacent generators whose degrees go down keeps
    # linear quotients, which is why only degree-nondecreasing orders are
    # searched.  Every accepting order of small symbolic powers and random
    # ideals is checked, descent by descent.
    rng = random.Random(83)
    cases = [symbolic_power(as_graph(n, edges), k)
             for n in range(2, 6) for edges in connected_graphs_up_to_isomorphism(n)
             for k in (1, 2, 3)]
    cases += [random_ideal(rng, nvars=rng.randint(4, 6), ngens=rng.randint(2, 6),
                           maxexp=rng.randint(1, 2)) for _ in range(200)]
    swaps = 0
    for ideal in cases:
        if len(ideal.generators) > 7:
            continue
        for order in exhaustive_linear_quotients_orders(ideal):
            for i in range(len(order) - 1):
                if degree(order[i]) > degree(order[i + 1]):
                    swapped = order[:i] + [order[i + 1], order[i]] + order[i + 2:]
                    assert naive_is_linear_quotients_order(swapped), (order, i)
                    swaps += 1
    assert swaps > 500, swaps


def random_ideal(rng, nvars=4, ngens=6, maxexp=2) -> MonomialIdeal:
    ambient = tuple(f"x{i}" for i in range(1, nvars + 1))
    pool = []
    for _ in range(ngens):
        pool.append(Monomial.of({v: rng.randint(0, maxexp) for v in ambient}))
    pool = [g for g in pool if degree(g) > 0] or [Monomial.of({"x1": 1})]
    return MonomialIdeal(ambient, pool)


def test_linear_quotients_agrees_with_naive_search():
    # the same order as the plain search over all orders, not only the
    # same verdict, on ideals of mixed degrees
    rng = random.Random(61)
    verdicts = {True: 0, False: 0}
    for _ in range(300):
        ideal = random_ideal(rng, nvars=rng.randint(2, 4), ngens=rng.randint(1, 8),
                             maxexp=rng.randint(1, 3))
        expected = first_accepted_order(list(ideal.generators), naive_colon_is_linear)
        assert has_linear_quotients(ideal) == expected, ideal
        verdicts[expected is not None] += 1
    assert min(verdicts.values()) > 30, verdicts


def test_linear_quotients_agrees_with_full_permutation_search():
    rng = random.Random(67)
    for _ in range(20):
        ideal = random_ideal(rng, nvars=3, ngens=rng.randint(1, 5))
        accepted = list(exhaustive_linear_quotients_orders(ideal))
        order = has_linear_quotients(ideal)
        assert (order is not None) == bool(accepted)
        if order is not None:
            assert order in accepted


def test_linear_quotients_deterministic():
    rng = random.Random(71)
    for _ in range(10):
        ideal = random_ideal(rng)
        first = has_linear_quotients(ideal)
        second = has_linear_quotients(ideal)
        assert first == second


# -- text format -----------------------------------------------------------------------------

def test_ideal_text_round_trip():
    for ideal in (cover_ideal(c4()), symbolic_power(p3(), 2), MonomialIdeal.whole(("x1", "x2"))):
        back = parse_ideal_text(render_ideal_text(ideal))
        assert back == ideal and back.variables == ideal.variables


def test_ideal_text_infers_variables_naturally():
    ideal = parse_ideal_text("x2*x10\nx1\n")
    assert ideal.variables == ("x1", "x2", "x10")
