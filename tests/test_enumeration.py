from __future__ import annotations

import hashlib
import random
from itertools import permutations

import pytest

from symcover.enumeration import (
    _augmented,
    _rows,
    as_graph,
    automorphisms,
    canonical_form,
    connected_graphs_up_to_isomorphism,
    graphs_up_to_isomorphism,
)
from symcover.graphs import build_graph

from conftest import c4, cycle, fish
from oracles import are_isomorphic, colored_canonical_form


def test_known_class_counts():
    assert [len(graphs_up_to_isomorphism(n)) for n in range(1, 8)] == [
        1, 2, 4, 11, 34, 156, 1044,
    ]


def test_known_connected_counts():
    assert [len(connected_graphs_up_to_isomorphism(n)) for n in range(1, 7)] == [
        1, 1, 2, 6, 21, 112,
    ]


def test_representatives_and_keys_are_pinned():
    # sha256 of every representative's sorted edge list, in order, and of
    # its canonical form, for n <= 7; taken before the invariant classes
    # were ranked and the pair bits read from a table.  The counts above
    # would miss a reordered or relabeled representative.
    reps, keys = hashlib.sha256(), hashlib.sha256()
    for n in range(8):
        for edges in graphs_up_to_isomorphism(n):
            reps.update(f"{sorted(edges)}\n".encode())
            keys.update(f"{canonical_form(n, edges)}\n".encode())
    assert reps.hexdigest() == "11904d0b965f65d6243ca50ed61503be185eda23df7e226ae98af0c970a424e9"
    assert keys.hexdigest() == "3aa91606b2c5782fd8af0d418229cb4261cd8b3379c851e9ee301070b5e30b08"


def test_bundled_levels_match_augmentation():
    # each tabled level, rebuilt from the tabled level below it by the
    # augmentation that generated the table, gives the same representatives
    # in the same order
    for n in range(2, 8):
        assert _augmented(n, graphs_up_to_isomorphism(n - 1)) == graphs_up_to_isomorphism(n), n


@pytest.mark.slow
def test_level_eight_is_pinned():
    # level 8 is the one level still augmented at run time; sha256 of every
    # representative's sorted edge list, in order, taken while every level
    # was augmented
    level = graphs_up_to_isomorphism(8)
    assert len(level) == 12346
    assert len(connected_graphs_up_to_isomorphism(8)) == 11117
    reps = hashlib.sha256()
    for edges in level:
        reps.update(f"{sorted(edges)}\n".encode())
    assert reps.hexdigest() == "e2702c578f98f2868dd7b4687e25a96fad3e4e4a3d425e63108cd31ef3f29253"


def test_levels_are_built_once_and_immutable():
    level = graphs_up_to_isomorphism(5)
    assert isinstance(level, tuple)
    assert graphs_up_to_isomorphism(5) is level
    assert isinstance(connected_graphs_up_to_isomorphism(5), tuple)


def test_automorphism_group_orders():
    def order(n, edges):
        return len(automorphisms(_rows(n, frozenset(edges))))

    assert order(4, [(0, 1), (1, 2), (2, 3), (0, 3)]) == 8  # C4: dihedral
    assert order(4, [(0, 1), (1, 2), (2, 3)]) == 2  # P4
    assert order(4, [(0, 1), (0, 2), (0, 3)]) == 6  # star
    assert order(5, []) == 120
    assert order(5, [(i, j) for i in range(5) for j in range(i + 1, 5)]) == 120
    # fish: 4-cycle 0123 with triangle 0, 4, 5; swaps 1<->3 and 4<->5
    assert order(6, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 4), (0, 5), (4, 5)]) == 4
    assert automorphisms(_rows(3, frozenset({(0, 1), (1, 2)})))[0] == (0, 1, 2)


def test_automorphisms_match_permutation_search():
    for n in range(1, 7):
        for edges in graphs_up_to_isomorphism(n):
            brute = [
                sigma for sigma in permutations(range(n))
                if {(min(sigma[i], sigma[j]), max(sigma[i], sigma[j])) for i, j in edges} == edges
            ]
            assert sorted(automorphisms(_rows(n, edges))) == brute, sorted(edges)


def test_canonical_form_invariant_under_relabeling():
    rng = random.Random(109)
    for _ in range(40):
        n = rng.randint(1, 7)
        edges = frozenset(
            (i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.5
        )
        perm = list(range(n))
        rng.shuffle(perm)
        mapped = frozenset(
            (min(perm[i], perm[j]), max(perm[i], perm[j])) for i, j in edges
        )
        assert canonical_form(n, edges) == canonical_form(n, mapped)


def test_canonical_form_separates_nonisomorphic():
    path = frozenset({(0, 1), (1, 2)})
    star_center_zero = frozenset({(0, 1), (0, 2)})
    triangle = frozenset({(0, 1), (0, 2), (1, 2)})
    assert canonical_form(3, path) == canonical_form(3, star_center_zero)
    assert canonical_form(3, path) != canonical_form(3, triangle)


def test_colored_forms_distinguish_subsets():
    edges = frozenset({(0, 1), (1, 2), (2, 3), (0, 3)})
    center = colored_canonical_form(4, edges, [1, 0, 0, 0])
    pair_adjacent = colored_canonical_form(4, edges, [1, 1, 0, 0])
    pair_opposite = colored_canonical_form(4, edges, [1, 0, 1, 0])
    rotated = colored_canonical_form(4, edges, [0, 1, 0, 1])
    assert pair_adjacent != pair_opposite
    assert pair_opposite == rotated
    assert center != pair_adjacent


def test_are_isomorphic_examples():
    assert are_isomorphic(c4(), build_graph(
        ["a", "b", "c", "d"], [("a", "c"), ("c", "b"), ("b", "d"), ("d", "a")]
    ))
    assert not are_isomorphic(c4(), build_graph(
        ["a", "b", "c", "d"], [("a", "b"), ("b", "c"), ("c", "d")]
    ))
    assert not are_isomorphic(cycle(5), cycle(6))


def test_every_small_graph_appears():
    # spot-check the atlas against direct membership by isomorphism
    atlas6 = [as_graph(6, e) for e in connected_graphs_up_to_isomorphism(6)]
    assert sum(1 for g in atlas6 if are_isomorphic(g, fish())) == 1
    assert sum(1 for g in atlas6 if are_isomorphic(g, cycle(6))) == 1
