from __future__ import annotations

import hashlib

import pytest

from symcover.graphs import build_graph
from symcover.scenarios import counterexample_search

from conftest import fish
from oracles import are_isomorphic


@pytest.mark.slow
def test_search_mode_i_full_seven_vertex_sweep():
    """Sweep every connected graph on up to 7 vertices.

    The fish-shaped bases must show up among the boundary reports (sets
    missing a cycle whose duplication breaks), and every report must carry
    the not-a-cycle-cover flag.  The report count and the sha256 prefix of
    the text that ``symcover search --max-vertices 7 --max-k 2 --mode i``
    prints are pinned; they were taken before the engine refuted components
    by their vertex links.
    """
    fish_hits = 0
    total = 0
    text = hashlib.sha256()
    for r in counterexample_search(7, 2, "i"):
        total += 1
        text.update(r.to_text().encode())
        assert any("not a cycle cover" in f for f in r.flags)
        if not any("boundary" in f for f in r.flags):
            continue
        edges = [tuple(e.split("-")) for e in r.inputs["edges"].split(",")]
        names = sorted({v for e in edges for v in e})
        if len(names) == 6 and are_isomorphic(build_graph(names, edges), fish()):
            fish_hits += 1
    assert fish_hits >= 1
    assert total == 21852
    assert text.hexdigest()[:12] == "5dacd9086bc6"
