"""Differential tests: the forward-checking engine against the plain engine.

Forward checking only cuts subtrees that hold no solution and keeps the
branch order, so every result must match the plain reference engine in
plain_engine.py exactly: the same lex-least witness, the same enumeration in
the same order, the same first changed vertex of each solution, the same aw
and per-r verdicts.
"""

import networkx
import pytest

from awgraph import (
    Graph,
    all_pairs_distances,
    build_grid,
    build_path,
    cartesian_product,
    compute_aw,
    enumerate_k_aps,
    enumerate_rainbow_free_colorings,
    exists_rainbow_free_coloring,
)
from awgraph import search
from awgraph.search import iter_rainbow_free_changes
import plain_engine
from prop_helpers import small_corpus


def _both(monkeypatch, fn):
    """fn() under the forward-checking engine, then under the plain one."""
    got = fn()
    with monkeypatch.context() as m:
        m.setattr(search, "_search", plain_engine._search)
        want = fn()
    return got, want


def test_corpus_exists_and_enumerate_match(monkeypatch):
    for name, g in small_corpus():
        dist = all_pairs_distances(g)
        for k in (2, 3, 4, 5):
            table = enumerate_k_aps(dist, k)
            for r in range(1, g.n + 1):
                got, want = _both(monkeypatch, lambda: (
                    exists_rainbow_free_coloring(table, r),
                    enumerate_rainbow_free_colorings(table, r),
                    [(changed, tuple(cols)) for changed, cols in iter_rainbow_free_changes(table, r)],
                ))
                assert got == want, (name, k, r)


@pytest.mark.parametrize("m, n", [(3, 4), (4, 4), (4, 5)])
def test_grid_aw_matches(monkeypatch, m, n):
    g, _ = build_grid(m, n)
    got, want = _both(monkeypatch, lambda: compute_aw(g, 3))
    assert got == want


def test_path2_product_slice_matches(monkeypatch):
    # Every 20th connected 7-vertex graph of the atlas, as P_2 box H.
    connected = [
        ag for ag in networkx.graph_atlas_g()
        if ag.number_of_nodes() == 7 and networkx.is_connected(ag)
    ]
    p2 = build_path(2)
    for ag in connected[::20]:
        h = Graph.from_edges(7, [tuple(sorted(e)) for e in ag.edges()])
        g = cartesian_product(p2, h)
        got, want = _both(monkeypatch, lambda: compute_aw(g, 3))
        assert got == want, sorted(ag.edges())
