"""Differential tests: the forward-checking engine against the plain engine.

Forward checking only cuts subtrees that hold no solution and keeps the
branch order, so every result must match the plain reference engine in
plain_engine.py exactly: the same lex-least witness, the same enumeration in
the same order, the same batches of solutions that share their first n - 1
colors with the same first changed vertex, the same aw and per-r verdicts.
"""

import hashlib

import networkx
import pytest

from awgraph import (
    Graph,
    all_pairs_distances,
    build_cycle,
    build_grid,
    build_path,
    build_star,
    cartesian_product,
    compute_aw,
    enumerate_k_aps,
    enumerate_rainbow_free_colorings,
    exists_rainbow_free_coloring,
)
from awgraph import search
from awgraph.search import iter_rainbow_free_changes
import plain_engine
from prop_helpers import expanded, small_corpus


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
                    [
                        (changed, tuple(cols), leaves)
                        for changed, cols, leaves in iter_rainbow_free_changes(table, r)
                    ],
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


# (graph, k, r, solutions, sha256 over one "changed c0 c1 ...\n" line per
# solution, each batch expanded to its solutions): instances too large for the comparisons with the plain engine
# above, where the free-vertex cut rejects the most choices.  The digests were
# computed while that cut was still decided on entering the child.  cycle:14,
# star:10 and grid:3x4 at r = aw stream nothing, so each is pinned at
# r = aw - 1 too.
PINNED_STREAMS = [
    (build_path(12), 4, 7, 7, "f5c95353d70f1728b260ff6568ce755732c49e005705b5f8b1d47b4c97f98a64"),
    (build_grid(2, 6)[0], 4, 5, 40, "cfd797c44813de7bf3ac4814fb905b27c8cf2142905f551ab4e7ff1de3ec74fe"),
    (build_cycle(14), 5, 8, 0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (build_cycle(14), 5, 7, 35, "c872354d7abbb0bc85754bcaa4d4de46479751f15a271f8ee460903139cccac9"),
    (build_star(10), 5, 6, 0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (build_star(10), 5, 5, 7770, "566a4b06fab58aaf57c7c939594d251e3134322f7ade019aa355640976f3c6c2"),
    (build_grid(3, 4)[0], 5, 6, 0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (build_grid(3, 4)[0], 5, 5, 5233, "af83701a0674af44fea3d2a7818845c1aabb32ec649be4570b5d2edd1680be9a"),
]


def test_streams_beyond_the_plain_engine_match_pinned_digests():
    for g, k, r, solutions, want in PINNED_STREAMS:
        table = enumerate_k_aps(all_pairs_distances(g), k)
        digest = hashlib.sha256()
        count = 0
        for changed, cols in expanded(iter_rainbow_free_changes(table, r)):
            digest.update(f"{changed} {' '.join(map(str, cols))}\n".encode())
            count += 1
        assert (count, digest.hexdigest()) == (solutions, want), (g.edges(), k, r)
