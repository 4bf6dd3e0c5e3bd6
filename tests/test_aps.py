"""AP enumeration against the brute-force oracle, plus frozen small cases."""

import inspect
import sys
from itertools import combinations

import pytest

from awgraph import (
    BudgetExceededError,
    Coloring,
    all_pairs_distances,
    brute_force_k_aps,
    build_cycle,
    build_grid,
    build_path,
    build_star,
    enumerate_k_aps,
    find_rainbow_ap,
    is_rainbow,
)
from prop_helpers import small_corpus


def _sets(table):
    return [ap.vertices for ap in table.aps]


def test_path4_k3_frozen():
    dist = all_pairs_distances(build_path(4))
    table = enumerate_k_aps(dist, 3)
    assert _sets(table) == [(0, 1, 2), (1, 2, 3)]
    assert all(ap.d == 1 for ap in table.aps)


def test_grid22_k3_frozen():
    # The 4-cycle: every 3-subset is an AP with common difference 1.
    g, _ = build_grid(2, 2)
    table = enumerate_k_aps(all_pairs_distances(g), 3)
    assert _sets(table) == [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]
    assert all(ap.d == 1 for ap in table.aps)


def test_star5_k4_frozen():
    # Leaves are pairwise at distance 2; the only 4-AP is all four leaves.
    table = enumerate_k_aps(all_pairs_distances(build_star(5)), 4)
    assert _sets(table) == [(1, 2, 3, 4)]
    assert table.aps[0].d == 2


def test_k2_is_all_pairs():
    for name, g in small_corpus()[:8]:
        dist = all_pairs_distances(g)
        table = enumerate_k_aps(dist, 2)
        assert _sets(table) == list(combinations(range(g.n), 2)), name
        for ap in table.aps:
            assert ap.d == dist.d(*ap.vertices)


def test_k_validation():
    dist = all_pairs_distances(build_path(3))
    with pytest.raises(ValueError):
        enumerate_k_aps(dist, 1)
    with pytest.raises(ValueError):
        brute_force_k_aps(dist, 0)


def test_brute_force_guard():
    dist = all_pairs_distances(build_path(30))
    with pytest.raises(BudgetExceededError):
        brute_force_k_aps(dist, 6)  # 30!/24! ordered tuples > 10^8


def test_enumerate_matches_brute_force():
    # The central oracle equivalence: same vertex sets for every corpus graph,
    # also for k = n + 1, where there are no k distinct vertices.
    for name, g in small_corpus():
        dist = all_pairs_distances(g)
        for k in (3, 4, g.n + 1):
            fast = enumerate_k_aps(dist, k)
            slow = brute_force_k_aps(dist, k)
            assert _sets(fast) == _sets(slow), f"{name} k={k}"


def test_long_progressions_ignore_the_recursion_limit():
    # Extension runs on an explicit stack, so a 100-AP does not need 100
    # Python frames; the 100-APs of P_120 are its 21 runs of consecutive ids.
    dist = all_pairs_distances(build_path(120))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 50)
    try:
        table = enumerate_k_aps(dist, 100)
    finally:
        sys.setrecursionlimit(limit)
    assert _sets(table) == [tuple(range(s, s + 100)) for s in range(21)]
    assert all(ap.d == 1 and ap.witness == ap.vertices for ap in table.aps)


def test_witness_orderings_are_valid():
    for name, g in small_corpus():
        dist = all_pairs_distances(g)
        for k in (3, 4):
            table = enumerate_k_aps(dist, k)
            for ap in table.aps:
                assert tuple(sorted(ap.witness)) == ap.vertices
                assert len(set(ap.vertices)) == k  # non-degenerate
                assert ap.d >= 1
                steps = {
                    dist.d(ap.witness[i], ap.witness[i + 1]) for i in range(k - 1)
                }
                assert steps == {ap.d}, f"{name} {ap}"


def test_k3_middle_vertex_characterization():
    # {a,b,c} is an AP iff some member is equidistant from the other two.
    for name, g in small_corpus()[:12]:
        dist = all_pairs_distances(g)
        table = {ap.vertices for ap in enumerate_k_aps(dist, 3).aps}
        for trio in combinations(range(g.n), 3):
            a, b, c = trio
            has_middle = (
                dist.d(a, b) == dist.d(b, c)
                or dist.d(a, c) == dist.d(c, b)
                or dist.d(b, a) == dist.d(a, c)
            )
            assert (trio in table) == has_middle, f"{name} {trio}"


def test_corner_pair_of_2x3_has_no_middle():
    # Corners (1,1) and (2,3) sit at odd distance, so no vertex is
    # equidistant from both and no 3-AP uses them as its endpoints.
    g, coords = build_grid(2, 3)
    dist = all_pairs_distances(g)
    v_a, v_b = coords.vertex(1, 1), coords.vertex(2, 3)
    assert all(dist.d(v_a, x) != dist.d(x, v_b) for x in range(g.n))
    table = enumerate_k_aps(dist, 3)
    for ap in table.aps:
        if v_a in ap.vertices and v_b in ap.vertices:
            middle = ap.witness[1]
            assert middle in (v_a, v_b)


def test_is_rainbow_and_find_rainbow_ap():
    g, _ = build_grid(2, 3)
    table = enumerate_k_aps(all_pairs_distances(g), 3)
    rainbow_free = Coloring((1, 1, 2, 3, 1, 1), 3)
    assert find_rainbow_ap(table, rainbow_free.colors) is None
    # all-distinct colors: the first AP in table order is rainbow
    rainbow = tuple(range(1, 7))
    hit = find_rainbow_ap(table, rainbow)
    assert hit is table.aps[0]
    assert is_rainbow(hit, rainbow)
    assert not is_rainbow(table.aps[0], (1, 1, 1, 1, 1, 1))
