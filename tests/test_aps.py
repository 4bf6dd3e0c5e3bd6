"""AP enumeration against the brute-force oracle, plus frozen small cases."""

import inspect
import sys
from itertools import combinations, permutations

import pytest

import awgraph.certify
from awgraph import (
    VERDICT_WITNESS_VALID,
    BudgetExceededError,
    Coloring,
    all_pairs_distances,
    brute_force_k_aps,
    build_cycle,
    build_grid,
    build_path,
    build_star,
    compute_aw,
    emit_certificate,
    enumerate_k_aps,
    enumerate_rainbow_free_colorings,
    exists_rainbow_free_coloring,
    find_rainbow_ap,
    verify_certificate,
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
            u, v = ap.vertices
            assert ap.d == dist[u][v]


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
    # Python frames, neither to enumerate nor to derive its ordering; the
    # 100-APs of P_120 are its 21 runs of consecutive ids.
    dist = all_pairs_distances(build_path(120))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 50)
    try:
        table = enumerate_k_aps(dist, 100)
        assert all(ap.d == 1 and ap.witness == ap.vertices for ap in table.aps)
    finally:
        sys.setrecursionlimit(limit)
    assert _sets(table) == [tuple(range(s, s + 100)) for s in range(21)]


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
                    dist[ap.witness[i]][ap.witness[i + 1]] for i in range(k - 1)
                }
                assert steps == {ap.d}, f"{name} {ap}"


def test_witness_orderings_follow_the_stated_rule():
    # `awgraph verify` prints the ordering and d of a rainbow AP, so the rule
    # is pinned: for k = 3 the smallest member equidistant from the other two
    # sits between the ascending ends; for larger k the ordering is the first
    # permutation of the vertex set with a constant step.
    for name, g in small_corpus():
        dist = all_pairs_distances(g)
        for k in (3, 4, 5):
            for ap in enumerate_k_aps(dist, k).aps:
                vs = ap.vertices
                if k == 3:
                    m = min(x for x in vs if len({dist[x][y] for y in vs if y != x}) == 1)
                    lo, hi = (x for x in vs if x != m)
                    expected = (lo, m, hi)
                else:
                    expected = next(
                        p
                        for p in permutations(vs)
                        if len({dist[p[i]][p[i + 1]] for i in range(k - 1)}) == 1
                    )
                assert ap.witness == expected, f"{name} k={k} {ap}"
                assert ap.d == dist[expected[0]][expected[1]], f"{name} k={k} {ap}"


def test_k3_middle_vertex_characterization():
    # {a,b,c} is an AP iff some member is equidistant from the other two.
    for name, g in small_corpus()[:12]:
        dist = all_pairs_distances(g)
        table = {ap.vertices for ap in enumerate_k_aps(dist, 3).aps}
        for trio in combinations(range(g.n), 3):
            a, b, c = trio
            has_middle = (
                dist[a][b] == dist[b][c]
                or dist[a][c] == dist[c][b]
                or dist[b][a] == dist[a][c]
            )
            assert (trio in table) == has_middle, f"{name} {trio}"


def test_corner_pair_of_2x3_has_no_middle():
    # Corners (1,1) and (2,3) sit at odd distance, so no vertex is
    # equidistant from both and no 3-AP uses them as its endpoints.
    g, coords = build_grid(2, 3)
    dist = all_pairs_distances(g)
    v_a, v_b = coords.vertex(1, 1), coords.vertex(2, 3)
    assert all(dist[v_a][x] != dist[x][v_b] for x in range(g.n))
    table = enumerate_k_aps(dist, 3)
    for ap in table.aps:
        if v_a in ap.vertices and v_b in ap.vertices:
            middle = ap.witness[1]
            assert middle in (v_a, v_b)


def test_find_rainbow_ap():
    g, _ = build_grid(2, 3)
    table = enumerate_k_aps(all_pairs_distances(g), 3)
    rainbow_free = Coloring((1, 1, 2, 3, 1, 1), 3)
    assert find_rainbow_ap(table, rainbow_free.colors) is None
    # all-distinct colors: the first AP in table order is rainbow
    rainbow = tuple(range(1, 7))
    hit = find_rainbow_ap(table, rainbow)
    assert hit is table.aps[0]
    assert len({rainbow[v] for v in hit.vertices}) == 3
    assert find_rainbow_ap(table, (1, 1, 1, 1, 1, 1)) is None


def test_search_and_clean_checks_do_not_build_progressions(monkeypatch):
    # Only a reported AP needs an ordering: the search and a check that finds
    # no rainbow AP read the vertex sets and leave table.aps unbuilt.
    g, _ = build_grid(2, 3)
    table = enumerate_k_aps(all_pairs_distances(g), 3)
    assert exists_rainbow_free_coloring(table, 3) is not None
    assert enumerate_rainbow_free_colorings(table, 3)
    assert find_rainbow_ap(table, (1, 1, 2, 3, 1, 1)) is None
    assert "aps" not in vars(table)

    built = []

    def capture(dist, k):
        built.append(enumerate_k_aps(dist, k))
        return built[-1]

    monkeypatch.setattr(awgraph.certify, "enumerate_k_aps", capture)
    report = verify_certificate(emit_certificate(compute_aw(g, 3), g))
    assert report.verdict == VERDICT_WITNESS_VALID, report.notes
    assert len(built) == 1 and built[0].sets
    assert "aps" not in vars(built[0])
