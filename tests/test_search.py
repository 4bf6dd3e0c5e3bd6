"""Search engine tests: frozen results, brute-force oracles, determinism."""

import math
import random

import networkx
import pytest

from awgraph import (
    BudgetExceededError,
    Coloring,
    Graph,
    all_pairs_distances,
    build_cycle,
    build_grid,
    build_path,
    build_star,
    compute_aw,
    enumerate_k_aps,
    enumerate_rainbow_free_colorings,
    exists_rainbow_free_coloring,
)
from awgraph.search import iter_rainbow_free_colorings
from prop_helpers import (
    assert_lex_sorted_canonical,
    brute_force_aw,
    canonicalize,
    check_polychromatic_path,
    find_polychromatic_path,
    grid_flip_horizontal,
    is_canonical,
    labeled_rainbow_free,
    random_exact_coloring,
    small_corpus,
)

# aw(P_m x P_n, 3), confirmed against the brute-force oracle below.
AW_GRID = {
    (2, 2): 3,
    (2, 3): 4,
    (2, 4): 3,
    (2, 5): 4,
    (2, 6): 3,
    (2, 7): 4,
    (2, 8): 3,
    (3, 3): 3,
    (3, 4): 4,
    (3, 5): 3,
    (4, 4): 4,
}


def _table(g, k=3):
    return enumerate_k_aps(all_pairs_distances(g), k)


def test_exists_one_color_always():
    # A single color can never be rainbow for k >= 3.
    for name, g in small_corpus():
        c = exists_rainbow_free_coloring(_table(g), 1)
        assert c is not None, name
        assert c.colors == (1,) * g.n, name


def test_exists_none_when_every_coloring_rainbow():
    g, _ = build_grid(2, 2)
    assert exists_rainbow_free_coloring(_table(g), 3) is None


def test_exists_returns_lex_least():
    g, _ = build_grid(2, 3)
    c = exists_rainbow_free_coloring(_table(g), 3)
    assert c == Coloring((1, 1, 2, 3, 1, 1), 3)


def test_enumerate_frozen_grids():
    expected = {
        (2, 3): [(1, 1, 2, 3, 1, 1), (1, 2, 2, 2, 2, 3)],
        (2, 5): [
            (1, 1, 1, 1, 2, 3, 1, 1, 1, 1),
            (1, 2, 2, 2, 2, 2, 2, 2, 2, 3),
        ],
        (2, 7): [
            (1, 1, 1, 1, 1, 1, 2, 3, 1, 1, 1, 1, 1, 1),
            (1, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 3),
        ],
    }
    for (m, n), colorings in expected.items():
        g, _ = build_grid(m, n)
        found = enumerate_rainbow_free_colorings(_table(g), 3)
        assert [c.colors for c in found] == colorings, (m, n)
        assert_lex_sorted_canonical(found)


def test_enumerate_path2_two_colors():
    g = build_path(2)
    found = enumerate_rainbow_free_colorings(_table(g), 2)
    assert [c.colors for c in found] == [(1, 2)]


def test_extremal_pair_swapped_by_flip():
    # The two canonical colorings of P_2 x P_n (n odd) are one coloring up
    # to the column-reversing automorphism: flipping either one and
    # renaming colors by first appearance yields the other.
    for n in (3, 5, 7):
        g, _ = build_grid(2, n)
        a, b = enumerate_rainbow_free_colorings(_table(g), 3)
        assert canonicalize(grid_flip_horizontal(a.colors, 2, n)) == b
        assert canonicalize(grid_flip_horizontal(b.colors, 2, n)) == a


def test_compute_aw_matches_brute_force():
    for name, g in small_corpus():
        if g.n > 6:
            continue
        for k in (3, 4):
            got = compute_aw(g, k).aw
            want = brute_force_aw(g, k)
            assert got == want, f"{name} k={k}: search {got}, brute force {want}"


def test_frozen_grid_aw_values():
    for (m, n), want in AW_GRID.items():
        g, _ = build_grid(m, n)
        assert compute_aw(g, 3).aw == want, (m, n)


def _bsy_f(n: int) -> int:
    """f(n) with aw([n], 3) = f(n), in the form recalled for [BSY] (PAPER.md).

    With 3^m <= n < 3^(m+1): m + 2 when n = 3^m, m + 3 when
    3^m < n <= 7 * 3^(m-1), and m + 4 otherwise.  Valid as written for
    n >= 3.  This form has not been checked against [BSY]'s own text.
    """
    m = 0
    while 3 ** (m + 1) <= n:
        m += 1
    if n == 3**m:
        return m + 2
    return m + 3 if n <= 7 * 3 ** (m - 1) else m + 4


def test_path_aw_matches_the_recalled_bsy_formula():
    # The APs of [n] are the non-degenerate APs of P_n ([SWY]), so
    # aw(P_n, 3) = aw([n], 3).  Values come from the search, never from the
    # formula; aw is not monotone here (P_8 -> 5, P_9 -> 4; P_26 -> 6,
    # P_27 -> 5), which makes n = 3..30 a regression range for the search.
    searched = {n: compute_aw(build_path(n), 3).aw for n in range(3, 31)}
    assert searched == {n: _bsy_f(n) for n in searched}
    assert searched[8] > searched[9] and searched[26] > searched[27]


def test_short_circuit_when_k_exceeds_n():
    res = compute_aw(build_path(2), 3)
    assert res.aw == 3
    assert res.per_r == ()
    assert res.witness == Coloring((1, 2), 2)
    res = compute_aw(build_path(4), 5)
    assert res.aw == 5
    assert res.per_r == ()
    assert res.witness == Coloring((1, 2, 3, 4), 4)


def test_witness_none_when_fewer_than_two_colors():
    res = compute_aw(build_path(2), 2)
    assert res.aw == 2
    assert res.witness is None


def test_per_r_shape_and_witness():
    for name, g in small_corpus():
        if g.n > 6 or g.n < 3:
            continue
        res = compute_aw(g, 3)
        rs = [r for r, _ in res.per_r]
        assert rs == list(range(3, 3 + len(rs))), name
        flags = [e for _, e in res.per_r]
        if res.aw <= g.n:
            assert flags == [True] * (len(flags) - 1) + [False], name
            assert rs[-1] == res.aw, name
        else:
            assert all(flags), name
            assert rs[-1] == g.n, name
        if res.aw - 1 < 2:
            assert res.witness is None, name
        else:
            assert res.witness is not None, name
            assert res.witness.r == res.aw - 1, name
            assert res.witness.n == g.n, name


def test_witness_is_lex_least_and_rainbow_free():
    for m, n in ((2, 3), (2, 4), (3, 3), (3, 4)):
        g, _ = build_grid(m, n)
        res = compute_aw(g, 3)
        table = _table(g)
        first = enumerate_rainbow_free_colorings(table, res.aw - 1)[0]
        assert res.witness == first, (m, n)
        assert res.witness.colors in labeled_rainbow_free(g, 3, res.aw - 1), (m, n)
    # Below k the witness is written in closed form; it must be the one the
    # search returns.
    for name, g in small_corpus():
        for k in range(2, g.n + 4):
            res = compute_aw(g, k)
            if res.aw - 1 >= 2:
                want = exists_rainbow_free_coloring(_table(g, k), res.aw - 1)
                assert res.witness == want, (name, k)
            else:
                assert res.witness is None, (name, k)


def test_canonical_count_times_factorial():
    # Canonical enumeration x r! recovers the labeled count, and filtering
    # the labeled colorings down to canonical ones recovers the enumeration.
    # k = 3 has its own inner loop in the engine; k = 2, 4 and 5 share the
    # generic one.
    for name, g in small_corpus():
        for k in (2, 3, 4, 5):
            table = _table(g, k)
            for r in range(1, g.n + 1):
                if r**g.n > 7000:
                    continue
                canonical = enumerate_rainbow_free_colorings(table, r)
                labeled = labeled_rainbow_free(g, k, r)
                assert len(labeled) == len(canonical) * math.factorial(r), (name, k, r)
                filtered = [cs for cs in labeled if is_canonical(Coloring(cs, r))]
                assert filtered == [c.colors for c in canonical], (name, k, r)


def test_search_results_pass_the_checked_constructor():
    # On every connected atlas graph on 1-6 vertices and every grid up to
    # 3x4, at k = 3 and 4 and every r: the first solution is the first one
    # enumerated, and each result is exact, canonical and equal and hashable
    # like a Coloring rebuilt through the checked constructor.
    graphs = [
        Graph.from_edges(ag.number_of_nodes(), sorted(tuple(sorted(e)) for e in ag.edges()))
        for ag in networkx.graph_atlas_g()
        if 1 <= ag.number_of_nodes() <= 6 and networkx.is_connected(ag)
    ]
    graphs += [build_grid(m, n)[0] for m in range(1, 4) for n in range(m, 5)]
    assert len(graphs) == 143 + 9
    for g in graphs:
        for k in (3, 4):
            table = _table(g, k)
            for r in range(1, g.n + 1):
                found = enumerate_rainbow_free_colorings(table, r)
                first = exists_rainbow_free_coloring(table, r)
                assert first == (found[0] if found else None), (g.edges(), k, r)
                for c in found + ([first] if first else []):
                    checked = Coloring(c.colors, c.r)
                    assert c == checked and c.r == r, (g.edges(), k, c)
                    assert hash(c) == hash(checked), (g.edges(), k, c)
                    assert is_canonical(c), (g.edges(), k, c)


def test_budget_exhaustion_raises():
    g, _ = build_grid(2, 3)
    table = _table(g)
    with pytest.raises(BudgetExceededError):
        exists_rainbow_free_coloring(table, 3, budget=2)
    with pytest.raises(BudgetExceededError):
        enumerate_rainbow_free_colorings(table, 3, budget=2)
    with pytest.raises(BudgetExceededError):
        compute_aw(build_grid(3, 4)[0], 3, budget=20)
    # The budget caps each r's search separately: grid:4x4 needs 42 nodes
    # for r = 3 and 80 for r = 4, so 80 suffices although the two add up to
    # more, and 79 does not.
    grid44 = build_grid(4, 4)[0]
    assert compute_aw(grid44, 3, budget=80).aw == 4
    with pytest.raises(BudgetExceededError):
        compute_aw(grid44, 3, budget=79)


def test_node_ceilings():
    # A gate on search effort that does not depend on the machine: the r = 4
    # proofs take 170 and 510 nodes, while the plain engine in
    # plain_engine.py needs 18.9M nodes on grid:5x5.
    assert compute_aw(build_grid(5, 5)[0], 3, budget=1000).aw == 4
    assert compute_aw(build_grid(6, 6)[0], 3, budget=2000).aw == 4


# (graph, k, r, enumerate, nodes): the exact node count of one search.  A
# node is every vertex assignment entered, leaves and pruned nodes included;
# a color rejected because it empties a domain is not a node.  The plain
# engine in plain_engine.py needs 2056, 552, 258, 1117, 7 and 1043.
NODE_COUNTS = [
    (build_grid(3, 4)[0], 3, 4, False, 34),  # nonexistence proof
    (build_grid(3, 4)[0], 3, 3, False, 30),
    (build_path(9), 4, 7, False, 110),  # nonexistence proof
    (build_path(10), 4, 7, False, 389),
    (build_cycle(6), 2, 2, False, 2),
    (build_grid(2, 5)[0], 3, 3, True, 59),
]


def test_node_counts_are_pinned():
    for g, k, r, enum, nodes in NODE_COUNTS:
        table = _table(g, k)
        search = enumerate_rainbow_free_colorings if enum else exists_rainbow_free_coloring
        search(table, r, budget=nodes)
        with pytest.raises(BudgetExceededError):
            search(table, r, budget=nodes - 1)


def test_streamed_colors_match_the_enumeration_and_the_first_solution():
    for name, g in small_corpus():
        dist = all_pairs_distances(g)
        for k in (2, 3, 4, 5):
            table = enumerate_k_aps(dist, k)
            for r in range(1, g.n + 1):
                streamed = list(iter_rainbow_free_colorings(table, r))
                assert all(type(c) is tuple for c in streamed), (name, k, r)
                listed = enumerate_rainbow_free_colorings(table, r)
                assert streamed == [c.colors for c in listed], (name, k, r)
                first = exists_rainbow_free_coloring(table, r)
                assert streamed[:1] == ([] if first is None else [first.colors]), (name, k, r)


def test_streamed_first_solution_needs_only_its_own_nodes():
    # The enumeration enters more than 32,767 nodes; the first solution, 18.
    table = _table(build_grid(4, 4)[0])
    with pytest.raises(BudgetExceededError):
        enumerate_rainbow_free_colorings(table, 2, budget=100)
    first = next(iter_rainbow_free_colorings(table, 2, budget=100))
    assert first == exists_rainbow_free_coloring(table, 2).colors


def test_argument_validation():
    g, _ = build_grid(2, 3)
    table = _table(g)
    for bad_r in (0, -1, 7):
        with pytest.raises(ValueError):
            exists_rainbow_free_coloring(table, bad_r)
        with pytest.raises(ValueError):
            enumerate_rainbow_free_colorings(table, bad_r)
        # Checked on the call, before the iterator is read.
        with pytest.raises(ValueError):
            iter_rainbow_free_colorings(table, bad_r)
    with pytest.raises(ValueError):
        compute_aw(g, 1)


def test_polychromatic_path_frozen():
    star = build_star(4)
    path = find_polychromatic_path(star, Coloring((1, 2, 3, 3), 3))
    assert path == [1, 0, 2]
    p3 = build_path(3)
    assert find_polychromatic_path(p3, Coloring((1, 2, 3), 3)) == [0, 1, 2]


def test_polychromatic_path_walks_back_by_smallest_id():
    # Atlas graph #563: w = 6 is at distance 3 from v = 1 through 3 or 5; the
    # walk back from w steps to the smaller id, 3.
    edges = [(0, 1), (0, 2), (0, 4), (0, 5), (1, 2), (2, 3), (3, 6), (4, 5), (5, 6)]
    g = Graph.from_edges(7, edges)
    path = find_polychromatic_path(g, Coloring((3, 2, 3, 3, 2, 3, 1), 3))
    assert path == [0, 1, 2, 3, 6]


def test_polychromatic_path_on_random_colorings():
    rng = random.Random(43)
    for name, g in small_corpus():
        for r in (3, 4):
            if r > g.n:
                continue
            for _ in range(5):
                coloring = random_exact_coloring(g.n, r, rng)
                path = find_polychromatic_path(g, coloring)
                assert check_polychromatic_path(g, coloring, path) == [], (
                    name,
                    coloring.colors,
                    path,
                )


def test_polychromatic_path_validation():
    g = build_path(4)
    with pytest.raises(ValueError):
        find_polychromatic_path(g, Coloring((1, 2, 1, 2), 2))
    with pytest.raises(ValueError):
        find_polychromatic_path(g, Coloring((1, 2, 3), 3))
