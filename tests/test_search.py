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
from awgraph.search import iter_rainbow_free_changes
import prop_helpers
from prop_helpers import (
    brute_force_aw,
    canonicalize,
    expanded,
    find_polychromatic_path,
    grid_flip_horizontal,
    is_canonical,
    labeled_rainbow_free,
    small_corpus,
)


def test_exists_one_color_always():
    # A single color can never be rainbow for k >= 3.
    for name, g in small_corpus():
        c = exists_rainbow_free_coloring(prop_helpers.table(g), 1)
        assert c is not None, name
        assert c.colors == (1,) * g.n, name


def test_extremal_pair_swapped_by_flip():
    # The two canonical colorings of P_2 x P_n (n odd) are one coloring up
    # to the column-reversing automorphism: flipping either one and
    # renaming colors by first appearance yields the other.
    for n in (3, 5, 7):
        g, _ = build_grid(2, n)
        a, b = enumerate_rainbow_free_colorings(prop_helpers.table(g), 3)
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
        table = prop_helpers.table(g)
        first = enumerate_rainbow_free_colorings(table, res.aw - 1)[0]
        assert res.witness == first, (m, n)
        assert res.witness.colors in labeled_rainbow_free(g, 3, res.aw - 1), (m, n)
    # Below k the witness is written in closed form; it must be the one the
    # search returns.
    for name, g in small_corpus():
        for k in range(2, g.n + 4):
            res = compute_aw(g, k)
            if res.aw - 1 >= 2:
                want = exists_rainbow_free_coloring(prop_helpers.table(g, k), res.aw - 1)
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
            table = prop_helpers.table(g, k)
            for r in range(1, g.n + 1):
                if r**g.n > 7000:
                    continue
                canonical = enumerate_rainbow_free_colorings(table, r)
                labeled = labeled_rainbow_free(g, k, r)
                assert len(labeled) == len(canonical) * math.factorial(r), (name, k, r)
                filtered = [cs for cs in labeled if is_canonical(Coloring(cs, r))]
                assert filtered == [c.colors for c in canonical], (name, k, r)


def test_results_survive_a_vertex_relabeling():
    # A relabeled graph is the same graph, so aw, the per-r verdicts and the
    # number of canonical colorings (color partitions, which do not depend on
    # vertex order) must not move, though the search visits its vertices in
    # another order.  Witnesses and the colorings themselves may differ.
    rng = random.Random(13)
    for name, g in small_corpus():
        for _ in range(3):
            perm = rng.sample(range(g.n), g.n)
            h = Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()])
            for k in (2, 3, 4):
                before, after = compute_aw(g, k), compute_aw(h, k)
                assert (after.aw, after.per_r) == (before.aw, before.per_r), (name, perm, k)
                g_table, h_table = prop_helpers.table(g, k), prop_helpers.table(h, k)
                for r in range(1, g.n + 1):
                    count = len(enumerate_rainbow_free_colorings(g_table, r))
                    assert len(enumerate_rainbow_free_colorings(h_table, r)) == count, (
                        name, perm, k, r
                    )


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
            table = prop_helpers.table(g, k)
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
    table = prop_helpers.table(g)
    with pytest.raises(BudgetExceededError):
        exists_rainbow_free_coloring(table, 3, budget=2)
    with pytest.raises(BudgetExceededError):
        enumerate_rainbow_free_colorings(table, 3, budget=2)
    with pytest.raises(BudgetExceededError):
        compute_aw(build_grid(3, 4)[0], 3, budget=19)
    # The budget caps each r's search separately: grid:4x4 needs 28 nodes
    # for r = 3 and 39 for r = 4, so 39 suffices although the two add up to
    # more, and 38 does not.
    grid44 = build_grid(4, 4)[0]
    assert compute_aw(grid44, 3, budget=39).aw == 4
    with pytest.raises(BudgetExceededError):
        compute_aw(grid44, 3, budget=38)


def test_node_ceilings():
    # A gate on search effort that does not depend on the machine: the r = 4
    # proofs take 84 and 254 nodes, while the plain engine in
    # plain_engine.py needs 18.9M nodes on grid:5x5.
    assert compute_aw(build_grid(5, 5)[0], 3, budget=500).aw == 4
    assert compute_aw(build_grid(6, 6)[0], 3, budget=1000).aw == 4


# (graph, k, r, enumerate, nodes): the exact node count of one search.  A
# node is every vertex assignment entered, leaves included; a color rejected
# because it empties a domain or leaves too few unrestricted vertices for the
# missing colors is not a node.  The plain engine in plain_engine.py needs
# 2056, 552, 258, 1117, 7, 1043, 5930, 4769, 4096 and 2.
NODE_COUNTS = [
    (build_grid(3, 4)[0], 3, 4, False, 17),  # nonexistence proof
    (build_grid(3, 4)[0], 3, 3, False, 20),
    (build_path(9), 4, 7, False, 33),  # nonexistence proof
    (build_path(10), 4, 7, False, 112),
    (build_cycle(6), 2, 2, False, 1),
    (build_grid(2, 5)[0], 3, 3, True, 33),
    (build_star(9), 4, 4, True, 1636),
    (build_cycle(9), 4, 4, True, 468),
    # Every leaf counts but the all-ones one, which misses color 2.
    (build_path(12), 3, 2, True, 4095),
    (build_path(1), 2, 1, True, 2),  # the first vertex is also the last
    # The root is vertex n - 2, so the last vertex is walked at its choice.
    (build_path(2), 2, 1, True, 3),
    (build_path(2), 2, 2, False, 1),
    (build_path(2), 3, 2, True, 3),
    (build_path(3), 3, 2, True, 7),
    # aw(C_9, 3) = 4.  C_9 is not bipartite: its equilateral 3-sets, in which
    # every member is a middle, have odd d (the grids' have even d).
    (build_cycle(9), 3, 4, False, 14),  # nonexistence proof
    (build_cycle(9), 3, 3, True, 51),
    # Where the free-vertex rule rejects the most choices: a k = 4
    # enumeration at aw - 1 = 8, and k = 4 and k = 5 nonexistence proofs.
    (build_path(15), 4, 8, True, 8800),
    (build_grid(3, 6)[0], 4, 6, False, 17505),  # nonexistence proof
    (build_star(10), 5, 6, True, 909),  # nonexistence proof
]


def test_node_counts_are_pinned():
    for g, k, r, enum, nodes in NODE_COUNTS:
        table = prop_helpers.table(g, k)
        search = enumerate_rainbow_free_colorings if enum else exists_rainbow_free_coloring
        search(table, r, budget=nodes)
        with pytest.raises(BudgetExceededError):
            search(table, r, budget=nodes - 1)


def test_budget_exits_yield_a_prefix_of_the_stream():
    # star:7 at k = 4, r = 4 enters 179 nodes and yields 90 solutions in 40
    # batches, most of them with more than one leaf, so a budget can run out
    # inside a batch.
    table = prop_helpers.table(build_star(7), 4)
    full = list(expanded(iter_rainbow_free_changes(table, 4, budget=179)))
    assert len(full) == 90
    yielded = {}
    for budget in range(1, 179):
        got = []
        with pytest.raises(BudgetExceededError):
            for pair in expanded(iter_rainbow_free_changes(table, 4, budget=budget)):
                got.append(pair)
        assert got == full[: len(got)], budget
        yielded[budget] = len(got)
    assert [yielded[b] for b in (30, 50, 100, 178)] == [0, 9, 38, 89]


def test_batches_are_maximal_and_a_budget_cuts_them_after_the_lowest_leaves_that_fit():
    # Each choice at vertex n - 2 is one batch holding every leaf of it, so
    # two batches in a row never share their first n - 1 colors.
    for name, g in small_corpus():
        dist = all_pairs_distances(g)
        for k in (2, 3, 4, 5):
            table = enumerate_k_aps(dist, k)
            for r in range(1, g.n + 1):
                batches = iter_rainbow_free_changes(table, r)
                for i, (changed, cols, leaves) in enumerate(batches):
                    where = (name, k, r, i)
                    assert leaves and not leaves >> r, where
                    assert all(1 <= c <= r for c in cols), where
                    assert cols[-1] == (leaves & -leaves).bit_length(), where
                    assert i == 0 or changed <= g.n - 2, where
    # The leaves of a batch are consecutive nodes, so one node more adds the
    # next leaf to a cut batch, or starts a new batch with its lowest leaf,
    # or adds nothing; a cut batch holds the lowest leaves of the whole one.
    table = prop_helpers.table(build_star(7), 4)
    full = [
        (changed, tuple(cols[:-1]), leaves)
        for changed, cols, leaves in iter_rainbow_free_changes(table, 4, budget=179)
    ]
    before: list[tuple[int, tuple[int, ...], int]] = []
    for budget in range(1, 179):
        got = []
        with pytest.raises(BudgetExceededError):
            for changed, cols, leaves in iter_rainbow_free_changes(table, 4, budget=budget):
                got.append((changed, tuple(cols[:-1]), leaves))
        if got:
            *head, (changed, prefix, leaves) = got
            assert head == full[: len(head)], budget
            whole = full[len(head)]
            assert (changed, prefix) == whole[:2], budget
            assert whole[2] & ((1 << leaves.bit_length()) - 1) == leaves, budget
        if before and before[-1] != full[len(before) - 1]:
            assert got[:-1] == before[:-1], budget
            assert got[-1][2].bit_count() == before[-1][2].bit_count() + 1, budget
        else:
            assert got == before or (got[:-1] == before and got[-1][2].bit_count() == 1), budget
        before = got


def test_one_vertex_graph_is_first_and_last_vertex():
    for k in (2, 3):
        table = prop_helpers.table(build_path(1), k)
        pairs = list(expanded(iter_rainbow_free_changes(table, 1)))
        assert pairs == [(0, (1,))], k
        with pytest.raises(BudgetExceededError):
            list(iter_rainbow_free_changes(table, 1, budget=1))


def test_streamed_colors_match_the_enumeration_and_the_first_solution():
    for name, g in small_corpus():
        dist = all_pairs_distances(g)
        for k in (2, 3, 4, 5):
            table = enumerate_k_aps(dist, k)
            for r in range(1, g.n + 1):
                streamed = [cols for _, cols in expanded(iter_rainbow_free_changes(table, r))]
                listed = enumerate_rainbow_free_colorings(table, r)
                # Each Coloring holds its own tuple, not the search's live list.
                assert all(type(c.colors) is tuple for c in listed), (name, k, r)
                assert streamed == [c.colors for c in listed], (name, k, r)
                first = exists_rainbow_free_coloring(table, r)
                assert streamed[:1] == ([] if first is None else [first.colors]), (name, k, r)


def test_changed_is_the_first_vertex_that_differs_from_the_solution_before():
    for name, g in small_corpus():
        dist = all_pairs_distances(g)
        for k in (2, 3, 4, 5):
            table = enumerate_k_aps(dist, k)
            for r in range(1, g.n + 1):
                pairs = list(expanded(iter_rainbow_free_changes(table, r)))
                assert [changed for changed, _ in pairs[:1]] in ([], [0]), (name, k, r)
                for (_, before), (changed, after) in zip(pairs, pairs[1:]):
                    assert before[:changed] == after[:changed], (name, k, r, before, after)
                    assert before[changed] != after[changed], (name, k, r, before, after)


def test_streamed_first_solution_needs_only_its_own_nodes():
    # The enumeration enters more than 32,767 nodes; the first solution, 17.
    table = prop_helpers.table(build_grid(4, 4)[0])
    with pytest.raises(BudgetExceededError):
        enumerate_rainbow_free_colorings(table, 2, budget=100)
    _, first = next(expanded(iter_rainbow_free_changes(table, 2, budget=100)))
    assert tuple(first) == exists_rainbow_free_coloring(table, 2).colors


def test_argument_validation():
    g, _ = build_grid(2, 3)
    table = prop_helpers.table(g)
    # A bool or a float r is refused like an r out of range.
    for bad_r in (0, -1, 7, 2.0, True):
        with pytest.raises(ValueError):
            exists_rainbow_free_coloring(table, bad_r)
        with pytest.raises(ValueError):
            enumerate_rainbow_free_colorings(table, bad_r)
        # Checked on the call, before the iterator is read.
        with pytest.raises(ValueError):
            iter_rainbow_free_changes(table, bad_r)
    # So is a k that is not an int, whether or not the graph has k vertices.
    for bad_k in (1, 2.5, 3.0, True):
        for graph in (g, build_path(2)):
            with pytest.raises(ValueError):
                compute_aw(graph, bad_k)
    with pytest.raises(ValueError, match=r"^k-APs need k >= 2, got k=1$"):
        compute_aw(g, 1)
    # So is a budget that is not an int, None, a bool or a float alike.
    for bad_budget in (None, True, 2.5):
        message = rf"^budget must be an int, got budget={bad_budget!r}$"
        for call in (
            exists_rainbow_free_coloring,
            enumerate_rainbow_free_colorings,
            iter_rainbow_free_changes,
        ):
            with pytest.raises(ValueError, match=message):
                call(table, 3, budget=bad_budget)
        with pytest.raises(ValueError, match=message):
            compute_aw(g, 3, budget=bad_budget)
    # Also when k > n and nothing is searched.
    for bad_budget in (None, "x"):
        message = rf"^budget must be an int, got budget={bad_budget!r}$"
        with pytest.raises(ValueError, match=message):
            compute_aw(build_path(2), 3, budget=bad_budget)


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


def test_polychromatic_path_validation():
    g = build_path(4)
    with pytest.raises(ValueError):
        find_polychromatic_path(g, Coloring((1, 2, 1, 2), 2))
    with pytest.raises(ValueError):
        find_polychromatic_path(g, Coloring((1, 2, 3), 3))
