"""AP enumeration against the brute-force oracle, plus frozen small cases."""

import inspect
import random
import sys
from collections import Counter
from itertools import combinations, permutations

import networkx
import pytest

import awgraph.certify
import awgraph.cli
from awgraph import (
    VERDICT_WITNESS_INVALID,
    VERDICT_WITNESS_VALID,
    AwResult,
    BudgetExceededError,
    Coloring,
    Graph,
    all_pairs_distances,
    brute_force_k_aps,
    build_complete,
    build_cycle,
    build_grid,
    build_path,
    build_star,
    cartesian_product,
    check_coloring,
    compute_aw,
    construct_two_red_coloring,
    distance_rings,
    emit_certificate,
    enumerate_k_aps,
    enumerate_rainbow_free_colorings,
    exists_rainbow_free_coloring,
    find_rainbow_ap,
    scan_3aps,
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
    # A k that is not an int is refused, a bool or an integral float included.
    path5 = build_path(5)
    dist5 = all_pairs_distances(path5)
    for bad_k in (2.5, 3.0, True):
        with pytest.raises(ValueError, match="k must be an int"):
            enumerate_k_aps(dist5, bad_k)
        with pytest.raises(ValueError, match="k must be an int"):
            brute_force_k_aps(dist5, bad_k)
        with pytest.raises(ValueError, match="k must be an int"):
            check_coloring(path5, bad_k, (1, 2, 3, 1, 2))


def test_check_coloring_refuses_a_coloring_of_the_wrong_length():
    # The length is checked first, before k, and at every k.
    path4 = build_path(4)
    for k, colors in ((3, (1, 2)), (3, (1, 2, 3, 1, 2)), (4, (1, 2, 3, 1, 2)), (1, (1, 2))):
        message = rf"^coloring has {len(colors)} vertices but the graph has 4$"
        with pytest.raises(ValueError, match=message):
            check_coloring(path4, k, colors)


def test_brute_force_guard():
    dist = all_pairs_distances(build_path(30))
    with pytest.raises(BudgetExceededError):
        brute_force_k_aps(dist, 6)  # 30!/24! ordered tuples > 10^8


def test_path_and_cycle_tables_are_arithmetic_progressions():
    # An oracle that reads no graph distance: the k-APs of P_n are the
    # progressions a, a + t, ..., a + (k - 1)t inside 0..n-1, and those of
    # C_n are the same progressions mod n that have k distinct members.
    for n in range(3, 31):
        path = all_pairs_distances(build_path(n))
        cycle = all_pairs_distances(build_cycle(n))
        for k in (3, 4, 5):
            on_path = {
                tuple(range(a, a + k * t, t))
                for t in range(1, n)
                for a in range(n - (k - 1) * t)
            }
            mod_n = {
                tuple(sorted({(a + i * t) % n for i in range(k)}))
                for a in range(n)
                for t in range(1, n)
            }
            on_cycle = {vs for vs in mod_n if len(vs) == k}
            assert _sets(enumerate_k_aps(path, k)) == sorted(on_path), f"P_{n} k={k}"
            assert _sets(enumerate_k_aps(cycle, k)) == sorted(on_cycle), f"C_{n} k={k}"


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


def test_witness_orderings_follow_the_stated_rule():
    # `awgraph verify` prints the ordering and d of a rainbow AP, so the rule
    # is pinned: for k = 3 the smallest member equidistant from the other two
    # sits between the ascending ends; for larger k the ordering is the first
    # permutation of the vertex set with a constant step.
    for name, g in small_corpus():
        dist = all_pairs_distances(g)
        for k in range(3, 8):
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
    # all-distinct colors: the first AP in table order is rainbow.  Only
    # that AP is named, so table.aps stays unbuilt until read here.
    rainbow = tuple(range(1, 7))
    hit = find_rainbow_ap(table, rainbow)
    assert "aps" not in vars(table)
    assert hit == table.aps[0]
    assert len({rainbow[v] for v in hit.vertices}) == 3
    assert find_rainbow_ap(table, (1, 1, 1, 1, 1, 1)) is None
    g, _ = build_grid(3, 4)
    for k in (4, 5):
        table = enumerate_k_aps(all_pairs_distances(g), k)
        hit = find_rainbow_ap(table, tuple(range(g.n)))
        assert "aps" not in vars(table)
        assert hit == table.aps[0], f"k={k}"


def _capture_tables(monkeypatch):
    """The tables verify_certificate and the CLI build from now on, in build order."""
    built = []

    def capture(dist, k):
        built.append(enumerate_k_aps(dist, k))
        return built[-1]

    monkeypatch.setattr(awgraph.certify, "enumerate_k_aps", capture)
    monkeypatch.setattr(awgraph.cli, "enumerate_k_aps", capture)
    return built


class _CountedReads(list):
    """A list that counts the items read from it by index."""

    reads = 0

    def __getitem__(self, i):
        self.reads += 1
        return super().__getitem__(i)


def test_search_and_clean_checks_do_not_build_progressions(monkeypatch, capsys, tmp_path):
    # Only a reported AP needs an ordering: the search and a check that
    # finds no rainbow AP read the grouped lists a table is built as, and
    # table.aps is not built.  A k = 3 coloring is checked from distance
    # rings, with no table, whether or not it has a rainbow AP.
    g, _ = build_grid(2, 3)
    table = enumerate_k_aps(all_pairs_distances(g), 3)
    grouped = _CountedReads(table.ahead)
    vars(table)["ahead"] = grouped
    assert exists_rainbow_free_coloring(table, 3) is not None
    after_r3 = grouped.reads
    assert exists_rainbow_free_coloring(table, 4) is None
    assert 0 < after_r3 < grouped.reads
    assert vars(table)["ahead"] is grouped
    assert "aps" not in vars(table)
    assert enumerate_rainbow_free_colorings(table, 3)
    assert find_rainbow_ap(table, (1, 1, 2, 3, 1, 1)) is None
    assert "aps" not in vars(table)

    built = _capture_tables(monkeypatch)
    report = verify_certificate(emit_certificate(compute_aw(g, 3), g))
    assert report.verdict == VERDICT_WITNESS_VALID, report.notes
    assert built == []

    bad = Coloring((1, 1, 2, 3, 2, 1), 3)
    report = verify_certificate(
        emit_certificate(AwResult(4, 3, g.n, ((3, True), (4, False)), bad), g)
    )
    assert report.verdict == VERDICT_WITNESS_INVALID, report.notes
    assert report.notes[-1] == (
        "witness has a rainbow 3-AP: vertices [0, 3, 4] (ordering [0, 3, 4], d=1)"
    )
    path = tmp_path / "bad.coloring"
    path.write_text("6 3\n1 1 2 3 2 1\n", encoding="utf-8")
    assert awgraph.cli.main(
        ["verify", "--graph", "grid:2x3", "--k", "3", "--coloring", str(path)]
    ) == 0
    assert capsys.readouterr().out.endswith(
        "result: rainbow-ap vertices=0,3,4 ordering=0,3,4 d=1"
        " coords=(1,1),(2,1),(2,2)\n"
    )
    assert built == []

    report = verify_certificate(emit_certificate(compute_aw(g, 4), g))
    assert report.verdict == VERDICT_WITNESS_VALID, report.notes
    assert len(built) == 1 and built[0].k == 4 and any(built[0].ahead)
    assert "aps" not in vars(built[0])


def test_large_grid_certificate_counts_every_progression(monkeypatch):
    # Grid 16x16 has 419,192 3-APs; the note counts them without a table.
    g, _ = build_grid(16, 16)
    witness = construct_two_red_coloring(16, 16)
    text = emit_certificate(AwResult(4, 3, g.n, ((3, True), (4, False)), witness), g)
    built = _capture_tables(monkeypatch)
    report = verify_certificate(text)
    assert built == []
    count = sum(map(len, enumerate_k_aps(all_pairs_distances(g), 3).ahead))
    assert count == 419_192
    assert report.verdict == VERDICT_WITNESS_VALID, report.notes
    assert report.notes[-1] == (
        f"witness checked: exact 3-coloring, rainbow-free against all {count} 3-APs"
    )


def test_check_coloring_matches_the_oracle_at_every_k_but_3():
    # check_coloring at k = 2, 4 and 5 against brute_force_k_aps: the count,
    # and the first rainbow AP of the oracle's aps, ordering and d included.
    # The ordering is also checked on its own, as the least permutation of
    # the set with a constant step.  Each graph gets seeded colorings: with
    # k - 1 colors, which no AP can be rainbow under, uniform ones with k
    # and k + 1 colors, ones that give all but a few vertices color 1, and,
    # where the search finds one, a rainbow-free k-coloring with its colors
    # permuted and a near miss that recolors one of its vertices.  The
    # table's lists are in no fixed order, so the colorings whose least
    # rainbow set heads none of them show that the least set is found,
    # not the first one read.
    rng = random.Random(27)
    graphs = small_corpus() + [
        (f"grid:{m}x{n}", build_grid(m, n)[0]) for m, n in ((3, 3), (2, 6), (3, 4))
    ]
    outcomes = Counter()
    for name, g in graphs:
        dist = all_pairs_distances(g)
        for k in (2, 4, 5):
            if k > g.n:
                continue
            oracle = brute_force_k_aps(dist, k)
            table = enumerate_k_aps(dist, k)
            heads = {entries[0] for entries in table.ahead if entries}
            colorings = [[rng.randint(1, k - 1) for _ in range(g.n)]]
            for r in (k, k + 1):
                colorings.append([rng.randint(1, r) for _ in range(g.n)])
                sparse = [1] * g.n
                for c in range(2, r + 1):
                    sparse[rng.randrange(g.n)] = c
                colorings.append(sparse)
            found = exists_rainbow_free_coloring(table, k)
            if found is not None:
                relabel = rng.sample(range(1, k + 1), k)
                free = [relabel[c - 1] for c in found.colors]
                near = list(free)
                near[rng.randrange(g.n)] = rng.randint(1, k)
                colorings += [free, near]
            for colors in colorings:
                hit = next(
                    (ap for ap in oracle.aps if len({colors[v] for v in ap.vertices}) == k),
                    None,
                )
                assert check_coloring(g, k, colors) == (len(oracle.aps), hit), (
                    f"{name} k={k} {colors}"
                )
                if hit is not None:
                    steps = [
                        p
                        for p in permutations(hit.vertices)
                        if all(dist[x][y] == hit.d for x, y in zip(p, p[1:]))
                    ]
                    assert hit.witness == min(steps), f"{name} k={k} {colors}"
                outcomes[hit is not None, hit is not None and hit.vertices not in heads] += 1
    # Both verdicts occur, and many hits head none of the table's lists.
    assert outcomes[False, False] > 100 and outcomes[True, False] > 50, outcomes
    assert outcomes[True, True] > 50, outcomes


def _ring_check_graphs():
    """Every connected atlas graph on 3-7 vertices, every grid up to 8x8, K_3..K_9,
    and graphs on either side of the parity rule: C_9, C_15, grid 4x4 plus the
    chord 5-10, the Petersen graph and the hypercube Q_4."""
    grid = build_grid(4, 4)[0]
    square = build_cycle(4)
    petersen = networkx.petersen_graph()
    graphs = [
        ("cycle:9", build_cycle(9)),
        ("cycle:15", build_cycle(15)),
        # Not bipartite only because of the chord, which closes the
        # equilateral triangle {5, 6, 10} at d = 1.
        ("grid:4x4+5-10", Graph.from_edges(16, grid.edges() + ((5, 10),))),
        ("petersen", Graph.from_edges(10, petersen.edges())),
        ("hypercube:4", cartesian_product(square, square)),
    ]
    for i, ag in enumerate(networkx.graph_atlas_g()):
        if 3 <= ag.number_of_nodes() <= 7 and networkx.is_connected(ag):
            edges = sorted(tuple(sorted(e)) for e in ag.edges())
            graphs.append((f"atlas:{i}", Graph.from_edges(ag.number_of_nodes(), edges)))
    graphs += [
        (f"grid:{m}x{n}", build_grid(m, n)[0])
        for m in range(1, 9)
        for n in range(m, 9)
        if m * n >= 3
    ]
    return graphs + [(f"complete:{n}", build_complete(n)) for n in range(3, 10)]


def test_ring_count_and_verdict_match_the_oracle():
    # scan_3aps against brute_force_k_aps: the count, and the rainbow AP
    # that find_rainbow_ap names first in the oracle's table, ordering and
    # d included.  Every triple of K_n has three equal distances, so the
    # count's correction for sets with three middles, and the middle-first
    # ordering of such a set, are exercised there.  Each graph gets seeded
    # colorings with 1-4 colors: uniform ones, mostly rainbow with 3 or more
    # colors, and ones that give all but a few vertices color 1.  Where the
    # search finds a rainbow-free 3-coloring, it is checked too, with its
    # colors permuted, and so is the near miss that recolors one of its
    # vertices.
    rng = random.Random(14)
    outcomes = Counter()
    equilateral_parity = {}  # name: the parities of d over its equilateral sets
    for name, g in _ring_check_graphs():
        dist = all_pairs_distances(g)
        rings = distance_rings(g)
        oracle = brute_force_k_aps(dist, 3)
        equilateral_parity[name] = {
            dist[a][b] % 2 for a, b, c in _sets(oracle) if dist[a][b] == dist[b][c] == dist[a][c]
        }
        colorings = []
        for r in range(1, 5):
            colorings.append([rng.randint(1, r) for _ in range(g.n)])
            sparse = [1] * g.n
            for c in range(2, r + 1):
                sparse[rng.randrange(g.n)] = c
            colorings.append(sparse)
        found = exists_rainbow_free_coloring(enumerate_k_aps(dist, 3), 3)
        if found is not None:
            relabel = rng.sample(range(1, 4), 3)
            free = [relabel[c - 1] for c in found.colors]
            near = list(free)
            near[rng.randrange(g.n)] = rng.randint(1, 3)
            colorings += [free, near]
        for colors in colorings:
            expected = (len(oracle.aps), find_rainbow_ap(oracle, colors))
            assert scan_3aps(rings, colors) == expected, f"{name} {colors}"
            outcomes[len(set(colors)) >= 3, expected[1] is not None] += 1
    # Both verdicts occur with three or more colors, so neither is vacuous.
    assert outcomes[True, True] > 100 and outcomes[True, False] > 100, outcomes
    # Equilateral sets, whose three distances are equal, occur at odd d in
    # graphs that are not bipartite and at even d in a bipartite one, so
    # the checks above cover both sides of the parity rule.
    for name in ("cycle:9", "cycle:15", "grid:4x4+5-10"):
        assert 1 in equilateral_parity[name], name
    assert equilateral_parity["hypercube:4"] == {0}
