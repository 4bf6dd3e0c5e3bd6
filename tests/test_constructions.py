"""Explicit grid colorings, the grid closed form, and the product bound."""

from collections import Counter
from itertools import combinations, combinations_with_replacement

import networkx
import pytest

from awgraph import (
    GRID_COLORINGS,
    VERDICT_WITNESS_VALID,
    Graph,
    GraphError,
    build_cycle,
    build_grid,
    build_path,
    cartesian_product,
    closed_form_aw_grid,
    compute_aw,
    construct_corner_coloring,
    construct_two_red_coloring,
    emit_certificate,
    exists_rainbow_free_coloring,
    find_rainbow_ap,
    grid_formula_table,
    verify_certificate,
    verify_product_bound,
)
from awgraph import search
import plain_engine
from prop_helpers import AW_GRID, connected_graphs, table


def test_corner_frozen_small():
    assert construct_corner_coloring(2, 3).colors == (1, 3, 3, 3, 3, 2)
    assert construct_corner_coloring(2, 3).r == 3
    assert construct_corner_coloring(3, 2).colors == (1, 3, 3, 3, 3, 2)
    assert construct_corner_coloring(1, 4).colors == (1, 3, 3, 2)


def test_corner_rejects_inadmissible_dims():
    for m, n in ((2, 2), (3, 3), (4, 4), (1, 2), (1, 1)):
        with pytest.raises(ValueError):
            construct_corner_coloring(m, n)


def test_two_red_frozen_layout():
    c = construct_two_red_coloring(4, 4)
    assert c.r == 3
    assert c.colors == (3, 1, 3, 3, 1, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 2)


def test_two_red_rejects_inadmissible_dims():
    for m, n in ((3, 5), (2, 4), (4, 5), (5, 4), (4, 3)):
        with pytest.raises(ValueError):
            construct_two_red_coloring(m, n)


def test_grid_colorings_by_name():
    assert list(GRID_COLORINGS) == ["corner", "two-red-corner"]
    assert GRID_COLORINGS["corner"](2, 3) == construct_corner_coloring(2, 3)
    assert GRID_COLORINGS["two-red-corner"](4, 6) == construct_two_red_coloring(4, 6)
    assert "diagonal" not in GRID_COLORINGS
    with pytest.raises(ValueError):
        GRID_COLORINGS["corner"](2, 2)
    with pytest.raises(ValueError):
        GRID_COLORINGS["two-red-corner"](3, 5)


def test_closed_form_frozen_and_shape():
    for (m, n), want in AW_GRID.items():
        assert closed_form_aw_grid(m, n) == want, (m, n)
    for m in range(2, 13):
        for n in range(2, 13):
            value = closed_form_aw_grid(m, n)
            assert value in (3, 4)
            assert value == closed_form_aw_grid(n, m)
            if m >= 4 and n >= 4:
                assert value == 4, (m, n)
            if (m + n) % 2 == 1:
                assert value == 4, (m, n)
    with pytest.raises(ValueError):
        closed_form_aw_grid(1, 5)


def test_closed_form_matches_search():
    # Every grid with m * n <= 36 (37 of them).  Larger 2 x n grids grow
    # exponentially in id order: 2 x 32 takes about half a minute.
    for m in range(2, 7):
        for n in range(m, 36 // m + 1):
            g, _ = build_grid(m, n)
            assert closed_form_aw_grid(m, n) == compute_aw(g, 3).aw, (m, n)


def test_grid_formula_table():
    rows = grid_formula_table(16)
    assert [(row.m, row.n) for row in rows] == [
        (2, 2), (2, 3), (2, 4), (2, 5), (2, 6), (2, 7), (2, 8),
        (3, 3), (3, 4), (3, 5), (4, 4),
    ]
    for row in rows:
        assert row.match, (row.m, row.n)
        assert row.formula == AW_GRID[(row.m, row.n)]
    with pytest.raises(ValueError):
        grid_formula_table(3)


def test_product_bound_small():
    report = verify_product_bound(build_path(2), build_path(2))
    assert report.aw == 3
    assert report.passed
    assert report.result.n == 4

    report = verify_product_bound(build_path(2), build_path(3))
    assert report.aw == 4
    assert report.passed
    assert report.witness is not None
    assert report.witness.r == 3
    assert find_rainbow_ap(table(build_grid(2, 3)[0]), report.witness.colors) is None

    with pytest.raises(ValueError):
        verify_product_bound(build_path(1), build_path(2))


def test_connected_graphs_catalog():
    counts = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21}
    for n, want in counts.items():
        graphs = connected_graphs(n)
        assert len(graphs) == want, n
        for g in graphs:
            assert g.n == n
    for a, b in combinations(connected_graphs(4), 2):
        assert not networkx.is_isomorphic(networkx.Graph(a.edges()), networkx.Graph(b.edges()))
    with pytest.raises(ValueError):
        connected_graphs(7)
    with pytest.raises(GraphError):
        connected_graphs(0)


def test_connected_graphs_on_six_vertices_match_the_atlas():
    # The 112 connected 6-vertex graphs of the networkx atlas, matched one to
    # one by isomorphism.  Both lists run by edge count; within one edge
    # count the atlas orders by degree sequence, the catalog by edge set.
    atlas = [
        ag
        for ag in networkx.graph_atlas_g()
        if ag.number_of_nodes() == 6 and networkx.is_connected(ag)
    ]
    six = connected_graphs(6)
    assert len(six) == len(atlas) == 112
    assert [g.m for g in six] == [ag.number_of_edges() for ag in atlas]
    assert [(g.m, g.edges()) for g in six] == sorted((g.m, g.edges()) for g in six)
    unmatched = list(atlas)
    for g in six:
        nx_g = networkx.Graph(g.edges())
        matches = [ag for ag in unmatched if networkx.is_isomorphic(nx_g, ag)]
        assert len(matches) == 1, g.edges()
        unmatched.remove(matches[0])


def test_product_bound_path2_through_seven_vertices():
    # Exhaustive check of aw(P_2 box H, 3) <= 4 over every connected H with
    # 2 <= |H| <= 7, one representative per isomorphism class.
    p2 = build_path(2)
    per_size = {n: 0 for n in range(2, 8)}
    for atlas_graph in networkx.graph_atlas_g():
        n = atlas_graph.number_of_nodes()
        if n < 2 or n > 7 or not networkx.is_connected(atlas_graph):
            continue
        h = Graph.from_edges(n, [tuple(sorted(e)) for e in atlas_graph.edges()])
        report = verify_product_bound(p2, h)
        assert report.passed, f"aw = {report.aw} on {sorted(atlas_graph.edges())}"
        per_size[n] += 1
    assert per_size == {2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853}


# Atlas indices (networkx.graph_atlas_g) of the connected 7-vertex graphs H
# with aw(P_3 box H, 3) = 4; every other one has aw = 3.
P3_AW4_ATLAS = (
    271, 272, 279, 280, 319, 341, 349, 350, 382, 392,
    411, 413, 435, 448, 483, 485, 507, 525, 556, 564,
    565, 572, 577, 579, 581, 606, 615, 631, 667, 674,
    684, 693, 695, 698, 706, 708, 713, 714, 715, 716,
    717, 718, 723, 727, 743, 762, 781, 786, 800, 806,
    812, 819, 823, 828, 835, 844, 845, 849, 853, 855,
    858, 860, 861, 864, 867, 874, 894, 902, 907, 909,
    918, 942, 943, 954, 957, 959, 962, 966, 968, 971,
    979, 985, 986, 988, 1017, 1019, 1024, 1054, 1055, 1058,
    1062, 1069, 1071, 1072, 1111, 1127, 1130, 1131, 1174, 1177,
)


def test_product_bound_path3_and_cycle3_on_seven_vertices(monkeypatch):
    p3, c3 = build_path(3), build_cycle(3)
    graphs = {
        i: Graph.from_edges(7, [tuple(sorted(e)) for e in ag.edges()])
        for i, ag in enumerate(networkx.graph_atlas_g())
        if ag.number_of_nodes() == 7 and networkx.is_connected(ag)
    }
    aws = {i: (verify_product_bound(p3, h), verify_product_bound(c3, h)) for i, h in graphs.items()}
    assert len(aws) == 853
    assert Counter(a.aw for a, _ in aws.values()) == {3: 753, 4: 100}
    assert Counter(b.aw for _, b in aws.values()) == {3: 853}
    assert tuple(i for i, (a, _) in aws.items() if a.aw == 4) == P3_AW4_ATLAS
    # Each aw = 4 witness passes the certificate checker, and every 20th is
    # found again, the same lex-least one, by the plain reference engine.
    # That engine needs 3 to 10 s per aw = 3 or r = 4 proof at 21 vertices,
    # so the nonexistence verdicts are not re-derived here.
    for i in P3_AW4_ATLAS:
        g = cartesian_product(p3, graphs[i])
        report = verify_certificate(emit_certificate(aws[i][0].result, g))
        assert report.verdict == VERDICT_WITNESS_VALID, (i, report.notes)
    monkeypatch.setattr(search, "_search", plain_engine._search)
    for i in P3_AW4_ATLAS[::20]:
        aps = table(cartesian_product(p3, graphs[i]))
        assert exists_rainbow_free_coloring(aps, 3) == aws[i][0].witness, i


# The unordered factor pairs with 2 <= |G| <= |H| <= 5 and aw(G box H, 3) = 4,
# as (|G|, index in connected_graphs(|G|), |H|, index); the other 414 have aw = 3.
PAIR_AW4 = (
    (2, 0, 3, 0), (2, 0, 4, 3), (2, 0, 4, 4), (2, 0, 5, 2), (2, 0, 5, 12),
    (2, 0, 5, 16), (2, 0, 5, 18), (2, 0, 5, 19), (3, 0, 4, 1), (3, 0, 5, 1),
    (3, 0, 5, 6), (3, 0, 5, 10), (4, 1, 4, 1), (4, 1, 4, 3), (4, 1, 4, 4),
    (4, 1, 5, 1), (4, 1, 5, 2), (4, 1, 5, 6), (4, 1, 5, 10), (4, 1, 5, 12),
    (4, 1, 5, 16), (4, 1, 5, 18), (4, 1, 5, 19), (4, 3, 5, 1), (4, 3, 5, 6),
    (4, 3, 5, 10), (4, 4, 5, 1), (4, 4, 5, 6), (4, 4, 5, 10), (5, 1, 5, 1),
    (5, 1, 5, 2), (5, 1, 5, 6), (5, 1, 5, 10), (5, 1, 5, 12), (5, 1, 5, 16),
    (5, 1, 5, 18), (5, 1, 5, 19), (5, 2, 5, 2), (5, 2, 5, 6), (5, 2, 5, 10),
    (5, 6, 5, 6), (5, 6, 5, 10), (5, 6, 5, 12), (5, 6, 5, 16), (5, 6, 5, 18),
    (5, 6, 5, 19), (5, 10, 5, 10), (5, 10, 5, 12), (5, 10, 5, 16), (5, 10, 5, 18),
    (5, 10, 5, 19),
)


def test_product_bound_on_factor_pairs_up_to_five_vertices(monkeypatch):
    graphs = [(n, i, g) for n in range(2, 6) for i, g in enumerate(connected_graphs(n))]
    assert len(graphs) == 30
    pairs = {
        (gn, i, hn, j): (cartesian_product(g, h), verify_product_bound(g, h))
        for (gn, i, g), (hn, j, h) in combinations_with_replacement(graphs, 2)
    }
    assert len(pairs) == 465
    assert Counter(report.aw for _, report in pairs.values()) == {3: 414, 4: 51}
    assert tuple(key for key, (_, report) in pairs.items() if report.aw == 4) == PAIR_AW4
    for key in PAIR_AW4:
        g, report = pairs[key]
        verdict = verify_certificate(emit_certificate(report.result, g))
        assert verdict.verdict == VERDICT_WITNESS_VALID, (key, verdict.notes)
    # The plain reference engine derives every product up to 12 vertices
    # again, nonexistence proofs included.
    monkeypatch.setattr(search, "_search", plain_engine._search)
    small = [(g, report) for g, report in pairs.values() if g.n <= 12]
    assert len(small) == 45
    for g, report in small:
        assert compute_aw(g, 3) == report.result, g.edges()
