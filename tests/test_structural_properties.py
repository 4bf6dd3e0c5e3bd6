"""Structural properties of rainbow-free colorings, checked exhaustively.

Each test enumerates every rainbow-free coloring in a stated range with the
search engine and re-checks a structural claim about it with the independent
first-principles helpers, so a bug in either side shows up as a mismatch.
"""

from awgraph import (
    Coloring,
    all_pairs_distances,
    build_grid,
    build_path,
    cartesian_product,
    compute_aw,
    enumerate_k_aps,
    enumerate_rainbow_free_colorings,
)
from prop_helpers import (
    check_adjacent_layer_union,
    check_block_confinement,
    check_layer_color_spread,
    check_monochromatic_lines,
    corpus_products,
    induced_subgraph,
    isometric_subsets,
    small_corpus,
)


def _table(g, k=3):
    return enumerate_k_aps(all_pairs_distances(g), k)


def test_isometric_subgraphs_inherit_aps():
    # Distances inside an isometric subgraph equal ambient distances, so
    # its k-APs are exactly the ambient k-APs that stay inside the subset.
    for name, g in small_corpus():
        dist = all_pairs_distances(g)
        for k in (3, 4):
            ambient = {ap.vertices for ap in enumerate_k_aps(dist, k).aps}
            for subset in isometric_subsets(g, dist):
                if len(subset) < k:
                    continue
                sub = induced_subgraph(g, subset)
                lifted = {
                    tuple(subset[i] for i in ap.vertices)
                    for ap in enumerate_k_aps(all_pairs_distances(sub), k).aps
                }
                inside = {vs for vs in ambient if set(vs) <= set(subset)}
                assert lifted == inside, (name, k, subset)


def test_isometric_subsets_bound_color_count():
    # Restricting a rainbow-free coloring to an isometric subgraph stays
    # rainbow-free there, so the subset carries fewer than aw(subgraph, 3)
    # colors.
    aw_cache: dict[tuple, int] = {}
    instances = [(f"grid:{m}x{n}", build_grid(m, n)[0]) for m, n in ((2, 3), (2, 5))]
    instances += [(name, g) for name, g in small_corpus() if 3 <= g.n <= 6]
    nonvacuous = 0
    for name, g in instances:
        dist = all_pairs_distances(g)
        colorings = enumerate_rainbow_free_colorings(_table(g), 3)
        if colorings:
            nonvacuous += 1
        subsets = isometric_subsets(g, dist)
        for coloring in colorings:
            for subset in subsets:
                sub = induced_subgraph(g, subset)
                key = (sub.n, sub.adjacency)
                if key not in aw_cache:
                    aw_cache[key] = compute_aw(sub, 3).aw
                used = {coloring.colors[v] for v in subset}
                assert len(used) <= aw_cache[key] - 1, (name, subset)
    assert nonvacuous > 0


def test_grid_block_confinement():
    checked = 0
    for m in range(2, 7):
        for n in range(2, 7):
            if m * n > 12:
                continue
            g, _ = build_grid(m, n)
            table = _table(g)
            for r in range(3, g.n + 1):
                for coloring in enumerate_rainbow_free_colorings(table, r):
                    assert check_block_confinement(coloring.colors, m, n) == []
                    checked += 1
    assert checked > 0


def test_grid_monochromatic_lines():
    checked = 0
    for m in range(2, 7):
        for n in range(2, 7):
            if m * n > 12:
                continue
            g, _ = build_grid(m, n)
            table = _table(g)
            for r in range(3, g.n + 1):
                for coloring in enumerate_rainbow_free_colorings(table, r):
                    assert check_monochromatic_lines(coloring.colors, m, n) == []
                    checked += 1
    assert checked > 0


def test_block_confinement_catches_violations():
    # (2,1) and (1,2) are anti-diagonal with colors 3 and 2, yet (2,2)
    # carries color 1: the helper must flag it.
    assert check_block_confinement((1, 2, 3, 1), 2, 2) != []


def test_monochromatic_lines_catches_violations():
    # Row 1 of the 2x3 grid is monochromatic but the other row brings in
    # two further colors.
    assert check_monochromatic_lines((1, 1, 1, 2, 3, 2), 2, 3) != []


def test_product_layer_color_spread():
    checked = 0
    for name, g, h in corpus_products():
        p = cartesian_product(g, h)
        table = _table(p)
        for r in (3, 4):
            for coloring in enumerate_rainbow_free_colorings(table, r):
                assert check_layer_color_spread(coloring, g, h) == [], name
                checked += 1
    assert checked > 0


def test_product_adjacent_layer_union():
    premise_held = 0
    for name, g, h in corpus_products():
        p = cartesian_product(g, h)
        table = _table(p)
        for r in (3, 4):
            for coloring in enumerate_rainbow_free_colorings(table, r):
                assert check_adjacent_layer_union(coloring, g, h) == [], name
                layers = [
                    {coloring.colors[v] for v in range(j, p.n, h.n)} for j in range(h.n)
                ]
                if all(len(c) <= 2 for c in layers):
                    premise_held += 1
    assert premise_held > 0


def test_layer_spread_catches_violations():
    g, h = build_path(2), build_path(3)
    coloring = Coloring((1, 1, 2, 3, 1, 2), 3)
    assert check_layer_color_spread(coloring, g, h) != []
