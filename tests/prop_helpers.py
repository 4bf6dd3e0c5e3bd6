"""Shared corpora, property checks, suites and helpers used by the unit and acceptance tests.

The checks here are deliberately written against first principles (distance
matrices and explicit loops), not against the search engine they validate.
Each exhaustive suite enumerates with the search and re-checks with these
first-principles helpers, so every property test compares two independent
routes; the acceptance gate is the only test that runs the suites and
asserts that they return no violations.  The helpers in the first section
are used only by the tests and are not part of the awgraph API.
"""

from __future__ import annotations

import functools
import random
from collections import Counter
from itertools import combinations, permutations, product as iproduct

from awgraph import (
    GRID_COLORINGS,
    ApTable,
    Coloring,
    Graph,
    GridCoordinates,
    all_pairs_distances,
    brute_force_k_aps,
    build_complete,
    build_cycle,
    build_grid,
    build_path,
    build_star,
    cartesian_product,
    compute_aw,
    enumerate_k_aps,
    enumerate_rainbow_free_colorings,
    find_rainbow_ap,
)
from awgraph.graphs import DisconnectedGraphError, GraphError, distances_from


# ======================================================================
# Helpers: grid lines, subgraphs, a graph catalog, polychromatic paths,
# canonical forms
# ======================================================================


def row_vertices(coords: GridCoordinates, i: int) -> tuple[int, ...]:
    """The vertices of grid row i, left to right."""
    return tuple(coords.vertex(i, j) for j in range(1, coords.n + 1))


def column_vertices(coords: GridCoordinates, j: int) -> tuple[int, ...]:
    """The vertices of grid column j, top to bottom."""
    return tuple(coords.vertex(i, j) for i in range(1, coords.m + 1))


def induced_subgraph(g: Graph, vertices) -> Graph:
    """Induced subgraph relabeled to 0..len(vertices)-1 in sorted id order.

    Raises DisconnectedGraphError when the induced graph is not connected.
    """
    vs = sorted(set(vertices))
    if not vs:
        raise GraphError("empty vertex subset")
    if vs[0] < 0 or vs[-1] >= g.n:
        raise GraphError(f"subset {vs} not within 0..{g.n - 1}")
    index = {v: i for i, v in enumerate(vs)}
    edges = [
        (index[u], index[v])
        for u in vs
        for v in g.adjacency[u]
        if u < v and v in index
    ]
    return Graph.from_edges(len(vs), edges)


def is_isometric_subgraph(
    g: Graph, vertices, dist: tuple[tuple[int, ...], ...] | None = None
) -> bool:
    """True iff the induced subgraph is connected and preserves all distances.

    Internal shortest paths of the induced subgraph must equal the distances
    measured in g (the rows of dist, computed when omitted) for every vertex
    pair of the subset.
    """
    vs = sorted(set(vertices))
    try:
        local = all_pairs_distances(induced_subgraph(g, vs))
    except DisconnectedGraphError:
        return False
    if dist is None:
        dist = all_pairs_distances(g)
    return all(local[i] == tuple(dist[s][t] for t in vs) for i, s in enumerate(vs))


def connected_graphs(n: int) -> list[Graph]:
    """All connected graphs on exactly n vertices, one per isomorphism class.

    Brute-force canonical form: an edge set is kept when no vertex
    permutation gives a smaller one.  That takes about 2 s at n = 6, and the
    2^21 edge sets times 7! permutations of n = 7 put it out of reach, so
    n is capped at 6.  Deterministic order: by edge count, then by edge set.
    """
    if n < 1:
        raise GraphError(f"need n >= 1, got {n}")
    if n > 6:
        raise ValueError(f"canonical-form dedup is only supported up to n = 6, got {n}")
    slots = list(combinations(range(n), 2))
    perms = list(permutations(range(n)))
    out = []
    for mask in range(1 << len(slots)):
        edges = tuple(slots[i] for i in range(len(slots)) if mask >> i & 1)
        # Too few edges to connect, or some relabeling gives a smaller edge set.
        if len(edges) < n - 1 or any(
            tuple(sorted((min(p[u], p[v]), max(p[u], p[v])) for u, v in edges)) < edges
            for p in perms
        ):
            continue
        try:
            out.append(Graph.from_edges(n, edges))
        except GraphError:
            continue  # disconnected class
    out.sort(key=lambda g: (g.m, g.edges()))
    return out


def find_polychromatic_path(g: Graph, coloring: Coloring) -> list[int]:
    """A simple path carrying at least three colors, built deterministically.

    Take the first edge uv with different colors, the vertex w nearest to v
    carrying a third color (ties by id), and the shortest path from v to w
    found by walking back from w, each step to the smallest-id neighbor one
    step closer to v; prepend u when it is not already on that path.  The
    result starts at a vertex colored c(u) or lies on a geodesic, touches
    colors c(u), c(v) and c(w), and is a simple path because u is adjacent
    to the path's start.
    """
    if coloring.n != g.n:
        raise ValueError(f"coloring has {coloring.n} vertices, graph has {g.n}")
    if coloring.r < 3:
        raise ValueError(f"need at least 3 colors, got r={coloring.r}")
    cs = coloring.colors
    # A connected graph colored exactly with r >= 3 has a bichromatic edge; the first has u < v.
    u, v = next((u, v) for u in range(g.n) for v in g.adjacency[u] if cs[u] != cs[v])
    dist = distances_from(g, v)
    banned = {cs[u], cs[v]}
    w = min(
        (x for x in range(g.n) if cs[x] not in banned),
        key=lambda x: (dist[x], x),
    )
    path = [w]
    while path[-1] != v:
        x = path[-1]
        path.append(next(y for y in g.adjacency[x] if dist[y] == dist[x] - 1))
    path.reverse()
    if u not in path:
        path.insert(0, u)
    return path


def is_canonical(coloring: Coloring) -> bool:
    """True iff the coloring is in restricted-growth form."""
    top = 0
    for c in coloring.colors:
        if c > top + 1:
            return False
        if c > top:
            top = c
    return True


def canonicalize(colors) -> Coloring:
    """Relabel colors by first appearance, yielding the canonical class member."""
    relabel: dict[int, int] = {}
    out = []
    for c in colors:
        if c not in relabel:
            relabel[c] = len(relabel) + 1
        out.append(relabel[c])
    return Coloring(tuple(out), len(relabel))


def expanded(batches):
    """Each coloring of a stream of (changed, cols, leaves) batches as a (changed, colors) pair.

    A batch stands for one coloring per leaf, a color whose bit is set in
    leaves, on the colors cols[:-1]; leaves are taken in ascending order.
    The first keeps the batch's changed, and each later one differs from the
    one before only at the last vertex, so its changed is n - 1.  A
    generator, so a stream that raises partway still yields what came first.
    """
    for changed, cols, leaves in batches:
        prefix = tuple(cols[:-1])
        while leaves:
            leaf = leaves & -leaves
            leaves ^= leaf
            yield changed, prefix + (leaf.bit_length(),)
            changed = len(prefix)


# ======================================================================
# Corpora
# ======================================================================


def random_connected_graph(n: int, seed: int, p: float = 0.4) -> Graph:
    """Seeded Erdos-Renyi graph, resampled until connected."""
    rng = random.Random(seed)
    while True:
        edges = [(u, v) for u, v in combinations(range(n), 2) if rng.random() < p]
        try:
            return Graph.from_edges(n, edges)
        except DisconnectedGraphError:
            continue


def small_corpus() -> list[tuple[str, Graph]]:
    """Named connected graphs with n <= 8: the shared small-instance corpus."""
    graphs: list[tuple[str, Graph]] = []
    for n in range(2, 9):
        graphs.append((f"path:{n}", build_path(n)))
    for n in range(3, 9):
        graphs.append((f"cycle:{n}", build_cycle(n)))
    for n in range(4, 9):
        graphs.append((f"star:{n}", build_star(n)))
    for n in range(2, 6):
        graphs.append((f"complete:{n}", build_complete(n)))
    for m, n in ((2, 2), (2, 3), (2, 4)):
        graphs.append((f"grid:{m}x{n}", build_grid(m, n)[0]))
    for i, g in enumerate(connected_graphs(4)):
        graphs.append((f"conn4-{i}", g))
    graphs.append(("random:7", random_connected_graph(7, seed=701)))
    graphs.append(("random:8", random_connected_graph(8, seed=802)))
    return graphs


def corpus_products() -> list[tuple[str, Graph, Graph]]:
    """Small named factor pairs for layer-structure properties."""
    return [
        ("path:2 x path:3", build_path(2), build_path(3)),
        ("path:2 x path:4", build_path(2), build_path(4)),
        ("path:2 x path:5", build_path(2), build_path(5)),
        ("path:3 x path:3", build_path(3), build_path(3)),
        ("path:2 x cycle:3", build_path(2), build_cycle(3)),
        ("path:2 x cycle:4", build_path(2), build_cycle(4)),
        ("path:3 x cycle:3", build_path(3), build_cycle(3)),
    ]


# ======================================================================
# Labeled brute-force oracles
# ======================================================================


def labeled_rainbow_free(g: Graph, k: int, r: int) -> list[tuple[int, ...]]:
    """Every labeled exact r-coloring without a rainbow k-AP, by brute force."""
    table = brute_force_k_aps(all_pairs_distances(g), k)
    ap_sets = [ap.vertices for ap in table.aps]
    out = []
    for colors in iproduct(range(1, r + 1), repeat=g.n):
        if len(set(colors)) != r:
            continue
        if any(len({colors[v] for v in vs}) == k for vs in ap_sets):
            continue
        out.append(colors)
    return out


def brute_force_aw(g: Graph, k: int) -> int:
    """aw(g, k) straight from the definition over labeled colorings."""
    if k >= g.n + 1:
        return g.n + 1
    for r in range(k, g.n + 1):
        if not labeled_rainbow_free(g, k, r):
            return r
    return g.n + 1


# ======================================================================
# Structural property checks (each returns a list of violation strings)
# ======================================================================


def check_block_confinement(colors, m: int, n: int) -> list[str]:
    """Anti-diagonal pairs with distinct colors confine their two quadrants.

    For c(i, j) != c(i-1, j+1), every vertex weakly below-right of (i, j+1)
    or weakly above-left of (i-1, j) lies on a 3-AP through the pair (it is
    equidistant from both), so a rainbow-free coloring restricts those two
    quadrants to the pair's colors.  The mirrored diagonal is checked by the
    same rule on the column-reversed coloring.
    """
    _, coords = build_grid(m, n)
    bad = []
    for side, cs in (("", colors), ("mirrored ", grid_flip_horizontal(colors, m, n))):
        cell = {(i, j): cs[coords.vertex(i, j)] for i in range(1, m + 1) for j in range(1, n + 1)}
        for i in range(2, m + 1):
            for j in range(1, n):
                pair = {cell[i, j], cell[i - 1, j + 1]}
                if len(pair) == 1:
                    continue
                for (a, b), c in cell.items():
                    lower = a >= i and b >= j + 1
                    upper = a <= i - 1 and b <= j
                    if (lower or upper) and c not in pair:
                        bad.append(
                            f"{side}({i},{j})/({i - 1},{j + 1}) colors {sorted(pair)}"
                            f" but ({a},{b}) has {c}"
                        )
    return bad


def check_monochromatic_lines(colors, m: int, n: int) -> list[str]:
    """A one-color row (column) allows at most one extra color per side."""
    _, coords = build_grid(m, n)
    rows = [[colors[v] for v in row_vertices(coords, i)] for i in range(1, m + 1)]
    cols = list(zip(*rows))
    bad = []
    for kind, lines, names in (("row", rows, ("above", "below")), ("column", cols, ("left", "right"))):
        for i, line in enumerate(lines):
            if len(set(line)) != 1:
                continue
            for side, name in zip((lines[:i], lines[i + 1 :]), names):
                seen = set(line).union(*side)
                if len(seen) > 2:
                    bad.append(f"mono {kind} {i + 1} color {set(line)} sees {seen} {name}")
    return bad


def layer_colors(coloring: Coloring, g: Graph, h: Graph) -> list[set[int]]:
    """The colors of each layer of G box H (a copy of G), one set per vertex of H."""
    return [{coloring.colors[v] for v in range(j, g.n * h.n, h.n)} for j in range(h.n)]


def check_layer_color_spread(coloring: Coloring, g: Graph, h: Graph) -> list[str]:
    """Any two layers (copies of the left factor) differ by at most one color."""
    layers = layer_colors(coloring, g, h)
    bad = []
    for i in range(h.n):
        for j in range(h.n):
            extra = layers[j] - layers[i]
            if len(extra) > 1:
                bad.append(f"layer {j} has {sorted(extra)} beyond layer {i}")
    return bad


def check_adjacent_layer_union(coloring: Coloring, g: Graph, h: Graph) -> list[str]:
    """When every layer carries <= 2 colors, adjacent layers jointly carry <= 2.

    Returns [] as well when some layer carries more (the premise fails).
    """
    layers = layer_colors(coloring, g, h)
    if any(len(c) > 2 for c in layers):
        return []
    bad = []
    for i in range(h.n):
        for j in h.adjacency[i]:
            union = layers[i] | layers[j]
            if len(union) > 2:
                bad.append(f"adjacent layers {i},{j} carry {sorted(union)}")
    return bad


def check_polychromatic_path(g: Graph, coloring: Coloring, path: list[int]) -> list[str]:
    """The path must be simple, edge-connected and carry >= 3 colors."""
    bad = []
    if len(set(path)) != len(path):
        bad.append(f"path repeats vertices: {path}")
    for a, b in zip(path, path[1:]):
        if b not in g.adjacency[a]:
            bad.append(f"{a}-{b} not an edge")
    if len({coloring.colors[v] for v in path}) < 3:
        bad.append(f"path {path} carries fewer than 3 colors")
    return bad


def isometric_subsets(g: Graph, dist) -> list[tuple[int, ...]]:
    """All vertex subsets of size >= 2 inducing an isometric subgraph."""
    out = []
    for size in range(2, g.n + 1):
        for subset in combinations(range(g.n), size):
            if is_isometric_subgraph(g, subset, dist):
                out.append(subset)
    return out


def random_exact_coloring(n: int, r: int, rng: random.Random) -> Coloring:
    """Uniform labeled exact r-coloring: resample until surjective."""
    while True:
        colors = tuple(rng.randint(1, r) for _ in range(n))
        if len(set(colors)) == r:
            return Coloring(colors, r)


def grid_flip_horizontal(colors, m: int, n: int) -> tuple[int, ...]:
    """Recolor under the column-reversing grid automorphism."""
    _, coords = build_grid(m, n)
    out = [0] * (m * n)
    for i in range(1, m + 1):
        for j in range(1, n + 1):
            out[coords.vertex(i, j)] = colors[coords.vertex(i, n + 1 - j)]
    return tuple(out)


# ======================================================================
# Exhaustive suites (each returns a list of violation strings)
# ======================================================================


def table(g: Graph, k: int = 3) -> ApTable:
    """The k-AP table of g, the input of every search."""
    return enumerate_k_aps(all_pairs_distances(g), k)


def _suite(cases):
    """Make a suite of cases, a generator of pairs (instance, its violations).

    The suite lists every violation, and one more when cases yields nothing,
    since a suite that checked nothing shows nothing.
    """

    @functools.wraps(cases)
    def suite(*args) -> list[str]:
        bad = []
        checked = 0
        for instance, found in cases(*args):
            checked += 1
            bad += [f"{cases.__name__}: {instance}: {v}" for v in found]
        return bad if checked else [f"{cases.__name__}: nothing checked"]

    return suite


def _grid_colorings():
    """(m, n, coloring) for every rainbow-free exact r >= 3 coloring of a grid up to 12 cells."""
    for m in range(2, 7):
        for n in range(2, 12 // m + 1):
            aps = table(build_grid(m, n)[0])
            for r in range(3, m * n + 1):
                for coloring in enumerate_rainbow_free_colorings(aps, r):
                    yield m, n, coloring


def _product_colorings():
    """(name, g, h, coloring) for every rainbow-free exact 3- or 4-coloring of a corpus product."""
    for name, g, h in corpus_products():
        aps = table(cartesian_product(g, h))
        for r in (3, 4):
            for coloring in enumerate_rainbow_free_colorings(aps, r):
                yield name, g, h, coloring


@_suite
def suite_isometric_lifting():
    """An isometric subgraph's k-APs, k = 3 and 4, are the ambient ones inside it."""
    for name, g in small_corpus():
        dist = all_pairs_distances(g)
        subsets = isometric_subsets(g, dist)
        for k in (3, 4):
            ambient = {ap.vertices for ap in enumerate_k_aps(dist, k).aps}
            for subset in subsets:
                if len(subset) < k:
                    continue
                lifted = {
                    tuple(subset[i] for i in ap.vertices)
                    for ap in table(induced_subgraph(g, subset), k).aps
                }
                inside = {vs for vs in ambient if set(vs) <= set(subset)}
                found = [] if lifted == inside else [f"lifted {lifted}, inside {inside}"]
                yield f"{name} k={k} subset {subset}", found


@_suite
def suite_isometric_color_bound():
    """A rainbow-free coloring puts fewer than aw(H, 3) colors on an isometric subgraph H.

    Checked on the rainbow-free exact 3-colorings of grids 2x3 and 2x5 and
    of the corpus graphs with 3 to 6 vertices.
    """
    aw = functools.cache(lambda sub: compute_aw(sub, 3).aw)
    instances = [(f"grid:{m}x{n}", build_grid(m, n)[0]) for m, n in ((2, 3), (2, 5))]
    instances += [(name, g) for name, g in small_corpus() if 3 <= g.n <= 6]
    for name, g in instances:
        subsets = isometric_subsets(g, all_pairs_distances(g))
        for coloring in enumerate_rainbow_free_colorings(table(g), 3):
            for subset in subsets:
                bound = aw(induced_subgraph(g, subset))
                used = len({coloring.colors[v] for v in subset})
                found = [f"{used} colors, aw {bound}"] if used >= bound else []
                yield f"{name} {coloring.colors} subset {subset}", found


@_suite
def suite_layer_spread():
    """check_layer_color_spread on every rainbow-free coloring of the corpus products."""
    for name, g, h, c in _product_colorings():
        yield f"{name} {c.colors}", check_layer_color_spread(c, g, h)


@_suite
def suite_adjacent_layer_union():
    """check_adjacent_layer_union on the corpus products' colorings where its premise holds."""
    for name, g, h, c in _product_colorings():
        if all(len(layer) <= 2 for layer in layer_colors(c, g, h)):
            yield f"{name} {c.colors}", check_adjacent_layer_union(c, g, h)


@_suite
def suite_block_confinement():
    """check_block_confinement on every rainbow-free coloring of the grids up to 12 cells."""
    for m, n, c in _grid_colorings():
        yield f"{m}x{n} {c.colors}", check_block_confinement(c.colors, m, n)


@_suite
def suite_monochromatic_lines():
    """check_monochromatic_lines on every rainbow-free coloring of the grids up to 12 cells."""
    for m, n, c in _grid_colorings():
        yield f"{m}x{n} {c.colors}", check_monochromatic_lines(c.colors, m, n)


@_suite
def suite_polychromatic_paths(seed: int):
    """find_polychromatic_path on five random exact 3- and 4-colorings of each corpus graph."""
    rng = random.Random(seed)
    for name, g in small_corpus():
        for r in range(3, min(4, g.n) + 1):
            for _ in range(5):
                coloring = random_exact_coloring(g.n, r, rng)
                path = find_polychromatic_path(g, coloring)
                found = check_polychromatic_path(g, coloring, path)
                yield f"{name} {coloring.colors} path {path}", found


def _regrouped(table: ApTable) -> list[Counter]:
    """The table's APs filed under their second-largest vertex, one multiset per vertex.

    A set is filed as (smallest, largest) at k = 3 and as the whole tuple at
    every other k.
    """
    lists = [Counter() for _ in table.dist]
    for vs in (ap.vertices for ap in table.aps):
        lists[vs[-2]][(vs[0], vs[-1]) if table.k == 3 else vs] += 1
    return lists


@_suite
def suite_ap_tables():
    """enumerate_k_aps against brute_force_k_aps: the lists the search reads and the named APs.

    Every table is built as the lists the search reads and names its
    progressions only when they are read.  Each vertex's list is compared
    as a multiset, since its order is free.  Empty tables are included:
    k = n + 1, where there are no k distinct vertices, and star:4 at k = 4,
    whose leaves are pairwise at distance 2.
    """
    cases = [(name, g, k) for name, g in small_corpus() for k in (2, 3, 4, 5, g.n + 1)]
    cases += [
        (f"grid:{m}x{n}", build_grid(m, n)[0], k)
        for m in range(1, 6)
        for n in range(max(m, 2), 6)
        for k in (2, 3, 4)
    ]
    for name, g, k in cases:
        dist = all_pairs_distances(g)
        fast = enumerate_k_aps(dist, k)
        found = ["aps built before they were read"] if "aps" in vars(fast) else []
        slow = brute_force_k_aps(dist, k)
        if [Counter(entries) for entries in fast.ahead] != _regrouped(slow):
            found.append("ahead lists differ from the oracle's sets")
        if fast.aps != slow.aps:
            found.append(f"{len(fast.aps)} enumerated vs {len(slow.aps)} brute-force APs")
        yield f"{name} k={k}", found
    star = enumerate_k_aps(all_pairs_distances(build_star(4)), 4).aps
    yield "star:4 k=4", [] if star == () else [f"{len(star)} APs, expected none"]


# aw(P_m x P_n, 3) on every grid with m * n <= 16.
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


@_suite
def suite_grid_aw(expected: dict[tuple[int, int], int]):
    """compute_aw(grid m x n, 3) against expected[(m, n)]."""
    for (m, n), want in sorted(expected.items()):
        got = compute_aw(build_grid(m, n)[0], 3).aw
        yield f"{m}x{n}", [] if got == want else [f"search {got}, expected {want}"]


# Every admissible corner grid up to 30 cells, and five two-red-corner grids.
CONSTRUCTION_GRIDS = {
    "corner": [
        (m, n) for m in range(1, 31) for n in range(1, 31) if 3 <= m * n <= 30 and (m + n) % 2
    ],
    "two-red-corner": [(4, 4), (4, 6), (5, 5), (4, 8), (6, 6)],
}


@_suite
def suite_grid_coloring(name: str):
    """GRID_COLORINGS[name] has no rainbow 3-AP on any grid of CONSTRUCTION_GRIDS[name]."""
    for m, n in CONSTRUCTION_GRIDS[name]:
        ap = find_rainbow_ap(table(build_grid(m, n)[0]), GRID_COLORINGS[name](m, n).colors)
        yield f"{name} {m}x{n}", [] if ap is None else [f"rainbow 3-AP {ap.vertices}"]
