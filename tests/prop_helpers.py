"""Shared corpora, property checks and helpers used by the unit and acceptance tests.

The checks here are deliberately written against first principles (distance
matrices and explicit loops), not against the search engine they validate,
so every property test compares two independent routes.  The helpers in the
first section are used only by the tests and are not part of the awgraph API.
"""

from __future__ import annotations

import random
from itertools import combinations, permutations, product as iproduct

from awgraph import (
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
        except Exception:
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
    quadrants to the pair's colors.  The mirrored diagonal is checked too.
    """
    _, coords = build_grid(m, n)
    bad = []

    def cell(i, j):
        return colors[coords.vertex(i, j)]

    for i in range(2, m + 1):
        for j in range(1, n):
            c1, c2 = cell(i, j), cell(i - 1, j + 1)
            if c1 == c2:
                continue
            pair = {c1, c2}
            for a in range(1, m + 1):
                for b in range(1, n + 1):
                    lower = a >= i and b >= j + 1
                    upper = a <= i - 1 and b <= j
                    if (lower or upper) and cell(a, b) not in pair:
                        bad.append(
                            f"({i},{j})/({i - 1},{j + 1}) colors {c1},{c2}"
                            f" but ({a},{b}) has {cell(a, b)}"
                        )
        for j in range(2, n + 1):
            c1, c2 = cell(i, j), cell(i - 1, j - 1)
            if c1 == c2:
                continue
            pair = {c1, c2}
            for a in range(1, m + 1):
                for b in range(1, n + 1):
                    lower = a >= i and b <= j - 1
                    upper = a <= i - 1 and b >= j
                    if (lower or upper) and cell(a, b) not in pair:
                        bad.append(
                            f"({i},{j})/({i - 1},{j - 1}) colors {c1},{c2}"
                            f" but ({a},{b}) has {cell(a, b)}"
                        )
    return bad


def check_monochromatic_lines(colors, m: int, n: int) -> list[str]:
    """A one-color row (column) allows at most one extra color per side."""
    _, coords = build_grid(m, n)
    bad = []
    for i in range(1, m + 1):
        row = {colors[v] for v in row_vertices(coords, i)}
        if len(row) != 1:
            continue
        above = {colors[coords.vertex(a, b)] for a in range(1, i) for b in range(1, n + 1)}
        below = {colors[coords.vertex(a, b)] for a in range(i + 1, m + 1) for b in range(1, n + 1)}
        for side, name in ((above, "above"), (below, "below")):
            if len(side | row) > 2:
                bad.append(f"mono row {i} color {row} sees {side} {name}")
    for j in range(1, n + 1):
        col = {colors[v] for v in column_vertices(coords, j)}
        if len(col) != 1:
            continue
        left = {colors[coords.vertex(a, b)] for a in range(1, m + 1) for b in range(1, j)}
        right = {colors[coords.vertex(a, b)] for a in range(1, m + 1) for b in range(j + 1, n + 1)}
        for side, name in ((left, "left"), (right, "right")):
            if len(side | col) > 2:
                bad.append(f"mono column {j} color {col} sees {side} {name}")
    return bad


def check_layer_color_spread(coloring: Coloring, g: Graph, h: Graph) -> list[str]:
    """Any two layers (copies of the left factor) differ by at most one color."""
    layers = [
        {coloring.colors[v] for v in range(j, g.n * h.n, h.n)} for j in range(h.n)
    ]
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
    layers = [
        {coloring.colors[v] for v in range(j, g.n * h.n, h.n)} for j in range(h.n)
    ]
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


def assert_lex_sorted_canonical(colorings) -> None:
    previous = None
    for c in colorings:
        assert is_canonical(c), f"non-canonical coloring {c.colors}"
        if previous is not None:
            assert previous < c.colors, "enumeration not in lexicographic order"
        previous = c.colors


def grid_flip_horizontal(colors, m: int, n: int) -> tuple[int, ...]:
    """Recolor under the column-reversing grid automorphism."""
    _, coords = build_grid(m, n)
    out = [0] * (m * n)
    for i in range(1, m + 1):
        for j in range(1, n + 1):
            out[coords.vertex(i, j)] = colors[coords.vertex(i, n + 1 - j)]
    return tuple(out)
