"""Graph construction, parsing, products, distances, isometric subgraphs."""

import networkx as nx
import pytest

from awgraph import (
    DisconnectedGraphError,
    DuplicateEdgeError,
    Graph,
    GraphError,
    GridCoordinates,
    MalformedEdgeError,
    MalformedHeaderError,
    SelfLoopError,
    VertexRangeError,
    all_pairs_distances,
    build_complete,
    build_cycle,
    build_grid,
    build_path,
    build_star,
    cartesian_product,
    distance_rings,
    graph_to_text,
    parse_graph,
)
from prop_helpers import (
    column_vertices,
    induced_subgraph,
    is_isometric_subgraph,
    random_connected_graph,
    row_vertices,
    small_corpus,
)


def test_builders_basic_shapes():
    p1 = build_path(1)
    assert p1.n == 1 and p1.m == 0
    p4 = build_path(4)
    assert p4.edges() == ((0, 1), (1, 2), (2, 3))
    c6 = build_cycle(6)
    assert c6.n == 6 and c6.m == 6
    k5 = build_complete(5)
    assert k5.m == 10
    s4 = build_star(4)
    assert s4.adjacency[0] == (1, 2, 3)
    assert all(s4.adjacency[i] == (0,) for i in range(1, 4))


def test_builder_size_validation():
    with pytest.raises(GraphError):
        build_path(0)
    with pytest.raises(GraphError):
        build_cycle(2)
    with pytest.raises(GraphError):
        build_star(1)
    with pytest.raises(GraphError):
        build_complete(0)
    # The test corpus's random graphs redraw only when a draw is disconnected.
    with pytest.raises(GraphError):
        random_connected_graph(0, seed=1)


def test_graph_invariants_enforced():
    with pytest.raises(GraphError):
        Graph.from_edges(3, [(0, 0)])
    with pytest.raises(GraphError):
        Graph.from_edges(3, [(0, 1), (0, 1)])
    with pytest.raises(GraphError):
        Graph.from_edges(3, [(0, 3)])
    with pytest.raises(DisconnectedGraphError):
        Graph.from_edges(4, [(0, 1), (2, 3)])
    for n, rows, message in (
        (0, (), "at least one vertex"),
        (2, ((1,),), "1 rows for n=2"),
        (2, ((2,), ()), "neighbor 2 of 0 out of range"),
        (3, ((2, 1), (0,), (0,)), "row 0 not strictly sorted"),
        (2, ((1,), ()), "edge 0-1 missing its reverse"),
        (4, ((1,), (0, 2), (1, 3), (1,)), "edge 2-3 missing its reverse"),
        # Two edges lack their reverse; the first in row order is named,
        # where a scan by column would name 1-0.
        (3, ((2,), (0,), ()), "edge 0-2 missing its reverse"),
    ):
        with pytest.raises(GraphError, match=message):
            Graph(n, rows)


def test_parse_graph_round_trip():
    for name, g in small_corpus():
        parsed = parse_graph(graph_to_text(g))
        assert parsed == g, f"round trip failed for {name}"


def test_parse_graph_accepts_comments_and_blanks():
    text = "# a triangle\n3 3\n\n0 1\n# middle comment\n0 2\n1 2\n"
    assert parse_graph(text) == build_cycle(3)


def test_parse_graph_distinct_errors():
    with pytest.raises(MalformedHeaderError):
        parse_graph("")
    with pytest.raises(MalformedHeaderError):
        parse_graph("3\n0 1\n")
    with pytest.raises(MalformedHeaderError):
        parse_graph("x y\n")
    with pytest.raises(MalformedEdgeError):
        parse_graph("3 2\n0 1\n")  # edge count mismatch
    with pytest.raises(MalformedEdgeError):
        parse_graph("3 1\n0 1 2\n")
    with pytest.raises(MalformedEdgeError):
        parse_graph("3 2\n1 0\n1 2\n")  # u > v
    with pytest.raises(VertexRangeError):
        parse_graph("3 1\n0 3\n")
    with pytest.raises(SelfLoopError):
        parse_graph("3 1\n1 1\n")
    with pytest.raises(DuplicateEdgeError):
        parse_graph("3 3\n0 1\n0 1\n1 2\n")
    with pytest.raises(DisconnectedGraphError):
        parse_graph("3 1\n0 1\n")
    for header in ("0 0", "3 -1"):
        with pytest.raises(MalformedHeaderError, match="need n >= 1 and m >= 0"):
            parse_graph(header + "\n")
    with pytest.raises(MalformedEdgeError, match="two integers"):
        parse_graph("2 1\n0 x\n")
    for text, error, message in (
        ("3\n0 1\n", MalformedHeaderError, "header must be '<n> <m>', got '3'"),
        ("x y\n", MalformedHeaderError, "header must be two integers, got 'x y'"),
        ("3 1\n0 1 2\n", MalformedEdgeError, "edge line must be '<u> <v>', got '0 1 2'"),
        ("2 1\n0 x\n", MalformedEdgeError, "edge line must be two integers, got '0 x'"),
    ):
        with pytest.raises(error) as exc:
            parse_graph(text)
        assert str(exc.value) == message, text
    # Enough edges to connect four vertices, but they close a triangle.
    with pytest.raises(DisconnectedGraphError, match="graph file describes a disconnected graph"):
        parse_graph("4 3\n0 1\n1 2\n0 2\n")


def test_cartesian_product_ids_and_sizes():
    g = cartesian_product(build_path(2), build_path(3))
    assert g.n == 6 and g.m == 7
    # vertex (a, b) sits at a*|H| + b; (0,0)-(1,0) and (0,0)-(0,1) are edges
    assert 3 in g.adjacency[0] and 1 in g.adjacency[0]
    assert 2 not in g.adjacency[0]


def test_cartesian_product_commutes_up_to_relabeling():
    pairs = [
        (build_path(2), build_cycle(3)),
        (build_path(3), build_star(4)),
        (build_complete(3), build_path(4)),
    ]
    for g, h in pairs:
        gh = cartesian_product(g, h)
        hg = cartesian_product(h, g)
        # (a, b) -> (b, a) maps id a*h.n + b to b*g.n + a
        remap = {a * h.n + b: b * g.n + a for a in range(g.n) for b in range(h.n)}
        edges = {tuple(sorted((remap[u], remap[v]))) for u, v in gh.edges()}
        assert edges == set(hg.edges())


def test_grid_coordinates_bijection_and_distance_formula():
    for m in range(1, 7):
        for n in range(1, 7):
            if m * n > 36:
                continue
            g, coords = build_grid(m, n)
            seen = set()
            for i in range(1, m + 1):
                for j in range(1, n + 1):
                    v = coords.vertex(i, j)
                    assert coords.coords(v) == (i, j)
                    seen.add(v)
            assert seen == set(range(m * n))
            dist = all_pairs_distances(g)
            for i in range(1, m + 1):
                for j in range(1, n + 1):
                    for a in range(1, m + 1):
                        for b in range(1, n + 1):
                            expected = abs(i - a) + abs(j - b)
                            assert dist[coords.vertex(i, j)][coords.vertex(a, b)] == expected


def test_grid_coordinates_validation():
    with pytest.raises(GraphError):
        GridCoordinates(0, 3)
    coords = GridCoordinates(2, 3)
    with pytest.raises(GraphError):
        coords.vertex(0, 1)
    with pytest.raises(GraphError):
        coords.vertex(1, 4)
    with pytest.raises(GraphError):
        coords.coords(6)


def test_distance_matrix_invariants():
    for name, g in small_corpus():
        dist = all_pairs_distances(g)
        for u in range(g.n):
            assert dist[u][u] == 0
            for v in range(g.n):
                assert dist[u][v] == dist[v][u]
                assert (dist[u][v] == 1) == (v in g.adjacency[u])
                for w in range(g.n):
                    assert dist[u][w] <= dist[u][v] + dist[v][w], name
    rng_graph = random_connected_graph(9, seed=93)
    dist = all_pairs_distances(rng_graph)
    assert all(dist[0][v] >= 0 for v in range(rng_graph.n))


def test_known_distances():
    assert all_pairs_distances(build_path(4))[0][3] == 3
    assert all_pairs_distances(build_cycle(6))[0][3] == 3
    assert all_pairs_distances(build_star(4))[1][2] == 2


def _networkx_rows(h, n):
    lengths = dict(nx.shortest_path_length(h))
    return tuple(tuple(lengths[u][v] for v in range(n)) for u in range(n))


def _assert_rows_and_rings(g, h):
    # The BFS rows equal networkx's, and every ring is exactly the vertices
    # its row puts at that distance, out to the row's largest entry.
    rows = all_pairs_distances(g)
    assert rows == _networkx_rows(h, g.n), sorted(h.edges())
    rings = distance_rings(g)
    assert len(rings) == g.n
    for v, row in enumerate(rows):
        assert len(rings[v]) == max(row) + 1, (sorted(h.edges()), v)
        for d, ring in enumerate(rings[v]):
            assert ring == sum(1 << u for u, du in enumerate(row) if du == d), (v, d)


def test_distances_match_networkx():
    # Every connected atlas graph on 1..7 vertices, every grid up to 8x8
    # with networkx building the grid itself, then products of other
    # factors, paths and cycles up to 40 vertices, complete graphs and stars.
    atlas = [ag for ag in nx.graph_atlas_g() if ag.number_of_nodes() and nx.is_connected(ag)]
    assert len(atlas) == 1 + 1 + 2 + 6 + 21 + 112 + 853
    for ag in atlas:
        n = ag.number_of_nodes()
        _assert_rows_and_rings(Graph.from_edges(n, [tuple(sorted(e)) for e in ag.edges()]), ag)
    for m in range(1, 9):
        for n in range(1, 9):
            h = nx.relabel_nodes(nx.grid_2d_graph(m, n), lambda ij: ij[0] * n + ij[1])
            _assert_rows_and_rings(build_grid(m, n)[0], h)
    # Every ordered pair from the small corpus and a 1-vertex factor with at
    # most 24 product vertices, against networkx's product relabelled
    # (a, b) -> a*|H| + b.  Equal distance rows mean equal edges.
    factors = [(g, nx.Graph(g.edges())) for _, g in small_corpus()]
    factors.append((build_path(1), nx.path_graph(1)))
    for g, gx in factors:
        for h, hx in factors:
            if g.n * h.n <= 24:
                px = nx.relabel_nodes(nx.cartesian_product(gx, hx), lambda ab: ab[0] * h.n + ab[1])
                _assert_rows_and_rings(cartesian_product(g, h), px)
    for n in range(1, 41):
        _assert_rows_and_rings(build_path(n), nx.path_graph(n))
        _assert_rows_and_rings(build_complete(n), nx.complete_graph(n))
        if n >= 3:
            _assert_rows_and_rings(build_cycle(n), nx.cycle_graph(n))
        if n >= 2:
            _assert_rows_and_rings(build_star(n), nx.star_graph(n - 1))


def test_induced_subgraph_relabels():
    g, coords = build_grid(2, 3)
    row = row_vertices(coords, 1)
    assert induced_subgraph(g, row) == build_path(3)
    with pytest.raises(DisconnectedGraphError):
        induced_subgraph(build_path(3), [0, 2])
    with pytest.raises(GraphError):
        induced_subgraph(g, [])
    with pytest.raises(GraphError, match="not within 0..2"):
        induced_subgraph(build_path(3), [0, 5])


def test_is_isometric_subgraph():
    g, coords = build_grid(3, 4)
    dist = all_pairs_distances(g)
    assert is_isometric_subgraph(g, row_vertices(coords, 2), dist)
    assert is_isometric_subgraph(g, column_vertices(coords, 3), dist)
    sub = row_vertices(coords, 1) + row_vertices(coords, 2)
    assert is_isometric_subgraph(g, sub, dist)
    assert is_isometric_subgraph(g, range(g.n), dist)
    # disconnected induced subgraph
    assert not is_isometric_subgraph(build_path(3), [0, 2])
    # connected but distance-inflating: a 5-vertex arc of a 6-cycle
    c6 = build_cycle(6)
    assert is_isometric_subgraph(c6, [0, 1, 2, 3])
    assert not is_isometric_subgraph(c6, [0, 1, 2, 3, 4])
    with pytest.raises(GraphError):
        is_isometric_subgraph(c6, [])
