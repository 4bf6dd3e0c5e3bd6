"""Finite simple connected graphs with fixed 0-based vertex labels.

Everything downstream (distance matrices, arithmetic progressions, coloring
searches) works on the immutable Graph defined here.  Vertices are the ints
0..n-1 and the labeling is part of the object: Cartesian products and grid
coordinate maps rely on it.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from itertools import combinations

from .errors import AwgraphError


class GraphError(AwgraphError, ValueError):
    """Invalid graph construction (non-simple, bad labels, wrong sizes)."""


class DisconnectedGraphError(GraphError):
    """The vertex set does not form a single connected component."""


class GraphFormatError(GraphError):
    """Malformed graph file text."""


class MalformedHeaderError(GraphFormatError):
    """First non-comment line is not '<n> <m>' with n >= 1, m >= 0."""


class MalformedEdgeError(GraphFormatError):
    """An edge line is not '<u> <v>' with u < v, or the edge count is off."""


class VertexRangeError(GraphFormatError):
    """An edge endpoint is negative or >= n."""


class DuplicateEdgeError(GraphFormatError):
    """The same unordered edge appears twice."""


class SelfLoopError(GraphFormatError):
    """An edge joins a vertex to itself."""


# ======================================================================
# Core types
# ======================================================================


@dataclass(frozen=True)
class Graph:
    """Simple connected graph on vertices 0..n-1 with sorted adjacency lists."""

    n: int
    adjacency: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise GraphError(f"graph needs at least one vertex, got n={self.n}")
        if len(self.adjacency) != self.n:
            raise GraphError(
                f"adjacency has {len(self.adjacency)} rows for n={self.n}"
            )
        back: list[list[int]] = [[] for _ in range(self.n)]
        for u, row in enumerate(self.adjacency):
            prev = -1
            for v in row:
                if not 0 <= v < self.n:
                    raise GraphError(f"neighbor {v} of {u} out of range")
                if v == u:
                    raise GraphError(f"self-loop at {u}")
                if v <= prev:
                    raise GraphError(f"adjacency row {u} not strictly sorted")
                prev = v
                back[v].append(u)
        # back[v] lists in ascending order the vertices whose rows hold v, so it
        # equals row v unless an edge lacks its reverse.  Only then are row sets
        # built, to name the first such edge in row order, the least, in O(m).
        if tuple(map(tuple, back)) != tuple(self.adjacency):
            rows = [set(row) for row in self.adjacency]
            u, v = next(
                (u, v) for u, row in enumerate(self.adjacency) for v in row if u not in rows[v]
            )
            raise GraphError(f"edge {u}-{v} missing its reverse")
        if -1 in distances_from(self, 0):
            raise DisconnectedGraphError(
                "graph is disconnected (all graphs here must be connected)"
            )

    @property
    def m(self) -> int:
        """Number of edges."""
        return sum(len(row) for row in self.adjacency) // 2

    def edges(self) -> tuple[tuple[int, int], ...]:
        """All edges as (u, v) with u < v, lexicographically sorted."""
        return tuple(
            (u, v) for u in range(self.n) for v in self.adjacency[u] if u < v
        )

    @staticmethod
    def from_edges(n: int, edges) -> "Graph":
        """Build a Graph from an iterable of unordered endpoint pairs.

        Only the faults the row sets would hide are checked here; the Graph
        itself rejects n < 1, self-loops and disconnection.
        """
        rows: list[set[int]] = [set() for _ in range(n)]
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"edge ({u}, {v}) out of range for n={n}")
            if v in rows[u]:
                raise GraphError(f"duplicate edge ({u}, {v})")
            rows[u].add(v)
            rows[v].add(u)
        return Graph(n, tuple(tuple(sorted(row)) for row in rows))


@dataclass(frozen=True)
class GridCoordinates:
    """1-based (row, column) coordinates for the product of two paths.

    Row i in 1..m and column j in 1..n map to vertex (i-1)*n + (j-1), the
    row-major order produced by cartesian_product(path(m), path(n)).
    """

    m: int
    n: int

    def __post_init__(self) -> None:
        if self.m < 1 or self.n < 1:
            raise GraphError(f"grid needs m, n >= 1, got {self.m}x{self.n}")

    def vertex(self, i: int, j: int) -> int:
        if not (1 <= i <= self.m and 1 <= j <= self.n):
            raise GraphError(f"({i}, {j}) outside {self.m}x{self.n} grid")
        return (i - 1) * self.n + (j - 1)

    def coords(self, v: int) -> tuple[int, int]:
        if not 0 <= v < self.m * self.n:
            raise GraphError(f"vertex {v} outside {self.m}x{self.n} grid")
        return v // self.n + 1, v % self.n + 1


# ======================================================================
# Builders
# ======================================================================


def build_path(n: int) -> Graph:
    """Path 0-1-...-(n-1); n >= 1."""
    if n < 1:
        raise GraphError(f"path needs n >= 1, got {n}")
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def build_cycle(n: int) -> Graph:
    """Cycle 0-1-...-(n-1)-0; n >= 3."""
    if n < 3:
        raise GraphError(f"cycle needs n >= 3, got {n}")
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def build_complete(n: int) -> Graph:
    """Complete graph on n >= 1 vertices."""
    if n < 1:
        raise GraphError(f"complete graph needs n >= 1, got {n}")
    return Graph.from_edges(n, list(combinations(range(n), 2)))


def build_star(n: int) -> Graph:
    """Star on n >= 2 vertices: center 0, leaves 1..n-1."""
    if n < 2:
        raise GraphError(f"star needs n >= 2, got {n}")
    return Graph.from_edges(n, [(0, i) for i in range(1, n)])


def cartesian_product(g: Graph, h: Graph) -> Graph:
    """Cartesian product: vertex (a, b) becomes a*h.n + b.

    The row of (a, b) is (a', b) for each neighbour a' of a in g with
    (a, b') for each neighbour b' of b in h, sorted.  Connectedness of both
    factors makes the product connected.
    """
    hn = h.n
    rows = tuple(
        tuple(sorted([a2 * hn + b for a2 in g_row] + [a * hn + b2 for b2 in h_row]))
        for a, g_row in enumerate(g.adjacency)
        for b, h_row in enumerate(h.adjacency)
    )
    return Graph(g.n * hn, rows)


def build_grid(m: int, n: int) -> tuple[Graph, GridCoordinates]:
    """Product of path(m) and path(n) plus its 1-based coordinate map."""
    coords = GridCoordinates(m, n)  # names the grid, not a path, when m or n < 1
    return cartesian_product(build_path(m), build_path(n)), coords


# ======================================================================
# File format
# ======================================================================


# Three readers serve every text format: content_lines, int_pair for a line
# of two integers, int_field for one integer token.  Each caller names its
# field and passes its error class, so each format keeps its own wording.
def content_lines(text: str) -> list[str]:
    """The stripped lines of text that count: all but blank lines and '#' comments."""
    return [ln for ln in map(str.strip, text.splitlines()) if ln and ln[0] != "#"]


def int_pair(line: str, what: str, form: str, error: type[Exception]) -> tuple[int, int]:
    """The two integers of line, else error naming what and its form."""
    parts = line.split()
    if len(parts) != 2:
        raise error(f"{what} must be '{form}', got {line!r}")
    try:
        return int(parts[0]), int(parts[1])
    except ValueError:
        raise error(f"{what} must be two integers, got {line!r}") from None


def int_field(token: str, what: str, error: type[Exception]) -> int:
    """The integer token, surrounding whitespace ignored, else error naming what."""
    try:
        return int(token.strip())
    except ValueError:
        raise error(f"{what} must be an integer, got {token!r}") from None


def parse_graph(text: str) -> Graph:
    """Parse the plain-text graph format.

    Line 1: "<n> <m>".  Then exactly m lines "<u> <v>" with 0 <= u < v < n.
    Lines starting with '#' and blank lines are ignored.  Duplicate edges,
    self-loops, out-of-range ids and disconnected graphs are rejected, each
    with its own error class.
    """
    lines = content_lines(text)
    if not lines:
        raise MalformedHeaderError("empty graph text")
    n, m = int_pair(lines[0], "header", "<n> <m>", MalformedHeaderError)
    if n < 1 or m < 0:
        raise MalformedHeaderError(f"need n >= 1 and m >= 0, got n={n} m={m}")
    body = lines[1:]
    if len(body) != m:
        raise MalformedEdgeError(f"expected {m} edge lines, found {len(body)}")
    # Adjacency rows only for the vertices that have an edge, so a header
    # whose m cannot connect its n vertices allocates no n rows.
    rows: defaultdict[int, set[int]] = defaultdict(set)
    for ln in body:
        u, v = int_pair(ln, "edge line", "<u> <v>", MalformedEdgeError)
        if not (0 <= u < n and 0 <= v < n):
            raise VertexRangeError(f"edge ({u}, {v}) outside 0..{n - 1}")
        if u == v:
            raise SelfLoopError(f"self-loop at vertex {u}")
        if u > v:
            raise MalformedEdgeError(f"edge ({u}, {v}) must satisfy u < v")
        row = rows[u]
        if v in row:
            raise DuplicateEdgeError(f"duplicate edge ({u}, {v})")
        row.add(v)
        rows[v].add(u)
    if m < n - 1:
        raise DisconnectedGraphError(f"{m} edges cannot connect {n} vertices")
    try:
        return Graph(n, tuple(tuple(sorted(rows.get(u, ()))) for u in range(n)))
    except DisconnectedGraphError:
        raise DisconnectedGraphError(
            "graph file describes a disconnected graph"
        ) from None


def graph_to_text(g: Graph) -> str:
    """Inverse of parse_graph: canonical text with sorted edge lines."""
    out = [f"{g.n} {g.m}"]
    out.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(out) + "\n"


# ======================================================================
# Distances
# ======================================================================


def distances_from(g: Graph, s: int) -> list[int]:
    """d(s, v) at index v by breadth-first search, -1 where v is unreachable.

    The vertices are visited in the order they are reached, by walking the
    list they are appended to.
    """
    dist = [-1] * g.n
    dist[s] = 0
    reached = [s]
    for u in reached:
        du = dist[u] + 1
        for v in g.adjacency[u]:
            if dist[v] < 0:
                dist[v] = du
                reached.append(v)
    return dist


def all_pairs_distances(g: Graph) -> tuple[tuple[int, ...], ...]:
    """Distance rows, one breadth-first search per source: row u holds d(u, v) at v.

    Symmetric with zero diagonal; every entry is a true distance because a
    Graph is connected.
    """
    return tuple(tuple(distances_from(g, s)) for s in range(g.n))


def distance_rings(g: Graph) -> list[list[int]]:
    """rings[v][d]: the vertices at distance d from v as a bitmask, for d = 0..ecc(v).

    Every source grows at once, one radius per round: the ball of radius
    d + 1 around v is the OR of the radius-d balls of v and its neighbours,
    and the new ring is what that adds.  A vertex drops out once its ball
    stops growing, which in a connected graph is when it holds every vertex.
    """
    adjacency = g.adjacency
    ball = [1 << v for v in range(g.n)]
    rings = [[b] for b in ball]
    growing = range(g.n)
    while growing:
        prev = ball[:]  # the radius-d balls, read while ball takes radius d + 1
        still = []
        for v in growing:
            reach = old = prev[v]
            for u in adjacency[v]:
                reach |= prev[u]
            ring = reach ^ old
            if ring:
                rings[v].append(ring)
                ball[v] = reach
                still.append(v)
        growing = still
    return rings
