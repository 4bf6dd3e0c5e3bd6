"""Explicit extremal grid colorings and the closed form for aw of path products.

The two named constructions certify lower bounds aw >= 4 on grids P_m x P_n,
with cells (i, j) placed through GridCoordinates:

corner          red at (1, 1), blue at (m, n), green elsewhere; needs m + n
                odd, so the corner-to-corner distance m + n - 2 is odd and no
                vertex is equidistant from both corners.
two-red-corner  red at (1, 2) and (2, 1), blue at (m, n), green elsewhere;
                needs m, n >= 4 and m + n even.

Color roles are fixed numerically: red = 1, blue = 2, green = 3.
GRID_COLORINGS maps each name to its builder, which rejects inadmissible
dimensions with ValueError.
"""

from __future__ import annotations

from dataclasses import dataclass

from .coloring import Coloring
# cartesian_product is unused here and verify_product_bound calls neither it nor
# compute_aw, but perfbench's product-sweep probes patch and look up both here.
from .graphs import Graph, GridCoordinates, build_grid, cartesian_product, product_distances
from .search import DEFAULT_NODE_BUDGET, AwResult, aw_from_distances, compute_aw

RED = 1
BLUE = 2
GREEN = 3


def construct_corner_coloring(m: int, n: int) -> Coloring:
    """Red corner (1,1), blue corner (m,n), green interior; m + n odd.

    A rainbow 3-AP would have to contain both singleton corners.  Neither can
    be an endpoint pair's midpoint (the grid is bipartite and their distance
    m + n - 2 is odd), and with a corner as the middle vertex the third
    member would need distance m + n - 2 from it, which only the opposite
    corner achieves.  So the coloring is rainbow-free whenever m + n is odd.
    """
    if m < 1 or n < 1 or m * n < 3:
        raise ValueError(f"corner coloring needs m*n >= 3, got {m}x{n}")
    if (m + n) % 2 == 0:
        raise ValueError(f"corner coloring needs m + n odd, got {m}x{n}")
    grid = GridCoordinates(m, n)
    colors = [GREEN] * (m * n)
    colors[grid.vertex(1, 1)] = RED
    colors[grid.vertex(m, n)] = BLUE
    return Coloring(tuple(colors), 3)


def construct_two_red_coloring(m: int, n: int) -> Coloring:
    """Red at (1,2) and (2,1), blue at (m,n), green elsewhere; m, n >= 4, m + n even.

    The even-sum counterpart of the corner coloring: the two red cells flank
    the (1,1) corner so that each sits at odd distance m + n - 3 from the
    blue corner.  Rainbow-freeness is checked by the AP engine in the tests
    and by the CLI before the coloring is written out.
    """
    if m < 4 or n < 4:
        raise ValueError(f"two-red-corner coloring needs m, n >= 4, got {m}x{n}")
    if (m + n) % 2 == 1:
        raise ValueError(f"two-red-corner coloring needs m + n even, got {m}x{n}")
    grid = GridCoordinates(m, n)
    colors = [GREEN] * (m * n)
    colors[grid.vertex(1, 2)] = RED
    colors[grid.vertex(2, 1)] = RED
    colors[grid.vertex(m, n)] = BLUE
    return Coloring(tuple(colors), 3)


# The named constructions, in the order the CLI lists them.
GRID_COLORINGS = {
    "corner": construct_corner_coloring,
    "two-red-corner": construct_two_red_coloring,
}


def closed_form_aw_grid(m: int, n: int) -> int:
    """aw(P_m x P_n, 3) in closed form, for m, n >= 2.

    The value is 3 exactly when one side has length 2 and the other is even,
    or one side has length 3 and the other is odd; otherwise it is 4.  The
    rule is symmetric in m and n, so both orientations are tested.
    """
    if m < 2 or n < 2:
        raise ValueError(f"closed form needs m, n >= 2, got {m}x{n}")

    def is_three(a: int, b: int) -> bool:
        return (a == 2 and b % 2 == 0) or (a == 3 and b % 2 == 1)

    return 3 if is_three(m, n) or is_three(n, m) else 4


@dataclass(frozen=True)
class GridTableRow:
    """One row of the closed-form-versus-search comparison table."""

    m: int
    n: int
    formula: int
    searched: int

    @property
    def match(self) -> bool:
        return self.formula == self.searched


def grid_formula_table(
    max_cells: int,
    *,
    budget: int = DEFAULT_NODE_BUDGET,
) -> list[GridTableRow]:
    """Every grid with 2 <= m <= n and m*n <= max_cells, formula versus search."""
    if max_cells < 4:
        raise ValueError(f"need max_cells >= 4, got {max_cells}")
    rows = []
    for m in range(2, max_cells + 1):
        if m * m > max_cells:
            break
        for n in range(m, max_cells // m + 1):
            g = build_grid(m, n)[0]
            res = compute_aw(g, 3, budget=budget)
            rows.append(GridTableRow(m, n, closed_form_aw_grid(m, n), res.aw))
    return rows


@dataclass(frozen=True)
class ProductBoundReport:
    """Result of checking aw(G box H, 3) <= 4 for one product."""

    result: AwResult

    @property
    def aw(self) -> int:
        return self.result.aw

    @property
    def passed(self) -> bool:
        return self.result.aw <= 4

    @property
    def witness(self) -> Coloring | None:
        return self.result.witness


def verify_product_bound(
    g: Graph,
    h: Graph,
    *,
    budget: int = DEFAULT_NODE_BUDGET,
) -> ProductBoundReport:
    """Compute aw(G box H, 3) by search and report whether it is at most 4.

    The search reads the rows of graphs.product_distances and never builds
    G box H, so the result is compute_aw(cartesian_product(g, h), 3)'s.  The
    factor sizes, then the budget, are checked before any distance is
    computed.  When aw = 4 the report carries the extremal rainbow-free exact
    3-coloring found by the search as evidence for the lower bound.
    """
    if g.n < 2 or h.n < 2:
        raise ValueError(
            f"product bound needs both factors on >= 2 vertices, got {g.n} and {h.n}"
        )
    return ProductBoundReport(
        aw_from_distances(g.n * h.n, 3, lambda: product_distances(g, h), budget=budget)
    )
