"""Structural properties of rainbow-free colorings, checked exhaustively.

Each suite in prop_helpers enumerates every rainbow-free coloring in a
stated range with the search engine and re-checks a structural claim about
it with the independent first-principles helpers, so a bug in either side
shows up as a mismatch.  The acceptance gate runs the same suites.
"""

from awgraph import Coloring, build_path
from prop_helpers import (
    check_block_confinement,
    check_layer_color_spread,
    check_monochromatic_lines,
    suite_adjacent_layer_union,
    suite_block_confinement,
    suite_isometric_color_bound,
    suite_isometric_lifting,
    suite_layer_spread,
    suite_monochromatic_lines,
)


def test_isometric_subgraphs_inherit_aps():
    assert suite_isometric_lifting() == []


def test_isometric_subsets_bound_color_count():
    assert suite_isometric_color_bound() == []


def test_grid_block_confinement():
    assert suite_block_confinement() == []


def test_grid_monochromatic_lines():
    assert suite_monochromatic_lines() == []


def test_block_confinement_catches_violations():
    # (2,1) and (1,2) are anti-diagonal with colors 3 and 2, yet (2,2)
    # carries color 1: the helper must flag it.
    assert check_block_confinement((1, 2, 3, 1), 2, 2) != []


def test_monochromatic_lines_catches_violations():
    # Row 1 of the 2x3 grid is monochromatic but the other row brings in
    # two further colors.
    assert check_monochromatic_lines((1, 1, 1, 2, 3, 2), 2, 3) != []


def test_product_layer_color_spread():
    assert suite_layer_spread() == []


def test_product_adjacent_layer_union():
    assert suite_adjacent_layer_union() == []


def test_layer_spread_catches_violations():
    g, h = build_path(2), build_path(3)
    coloring = Coloring((1, 1, 2, 3, 1, 2), 3)
    assert check_layer_color_spread(coloring, g, h) != []
