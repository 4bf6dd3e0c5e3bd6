"""The structural property checkers catch the violations they are written for.

Each check in prop_helpers is run here on a hand-made coloring that breaks
its claim.  The exhaustive suites built on these checks run in the
acceptance gate, criterion 7, and nowhere else.
"""

from awgraph import Coloring, build_path
from prop_helpers import (
    check_block_confinement,
    check_layer_color_spread,
    check_monochromatic_lines,
)


def test_block_confinement_catches_violations():
    # (2,1) and (1,2) are anti-diagonal with colors 3 and 2, yet (2,2)
    # carries color 1: the helper must flag it.
    assert check_block_confinement((1, 2, 3, 1), 2, 2) != []


def test_monochromatic_lines_catches_violations():
    # Row 1 of the 2x3 grid is monochromatic but the other row brings in
    # two further colors.
    assert check_monochromatic_lines((1, 1, 1, 2, 3, 2), 2, 3) != []


def test_layer_spread_catches_violations():
    g, h = build_path(2), build_path(3)
    coloring = Coloring((1, 1, 2, 3, 1, 2), 3)
    assert check_layer_color_spread(coloring, g, h) != []
