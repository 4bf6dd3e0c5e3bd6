"""Coloring type, canonical forms, file format."""

import pytest

from awgraph import (
    Coloring,
    ColoringError,
    ColoringFormatError,
    coloring_to_text,
    parse_coloring,
)
from prop_helpers import canonicalize, is_canonical


def test_coloring_validation():
    Coloring((1, 2, 1), 2)
    # Messages and their order: the first bad vertex is named, not the
    # smallest or largest bad color.
    for colors, r, message in (
        ((1, 5, 0), 3, "color 5 at vertex 1 outside 1..3"),
        ((1, 3), 3, "not exact: colors [2] unused"),
        # Only colors in use are compared against 1..r, so a declared r far
        # above n costs O(n), and at most ten unused colors are named.
        ((1, 2, 3), 13, "not exact: colors [4, 5, 6, 7, 8, 9, 10, 11, 12, 13] unused"),
        ((1, 2, 3), 14, "not exact: colors [4, 5, 6, 7, 8, 9, 10, 11, 12, 13, ...] unused"),
        ((2, 4, 6, 8), 10**9, "not exact: colors [1, 3, 5, 7, 9, 10, 11, 12, 13, 14, ...] unused"),
        ((0, 1), 1, "color 0 at vertex 0 outside 1..1"),
        ((1, 2), 1, "color 2 at vertex 1 outside 1..1"),
        ((1, float("nan")), 2, "color nan at vertex 1 outside 1..2"),
        # A color that equals an int but is not one is named like one out of
        # range, whether or not the set of colors equals 1..r.
        ((1.0, 2), 2, "color 1.0 at vertex 0 outside 1..2"),
        ((1, 1.5, 2), 2, "color 1.5 at vertex 1 outside 1..2"),
        ((True, 2), 2, "color True at vertex 0 outside 1..2"),
        ((), 0, "need r >= 1, got r=0"),
        ((1,), True, "r must be an int, got r=True"),
        ((1, 2), 2.0, "r must be an int, got r=2.0"),
        ((), 1, "coloring of an empty vertex set"),
        # A list would leave the frozen Coloring mutable and unhashable.
        ([1, 2, 1], 2, "colors must be a tuple, got list"),
    ):
        with pytest.raises(ColoringError) as info:
            Coloring(colors, r)
        assert str(info.value) == message


def test_is_canonical():
    assert is_canonical(Coloring((1, 1, 2, 3, 1, 1), 3))
    assert is_canonical(Coloring((1, 2, 2, 2, 2, 3), 3))
    assert not is_canonical(Coloring((1, 3, 3, 3, 3, 2), 3))
    assert not is_canonical(Coloring((2, 1), 2))


def test_canonicalize_relabels_by_first_appearance():
    c = canonicalize((5, 5, 9, 2, 5, 5))
    assert c.colors == (1, 1, 2, 3, 1, 1)
    assert c.r == 3
    assert is_canonical(c)
    # idempotent on canonical input
    assert canonicalize(c.colors) == c


def test_file_format_round_trip():
    for colors, r in (((1, 3, 3, 3, 3, 2), 3), ((1, 1), 1), ((1, 2, 3, 4), 4)):
        c = Coloring(colors, r)
        assert parse_coloring(coloring_to_text(c)) == c


def test_parse_coloring_rejections():
    with pytest.raises(ColoringFormatError):
        parse_coloring("6 3\n1 1 0 3 1 1\n")  # color 0
    with pytest.raises(ColoringFormatError):
        parse_coloring("6 3\n1 1 2 3 1\n")  # wrong count
    with pytest.raises(ColoringFormatError):
        parse_coloring("6 3\n1 1 1 1 1 1\n")  # not surjective
    with pytest.raises(ColoringFormatError):
        parse_coloring("6 3\n1 1 2 4 1 1\n")  # color above r
    with pytest.raises(ColoringFormatError):
        parse_coloring("not a header\n1 2\n")
    with pytest.raises(ColoringFormatError):
        parse_coloring("2 2\n1 2\nextra\n")
    with pytest.raises(ColoringFormatError, match="two integers"):
        parse_coloring("x 2\n1 2\n")
    with pytest.raises(ColoringFormatError, match="need n >= 1 and r >= 1"):
        parse_coloring("2 0\n1 1\n")
    for text, message in (
        ("not a header\n1 2\n", "header must be '<n> <r>', got 'not a header'"),
        ("x 2\n1 2\n", "header must be two integers, got 'x 2'"),
        ("2 2\n1 x\n", "color 'x' at vertex 1 is not an integer"),
    ):
        with pytest.raises(ColoringFormatError) as exc:
            parse_coloring(text)
        assert str(exc.value) == message, text
