"""Exact vertex colorings and their plain-text file format.

An exact r-coloring assigns every vertex one of the colors 1..r and uses all
of them.  The canonical representative of a relabeling class is the
restricted-growth form: color 1 on vertex 0, and each later entry at most one
above the maximum seen so far.

Every construction checks exactness: Coloring(colors, r) itself, and with it
parse_coloring, certificate parsing and verification, the search results,
the constructions and compute_aw's closed-form witness.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice

from .errors import AwgraphError
from .graphs import content_lines, int_pair


class ColoringError(AwgraphError, ValueError):
    """Invalid coloring (bad color values or missing colors)."""


class ColoringFormatError(ColoringError):
    """Malformed coloring file text."""


@dataclass(frozen=True, slots=True)
class Coloring:
    """Exact (surjective) r-coloring of vertices 0..n-1 with colors 1..r.

    Each color and r are ints; a bool, or a float such as 1.0, is rejected.
    Every vertex is checked, and the first bad one is named; a coloring with
    every color in 1..r is exact iff r distinct colors occur.
    """

    colors: tuple[int, ...]
    r: int

    def __post_init__(self) -> None:
        if type(self.r) is not int:
            raise ColoringError(f"r must be an int, got r={self.r!r}")
        if self.r < 1:
            raise ColoringError(f"need r >= 1, got r={self.r}")
        if not self.colors:
            raise ColoringError("coloring of an empty vertex set")
        # Per vertex, since a min/max test would let NaN through.
        for v, c in enumerate(self.colors):
            if type(c) is not int or not 1 <= c <= self.r:
                raise ColoringError(f"color {c} at vertex {v} outside 1..{self.r}")
        used = set(self.colors)
        if len(used) < self.r:
            # The first ten unused colors are named, read from 1..n + 11 at
            # most, and any more as "...".
            unused = (c for c in range(1, self.r + 1) if c not in used)
            named = ", ".join(map(str, islice(unused, 10)))
            more = ", ..." if next(unused, None) else ""
            raise ColoringError(f"not exact: colors [{named}{more}] unused")

    @property
    def n(self) -> int:
        return len(self.colors)


def parse_coloring_fields(text: str) -> tuple[tuple[int, ...], int]:
    """Structural parse of the coloring file format: the colors and r.

    Reads "<n> <r>" then n colors in 1..r; lines starting with '#' and blank
    lines are ignored.  The first bad color is named with its vertex.
    Exactness is left to Coloring itself.
    """
    lines = content_lines(text)
    if len(lines) != 2:
        raise ColoringFormatError(
            f"expected header and one color line, got {len(lines)} lines"
        )
    n, r = int_pair(lines[0], "header", "<n> <r>", ColoringFormatError)
    if n < 1 or r < 1:
        raise ColoringFormatError(f"need n >= 1 and r >= 1, got n={n} r={r}")
    parts = lines[1].split()
    if len(parts) != n:
        raise ColoringFormatError(f"expected {n} colors, found {len(parts)}")
    values = []
    for v, part in enumerate(parts):
        try:
            c = int(part)
        except ValueError:
            raise ColoringFormatError(
                f"color {part!r} at vertex {v} is not an integer"
            ) from None
        if not 1 <= c <= r:
            raise ColoringFormatError(
                f"color {c} at vertex {v} outside 1..{r}"
            )
        values.append(c)
    return tuple(values), r


def parse_coloring(text: str) -> Coloring:
    """Parse coloring file text into an exact Coloring; non-exact is rejected."""
    values, r = parse_coloring_fields(text)
    try:
        return Coloring(values, r)
    except ColoringError as exc:
        raise ColoringFormatError(str(exc)) from None


def coloring_lines(changes, r: int):
    """Yield each coloring of a stream of (changed, colors) pairs as one line, no newline.

    A line is the colors as space-separated decimals, each color in 1..r.
    changed is the first vertex at which colors differs from the colors of
    the pair before; it is 0 for the first pair and for a coloring that
    shares nothing with the one before.  The text of every prefix of the
    last line is kept, so a line costs its changed suffix colors[changed:],
    one name lookup and one string append each, plus a copy of its bytes.
    """
    names = [str(c) for c in range(r + 1)]
    spaced = [name + " " for name in names]
    texts = [""]  # texts[i] is the text of colors[:i], each color followed by a space
    append = texts.append
    for changed, colors in changes:
        del texts[changed + 1:]
        line = texts[changed]
        for c in colors[changed:-1]:
            line += spaced[c]
            append(line)
        yield line + names[colors[-1]]


def coloring_line(coloring: Coloring) -> str:
    """The colors of one coloring as the line coloring_lines writes for it."""
    return next(coloring_lines([(0, coloring.colors)], coloring.r))


def coloring_to_text(coloring: Coloring) -> str:
    """Inverse of parse_coloring."""
    return f"{coloring.n} {coloring.r}\n{coloring_line(coloring)}\n"
