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

from .errors import AwgraphError


class ColoringError(AwgraphError, ValueError):
    """Invalid coloring (bad color values or missing colors)."""


class ColoringFormatError(ColoringError):
    """Malformed coloring file text."""


@dataclass(frozen=True, slots=True)
class Coloring:
    """Exact (surjective) r-coloring of vertices 0..n-1 with colors 1..r."""

    colors: tuple[int, ...]
    r: int

    def __post_init__(self) -> None:
        if self.r < 1:
            raise ColoringError(f"need r >= 1, got r={self.r}")
        if not self.colors:
            raise ColoringError("coloring of an empty vertex set")
        # One set comparison in C accepts an exact coloring.  Anything else
        # takes the per-vertex checks, which name the first bad vertex (a
        # min/max range test would let a NaN color through).
        used = set(self.colors)
        if used != set(range(1, self.r + 1)):
            for v, c in enumerate(self.colors):
                if not 1 <= c <= self.r:
                    raise ColoringError(f"color {c} at vertex {v} outside 1..{self.r}")
            if len(used) != self.r:
                missing = sorted(set(range(1, self.r + 1)) - used)
                raise ColoringError(f"not exact: colors {missing} unused")

    @property
    def n(self) -> int:
        return len(self.colors)


def parse_coloring_fields(text: str) -> tuple[tuple[int, ...], int]:
    """Structural parse of the coloring file format: the colors and r.

    Reads "<n> <r>" then n colors in 1..r; lines starting with '#' and blank
    lines are ignored.  Exactness is left to Coloring itself.
    """
    lines = [
        ln.strip()
        for ln in text.splitlines()
        if ln.strip() and not ln.lstrip().startswith("#")
    ]
    if len(lines) != 2:
        raise ColoringFormatError(
            f"expected header and one color line, got {len(lines)} lines"
        )
    head = lines[0].split()
    if len(head) != 2:
        raise ColoringFormatError(f"header must be '<n> <r>', got {lines[0]!r}")
    try:
        n, r = int(head[0]), int(head[1])
    except ValueError:
        raise ColoringFormatError(
            f"header must be two integers, got {lines[0]!r}"
        ) from None
    if n < 1 or r < 1:
        raise ColoringFormatError(f"need n >= 1 and r >= 1, got n={n} r={r}")
    parts = lines[1].split()
    if len(parts) != n:
        raise ColoringFormatError(f"expected {n} colors, found {len(parts)}")
    try:
        values = tuple(int(p) for p in parts)
    except ValueError:
        raise ColoringFormatError("colors must be integers") from None
    for v, c in enumerate(values):
        if not 1 <= c <= r:
            raise ColoringFormatError(
                f"color {c} at vertex {v} outside 1..{r}"
            )
    return values, r


def parse_coloring(text: str) -> Coloring:
    """Parse coloring file text into an exact Coloring; non-exact is rejected."""
    values, r = parse_coloring_fields(text)
    try:
        return Coloring(values, r)
    except ColoringError as exc:
        raise ColoringFormatError(str(exc)) from None


def coloring_lines(colorings, r: int):
    """Yield each sequence of colors as one line of space-separated decimals, no newline.

    Every color must lie in 1..r.  Colors are looked up in one table of the
    names of 0..r, so a color costs a list index rather than a str() call;
    an enumeration prints many colorings of one r.
    """
    names = [str(c) for c in range(r + 1)]
    for colors in colorings:
        yield " ".join([names[c] for c in colors])


def coloring_to_text(coloring: Coloring) -> str:
    """Inverse of parse_coloring."""
    return f"{coloring.n} {coloring.r}\n{next(coloring_lines([coloring.colors], coloring.r))}\n"
