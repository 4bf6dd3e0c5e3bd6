"""Reference engine for differential tests: the plain backtracking search.

This is the search loop awgraph used before forward checking.  It assigns
vertices in id order and colors in ascending order, checks each AP when its
largest vertex is assigned, and cuts a branch only when the remaining
vertices cannot supply the missing colors.  It shares no code with
awgraph.search._search beyond the AP table and takes the same arguments, so
tests can swap it in with monkeypatch to recompute any result.
"""

from __future__ import annotations

from collections.abc import Iterator

from awgraph.aps import ApTable
from awgraph.errors import BudgetExceededError


def _search(table: ApTable, r: int, budget: int) -> Iterator[tuple[int, tuple[int, ...], int]]:
    """Generate the canonical rainbow-free exact r-colorings in lex order.

    Consecutive solutions that share their first n - 1 colors are yielded as
    one batch (changed, colors, leaves): colors is the first of them, leaves
    has bit c - 1 set for the last color c of each, and changed is the first
    vertex at which colors differs from the solution before, found by
    comparing the two (0 for the first solution).  A batch is yielded once
    the next solution starts another, the search ends, or the budget runs
    out, before the budget error.

    One loop and no recursion.  Colors are bits (color c is 1 << (c - 1)), and
    depth v keeps vertex v's untried colors and the largest color used
    before v.  Entering vertex v computes its allowed colors once: 1..top+1
    (at most r), intersected with the colors of the other members of every
    AP whose largest vertex is v and whose other members are pairwise
    distinct, since any other color would make that AP rainbow.  Each node
    entered counts against the budget, leaves and pruned nodes included.
    """
    k = table.k
    n = table.n
    groups: list[list[tuple[int, ...]]] = [[] for _ in range(n)]
    for ap in table.aps:
        groups[ap.vertices[-1]].append(ap.vertices[:-1])
    bits = [0] * n
    untried = [0] * n
    tops = [0] * n
    nodes = 0
    v = top = 0
    previous = None
    batch = None
    while True:
        nodes += 1
        if nodes > budget:
            if batch is not None:
                yield batch
            raise BudgetExceededError(
                f"search expanded more than {budget} nodes (r={r}, n={n})"
            )
        allowed = 0
        if v == n:
            if top == r:
                colors = tuple(map(int.bit_length, bits))
                changed = 0
                if previous is not None:
                    while colors[changed] == previous[changed]:
                        changed += 1
                previous = colors
                if batch is not None and changed == n - 1:
                    batch = (batch[0], batch[1], batch[2] | bits[n - 1])
                else:
                    if batch is not None:
                        yield batch
                    batch = (changed, colors, bits[n - 1])
        elif r - top <= n - v:
            allowed = (1 << (top + 1 if top < r else r)) - 1
            # Fewer than k - 1 colors in use cannot make an AP rainbow.
            if top >= k - 1:
                if k == 3:
                    for a, b in groups[v]:
                        ba = bits[a]
                        bb = bits[b]
                        if ba != bb:
                            allowed &= ba | bb
                else:
                    for others in groups[v]:
                        seen = 0
                        for u in others:
                            bu = bits[u]
                            if seen & bu:
                                break
                            seen |= bu
                        else:
                            allowed &= seen
        while not allowed:
            if v == 0:
                if batch is not None:
                    yield batch
                return
            v -= 1
            allowed = untried[v]
            top = tops[v]
        low = allowed & -allowed
        untried[v] = allowed ^ low
        tops[v] = top
        bits[v] = low
        c = low.bit_length()
        if c > top:
            top = c
        v += 1
