"""Exhaustive symmetry-reduced search for rainbow-free exact colorings.

Colorings are explored in restricted-growth (canonical) form only, which
quotients out color relabeling: every class of an exact r-coloring under the
free relabeling action has exactly one canonical member, so counts scale by
r! when converted back to labeled colorings.

Search order is fixed: vertices are assigned in id order and colors in
ascending order, so the first coloring found is the lexicographically least
canonical one and enumeration output is lex-sorted.  The search forward
checks (Haralick & Elliott, 1980): each vertex keeps a domain of colors, and
once k - 1 members of an AP carry pairwise distinct colors its last member
is restricted to those colors.  A choice that empties a domain is rejected,
and a branch is cut when too few vertices with unrestricted domains remain
to bring in the colors still missing from 1..r.  Both cut only subtrees
without a solution, so the results are those of the plain search.

A search takes only the AP table, which fixes n and k, and r.  The engine is
one generator, _search, read only by the stream iter_rainbow_free_colorings.
The first-solution and list operations read that stream and build each
Coloring through its checked constructor.  compute_aw writes a witness with
fewer than k colors in closed form, without a search.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

from .aps import ApTable, enumerate_k_aps
from .coloring import Coloring
from .errors import BudgetExceededError
from .graphs import Graph, all_pairs_distances

DEFAULT_NODE_BUDGET = 10**9


@dataclass(frozen=True)
class AwResult:
    """Outcome of an anti-van der Waerden computation.

    per_r records, for each color count examined in ascending order, whether
    a rainbow-free exact r-coloring exists.  witness is a lexicographically
    least canonical rainbow-free exact (aw-1)-coloring; it is omitted when
    aw - 1 < 2 (a monochromatic witness certifies nothing).
    """

    aw: int
    k: int
    n: int
    per_r: tuple[tuple[int, bool], ...]
    witness: Coloring | None


# ======================================================================
# Backtracking engine
# ======================================================================


def _search(table: ApTable, r: int, budget: int) -> Iterator[list[int]]:
    """Generate the canonical rainbow-free exact r-colorings in lex order.

    Each solution is yielded as the search's own list of colors, which it
    changes once resumed: a caller that keeps a solution copies it first.  A
    caller that stops early expands no further node.

    One loop and no recursion.  Colors are bits (color c is 1 << (c - 1)), and
    every vertex keeps a domain of colors it may still take.  Choosing a color
    for vertex v reads table.ahead[v], the APs whose second-largest vertex is
    v: when an AP's k - 1 assigned members carry pairwise distinct colors,
    its largest member w is restricted to those colors, since any other
    would make the AP rainbow.  A choice that empties a domain is rejected
    without entering the next vertex.  Neither the rejection nor the domains
    passed on depend on the order of the APs in a list.  Entering vertex v
    allows its domain within 1..top+1 (at most r).

    doms[v] is the list of domains in force on entering v.  A choice at v
    passes doms[v] on to v + 1 unchanged, or a copy of it made at its first
    restriction, so a list in doms is never changed and backtracking to v
    has nothing to undo.

    A restricted domain holds only colors already in use, so only unassigned
    vertices with an unrestricted domain can bring in the r - top colors still
    missing; a node with fewer of them is cut.  With r < k no AP can be
    rainbow and the domains stay unrestricted.  Each node entered counts
    against the budget, leaves and cut nodes included.

    A leaf is yielded only when top == r: its colors are in restricted-growth
    form and reach r, so each result is an exact r-coloring.
    """
    k = table.k
    n = table.n
    full = (1 << r) - 1
    # With r < k no AP can restrict a domain, so none is read.
    ahead = table.ahead if r >= k else [()] * n
    doms: list[list[int]] = [[full] * n] * (n + 1)  # doms[v > 0] is set on entering v
    bits = [0] * n
    cols = [0] * n  # the chosen colors as ints, yielded at each solution
    untried = [0] * n
    tops = [0] * n
    frees = [0] * n
    nodes = 0
    v = top = 0
    free = n  # unassigned vertices whose domain is unrestricted
    while True:
        nodes += 1
        if nodes > budget:
            raise BudgetExceededError(
                f"search expanded more than {budget} nodes (r={r}, n={n})"
            )
        allowed = 0
        if v == n:
            if top == r:
                yield cols
        elif r - top <= free:
            d = doms[v][v]
            allowed = d & ((1 << (top + 1 if top < r else r)) - 1)
            tops[v] = top
            frees[v] = free - 1 if d == full else free
        while True:
            while not allowed:
                if v == 0:
                    return
                v -= 1
                allowed = untried[v]
            low = allowed & -allowed
            allowed ^= low
            top = tops[v]
            c = low.bit_length()
            if c > top:
                top = c
            free = frees[v]
            dom = given = doms[v]
            # Fewer than k - 1 colors in use cannot restrict anything.
            if top < k - 1:
                break
            if k == 3:
                for a, w in ahead[v]:
                    ba = bits[a]
                    if ba != low:
                        d = dom[w]
                        nd = d & (ba | low)
                        if nd != d:
                            if not nd:
                                break
                            if d == full:
                                free -= 1
                            if dom is given:
                                dom = given[:]
                            dom[w] = nd
                else:
                    break
            else:
                for lower, w in ahead[v]:
                    seen = low
                    for u in lower:
                        bu = bits[u]
                        if seen & bu:
                            break
                        seen |= bu
                    else:
                        d = dom[w]
                        nd = d & seen
                        if nd != d:
                            if not nd:
                                break
                            if d == full:
                                free -= 1
                            if dom is given:
                                dom = given[:]
                            dom[w] = nd
                else:
                    break
        untried[v] = allowed
        bits[v] = low
        cols[v] = c
        v += 1
        doms[v] = dom


# ======================================================================
# Public operations
# ======================================================================


def exists_rainbow_free_coloring(
    table: ApTable,
    r: int,
    *,
    budget: int = DEFAULT_NODE_BUDGET,
) -> Coloring | None:
    """Lexicographically least canonical rainbow-free exact r-coloring, or None.

    Raises BudgetExceededError once this call enters more than budget nodes.
    """
    for colors in iter_rainbow_free_colorings(table, r, budget=budget):
        return Coloring(colors, r)
    return None


def iter_rainbow_free_colorings(
    table: ApTable,
    r: int,
    *,
    budget: int = DEFAULT_NODE_BUDGET,
) -> Iterator[tuple[int, ...]]:
    """The colors of each canonical rainbow-free exact r-coloring, in lex order, as found.

    r is checked on the call; the search runs as the iterator is read, so
    memory does not grow with the number of solutions.  Raises
    BudgetExceededError from the read on which more than budget nodes have
    been entered.
    """
    if not 1 <= r <= table.n:
        raise ValueError(f"need 1 <= r <= n, got r={r} with n={table.n}")
    return map(tuple, _search(table, r, budget))


def enumerate_rainbow_free_colorings(
    table: ApTable,
    r: int,
    *,
    budget: int = DEFAULT_NODE_BUDGET,
) -> list[Coloring]:
    """All canonical rainbow-free exact r-colorings in lexicographic order.

    Multiply the count by r! for the number of labeled exact r-colorings
    avoiding rainbow k-APs (the relabeling action is free).  Raises
    BudgetExceededError once this call enters more than budget nodes.
    """
    return [Coloring(c, r) for c in iter_rainbow_free_colorings(table, r, budget=budget)]


def per_r_verdicts(k: int, n: int, aw: int) -> tuple[tuple[int, bool], ...]:
    """The per_r that compute_aw records when it finds aw: r = k..min(aw, n), true below aw."""
    return tuple((r, r < aw) for r in range(k, min(aw, n) + 1))


def compute_aw(
    g: Graph,
    k: int,
    *,
    budget: int = DEFAULT_NODE_BUDGET,
) -> AwResult:
    """Anti-van der Waerden number aw(g, k) by ascending exhaustive search.

    aw is the least r such that every exact r-coloring contains a rainbow
    k-AP, with aw = n + 1 by convention when every r <= n admits a
    rainbow-free exact r-coloring.  Color counts r = k, k+1, ... are checked
    in ascending order and each verdict is recorded.  The scan stops at the
    first r that fails: merging two color classes of a rainbow-free exact
    r-coloring gives a rainbow-free exact (r-1)-coloring, so no larger r can
    succeed.  The budget caps the nodes of each r's search separately.

    When aw - 1 < k no (aw-1)-coloring can be rainbow, so the witness is the
    lex-least canonical exact one, (1,) * (n - aw + 2) + (2, ..., aw - 1),
    built without a search and so without budget.
    """
    if k < 2:
        raise ValueError(f"need k >= 2, got k={k}")
    n = g.n
    aw = n + 1
    witness: Coloring | None = None
    if k <= n:
        table = enumerate_k_aps(all_pairs_distances(g), k)
        for r in range(k, n + 1):
            c = exists_rainbow_free_coloring(table, r, budget=budget)
            if c is None:
                aw = r
                break
            witness = c
    if witness is None and aw > 2:
        witness = Coloring((1,) * (n - aw + 2) + tuple(range(2, aw)), aw - 1)
    return AwResult(aw, k, n, per_r_verdicts(k, n, aw), witness)
