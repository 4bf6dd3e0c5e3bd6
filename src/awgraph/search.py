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
is restricted to those colors.  A choice is rejected when it empties a
domain, or when it leaves too few vertices with unrestricted domains to bring
in the colors still missing from 1..r; both are decided at the choice, so no
node is entered only to be cut.  Both cut only subtrees without a solution,
so the results are those of the plain search.  The last vertex restricts
nothing, so each choice at vertex n - 2 walks its colors as leaves in one
inner loop, and k = 3 and k = 4 APs are read by loops of their own.

A search takes only the AP table, which fixes n and k, and r.  The engine is
one generator, _search, read only by the stream iter_rainbow_free_changes.
It yields each solution as a pair (changed, cols): cols is the search's own
list of colors, and changed is the first vertex whose color differs from the
solution before (0 for the first), so a reader that keeps the previous row
need only redo cols[changed:].  The first-solution and list operations read
that stream and build each Coloring from a tuple copy of cols through its
checked constructor.

aw_from_distances is the one computation of aw: the scan over r, the table
build and the closed-form witness (fewer than k colors, written without a
search).  It reads distance rows from any source: compute_aw feeds it a
graph's breadth-first rows, and constructions.verify_product_bound the rows
of G box H summed from its factors', so no product graph is built there.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass

from .aps import ApTable, check_k, enumerate_k_aps
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


def _over_budget(budget: int, r: int, n: int) -> BudgetExceededError:
    return BudgetExceededError(f"search expanded more than {budget} nodes (r={r}, n={n})")


def _search(table: ApTable, r: int, budget: int) -> Iterator[tuple[int, list[int]]]:
    """Generate the canonical rainbow-free exact r-colorings in lex order.

    Each solution is yielded as a pair (changed, cols).  cols is the search's
    own list of colors, which it changes once resumed: a caller that keeps a
    solution copies it first.  changed is the first vertex at which cols
    differs from the solution yielded before, and 0 for the first solution.
    A caller that stops early expands no further node.

    One loop and no recursion.  Colors are bits (color c is 1 << (c - 1)), and
    every vertex keeps a domain of colors it may still take.  Choosing a color
    for vertex v reads table.ahead[v], the APs whose second-largest vertex is
    v: when an AP's k - 1 assigned members carry pairwise distinct colors,
    its largest member w is restricted to those colors, since any other
    would make the AP rainbow.  A choice that empties a domain is rejected
    without entering the next vertex.  Neither the rejection nor the domains
    passed on depend on the order of the APs in a list.  Entering vertex v
    allows its domain within 1..top+1 (at most r); a restricted domain is
    already within 1..top.  An entry of ahead[v] is
    (a, w) at k = 3 and the sorted vertex tuple vs, ending in v and w, at
    every other k; k = 3 and k = 4 have loops of their own, others walk vs.

    doms[v] is the list of domains in force on entering v.  A choice at v
    passes doms[v] on to v + 1 unchanged, or a copy of it made at its first
    restriction, so a list in doms is never changed and backtracking to v
    has nothing to undo.

    A restricted domain holds only colors already in use, so only unassigned
    vertices with an unrestricted domain (free ones) can bring in the r - top
    colors still missing.  slack is their number less r - top, n - r >= 0 at
    the root, and a node with negative slack holds no solution.  Only two
    events lower it, each by one: a free vertex taking a color in use, and a
    restriction of a free vertex's domain.  So entering a free vertex at
    slack 0 allows only top + 1, and a restriction that takes slack below 0
    rejects the choice as an emptied domain does, without reading the rest
    of ahead[v].  Every node entered then has slack >= 0: no node is entered
    only to be cut, and the nodes skipped are exactly those a test on entry
    would cut.  With r < k no AP can be rainbow, so no choice reads
    ahead[v] and the domains stay unrestricted.  Each node entered counts
    against the budget, leaves included.

    No AP has n - 1 as its second-largest vertex, so ahead[n - 1] is empty
    and a color chosen for the last vertex neither restricts a domain nor is
    rejected.  So the loop never enters n - 1: each accepted choice at n - 2
    counts that node, takes the allowed colors of n - 1 from the domains it
    passes on, walks them in ascending order as leaves, each counted as a
    node and yielded, and chooses again at n - 2 as if backtracked to from
    n - 1.  The nodes counted and their order are those of entering n - 1
    through the loop; with n = 1 the root is the last vertex, handled before
    the loop.  At slack >= 0 either top = r already, or n - 1 is free with
    top = r - 1 at slack 0 and its one allowed color is r.  So a leaf's
    colors are in restricted-growth form and reach r, and each result is an
    exact r-coloring.  Between two yields every vertex from the lowest one
    backtracked to up to n - 1 takes a new color, the lowest one a larger
    color than before, and no vertex below it changes, so changed is the
    lowest vertex reached by backtracking since the last yield, or n - 1
    between two leaves of one walk.
    """
    k = table.k
    n = table.n
    full = (1 << r) - 1
    # Below this many colors in use no AP restricts a domain: k - 1, and with
    # r < k, where no AP can be rainbow, r + 1, which top never reaches.
    restrict_at = k - 1 if r >= k else r + 1
    # From this top on a free vertex allows all of 1..r, below it 1..top + 1.
    all_at = r - 1
    ahead = table.ahead
    cols = [0] * n  # the chosen colors as ints, yielded at each solution
    if n == 1:
        # The root is the last vertex too, and r = 1: it and its one leaf.
        if budget < 2:
            raise _over_budget(budget, r, n)
        cols[0] = 1
        yield 0, cols
        return
    doms: list[list[int]] = [[full] * n] * (n - 1)  # doms[v > 0] is set on entering v
    bits = [0] * n
    untried = [0] * n
    tops = [0] * n
    slacks = [0] * n
    nodes = 0
    last = n - 1
    pen = n - 2  # a choice here enters the last vertex on the spot
    v = top = changed = 0
    # Unassigned vertices with an unrestricted domain, less the colors missing.
    slack = n - r
    while True:
        nodes += 1
        if nodes > budget:
            raise _over_budget(budget, r, n)
        allowed = doms[v][v]
        if allowed == full:
            # v stops being free; a new color at the choice gives the 1 back.
            slack -= 1
            if slack < 0:
                # A color in use would leave too few free vertices: only top + 1.
                allowed = 1 << top
            elif top < all_at:
                allowed = (2 << top) - 1
        tops[v] = top
        slacks[v] = slack
        while True:
            while True:
                while not allowed:
                    if v == 0:
                        return
                    v -= 1
                    if v < changed:
                        changed = v
                    allowed = untried[v]
                low = allowed & -allowed
                allowed ^= low
                top = tops[v]
                slack = slacks[v]
                c = low.bit_length()
                if c > top:
                    top = c
                    slack += 1
                dom = given = doms[v]
                if top < restrict_at:
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
                                    slack -= 1
                                    if slack < 0:
                                        break
                                if dom is given:
                                    dom = given[:]
                                dom[w] = nd
                    else:
                        break
                elif k == 4:
                    for a, b, _, w in ahead[v]:
                        ba = bits[a]
                        bb = bits[b]
                        if ba != bb and not (ba | bb) & low:
                            d = dom[w]
                            nd = d & (ba | bb | low)
                            if nd != d:
                                if not nd:
                                    break
                                if d == full:
                                    slack -= 1
                                    if slack < 0:
                                        break
                                if dom is given:
                                    dom = given[:]
                                dom[w] = nd
                    else:
                        break
                else:
                    # Until v is assigned only this loop reads bits[v].  -1 meets every
                    # color, so a walk of vs stops at v, and reaches v exactly when
                    # low and the members below v carry pairwise distinct colors.
                    bits[v] = -1
                    for vs in ahead[v]:
                        seen = low
                        for u in vs:
                            bu = bits[u]
                            if seen & bu:
                                break
                            seen |= bu
                        if u == v:
                            w = vs[-1]
                            d = dom[w]
                            nd = d & seen
                            if nd != d:
                                if not nd:
                                    break
                                if d == full:
                                    slack -= 1
                                    if slack < 0:
                                        break
                                if dom is given:
                                    dom = given[:]
                                dom[w] = nd
                    else:
                        break
            cols[v] = c
            if v != pen:
                break
            # Enter the last vertex: count it, then walk its allowed colors as
            # leaves.  By the loop top's rule a free last vertex at slack 0
            # (so top = r - 1) allows only r; at slack > 0 top = r already.
            # Budget checked at the first leaf: no accepted choice empties dom[last].
            nodes += 1
            leaves = dom[last]
            if leaves == full and not slack:
                leaves = 1 << top
            while leaves:
                leaf = leaves & -leaves
                leaves ^= leaf
                nodes += 1
                if nodes > budget:
                    raise _over_budget(budget, r, n)
                cols[last] = leaf.bit_length()
                yield changed, cols
                changed = last
            # Choose again at pen, as a backtrack from the last vertex would.
            changed = pen
        untried[v] = allowed
        bits[v] = low
        v += 1
        doms[v] = dom


# ======================================================================
# Public operations
# ======================================================================


def check_r(r, n: int) -> None:
    """Raise ValueError unless r is an int (not a bool or a float such as 2.0) in 1..n."""
    if type(r) is not int:
        raise ValueError(f"r must be an int, got r={r!r}")
    if not 1 <= r <= n:
        raise ValueError(f"need 1 <= r <= n, got r={r} with n={n}")


def check_budget(budget) -> None:
    """Raise ValueError unless budget is an int (not a bool or a float)."""
    if type(budget) is not int:
        raise ValueError(f"budget must be an int, got budget={budget!r}")


def exists_rainbow_free_coloring(
    table: ApTable,
    r: int,
    *,
    budget: int = DEFAULT_NODE_BUDGET,
) -> Coloring | None:
    """Lexicographically least canonical rainbow-free exact r-coloring, or None.

    Raises BudgetExceededError once this call enters more than budget nodes.
    """
    for _, cols in iter_rainbow_free_changes(table, r, budget=budget):
        return Coloring(tuple(cols), r)
    return None


def iter_rainbow_free_changes(
    table: ApTable,
    r: int,
    *,
    budget: int = DEFAULT_NODE_BUDGET,
) -> Iterator[tuple[int, list[int]]]:
    """Each canonical rainbow-free exact r-coloring, in lex order, as (changed, cols).

    cols is the search's own list, valid until the next read; changed is the
    first vertex at which it differs from the solution before (0 for the
    first).  r must be an int in 1..n (check_r) and budget an int
    (check_budget); else the call raises ValueError.  The search runs as
    the iterator is read, so memory does not grow with the number of
    solutions.  Raises BudgetExceededError from the read on which more than
    budget nodes have been entered, the first read for a budget below 1.
    """
    check_r(r, table.n)
    check_budget(budget)
    return _search(table, r, budget)


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
    changes = iter_rainbow_free_changes(table, r, budget=budget)
    return [Coloring(tuple(cols), r) for _, cols in changes]


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
    rainbow-free exact r-coloring.  The search runs on g's breadth-first
    distance rows through aw_from_distances, which states the scan, the
    witness and the budget.
    """
    return aw_from_distances(g.n, k, lambda: all_pairs_distances(g), budget=budget)


def aw_from_distances(
    n: int,
    k: int,
    distances: Callable[[], Sequence[Sequence[int]]],
    *,
    budget: int = DEFAULT_NODE_BUDGET,
) -> AwResult:
    """aw(G, k) of the connected n-vertex graph G whose distance rows distances() returns.

    Color counts r = k, k+1, ... are checked in ascending order and each
    verdict is recorded.  The scan stops at the first r that fails: merging
    two color classes of a rainbow-free exact r-coloring gives a
    rainbow-free exact (r-1)-coloring, so no larger r can succeed.  The
    budget caps the nodes of each r's search separately.

    When aw - 1 < k no (aw-1)-coloring can be rainbow, so the witness is the
    lex-least canonical exact one, (1,) * (n - aw + 2) + (2, ..., aw - 1),
    built without a search and so without budget.  Raises ValueError for a
    k or a budget that check_k or check_budget refuses, searched or not.
    distances is called once k and budget have passed, and only when
    k <= n, so a refused argument or a graph too small for any k-AP costs
    no distance row.
    """
    check_k(k)
    check_budget(budget)
    aw = n + 1
    witness: Coloring | None = None
    if k <= n:
        table = enumerate_k_aps(distances(), k)
        for r in range(k, n + 1):
            c = exists_rainbow_free_coloring(table, r, budget=budget)
            if c is None:
                aw = r
                break
            witness = c
    if witness is None and aw > 2:
        witness = Coloring((1,) * (n - aw + 2) + tuple(range(2, aw)), aw - 1)
    return AwResult(aw, k, n, per_r_verdicts(k, n, aw), witness)
