"""Arithmetic progressions of a graph under the shortest-path metric.

A k-AP is a set of k distinct vertices admitting at least one ordering
x_1, ..., x_k with d(x_i, x_{i+1}) = d for a single common difference d >= 1.
Orderings are existential: a vertex set is stored once even when several
orderings (possibly with different d) realize it.  Degenerate progressions
with repeated vertices are excluded throughout.

An ApTable has one form at every k: the lists the search reads, which group
the APs by their second-largest vertex.  enumerate_k_aps and
brute_force_k_aps file each AP they find straight into them, so no table
is sorted.  Each ArithmeticProgression is named from its own vertex set and
distances, with one realizing ordering: ApTable.aps, the one view of a
table, sorts and names every set on first access, and find_rainbow_ap
names only the one it returns.  The ordering is fixed by one rule per k:

- k = 3: the smallest member equidistant from the other two goes in the
  middle, with the two ends ascending;
- every other k: the lexicographically least ordering with a constant step.

At k = 3, scan_3aps counts the APs and names the first rainbow one under
a coloring, the one find_rainbow_ap would name, without building a table
or reading distance rows: it reads the per-vertex distance rings that
graphs.distance_rings grows as bitmasks.  Its count corrects for the
equilateral sets, whose three pairwise distances are equal.  By the parity
rule (in a bipartite graph the three distances of any three vertices sum to
an even number) a bipartite graph, such as any grid, has none at odd d, so
scan_3aps looks for them only in even rings there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, partial
from itertools import chain, permutations

from .errors import BudgetExceededError

BRUTE_FORCE_TUPLE_LIMIT = 10**8


@dataclass(frozen=True)
class ArithmeticProgression:
    """One k-AP: its vertex set (sorted) plus one realizing ordering."""

    vertices: tuple[int, ...]
    witness: tuple[int, ...]
    d: int


class ApTable:
    """All k-APs of the graph whose distance rows are dist.

    ahead[s] lists the APs whose second-largest vertex is s, in no fixed
    order, as (smallest vertex, largest vertex) at k = 3 and as sorted
    vertex tuples at every other k; a table is built as these lists and
    never changes them.  Its one view, aps, holds each AP's
    ArithmeticProgression, named by the module's ordering rule, in
    lexicographic order of the sorted vertex tuples; it is built on first
    access, and no search or check reads it.
    """

    def __init__(self, k: int, dist: tuple[tuple[int, ...], ...], ahead: list[list[tuple]]):
        self.k = k
        self.dist = dist
        self.ahead = ahead

    @property
    def n(self) -> int:
        return len(self.dist)

    @cached_property
    def aps(self) -> tuple[ArithmeticProgression, ...]:
        return tuple(map(partial(_named, self.k, self.dist), sorted(_vertex_sets(self))))


def _vertex_sets(table: ApTable):
    """Each AP of table as its sorted vertex tuple, in no fixed order."""
    if table.k == 3:
        return ((a, s, w) for s, pairs in enumerate(table.ahead) for a, w in pairs)
    return chain.from_iterable(table.ahead)


def _named(k: int, rows, vs: tuple[int, ...]) -> ArithmeticProgression:
    """The AP on the vertex set vs, with the ordering the module's rule gives it."""
    w = _middle_first(vs, rows) if k == 3 else _least_ordering(vs, rows)
    return ArithmeticProgression(vs, w, rows[w[0]][w[1]])


def _middle_first(vs: tuple[int, int, int], rows) -> tuple[int, int, int]:
    """The ordering of the 3-AP vs that puts its smallest possible middle in the middle."""
    a, b, c = vs
    if rows[a][b] == rows[a][c]:
        return (b, a, c)
    if rows[b][a] == rows[b][c]:
        return vs
    return (a, c, b)


def _least_ordering(vs: tuple[int, ...], rows) -> tuple[int, ...]:
    """The least constant-step ordering of the AP vs: the first _orderings finds in vs alone."""
    sub = [[rows[a][b] for b in vs] for a in vs]
    return tuple(vs[i] for i in next(_orderings(sub, len(vs))))


def _orderings(rows, k: int):
    """Constant-step orderings of k distinct vertices ending above their start, in lex order.

    Depth-first extension, on an explicit stack, of ordered partial
    progressions x_1, x_2, ... with d = d(x_1, x_2), adding unused vertices
    at distance d from the last one in ascending order.  Every AP is found
    in both directions; the one starting above its end is dropped, and it
    is never an AP's least ordering, since its reverse is smaller.  The
    yielded list is reused; copy it to keep it.
    """
    n = len(rows)
    # at[x][d]: the vertices at distance d from x, ascending.
    at: list[dict[int, list[int]]] = [{} for _ in range(n)]
    for x, row in enumerate(rows):
        for y, dy in enumerate(row):
            at[x].setdefault(dy, []).append(y)
    used = [False] * n  # membership of seq, so the check does not scan it
    for x1 in range(n):
        row = rows[x1]
        for x2 in range(n):
            if x2 == x1:
                continue
            d = row[x2]
            seq = [x1]
            used[x1] = True
            pending = [iter((x2,))]  # pending[i] yields candidates for seq[i + 1]
            while pending:
                for y in pending[-1]:
                    if not used[y]:
                        break
                else:
                    pending.pop()
                    used[seq.pop()] = False
                    continue
                seq.append(y)
                used[y] = True
                if len(seq) < k:
                    pending.append(iter(at[y].get(d, ())))
                    continue
                if x1 < y:
                    yield seq
                used[seq.pop()] = False


def check_k(k) -> None:
    """Raise ValueError unless k is an int (not a bool or a float such as 3.0) and k >= 2."""
    if type(k) is not int:
        raise ValueError(f"k must be an int, got k={k!r}")
    if k < 2:
        raise ValueError(f"k-APs need k >= 2, got k={k}")


def enumerate_k_aps(dist: tuple[tuple[int, ...], ...], k: int) -> ApTable:
    """All k-APs of the graph whose distance rows are dist.

    k = 3: a set {a, b, c} qualifies iff some member is equidistant from the
    other two, so middle vertices b are scanned and the others put in rings
    by their distance from b; each pair a < c sharing a ring closes a
    progression, kept only from its smallest middle and filed straight into
    ahead under its second-largest vertex, so no set is built or sorted.
    Every other k: each ordering that _orderings finds is reduced to its
    sorted vertex set, and each set is filed once, with no sort of the sets.
    """
    check_k(k)
    ahead: list[list[tuple]] = [[] for _ in dist]
    if k > len(dist):
        return ApTable(k, dist, ahead)  # no k distinct vertices to order
    if k != 3:
        for vs in {tuple(sorted(seq)) for seq in _orderings(dist, k)}:
            ahead[vs[-2]].append(vs)
        return ApTable(k, dist, ahead)
    for b, row in enumerate(dist):
        rings: list[list[int]] = [[] for _ in range(max(row) + 1)]
        for a, d in enumerate(row):
            rings[d].append(a)
        # rings[0] is [b] alone, so every pair shares a ring with d >= 1.
        for d, ring in enumerate(rings):
            i = 0
            for a in ring:
                i += 1
                if b < a:
                    # b is the smallest member and so the smallest middle,
                    # and a is second-largest beside any c above it.
                    ahead_a = ahead[a]
                    for c in ring[i:]:
                        ahead_a.append((b, c))
                    continue
                # With d(a, b) = d(c, b) = d, a and c are middles iff
                # d(a, c) = d; then a < b is a smaller middle than b.
                row_a = dist[a]
                for c in ring[i:]:
                    if row_a[c] != d:
                        if c < b:
                            ahead[c].append((a, b))
                        else:
                            ahead[b].append((a, c))
    return ApTable(k, dist, ahead)


def brute_force_k_aps(dist: tuple[tuple[int, ...], ...], k: int) -> ApTable:
    """Oracle: test every ordered k-tuple of distinct vertices directly.

    Independent of enumerate_k_aps on purpose; refuses instances with more
    than BRUTE_FORCE_TUPLE_LIMIT candidate tuples.
    """
    check_k(k)
    n = len(dist)
    if math.perm(n, k) > BRUTE_FORCE_TUPLE_LIMIT:
        raise BudgetExceededError(
            f"brute force over {n}!/({n}-{k})! ordered tuples exceeds"
            f" {BRUTE_FORCE_TUPLE_LIMIT}"
        )
    found: set[tuple[int, ...]] = set()
    for tup in permutations(range(n), k):
        d = dist[tup[0]][tup[1]]
        if all(dist[tup[i]][tup[i + 1]] == d for i in range(1, k - 1)):
            found.add(tuple(sorted(tup)))
    ahead: list[list[tuple]] = [[] for _ in range(n)]
    for vs in found:
        ahead[vs[-2]].append((vs[0], vs[2]) if k == 3 else vs)
    return ApTable(k, dist, ahead)


def scan_3aps(rings: list[list[int]], colors) -> tuple[int, ArithmeticProgression | None]:
    """(number of 3-APs, first rainbow 3-AP under colors in table order or None).

    rings is graphs.distance_rings of the graph: rings[b][d] holds the
    vertices at distance d from b as a bitmask.  Every pair {a, c} of one
    ring with d >= 1 is a 3-AP with middle b, and a rainbow one exactly when
    a, c and b carry three colors: so some AP is rainbow iff, for some b and
    d, the members of rings[b][d] not colored like b carry two or more colors.

    Such a ring names one rainbow AP: its lowest member x not colored like b
    and its lowest member y colored like neither b nor x, with b.  A rainbow
    set {b, p, q} with middle b lies in that ring, and x <= p, y <= q for
    p < q, so the ring's set is no larger than it.  The least set over all
    rings is therefore the first rainbow set in enumerate_k_aps order.  The
    ring of its smallest middle names it first, since the rings are read
    by ascending b and only a smaller set replaces the one named; so that
    middle, with d, gives the ordering the table would build.

    A set with two middles has all three pairwise distances equal, and then
    all three members are middles; so a set has one middle or three.  The
    pairs summed over every ring count the first kind once and the second,
    T sets, three times: the count is that sum minus 2T.  Each set of the
    second kind is counted once, from its smallest member b, as a pair of
    members a < c of a ring of b, both above b, with c in the ring of a at
    the same distance.

    Parity rule: in a bipartite graph d(x, y) + d(y, z) + d(x, z) is even
    for every three vertices, so no set of the second kind has an odd d,
    and the walk for them skips the odd rings.  The graph is bipartite iff
    each vertex's neighbours, its ring at d = 1, all lie on the other side
    of the split of vertex 0's rings into even and odd d.
    """
    bit = [1 << v for v in range(len(rings))]
    classes: dict = {}
    for v, c in enumerate(colors):
        classes[c] = classes.get(c, 0) | bit[v]
    skip_odd = 1 if _bipartite(rings) else 0  # tested as d & skip_odd
    pairs = 0
    equilateral = 0
    first = None
    for b, ring in enumerate(rings):
        other = ~classes[colors[b]]
        above = -(bit[b] << 1)  # every vertex above b
        for d, members in enumerate(ring):
            size = members.bit_count()
            if size < 2:
                continue  # no pair; ring 0 is b alone
            pairs += size * (size - 1) // 2
            rest = members & other
            if rest:
                x = (rest & -rest).bit_length() - 1
                third = rest & ~classes[colors[x]]
                if third:
                    vs = tuple(sorted((b, x, (third & -third).bit_length() - 1)))
                    if first is None or vs < first[0]:
                        first = vs, b, d
            if d & skip_odd:
                continue
            # Each member a above b, lowest first, with the members above a
            # that lie in a's ring at d too: the equilateral sets whose
            # smallest member is b.
            later = members & above
            while later & (later - 1):
                low = later & -later
                later ^= low
                equilateral += (later & rings[low.bit_length() - 1][d]).bit_count()
    count = pairs - 2 * equilateral
    if first is None:
        return count, None
    vs, b, d = first
    x, z = (v for v in vs if v != b)
    return count, ArithmeticProgression(vs, (x, b, z), d)


def _bipartite(rings: list[list[int]]) -> bool:
    """Whether the graph whose distance rings these are is bipartite.

    Its two sides can only be the vertices at even and at odd distance from
    vertex 0, so it is bipartite iff no vertex has a neighbour on its own
    side: n mask tests.
    """
    even = 0
    for members in rings[0][::2]:
        even |= members
    odd = ~even
    for v, ring in enumerate(rings):
        if len(ring) > 1 and ring[1] & (even if even >> v & 1 else odd):
            return False
    return True


def find_rainbow_ap(table: ApTable, colors) -> ArithmeticProgression | None:
    """The rainbow AP with the least vertex set, or None when the coloring is rainbow-free.

    That is the first rainbow AP in table order, the order of table.aps.
    Tests only the sets below the least rainbow one so far, read from the
    lists table.ahead, and names only the one it returns; table.aps is not
    built.
    """
    k = table.k
    least = None
    for vs in _vertex_sets(table):
        if (least is None or vs < least) and len({colors[v] for v in vs}) == k:
            least = vs
    return None if least is None else _named(k, table.dist, least)
