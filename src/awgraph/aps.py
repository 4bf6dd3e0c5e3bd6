"""Arithmetic progressions of a graph under the shortest-path metric.

A k-AP is a set of k distinct vertices admitting at least one ordering
x_1, ..., x_k with d(x_i, x_{i+1}) = d for a single common difference d >= 1.
Orderings are existential: a vertex set is stored once even when several
orderings (possibly with different d) realize it.  Degenerate progressions
with repeated vertices are excluded throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations, permutations

from .errors import BudgetExceededError
from .graphs import DistanceMatrix

BRUTE_FORCE_TUPLE_LIMIT = 10**8


@dataclass(frozen=True)
class ArithmeticProgression:
    """One k-AP: its vertex set (sorted) plus one realizing ordering."""

    vertices: tuple[int, ...]
    witness: tuple[int, ...]
    d: int


@dataclass(frozen=True)
class ApTable:
    """All k-APs of a fixed graph, sorted lexicographically by vertex set."""

    k: int
    n: int
    aps: tuple[ArithmeticProgression, ...]


def _assemble(k: int, n: int, found: dict[tuple[int, ...], ArithmeticProgression]) -> ApTable:
    return ApTable(k, n, tuple(found[key] for key in sorted(found)))


def enumerate_k_aps(dist: DistanceMatrix, k: int) -> ApTable:
    """All k-APs of the graph behind dist.

    k = 3: a set {a, b, c} qualifies iff some member is equidistant from the
    other two, so middle vertices are scanned and the others bucketed by
    distance; pairs sharing a bucket close a progression.
    Every other k: depth-first extension, on an explicit stack, of ordered
    partial progressions x_1, x_2, ... with d = d(x_1, x_2), adding unused
    vertices at distance d from the last one in ascending order.  The first
    ordering found in this fixed scan order is kept as the stored witness.
    """
    if k < 2:
        raise ValueError(f"k-APs need k >= 2, got k={k}")
    n = dist.n
    if k > n:
        return ApTable(k, n, ())  # no k distinct vertices to order
    found: dict[tuple[int, ...], ArithmeticProgression] = {}
    rows = dist.dist
    if k == 3:
        for b in range(n):
            row = rows[b]
            buckets: dict[int, list[int]] = {}
            for a in range(n):
                if a != b:
                    buckets.setdefault(row[a], []).append(a)
            for d in sorted(buckets):
                group = buckets[d]
                for a, c in combinations(group, 2):
                    key = tuple(sorted((a, b, c)))
                    if key not in found:
                        found[key] = ArithmeticProgression(key, (a, b, c), d)
        return _assemble(k, n, found)

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
                key = tuple(sorted(seq))
                if key not in found:
                    found[key] = ArithmeticProgression(key, tuple(seq), d)
                used[seq.pop()] = False
    return _assemble(k, n, found)


def brute_force_k_aps(dist: DistanceMatrix, k: int) -> ApTable:
    """Oracle: test every ordered k-tuple of distinct vertices directly.

    Independent of enumerate_k_aps on purpose; refuses instances with more
    than BRUTE_FORCE_TUPLE_LIMIT candidate tuples.
    """
    if k < 2:
        raise ValueError(f"k-APs need k >= 2, got k={k}")
    n = dist.n
    if math.perm(n, k) > BRUTE_FORCE_TUPLE_LIMIT:
        raise BudgetExceededError(
            f"brute force over {n}!/({n}-{k})! ordered tuples exceeds"
            f" {BRUTE_FORCE_TUPLE_LIMIT}"
        )
    rows = dist.dist
    found: dict[tuple[int, ...], ArithmeticProgression] = {}
    for tup in permutations(range(n), k):
        d = rows[tup[0]][tup[1]]
        if all(rows[tup[i]][tup[i + 1]] == d for i in range(1, k - 1)):
            key = tuple(sorted(tup))
            if key not in found:
                found[key] = ArithmeticProgression(key, tup, d)
    return _assemble(k, n, found)


def is_rainbow(ap: ArithmeticProgression, colors) -> bool:
    """True iff the coloring assigns pairwise distinct colors on the AP.

    colors is any sequence indexed by vertex id (a Coloring's colors tuple or
    a plain list); it must cover every vertex of the AP.
    """
    k = len(ap.vertices)
    return len({colors[v] for v in ap.vertices}) == k


def find_rainbow_ap(table: ApTable, colors) -> ArithmeticProgression | None:
    """First rainbow AP in table order, or None when the coloring is rainbow-free."""
    for ap in table.aps:
        if is_rainbow(ap, colors):
            return ap
    return None
