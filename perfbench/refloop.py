"""Fixed pure-Python reference work that measures the speed of the host.

Every speed metric of the benchmark is divided by the time of a reference
call timed in the same process, interleaved with the operations.  The
reference imports nothing from awgraph, so no change to the program can
move it, and its loop bodies allocate no object that the cyclic garbage
collector tracks, so its cost does not depend on the collector state that
the operations leave behind.

One call runs two kernels.  The first is an integer loop: arithmetic,
tuple indexing and a plain function call per step.  The second is a
backtracking count of the rainbow-free exact 3-colorings of the 3 x 4 grid,
written here with index loops so that it allocates nothing; it has the
shape of awgraph's search (recursion, list reads, compares and branches).
On a shared 2-core host the second tracks the slowdowns of the benchmark's
operations more closely than the first (a slope near 0.9 against near 0.7);
together they track them best.
"""

from __future__ import annotations

import time

_TABLE = tuple(range(256))
_LOOP_ITERATIONS = 10_000


def _pick(a: int, b: int) -> int:
    return a if a < b else b


def _grid_aps(m: int, n: int):
    """3-APs of the m x n grid by grid distance, as (a, b) pairs per largest vertex c."""

    def d(u: int, v: int) -> int:
        return abs(u // n - v // n) + abs(u % n - v % n)

    firsts = [[] for _ in range(m * n)]
    seconds = [[] for _ in range(m * n)]
    for c in range(m * n):
        for b in range(c):
            for a in range(b):
                if d(a, b) == d(a, c) or d(b, a) == d(b, c) or d(c, a) == d(c, b):
                    firsts[c].append(a)
                    seconds[c].append(b)
    return m * n, tuple(map(tuple, firsts)), tuple(map(tuple, seconds))


_N, _FIRSTS, _SECONDS = _grid_aps(3, 4)
_COLORS = 3


def _extend(colors, v: int, top: int) -> int:
    if v == _N:
        return 1 if top == _COLORS else 0
    if _COLORS - top > _N - v:
        return 0
    hi = top + 1 if top < _COLORS else _COLORS
    firsts = _FIRSTS[v]
    seconds = _SECONDS[v]
    count = len(firsts)
    found = 0
    c = 1
    while c <= hi:
        j = 0
        while j < count:
            ca = colors[firsts[j]]
            if ca != c:
                cb = colors[seconds[j]]
                if cb != c and cb != ca:
                    break
            j += 1
        if j == count:
            colors[v] = c
            found += _extend(colors, v + 1, c if c > top else top)
            colors[v] = 0
        c += 1
    return found


def reference_work(scale: int = 1) -> int:
    """Run both kernels scale times; returns a checksum so nothing is skipped."""
    table = _TABLE
    x = 1
    acc = 0
    for i in range(_LOOP_ITERATIONS * scale):
        x = (x * 75 + 74) % 65537
        acc = (acc + _pick(table[x & 255], table[i & 255])) & 0xFFFF
    colors = [0] * _N
    for _ in range(scale):
        acc += _extend(colors, 0, 0)
    return acc


def timed_reference_call() -> float:
    """Wall seconds of one reference call."""
    start = time.perf_counter()
    reference_work()
    return time.perf_counter() - start
