"""The benchmark's three workloads: seeded inputs, operations and oracles.

Every workload is a closed loop with one client: one operation at a time,
in one process, with threads=1 and the default node budget.  The seed
chooses the inputs and their order; the program receives only the
generated inputs.

product-sweep   verify_product_bound(P_2, H) over a seeded sample of the 853
                connected 7-vertex graphs H of the networkx atlas: the
                paper's aw(G box H, 3) <= 4 theorem.  Nearly all of its time
                is r = 3 nonexistence proofs, so search changes show here.
extremal-enum   `awgraph extremal` through awgraph.cli.main in-process: k = 4
                enumerations at r = aw - 1 (proof-heavy) mixed with k = 3,
                r = 2 enumerations where every leaf is a solution.  It uses
                the search to produce every solution instead of stopping at
                the first, so per-node costs that only pay off in proofs show.
certify-verify  verify_certificate on certificates for grids P_m box P_n
                emitted from the closed form without any search; a fixed
                share is corrupted.  The AP table dominates and the search
                does no work, so AP and certificate changes show here and
                search changes must read as no change.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import math
import random
import sys
from dataclasses import dataclass
from pathlib import Path

from tracing import Probe

FROZEN_PATH = Path(__file__).resolve().parent / "frozen.json"


def load_frozen() -> dict:
    with open(FROZEN_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def import_awgraph():
    """Import awgraph from scratch, so each set-up pays the import again."""
    for name in [m for m in sys.modules if m == "awgraph" or m.startswith("awgraph.")]:
        del sys.modules[name]
    return importlib.import_module("awgraph")


@dataclass(frozen=True)
class Op:
    """One operation: key names its input, call runs it, data feeds the oracle.

    counts are recorded on the operation's root span when it is traced.
    """

    key: str
    call: object
    data: object = None
    counts: dict | None = None


# Span counts: each maps a wrapped call's (args, kwargs, result) to counts.


def _vertices(args, kwargs, graph):
    return {"graphs.vertices": graph.n}


def _grid_vertices(args, kwargs, result):
    return {"graphs.vertices": result[0].n}


def _ap_count(args, kwargs, table):
    return {"aps.count": len(table.aps)}


def _solutions(args, kwargs, colorings):
    return {"search.solutions": len(colorings)}


def _scanned(args, kwargs, ap):
    """APs that find_rainbow_ap looked at before its verdict."""
    aps = args[0].aps
    if ap is None:
        return {"aps.scanned": len(aps)}
    return {"aps.scanned": next(i for i, x in enumerate(aps) if x is ap) + 1}


def _rainbow_free(aps, colors, k) -> bool:
    return all(len({colors[v] for v in ap.vertices}) < k for ap in aps)


def _canonical(colors) -> bool:
    top = 0
    for c in colors:
        if c > top + 1:
            return False
        top = max(top, c)
    return True


# ======================================================================
# product-sweep
# ======================================================================

# One sampled graph per stratum of the atlas graphs, ordered by the cost
# each had at the commit that froze them, so every seed draws a pass of the
# same cost profile.
PRODUCT_SAMPLE = 107


class ProductSweep:
    name = "product-sweep"
    root = "constructions"
    probes = (
        Probe("awgraph.constructions", "cartesian_product", "graphs.build", _vertices),
        Probe("awgraph.constructions", "compute_aw", "search.compute_aw"),
        Probe("awgraph.search", "all_pairs_distances", "graphs.distances"),
        Probe("awgraph.search", "enumerate_k_aps", "aps.enumerate", _ap_count),
        Probe(
            "awgraph.search",
            "exists_rainbow_free_coloring",
            lambda c: "search.exists_none" if c is None else "search.exists_found",
        ),
    )

    def __init__(self) -> None:
        import networkx

        self._atlas = networkx.graph_atlas_g
        frozen = load_frozen()["product_sweep"]
        self._order = frozen["atlas_index"]
        self._aw = dict(zip(self._order, map(int, frozen["aw"])))

    def sample(self, seed: int) -> list[int]:
        rng = random.Random(seed)
        n = len(self._order)
        picked = [
            self._order[rng.randrange(s * n // PRODUCT_SAMPLE, (s + 1) * n // PRODUCT_SAMPLE)]
            for s in range(PRODUCT_SAMPLE)
        ]
        rng.shuffle(picked)
        return picked

    def setup(self, seed: int) -> list[Op]:
        awgraph = import_awgraph()
        constructions = sys.modules["awgraph.constructions"]
        atlas = self._atlas()
        p2 = awgraph.build_path(2)

        def op(index: int) -> Op:
            h = atlas[index]
            edges = sorted((min(u, v), max(u, v)) for u, v in h.edges())
            graph = awgraph.Graph.from_edges(h.number_of_nodes(), edges)
            return Op(
                f"atlas:{index}",
                lambda: constructions.verify_product_bound(p2, graph),
                (index, graph),
            )

        ops = [op(i) for i in self.sample(seed)]
        # Warm up on a fixed graph of median cost, so set-up time does not
        # depend on the seed.
        op(self._order[len(self._order) // 2]).call()
        return ops

    @staticmethod
    def fingerprint(report):
        w = report.witness
        return (report.aw, report.result.per_r, None if w is None else w.colors)

    def check(self, op: Op, report) -> list[str]:
        import awgraph

        index, h = op.data
        problems = []
        if report.aw not in (3, 4):
            problems.append(f"aw={report.aw} outside {{3, 4}}")
        if report.aw != self._aw[index]:
            problems.append(f"aw={report.aw}, frozen {self._aw[index]}")
        w = report.witness
        if w is None or w.r != report.aw - 1 or sorted(set(w.colors)) != list(range(1, w.r + 1)):
            problems.append("witness missing or not an exact (aw-1)-coloring")
        else:
            product = awgraph.cartesian_product(awgraph.build_path(2), h)
            table = awgraph.brute_force_k_aps(awgraph.all_pairs_distances(product), 3)
            if not _rainbow_free(table.aps, w.colors, 3):
                problems.append("witness has a rainbow 3-AP")
        return problems


# ======================================================================
# extremal-enum
# ======================================================================

# (graph spec, k, r).  k = 4 rows use r = aw(G, 4) - 1, where most of the
# tree is a nonexistence proof; k = 3, r = 2 rows make every leaf a
# solution (2^(n-1) - 1 of them).  With 25 rows the p50 is the 13th row's
# time, an operation of tens of milliseconds, and the p90 lies between the
# 23rd and 24th.
EXTREMAL_OPS = (
    ("path:15", 4, 8),
    ("path:14", 4, 7),
    ("grid:2x6", 4, 5),
    ("cycle:11", 4, 4),
    ("star:10", 4, 4),
    ("path:13", 4, 7),
    ("star:9", 4, 4),
    ("cycle:10", 4, 5),
    ("path:12", 4, 7),
    ("cycle:9", 4, 4),
    ("cycle:12", 4, 7),
    ("grid:2x8", 3, 2),
    ("grid:4x4", 3, 2),
    ("grid:3x5", 3, 2),
    ("cycle:15", 3, 2),
    ("path:15", 3, 2),
    ("grid:2x7", 3, 2),
    ("cycle:14", 3, 2),
    ("path:14", 3, 2),
    ("cycle:13", 3, 2),
    ("path:13", 3, 2),
    ("grid:3x4", 3, 2),
    ("grid:2x6", 3, 2),
    ("cycle:12", 3, 2),
    ("path:12", 3, 2),
)
EXTREMAL_WARMUP = ("cycle:9", 4, 4)


def extremal_argv(spec: str, k: int, r: int) -> list[str]:
    return ["extremal", "--graph", spec, "--k", str(k), "--r", str(r)]


class ExtremalEnum:
    name = "extremal-enum"
    root = "cli"
    probes = (
        Probe("awgraph.cli", "enumerate_rainbow_free_colorings", "search.enumerate", _solutions),
        Probe("awgraph.cli", "build_path", "graphs.build", _vertices),
        Probe("awgraph.cli", "build_cycle", "graphs.build", _vertices),
        Probe("awgraph.cli", "build_complete", "graphs.build", _vertices),
        Probe("awgraph.cli", "build_star", "graphs.build", _vertices),
        Probe("awgraph.cli", "build_grid", "graphs.build", _grid_vertices),
        Probe("awgraph.cli", "cartesian_product", "graphs.build", _vertices),
        Probe("awgraph.cli", "all_pairs_distances", "graphs.distances"),
        Probe("awgraph.cli", "enumerate_k_aps", "aps.enumerate", _ap_count),
    )

    def __init__(self) -> None:
        self._counts = load_frozen()["extremal"]

    @staticmethod
    def order(seed: int) -> list[tuple[str, int, int]]:
        rows = list(EXTREMAL_OPS)
        random.Random(seed).shuffle(rows)
        return rows

    def setup(self, seed: int) -> list[Op]:
        import_awgraph()
        cli = importlib.import_module("awgraph.cli")

        def op(row) -> Op:
            argv = extremal_argv(*row)

            def call():
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    code = cli.main(argv)
                return code, out.getvalue()

            return Op(" ".join(argv), call, row)

        op(EXTREMAL_WARMUP).call()
        return [op(row) for row in self.order(seed)]

    @staticmethod
    def fingerprint(output):
        return output

    def check(self, op: Op, output) -> list[str]:
        import awgraph
        from awgraph.cli import parse_graph_spec

        spec, k, r = op.data
        code, text = output
        if code != 0:
            return [f"exit code {code}"]
        g, _ = parse_graph_spec(spec)
        lines = text.splitlines()
        colorings = [
            tuple(int(x) for x in ln.split()[1:]) for ln in lines if ln.startswith("coloring:")
        ]
        count = len(colorings)
        problems = []
        expected_head = [f"graph {spec} n={g.n} m={g.m}", f"k = {k}", f"r = {r}"]
        expected_tail = [f"count = {count}", f"labeled-count = {count} x {r}! = {count * math.factorial(r)}"]
        if lines[:3] != expected_head or lines[-2:] != expected_tail or len(lines) != count + 5:
            problems.append("output is not header, coloring lines, count lines")
        if count != self._counts[op.key]:
            problems.append(f"count {count}, frozen {self._counts[op.key]}")
        if k == 3 and r == 2 and count != 2 ** (g.n - 1) - 1:
            problems.append(f"count {count} != 2^(n-1) - 1")
        if any(b <= a for a, b in zip(colorings, colorings[1:])):
            problems.append("colorings not strictly lex-ordered")
        full = set(range(1, r + 1))
        if not all(len(c) == g.n and _canonical(c) and set(c) == full for c in colorings):
            problems.append("a coloring is not canonical and exact")
        # With r < k colors no k-AP can be rainbow, so the AP check is vacuous.
        if r >= k:
            table = awgraph.brute_force_k_aps(awgraph.all_pairs_distances(g), k)
            if not all(_rainbow_free(table.aps, c, k) for c in colorings):
                problems.append("a coloring has a rainbow AP")
        return problems


# ======================================================================
# certify-verify
# ======================================================================

# Grids P_m box P_n with 4 <= m <= n and CERT_CELLS[0] <= mn <= CERT_CELLS[1],
# each with the same six certificate slots.  Their checks cost within a
# factor of three of each other, so the latency percentiles fall where
# samples are dense.  Corruptions are a fixed share per grid, so the seed
# changes which vertex or line is corrupted, not the cost profile.
CERT_CELLS = (42, 64)
CERT_SLOTS = ("valid", "valid", "valid", "valid", "recolor", "mutate")
MUTATIONS = {
    "claim-up": ("CLAIMED_AW\n4\n", "CLAIMED_AW\n5\n"),
    "claim-down": ("CLAIMED_AW\n4\n", "CLAIMED_AW\n3\n"),
    "flip-flag": ("PER_R\n3 true\n4 false\n", "PER_R\n3 true\n4 true\n"),
    "drop-line": ("PER_R\n3 true\n4 false\n", "PER_R\n4 false\n"),
}
EXPECTED = {"valid": "witness-valid", "recolor": "witness-invalid", "mutate": "inconsistent"}


def grid_witness(m: int, n: int) -> list[int]:
    """The corner (m + n odd) or two-red-corner (m + n even) coloring."""
    colors = [3] * (m * n)
    if (m + n) % 2:
        colors[0] = 1
    else:
        colors[1] = colors[n] = 1
    colors[-1] = 2
    return colors


def grid_has_rainbow_ap(m: int, n: int, colors, v: int) -> bool:
    """Independent check: is some rainbow 3-AP through v, by grid distance?"""

    def d(a: int, b: int) -> int:
        return abs(a // n - b // n) + abs(a % n - b % n)

    cells = range(m * n)
    for y in cells:
        if colors[y] == colors[v]:
            continue
        for z in cells:
            if colors[z] not in (colors[v], colors[y]):
                if d(v, y) == d(v, z) or d(y, v) == d(y, z) or d(z, v) == d(z, y):
                    return True
    return False


def cert_grids() -> list[tuple[int, int]]:
    lo, hi = CERT_CELLS
    return [(m, n) for m in range(4, hi + 1) for n in range(m, hi + 1) if lo <= m * n <= hi]


def certificate_plan(seed: int) -> list[tuple[int, int, str, object]]:
    """(m, n, slot, detail) per certificate, in the seeded pass order.

    detail is (vertex, color) for a recolor, a MUTATIONS key for a mutate.
    """
    rng = random.Random(seed)
    plan = []
    for m, n in cert_grids():
        colors = grid_witness(m, n)
        for slot in CERT_SLOTS:
            detail = None
            if slot == "recolor":
                greens = [v for v, c in enumerate(colors) if c == 3]
                rng.shuffle(greens)
                color = rng.choice((1, 2))
                for v in greens:
                    trial = list(colors)
                    trial[v] = color
                    if grid_has_rainbow_ap(m, n, trial, v):
                        detail = (v, color)
                        break
                else:
                    raise RuntimeError(f"no recoloring of grid {m}x{n} makes a rainbow AP")
            elif slot == "mutate":
                detail = rng.choice(sorted(MUTATIONS))
            plan.append((m, n, slot, detail))
    rng.shuffle(plan)
    return plan


class CertifyVerify:
    name = "certify-verify"
    root = "certify.verify"
    probes = (
        Probe("awgraph.certify", "parse_graph", "graphs.build", _vertices),
        Probe("awgraph.certify", "all_pairs_distances", "graphs.distances"),
        Probe("awgraph.certify", "enumerate_k_aps", "aps.enumerate", _ap_count),
        Probe("awgraph.certify", "find_rainbow_ap", "aps.find_rainbow", _scanned),
    )

    def setup(self, seed: int) -> list[Op]:
        awgraph = import_awgraph()
        certify = sys.modules["awgraph.certify"]
        AwResult = sys.modules["awgraph.search"].AwResult

        def op(m: int, n: int, slot: str, detail) -> Op:
            g, _ = awgraph.build_grid(m, n)
            colors = grid_witness(m, n)
            if slot == "recolor":
                colors[detail[0]] = detail[1]
            result = AwResult(4, 3, g.n, ((3, True), (4, False)), awgraph.Coloring(tuple(colors), 3))
            text = awgraph.emit_certificate(result, g)
            if slot == "mutate":
                old, new = MUTATIONS[detail]
                text = text.replace(old, new)
            return Op(
                f"grid:{m}x{n} {slot} {detail}",
                lambda: certify.verify_certificate(text),
                EXPECTED[slot],
                {"certify.bytes": len(text.encode())},
            )

        op(6, 7, "valid", None).call()
        return [op(*row) for row in certificate_plan(seed)]

    @staticmethod
    def fingerprint(report):
        return report.verdict, report.notes

    def check(self, op: Op, report) -> list[str]:
        if report.verdict != op.data:
            return [f"verdict {report.verdict}, built to get {op.data}"]
        return []


WORKLOADS = {w.name: w for w in (ProductSweep, ExtremalEnum, CertifyVerify)}
