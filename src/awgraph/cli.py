"""Command line front end.

Subcommands: aw, verify, extremal, table, construct, product-bound.  Output
is plain text, one record per line, stable field order, no timing or other
nondeterministic content, so runs are byte-identical for identical inputs.

Graph specs: path:N, cycle:N, complete:N, star:N, grid:MxN,
product:<spec>,<spec> (nesting depth at most 3), file:<path>.

Exit codes: 0 success, 1 reported mismatch or failed bound, 2 usage or
validation error, 3 node budget exceeded, 130 interrupted (Ctrl-C).
--budget overrides the default node budget.  A bad --k, --r or --budget
is refused before any distance or AP is computed.  extremal formats the
search's batches of rows that differ only in their last color, and
writes its rows in blocks of up to 1,024 as the search finds them, and
every row found before any exit, so on exit 3 or 130 its stdout is a
prefix of the full output; a budget that runs out inside a batch keeps
the batch's rows that fit, as a row-by-row search would.  aw --cert and
construct --out write their file before they print, so on exit 2 stdout
stays empty.

main(argv) may be called any number of times in one process.  The parser
is built on the first call, not on import, and every later call reuses it.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import math
import os
import sys
from itertools import islice

from .aps import check_k, enumerate_k_aps
from .certify import check_coloring, emit_certificate
from .coloring import coloring_line, coloring_lines, coloring_to_text, parse_coloring
from .constructions import GRID_COLORINGS, grid_formula_table, verify_product_bound
from .errors import AwgraphError, BudgetExceededError
from .graphs import (
    Graph,
    GridCoordinates,
    all_pairs_distances,
    build_complete,
    build_cycle,
    build_grid,
    build_path,
    build_star,
    cartesian_product,
    int_field,
    parse_graph,
)
from .search import (
    DEFAULT_NODE_BUDGET,
    check_r,
    compute_aw,
    enumerate_rainbow_free_colorings,  # unused here; perfbench's extremal-enum probe patches it
    iter_rainbow_free_changes,
)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_INTERRUPTED = 130  # 128 + SIGINT, as a shell reports a Ctrl-C

_MAX_PRODUCT_DEPTH = 3
# extremal writes its rows in blocks of up to this many, one write each.
_ROW_BLOCK = 1024


class SpecError(AwgraphError, ValueError):
    """Unparseable graph spec string."""


# ======================================================================
# Graph specs
# ======================================================================


def _parse_one(spec: str, depth: int) -> tuple[Graph, GridCoordinates | None, str]:
    """Parse one spec from the front of the string; returns the unconsumed rest."""
    kind, sep, rest = spec.partition(":")
    if not sep:
        raise SpecError(f"graph spec needs '<kind>:...', got {spec!r}")
    if kind == "product":
        if depth >= _MAX_PRODUCT_DEPTH:
            raise SpecError(f"product nesting deeper than {_MAX_PRODUCT_DEPTH}")
        left, left_coords, rest = _parse_one(rest, depth + 1)
        if not rest.startswith(","):
            raise SpecError("product spec needs two comma-separated operands")
        right, right_coords, rest = _parse_one(rest[1:], depth + 1)
        product = cartesian_product(left, right)
        coords = None
        # A product of two bare paths is a grid; report coordinates for it.
        if left == build_path(left.n) and right == build_path(right.n):
            coords = GridCoordinates(left.n, right.n)
        return product, coords, rest
    if kind == "file" and depth == 0:
        arg, rest = rest, ""  # top level: the whole remainder, commas allowed
    else:
        # Inside a product any operand, a file path too, ends at the next comma.
        arg, sep, rest = rest.partition(",")
        rest = sep + rest
    if kind == "file":
        with open(arg, "r", encoding="utf-8") as fh:
            return parse_graph(fh.read()), None, rest
    if kind == "grid":
        dims = arg.split("x")
        if len(dims) != 2:
            raise SpecError(f"grid spec must be grid:MxN, got {arg!r}")
        m = int_field(dims[0], "grid rows", SpecError)
        n = int_field(dims[1], "grid columns", SpecError)
        g, coords = build_grid(m, n)
        return g, coords, rest
    builders = {
        "path": build_path,
        "cycle": build_cycle,
        "complete": build_complete,
        "star": build_star,
    }
    if kind not in builders:
        raise SpecError(f"unknown graph kind {kind!r}")
    return builders[kind](int_field(arg, f"{kind} size", SpecError)), None, rest


def parse_graph_spec(spec: str) -> tuple[Graph, GridCoordinates | None]:
    g, coords, rest = _parse_one(spec.strip(), 0)
    if rest:
        raise SpecError(f"trailing characters {rest!r} after graph spec")
    return g, coords


# ======================================================================
# Shared helpers
# ======================================================================


def _budget_from(args) -> int:
    if args.budget is None:
        return DEFAULT_NODE_BUDGET
    if args.budget < 1:
        raise SpecError(f"--budget must be positive, got {args.budget}")
    return args.budget


def _write_atomic(path: str, text: str) -> None:
    """Write text to path via a temp file beside it, so a failed write keeps the old file.

    A failure raises OSError with path and the OS reason, not the temp file's name.
    """
    head, tail = os.path.split(path)
    tmp = os.path.join(head, f".{tail}.{os.urandom(4).hex()}.tmp")
    try:
        fh = open(tmp, "x", encoding="utf-8")
        try:
            with fh:
                fh.write(text)
            os.replace(tmp, path)
        except BaseException:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
            raise
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc.strerror or exc}") from None


def _coords_suffix(coords: GridCoordinates | None, vertices) -> str:
    if coords is None:
        return ""
    return " coords=" + ",".join(
        "({},{})".format(*coords.coords(v)) for v in vertices
    )


def _print_graph_line(spec: str, g: Graph) -> None:
    print(f"graph {spec} n={g.n} m={g.m}")


# ======================================================================
# Subcommands
# ======================================================================


def cmd_aw(args) -> int:
    g, _ = parse_graph_spec(args.graph)
    result = compute_aw(g, args.k, budget=_budget_from(args))
    if args.cert is not None:  # written first, so a failed write prints nothing
        _write_atomic(args.cert, emit_certificate(result, g))
    _print_graph_line(args.graph, g)
    print(f"k = {args.k}")
    print(f"aw = {result.aw}")
    if result.per_r:
        flags = " ".join(
            f"{r}={'exists' if flag else 'none'}" for r, flag in result.per_r
        )
    else:
        flags = "none-examined"
    print(f"per-r: {flags}")
    if result.witness is not None:
        print(f"witness: {coloring_line(result.witness)}")
    else:
        print("witness: none")
    if args.cert is not None:
        print(f"certificate: {args.cert}")
    return EXIT_OK


def cmd_verify(args) -> int:
    g, coords = parse_graph_spec(args.graph)
    with open(args.coloring, "r", encoding="utf-8") as fh:
        coloring = parse_coloring(fh.read())
    _, ap = check_coloring(g, args.k, coloring.colors)
    _print_graph_line(args.graph, g)
    print(f"k = {args.k}")
    print(f"coloring: r={coloring.r} {coloring_line(coloring)}")
    if ap is None:
        print("result: rainbow-free")
    else:
        print(
            "result: rainbow-ap"
            f" vertices={','.join(map(str, ap.vertices))}"
            f" ordering={','.join(map(str, ap.witness))}"
            f" d={ap.d}" + _coords_suffix(coords, ap.witness)
        )
    return EXIT_OK


def cmd_extremal(args) -> int:
    g, _ = parse_graph_spec(args.graph)
    r = args.r
    # Each argument is checked before any distance.  Rows are written as found,
    # in blocks of up to _ROW_BLOCK, and every row found before any exit.
    check_k(args.k)
    budget = _budget_from(args)
    check_r(r, g.n)
    table = enumerate_k_aps(all_pairs_distances(g), args.k)
    batches = iter_rainbow_free_changes(table, r, budget=budget)
    _print_graph_line(args.graph, g)
    print(f"k = {args.k}")
    print(f"r = {r}")
    write = sys.stdout.write
    lines = coloring_lines(batches, r)
    block: list[str] = []
    count = 0
    while True:
        try:
            # extend keeps the rows it read when the stream raises partway.
            block.extend(islice(lines, _ROW_BLOCK))
        finally:
            # Before any exception leaves, so a budget stop keeps every row.
            if block:
                write("coloring: " + "\ncoloring: ".join(block) + "\n")
        count += len(block)
        if len(block) < _ROW_BLOCK:
            break
        block.clear()
    print(f"count = {count}")
    print(f"labeled-count = {count} x {r}! = {count * math.factorial(r)}")
    return EXIT_OK


def cmd_table(args) -> int:
    rows = grid_formula_table(args.max_cells, budget=_budget_from(args))
    all_match = True
    for row in rows:
        match = "yes" if row.match else "no"
        all_match = all_match and row.match
        print(
            f"m={row.m} n={row.n} formula={row.formula}"
            f" search={row.searched} match={match}"
        )
    print(f"all-match: {'yes' if all_match else 'no'}")
    return EXIT_OK if all_match else EXIT_FAIL


def cmd_construct(args) -> int:
    coloring = GRID_COLORINGS[args.name](args.m, args.n)
    g, _ = build_grid(args.m, args.n)
    _, ap = check_coloring(g, 3, coloring.colors)
    if ap is None:  # written first, so a failed write prints nothing
        _write_atomic(args.out, coloring_to_text(coloring))
    print(f"construction: {args.name} m={args.m} n={args.n}")
    if ap is not None:
        print(
            "self-check: FAILED rainbow-ap"
            f" vertices={','.join(map(str, ap.vertices))} d={ap.d}"
        )
        return EXIT_FAIL
    print("self-check: rainbow-free")
    print(f"wrote: {args.out}")
    return EXIT_OK


def cmd_product_bound(args) -> int:
    left, _ = parse_graph_spec(args.left)
    right, _ = parse_graph_spec(args.right)
    report = verify_product_bound(left, right, budget=_budget_from(args))
    print(f"product: {args.left} x {args.right} n={report.result.n}")
    print(f"aw = {report.aw}")
    if report.aw == 4:
        print(f"witness: {coloring_line(report.witness)}")
    print(f"bound: {'pass' if report.passed else 'FAIL'}")
    return EXIT_OK if report.passed else EXIT_FAIL


# ======================================================================
# Parser
# ======================================================================


def _add_budget(sub) -> None:
    sub.add_argument("--budget", type=int, default=None, help="node budget per coloring search")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built on the first call and shared by every later one.

    parse_args only reads it and returns a new Namespace each time, so no
    argument carries over from one main call to the next.
    """
    parser = argparse.ArgumentParser(
        prog="awgraph",
        description="Anti-van der Waerden numbers of connected graphs by exhaustive search.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("aw", help="compute aw(G, k) with optional certificate")
    p.add_argument("--graph", required=True, help="graph spec")
    p.add_argument("--k", type=int, required=True, help="progression length")
    p.add_argument("--cert", default=None, help="write a certificate to this path")
    _add_budget(p)
    p.set_defaults(func=cmd_aw)

    p = subs.add_parser("verify", help="check a coloring file for rainbow k-APs")
    p.add_argument("--graph", required=True, help="graph spec")
    p.add_argument("--coloring", required=True, help="coloring file path")
    p.add_argument("--k", type=int, required=True, help="progression length")
    p.set_defaults(func=cmd_verify)

    p = subs.add_parser("extremal", help="enumerate canonical rainbow-free exact r-colorings")
    p.add_argument("--graph", required=True, help="graph spec")
    p.add_argument("--r", type=int, required=True, help="number of colors")
    p.add_argument("--k", type=int, required=True, help="progression length")
    _add_budget(p)
    p.set_defaults(func=cmd_extremal)

    p = subs.add_parser("table", help="closed form versus search for all small grids")
    p.add_argument("--max-cells", type=int, required=True, help="largest grid size m*n")
    _add_budget(p)
    p.set_defaults(func=cmd_table)

    p = subs.add_parser("construct", help="write a named extremal grid coloring")
    p.add_argument("--name", required=True, choices=list(GRID_COLORINGS))
    p.add_argument("--m", type=int, required=True, help="grid rows")
    p.add_argument("--n", type=int, required=True, help="grid columns")
    p.add_argument("--out", required=True, help="output coloring file path")
    p.set_defaults(func=cmd_construct)

    p = subs.add_parser(
        "product-bound", help="check aw(G box H, 3) <= 4 for a Cartesian product"
    )
    p.add_argument("--left", required=True, help="left factor graph spec")
    p.add_argument("--right", required=True, help="right factor graph spec")
    _add_budget(p)
    p.set_defaults(func=cmd_product_bound)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (AwgraphError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED


if __name__ == "__main__":
    sys.exit(main())
