"""Acceptance gate: every primary requirement, one PASS/FAIL line each.

Run `pytest tests/test_acceptance.py -v -s` to see the lines as they print.
Each criterion collects violations into a list and reports once, so a
failure names every offending instance instead of stopping at the first.
The gate is the only runner of the exhaustive suites in prop_helpers; the
last test checks that no other test module calls one.
"""

import ast
import time
from pathlib import Path

from awgraph import (
    Coloring,
    build_cycle,
    build_grid,
    build_path,
    build_star,
    cartesian_product,
    coloring_to_text,
    compute_aw,
    emit_certificate,
    enumerate_rainbow_free_colorings,
    find_rainbow_ap,
    verify_certificate,
)
from awgraph.cli import main as cli_main
import prop_helpers
from prop_helpers import (
    AW_GRID,
    connected_graphs,
    suite_adjacent_layer_union,
    suite_ap_tables,
    suite_block_confinement,
    suite_grid_aw,
    suite_grid_coloring,
    suite_isometric_color_bound,
    suite_isometric_lifting,
    suite_layer_spread,
    suite_monochromatic_lines,
    suite_polychromatic_paths,
)


def _report(num, desc, violations):
    status = "FAIL" if violations else "PASS"
    print(f"ACCEPTANCE {num} {desc}: {status}")
    assert not violations, f"criterion {num} ({desc}): {violations[:5]}"


def test_criterion_1_grid_aw_values():
    start = time.monotonic()
    violations = suite_grid_aw(AW_GRID)
    elapsed = time.monotonic() - start
    if elapsed > 600:
        violations.append(f"runtime {elapsed:.1f}s exceeds the 600s budget")
    _report(1, "aw(grid, 3) on all 11 grids with m*n <= 16", violations)


def test_criterion_2_closed_form_table(capsys):
    code = cli_main(["table", "--max-cells", "16"])
    out = capsys.readouterr().out
    violations = []
    if code != 0:
        violations.append(f"exit code {code}")
    if not out.endswith("all-match: yes\n"):
        violations.append(f"unexpected table tail: {out.splitlines()[-1]!r}")
    if out.count("match=yes") != 11:
        violations.append(f"{out.count('match=yes')} matching rows, expected 11")
    _report(2, "table command: formula = search, exit 0", violations)


# The canonical rainbow-free 3-colorings of grid 2 x n, in the search's order.
EXTREMAL_2XN = {
    3: [(1, 1, 2, 3, 1, 1), (1, 2, 2, 2, 2, 3)],
    5: [
        (1, 1, 1, 1, 2, 3, 1, 1, 1, 1),
        (1, 2, 2, 2, 2, 2, 2, 2, 2, 3),
    ],
    7: [
        (1, 1, 1, 1, 1, 1, 2, 3, 1, 1, 1, 1, 1, 1),
        (1, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 3),
    ],
}


def test_criterion_3_two_extremal_colorings():
    violations = []
    for n, want in EXTREMAL_2XN.items():
        g, _ = build_grid(2, n)
        found = [c.colors for c in enumerate_rainbow_free_colorings(prop_helpers.table(g), 3)]
        if found != want:
            violations.append(f"2x{n}: {found}, expected {want}")
    _report(3, "precisely two extremal 3-colorings of 2xN grids", violations)


def test_criterion_4_constructions_rainbow_free():
    violations = suite_grid_coloring("corner") + suite_grid_coloring("two-red-corner")
    _report(4, "corner and two-red-corner colorings rainbow-free", violations)


def test_criterion_5_product_bound_sweep():
    violations = []
    lefts = [g for size in range(1, 5) for g in connected_graphs(size)]
    rights = [
        ("path:2", build_path(2)),
        ("path:3", build_path(3)),
        ("cycle:3", build_cycle(3)),
        ("cycle:4", build_cycle(4)),
    ]
    pairs = 0
    for i, g in enumerate(lefts):
        for rname, h in rights:
            if g.n * h.n > 16:
                continue
            pairs += 1
            aw = compute_aw(cartesian_product(g, h), 3).aw
            if aw > 4:
                violations.append(f"left#{i} (n={g.n}) x {rname}: aw = {aw}")
    if pairs != 40:
        violations.append(f"swept {pairs} products, expected 40")
    _report(5, "aw(G box H, 3) <= 4 on all 40 products <= 16 vertices", violations)


def test_criterion_6_ap_oracle_equivalence():
    _report(6, "AP tables = brute force on corpus n <= 8 and grids to 5x5", suite_ap_tables())


def test_criterion_7_structural_property_suites():
    violations = (
        suite_isometric_lifting()
        + suite_isometric_color_bound()
        + suite_layer_spread()
        + suite_adjacent_layer_union()
        + suite_block_confinement()
        + suite_monochromatic_lines()
        + suite_polychromatic_paths(7)
        + suite_polychromatic_paths(43)
    )
    _report(7, "all seven structural property suites", violations)


def test_criterion_8_certificate_round_trip_and_tampering():
    violations = []
    instances = [
        (build_grid(2, 3)[0], 3),
        (build_grid(2, 4)[0], 3),
        (build_grid(3, 3)[0], 3),
        (build_path(5), 3),
        (build_path(5), 4),
        (build_cycle(6), 3),
        (build_star(5), 3),
        (build_path(2), 3),
        (build_path(2), 2),
    ]
    tampered = 0
    for g, k in instances:
        res = compute_aw(g, k)
        text = emit_certificate(res, g)
        verdict = verify_certificate(text).verdict
        if verdict != "witness-valid":
            violations.append(f"n={g.n} k={k}: emitted verdict {verdict}")
        if res.witness is None:
            continue
        table = prop_helpers.table(g, k)
        base = res.witness.colors
        r = res.witness.r
        section = "WITNESS\n" + coloring_to_text(res.witness).rstrip("\n")
        for v in range(g.n):
            for c in range(1, r + 1):
                if c == base[v]:
                    continue
                mutated = base[:v] + (c,) + base[v + 1 :]
                if len(set(mutated)) != r:
                    continue
                if find_rainbow_ap(table, mutated) is None:
                    continue
                bad = text.replace(
                    section,
                    "WITNESS\n" + coloring_to_text(Coloring(mutated, r)).rstrip("\n"),
                )
                tampered += 1
                verdict = verify_certificate(bad).verdict
                if verdict != "witness-invalid":
                    violations.append(
                        f"n={g.n} k={k} recolor v{v}->{c}: verdict {verdict}"
                    )
    if tampered == 0:
        violations.append("no rainbow-introducing mutations found")
    _report(8, "certificates verify; tampered witnesses flagged", violations)


def test_the_gate_is_the_only_runner_of_the_suites():
    # A suite that a module test runs as well checks the same facts twice.
    tests = Path(__file__).parent
    helpers = ast.parse((tests / "prop_helpers.py").read_text(encoding="utf-8"))
    callers = {
        node.name: set()
        for node in helpers.body
        if isinstance(node, ast.FunctionDef) and node.name.startswith("suite_")
    }
    for path in tests.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                if name in callers:
                    callers[name].add(path.name)
    assert callers and callers == {name: {"test_acceptance.py"} for name in callers}
