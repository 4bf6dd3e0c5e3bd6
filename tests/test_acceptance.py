"""Acceptance gate: every primary requirement, one PASS/FAIL line each.

Run `pytest tests/test_acceptance.py -v -s` to see the lines as they print.
Each criterion collects violations into a list and reports once, so a
failure names every offending instance instead of stopping at the first.
"""

import time

from awgraph import (
    Coloring,
    all_pairs_distances,
    brute_force_k_aps,
    build_cycle,
    build_grid,
    build_path,
    build_star,
    cartesian_product,
    coloring_to_text,
    compute_aw,
    emit_certificate,
    enumerate_k_aps,
    enumerate_rainbow_free_colorings,
    find_rainbow_ap,
    verify_certificate,
)
from awgraph.cli import main as cli_main
import prop_helpers
from prop_helpers import (
    connected_graphs,
    labeled_rainbow_free,
    small_corpus,
    suite_adjacent_layer_union,
    suite_block_confinement,
    suite_grid_aw,
    suite_grid_coloring,
    suite_isometric_color_bound,
    suite_isometric_lifting,
    suite_layer_spread,
    suite_monochromatic_lines,
    suite_polychromatic_paths,
)
from test_search import AW_GRID


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


def test_criterion_3_two_extremal_colorings():
    violations = []
    for n in (3, 5, 7):
        g, _ = build_grid(2, n)
        found = enumerate_rainbow_free_colorings(prop_helpers.table(g), 3)
        if len(found) != 2:
            violations.append(f"2x{n}: {len(found)} canonical colorings, expected 2")
    # Independent count: all 3^6 assignments of the 2x3 grid, filtered to
    # exact rainbow-free ones, must come to 2 x 3! = 12.
    labeled = labeled_rainbow_free(build_grid(2, 3)[0], 3, 3)
    if len(labeled) != 12:
        violations.append(f"2x3 labeled count {len(labeled)}, expected 12")
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
    violations = []
    for name, g in small_corpus():
        dist = all_pairs_distances(g)
        for k in (3, 4):
            fast = {ap.vertices for ap in enumerate_k_aps(dist, k).aps}
            slow = {ap.vertices for ap in brute_force_k_aps(dist, k).aps}
            if fast != slow:
                violations.append(
                    f"{name} k={k}: {len(fast)} enumerated vs {len(slow)} brute"
                )
    _report(6, "AP enumeration = brute force on corpus n <= 8", violations)


def test_criterion_7_structural_property_suites():
    violations = (
        suite_isometric_lifting()
        + suite_isometric_color_bound()
        + suite_layer_spread()
        + suite_adjacent_layer_union()
        + suite_block_confinement()
        + suite_monochromatic_lines()
        + suite_polychromatic_paths(7)
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
