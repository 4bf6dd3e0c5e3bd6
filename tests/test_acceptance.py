"""Acceptance gate: every primary requirement, one PASS/FAIL line each.

Run `pytest tests/test_acceptance.py -v -s` to see the lines as they print.
Each criterion collects violations into a list and reports once, so a
failure names every offending instance instead of stopping at the first.
"""

import random
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
    construct_corner_coloring,
    construct_two_red_coloring,
    emit_certificate,
    enumerate_k_aps,
    enumerate_rainbow_free_colorings,
    find_rainbow_ap,
    verify_certificate,
)
from awgraph.cli import main as cli_main
from prop_helpers import (
    check_adjacent_layer_union,
    check_block_confinement,
    check_layer_color_spread,
    check_monochromatic_lines,
    check_polychromatic_path,
    connected_graphs,
    corpus_products,
    find_polychromatic_path,
    induced_subgraph,
    isometric_subsets,
    labeled_rainbow_free,
    random_exact_coloring,
    small_corpus,
)
from test_search import AW_GRID


def _report(num, desc, violations):
    status = "FAIL" if violations else "PASS"
    print(f"ACCEPTANCE {num} {desc}: {status}")
    assert not violations, f"criterion {num} ({desc}): {violations[:5]}"


def _table(g, k=3):
    return enumerate_k_aps(all_pairs_distances(g), k)


def test_criterion_1_grid_aw_values():
    start = time.monotonic()
    violations = []
    for (m, n), want in sorted(AW_GRID.items()):
        got = compute_aw(build_grid(m, n)[0], 3).aw
        if got != want:
            violations.append(f"{m}x{n}: search {got}, expected {want}")
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
        found = enumerate_rainbow_free_colorings(_table(g), 3)
        if len(found) != 2:
            violations.append(f"2x{n}: {len(found)} canonical colorings, expected 2")
    # Independent count: all 3^6 assignments of the 2x3 grid, filtered to
    # exact rainbow-free ones, must come to 2 x 3! = 12.
    labeled = labeled_rainbow_free(build_grid(2, 3)[0], 3, 3)
    if len(labeled) != 12:
        violations.append(f"2x3 labeled count {len(labeled)}, expected 12")
    _report(3, "precisely two extremal 3-colorings of 2xN grids", violations)


def test_criterion_4_constructions_rainbow_free():
    violations = []
    corner_count = 0
    for m in range(1, 31):
        for n in range(1, 31):
            admissible = m * n >= 3 and (m + n) % 2 == 1
            if not admissible or m * n > 30:
                continue
            coloring = construct_corner_coloring(m, n)
            if find_rainbow_ap(_table(build_grid(m, n)[0]), coloring.colors):
                violations.append(f"corner {m}x{n} has a rainbow 3-AP")
            corner_count += 1
    if corner_count == 0:
        violations.append("no admissible corner dimensions swept")
    for m, n in ((4, 4), (4, 6), (5, 5), (4, 8), (6, 6)):
        coloring = construct_two_red_coloring(m, n)
        if find_rainbow_ap(_table(build_grid(m, n)[0]), coloring.colors):
            violations.append(f"two-red-corner {m}x{n} has a rainbow 3-AP")
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
    violations = []

    # AP lifting: isometric subgraphs carry exactly the ambient APs.
    for name, g in small_corpus():
        dist = all_pairs_distances(g)
        subsets = isometric_subsets(g, dist)
        for k in (3, 4):
            ambient = {ap.vertices for ap in enumerate_k_aps(dist, k).aps}
            for subset in subsets:
                if len(subset) < k:
                    continue
                sub = induced_subgraph(g, subset)
                lifted = {
                    tuple(subset[i] for i in ap.vertices)
                    for ap in enumerate_k_aps(all_pairs_distances(sub), k).aps
                }
                inside = {vs for vs in ambient if set(vs) <= set(subset)}
                if lifted != inside:
                    violations.append(f"lifting: {name} k={k} subset {subset}")

    # Isometric color bound: a rainbow-free coloring puts at most
    # aw(H, 3) - 1 colors on an isometric subgraph H.
    aw_cache = {}
    bound_instances = [build_grid(2, 3)[0], build_grid(2, 5)[0]]
    bound_instances += [g for _, g in small_corpus() if 3 <= g.n <= 6]
    for g in bound_instances:
        dist = all_pairs_distances(g)
        subsets = isometric_subsets(g, dist)
        for coloring in enumerate_rainbow_free_colorings(_table(g), 3):
            for subset in subsets:
                sub = induced_subgraph(g, subset)
                key = (sub.n, sub.adjacency)
                if key not in aw_cache:
                    aw_cache[key] = compute_aw(sub, 3).aw
                if len({coloring.colors[v] for v in subset}) > aw_cache[key] - 1:
                    violations.append(f"color bound: n={g.n} subset {subset}")

    # Layer color difference and adjacent-layer union on products.
    for name, g, h in corpus_products():
        p = cartesian_product(g, h)
        table = _table(p)
        for r in (3, 4):
            for coloring in enumerate_rainbow_free_colorings(table, r):
                if check_layer_color_spread(coloring, g, h):
                    violations.append(f"layer spread: {name} r={r}")
                if check_adjacent_layer_union(coloring, g, h):
                    violations.append(f"adjacent layers: {name} r={r}")

    # Block confinement and monochromatic lines on grids up to 12 cells.
    for m in range(2, 7):
        for n in range(2, 7):
            if m * n > 12:
                continue
            g, _ = build_grid(m, n)
            table = _table(g)
            for r in range(3, g.n + 1):
                for coloring in enumerate_rainbow_free_colorings(table, r):
                    if check_block_confinement(coloring.colors, m, n):
                        violations.append(f"blocks: {m}x{n} r={r}")
                    if check_monochromatic_lines(coloring.colors, m, n):
                        violations.append(f"mono lines: {m}x{n} r={r}")

    # Polychromatic paths on seeded random exact colorings.
    rng = random.Random(7)
    for name, g in small_corpus():
        for r in (3, 4):
            if r > g.n:
                continue
            for _ in range(5):
                coloring = random_exact_coloring(g.n, r, rng)
                path = find_polychromatic_path(g, coloring)
                if check_polychromatic_path(g, coloring, path):
                    violations.append(f"path: {name} {coloring.colors}")
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
        table = _table(g, k)
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
