"""End-to-end CLI tests: golden outputs, file round trips, exit codes."""

import contextlib
import errno
import hashlib
import math
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

from awgraph import (
    BudgetExceededError,
    Coloring,
    all_pairs_distances,
    build_path,
    enumerate_k_aps,
    enumerate_rainbow_free_colorings,
    graph_to_text,
    parse_coloring,
    verify_certificate,
)
from awgraph.cli import (
    EXIT_BUDGET,
    EXIT_FAIL,
    EXIT_OK,
    EXIT_USAGE,
    GRID_COLORINGS,
    build_parser,
    main,
    parse_graph_spec,
)
from awgraph.search import iter_rainbow_free_changes
from prop_helpers import small_corpus

SRC_ENV = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_aw_golden(capsys):
    code, out, err = run(capsys, ["aw", "--graph", "grid:2x3", "--k", "3"])
    assert code == EXIT_OK
    assert err == ""
    assert out == (
        "graph grid:2x3 n=6 m=7\n"
        "k = 3\n"
        "aw = 4\n"
        "per-r: 3=exists 4=none\n"
        "witness: 1 1 2 3 1 1\n"
    )


def test_aw_short_circuit_output(capsys):
    code, out, _ = run(capsys, ["aw", "--graph", "path:2", "--k", "3"])
    assert code == EXIT_OK
    assert "aw = 3\n" in out
    assert "per-r: none-examined\n" in out
    assert "witness: 1 2\n" in out
    # aw - 1 = 1 colors leave nothing to show.
    code, out, err = run(capsys, ["aw", "--graph", "path:2", "--k", "2"])
    assert (code, err) == (EXIT_OK, "")
    assert out.endswith("aw = 2\nper-r: 2=none\nwitness: none\n")


def test_aw_writes_verifiable_certificate(capsys, tmp_path):
    cert_path = tmp_path / "out.cert"
    code, out, _ = run(
        capsys,
        ["aw", "--graph", "grid:2x4", "--k", "3", "--cert", str(cert_path)],
    )
    assert code == EXIT_OK
    assert f"certificate: {cert_path}\n" in out
    report = verify_certificate(cert_path.read_text(encoding="utf-8"))
    assert report.verdict == "witness-valid"


def test_extremal_golden(capsys):
    code, out, _ = run(
        capsys, ["extremal", "--graph", "grid:2x5", "--k", "3", "--r", "3"]
    )
    assert code == EXIT_OK
    assert out == (
        "graph grid:2x5 n=10 m=13\n"
        "k = 3\n"
        "r = 3\n"
        "coloring: 1 1 1 1 2 3 1 1 1 1\n"
        "coloring: 1 2 2 2 2 2 2 2 2 3\n"
        "count = 2\n"
        "labeled-count = 2 x 3! = 12\n"
    )


def test_extremal_solution_heavy_goldens(capsys):
    # Count and sha256 of stdout for enumerations with thousands of lines,
    # a k = 4 enumeration, and two-digit colors (up to 11 on path:12).
    for argv, count, digest in (
        (
            ["extremal", "--graph", "grid:3x4", "--k", "3", "--r", "2"],
            2047,
            "b1aec8c4cf85d77a0045fdb2ce1a0d9e2ac5834932b7f790f74084222263a8da",
        ),
        (
            ["extremal", "--graph", "star:9", "--k", "4", "--r", "4"],
            966,
            "c6f2fdbcd46fa570d4cf84200a760a29e3c84a7d333261ddedc26f20115cd917",
        ),
        (
            ["extremal", "--graph", "path:12", "--k", "12", "--r", "11"],
            66,
            "18ef3ea030e07a4be190556b2cb5122863fc6e336db7a097d3a197b5880e88cf",
        ),
        # The largest solution-heavy and proof-heavy rows of the benchmark.
        (
            ["extremal", "--graph", "grid:4x4", "--k", "3", "--r", "2"],
            32767,
            "dc5c78d56b9ddc6281fbacc434d4bc9e8973c41e37a230b02263f0dbbd9343ce",
        ),
        (
            ["extremal", "--graph", "path:15", "--k", "4", "--r", "8"],
            6,
            "a773437f15ca70a00b43b8bf8c304107640c9c20c41bd3f62a215ed5357d3e76",
        ),
    ):
        code, out, err = run(capsys, argv)
        assert (code, err) == (EXIT_OK, ""), argv
        assert f"\ncount = {count}\n" in out, argv
        assert hashlib.sha256(out.encode()).hexdigest() == digest, argv


def test_extremal_rows_match_a_naive_formatter(capsys, tmp_path):
    # Each row is written from the previous row's prefix; it must read as the
    # enumerated colors joined in full.  path:12 at r = 11 changes suffixes
    # that cross from one-digit to two-digit colors.
    cases = [("path:12", build_path(12), 12, 11)]
    for i, (_, g) in enumerate(small_corpus()):
        path = tmp_path / f"{i}.graph"
        path.write_text(graph_to_text(g), encoding="utf-8")
        cases += [(f"file:{path}", g, k, r) for k in (3, 4) for r in range(1, g.n + 1)]
    for spec, g, k, r in cases:
        table = enumerate_k_aps(all_pairs_distances(g), k)
        colorings = enumerate_rainbow_free_colorings(table, r)
        count = len(colorings)
        want = (
            f"graph {spec} n={g.n} m={g.m}\nk = {k}\nr = {r}\n"
            + "".join("coloring: " + " ".join(map(str, c.colors)) + "\n" for c in colorings)
            + f"count = {count}\nlabeled-count = {count} x {r}! = {count * math.factorial(r)}\n"
        )
        argv = ["extremal", "--graph", spec, "--k", str(k), "--r", str(r)]
        assert run(capsys, argv) == (EXIT_OK, want, ""), (spec, k, r)


def test_extremal_streams_in_memory_that_does_not_grow_with_the_count():
    # 32,767 rows go to a sink that keeps nothing; the run must hold no
    # list of solutions (7.8 MB traced when every row was kept).
    class LineCounter:
        lines = 0

        def write(self, text):
            self.lines += text.count("\n")
            return len(text)

    sink = LineCounter()
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(sink):
            code = main(["extremal", "--graph", "grid:4x4", "--k", "3", "--r", "2"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (code, sink.lines) == (EXIT_OK, 32767 + 5)
    assert peak < 1 << 20, peak


def test_product_bound_golden(capsys):
    code, out, _ = run(
        capsys, ["product-bound", "--left", "path:2", "--right", "cycle:3"]
    )
    assert code == EXIT_OK
    assert out == "product: path:2 x cycle:3 n=6\naw = 3\nbound: pass\n"

    code, out, _ = run(
        capsys, ["product-bound", "--left", "path:2", "--right", "path:3"]
    )
    assert code == EXIT_OK
    assert out == (
        "product: path:2 x path:3 n=6\n"
        "aw = 4\n"
        "witness: 1 1 2 3 1 1\n"
        "bound: pass\n"
    )


def test_table_golden(capsys):
    code, out, _ = run(capsys, ["table", "--max-cells", "8"])
    assert code == EXIT_OK
    assert out == (
        "m=2 n=2 formula=3 search=3 match=yes\n"
        "m=2 n=3 formula=4 search=4 match=yes\n"
        "m=2 n=4 formula=3 search=3 match=yes\n"
        "all-match: yes\n"
    )


def test_table_sixteen_cells(capsys):
    code, out, _ = run(capsys, ["table", "--max-cells", "16"])
    assert code == EXIT_OK
    assert out.count("match=yes") == 11
    assert out.endswith("all-match: yes\n")


def test_construct_verify_round_trip(capsys, tmp_path):
    out_path = tmp_path / "corner.coloring"
    code, out, _ = run(
        capsys,
        ["construct", "--name", "corner", "--m", "2", "--n", "3", "--out", str(out_path)],
    )
    assert code == EXIT_OK
    assert out == (
        "construction: corner m=2 n=3\n"
        "self-check: rainbow-free\n"
        f"wrote: {out_path}\n"
    )
    assert out_path.read_text(encoding="utf-8") == "6 3\n1 3 3 3 3 2\n"

    code, out, _ = run(
        capsys,
        ["verify", "--graph", "grid:2x3", "--k", "3", "--coloring", str(out_path)],
    )
    assert code == EXIT_OK
    assert out == (
        "graph grid:2x3 n=6 m=7\n"
        "k = 3\n"
        "coloring: r=3 1 3 3 3 3 2\n"
        "result: rainbow-free\n"
    )

    two_red = tmp_path / "tworect.coloring"
    code, out, _ = run(
        capsys,
        [
            "construct", "--name", "two-red-corner",
            "--m", "4", "--n", "4", "--out", str(two_red),
        ],
    )
    assert code == EXIT_OK
    coloring = parse_coloring(two_red.read_text(encoding="utf-8"))
    assert coloring.colors == (3, 1, 3, 3, 1, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 2)
    code, out, _ = run(
        capsys,
        ["verify", "--graph", "grid:4x4", "--k", "3", "--coloring", str(two_red)],
    )
    assert code == EXIT_OK
    assert out.endswith("result: rainbow-free\n")


def test_construct_self_check_failure_writes_nothing(capsys, monkeypatch, tmp_path):
    monkeypatch.setitem(
        GRID_COLORINGS, "corner", lambda m, n: Coloring((1, 2, 3, 3, 3, 3), 3)
    )
    out_path = tmp_path / "X"
    code, out, _ = run(
        capsys,
        ["construct", "--name", "corner", "--m", "2", "--n", "3", "--out", str(out_path)],
    )
    assert code == EXIT_FAIL
    assert out == (
        "construction: corner m=2 n=3\n"
        "self-check: FAILED rainbow-ap vertices=0,1,2 d=1\n"
    )
    assert not out_path.exists()


def test_verify_reports_rainbow_ap_with_coords(capsys, tmp_path):
    path = tmp_path / "bad.coloring"
    path.write_text("6 3\n1 1 2 3 2 1\n", encoding="utf-8")
    code, out, _ = run(
        capsys, ["verify", "--graph", "grid:2x3", "--k", "3", "--coloring", str(path)]
    )
    assert code == EXIT_OK
    assert out.endswith(
        "result: rainbow-ap vertices=0,3,4 ordering=0,3,4 d=1"
        " coords=(1,1),(2,1),(2,2)\n"
    )


def test_module_entry_matches_main_and_propagates_exit_codes(capsys, tmp_path):
    # `PYTHONPATH=src python -m awgraph.cli` is the route that needs no install.
    path = tmp_path / "bad.coloring"
    path.write_text("6 3\n1 1 2 3 2 1\n", encoding="utf-8")
    argv = ["verify", "--graph", "grid:2x3", "--k", "3", "--coloring", str(path)]
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))

    def run_module(args):
        return subprocess.run(
            [sys.executable, "-m", "awgraph.cli", *args],
            capture_output=True, cwd=tmp_path, env=env, timeout=60,
        )

    proc = run_module(argv)
    code, out, _ = run(capsys, argv)
    assert (proc.returncode, code) == (EXIT_OK, EXIT_OK)
    assert proc.stdout == out.encode()
    proc = run_module(["aw", "--graph", "grid:4x4", "--k", "3", "--budget", "5"])
    assert proc.returncode == EXIT_BUDGET


def test_verify_without_grid_coords(capsys, tmp_path):
    # In K_4 every member of a 3-AP is a middle; the smallest one goes in
    # the middle, so the ordering is not the lexicographically least.
    for spec, text, result in [
        ("cycle:6", "6 3\n1 2 3 1 2 3\n", "result: rainbow-ap"),
        ("complete:4", "4 3\n1 2 3 1\n", "result: rainbow-ap vertices=0,1,2 ordering=1,0,2 d=1\n"),
    ]:
        path = tmp_path / "input.coloring"
        path.write_text(text, encoding="utf-8")
        code, out, _ = run(
            capsys, ["verify", "--graph", spec, "--k", "3", "--coloring", str(path)]
        )
        assert code == EXIT_OK
        assert result in out
        assert "coords=" not in out


def test_file_spec_and_nesting(capsys, tmp_path):
    graph_path = tmp_path / "p3.graph"
    graph_path.write_text(graph_to_text(build_path(3)), encoding="utf-8")
    code, out, _ = run(capsys, ["aw", "--graph", f"file:{graph_path}", "--k", "3"])
    assert code == EXIT_OK
    assert "aw = 3\n" in out

    code, out, _ = run(
        capsys,
        ["product-bound", "--left", f"file:{graph_path}", "--right", "path:2"],
    )
    assert code == EXIT_OK
    assert out.endswith("bound: pass\n")

    # The loaded file is structurally the canonical 3-vertex chain, so the
    # product is recognized as a grid and gets coordinates.
    g, coords = parse_graph_spec(f"product:file:{graph_path},path:2")
    assert g.n == 6
    assert (coords.m, coords.n) == (3, 2)


def test_product_nesting_depth_limit(capsys):
    deep = "product:" * 4 + "path:2," + "path:2," * 3 + "path:2"
    code, _, err = run(capsys, ["aw", "--graph", deep, "--k", "3"])
    assert code == EXIT_USAGE
    assert err.startswith("error:")

    threefold = "product:" * 3 + "path:2," + "path:2," * 2 + "path:2"
    code, out, _ = run(capsys, ["aw", "--graph", threefold, "--k", "3"])
    assert code == EXIT_OK
    assert "n=16" in out


def test_usage_errors(capsys, tmp_path):
    cases = [
        ["aw", "--graph", "blob:3", "--k", "3"],
        ["aw", "--graph", "grid:2", "--k", "3"],
        ["aw", "--graph", "path:2,", "--k", "3"],
        ["aw", "--graph", "path:two", "--k", "3"],
        ["aw", "--graph", "cycle:2", "--k", "3"],
        ["aw", "--graph", "path:3", "--k", "1"],
        ["aw", "--graph", "file:/does/not/exist", "--k", "3"],
        ["extremal", "--graph", "path:3", "--k", "3", "--r", "9"],
        ["construct", "--name", "corner", "--m", "2", "--n", "2", "--out", "x"],
        ["table", "--max-cells", "3"],
        ["product-bound", "--left", "path:1", "--right", "path:2"],
        ["aw", "--graph", "grid:2x3", "--k", "3", "--budget", "0"],
        ["extremal", "--graph", "path:3", "--k", "3", "--r", "0"],
        ["extremal", "--graph", "path:3", "--k", "3", "--r", "2", "--budget", "0"],
    ]
    # A usage error writes nothing on stdout, not even the extremal header.
    for argv in cases:
        code, out, err = run(capsys, argv)
        assert (code, out) == (EXIT_USAGE, ""), argv
        assert err.startswith("error:"), argv

    bad = tmp_path / "bad.coloring"
    bad.write_text("3 3\n0 1 2\n", encoding="utf-8")
    code, out, err = run(
        capsys, ["verify", "--graph", "path:3", "--k", "3", "--coloring", str(bad)]
    )
    assert (code, out) == (EXIT_USAGE, "")
    assert err.startswith("error:")

    short = tmp_path / "short.coloring"
    short.write_text("2 2\n1 2\n", encoding="utf-8")
    code, out, _ = run(
        capsys, ["verify", "--graph", "path:3", "--k", "3", "--coloring", str(short)]
    )
    assert (code, out) == (EXIT_USAGE, "")

    # So is a coloring with more vertices than the graph.
    long = tmp_path / "long.coloring"
    long.write_text("5 3\n1 2 3 1 2\n", encoding="utf-8")
    argv = ["verify", "--graph", "grid:2x3", "--k", "3", "--coloring", str(long)]
    message = "error: coloring has 5 vertices but the graph has 6\n"
    assert run(capsys, argv) == (EXIT_USAGE, "", message)

    # A color left unused is refused like any other malformed coloring file.
    inexact = tmp_path / "inexact.coloring"
    inexact.write_text("3 3\n1 2 2\n", encoding="utf-8")
    argv = ["verify", "--graph", "path:3", "--k", "3", "--coloring", str(inexact)]
    assert run(capsys, argv) == (EXIT_USAGE, "", "error: not exact: colors [3] unused\n")

    good = tmp_path / "good.coloring"
    good.write_text("3 2\n1 2 1\n", encoding="utf-8")
    argv = ["verify", "--graph", "path:3", "--k", "1", "--coloring", str(good)]
    assert run(capsys, argv) == (EXIT_USAGE, "", "error: k-APs need k >= 2, got k=1\n")

    # A declared r of 10^9 is refused in time and memory linear in n, with
    # a one-line message: 1..r is never built or listed.
    huge = tmp_path / "huge.coloring"
    huge.write_text("3 1000000000\n1 2 3\n", encoding="utf-8")
    argv = ["verify", "--graph", "path:3", "--k", "3", "--coloring", str(huge)]
    start = time.perf_counter()
    tracemalloc.start()
    try:
        code, out, err = run(capsys, argv)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - start < 5
    assert (code, out) == (EXIT_USAGE, "")
    assert err == "error: not exact: colors [4, 5, 6, 7, 8, 9, 10, 11, 12, 13, ...] unused\n"
    assert peak < 1 << 20, peak


def test_usage_error_messages(capsys):
    for argv, line in (
        (["aw", "--graph", "path3", "--k", "3"], "graph spec needs '<kind>:...', got 'path3'"),
        (
            ["aw", "--graph", "product:path:2", "--k", "3"],
            "product spec needs two comma-separated operands",
        ),
        (
            ["aw", "--graph", "path:3", "--k", "3", "--budget", "0"],
            "--budget must be positive, got 0",
        ),
        (["aw", "--graph", "grid:0x3", "--k", "3"], "grid needs m, n >= 1, got 0x3"),
        # Every command that reads --k refuses k < 2 in the AP layer's words.
        (["aw", "--graph", "path:3", "--k", "1"], "k-APs need k >= 2, got k=1"),
        (
            ["extremal", "--graph", "path:3", "--k", "1", "--r", "2"],
            "k-APs need k >= 2, got k=1",
        ),
        (["aw", "--graph", "grid:ax3", "--k", "3"], "grid rows must be an integer, got 'a'"),
        (["aw", "--graph", "grid:2xb", "--k", "3"], "grid columns must be an integer, got 'b'"),
        (["aw", "--graph", "path:z", "--k", "3"], "path size must be an integer, got 'z'"),
        (
            ["aw", "--graph", "product:path:2,cycle:q", "--k", "3"],
            "cycle size must be an integer, got 'q'",
        ),
    ):
        assert run(capsys, argv) == (EXIT_USAGE, "", f"error: {line}\n"), argv


def test_extremal_checks_arguments_before_distances(capsys, monkeypatch):
    # k, then --budget, then r are refused before any distance is computed.
    def no_distances(g):
        raise AssertionError("distances computed before the arguments were checked")

    monkeypatch.setattr("awgraph.cli.all_pairs_distances", no_distances)
    base = ["extremal", "--graph", "grid:3x4"]
    for extra, line in (
        (["--k", "1", "--r", "2"], "k-APs need k >= 2, got k=1"),
        (["--k", "1", "--r", "0", "--budget", "0"], "k-APs need k >= 2, got k=1"),
        (["--k", "3", "--r", "0"], "need 1 <= r <= n, got r=0 with n=12"),
        (["--k", "3", "--r", "99"], "need 1 <= r <= n, got r=99 with n=12"),
        (["--k", "3", "--r", "2", "--budget", "0"], "--budget must be positive, got 0"),
        (["--k", "3", "--r", "0", "--budget", "0"], "--budget must be positive, got 0"),
    ):
        assert run(capsys, base + extra) == (EXIT_USAGE, "", f"error: {line}\n"), extra


def test_budget_exit_codes(capsys):
    code, _, err = run(
        capsys, ["aw", "--graph", "grid:3x4", "--k", "3", "--budget", "5"]
    )
    assert code == EXIT_BUDGET
    assert err.startswith("error:")

    # extremal writes its header once every argument is checked, then each
    # row as the search finds it.  A budget exit keeps the rows written so
    # far, a prefix of the full output, and writes no count lines.
    argv = ["extremal", "--graph", "grid:3x4", "--k", "3", "--r", "2"]
    code, full, _ = run(capsys, argv)
    assert code == EXIT_OK
    header = "graph grid:3x4 n=12 m=17\nk = 3\nr = 2\n"
    for budget, rows in ((10, 0), (100, 46)):
        code, out, err = run(capsys, argv + ["--budget", str(budget)])
        assert code == EXIT_BUDGET
        assert out.startswith(header) and full.startswith(out)
        assert "count =" not in out
        assert out.count("\n") == 3 + rows
        assert err == f"error: search expanded more than {budget} nodes (r=2, n=12)\n"
    # The enumeration enters 4,095 nodes and finds 2,047 rows, written in
    # blocks.  At every 37th budget below that, the rows written are whole
    # (each row is built from the one before), and they are every row the
    # stream yields before the budget stops it, within a block or past one.
    table = enumerate_k_aps(all_pairs_distances(parse_graph_spec("grid:3x4")[0]), 3)
    for budget in range(1, 4095, 37):
        found = 0
        with pytest.raises(BudgetExceededError):
            for _ in iter_rainbow_free_changes(table, 2, budget=budget):
                found += 1
        code, out, _ = run(capsys, argv + ["--budget", str(budget)])
        assert code == EXIT_BUDGET, budget
        assert out.startswith(header) and full.startswith(out), budget
        rows = out[len(header):].splitlines(keepends=True)
        assert all(
            row.startswith("coloring: ") and row.endswith("\n") and len(row.split()) == 13
            for row in rows
        ), budget
        assert len(rows) == found, budget
        assert "count =" not in out, budget
    assert run(capsys, argv + ["--budget", "4095"]) == (EXIT_OK, full, "")

    code, _, _ = run(
        capsys,
        ["aw", "--graph", "grid:3x4", "--k", "3", "--budget", "1000000"],
    )
    assert code == EXIT_OK


def test_no_budget_variable_or_underscore_alias(capsys, monkeypatch):
    # The budget comes from --budget alone, and each subcommand has one name.
    argv = ["aw", "--graph", "grid:3x4", "--k", "3"]
    code, plain, _ = run(capsys, argv)
    assert code == EXIT_OK
    monkeypatch.setenv("AWGRAPH_BUDGET", "5")
    assert run(capsys, argv) == (EXIT_OK, plain, "")

    proc = subprocess.run(
        [sys.executable, "-m", "awgraph.cli",
         "product_bound", "--left", "path:2", "--right", "path:2"],
        capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src")),
    )
    assert proc.returncode == EXIT_USAGE
    assert proc.stdout == ""
    assert "invalid choice: 'product_bound'" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_deep_graph_exhausts_budget_without_traceback(capsys):
    # The search keeps no Python frame per vertex, so a graph deeper than
    # the interpreter's recursion limit ends in the budget error.
    code, out, err = run(
        capsys, ["aw", "--graph", "path:1100", "--k", "3", "--budget", "5000"]
    )
    assert code == EXIT_BUDGET
    assert out == ""
    assert err.startswith("error:")


def test_repeat_byte_identical(capsys):
    for argv in (
        ["aw", "--graph", "grid:3x4", "--k", "3"],
        ["extremal", "--graph", "grid:3x4", "--k", "3", "--r", "2"],
    ):
        _, first, _ = run(capsys, argv)
        _, second, _ = run(capsys, argv)
        assert first == second


def test_failed_writes_keep_existing_files(capsys, monkeypatch, tmp_path):
    # --cert and --out write through a temp file in the target directory,
    # so a failure before or during the rename leaves the old file as it was.
    # The file is written before anything is printed, so exit 2 prints nothing.
    cert = tmp_path / "out.cert"
    coloring = tmp_path / "corner.coloring"
    cert.write_bytes(b"old certificate\n")
    coloring.write_bytes(b"old coloring\n")
    aw_argv = ["aw", "--graph", "grid:2x3", "--k", "3", "--cert", str(cert)]
    construct_argv = [
        "construct", "--name", "corner", "--m", "2", "--n", "3",
        "--out", str(coloring),
    ]

    def boom(*args, **kwargs):
        raise OSError("disk full")

    for target, argv in (
        ("awgraph.cli.emit_certificate", aw_argv),
        ("awgraph.cli.coloring_to_text", construct_argv),
        ("os.replace", aw_argv),
        ("os.replace", construct_argv),
    ):
        with monkeypatch.context() as m:
            m.setattr(target, boom)
            code, out, err = run(capsys, argv)
        assert code == EXIT_USAGE, (target, argv[0])
        assert out == "", (target, argv[0])
        assert "disk full" in err
        assert cert.read_bytes() == b"old certificate\n"
        assert coloring.read_bytes() == b"old coloring\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "corner.coloring", "out.cert",
        ]


def test_write_into_missing_directory_names_the_target(capsys, tmp_path):
    # The temp file's random name must not reach stderr: the error names the
    # target and the OS reason, and repeated runs print the same bytes.
    target = str(tmp_path / "missing" / "x")
    for argv in (
        ["aw", "--graph", "grid:2x3", "--k", "3", "--cert", target],
        ["construct", "--name", "corner", "--m", "2", "--n", "3", "--out", target],
    ):
        first = run(capsys, argv)
        assert first[0] == EXIT_USAGE, argv[0]
        assert first[1] == "", argv[0]
        assert first[2] == f"error: cannot write {target}: {os.strerror(errno.ENOENT)}\n"
        assert run(capsys, argv) == first
    assert list(tmp_path.iterdir()) == []


def test_main_builds_its_parser_once(capsys):
    # Importing the module builds nothing; the first main call builds the
    # parser and every later call in the process reuses it.
    proc = subprocess.run(
        [sys.executable, "-c", "import awgraph.cli as c; print(c.build_parser.cache_info().misses)"],
        capture_output=True, text=True, env=SRC_ENV, timeout=60, check=True,
    )
    assert proc.stdout == "0\n"
    build_parser.cache_clear()
    for argv in (
        ["aw", "--graph", "path:4", "--k", "3"],
        ["extremal", "--graph", "path:5", "--k", "3", "--r", "2"],
        ["table", "--max-cells", "6"],
        ["aw", "--graph", "path:4", "--k", "3"],
    ):
        assert run(capsys, argv)[0] == EXIT_OK
    info = build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 3)


def test_argparse_errors_leave_the_parser_as_it_was(capsys):
    # A usage error exits 2 with the same usage and message that a freshly
    # built parser prints, and the next call runs as if it came first.
    valid = ["extremal", "--graph", "path:5", "--k", "3", "--r", "2"]
    want = run(capsys, valid)
    for bad in (
        ["extremal", "--graph", "path:5", "--k", "x", "--r", "2"],
        ["extremal", "--k", "3", "--r", "2"],
    ):
        with pytest.raises(SystemExit) as fresh:
            build_parser.__wrapped__().parse_args(bad)
        fresh_err = capsys.readouterr().err
        with pytest.raises(SystemExit) as info:
            main(bad)
        out, err = capsys.readouterr()
        assert (info.value.code, fresh.value.code) == (EXIT_USAGE, EXIT_USAGE)
        assert out == ""
        assert err.startswith("usage: awgraph extremal")
        assert err == fresh_err
        assert run(capsys, valid) == want


def test_no_argument_carries_over_between_calls(capsys, tmp_path):
    cert = tmp_path / "g.cert"
    sequence = [
        ["aw", "--graph", "grid:2x3", "--k", "3", "--cert", str(cert), "--budget", "100"],
        ["aw", "--graph", "grid:2x3", "--k", "3"],
        ["extremal", "--graph", "grid:2x5", "--k", "3", "--r", "3"],
    ]
    outs = [run(capsys, argv) for argv in sequence]
    for argv, got in zip(sequence, outs):
        alone = subprocess.run(
            [sys.executable, "-m", "awgraph.cli", *argv],
            capture_output=True, text=True, env=SRC_ENV, timeout=60,
        )
        assert got == (alone.returncode, alone.stdout, alone.stderr), argv
    parser = build_parser()
    parser.parse_args(sequence[0])
    args = parser.parse_args(sequence[1])
    assert (args.cert, args.budget) == (None, None)
    assert vars(args) == vars(build_parser.__wrapped__().parse_args(sequence[1]))


def test_help_matches_a_freshly_built_parser(capsys):
    fresh = build_parser.__wrapped__()
    for argv in (["--help"], ["extremal", "--help"], ["--help"]):
        with pytest.raises(SystemExit) as info:
            main(argv)
        got = capsys.readouterr()
        with pytest.raises(SystemExit):
            fresh.parse_args(argv)
        assert (info.value.code, got.err) == (EXIT_OK, "")
        assert got.out == capsys.readouterr().out, argv
    assert got.out == fresh.format_help()
