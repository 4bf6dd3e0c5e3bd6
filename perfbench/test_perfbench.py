"""Tests of the benchmark's own code: statistics, spans, generators, reference loop."""

from __future__ import annotations

import ast
import bisect
import contextlib
import gc
import io
import json
import statistics
import sys
from pathlib import Path

import pytest

import refloop
import run
from tracing import Span, Tracer, self_times, summarize
from workloads import (
    CERT_SLOTS,
    PRODUCT_SAMPLE,
    CertifyVerify,
    ExtremalEnum,
    ProductSweep,
    cert_grids,
    certificate_plan,
)

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


@pytest.fixture(autouse=True)
def _keep_awgraph_modules():
    """Set-ups re-import awgraph; give other test modules theirs back afterwards."""

    def ours():
        return {k: v for k, v in sys.modules.items() if k == "awgraph" or k.startswith("awgraph.")}

    saved = ours()
    yield
    for name in ours():
        del sys.modules[name]
    sys.modules.update(saved)


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------


def test_percentile_on_known_data():
    values = list(range(100, 0, -1))  # 1..100, unsorted
    assert len(values) == 100
    p50 = run.percentile(values, 0.5)
    p90 = run.percentile(values, 0.9)
    assert p50 == pytest.approx(50.5)
    assert p90 == pytest.approx(90.9)
    assert sum(1 for v in values if v > p90) == 10
    deciles = statistics.quantiles(values, n=10)
    assert (p50, p90) == pytest.approx((deciles[4], deciles[8]))


def test_percentile_clamps_to_the_data():
    assert run.percentile([3.0], 0.9) == 3.0
    assert run.percentile([1.0, 2.0, 3.0], 0.5) == 2.0
    assert run.percentile([1.0, 2.0, 3.0], 0.9) == 3.0
    assert run.percentile([1.0, 2.0, 3.0], 0.1) == 1.0


def test_spread_is_interquartile_range_over_median():
    assert run.spread([1.0, 2.0, 3.0, 4.0, 5.0]) == pytest.approx((4.5 - 1.5) / 3.0)


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------


def _tree():
    # root [0, 10] holds a [1, 4] and b [5, 9]; b holds c [6, 7].
    return [
        Span(0, None, 0, "root", 0.0, 10.0, {"certify.bytes": 7}),
        Span(1, 0, 0, "a", 1.0, 4.0, {"aps.count": 2}),
        Span(2, 0, 0, "b", 5.0, 9.0),
        Span(3, 2, 0, "c", 6.0, 7.0, {"aps.count": 3}),
    ]


def test_self_times_on_hand_built_tree():
    assert self_times(_tree()) == {0: 3.0, 1: 3.0, 2: 3.0, 3: 1.0}


def test_self_time_counts_overlapping_children_once():
    spans = [
        Span(0, None, 0, "root", 0.0, 10.0),
        Span(1, 0, 0, "a", 2.0, 6.0),
        Span(2, 0, 0, "a", 4.0, 8.0),
    ]
    assert self_times(spans)[0] == pytest.approx(4.0)


def test_summary_self_times_sum_to_operation_time():
    s = summarize(_tree())
    assert s.op_s == 10.0
    assert sum(s.self_s.values()) == pytest.approx(s.op_s)
    assert s.calls == {"root": 1, "a": 1, "b": 1, "c": 1}
    assert s.counts == {"certify.bytes": 7, "aps.count": 5}


def test_tracer_nests_spans_and_restores_patches():
    import types

    module = types.ModuleType("perfbench_fake")
    module.leaf = lambda x: x * 2
    sys.modules["perfbench_fake"] = module
    try:
        from tracing import Probe

        tracer = Tracer()
        tracer.install([Probe("perfbench_fake", "leaf", "leaf", lambda a, kw, r: {"n": r})])
        assert tracer.run_op(4, "root", lambda: module.leaf(3) + module.leaf(1), {"k": 1}) == 8
        tracer.uninstall()
        assert module.leaf(5) == 10
        assert len(tracer.spans) == 3  # the restored attribute records nothing
    finally:
        del sys.modules["perfbench_fake"]
    root, first, second = tracer.spans
    assert (root.parent, first.parent, second.parent) == (None, 0, 0)
    assert {s.op_id for s in tracer.spans} == {4}
    assert summarize(tracer.spans).counts == {"k": 1, "n": 8}


# ----------------------------------------------------------------------
# Generators
# ----------------------------------------------------------------------


def test_product_sample_is_seeded_and_takes_one_graph_per_stratum():
    w = ProductSweep()
    a, b = w.sample(11), w.sample(11)
    assert a == b
    assert a != w.sample(12)
    assert len(a) == len(set(a)) == PRODUCT_SAMPLE
    order = w._order
    bounds = [s * len(order) // PRODUCT_SAMPLE for s in range(PRODUCT_SAMPLE)]
    strata = sorted(bisect.bisect_right(bounds, order.index(i)) - 1 for i in a)
    assert strata == list(range(PRODUCT_SAMPLE))


def test_extremal_order_is_seeded_permutation():
    assert ExtremalEnum.order(5) == ExtremalEnum.order(5)
    assert ExtremalEnum.order(5) != ExtremalEnum.order(6)
    assert sorted(ExtremalEnum.order(5)) == sorted(ExtremalEnum.order(6))


def test_certificate_plan_is_seeded_with_fixed_share_per_grid():
    plan = certificate_plan(3)
    assert plan == certificate_plan(3)
    assert plan != certificate_plan(4)
    grids = {(m, n) for m, n, _, _ in plan}
    assert grids == set(cert_grids()) and len(plan) >= 100
    for grid in grids:
        slots = sorted(slot for m, n, slot, _ in plan if (m, n) == grid)
        assert slots == sorted(CERT_SLOTS)


# ----------------------------------------------------------------------
# Reference loop
# ----------------------------------------------------------------------


def _tracked_allocations(scale: int) -> int:
    gc.collect()
    gc.disable()
    try:
        before = gc.get_count()[0]
        refloop.reference_work(scale)
        return gc.get_count()[0] - before
    finally:
        gc.enable()


def test_reference_work_allocates_no_tracked_objects_per_iteration():
    assert _tracked_allocations(1) == _tracked_allocations(5)


def test_reference_search_counts_rainbow_free_colorings():
    # The 3 x 4 grid's canonical rainbow-free exact 3-colorings, as
    # `awgraph extremal --graph grid:3x4 --k 3 --r 3` prints them.
    from awgraph.cli import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        main(["extremal", "--graph", "grid:3x4", "--k", "3", "--r", "3"])
    assert f"count = {refloop._extend([0] * 12, 0, 0)}" in out.getvalue()


def test_reference_work_imports_nothing_from_awgraph():
    tree = ast.parse((HERE / "refloop.py").read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
    assert imported <= {"__future__", "time"}


# ----------------------------------------------------------------------
# Deterministic counts and traced results
# ----------------------------------------------------------------------


def _traced_pass(workload_cls, seed, keep):
    w = workload_cls()
    r = run.Run(w, [op for op in w.setup(seed) if keep(op)])
    r.one_pass()
    tracer = Tracer()
    tracer.install(w.probes)
    try:
        r.one_pass(tracer)
    finally:
        tracer.uninstall()
    r.check_outputs()
    assert r.errors == [] and r.failed == 0
    s = summarize(tracer.spans)
    assert sum(s.self_s.values()) == pytest.approx(s.op_s)
    assert set(s.self_s) <= set(run.LAYERS)
    return s.calls, s.counts


@pytest.mark.parametrize(
    "workload_cls, keep",
    [
        (ProductSweep, lambda op: op.data[0] % 9 == 0),
        (ExtremalEnum, lambda op: op.data in {("cycle:9", 4, 4), ("cycle:10", 4, 5), ("path:12", 3, 2)}),
        (CertifyVerify, lambda op: op.key.startswith(("grid:4x11 ", "grid:6x7 "))),
    ],
)
def test_traced_counts_repeat_and_traced_results_match(workload_cls, keep):
    # Run.check_outputs compares the traced pass's outputs with the untraced one's.
    first = _traced_pass(workload_cls, 21, keep)
    assert first == _traced_pass(workload_cls, 21, keep)
    assert first[0]  # some spans were recorded


# ----------------------------------------------------------------------
# Output contract
# ----------------------------------------------------------------------


def _main(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run.main(list(argv)) == 0
    return json.loads(out.getvalue().splitlines()[-1])


def test_untraced_run_prints_every_end_to_end_metric():
    result = _main("--workload", "certify-verify", "--seed", "2", "--seconds", "0", "--trace", "0")
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_run_prints_every_per_layer_metric():
    result = _main("--workload", "certify-verify", "--seed", "2", "--seconds", "0", "--trace", "1")
    assert result["correct"]
    expected = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
