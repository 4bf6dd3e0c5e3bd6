"""Run one benchmark workload against the awgraph sources of this checkout.

    python3 perfbench/run.py --workload product-sweep --seed 7 --seconds 15 --trace 0

Workloads: product-sweep, extremal-enum, certify-verify (see workloads.py).
One closed-loop client runs the workload's operations in passes, one at a
time, then checks every output against the workload's oracle.

Host speed on a shared machine drifts by about a fifth between processes
and within one, so every speed metric is a ratio to fixed reference work
(refloop.py) timed in the same process, interleaved with the operations so
that it takes REF_SHARE of the measured time.  Each operation's time is
divided by the median of the REF_WINDOW reference calls nearest to it, so
the ratio is in units of "ref": seconds on a machine of fixed speed.  The
raw seconds are printed beside it so the normalization can be audited.

Some processes run the program up to 15 % slower than others relative to
the same reference, for their whole life.  So --trace 0 measures in
CHILDREN fresh processes in turn, each for an equal share of --seconds (at
least one pass), and takes for each operation the median of its normalized
times over all of them.  These per-operation medians are the latency
samples, one per operation of a pass, and pass_ref is their sum.  setup_s
is normalized the same way, by the reference calls around each set-up, and
scaled to seconds by REF_NOMINAL_S.

--trace 1 runs in one process: it alternates untraced and traced passes
and reports per-layer self times and counts from the traced ones
(tracing.py), plus the tracing overhead.

Two lines go to stdout: a report with every figure of the run, then the
result, one JSON object with keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from refloop import timed_reference_call  # noqa: E402
from tracing import Tracer, summarize  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

REF_SHARE = 0.2
REF_WINDOW = 8
SETUP_REPEATS = 2
# Set-up time is reported in seconds on a machine where one reference call
# takes REF_NOMINAL_S, about its time on the 2-vCPU VM the bounds were set on.
REF_NOMINAL_S = 0.010
CHILDREN = 5
CHILD_TIMEOUT_S = 55
# A process whose reference calls spread wider than this (interquartile
# range over median) ran on a host too unsteady for the reference to track
# closely; the report flags it.
REF_SPREAD_LIMIT = 0.25
SPANS_DIR = ROOT / ".bench_out"

LAYERS = (
    "constructions",
    "cli",
    "certify.verify",
    "search.compute_aw",
    "search.exists_none",
    "search.exists_found",
    "search.enumerate",
    "graphs.build",
    "graphs.distances",
    "aps.enumerate",
    "aps.find_rainbow",
)
COUNTS = ("search.solutions", "aps.count", "aps.scanned", "graphs.vertices", "certify.bytes")


def percentile(values, q: float) -> float:
    """q-quantile by linear interpolation at rank (n + 1) q, clamped to the data.

    This is the default method of statistics.quantiles.
    """
    xs = sorted(values)
    h = (len(xs) + 1) * q
    if h <= 1:
        return xs[0]
    if h >= len(xs):
        return xs[-1]
    lo = int(h)
    return xs[lo - 1] + (h - lo) * (xs[lo] - xs[lo - 1])


def spread(values) -> float:
    """Interquartile range over median."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


class Run:
    """Passes over one workload's operations, with interleaved reference calls."""

    def __init__(self, workload, ops) -> None:
        self.workload = workload
        self.ops = ops
        self.ref_starts: list[float] = []
        self.ref_calls: list[float] = []
        self.samples: list[tuple[int, float, float]] = []  # (op index, start, seconds)
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self._op_total = 0.0
        self._ref_total = 0.0
        self._first: dict[str, tuple] = {}
        self._runs: dict[str, int] = {}

    def one_pass(self, tracer: Tracer | None = None) -> float:
        """Run every operation once; returns the summed operation seconds."""
        total = 0.0
        for i, op in enumerate(self.ops):
            # Every operation starts from a collected heap, as a fresh CLI
            # process would, so no operation pays for its predecessors'
            # garbage and the seeded order does not move its time.
            gc.collect()
            start = time.perf_counter()
            try:
                if tracer is None:
                    out = op.call()
                else:
                    out = tracer.run_op(i, self.workload.root, op.call, op.counts)
            except Exception as exc:  # any failure of the program is counted
                out = exc
            elapsed = time.perf_counter() - start
            total += elapsed
            self.samples.append((i, start, elapsed))
            self._interleave(elapsed)
            self._record(op, out)
        return total

    def _interleave(self, elapsed: float) -> None:
        self._op_total += elapsed
        while self._ref_total < REF_SHARE / (1 - REF_SHARE) * self._op_total:
            self.ref_starts.append(time.perf_counter())
            t = timed_reference_call()
            self.ref_calls.append(t)
            self._ref_total += t

    def normalized(self) -> list[tuple[int, float]]:
        """(op index, seconds / median of the nearest reference calls) per sample."""
        half = REF_WINDOW // 2
        out = []
        for i, start, elapsed in self.samples:
            j = bisect.bisect(self.ref_starts, start)
            window = self.ref_calls[max(0, j - half) : j + half]
            out.append((i, elapsed / statistics.median(window)))
        return out

    def _record(self, op, out) -> None:
        self.attempted += 1
        if isinstance(out, Exception):
            self.failed += 1
            self.errors.append(f"{op.key}: raised {type(out).__name__}: {out}")
            return
        fingerprint = self.workload.fingerprint(out)
        if op.key not in self._first:
            self._first[op.key] = (op, out, fingerprint)
            self._runs[op.key] = 1
        elif fingerprint == self._first[op.key][2]:
            self._runs[op.key] += 1
        else:
            self.failed += 1
            self.errors.append(f"{op.key}: output differs from its first run")

    def check_outputs(self) -> None:
        """Oracle on the first output of each input; later ones were compared to it."""
        for key, (op, out, _) in self._first.items():
            problems = self.workload.check(op, out)
            if problems:
                self.failed += self._runs[key]
                self.errors.append(f"{key}: {'; '.join(problems)}")


def set_up(workload, seed: int):
    """Set up SETUP_REPEATS times; returns the last operations and, per set-up,
    its seconds and the median of the REF_WINDOW reference calls around it."""
    half = REF_WINDOW // 2
    refs = [timed_reference_call() for _ in range(half)]
    times, ref_medians = [], []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        ops = workload.setup(seed)
        times.append(time.perf_counter() - start)
        after = [timed_reference_call() for _ in range(half)]
        ref_medians.append(statistics.median(refs + after))
        refs = after
    return ops, times, ref_medians


def measure(workload_name: str, seed: int, seconds: float) -> dict:
    """One child process's share of a timed run, as raw figures."""
    workload = WORKLOADS[workload_name]()
    ops, setup_times, setup_refs = set_up(workload, seed)
    run = Run(workload, ops)
    deadline = time.perf_counter() + seconds
    passes = []
    while not passes or time.perf_counter() < deadline:
        passes.append(run.one_pass())
    run.check_outputs()
    return {
        "setup_s": setup_times,
        "setup_ref": [t / r for t, r in zip(setup_times, setup_refs)],
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ops": len(ops),
        "attempted": run.attempted,
        "failed": run.failed,
        "errors": run.errors,
        "pass_s": passes,
        "ref_calls": run.ref_calls,
        "normalized": run.normalized(),
    }


def spawn(args) -> dict:
    """Run measure() in a fresh interpreter and return its figures."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--child",
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds / CHILDREN), "--trace", "0",
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise RuntimeError(f"measuring process exited with {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def timed(args) -> tuple[dict, dict]:
    children = [spawn(args) for _ in range(CHILDREN)]
    per_op: dict[int, list[float]] = {}
    for child in children:
        for i, ratio in child["normalized"]:
            per_op.setdefault(i, []).append(ratio)
    latencies = [statistics.median(v) for v in per_op.values()]
    p90 = percentile(latencies, 0.9)
    ref_calls = [t for c in children for t in c["ref_calls"]]
    setup_times = [t for c in children for t in c["setup_s"]]
    setup_refs = [t for c in children for t in c["setup_ref"]]
    metrics = {
        "pass_ref": (sum(latencies), "ref"),
        "latency_p50_ref": (percentile(latencies, 0.5), "ref"),
        "latency_p90_ref": (p90, "ref"),
        "setup_s": (statistics.median(setup_refs) * REF_NOMINAL_S, "s"),
        "peak_rss_mb": (statistics.median(c["rss_mb"] for c in children), "MB"),
    }
    spreads = [spread(c["ref_calls"]) for c in children]
    figures = {
        "ops_per_pass": children[0]["ops"],
        "processes": CHILDREN,
        "passes": [len(c["pass_s"]) for c in children],
        "attempted": sum(c["attempted"] for c in children),
        "failed": sum(c["failed"] for c in children),
        "errors": [e for c in children for e in c["errors"]],
        "pass_s": statistics.median(t for c in children for t in c["pass_s"]),
        "ref_s": statistics.median(ref_calls),
        "ref_calls": len(ref_calls),
        "ref_spread": spreads,
        "ref_steady": all(x <= REF_SPREAD_LIMIT for x in spreads),
        "setup_runs_s": setup_times,
        "latency_samples": len(latencies),
        "latency_runs_per_sample": min(len(v) for v in per_op.values()),
        "latency_beyond_p90": sum(1 for t in latencies if t > p90),
    }
    return metrics, figures


def traced(args) -> tuple[dict, dict]:
    workload = WORKLOADS[args.workload]()
    ops, _, _ = set_up(workload, args.seed)
    run = Run(workload, ops)
    tracer = Tracer()
    plain, with_spans, summaries = [], [], []
    deadline = time.perf_counter() + args.seconds
    while not with_spans or time.perf_counter() < deadline:
        plain.append(run.one_pass())
        mark = len(tracer.spans)
        tracer.install(workload.probes)
        try:
            with_spans.append(run.one_pass(tracer))
        finally:
            tracer.uninstall()
        summaries.append(summarize(tracer.spans[mark:]))
    run.check_outputs()
    SPANS_DIR.mkdir(exist_ok=True)
    spans_path = SPANS_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
    tracer.write(spans_path)

    for s in summaries:
        unknown = set(s.self_s) - set(LAYERS)
        if unknown:
            run.errors.append(f"spans outside the known layers: {sorted(unknown)}")
        if abs(sum(s.self_s.values()) - s.op_s) > 1e-6 * s.op_s:
            run.errors.append("self times do not sum to the traced operation time")
        if (s.calls, s.counts) != (summaries[0].calls, summaries[0].counts):
            run.errors.append("counts differ between traced passes")

    n = len(summaries)
    op_s = sum(s.op_s for s in summaries) / n
    last = summaries[-1]
    metrics = {}
    for layer in LAYERS:
        self_s = sum(s.self_s.get(layer, 0.0) for s in summaries) / n
        metrics[f"{layer}.self_s"] = (self_s, "s")
        metrics[f"{layer}.share"] = (self_s / op_s, "1")
        metrics[f"{layer}.calls"] = (last.calls.get(layer, 0), "count")
    for name in COUNTS:
        metrics[name] = (last.counts.get(name, 0), "count")
    found = last.calls.get("search.exists_found", 0)
    exists = found + last.calls.get("search.exists_none", 0)
    metrics["search.found_ratio"] = (found / exists if exists else 0.0, "1")
    metrics["trace.op_s"] = (op_s, "s")
    # Passes alternate untraced, traced; compare them normalized, as pass_ref.
    norm = [ratio for _, ratio in run.normalized()]
    sums = [sum(norm[k : k + len(ops)]) for k in range(0, len(norm), len(ops))]
    metrics["trace.overhead_ratio"] = (statistics.median(sums[1::2]) / statistics.median(sums[0::2]), "1")
    figures = {
        "ops_per_pass": len(ops),
        "passes": {"untraced": len(plain), "traced": len(with_spans)},
        "attempted": run.attempted,
        "failed": run.failed,
        "errors": run.errors,
        "pass_s": statistics.median(plain),
        "ref_s": statistics.median(run.ref_calls),
        "ref_calls": len(run.ref_calls),
        "ref_spread": [spread(run.ref_calls)],
        "ref_steady": spread(run.ref_calls) <= REF_SPREAD_LIMIT,
        "spans": len(tracer.spans),
        "spans_file": str(spans_path.relative_to(ROOT)),
    }
    return metrics, figures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--child", action="store_true", help="internal: one measuring process")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "awgraph" / "__init__.py").is_file():
        print(f"error: no awgraph sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.child:
        print(json.dumps(measure(args.workload, args.seed, args.seconds)))
        return 0

    metrics, figures = traced(args) if args.trace else timed(args)
    for error in figures["errors"]:
        print(f"error: {error}", file=sys.stderr)
    gated = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        **{k: v for k, v in figures.items() if k != "errors"},
        # fail_ratio, pass_s and ref_s are printed for the record, not gated:
        # a run with failures is not correct, and raw seconds do not repeat
        # within a tenth on a shared host.
        "metrics": {
            **gated,
            "fail_ratio": {"value": figures["failed"] / figures["attempted"], "unit": "1"},
            "pass_s": {"value": figures["pass_s"], "unit": "s"},
            "ref_s": {"value": figures["ref_s"], "unit": "s"},
        },
    }
    print(json.dumps(report))
    result = {
        "correct": not figures["errors"],
        "attempted": figures["attempted"],
        "failed": figures["failed"],
        "metrics": gated,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
