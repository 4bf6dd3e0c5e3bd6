"""In-memory spans around the calls that cross awgraph's layer boundaries.

The benchmark traces the program from outside: it replaces a module
attribute (such as ``awgraph.certify.enumerate_k_aps``) with a wrapper that
records a span around the original, because the caller resolves that name
at call time.  Nothing under ``src/`` changes.  Each span records its name,
start, end, parent span and operation id, plus counts taken from the call's
arguments and result at the same boundary.
"""

from __future__ import annotations

import importlib
import json
import time
from dataclasses import asdict, dataclass, field


@dataclass
class Span:
    span_id: int
    parent: int | None
    op_id: int
    name: str
    start: float
    end: float
    counts: dict[str, int] = field(default_factory=dict)


@dataclass(frozen=True)
class Probe:
    """Where to wrap and how to name and count the call.

    name is a span name, or a function of the call's result returning one
    (so one boundary can split into outcomes).  count maps (args, kwargs,
    result) to the counts recorded on the span.
    """

    module: str
    attr: str
    name: object
    count: object = None


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._op_id = -1
        self._patched: list[tuple[object, str, object]] = []

    def _record(self, name, fn, args, kwargs, count):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        span = Span(sid, parent, self._op_id, name if isinstance(name, str) else "error", 0.0, 0.0)
        self.spans.append(span)
        self._stack.append(sid)
        span.start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
        if not isinstance(name, str):
            span.name = name(result)
        if count is not None:
            span.counts = count(args, kwargs, result)
        return result

    def run_op(self, op_id: int, name: str, fn, counts=None):
        """Call fn() as the root span of operation op_id, carrying counts."""
        self._op_id = op_id
        return self._record(name, fn, (), {}, (lambda *_: dict(counts)) if counts else None)

    def install(self, probes) -> None:
        """Wrap every probe's attribute in the currently imported modules."""
        for probe in probes:
            module = importlib.import_module(probe.module)
            original = getattr(module, probe.attr)
            self._patched.append((module, probe.attr, original))
            setattr(module, probe.attr, self._wrapper(original, probe))

    def uninstall(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def _wrapper(self, fn, probe: Probe):
        def traced(*args, **kwargs):
            return self._record(probe.name, fn, args, kwargs, probe.count)

        return traced

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(asdict(span)) + "\n")


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the part of it that child spans cover."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered = 0.0
        reach = s.start
        for c in sorted(children.get(s.span_id, ()), key=lambda c: c.start):
            lo, hi = max(c.start, reach), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s.span_id] = (s.end - s.start) - covered
    return out


@dataclass
class Summary:
    self_s: dict[str, float]
    calls: dict[str, int]
    counts: dict[str, int]
    op_s: float


def summarize(spans: list[Span]) -> Summary:
    """Self seconds and calls by span name, summed counts, root-span seconds."""
    selfs = self_times(spans)
    out = Summary({}, {}, {}, 0.0)
    for s in spans:
        out.self_s[s.name] = out.self_s.get(s.name, 0.0) + selfs[s.span_id]
        out.calls[s.name] = out.calls.get(s.name, 0) + 1
        for key, value in s.counts.items():
            out.counts[key] = out.counts.get(key, 0) + value
        if s.parent is None:
            out.op_s += s.end - s.start
    return out
