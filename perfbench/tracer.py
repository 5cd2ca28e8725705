"""Span recorder for the traced benchmark run, and the per-layer metrics it yields.

The package has no tracing of its own, so the recorder wraps public
functions from outside. Each function is wrapped at every ``wshift`` module
attribute that holds it, because callers look functions up where they
imported them: ``hypotest`` calls its own ``sample_psi_null`` name, not the
one in ``limitlaw``. Distribution factories are wrapped so that every
distribution they return has a wrapped ``quantile_fn``.

A span records its name, parent, start and end. Spans stay in memory until
the benchmark writes them out. Counters are computed from call arguments
before a span starts, so they repeat exactly and add nothing to its time.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import sys
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

_CSV_FLAGS = ("--data", "--source", "--target")
_BLOCK_STRIDE = 64  # columns hashed per block fingerprint: every 64th


@dataclasses.dataclass
class Span:
    name: str
    parent: int  # index into the span list, -1 for a root
    start: float
    end: float = float("nan")


class Tracer:
    """Records spans and counters while its patches are installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._blocks: set[bytes] = set()
        self._csv_rows: dict[str, int] = {}

    def wrap(self, name, fn, count=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if count is not None:
                count(self, *args, **kwargs)
            parent = self._stack[-1] if self._stack else -1
            index = len(self.spans)
            span = Span(name, parent, time.perf_counter())
            self.spans.append(span)
            self._stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()

        return traced

    def wrap_factory(self, factory):
        """Factory whose distributions evaluate their quantile through a span."""

        @functools.wraps(factory)
        def traced_factory(*args, **kwargs):
            dist = factory(*args, **kwargs)
            q = self.wrap("distributions.quantile", dist.quantile_fn, _count_points)
            return dataclasses.replace(dist, quantile_fn=q)

        return traced_factory

    @contextmanager
    def installed(self):
        """Install the wrappers on every wshift module; restore them on exit."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if (name == "wshift" or name.startswith("wshift.")) and m is not None]
        saved = []
        try:
            for owner, attr, span, count in SPANS:
                original = getattr(sys.modules[owner], attr)
                wrapper = self.wrap(span, original, count)
                saved += _replace_everywhere(modules, original, wrapper)
            for owner, attr in FACTORIES:
                original = getattr(sys.modules[owner], attr)
                saved += _replace_everywhere(modules, original, self.wrap_factory(original))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def csv_rows(self, path: str) -> int:
        if path not in self._csv_rows:
            with open(path, encoding="utf-8") as fh:
                self._csv_rows[path] = sum(1 for line in fh if line.strip()) - 1
        return self._csv_rows[path]


def _replace_everywhere(modules, original, wrapper):
    saved = []
    for module in modules:
        for attr, value in list(vars(module).items()):
            if value is original:
                saved.append((module, attr, original))
                setattr(module, attr, wrapper)
    return saved


# -- counters: computed from call arguments only ---------------------------
# numpy is imported inside the counters: run.py imports this module before
# the child times its own set-up, which includes importing numpy.

def _count_normals(tracer, sampler, reps, *args, **kwargs):
    tracer.counts["limitlaw.bridge_normals"] += int(reps) * int(sampler.grid.k)


def _count_blocks(tracer, sorted_samples, plan, *args, **kwargs):
    import numpy as np

    x = np.atleast_2d(np.asarray(sorted_samples, dtype=float))
    fingerprint = hashlib.blake2b(repr(x.shape).encode(), digest_size=16)
    fingerprint.update(np.ascontiguousarray(x[:, ::_BLOCK_STRIDE]).tobytes())
    tracer._blocks.add(fingerprint.digest())
    tracer.counts["transport.scaled_statistics.blocks"] += 1
    tracer.counts["transport.scaled_statistics.rows"] += int(x.shape[0])


def _count_call(tracer, *args, **kwargs):
    tracer.counts["transport.plan_scaled_statistic.calls"] += 1


def _count_points(tracer, u, *args, **kwargs):
    import numpy as np

    tracer.counts["distributions.quantile.points"] += int(np.size(u))


def _count_bytes(tracer, path, text, *args, **kwargs):
    tracer.counts["io.bytes_written"] += len(text.encode("utf-8"))


def _count_csv_rows(tracer, argv=None, *args, **kwargs):
    argv = list(argv or [])
    for flag, value in zip(argv, argv[1:]):
        if flag in _CSV_FLAGS:
            tracer.counts["cli.csv_rows"] += tracer.csv_rows(value)
        elif flag == "--null" and value.startswith("csv:"):
            path = value[len("csv:"):].rpartition(":")[0]
            tracer.counts["cli.csv_rows"] += tracer.csv_rows(path)


# (defining module, function, span name, counter)
SPANS = [
    ("wshift.limitlaw", "sample_psi_null", "limitlaw.sample_psi_null", _count_normals),
    ("wshift.limitlaw", "sample_psi_components", "limitlaw.sample_psi_components",
     _count_normals),
    ("wshift.limitlaw", "critical_value", "limitlaw.critical_value", None),
    ("wshift.limitlaw", "theoretical_type2", "limitlaw.theoretical_type2", None),
    ("wshift.transport", "scaled_statistics", "transport.scaled_statistics", _count_blocks),
    ("wshift.transport", "plan_scaled_statistic", "transport.plan_scaled_statistic",
     _count_call),
    ("wshift.transport", "w2_weighted_squared", "transport.w2_weighted_squared", None),
    ("wshift.hypotest", "ks_statistics_sorted", "hypotest.ks_statistics_sorted", None),
    ("wshift.hypotest", "run_test", "hypotest.run_test", None),
    ("wshift.hypotest", "resampling_critical_value", "hypotest.resampling_critical_value",
     None),
    ("wshift.hypotest", "resampling_power", "hypotest.resampling_power", None),
    ("wshift.experiments", "run_phase_transition", "experiments.run_phase_transition", None),
    ("wshift.experiments", "run_ks_comparison", "experiments.run_ks_comparison", None),
    ("wshift.experiments", "run_weight_comparison", "experiments.run_weight_comparison",
     None),
    ("wshift.experiments", "run_power_map", "experiments.run_power_map", None),
    ("wshift.cli", "main", "cli.main", _count_csv_rows),
    ("wshift.cli", "ingest_csv", "cli.ingest_csv", None),
    ("wshift._io", "atomic_write_text", "io.atomic_write_text", _count_bytes),
]

FACTORIES = [
    ("wshift.distributions", "uniform01"),
    ("wshift.distributions", "gaussian"),
    ("wshift.distributions", "sine_distribution"),
    ("wshift.distributions", "tail_distribution"),
]

# name -> unit of every per-layer metric, in report order
LAYER_METRICS = {
    "limitlaw.bridge_normals": "count",
    "limitlaw.sample_psi_null.busy_s": "s",
    "limitlaw.sample_psi_components.busy_s": "s",
    "limitlaw.critical_value.self_s": "s",
    "limitlaw.theoretical_type2.busy_s": "s",
    "transport.scaled_statistics.busy_s": "s",
    "transport.scaled_statistics.rows": "count",
    "transport.scaled_statistics.unique_block_frac": "frac",
    "transport.plan_scaled_statistic.busy_s": "s",
    "transport.plan_scaled_statistic.calls": "count",
    "transport.w2_weighted_squared.busy_s": "s",
    "distributions.quantile.busy_s": "s",
    "distributions.quantile.points": "count",
    "experiments.self_s": "s",
    "experiments.run_phase_transition.busy_s": "s",
    "experiments.run_ks_comparison.busy_s": "s",
    "experiments.run_weight_comparison.busy_s": "s",
    "experiments.run_power_map.busy_s": "s",
    "hypotest.ks_statistics_sorted.busy_s": "s",
    "hypotest.run_test.self_s": "s",
    "hypotest.resampling_critical_value.busy_s": "s",
    "hypotest.resampling_power.busy_s": "s",
    "cli.self_s": "s",
    "cli.ingest_csv.busy_s": "s",
    "cli.csv_rows": "count",
    "io.atomic_write_text.busy_s": "s",
    "io.bytes_written": "count",
    "trace.overhead_frac": "frac",
}

COUNT_METRICS = [name for name, unit in LAYER_METRICS.items() if unit == "count"]


def _covered(intervals, lo, hi) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def span_times(spans):
    """Per-name busy time (outermost calls only) and self time."""
    children: dict[int, list[int]] = {}
    for i, s in enumerate(spans):
        children.setdefault(s.parent, []).append(i)
    busy: Counter = Counter()
    self_time: Counter = Counter()
    for i, s in enumerate(spans):
        kids = [(spans[c].start, spans[c].end) for c in children.get(i, ())]
        self_time[s.name] += (s.end - s.start) - _covered(kids, s.start, s.end)
        ancestor = s.parent
        while ancestor >= 0 and spans[ancestor].name != s.name:
            ancestor = spans[ancestor].parent
        if ancestor < 0:
            busy[s.name] += s.end - s.start
    return busy, self_time


def span_problems(spans) -> list[str]:
    """Spans that end before they start, or lie outside their parent."""
    problems = []
    for i, s in enumerate(spans):
        if not s.end >= s.start:
            problems.append(f"span {i} ({s.name}) ends before it starts")
        if s.parent >= 0:
            p = spans[s.parent]
            if s.start < p.start or s.end > p.end:
                problems.append(f"span {i} ({s.name}) is not inside its parent {p.name}")
    busy, self_time = span_times(spans)
    problems += [f"self time of {name} is negative: {value}"
                 for name, value in self_time.items() if value < 0.0]
    return problems


def pass_metrics(tracer: Tracer) -> dict:
    """Per-layer metrics of one traced pass (all but the tracing overhead)."""
    busy, self_time = span_times(tracer.spans)
    out = {}
    for name in LAYER_METRICS:
        if name.endswith(".busy_s"):
            out[name] = busy[name[: -len(".busy_s")]]
    out["limitlaw.critical_value.self_s"] = self_time["limitlaw.critical_value"]
    out["hypotest.run_test.self_s"] = self_time["hypotest.run_test"]
    out["cli.self_s"] = self_time["cli.main"]
    out["experiments.self_s"] = sum(v for k, v in self_time.items()
                                    if k.startswith("experiments."))
    for name in COUNT_METRICS:
        out[name] = tracer.counts[name]
    blocks = tracer.counts["transport.scaled_statistics.blocks"]
    out["transport.scaled_statistics.unique_block_frac"] = (
        len(tracer._blocks) / blocks if blocks else 1.0)
    return out


def write_spans(tracer_list, path: Path) -> None:
    payload = [[dataclasses.asdict(s) for s in t.spans] for t in tracer_list]
    path.write_text(json.dumps(payload) + "\n", encoding="utf-8")
