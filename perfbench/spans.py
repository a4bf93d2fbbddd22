"""Layer spans recorded from outside the simulator.

A :class:`Tracer` keeps spans (name, start, end, parent) and counters in
memory.  :class:`Instrumentation` wraps the public entry points of each
simulator layer -- workload generation, the L1/L2 filter, the stream
store, the technique builders, the array-substrate precompute, the
replay kernels, the core timing model, the shared-memory attach and the
load simulator -- so every call opens a span named after its layer.
Nothing inside ``src/`` changes; :meth:`Instrumentation.remove` restores
the originals.

A layer's *self time* is its span's duration minus the time covered by
its direct child spans, so nested calls (``replay`` asking for a cached
``replay_index``) are never counted twice.

Pool workers of the parallel harness are spawned fresh, so the parent's
wrappers do not reach them.  For a traced parallel sweep the parent
swaps the harness's pool initialiser for :func:`worker_init`, which
installs a tracer inside each worker and rewrites that worker's span
file after every cell.  ``perf_counter`` reads a system-wide monotonic
clock on Linux, so worker spans share the parent's time line.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

#: A span as stored: ``[name, start, end, parent index or -1]``.
Span = List

#: Span name -> stage-table row.  Names not listed form their own row.
STAGES = (
    ("workloads.generate", "workloads (build_trace)"),
    ("hierarchy.filter", "hierarchy filter (prepare)"),
    ("hierarchy.stream", "hierarchy stream (llc_stream)"),
    ("streamstore.compile", "streamstore compile"),
    ("streamstore.store", "streamstore store"),
    ("streamstore.load", "streamstore load"),
    ("streamstore.shm_create", "streamstore shm create"),
    ("streamstore.shm_attach", "streamstore shm attach"),
    ("techniques.build", "techniques (Technique.build)"),
    ("soa.replay_index", "soa replay_index"),
    ("soa.prediction_plane", "soa prediction_plane"),
    ("replay.array", "replay, array kernel"),
    ("replay.object", "replay, object kernel"),
    ("cpu.timing", "cpu (CoreModel.run)"),
    ("loadsim.prepare", "loadsim prepare_scenario (self)"),
    ("loadsim.run", "loadsim PreparedScenario.run (self)"),
)


class Tracer:
    """In-memory spans and counters for one process."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: Counter = Counter()
        self._stack: List[int] = []

    def open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else -1
        record = [name, time.perf_counter(), None, parent]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        return record

    def close(self, record: Span) -> None:
        record[2] = time.perf_counter()
        self._stack.pop()

    def snapshot(self) -> Dict:
        return {"spans": self.spans, "counts": dict(self.counts)}


# ----------------------------------------------------------------------
# instrumentation
# ----------------------------------------------------------------------
def _wrap(tracer: Tracer, fn: Callable, name: str, after: Optional[Callable]):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        record = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(record)
        if after is not None:
            after(tracer, record, args, result)
        return result

    return traced


def _count_trace(tracer, record, args, trace):
    tracer.counts["workloads.calls"] += 1
    tracer.counts["workloads.records"] += len(trace.records)


def _count_filter(tracer, record, args, filtered):
    tracer.counts["hierarchy.filter_calls"] += 1
    tracer.counts["hierarchy.refs"] += len(filtered.levels)
    tracer.counts["hierarchy.llc_refs"] += len(filtered.llc_indices)


def _count_compile(tracer, record, args, compiled):
    tracer.counts["streamstore.bytes"] += compiled.nbytes


def _count_replay(tracer, record, args, hits):
    cache = args[0]
    kernel = cache.last_replay_kernel or "object"
    record[0] = f"replay.{kernel}"
    tracer.counts["replay.calls"] += 1
    tracer.counts[f"replay.{kernel}_accesses"] += len(hits)
    if cache.last_replay_fallback:
        tracer.counts[f"replay.fallback:{cache.last_replay_fallback}"] += 1


def _count_timing(tracer, record, args, timing):
    tracer.counts["cpu.calls"] += 1
    tracer.counts["cpu.records"] += len(args[1].trace.records)


def _count_loadsim(tracer, record, args, result):
    tracer.counts["loadsim.runs"] += 1
    tracer.counts["loadsim.events"] += len(result.events)
    tracer.counts["loadsim.llc_accesses"] += result.llc_stats.accesses


def _targets():
    """``(owner, attribute, span name, counter hook)`` for every layer.

    Module-level functions are patched where their callers look them up
    (``repro.harness.runner.build_trace``, not ``repro.workloads``).
    """
    import repro.harness.parallel as parallel
    import repro.harness.runner as runner
    import repro.loadsim.sim as loadsim
    import repro.sim.system as system
    from repro.harness.techniques import Technique
    from repro.sim.cpu import CoreModel
    from repro.sim.hierarchy import FilteredTrace, PreparedStream
    from repro.sim.streamstore import (
        CompiledFilteredTrace,
        SharedStreamExport,
        StreamStore,
    )

    # ``repro.sim`` re-exports the function under the module's name.
    replay = importlib.import_module("repro.sim.replay")
    return (
        (runner, "build_trace", "workloads.generate", _count_trace),
        (system.SingleCoreSystem, "prepare", "hierarchy.filter", _count_filter),
        (FilteredTrace, "llc_stream", "hierarchy.stream", None),
        (CompiledFilteredTrace, "llc_stream", "hierarchy.stream", None),
        (runner, "compile_filtered", "streamstore.compile", _count_compile),
        (StreamStore, "store", "streamstore.store", None),
        (StreamStore, "load", "streamstore.load", None),
        (SharedStreamExport, "create", "streamstore.shm_create", None),
        (parallel, "attach_shared_streams", "streamstore.shm_attach", None),
        (Technique, "build", "techniques.build", None),
        (PreparedStream, "replay_index", "soa.replay_index", None),
        (PreparedStream, "prediction_plane", "soa.prediction_plane", None),
        (replay, "replay", "replay", _count_replay),
        (system, "replay", "replay", _count_replay),
        (CoreModel, "run", "cpu.timing", _count_timing),
        (loadsim, "prepare_scenario", "loadsim.prepare", None),
        (loadsim.PreparedScenario, "run", "loadsim.run", _count_loadsim),
    )


class Instrumentation:
    """Wraps every layer entry point for one tracer; :meth:`remove` undoes it."""

    def __init__(self, tracer: Tracer) -> None:
        self._saved: List[Tuple[object, str, object]] = []
        for owner, attribute, name, after in _targets():
            raw = vars(owner)[attribute]
            self._saved.append((owner, attribute, raw))
            if isinstance(raw, classmethod):
                wrapped = classmethod(_wrap(tracer, raw.__func__, name, after))
            else:
                wrapped = _wrap(tracer, raw, name, after)
            setattr(owner, attribute, wrapped)

    def remove(self) -> None:
        for owner, attribute, raw in reversed(self._saved):
            setattr(owner, attribute, raw)
        self._saved = []


# ----------------------------------------------------------------------
# pool workers of a traced parallel sweep
# ----------------------------------------------------------------------
def trace_pool_workers(span_dir: str) -> Callable[[], None]:
    """Make the parallel harness start traced workers; returns the undo."""
    import repro.harness.parallel as parallel

    original = parallel._init_worker
    parallel._init_worker = functools.partial(worker_init, span_dir)

    def undo() -> None:
        parallel._init_worker = original

    return undo


def worker_init(span_dir: str, *init_args) -> None:
    """Pool initialiser: trace this worker, then run the real initialiser."""
    import repro.harness.parallel as parallel

    tracer = Tracer()
    Instrumentation(tracer)
    path = os.path.join(span_dir, f"worker-{os.getpid()}.json")
    run_cell = parallel._run_cell

    def run_cell_and_flush(task):
        try:
            return run_cell(task)
        finally:
            tmp = f"{path}.tmp"
            with open(tmp, "w", encoding="utf-8") as handle:
                json.dump(tracer.snapshot(), handle)
            os.replace(tmp, path)

    parallel._run_cell = run_cell_and_flush
    parallel._init_worker(*init_args)


def read_worker_snapshots(span_dir: str) -> List[Dict]:
    snapshots = []
    for name in sorted(os.listdir(span_dir)):
        if name.startswith("worker-") and name.endswith(".json"):
            with open(os.path.join(span_dir, name), encoding="utf-8") as handle:
                snapshots.append(json.load(handle))
    return snapshots


# ----------------------------------------------------------------------
# arithmetic
# ----------------------------------------------------------------------
def self_times(spans: Sequence[Span], window: Tuple[float, float] = None) -> Dict[str, float]:
    """Self seconds per span name for one process's spans.

    A span's self time is its duration minus the durations of its direct
    children.  With ``window`` only spans starting inside it count (a
    child and its parent always fall on the same side).
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    totals: Dict[str, float] = defaultdict(float)
    for index, (name, start, end, parent) in enumerate(spans):
        if window is not None and not window[0] <= start <= window[1]:
            continue
        totals[name] += (end - start) - child_time[index]
    return dict(totals)


def merge(per_process: Iterable[Dict[str, float]]) -> Dict[str, float]:
    merged: Dict[str, float] = defaultdict(float)
    for totals in per_process:
        for name, seconds in totals.items():
            merged[name] += seconds
    return dict(merged)


def ratio(numerator: float, base: float) -> float:
    """``numerator / base``, 0.0 when the base is empty."""
    return numerator / base if base else 0.0


def stage_table(
    self_seconds: Dict[str, float], wall: float, processes: int = 1
) -> List[Tuple[str, float, float]]:
    """Rows ``(stage, self seconds, share)`` plus an ``unattributed`` row.

    Shares are of ``wall * processes``: the process time the timed body
    had available (one process for a serial body, the pool size for a
    parallel one).  Stages with no time are left out.
    """
    base = wall * processes
    rows = []
    known = {name for name, _ in STAGES}
    for name, label in STAGES:
        seconds = self_seconds.get(name, 0.0)
        if seconds > 0:
            rows.append((label, seconds, ratio(seconds, base)))
    for name in sorted(set(self_seconds) - known):
        rows.append((name, self_seconds[name], ratio(self_seconds[name], base)))
    unattributed = base - sum(self_seconds.values())
    rows.append(("unattributed", unattributed, ratio(unattributed, base)))
    return rows


def render_stage_table(workload: str, rows, wall: float, processes: int) -> str:
    base = "wall" if processes == 1 else f"wall x {processes} processes"
    lines = [
        f"stage table: {workload} (traced wall {wall:.3f} s; share of {base})",
        f"  {'stage':<36} {'self s':>9} {'share':>7}",
    ]
    for label, seconds, share in rows:
        lines.append(f"  {label:<36} {seconds:>9.3f} {share:>6.1%}")
    return "\n".join(lines)
