"""One repetition of one workload, in a fresh process.

    python3 perfbench/rep.py WORKLOAD SEED TRACE WORKDIR

Set-up (imports, ``WorkloadCache`` construction, and for the warm sweep
the cold store population) is timed from the first line of this file;
the body is timed on its own, and its times are scaled to the reference
host speed by a :class:`SpeedProbe` that runs alongside.  With TRACE=1
the layers are instrumented (:mod:`spans`) before set-up and the
per-layer metrics and stage table are computed for the body.  The last
line printed is one JSON object.
"""

import time

START = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

SRC = Path(__file__).resolve().parent.parent / "src"

#: How often the probe times its loop, and the loop's thread CPU time on
#: the reference host (about its time on the 2-vCPU VM of README.md when
#: no other guest contends).
PROBE_INTERVAL_S = 0.05
REFERENCE_PROBE_S = 0.8e-3

#: Replay fallback reasons the Figure-4 techniques produce; any other
#: reason is summed into ``replay.fallback.other``.
FALLBACKS = (
    "dbrb-predictor:RefTracePredictor",
    "dbrb-predictor:CountingPredictor",
    "policy:OptimalPolicy",
)


def _probe_loop() -> int:
    table = {}
    total = 0
    for i in range(5000):
        table[i & 1023] = i
        total += table.get((i * 7) & 1023, 0)
    return total


class SpeedProbe(threading.Thread):
    """Samples how fast the host runs Python while a repetition runs.

    Every ``PROBE_INTERVAL_S`` it times a fixed loop in its own thread's
    CPU time, which leaves out waiting for the GIL or for a CPU; what is
    left slows with contention from other guests on the host, as the
    simulator does (README.md, *Noise*, says how closely).  A time
    divided by :meth:`slowdown` is the time at the reference host speed.
    """

    def __init__(self):
        super().__init__(name="speed-probe", daemon=True)
        self.samples = []
        self._taken = 0
        self._done = threading.Event()

    def run(self):
        while not self._done.wait(PROBE_INTERVAL_S):
            start = time.thread_time()
            _probe_loop()
            self.samples.append(time.thread_time() - start)

    def slowdown(self) -> float:
        """Mean sample since the previous call ÷ the reference; 1.0 if none."""
        new = self.samples[self._taken:]
        self._taken += len(new)
        return statistics.mean(new) / REFERENCE_PROBE_S if new else 1.0

    def stop(self) -> None:
        self._done.set()
        self.join()


def _cpu_seconds() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def _peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest child, in MB."""
    kilobytes = sum(
        resource.getrusage(who).ru_maxrss
        for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    )
    return kilobytes / 1024.0


def _store_counters(cache, artifacts):
    """Workloads served warm (hits) or built cold (misses) during the body:
    the body's own ``WorkloadCache`` plus, for a parallel sweep, every
    worker's per-cell counters from the sweep manifest."""
    hits, misses = cache.stream_hits, cache.stream_misses
    manifest = artifacts.get("manifest")
    if manifest and os.path.exists(manifest):
        with open(manifest, encoding="utf-8") as handle:
            for cell in json.load(handle)["cells"].values():
                hits += cell.get("store_hits", 0)
                misses += cell.get("store_misses", 0)
    return hits, misses


def _parallel_busy(artifacts) -> float:
    """Sum of per-cell wall seconds from the sweep's NDJSON events file."""
    events = artifacts.get("events")
    busy = 0.0
    if events and os.path.exists(events):
        with open(events, encoding="utf-8") as handle:
            for line in handle:
                event = json.loads(line)
                if event.get("event") == "cell_finished" and event.get("status") == "ok":
                    busy += event.get("wall_seconds") or 0.0
    return busy


def per_layer(self_s, counts, wall, processes, busy, store, compile_s, compiled_bytes):
    """The per-layer metrics of one traced body (every ratio names its base)."""
    import spans

    ratio = spans.ratio
    array_acc = counts["replay.array_accesses"]
    object_acc = counts["replay.object_accesses"]
    fallbacks = {
        f"replay.fallback.{reason.replace(':', '-')}": counts[f"replay.fallback:{reason}"]
        for reason in FALLBACKS
    }
    other = sum(
        value for key, value in counts.items()
        if key.startswith("replay.fallback:") and key[len("replay.fallback:"):] not in FALLBACKS
    )
    attributed = sum(self_s.values())
    loadsim_run = self_s.get("loadsim.run", 0.0)
    metrics = {
        "workloads.calls": counts["workloads.calls"],
        "workloads.generate_s": self_s.get("workloads.generate", 0.0),
        "workloads.records": counts["workloads.records"],
        "workloads.records_per_s": ratio(
            counts["workloads.records"], self_s.get("workloads.generate", 0.0)
        ),
        "hierarchy.filter_calls": counts["hierarchy.filter_calls"],
        "hierarchy.filter_s": self_s.get("hierarchy.filter", 0.0),
        "hierarchy.refs": counts["hierarchy.refs"],
        "hierarchy.llc_refs": counts["hierarchy.llc_refs"],
        "hierarchy.filter_ratio": 1.0 - ratio(counts["hierarchy.llc_refs"], counts["hierarchy.refs"])
        if counts["hierarchy.refs"] else 0.0,
        "hierarchy.stream_s": self_s.get("hierarchy.stream", 0.0),
        "streamstore.compile_s": compile_s,
        "streamstore.bytes": compiled_bytes,
        "streamstore.load_s": self_s.get("streamstore.load", 0.0),
        "streamstore.shm_create_s": self_s.get("streamstore.shm_create", 0.0),
        "streamstore.shm_attach_s": self_s.get("streamstore.shm_attach", 0.0),
        "streamstore.hits": store[0],
        "streamstore.misses": store[1],
        "techniques.build_s": self_s.get("techniques.build", 0.0),
        "soa.replay_index_s": self_s.get("soa.replay_index", 0.0),
        "soa.prediction_plane_s": self_s.get("soa.prediction_plane", 0.0),
        "replay.calls": counts["replay.calls"],
        "replay.array_s": self_s.get("replay.array", 0.0),
        "replay.object_s": self_s.get("replay.object", 0.0),
        "replay.array_accesses": array_acc,
        "replay.object_accesses": object_acc,
        "replay.array_share": ratio(array_acc, array_acc + object_acc),
        **fallbacks,
        "replay.fallback.other": other,
        "cpu.calls": counts["cpu.calls"],
        "cpu.timing_s": self_s.get("cpu.timing", 0.0),
        "cpu.records": counts["cpu.records"],
        "cpu.records_per_s": ratio(counts["cpu.records"], self_s.get("cpu.timing", 0.0)),
        "parallel.busy_s": busy,
        "parallel.utilisation": ratio(busy, processes * wall) if busy else 0.0,
        "parallel.overhead_s": wall - busy / processes if busy else 0.0,
        "loadsim.runs": counts["loadsim.runs"],
        "loadsim.prepare_s": self_s.get("loadsim.prepare", 0.0),
        "loadsim.run_s": loadsim_run,
        "loadsim.events": counts["loadsim.events"],
        "loadsim.events_per_s": ratio(counts["loadsim.events"], loadsim_run),
        "loadsim.llc_accesses": counts["loadsim.llc_accesses"],
        "trace.wall_s": wall,
        "trace.unattributed_s": processes * wall - attributed,
        "trace.unattributed_share": 1.0 - ratio(attributed, processes * wall),
    }
    return metrics


def run_once(workload, seed, trace, workdir, sizes=None, started=START):
    """Set up and run one workload body; returns the repetition's report.

    ``started`` is when set-up began (this module's first line in a
    fresh process).  Instrumentation is removed before returning, so
    tests can call this in-process with small ``sizes``.
    """
    import bodies
    import spans

    setup, body, _, processes = bodies.WORKLOADS[workload]
    tracer = instrumentation = untrace_workers = None
    if trace:
        tracer = spans.Tracer()
        instrumentation = spans.Instrumentation(tracer)
        span_dir = os.path.join(workdir, "spans")
        os.makedirs(span_dir, exist_ok=True)
        untrace_workers = spans.trace_pool_workers(span_dir)
    probe = SpeedProbe()
    probe.start()
    try:
        state = setup(sizes or bodies.Sizes(), seed, workdir)
        setup_s = time.perf_counter() - started
        probe.slowdown()  # set-up's samples; too few to scale a short set-up

        counts_before = Counter(tracer.counts) if tracer else None
        cpu_start = _cpu_seconds()
        body_start = time.perf_counter()
        result = body(state)
        body_end = time.perf_counter()
        cpu_s = _cpu_seconds() - cpu_start
        body_slowdown = probe.slowdown()
    finally:
        probe.stop()
        if tracer is not None:
            untrace_workers()
            instrumentation.remove()
    wall = body_end - body_start

    report = {
        "setup_s": setup_s,
        "wall_s": wall / body_slowdown,
        "cpu_s": cpu_s / body_slowdown,
        "slowdown": body_slowdown,
        "peak_rss_mb": _peak_rss_mb(),
        "llc_accesses": result.llc_accesses,
        "outputs": result.outputs,
    }
    if tracer is not None:
        snapshots = spans.read_worker_snapshots(span_dir)
        self_s = spans.merge(
            [spans.self_times(tracer.spans, (body_start, body_end))]
            + [spans.self_times(snap["spans"]) for snap in snapshots]
        )
        counts = Counter(tracer.counts)
        counts.subtract(counts_before)
        for snap in snapshots:
            counts.update(snap["counts"])
        report["layers"] = per_layer(
            self_s,
            counts,
            wall,
            processes,
            _parallel_busy(result.artifacts),
            _store_counters(state[0], result.artifacts),
            spans.self_times(tracer.spans).get("streamstore.compile", 0.0),
            tracer.counts["streamstore.bytes"],
        )
        report["stage_table"] = spans.render_stage_table(
            workload, spans.stage_table(self_s, wall, processes), wall, processes
        )
    return report


def main(argv) -> int:
    workload, seed, trace, workdir = argv[0], int(argv[1]), argv[2] == "1", argv[3]
    for name in [key for key in os.environ if key.startswith("REPRO_")]:
        del os.environ[name]
    sys.path.insert(0, str(SRC))
    print(json.dumps(run_once(workload, seed, trace, workdir)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
