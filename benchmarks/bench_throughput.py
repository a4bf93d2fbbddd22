"""Replay-kernel, timing-model, store, pattern and loadsim throughput gates.

Measures the fast paths in isolation and writes one report
(``"schema": "repro-bench/2"``, ``BENCH_THROUGHPUT.json`` by default):

* **array_kernel**: the simple-policy technique cells replayed through
  the reference loop ``[cache.access(a) for a in stream.accesses]`` --
  the "object" side, what :func:`~repro.sim.replay.replay` runs when
  the array kernels decline -- and through
  :func:`~repro.sim.replay.replay`, which takes the array kernels
  (:mod:`repro.sim.replay_array`), interleaved best-of-N per cell with
  the stream's access objects and the shared
  :class:`~repro.cache.soa.ReplayIndex` prebuilt.  Both sides must
  produce identical hit vectors and statistics; cells the substrate
  declines are recorded as skipped, and
  :data:`FALLBACK_PROBE_TECHNIQUE` is probed to prove the automatic
  fallback.  The aggregate must reach :data:`MIN_ARRAY_SPEEDUP`.
* **sampler_kernel**: the paper's headline cells -- DBRB over the
  sampling predictor on the LRU and random defaults -- replayed
  reference-loop-vs-array the same interleaved best-of-N way.  These
  cells are *required* to run array-native (a decline aborts the run),
  and the aggregate must reach :data:`MIN_SAMPLER_SPEEDUP`.
* **fig4_cell_kernel**: the rest of Figure 4 -- TDBP and CDBP (DBRB
  over the reftrace and counting predictors, LRU default) and optimal
  (MIN plus bypass) -- replayed reference-loop-vs-array the same way,
  also *required* to run array-native, with the aggregate gated at
  :data:`MIN_FIG4_OBJECT_CELL_SPEEDUP`.
* **timing**: the core timing model over those cells' hit vectors,
  the record-by-record reference (:meth:`CoreModel.run_reference`)
  against the plan-based :meth:`CoreModel.run`, interleaved best-of-N
  per cell with the workload's timing plan prebuilt (its build time is
  reported on its own).  Cycle counts must be identical to the last
  bit, and the aggregate must reach :data:`MIN_TIMING_SPEEDUP`.
* **telemetry**: the sampler cell with and without an interval
  recorder, both on the ``Cache.access`` reference loop (a probe
  declines the array kernel), interleaved best-of-N per cell on fresh
  caches; every run pair must produce identical statistics.
* **store**: replay-ready workload preparation three ways -- cold
  compile (build_trace + L1/L2 filter + store write), warm load off the
  compiled workload store, and shared-memory attach.  All three must
  yield identical streams, and the warm path must reach
  :data:`MIN_STORE_SPEEDUP`.
* **patterns**: pattern-generation and trace import/replay throughput.
* **loadsim**: event-log throughput of the load simulator's run on a
  fixed two-tenant scenario.  Its event-log digest must equal
  :data:`LOADSIM_DIGEST` on every run.

Every floor is a ratio of two paths timed in the same process, so it
holds on any host.  End-to-end and per-layer timings of whole sweeps
are ``perfbench/``'s job (``perfbench/README.md``).

Usage::

    python benchmarks/bench_throughput.py            # full budget
    python benchmarks/bench_throughput.py --smoke    # seconds, tiny budget

Exit status: 0 when every check holds, 1 when a floor or the digest
fails; a divergence between two paths aborts with a message.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.cache.cache import Cache  # noqa: E402
from repro.cache.soa import ReplayIndex  # noqa: E402
from repro.harness.runner import ExperimentConfig, WorkloadCache  # noqa: E402
from repro.harness.techniques import TECHNIQUES  # noqa: E402
from repro.sim.cpu import CoreModel  # noqa: E402
from repro.sim.replay import replay  # noqa: E402
from repro.sim.streamstore import (  # noqa: E402
    SharedStreamExport,
    StreamStore,
    attach_shared_streams,
)
from repro.telemetry import IntervalRecorder  # noqa: E402
from repro.workloads import SINGLE_THREAD_SUBSET  # noqa: E402

#: Minimum aggregate speedup of the array kernels over the reference
#: loop on the eligible cells.
MIN_ARRAY_SPEEDUP = 1.3

#: Minimum aggregate speedup of the batched DBRB kernel over the
#: reference loop on the sampler cells.  Higher than the generic floor:
#: the kernel replaces the predictor simulation wholesale, so a thin win
#: means the plane precompute leaked into the replay.
MIN_SAMPLER_SPEEDUP = 1.5

#: Minimum aggregate speedup of the TDBP/CDBP/optimal array kernels over
#: the reference loop on their Figure-4 cells.
MIN_FIG4_OBJECT_CELL_SPEEDUP = 1.5

#: Minimum aggregate speedup of the plan-based core model over the
#: record-by-record reference (evaluation alone measured ~1.9x).
MIN_TIMING_SPEEDUP = 1.5

#: Minimum speedup of a warm workload-store load over a cold compile.
MIN_STORE_SPEEDUP = 3.0

#: Event-log digest of the fixed loadsim scenario in
#: :func:`_measure_loadsim`.  Any change to it is a change in simulated
#: behaviour, not in speed.
LOADSIM_DIGEST = "77a92c4c4ae64deeff1ef1cf4891301eca56eebd4fb1ea9d6cc733a4852e9355"

#: Techniques whose policies have an array replay kernel (the Figure
#: 4-8 baseline families); the array_kernel section measures these
#: cells object-vs-array, at the smoke budget too.
ARRAY_TECHNIQUES = ("lru", "dip", "rrip", "random")

#: The paper's headline cells: DBRB over the sampling predictor, both
#: default policies.  The sampler_kernel section measures these and
#: *requires* the batched DBRB kernel to take them.
SAMPLER_TECHNIQUES = ("sampler", "random_sampler")

#: Figure 4's remaining cells (DBRB over the trained predictors, and
#: optimal); the fig4_cell_kernel section *requires* the array path for
#: them.
FIG4_OBJECT_CELL_TECHNIQUES = ("tdbp", "cdbp", "optimal")

#: Interleaved trials per array-kernel cell; the best of each side is
#: kept (single-vCPU boxes jitter absolute rates, ratios stay stable).
_ARRAY_TRIALS = 5

#: A technique with no array kernel (``policy:SHiPPolicy``): the probe
#: cell proving the replay declines to the reference loop on its own.
FALLBACK_PROBE_TECHNIQUE = "ship"

_SMOKE_BENCHMARKS = ("perlbench", "mcf")
_SMOKE_INSTRUCTIONS = 40_000


def _timed(run):
    """``(run(), seconds)``, timed with the collector paused."""
    gc_was_enabled = gc.isenabled()
    gc.disable()
    start = time.perf_counter()
    result = run()
    elapsed = time.perf_counter() - start
    if gc_was_enabled:
        gc.enable()
    return result, elapsed


def _reference_cache(geometry, policy, **options) -> Cache:
    """A fresh cache for a timed reference loop, its block frames built
    before the clock starts.  A cache builds its frames on first read;
    without this the first timed access would pay for them, and the
    reference column would time frame construction, not the loop."""
    cache = Cache(geometry, policy, **options)
    cache.find(0, 0)  # any frame read builds the frames
    return cache


def _measure_kernel_cells(
    workload_cache, technique_keys, benchmarks,
    probe_key: Optional[str] = None, require_array: bool = False,
) -> Dict:
    """Time the given cells through the reference loop and the array
    kernels.

    Per cell: ``_ARRAY_TRIALS`` interleaved (object, array) runs over
    the same prepared stream, best of each side kept; the object side
    is the reference loop ``[cache.access(a) for a in
    stream.accesses]``, the array side :func:`replay`.  The stream's
    access objects (the reference loop's input), the shared
    :class:`~repro.cache.soa.ReplayIndex` and, for DBRB cells, the
    :class:`~repro.cache.soa.PredictionPlane` are prebuilt outside the
    clocks -- all are amortized across every technique of a sweep --
    and so are the object side's block frames (see
    :func:`_reference_cache`).  Hit vectors and statistics must match
    between the two sides; a cell the substrate declines is recorded as
    skipped with its fallback reason -- unless ``require_array``, where
    any decline aborts the run (the sampler and Figure-4 cells must
    replay array-native).
    """
    geometry = workload_cache.machine.llc
    per_technique: Dict[str, Dict] = {
        key: {"accesses": 0, "object_seconds": 0.0, "array_seconds": 0.0}
        for key in technique_keys
    }
    skipped = []
    fallback_probe = None
    for benchmark in benchmarks:
        filtered = workload_cache.filtered(benchmark)
        stream = filtered.llc_stream(geometry)
        # The reference loop's input, built before any clock starts.
        stream.accesses
        stream.replay_index(geometry.num_sets)
        if require_array:
            stream.prediction_plane(geometry.num_sets)
        # Only probe the automatic fallback on a stream where the array
        # path actually ran: the probe should witness the *policy*
        # decline, not a size-based one.
        measured_any = False
        for key in technique_keys:
            technique = TECHNIQUES[key]
            best_object = best_array = None
            declined = None
            for _ in range(_ARRAY_TRIALS):
                cache = _reference_cache(geometry, technique.build(geometry, stream))
                object_hits, elapsed = _timed(
                    lambda: [cache.access(a) for a in stream.accesses]
                )
                object_stats = cache.stats.snapshot()
                if best_object is None or elapsed < best_object:
                    best_object = elapsed

                cache = Cache(geometry, technique.build(geometry, stream))
                array_hits, elapsed = _timed(lambda: replay(cache, stream))
                if cache.last_replay_kernel != "array":
                    declined = cache.last_replay_fallback
                    break
                if array_hits != object_hits or (
                    cache.stats.snapshot() != object_stats
                ):
                    raise SystemExit(
                        f"ARRAY KERNEL DIVERGENCE on ({benchmark}, {key}): "
                        f"object {object_stats} != array {cache.stats.snapshot()}"
                    )
                if best_array is None or elapsed < best_array:
                    best_array = elapsed
            if declined is not None:
                if require_array:
                    # Every cache here is fresh, so any decline is an
                    # eligibility decline: a kernel regressed.
                    raise SystemExit(
                        f"REQUIRED ARRAY KERNEL FALLBACK: ({benchmark}, {key}) "
                        f"declined the array path: {declined}"
                    )
                skipped.append(
                    {"benchmark": benchmark, "technique": key, "reason": declined}
                )
                continue
            cell = per_technique[key]
            cell["accesses"] += len(stream)
            cell["object_seconds"] += best_object
            cell["array_seconds"] += best_array
            cell["kernel"] = "array"
            measured_any = True

        if fallback_probe is None and measured_any and probe_key in TECHNIQUES:
            # One technique with no array kernel: the replay must
            # decline to the reference loop on its own.
            technique = TECHNIQUES[probe_key]
            cache = Cache(geometry, technique.build(geometry, stream))
            replay(cache, stream)
            if cache.last_replay_kernel != "object":
                raise SystemExit(
                    f"FALLBACK FAILURE: {probe_key} cell ran kernel "
                    f"{cache.last_replay_kernel!r}"
                )
            fallback_probe = {
                "benchmark": benchmark,
                "technique": probe_key,
                "kernel": cache.last_replay_kernel,
                "reason": cache.last_replay_fallback,
            }

    total = {"accesses": 0, "object_seconds": 0.0, "array_seconds": 0.0}
    for key in list(per_technique):
        cell = per_technique[key]
        if not cell["accesses"]:
            del per_technique[key]  # every benchmark declined this cell
            continue
        for field in total:
            total[field] += cell[field]
        cell["object_acc_per_sec"] = cell["accesses"] / cell["object_seconds"]
        cell["array_acc_per_sec"] = cell["accesses"] / cell["array_seconds"]
        cell["speedup"] = cell["object_seconds"] / cell["array_seconds"]
    if total["accesses"]:
        total["object_acc_per_sec"] = total["accesses"] / total["object_seconds"]
        total["array_acc_per_sec"] = total["accesses"] / total["array_seconds"]
        total["speedup"] = total["object_seconds"] / total["array_seconds"]
    else:
        total["speedup"] = None
    return {
        "benchmarks": list(benchmarks),
        "techniques": list(technique_keys),
        "trials": _ARRAY_TRIALS,
        "per_technique": per_technique,
        "skipped": skipped,
        "fallback_probe": fallback_probe,
        "total": total,
        "results_equivalent": True,
    }


def _measure_array_kernel(workload_cache, technique_keys, benchmarks) -> Dict:
    """The Figure 4-8 baseline families, reference loop vs array
    kernels, with the fallback probe on a technique that has no array
    kernel."""
    return _measure_kernel_cells(
        workload_cache, technique_keys, benchmarks,
        probe_key=FALLBACK_PROBE_TECHNIQUE,
    )


def _measure_sampler_kernel(workload_cache, benchmarks) -> Dict:
    """The DBRB sampler cells, reference loop vs batched prediction kernel.

    ``require_array`` makes a decline fatal: every cell of this section
    doubles as the probe that sampler replays report ``kernel: "array"``
    by default now.
    """
    return _measure_kernel_cells(
        workload_cache, SAMPLER_TECHNIQUES, benchmarks, require_array=True
    )


def _measure_fig4_cell_kernel(workload_cache, benchmarks) -> Dict:
    """TDBP, CDBP and optimal, reference loop vs their array kernels; a
    decline is fatal, as for the sampler cells."""
    return _measure_kernel_cells(
        workload_cache, FIG4_OBJECT_CELL_TECHNIQUES, benchmarks,
        require_array=True,
    )


def _measure_timing(workload_cache, benchmarks) -> Dict:
    """Time the core model, reference vs timing plan, on every cell.

    The cells are the array and sampler sections' (benchmark, technique)
    pairs; their hit vectors come from an untimed replay.  Per cell:
    ``_ARRAY_TRIALS`` interleaved (reference, plan) runs, best of each
    side kept.  The timing plan is built once per workload before the
    clocks -- it is shared by every technique of a sweep, as the
    ``ReplayIndex`` is -- and its build time is reported beside them.
    So is one ``ReplayIndex`` build from the stream's columns with the
    collector left as it is, which is what a sweep's first replay of
    the workload pays; the kernel sections prebuild the index outside
    their clocks, so this is the only place its cost shows.  Both are
    informational: no floor reads them.  The two cycle counts must
    agree exactly.
    """
    machine = workload_cache.machine
    geometry = machine.llc
    model = CoreModel(machine)
    techniques = ARRAY_TECHNIQUES + SAMPLER_TECHNIQUES
    per_benchmark: Dict[str, Dict] = {}
    for benchmark in benchmarks:
        filtered = workload_cache.filtered(benchmark)
        stream = filtered.llc_stream(geometry)
        # Both sides read the fixed latencies; keep them out of the
        # plan's build time.
        filtered.fixed_latencies(machine.l1_latency, machine.l2_latency)
        start = time.perf_counter()
        filtered.timing_plan(machine)
        build_seconds = time.perf_counter() - start
        start = time.perf_counter()
        ReplayIndex.build(
            stream.set_indices, stream.tags, stream.writes, geometry.num_sets
        )
        index_seconds = time.perf_counter() - start
        cell = {
            # Trace records each side walks, over every technique.
            "records": len(filtered.trace) * len(techniques),
            "plan_build_seconds": build_seconds,
            "index_build_seconds": index_seconds,
            "reference_seconds": 0.0,
            "plan_seconds": 0.0,
        }
        for key in techniques:
            cache = Cache(geometry, TECHNIQUES[key].build(geometry, stream))
            hits = replay(cache, stream)
            best_reference = best_plan = None
            for _ in range(_ARRAY_TRIALS):
                gc_was_enabled = gc.isenabled()
                gc.disable()
                start = time.perf_counter()
                reference = model.run_reference(filtered, hits)
                middle = time.perf_counter()
                planned = model.run(filtered, hits)
                elapsed = time.perf_counter() - middle
                if gc_was_enabled:
                    gc.enable()
                if repr(planned.cycles) != repr(reference.cycles):
                    raise SystemExit(
                        f"TIMING PLAN DIVERGENCE on ({benchmark}, {key}): "
                        f"reference {reference.cycles!r} != plan "
                        f"{planned.cycles!r} cycles"
                    )
                if best_reference is None or middle - start < best_reference:
                    best_reference = middle - start
                if best_plan is None or elapsed < best_plan:
                    best_plan = elapsed
            cell["reference_seconds"] += best_reference
            cell["plan_seconds"] += best_plan
        per_benchmark[benchmark] = cell

    total = {
        field: sum(cell[field] for cell in per_benchmark.values())
        for field in (
            "records", "plan_build_seconds", "index_build_seconds",
            "reference_seconds", "plan_seconds",
        )
    }
    for cell in [*per_benchmark.values(), total]:
        cell["reference_rec_per_sec"] = cell["records"] / cell["reference_seconds"]
        cell["plan_rec_per_sec"] = cell["records"] / cell["plan_seconds"]
        cell["speedup"] = cell["reference_seconds"] / cell["plan_seconds"]
    return {
        "benchmarks": list(benchmarks),
        "techniques": list(techniques),
        "trials": _ARRAY_TRIALS,
        "per_benchmark": per_benchmark,
        "total": total,
        "cycles_equal": True,
    }


def _measure_telemetry_overhead(workload_cache, benchmarks) -> Dict:
    """Time the sampler cell probes-off vs with an IntervalRecorder.

    An enabled probe declines the array kernel (fallback ``probe``) and
    runs the ``Cache.access`` reference loop in epoch slices, so the
    probes-off column times that same loop, with the access objects
    built before the clock starts: the overhead is the recorder's, not
    the gap between the array kernel and the reference loop.  Per
    benchmark: ``_ARRAY_TRIALS`` interleaved (off, on) runs, each on a
    fresh cache, best of each side kept, as in the kernel sections.
    Both columns are informational (telemetry is opt-in; the cost of
    the probes-off array path shows in perfbench's replay layer); every
    run pair must produce identical stats (docs/observability.md).
    """
    geometry = workload_cache.machine.llc
    technique = TECHNIQUES["sampler"]
    totals = {"accesses": 0, "off_seconds": 0.0, "on_seconds": 0.0}
    for benchmark in benchmarks:
        filtered = workload_cache.filtered(benchmark)
        stream = filtered.llc_stream(geometry)
        accesses = stream.accesses
        best_off = best_on = None
        for _ in range(_ARRAY_TRIALS):
            off_cache = _reference_cache(geometry, technique.build(geometry, stream))
            off_access = off_cache.access
            _, elapsed = _timed(lambda: [off_access(access) for access in accesses])
            if best_off is None or elapsed < best_off:
                best_off = elapsed

            on_cache = _reference_cache(
                geometry, technique.build(geometry, stream),
                probe=IntervalRecorder(epochs=32),
            )
            _, elapsed = _timed(lambda: replay(on_cache, stream))
            if best_on is None or elapsed < best_on:
                best_on = elapsed
            if on_cache.last_replay_fallback != "probe":
                raise SystemExit(
                    f"TELEMETRY SUBSTRATE MISMATCH on ({benchmark}, sampler): "
                    f"probe-on replay fell back for {on_cache.last_replay_fallback!r}, "
                    "not 'probe', so probes-off does not time the same loop"
                )
            if off_cache.stats.snapshot() != on_cache.stats.snapshot():
                raise SystemExit(
                    f"TELEMETRY TRANSPARENCY FAILURE on ({benchmark}, sampler): "
                    f"probe-off {off_cache.stats.snapshot()} != "
                    f"probe-on {on_cache.stats.snapshot()}"
                )
        totals["off_seconds"] += best_off
        totals["on_seconds"] += best_on
        totals["accesses"] += len(stream)

    totals["trials"] = _ARRAY_TRIALS
    totals["off_acc_per_sec"] = totals["accesses"] / totals["off_seconds"]
    totals["on_acc_per_sec"] = totals["accesses"] / totals["on_seconds"]
    totals["on_overhead"] = (
        totals["on_seconds"] / totals["off_seconds"] - 1.0
    )
    return totals


def _replay_ready(filtered, machine):
    """Drive a workload to the replay-ready state every sweep cell needs.

    Compiled workloads decode lazily, so timing ``filtered()`` alone
    would flatter the warm paths; forcing the LLC arrays, the prepared
    stream, and the fixed latencies puts the full materialization cost
    inside the clock for all three modes.
    """
    filtered.llc_arrays()
    stream = filtered.llc_stream(machine.llc)
    filtered.fixed_latencies(machine.l1_latency, machine.l2_latency)
    return stream


def _measure_store(config, benchmarks) -> Dict:
    """Time cold compile vs warm store load vs shared-memory attach.

    Cold runs against an empty store and therefore pays build_trace,
    the L1/L2 filtering pass, stream preparation, and the store write.
    Warm re-reads the same store from a fresh cache; shm attaches the
    compiled blobs exported by the warm cache.  Any divergence in the
    prepared streams aborts the run.
    """
    per_benchmark: Dict[str, Dict] = {}
    totals = {"cold_seconds": 0.0, "warm_seconds": 0.0, "shm_seconds": 0.0}
    with tempfile.TemporaryDirectory(prefix="repro-bench-store-") as tmp:
        store = StreamStore(tmp)
        machine = WorkloadCache(config).machine

        # One workload at a time, through a fresh cache each, exactly as
        # a pool worker experiences its first cell.  Keeping all N
        # workloads live across the timed regions would instead measure
        # full-heap GC traversals growing with N.
        for benchmark in benchmarks:
            cache = WorkloadCache(config, stream_store=store)
            start = time.perf_counter()
            stream = _replay_ready(cache.filtered(benchmark), machine)
            cold = time.perf_counter() - start
            reference = (stream.set_indices, stream.tags)
            del cache, stream

            cache = WorkloadCache(config, stream_store=store)
            start = time.perf_counter()
            stream = _replay_ready(cache.filtered(benchmark), machine)
            warm = time.perf_counter() - start
            if (stream.set_indices, stream.tags) != reference:
                raise SystemExit(f"STORE DIVERGENCE on {benchmark} (warm load)")
            if cache.stream_misses:
                raise SystemExit(
                    f"warm path recompiled {benchmark} -- the store was not hit"
                )
            compiled = cache.compiled(benchmark)  # store hit: no rebuild
            del cache, stream

            export = SharedStreamExport.create({benchmark: compiled})
            try:
                manifest = export.manifest()
                start = time.perf_counter()
                attached = attach_shared_streams(manifest)
                stream = _replay_ready(
                    attached[benchmark].filtered_trace(), machine
                )
                shm = time.perf_counter() - start
                if (stream.set_indices, stream.tags) != reference:
                    raise SystemExit(
                        f"STORE DIVERGENCE on {benchmark} (shm attach)"
                    )
                del stream
                for workload in attached.values():
                    workload.release()
            finally:
                export.close()

            per_benchmark[benchmark] = {
                "cold_seconds": cold,
                "warm_seconds": warm,
                "shm_seconds": shm,
            }
            totals["cold_seconds"] += cold
            totals["warm_seconds"] += warm
            totals["shm_seconds"] += shm

        totals["store_bytes"] = store.footprint()

    for cell in per_benchmark.values():
        cell["warm_speedup"] = cell["cold_seconds"] / cell["warm_seconds"]
    totals["warm_speedup"] = totals["cold_seconds"] / totals["warm_seconds"]
    totals["shm_speedup"] = totals["cold_seconds"] / totals["shm_seconds"]
    return {
        "benchmarks": list(benchmarks),
        "per_benchmark": per_benchmark,
        "total": totals,
        "streams_equivalent": True,
    }


#: Every simple pattern family, timed at the bench instruction budget.
PATTERN_BENCH_FAMILIES = ("zipf", "hotspot", "bursty", "seq", "uniform")


def _measure_patterns(config) -> Dict:
    """Pattern-generation plus trace import/replay throughput.

    Generation times each family's ``generate`` (records emitted per
    second); import times the full :class:`TraceLibrary` round-trip on
    the zipf trace (parse, canonical re-serialization, gzip blob
    write); replay times ``TraceReplayWorkload.generate`` off the warm
    library.  Records/sec, so numbers are comparable across budgets.
    """
    from repro.sim.traceio import save_trace
    from repro.workloads import TraceLibrary, TraceReplayWorkload, resolve_workload

    llc_bytes = WorkloadCache(config).machine.llc.size_bytes
    per_family: Dict[str, Dict] = {}
    generate_seconds = 0.0
    total_records = 0
    sample = None
    for family in PATTERN_BENCH_FAMILIES:
        generator = resolve_workload(family, seed=config.seed)
        start = time.perf_counter()
        trace = generator.generate(config.instructions, llc_bytes)
        elapsed = time.perf_counter() - start
        # Records emitted by the columnar builder: ``len`` reads a
        # column, no record object is built.
        per_family[family] = {
            "records": len(trace),
            "seconds": elapsed,
            "rec_per_sec": len(trace) / elapsed,
        }
        generate_seconds += elapsed
        total_records += len(trace)
        if family == "zipf":
            sample = trace

    with tempfile.TemporaryDirectory(prefix="repro-bench-trace-") as tmp:
        path = Path(tmp) / "bench.trace.gz"
        save_trace(sample, path)
        library = TraceLibrary(Path(tmp) / "lib")
        start = time.perf_counter()
        entry = library.import_file(path, name="bench")
        import_seconds = time.perf_counter() - start

        workload = TraceReplayWorkload("bench", library=library)
        start = time.perf_counter()
        replayed = workload.generate(sample.instructions, llc_bytes)
        replay_seconds = time.perf_counter() - start
        # Record views compare by value, column by column.
        if replayed.records != sample.records:
            raise SystemExit("TRACE REPLAY DIVERGENCE in the bench round-trip")

    return {
        "families": list(PATTERN_BENCH_FAMILIES),
        "per_family": per_family,
        "total": {
            "records": total_records,
            "generate_seconds": generate_seconds,
            "generate_rec_per_sec": total_records / generate_seconds,
            "import_records": int(entry["records"]),
            "import_seconds": import_seconds,
            "import_rec_per_sec": int(entry["records"]) / import_seconds,
            "replay_seconds": replay_seconds,
            "replay_rec_per_sec": len(replayed) / replay_seconds,
        },
    }


#: Interleaved trials for the load-simulator bench (best kept).
_LOADSIM_TRIALS = 3


def _measure_loadsim() -> Dict:
    """Event-log throughput of the load simulator's run.

    Runs a FIXED small scenario (its own config, independent of the
    bench budget) so smoke and full runs are directly comparable: two
    tenants -- skewed Zipf under Poisson arrivals next to mcf under MMPP
    bursts -- through sampler-driven DBRB.  Every trial must produce the
    same event-log digest (the determinism contract); ``main`` checks
    it against :data:`LOADSIM_DIGEST`.  ``events`` counts the log (one
    arrival and one completion per request); ``events_per_sec`` divides
    it by the best trial's :meth:`~repro.loadsim.sim.PreparedScenario.run`
    time, which excludes preparation (traces, request tables, the
    arrival schedule).
    """
    from repro.loadsim import LoadScenario, TenantSpec, prepare_scenario

    config = ExperimentConfig(
        scale=32, instructions=20_000, seed=1, num_cores=2
    )
    scenario = LoadScenario(
        tenants=(
            TenantSpec(workload="zipf(a=1.2)", arrival="poisson(rate=0.3)"),
            TenantSpec(workload="mcf", arrival="bursty(rate=0.2,burst=6)"),
        ),
        duration=2_000_000.0,
        seed=11,
        epochs=8,
    )
    prepared = prepare_scenario(WorkloadCache(config), scenario)
    best_seconds = None
    result = None
    for _ in range(_LOADSIM_TRIALS):
        gc.collect()
        start = time.perf_counter()
        trial = prepared.run("sampler")
        elapsed = time.perf_counter() - start
        if result is None:
            result = trial
        elif trial.event_log_digest() != result.event_log_digest():
            raise SystemExit(
                "LOADSIM NONDETERMINISM: bench trials of one scenario "
                "produced different event logs"
            )
        if best_seconds is None or elapsed < best_seconds:
            best_seconds = elapsed
    events = len(result.events)
    requests = sum(tenant.arrived for tenant in result.tenants)
    return {
        "scenario": result.scenario,
        "technique": result.technique,
        "trials": _LOADSIM_TRIALS,
        "total": {
            "events": events,
            "requests": requests,
            "llc_accesses": result.llc_stats.accesses,
            "seconds": best_seconds,
            "events_per_sec": events / best_seconds,
            "p50_latency": result.p50,
            "p95_latency": result.p95,
            "p99_latency": result.p99,
            "fairness": result.fairness,
            "event_log_digest": result.event_log_digest(),
        },
    }


def _print_kernel_section(title: str, section: Dict) -> None:
    print(
        f"\n{title} ({len(section['benchmarks'])} benchmarks, "
        f"best of {section['trials']} interleaved trials):"
    )
    print(f"  {'technique':14s} {'object acc/s':>14s} {'array acc/s':>14s} {'speedup':>8s}")
    rows = list(section["per_technique"].items())
    if section["total"]["speedup"] is not None:
        rows.append(("TOTAL", section["total"]))
    for key, cell in rows:
        print(
            f"  {key:14s} {cell['object_acc_per_sec']:>14,.0f} "
            f"{cell['array_acc_per_sec']:>14,.0f} {cell['speedup']:>7.2f}x"
        )
    for cell in section["skipped"]:
        print(
            f"  skipped ({cell['benchmark']}, {cell['technique']}): "
            f"{cell['reason']}"
        )
    probe = section["fallback_probe"]
    if probe is not None:
        print(
            f"  fallback probe ({probe['benchmark']}, {probe['technique']}): "
            f"kernel={probe['kernel']} reason={probe['reason']}"
        )


def _print_report(report: Dict) -> None:
    _print_kernel_section("array kernel", report["array_kernel"])
    _print_kernel_section(
        "sampler kernel, array path required", report["sampler_kernel"]
    )
    _print_kernel_section(
        "Figure-4 TDBP/CDBP/optimal kernels, array path required",
        report["fig4_cell_kernel"],
    )
    timing = report["timing"]
    print(
        f"\ntiming model ({len(timing['benchmarks'])} benchmarks x "
        f"{len(timing['techniques'])} techniques, best of "
        f"{timing['trials']} interleaved trials):"
    )
    print(
        f"  {'benchmark':14s} {'ref rec/s':>14s} {'plan rec/s':>14s} "
        f"{'speedup':>8s} {'plan build':>10s} {'index build':>11s}"
    )
    rows = list(timing["per_benchmark"].items()) + [("TOTAL", timing["total"])]
    for name, cell in rows:
        print(
            f"  {name:14s} {cell['reference_rec_per_sec']:>14,.0f} "
            f"{cell['plan_rec_per_sec']:>14,.0f} "
            f"{cell['speedup']:>7.2f}x {cell['plan_build_seconds']:>9.3f}s "
            f"{cell['index_build_seconds']:>10.3f}s"
        )
    telemetry = report["telemetry"]
    print(
        f"\ntelemetry (sampler cell): probes-off "
        f"{telemetry['off_acc_per_sec']:,.0f} acc/s, probe-on "
        f"{telemetry['on_acc_per_sec']:,.0f} acc/s "
        f"({telemetry['on_overhead']:+.1%} recorder overhead)"
    )
    store = report["store"]["total"]
    print(
        f"\nworkload store ({len(report['store']['benchmarks'])} workloads, "
        f"{store['store_bytes'] / 1024.0 / 1024.0:.1f} MiB): cold "
        f"{store['cold_seconds']:.2f}s, warm {store['warm_seconds']:.2f}s "
        f"({store['warm_speedup']:.1f}x), shm {store['shm_seconds']:.2f}s "
        f"({store['shm_speedup']:.1f}x)"
    )
    patterns = report["patterns"]
    print(f"\npattern workloads ({len(patterns['families'])} families):")
    print(f"  {'family':14s} {'records':>10s} {'rec/s':>14s}")
    for family, cell in patterns["per_family"].items():
        print(
            f"  {family:14s} {cell['records']:>10,d} "
            f"{cell['rec_per_sec']:>14,.0f}"
        )
    pattern_total = patterns["total"]
    print(
        f"  {'TOTAL':14s} {pattern_total['records']:>10,d} "
        f"{pattern_total['generate_rec_per_sec']:>14,.0f}"
    )
    print(
        f"  trace import {pattern_total['import_rec_per_sec']:,.0f} rec/s, "
        f"replay {pattern_total['replay_rec_per_sec']:,.0f} rec/s "
        f"({pattern_total['import_records']} records round-tripped)"
    )
    loadsim = report["loadsim"]["total"]
    print(
        f"\nload simulator (fixed 2-tenant scenario, best of "
        f"{report['loadsim']['trials']}): "
        f"{loadsim['events_per_sec']:,.0f} events/s "
        f"({loadsim['events']} events, {loadsim['requests']} requests, "
        f"{loadsim['llc_accesses']} LLC accesses in "
        f"{loadsim['seconds']:.3f}s; p99 {loadsim['p99_latency']:.0f}cy, "
        f"digest {loadsim['event_log_digest'][:12]})"
    )


def _gate_failures(report: Dict) -> List[str]:
    """One message per floor or digest the report misses."""
    failures = []
    floors = (
        ("ARRAY KERNEL", report["array_kernel"]["total"]["speedup"],
         MIN_ARRAY_SPEEDUP),
        ("SAMPLER KERNEL", report["sampler_kernel"]["total"]["speedup"],
         MIN_SAMPLER_SPEEDUP),
        ("FIG4 CELL KERNEL", report["fig4_cell_kernel"]["total"]["speedup"],
         MIN_FIG4_OBJECT_CELL_SPEEDUP),
        ("TIMING PLAN", report["timing"]["total"]["speedup"],
         MIN_TIMING_SPEEDUP),
        ("WORKLOAD STORE", report["store"]["total"]["warm_speedup"],
         MIN_STORE_SPEEDUP),
    )
    for name, speedup, floor in floors:
        if speedup is None:
            failures.append(f"{name} GUARD: no eligible cell was measured")
        elif speedup < floor:
            failures.append(
                f"{name} REGRESSION: aggregate speedup {speedup:.2f}x fell "
                f"below the floor {floor:.2f}x"
            )
    digest = report["loadsim"]["total"]["event_log_digest"]
    if digest != LOADSIM_DIGEST:
        failures.append(
            f"LOADSIM DETERMINISM REGRESSION: the fixed scenario's event "
            f"log digest {digest[:12]} no longer matches the pinned "
            f"{LOADSIM_DIGEST[:12]}"
        )
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="tiny budget, two benchmarks (harness validation)",
    )
    parser.add_argument(
        "--output", type=Path, default=REPO_ROOT / "BENCH_THROUGHPUT.json",
        help="report path (default BENCH_THROUGHPUT.json at the repo root)",
    )
    args = parser.parse_args(argv)

    if args.smoke:
        config = ExperimentConfig(
            scale=ExperimentConfig().scale, instructions=_SMOKE_INSTRUCTIONS
        )
        benchmarks = _SMOKE_BENCHMARKS
    else:
        config = ExperimentConfig.from_env()
        benchmarks = SINGLE_THREAD_SUBSET

    print(f"machine: {config.describe()}")
    workload_cache = WorkloadCache(config)
    report = {
        "schema": "repro-bench/2",
        "unix_time": time.time(),
        "smoke": args.smoke,
        "config": {
            "scale": config.scale,
            "instructions": config.instructions,
            "seed": config.seed,
        },
        "array_kernel": _measure_array_kernel(
            workload_cache, ARRAY_TECHNIQUES, benchmarks
        ),
        "sampler_kernel": _measure_sampler_kernel(workload_cache, benchmarks),
        "fig4_cell_kernel": _measure_fig4_cell_kernel(workload_cache, benchmarks),
        "timing": _measure_timing(workload_cache, benchmarks),
        "telemetry": _measure_telemetry_overhead(workload_cache, benchmarks),
        "store": _measure_store(config, benchmarks),
        "patterns": _measure_patterns(config),
        "loadsim": _measure_loadsim(),
    }
    _print_report(report)
    args.output.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(f"\nreport written to {args.output}")

    failures = _gate_failures(report)
    for message in failures:
        print(f"\n{message}")
    if failures:
        return 1
    print("\nall speedup floors met; loadsim digest matches")
    return 0


if __name__ == "__main__":
    sys.exit(main())
