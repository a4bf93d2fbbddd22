"""Process-parallel, fault-tolerant experiment sweeps.

The single-thread comparisons behind Figures 4/5 and 7/8 are
embarrassingly parallel: every (benchmark, technique) cell replays its
own LLC stream on its own cache, and cells only meet again at reporting
time.  This module fans those cells over a :mod:`multiprocessing` pool
and supervises them:

* each completed cell is persisted to an optional
  :class:`~repro.harness.checkpoint.CheckpointStore` the moment it
  finishes, and ``resume=True`` reloads completed cells instead of
  re-running them (``REPRO_CHECKPOINT_DIR`` / ``--checkpoint-dir``);
* cells run under per-cell wall-clock deadlines, bounded retry with
  exponential backoff, a parent-side watchdog for workers that die
  without reporting, and graceful degradation to serial in-process
  execution -- see :mod:`repro.harness.faults` for the machinery and the
  :class:`~repro.harness.faults.CellTimeout` /
  :class:`~repro.harness.faults.CellCrashed` /
  :class:`~repro.harness.faults.SweepAborted` taxonomy;
* with ``allow_partial=True`` an unrecoverable sweep still returns a
  :class:`~repro.harness.experiments.SingleThreadComparison` for the
  cells that completed, carrying the failure report.

Determinism contract: a parallel sweep is bit-identical to the serial
one, whatever the job count, OS scheduling, retries, or resumes.  That
holds because every source of randomness is seeded per *task*, not per
process:

* workload generation draws from ``ExperimentConfig.seed`` and the
  benchmark name only (``build_trace(benchmark, ..., seed=config.seed)``),
  so each worker regenerates exactly the trace the serial run would use;
* policy RNGs (e.g. the random-replacement XorShift) use fixed
  per-policy seeds and are constructed fresh inside each cell;
* supervision (retry, resume, degradation) decides only *whether* a
  cell's result was obtained, never *what* it is, and checkpoint keys
  cover everything that determines a cell's result.

``tests/test_parallel_harness.py`` pins serial == parallel equality and
``tests/test_faults.py`` pins it across injected crashes, hangs,
retries, and checkpoint resumes.

Workers are spawned with the explicit ``"spawn"`` start method: ``fork``
is unsafe in threaded parents and deprecated-by-default on newer
Pythons, and spawn additionally guarantees workers import the package
fresh (no inherited interpreter state can leak into a cell).  Worker
processes each hold a private :class:`WorkloadCache`; without the
compiled workload store, a workload's generation + L1/L2 filtering pass
is repeated once per worker that draws a cell of that benchmark -- the
price of process isolation.  With the store enabled
(``REPRO_STREAM_CACHE`` / ``stream_cache=``) the parent compiles or
loads each workload exactly once and workers take the warm path: they
load the compiled blob from disk, or -- with ``REPRO_SHM`` /
``shared_memory=True`` -- attach zero-copy to shared-memory segments
the parent exported (see :mod:`repro.sim.streamstore`).  The segments
are torn down in the supervision loop's cleanup hook, so crashed,
timed-out, and aborted sweeps cannot leak them.

The job count comes from, in priority order: the ``jobs`` argument, the
``REPRO_JOBS`` environment variable, default 1 (serial, in-process).
"""

from __future__ import annotations

import multiprocessing
import os
import time
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.harness.checkpoint import CheckpointStore
from repro.harness.experiments import SingleThreadComparison
from repro.harness.faults import (
    Cell,
    FaultPolicy,
    cell_deadline,
    cell_label,
    DeadlineExceeded,
    maybe_inject_fault,
    run_cells_supervised,
)
from repro.harness.runner import ExperimentConfig, WorkloadCache
from repro.harness.techniques import TECHNIQUES, validate_techniques
from repro.sim.streamstore import (
    SharedStreamExport,
    StreamManifest,
    StreamStore,
    attach_shared_streams,
    shared_memory_enabled,
)
from repro.sim.system import RunResult
from repro.telemetry.events import EventLog, ProgressRenderer, SweepTelemetry
from repro.telemetry.manifest import RunManifest
from repro.workloads import SINGLE_THREAD_SUBSET

__all__ = [
    "make_cell_pool_factory",
    "parallel_single_thread_comparison",
    "resolve_jobs",
]

#: Sentinel technique key for the per-benchmark LRU baseline cell.
_BASELINE = None

#: Per-worker-process workload cache, built once by the pool initializer.
_WORKER_CACHE: Optional[WorkloadCache] = None


def resolve_jobs(jobs: Optional[int] = None) -> int:
    """Worker-process count: explicit argument, else ``REPRO_JOBS``, else 1.

    Raises ValueError for non-positive or non-integer settings.
    """
    if jobs is None:
        raw = os.environ.get("REPRO_JOBS")
        if raw is None:
            return 1
        try:
            jobs = int(raw)
        except ValueError:
            raise ValueError(
                f"REPRO_JOBS must be an integer, got {raw!r}"
            ) from None
    if jobs < 1:
        raise ValueError(f"job count must be positive, got {jobs}")
    return jobs


def _init_worker(
    config: ExperimentConfig,
    store_root: Optional[str] = None,
    stream_manifest: Optional[StreamManifest] = None,
) -> None:
    """Pool initializer: give this worker its own workload cache.

    ``store_root`` attaches the on-disk compiled workload store;
    ``stream_manifest`` attaches the parent's shared-memory segments
    (zero-copy).  Either way the worker serves workloads from the warm
    path instead of re-running ``build_trace`` + the filtering pass.
    """
    global _WORKER_CACHE
    _WORKER_CACHE = WorkloadCache(
        config,
        stream_store=StreamStore(store_root) if store_root is not None else None,
        compiled_streams=attach_shared_streams(stream_manifest),
    )


def make_cell_pool_factory(
    config: ExperimentConfig,
    processes: int,
    store_root: Optional[str] = None,
    stream_manifest: Optional[StreamManifest] = None,
):
    """A zero-argument factory building the supervised cell worker pool.

    This is the single construction path for sweep pools -- explicit
    ``"spawn"`` context, :func:`_init_worker` wiring the per-worker
    workload cache to the store and/or shared-memory segments -- shared
    by :func:`parallel_single_thread_comparison` and the experiment
    service's scheduler, so both fan work out identically.
    """
    context = multiprocessing.get_context("spawn")

    def make_pool():
        return context.Pool(
            processes=processes,
            initializer=_init_worker,
            initargs=(config, store_root, stream_manifest),
        )

    return make_pool


def _run_cell_on(cache: WorkloadCache, cell: Cell) -> RunResult:
    """Run one (benchmark, technique) cell on the given workload cache.

    ``technique_key=None`` is the LRU baseline cell.  This is the single
    execution path every mode shares -- worker processes, the serial
    in-process sweep, and the graceful-degradation fallback -- which is
    what keeps them bit-identical.
    """
    benchmark, technique_key = cell
    filtered = cache.filtered(benchmark)
    if technique_key is _BASELINE:
        technique = TECHNIQUES["lru"]
        name = "lru"
        compute_timing = True
    else:
        technique = TECHNIQUES[technique_key]
        name = technique_key
        compute_timing = technique.timing_meaningful
    return cache.system.run(
        filtered,
        lambda g, s: technique.build(g, s),
        technique_name=name,
        compute_timing=compute_timing,
    )


def _cell_clock(cache: WorkloadCache) -> Tuple[float, float, int, int]:
    """Start readings for :func:`_cell_timing`: wall and CPU clocks plus
    the workload cache's store hit and miss counters."""
    return (
        time.perf_counter(),
        time.process_time(),
        cache.stream_hits,
        cache.stream_misses,
    )


def _cell_timing(
    cache: WorkloadCache, start: Tuple[float, float, int, int], result: RunResult
) -> Dict[str, object]:
    """The per-cell timing record the NDJSON events and the manifest
    carry: wall and CPU seconds and store hits/misses since ``start``,
    plus the replay kernel and any fallback reason the cell reported."""
    wall_start, cpu_start, hits_start, misses_start = start
    timing: Dict[str, object] = {
        "wall_seconds": time.perf_counter() - wall_start,
        "cpu_seconds": time.process_time() - cpu_start,
        "store_hits": cache.stream_hits - hits_start,
        "store_misses": cache.stream_misses - misses_start,
    }
    kernel = getattr(result, "kernel", None)
    if kernel is not None:
        timing["kernel"] = kernel
    fallback = getattr(result, "kernel_fallback", None)
    if fallback is not None:
        timing["kernel_fallback"] = fallback
    return timing


def _run_cell(
    task: Tuple[str, Optional[str]]
) -> Tuple[str, Optional[str], RunResult]:
    """Run one cell in a worker process (unsupervised; kept as the plain
    building block).  The result is stripped of its cache and observers
    before crossing the process boundary (policies hold unpicklable
    state; sweeps only read stats, timing, and hit vectors).
    """
    benchmark, technique_key = task
    result = _run_cell_on(_WORKER_CACHE, (benchmark, technique_key))
    result.cache = None
    result.observers = ()
    return benchmark, technique_key, result


def _run_cell_supervised(
    task: Tuple[str, Optional[str], int, Optional[float]]
) -> Tuple[str, Optional[str], str, object, Optional[Dict[str, float]]]:
    """Supervised worker entry: deadline, fault injection, and exception
    capture around :func:`_run_cell`.

    Returns the :data:`~repro.harness.faults.WireResult` wire format;
    exceptions travel back as strings so any failure pickles cleanly.
    Wall/CPU time is measured here, inside the worker, so the parent's
    events and manifest carry real per-cell costs rather than
    queue-inclusive latencies.
    """
    benchmark, technique_key, attempt, timeout = task
    start = _cell_clock(_WORKER_CACHE)
    try:
        with cell_deadline(timeout):
            maybe_inject_fault(benchmark, technique_key, attempt)
            _, _, result = _run_cell((benchmark, technique_key))
        timing = _cell_timing(_WORKER_CACHE, start, result)
        return benchmark, technique_key, "ok", result, timing
    except DeadlineExceeded:
        return benchmark, technique_key, "timeout", f"exceeded {timeout}s", None
    except Exception as exc:
        return (
            benchmark,
            technique_key,
            "error",
            f"{type(exc).__name__}: {exc}",
            None,
        )


def _sweep_telemetry(
    events_file,
    progress: Optional[bool],
    manifest_path,
    store: Optional[CheckpointStore],
    command: str,
    config: ExperimentConfig,
    technique_keys: Sequence[str],
    benchmarks: Sequence[str],
    jobs: int,
) -> Tuple[Optional[SweepTelemetry], Optional[RunManifest], Optional[str]]:
    """Resolve the observability knobs into a :class:`SweepTelemetry`.

    Argument ``None`` defers to the environment: ``REPRO_EVENTS_FILE``
    (NDJSON sink path), ``REPRO_PROGRESS`` (truthy enables the stderr
    renderer), ``REPRO_MANIFEST`` (manifest path).  The manifest default
    places it next to the checkpoint store (``<store>/manifest.json``)
    when one is attached, or next to the events file otherwise; with no
    anchor at all, no manifest is written.  Returns ``(None, None,
    None)`` when nothing is enabled, so sweeps without observability pay
    nothing.
    """
    if events_file is None:
        events_file = os.environ.get("REPRO_EVENTS_FILE") or None
    if progress is None:
        progress = os.environ.get(
            "REPRO_PROGRESS", ""
        ).strip().lower() in ("1", "true", "yes", "on")
    if manifest_path is None:
        manifest_path = os.environ.get("REPRO_MANIFEST") or None
    if manifest_path is None:
        if store is not None:
            manifest_path = os.path.join(os.fspath(store.root), "manifest.json")
        elif events_file is not None and not hasattr(events_file, "write"):
            manifest_path = f"{os.fspath(events_file)}.manifest.json"

    if events_file is None and not progress and manifest_path is None:
        return None, None, None

    manifest = None
    if manifest_path is not None:
        from dataclasses import asdict

        manifest = RunManifest(
            command=command,
            config=asdict(config),
            technique_keys=list(technique_keys),
            benchmarks=list(benchmarks),
            started_at=time.time(),
            jobs=jobs,
            checkpoint_root=os.fspath(store.root) if store is not None else None,
        )
    sinks = []
    if events_file is not None:
        sinks.append(EventLog(events_file))
    if progress:
        sinks.append(ProgressRenderer())
    return SweepTelemetry(sinks=sinks, manifest=manifest), manifest, manifest_path


def parallel_single_thread_comparison(
    cache: Union[WorkloadCache, ExperimentConfig],
    technique_keys: Sequence[str],
    benchmarks: Sequence[str] = SINGLE_THREAD_SUBSET,
    jobs: Optional[int] = None,
    checkpoint: Union[CheckpointStore, str, os.PathLike, None] = None,
    resume: bool = False,
    fault_policy: Optional[FaultPolicy] = None,
    allow_partial: Optional[bool] = None,
    events_file=None,
    progress: Optional[bool] = None,
    manifest_path: Union[str, os.PathLike, None] = None,
    command: str = "run",
    stream_cache: Union[StreamStore, str, os.PathLike, None] = None,
    shared_memory: Optional[bool] = None,
) -> SingleThreadComparison:
    """Figure 4/5/7/8 sweep, fanned over supervised worker processes.

    Args:
        cache: a :class:`WorkloadCache` to use (and to run serially in
            when ``jobs == 1``), or an :class:`ExperimentConfig` from
            which each worker builds its own cache.
        technique_keys: techniques to sweep (baseline LRU always runs).
        benchmarks: workloads to sweep.
        jobs: worker processes; ``None`` defers to ``REPRO_JOBS``.
        checkpoint: a :class:`CheckpointStore`, a directory path for
            one, or ``None`` to defer to ``REPRO_CHECKPOINT_DIR`` (no
            checkpointing when that is unset too).  Completed cells are
            persisted as they finish.
        resume: load already-checkpointed cells instead of re-running
            them (requires a checkpoint store).
        fault_policy: timeout/retry/degradation knobs; ``None`` defers
            to the ``REPRO_CELL_TIMEOUT`` / ``REPRO_CELL_RETRIES`` /
            ``REPRO_RETRY_BACKOFF`` environment.
        allow_partial: override the policy's ``allow_partial``; a
            partial sweep returns the completed cells with
            ``comparison.failures`` describing the rest instead of
            raising :class:`~repro.harness.faults.SweepAborted`.
        events_file: NDJSON progress-event sink -- a path or an open
            file object (``None`` defers to ``REPRO_EVENTS_FILE``); see
            :mod:`repro.telemetry.events` for the schema.
        progress: render one human-readable progress line per event on
            stderr (``None`` defers to ``REPRO_PROGRESS``).
        manifest_path: where to write the run manifest (``None`` defers
            to ``REPRO_MANIFEST``, then to ``<checkpoint>/manifest.json``
            when a store is attached, then to
            ``<events_file>.manifest.json``).  The manifest is written
            atomically at sweep start and again at the end -- including
            on an aborted sweep, so a crashed run still leaves its
            provenance on disk.
        command: label recorded in the manifest ("run", "suite", ...).
        stream_cache: a :class:`~repro.sim.streamstore.StreamStore`, a
            directory path for one, or ``None`` to defer to
            ``REPRO_STREAM_CACHE`` (store disabled when that is unset
            too).  With a store attached, each workload is compiled or
            loaded once by the parent and served warm to every worker
            and retry, and the compiled blob persists for future runs.
        shared_memory: fan the compiled workloads out to workers through
            :mod:`multiprocessing.shared_memory` segments instead of
            per-worker disk loads (``None`` defers to ``REPRO_SHM``).
            Workers attach zero-copy; the parent tears the segments
            down when supervision ends, however it ends.

    Returns the same :class:`SingleThreadComparison` a serial
    :func:`~repro.harness.experiments.single_thread_comparison` call
    would, bit-identically -- including after resumes and retries.

    Raises:
        ValueError: for unknown technique keys (checked up front, before
            any work runs or any pool spawns).
        SweepAborted: when cells fail unrecoverably and partial results
            are not allowed.
    """
    bad_techniques = validate_techniques(technique_keys)
    if bad_techniques:
        raise ValueError("; ".join(bad_techniques))

    if isinstance(cache, ExperimentConfig):
        config, workload_cache = cache, None
    else:
        config, workload_cache = cache.config, cache

    if isinstance(checkpoint, CheckpointStore):
        store: Optional[CheckpointStore] = checkpoint
    else:
        store = CheckpointStore.from_env(checkpoint)
    if resume and store is None:
        raise ValueError(
            "resume=True needs a checkpoint store; pass checkpoint=... or "
            "set REPRO_CHECKPOINT_DIR"
        )
    policy = fault_policy if fault_policy is not None else FaultPolicy.from_env()
    if allow_partial is not None:
        from dataclasses import replace
        policy = replace(policy, allow_partial=bool(allow_partial))

    if isinstance(stream_cache, StreamStore):
        streams: Optional[StreamStore] = stream_cache
    else:
        streams = StreamStore.from_env(stream_cache)
    use_shm = shared_memory_enabled(shared_memory)
    if streams is not None and workload_cache is not None:
        if workload_cache.stream_store is None:
            workload_cache.stream_store = streams

    cells: List[Cell] = []
    for benchmark in benchmarks:
        cells.append((benchmark, _BASELINE))
        cells.extend((benchmark, key) for key in technique_keys)

    baseline: Dict[str, RunResult] = {}
    results: Dict[str, Dict[str, RunResult]] = {
        benchmark: {} for benchmark in benchmarks
    }

    def record(cell: Cell, result: RunResult) -> None:
        benchmark, technique_key = cell
        if technique_key is _BASELINE:
            baseline[benchmark] = result
        else:
            results[benchmark][technique_key] = result
        if store is not None:
            store.store(config, benchmark, technique_key, result)

    # Resume: completed cells come off disk, not off the machine.
    to_run: List[Cell] = []
    resumed: List[Cell] = []
    for cell in cells:
        loaded = store.load(config, *cell) if (resume and store) else None
        if loaded is not None:
            benchmark, technique_key = cell
            if technique_key is _BASELINE:
                baseline[benchmark] = loaded
            else:
                results[benchmark][technique_key] = loaded
            resumed.append(cell)
        else:
            to_run.append(cell)

    effective_jobs = min(resolve_jobs(jobs), len(to_run)) if to_run else 1
    telemetry, manifest, manifest_file = _sweep_telemetry(
        events_file, progress, manifest_path, store, command, config,
        technique_keys, benchmarks, effective_jobs,
    )
    if telemetry is not None:
        telemetry.sweep_started(
            len(cells), list(benchmarks), list(technique_keys), effective_jobs
        )
        for cell in resumed:
            telemetry.cell_resumed(cell_label(cell))
        if manifest is not None:
            manifest.write(manifest_file)

    failures = ()
    sweep_status = "ok"
    export: Optional[SharedStreamExport] = None
    try:
        if to_run:
            if effective_jobs <= 1:
                if workload_cache is None:
                    workload_cache = WorkloadCache(config, stream_store=streams)
                for cell in to_run:
                    if telemetry is not None:
                        telemetry.cell_started(cell_label(cell))
                    start = _cell_clock(workload_cache)
                    result = _run_cell_on(workload_cache, cell)
                    record(cell, result)
                    if telemetry is not None:
                        timing = _cell_timing(workload_cache, start, result)
                        telemetry.cell_finished(cell_label(cell), "ok", timing=timing)
                if manifest is not None and streams is not None:
                    manifest.stream_store = {
                        "root": os.fspath(streams.root),
                        "shared_memory": False,
                        "hits": workload_cache.stream_hits,
                        "misses": workload_cache.stream_misses,
                    }
            else:
                # Warm fan-out: the parent compiles or loads every
                # workload exactly once; workers then load blobs from
                # the store, or attach zero-copy to shared memory.
                warm = streams is not None or use_shm
                store_root = os.fspath(streams.root) if streams is not None else None
                stream_manifest = None
                if warm:
                    if workload_cache is None:
                        workload_cache = WorkloadCache(config, stream_store=streams)
                    compile_start = time.perf_counter()
                    hits_start = workload_cache.stream_hits
                    misses_start = workload_cache.stream_misses
                    compiled = {}
                    for benchmark in dict.fromkeys(b for b, _ in to_run):
                        compiled[benchmark] = workload_cache.compiled(benchmark)
                    if use_shm:
                        export = SharedStreamExport.create(compiled)
                        stream_manifest = export.manifest()
                    if manifest is not None:
                        manifest.stream_store = {
                            "root": store_root,
                            "shared_memory": use_shm,
                            "hits": workload_cache.stream_hits - hits_start,
                            "misses": workload_cache.stream_misses - misses_start,
                            "compile_seconds": time.perf_counter() - compile_start,
                            "workloads": sorted(compiled),
                        }

                make_pool = make_cell_pool_factory(
                    config, min(effective_jobs, len(to_run)),
                    store_root, stream_manifest,
                )

                fallback_cache = workload_cache

                def serial_fallback(cell: Cell) -> RunResult:
                    nonlocal fallback_cache
                    if fallback_cache is None:
                        fallback_cache = WorkloadCache(config, stream_store=streams)
                    return _run_cell_on(fallback_cache, cell)

                # Registered in acquisition order; run_cells_supervised
                # drains them LIFO and tolerates a raising hook, so the
                # shm unlink runs even if an earlier-registered hook
                # breaks.
                cleanup_hooks = []
                if export is not None:
                    cleanup_hooks.append(export.close)

                failures = tuple(
                    run_cells_supervised(
                        make_pool,
                        _run_cell_supervised,
                        to_run,
                        policy,
                        on_success=record,
                        serial_fallback=serial_fallback if policy.degrade_serially else None,
                        on_event=telemetry.on_event if telemetry is not None else None,
                        cleanup=cleanup_hooks,
                    )
                )
                if failures:
                    sweep_status = "partial"
    except BaseException:
        sweep_status = "aborted"
        raise
    finally:
        if export is not None:
            export.close()  # idempotent; covers failures before supervision
        if telemetry is not None:
            telemetry.sweep_finished(sweep_status)
            if manifest is not None:
                manifest.finalize(sweep_status, finished_at=time.time())
                manifest.write(manifest_file)
            telemetry.close()

    return SingleThreadComparison(
        benchmarks=tuple(benchmarks),
        technique_keys=tuple(technique_keys),
        baseline=baseline,
        results=results,
        failures=failures,
    )
