"""Process-parallel, fault-tolerant experiment sweeps.

Every figure and table the harness regenerates is a list of independent
cells -- (workload or Table-IV mix, scheme) pairs, each replaying its
own LLC stream on its own cache -- reduced into a result object only at
reporting time (:mod:`repro.harness.experiments`).  :func:`_run_cell_on`
is the one function that runs a cell, through
:meth:`~repro.sim.system.SingleCoreSystem.run` or
:meth:`~repro.sim.multicore.MulticoreSystem.run`; :func:`run_cells` is
the one executor for a cell list, and :func:`sweep` the one driver
around it, which every figure function -- Figures 1, 4/5, 6, 7/8, 9
and 10, Table III, the pattern sweep -- and the CLI sweep
(:func:`parallel_single_thread_comparison`) call.  The experiment
service's scheduler dispatches through :func:`run_cells` too.

:func:`run_cells` runs the cells in-process for one worker or fans them
over a supervised :mod:`multiprocessing` pool for more, and for every
completed cell -- in-process, pooled, degraded to serial, or (through
:func:`_run_cell_timed`) on a fleet worker -- it builds the same timing
record: wall and CPU seconds, store hits and misses, replay kernel and
fallback reason.  Around it, :func:`sweep` adds:

* each completed cell is persisted to an optional
  :class:`~repro.harness.checkpoint.CheckpointStore` the moment it
  finishes, and ``resume=True`` reloads completed cells instead of
  re-running them (``REPRO_CHECKPOINT_DIR`` / ``--checkpoint-dir``);
  cells are content-addressed, so a figure reuses any cell another
  figure already stored (Figure 6's LRU baselines are Figure 4's);
* cells run under per-cell wall-clock deadlines, bounded retry with
  exponential backoff, a parent-side watchdog for workers that die
  without reporting, and graceful degradation to serial in-process
  execution -- see :mod:`repro.harness.faults` for the machinery and the
  :class:`~repro.harness.faults.CellTimeout` /
  :class:`~repro.harness.faults.CellCrashed` /
  :class:`~repro.harness.faults.SweepAborted` taxonomy;
* progress events and a run manifest with every cell's kernel and
  fallback reason (``REPRO_EVENTS_FILE`` / ``REPRO_MANIFEST``);
* with ``allow_partial=True`` an unrecoverable sweep still returns the
  cells that completed plus the failure report (a
  :class:`~repro.harness.experiments.SingleThreadComparison` carries
  it).

Determinism contract: a parallel sweep is bit-identical to the serial
one, whatever the job count, OS scheduling, retries, or resumes.  That
holds because every source of randomness is seeded per *task*, not per
process:

* workload generation draws from ``ExperimentConfig.seed`` and the
  workload name only (``build_trace(benchmark, ..., seed=config.seed)``;
  :func:`~repro.workloads.mixes.mix_cores` seeds a mix's core ``c`` at
  ``config.seed + c``), so each worker regenerates exactly the trace the
  serial run would use;
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
is repeated once per worker that draws a cell of that benchmark (or of
a mix it is a member of) -- the price of process isolation.  With the
store enabled (``REPRO_STREAM_CACHE`` / ``stream_cache=``) the parent
compiles or loads each workload and mix member exactly once and workers
take the warm path: they load the compiled blob from disk, or -- with
``REPRO_SHM`` / ``shared_memory=True`` -- attach zero-copy to
shared-memory segments the parent exported (see
:mod:`repro.sim.streamstore`).  The segments are torn down in the
supervision loop's cleanup hook, so crashed, timed-out, and aborted
sweeps cannot leak them.

The job count comes from, in priority order: the ``jobs`` argument, the
``REPRO_JOBS`` environment variable, default 1 (serial, in-process).
"""

from __future__ import annotations

import functools
import multiprocessing
import os
import time
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.analysis.accuracy import AccuracyObserver
from repro.analysis.efficiency import EfficiencyObserver
from repro.harness.checkpoint import CellResult, CheckpointStore
from repro.harness.faults import (
    Cell,
    CellError,
    FaultPolicy,
    cell_deadline,
    cell_label,
    DeadlineExceeded,
    WireResult,
    maybe_inject_fault,
    run_cells_supervised,
)
from repro.harness.runner import ExperimentConfig, WorkloadCache
from repro.harness.techniques import TECHNIQUES, Scheme, validate_techniques
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
from repro.utils.env import env_flag, env_number, env_text
from repro.workloads import SINGLE_THREAD_SUBSET, mix_cores

if TYPE_CHECKING:  # experiments builds on this module
    from repro.harness.experiments import SingleThreadComparison

__all__ = [
    "make_cell_pool_factory",
    "parallel_single_thread_comparison",
    "resolve_jobs",
    "run_cells",
    "sweep",
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
        return env_number("REPRO_JOBS", 1)
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
    workload cache to the store and/or shared-memory segments -- used by
    :func:`run_cells`.
    """
    context = multiprocessing.get_context("spawn")

    def make_pool():
        return context.Pool(
            processes=processes,
            initializer=_init_worker,
            initargs=(config, store_root, stream_manifest),
        )

    return make_pool


#: The analysis observer each non-default measure attaches.
_OBSERVERS = {"accuracy": (AccuracyObserver,), "efficiency": (EfficiencyObserver,)}


def _run_cell_on(cache: WorkloadCache, cell: Cell) -> CellResult:
    """Run one cell on the given workload cache.

    The scheme ``None`` is the LRU baseline cell.  A mix (a Table-IV or
    ``+``-joined name) runs on the shared LLC; any other workload runs
    single-core, with the measure's observer attached, and the observer's
    numbers copied into ``result.analysis`` -- after
    :meth:`EfficiencyObserver.finalize` for efficiency -- so they
    outlive the observer.  This is the single
    execution path every mode shares -- worker processes, the serial
    in-process sweep, the graceful-degradation fallback and fleet
    workers -- which is what keeps them bit-identical.
    """
    workload, scheme = cell
    if isinstance(scheme, Scheme):
        key, measure, build = scheme.technique, scheme.measure, scheme.build
    else:
        key = "lru" if scheme is _BASELINE else scheme
        measure, build = "run", TECHNIQUES[key].build
    name = key if scheme is _BASELINE else str(scheme)
    if mix_cores(workload, cache.config.seed) is not None:
        if measure != "run":
            raise ValueError(f"mix cell {cell_label(cell)}: only 'run' is measured")
        return cache.multicore.run(cache.prepared_mix(workload), build, name)
    filtered = cache.filtered(workload)
    result = cache.system.run(
        filtered,
        build,
        technique_name=name,
        observer_factories=_OBSERVERS.get(measure, ()),
        compute_timing=measure == "run" and TECHNIQUES[key].timing_meaningful,
    )
    if measure == "accuracy":
        observer = result.observers[0]
        result.analysis = {
            "coverage": observer.coverage,
            "false_positive_rate": observer.false_positive_rate,
        }
    elif measure == "efficiency":
        observer = result.observers[0]
        observer.finalize(result.cache, len(filtered.llc_indices))
        result.analysis = {
            "efficiency": observer.efficiency,
            "efficiency_matrix": observer.efficiency_matrix(),
        }
    return result


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
    cache: WorkloadCache, start: Tuple[float, float, int, int], result: CellResult
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
    if result.kernel is not None:
        timing["kernel"] = result.kernel
    if result.kernel_fallback is not None:
        timing["kernel_fallback"] = result.kernel_fallback
    return timing


def _run_cell(task: Cell) -> Tuple[str, object, CellResult]:
    """Run one cell in a worker process, unsupervised.

    Kept apart from :func:`_run_cell_supervised` because the benchmark
    harness (``perfbench/spans.py``) wraps this function, together with
    :func:`_init_worker`, to trace each pool worker per cell.  The
    result is stripped of its cache and observers before crossing the
    process boundary (policies hold unpicklable state; sweeps only read
    stats, timing, hit vectors and ``analysis``).
    """
    workload, scheme = task
    result = _run_cell_on(_WORKER_CACHE, task)
    if isinstance(result, RunResult):
        # The policy refers back to the cache, so the stripped cache
        # would be cyclic garbage that only a full collection frees.
        # Cut the policy (recency stacks, next-use lists, predictor
        # tables) loose now, and the cache goes by refcount.
        result.cache.policy = None
        result.cache = None
        result.observers = ()
    return workload, scheme, result


def _run_cell_supervised(
    task: Tuple[str, object, int, Optional[float]]
) -> WireResult:
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
            maybe_inject_fault((benchmark, technique_key), attempt)
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


def _run_cell_timed(
    cache: WorkloadCache, cell: Cell
) -> Tuple[CellResult, Dict[str, object]]:
    """Run one cell in this process and build its timing record: the
    in-process executor of :func:`run_cells` (whole sweeps and serial
    degradation alike) and of fleet workers."""
    start = _cell_clock(cache)
    result = _run_cell_on(cache, cell)
    return result, _cell_timing(cache, start, result)


def run_cells(
    cache: WorkloadCache,
    cells: Sequence[Cell],
    jobs: int,
    policy: FaultPolicy,
    on_success: Callable[[Cell, CellResult, Dict[str, object]], None],
    on_event: Optional[Callable[..., None]] = None,
    shared_memory: bool = False,
    on_streams: Optional[Callable[[Dict[str, object]], None]] = None,
) -> List[CellError]:
    """Execute ``cells``: the one cell dispatch path of every sweep.

    One worker (``min(jobs, len(cells))``) runs the cells in this
    process on ``cache``; more fan them over a supervised ``spawn``
    pool.  When ``cache`` has a workload store or ``shared_memory`` is
    set, the pool starts warm: each single-core workload and mix member
    is compiled or loaded once here, and workers load the store's blobs
    or attach zero-copy to a shared-memory export that the cleanup hooks
    tear down however supervision ends.

    Both modes run under :func:`~repro.harness.faults.run_cells_supervised`:
    a cell that raises in-process is a ``CellCrashed`` like a pooled
    one, and ``policy.allow_partial`` picks between returning the
    failures and raising ``SweepAborted``.  Every completed cell --
    in-process, pooled or degraded to serial -- reaches
    ``on_success(cell, result, timing)`` with its :func:`_cell_timing`
    record; ``on_event`` gets the supervision events and ``on_streams``
    the workload-store summary for the run manifest.  Returns the
    unrecovered failures.
    """
    workers = min(jobs, len(cells))
    streams = cache.stream_store
    root = os.fspath(streams.root) if streams is not None else None
    hits, misses = cache.stream_hits, cache.stream_misses

    def summary(shared: bool, **extra) -> Dict[str, object]:
        return {
            "root": root,
            "shared_memory": shared,
            "hits": cache.stream_hits - hits,
            "misses": cache.stream_misses - misses,
            **extra,
        }

    make_pool = None
    cleanup: List[Callable[[], None]] = []
    if workers > 1:
        stream_manifest = None
        if streams is not None or shared_memory:
            compile_start = time.perf_counter()
            seed = cache.config.seed
            members = dict.fromkeys(
                member
                for workload in dict.fromkeys(w for w, _ in cells)
                for member in mix_cores(workload, seed) or [(workload, seed)]
            )
            blobs = [cache.compiled(name, seed=member_seed) for name, member_seed in members]
            compiled = {blob.key: blob for blob in blobs}
            if shared_memory:
                export = SharedStreamExport.create(compiled)
                cleanup.append(export.close)
                stream_manifest = export.manifest()
            if on_streams is not None:
                on_streams(summary(
                    shared_memory,
                    compile_seconds=time.perf_counter() - compile_start,
                    workloads=sorted({benchmark for benchmark, _ in members}),
                ))
        make_pool = make_cell_pool_factory(
            cache.config, workers, root, stream_manifest
        )
    failures = run_cells_supervised(
        make_pool,
        _run_cell_supervised,
        cells,
        policy,
        on_success=on_success,
        in_process=functools.partial(_run_cell_timed, cache),
        on_event=on_event,
        cleanup=cleanup,
    )
    if make_pool is None and streams is not None and on_streams is not None:
        on_streams(summary(False))
    return failures


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
    (NDJSON sink path), ``REPRO_PROGRESS`` (on enables the stderr
    renderer), ``REPRO_MANIFEST`` (manifest path).  The manifest default
    places it next to the checkpoint store (``<store>/manifest.json``)
    when one is attached, or next to the events file otherwise; with no
    anchor at all, no manifest is written.  Returns ``(None, None,
    None)`` when nothing is enabled, so sweeps without observability pay
    nothing.
    """
    if events_file is None:
        events_file = env_text("REPRO_EVENTS_FILE")
    if progress is None:
        progress = env_flag("REPRO_PROGRESS")
    if manifest_path is None:
        manifest_path = env_text("REPRO_MANIFEST")
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


def sweep(
    cache: Union[WorkloadCache, ExperimentConfig],
    cells: Sequence[Cell],
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
) -> Tuple[Dict[Cell, CellResult], Tuple[CellError, ...]]:
    """Run a figure's cells: the one driver behind every figure function.

    Validates every cell's technique, resumes checkpointed cells, runs
    the rest through :func:`run_cells` with progress events and a run
    manifest, and checkpoints each completed cell.

    Args:
        cache: a :class:`WorkloadCache` to use (and to run serially in
            when ``jobs == 1``), or an :class:`ExperimentConfig` from
            which each worker builds its own cache.
        cells: the (workload, scheme) cells to run, in order.
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
            partial sweep returns the completed cells and the failures
            instead of raising :class:`~repro.harness.faults.SweepAborted`.
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
        command: label recorded in the manifest ("run", "suite",
            "figure6", ...).
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

    Returns ``(results, failures)``: every completed cell's result --
    bit-identical whatever the job count, retries and resumes -- and
    the unrecovered failures (empty unless partial results are allowed).

    Raises:
        ValueError: for unknown technique keys (checked up front, before
            any work runs or any pool spawns).
        SweepAborted: when cells fail unrecoverably and partial results
            are not allowed.
    """
    techniques = dict.fromkeys(
        scheme.technique if isinstance(scheme, Scheme) else scheme
        for _, scheme in cells
        if scheme is not _BASELINE
    )
    bad_techniques = validate_techniques(techniques)
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
    if workload_cache is None:
        workload_cache = WorkloadCache(config, stream_store=streams)
    elif workload_cache.stream_store is None:
        workload_cache.stream_store = streams

    results: Dict[Cell, CellResult] = {}

    def record(cell: Cell, result: CellResult, timing: Dict[str, object]) -> None:
        results[cell] = result
        if store is not None:
            store.store(config, *cell, result)

    # Resume: completed cells come off disk, not off the machine.
    to_run: List[Cell] = []
    resumed: List[Cell] = []
    for cell in cells:
        loaded = store.load(config, *cell) if (resume and store) else None
        if loaded is not None:
            results[cell] = loaded
            resumed.append(cell)
        else:
            to_run.append(cell)

    workloads = list(dict.fromkeys(workload for workload, _ in cells))
    schemes = [str(scheme) for scheme in dict.fromkeys(
        scheme for _, scheme in cells if scheme is not _BASELINE
    )]
    effective_jobs = min(resolve_jobs(jobs), len(to_run)) if to_run else 1
    telemetry, manifest, manifest_file = _sweep_telemetry(
        events_file, progress, manifest_path, store, command, config,
        schemes, workloads, effective_jobs,
    )
    if telemetry is not None:
        telemetry.sweep_started(len(cells), workloads, schemes, effective_jobs)
        for cell in resumed:
            telemetry.cell_resumed(cell_label(cell))
        if manifest is not None:
            manifest.write(manifest_file)

    def on_streams(summary: Dict[str, object]) -> None:
        if manifest is not None:
            manifest.stream_store = summary

    failures = ()
    sweep_status = "ok"
    try:
        if to_run:
            failures = tuple(
                run_cells(
                    workload_cache,
                    to_run,
                    effective_jobs,
                    policy,
                    on_success=record,
                    on_event=telemetry.on_event if telemetry is not None else None,
                    shared_memory=use_shm,
                    on_streams=on_streams,
                )
            )
            if failures:
                sweep_status = "partial"
    except BaseException:
        sweep_status = "aborted"
        raise
    finally:
        if telemetry is not None:
            telemetry.sweep_finished(sweep_status)
            if manifest is not None:
                manifest.finalize(sweep_status, finished_at=time.time())
                manifest.write(manifest_file)
            telemetry.close()
    return results, failures


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
) -> "SingleThreadComparison":
    """Figure 4/5/7/8 sweep: every benchmark under the LRU baseline and
    each technique, through :func:`sweep`.

    ``technique_keys`` are the techniques to sweep (the baseline LRU
    always runs) and ``benchmarks`` the workloads; every other argument
    is :func:`sweep`'s.  With ``allow_partial`` a sweep whose cells fail
    unrecoverably returns the completed cells with
    ``comparison.failures`` describing the rest.

    :func:`~repro.harness.experiments.single_thread_comparison` is this
    function with every knob left to the environment, so both return
    the same :class:`SingleThreadComparison` bit-identically --
    including after resumes and retries.
    """
    from repro.harness.experiments import SingleThreadComparison, comparison_cells

    results, failures = sweep(
        cache,
        comparison_cells(benchmarks, technique_keys),
        jobs=jobs,
        checkpoint=checkpoint,
        resume=resume,
        fault_policy=fault_policy,
        allow_partial=allow_partial,
        events_file=events_file,
        progress=progress,
        manifest_path=manifest_path,
        command=command,
        stream_cache=stream_cache,
        shared_memory=shared_memory,
    )
    return SingleThreadComparison.from_cells(
        benchmarks, technique_keys, results, failures
    )
