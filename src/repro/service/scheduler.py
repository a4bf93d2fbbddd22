"""Deduplicating scheduler: the dispatcher between jobs and the harness.

The scheduler owns three things:

* the **bounded priority queue** of cells awaiting execution.  Depth is
  counted in cells; an admission that would overflow it raises
  :class:`~repro.service.jobs.QueueFull`, which the HTTP layer turns
  into ``429`` backpressure.  Queued cells are ordered by ``(priority,
  fair-share, submission seq)`` where fair-share is a per-client
  served-cell counter -- a client that has had many cells dispatched
  yields to one that has had few, so a bulk submitter cannot starve
  small interactive jobs of equal priority.
* the **dedup registry**.  Every cell is content-addressed (the
  checkpoint key scheme); before enqueueing, a submission is checked
  against (1) the checkpoint store -- the cell may already be computed,
  by anyone, ever -- and (2) the in-flight registry -- the cell may
  already be queued or running for another job, in which case the new
  job simply attaches to it.  Either way the cell costs nothing extra;
  both kinds of hit are counted and surfaced in ``GET /v1/stats``.
* the **dispatcher**: a daemon thread that drains the queue in batches
  (all queued cells sharing one :class:`ExperimentConfig`) into
  :func:`repro.harness.parallel.run_cells`, the cell executor a CLI
  sweep calls too: in-process for one worker, else the same ``spawn``
  pools, per-cell deadlines, retries, watchdog, graceful serial
  degradation and warm workload fan-out (each workload compiled once
  per batch, so concurrent jobs over one benchmark never recompile).
  What stays here is per-entry bookkeeping: checkpointing each result,
  settling its jobs with the executor's timing record, and the kernel
  counters of ``GET /v1/stats``.

Because cells execute through the identical function as a CLI sweep
and results are persisted in the identical checkpoint store, a sweep
served through the service is bit-identical to the CLI one -- pinned by
``tests/test_service_http.py`` and ``make serve-smoke``.

Graceful drain: :meth:`ExperimentScheduler.drain` stops the dispatcher
from starting new batches, waits for the running batch (every completed
cell of which is already checkpointed), and persists job states.  A
scheduler constructed over the same job store resumes: terminal jobs
are served read-only, non-terminal jobs re-admit -- their finished
cells come back as checkpoint dedup hits, so no work repeats.

Fleet mode (``fleet=True``) replaces the local dispatcher with the
lease-based worker-fleet protocol of :mod:`repro.service.fleet`:
queued cells are checked out to registered ``repro worker`` processes
under time-bounded leases, expired leases re-dispatch, and duplicate
completions are dropped idempotently (see docs/service.md).  The
queue, dedup registry, fair-share ordering, and job settlement are
shared between the two modes -- `fleet_checkout` / `fleet_complete` /
`fleet_fail` / `fleet_requeue` below are the fleet's entry points into
the same state machine `_dispatch_loop` drives locally.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import replace
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

from repro.harness.checkpoint import CheckpointStore
from repro.harness.experiments import SingleThreadComparison, comparison_cells
from repro.harness.export import to_dict
from repro.harness.faults import FaultPolicy, cell_label
from repro.harness.parallel import resolve_jobs, run_cells
from repro.harness.runner import ExperimentConfig, WorkloadCache
from repro.harness.techniques import validate_techniques
from repro.sim.streamstore import StreamStore, shared_memory_enabled
from repro.sim.system import RunResult
from repro.telemetry.events import SweepTelemetry
from repro.service.jobs import (
    Cell,
    Job,
    JobStore,
    QueueFull,
    cell_key,
)
from repro.workloads import SINGLE_THREAD_SUBSET, validate_workloads

__all__ = ["ExperimentScheduler"]


class _EventBuffer:
    """Per-job event sink: a `SweepTelemetry` sink appending to a list.

    Mutation always happens under the scheduler lock (RLock, so emits
    from paths already holding it are fine); readers copy slices out
    under the same lock.
    """

    def __init__(self, lock: threading.RLock) -> None:
        self._lock = lock
        self.events: List[Dict] = []

    def emit(self, event: Dict) -> None:
        with self._lock:
            self.events.append(dict(event))


class _CellEntry:
    """One in-flight content-addressed cell and the jobs attached to it."""

    __slots__ = (
        "key", "config", "benchmark", "technique", "state",
        "jobs", "priority", "client", "seq", "detail", "timing",
        "dispatches",
    )

    def __init__(
        self,
        key: str,
        config: ExperimentConfig,
        benchmark: str,
        technique: Optional[str],
        priority: int,
        client: str,
        seq: int,
    ) -> None:
        self.key = key
        self.config = config
        self.benchmark = benchmark
        self.technique = technique
        self.state = "queued"  # queued | running | done | failed
        self.jobs: Set[str] = set()
        self.priority = priority
        self.client = client
        self.seq = seq
        self.detail = ""
        self.timing: Optional[Dict[str, object]] = None
        self.dispatches = 0  # executions started (fleet: lease grants)

    @property
    def cell(self) -> Cell:
        return (self.benchmark, self.technique)

    @property
    def label(self) -> str:
        return cell_label(self.cell)


class ExperimentScheduler:
    """Bounded, fair-share, deduplicating dispatcher over the harness.

    Args:
        job_store: a :class:`~repro.service.jobs.JobStore` or a root
            directory for one.  Results always live in a
            :class:`~repro.harness.checkpoint.CheckpointStore`; by
            default it is rooted at ``<job_store>/checkpoints`` so the
            service's dedup and a CLI sweep pointed at the same
            directory see each other's results.
        checkpoint: override the checkpoint store (store instance or
            path).
        stream_cache: compiled workload store (instance, path, or None
            to defer to ``REPRO_STREAM_CACHE``).
        shared_memory: fan compiled workloads to workers via shared
            memory (None defers to ``REPRO_SHM``).
        jobs: worker processes per batch (None defers to
            ``REPRO_JOBS``).
        queue_depth: maximum queued cells before submissions bounce
            with :class:`~repro.service.jobs.QueueFull`.
        fault_policy: supervision knobs (None defers to the
            ``REPRO_CELL_*`` environment).  ``allow_partial`` is forced
            on -- a failed cell fails its jobs, never the whole server.
        start: start the dispatcher thread immediately (tests that only
            exercise admission pass False).
    """

    def __init__(
        self,
        job_store: Union[JobStore, str, os.PathLike],
        checkpoint: Union[CheckpointStore, str, os.PathLike, None] = None,
        stream_cache: Union[StreamStore, str, os.PathLike, None] = None,
        shared_memory: Optional[bool] = None,
        jobs: Optional[int] = None,
        queue_depth: int = 256,
        fault_policy: Optional[FaultPolicy] = None,
        start: bool = True,
        fleet: bool = False,
        lease_ttl: Optional[float] = None,
        heartbeat_seconds: Optional[float] = None,
        lease_cells: Optional[int] = None,
    ) -> None:
        self.job_store = (
            job_store if isinstance(job_store, JobStore) else JobStore(job_store)
        )
        if isinstance(checkpoint, CheckpointStore):
            self.checkpoint = checkpoint
        elif checkpoint is not None:
            self.checkpoint = CheckpointStore(checkpoint)
        else:
            self.checkpoint = CheckpointStore(self.job_store.root / "checkpoints")
        if isinstance(stream_cache, StreamStore):
            self.stream_store: Optional[StreamStore] = stream_cache
        else:
            self.stream_store = StreamStore.from_env(stream_cache)
        self.shared_memory = shared_memory_enabled(shared_memory)
        self.worker_count = resolve_jobs(jobs)
        self.queue_depth = int(queue_depth)
        if self.queue_depth < 1:
            raise ValueError(f"queue_depth must be positive, got {queue_depth}")
        base_policy = fault_policy if fault_policy is not None else FaultPolicy.from_env()
        self.fault_policy = replace(base_policy, allow_partial=True)

        self._lock = threading.RLock()
        self._wakeup = threading.Condition(self._lock)
        self._jobs: Dict[str, Job] = {}
        self._cells: Dict[str, _CellEntry] = {}  # key -> entry (queued/running)
        self._queue: List[str] = []  # queued cell keys (unordered; picked by sort)
        self._job_pending: Dict[str, Set[str]] = {}
        self._job_failed: Dict[str, Dict[str, str]] = {}
        self._events: Dict[str, _EventBuffer] = {}
        self._telemetry: Dict[str, SweepTelemetry] = {}
        self._served: Dict[str, int] = {}  # client -> cells dispatched (fair share)
        self._seq = 0
        self._running_batch = 0  # cells in the batch being executed
        self._draining = False
        self._closed = False
        self._started_at = time.time()
        self.counters = {
            "submitted_jobs": 0,
            "submitted_cells": 0,
            "executed_cells": 0,
            "failed_cells": 0,
            "dedup_checkpoint_hits": 0,
            "dedup_inflight_hits": 0,
            "stream_hits": 0,
            "stream_misses": 0,
            "kernel_array_cells": 0,
            "kernel_object_cells": 0,
        }
        #: Per-reason tally of array-kernel fallbacks across all cells.
        self.kernel_fallbacks: Dict[str, int] = {}

        self._resume_from_store()
        self._dispatcher = threading.Thread(
            target=self._dispatch_loop, name="repro-service-dispatch", daemon=True
        )
        #: The fleet coordinator in fleet mode, else None.  In fleet
        #: mode cells execute on remote `repro worker` processes under
        #: time-bounded leases, so the local dispatcher thread never
        #: starts -- the coordinator's monitor thread replaces it.
        self.fleet = None
        if fleet:
            from repro.service.fleet import FleetCoordinator

            self.fleet = FleetCoordinator(
                self,
                lease_ttl=lease_ttl,
                heartbeat_seconds=heartbeat_seconds,
                lease_cells=lease_cells,
                start=start,
            )
        elif start:
            self._dispatcher.start()

    # ------------------------------------------------------------------
    # admission
    # ------------------------------------------------------------------
    def submit(
        self,
        config: ExperimentConfig,
        benchmarks: Sequence[str],
        techniques: Sequence[str],
        sweep: bool = False,
        client: str = "anonymous",
        priority: int = 0,
    ) -> Job:
        """Admit one submission; returns the (persisted) job.

        A *sweep* expands server-side into the full cell grid -- every
        benchmark's LRU baseline plus one cell per (benchmark,
        technique) -- the exact grid a CLI sweep runs.  A non-sweep
        submission must name exactly one benchmark and one technique
        and runs that single cell (techniques may name ``"lru"``'s
        baseline via an empty technique list).

        Raises:
            ValueError: unknown benchmark/technique, or bad shapes.
            QueueFull: admitting would overflow the bounded queue.
            RuntimeError: the scheduler is draining or closed.
        """
        benchmarks = list(benchmarks)
        techniques = list(techniques)
        # Spec-aware validation: suite names, pattern specs ("zipf(a=1.2)"),
        # and trace replays all resolve here; anything else 400s with a
        # closest-match suggestion (the server maps ValueError -> 400).
        bad = validate_workloads(benchmarks)
        if bad:
            raise ValueError("; ".join(bad))
        bad = validate_techniques(techniques)
        if bad:
            raise ValueError("; ".join(bad))
        if sweep:
            if not benchmarks:
                benchmarks = list(SINGLE_THREAD_SUBSET)
            cells: List[Cell] = comparison_cells(benchmarks, techniques)
            kind = "sweep"
        else:
            if len(benchmarks) != 1 or len(techniques) > 1:
                raise ValueError(
                    "a cell submission names exactly one benchmark and at "
                    "most one technique; set sweep=true for grids"
                )
            technique = techniques[0] if techniques else None
            cells = [(benchmarks[0], technique)]
            techniques = [technique] if technique is not None else []
            kind = "cell"

        with self._lock:
            if self._draining or self._closed:
                raise RuntimeError("scheduler is draining; not accepting jobs")
            self._seq += 1
            job = Job.new(
                kind=kind, client=client, priority=int(priority), config=config,
                benchmarks=benchmarks, techniques=techniques, cells=cells,
                seq=self._seq,
            )
            # Backpressure check before any state changes: count the
            # cells this job would newly enqueue.
            new_cells = 0
            for cell in cells:
                key = cell_key(config, *cell)
                entry = self._cells.get(key)
                if entry is not None and entry.state in ("queued", "running"):
                    continue
                if self.checkpoint.load(config, *cell) is not None:
                    continue
                new_cells += 1
            if len(self._queue) + new_cells > self.queue_depth:
                raise QueueFull(
                    f"queue at capacity ({len(self._queue)}/{self.queue_depth} "
                    f"cells queued, submission needs {new_cells} more)"
                )
            self.counters["submitted_jobs"] += 1
            self.counters["submitted_cells"] += len(cells)
            self._admit(job)
            self._wakeup.notify_all()
        return job

    def _admit(self, job: Job) -> None:
        """Attach a job's cells to the registry (lock held).

        Shared by :meth:`submit` and restart resume.  Dedup layers, in
        order: in-flight registry (queued/running/done-this-life), then
        the checkpoint store; only a cell missing from both enqueues.
        """
        self._jobs[job.id] = job
        buffer = _EventBuffer(self._lock)
        self._events[job.id] = buffer
        telemetry = SweepTelemetry(sinks=[buffer])
        self._telemetry[job.id] = telemetry
        pending: Set[str] = set()
        telemetry.sweep_started(
            len(job.cells), list(job.benchmarks), list(job.techniques),
            self.worker_count,
        )
        for cell in job.cells:
            key = cell_key(job.config, *cell)
            entry = self._cells.get(key)
            if entry is not None and entry.state in ("queued", "running"):
                # Someone else is already computing this cell: attach.
                entry.jobs.add(job.id)
                entry.priority = min(entry.priority, job.priority)
                pending.add(key)
                job.dedup_cells += 1
                self.counters["dedup_inflight_hits"] += 1
                continue
            if entry is not None and entry.state == "done":
                job.dedup_cells += 1
                self.counters["dedup_checkpoint_hits"] += 1
                telemetry.cell_resumed(cell_label(cell))
                continue
            if self.checkpoint.load(job.config, *cell) is not None:
                job.dedup_cells += 1
                self.counters["dedup_checkpoint_hits"] += 1
                telemetry.cell_resumed(cell_label(cell))
                continue
            # Cold (or previously failed) cell: (re-)enqueue it.
            entry = _CellEntry(
                key, job.config, cell[0], cell[1],
                job.priority, job.client, job.seq,
            )
            entry.jobs.add(job.id)
            self._cells[key] = entry
            self._queue.append(key)
            pending.add(key)
        self._job_pending[job.id] = pending
        self._job_failed[job.id] = {}
        if not pending:
            job.transition("done")
            telemetry.sweep_finished("ok")
        self.job_store.save(job, progress=self._progress(job))

    def _resume_from_store(self) -> None:
        """Re-admit persisted non-terminal jobs (constructor path)."""
        for job in self.job_store.resume():
            if job.is_terminal:
                self._jobs[job.id] = job
                self._events[job.id] = _EventBuffer(self._lock)
                self._job_pending[job.id] = set()
                self._job_failed[job.id] = {}
                continue
            self._seq = max(self._seq, job.seq)
            self._admit(job)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def get(self, job_id: str) -> Optional[Job]:
        with self._lock:
            return self._jobs.get(job_id)

    def list_jobs(self) -> List[Job]:
        with self._lock:
            return sorted(self._jobs.values(), key=lambda j: (j.seq, j.id))

    def job_dict(self, job: Job) -> Dict:
        with self._lock:
            return job.to_dict(progress=self._progress(job))

    def _progress(self, job: Job) -> Dict[str, int]:
        pending = self._job_pending.get(job.id, set())
        failed = self._job_failed.get(job.id, {})
        total = len(job.cells)
        return {
            "total": total,
            "done": total - len(pending) - len(failed),
            "failed": len(failed),
            "pending": len(pending),
        }

    def events_since(self, job_id: str, start: int = 0) -> Tuple[List[Dict], bool]:
        """Events ``start:`` for a job plus whether the job is terminal
        (no further events will ever arrive)."""
        with self._lock:
            job = self._jobs.get(job_id)
            if job is None:
                raise KeyError(job_id)
            buffer = self._events.get(job_id)
            events = list(buffer.events[start:]) if buffer is not None else []
            return events, job.is_terminal

    def result(self, job_id: str) -> Dict:
        """The result body for a *done* job.

        Cell jobs return the run's stats; sweep jobs return the full
        :func:`repro.harness.export.to_dict` comparison -- byte-for-byte
        what ``export_json`` of the equivalent CLI sweep produces.

        Raises KeyError for unknown jobs and RuntimeError for jobs not
        in ``done`` (the HTTP layer maps these to 404 / 409).
        """
        with self._lock:
            job = self._jobs.get(job_id)
            if job is None:
                raise KeyError(job_id)
            if job.state != "done":
                raise RuntimeError(f"job {job_id} is {job.state}, not done")
        if job.kind == "cell":
            benchmark, technique = job.cells[0]
            run = self.checkpoint.load(job.config, benchmark, technique)
            if run is None:
                raise RuntimeError(
                    f"job {job_id} is done but its checkpoint is missing "
                    "(store cleared underneath the service?)"
                )
            return _run_to_dict(run, benchmark, technique)
        runs = {}
        for cell in job.cells:
            runs[cell] = self.checkpoint.load(job.config, *cell)
            if runs[cell] is None:
                raise RuntimeError(
                    f"job {job.id}: checkpoint for {cell_label(cell)} is missing"
                )
        return to_dict(
            SingleThreadComparison.from_cells(job.benchmarks, job.techniques, runs)
        )

    def stats(self) -> Dict:
        """The ``GET /v1/stats`` body."""
        with self._lock:
            states: Dict[str, int] = {state: 0 for state in
                                      ("queued", "running", "done", "failed",
                                       "cancelled")}
            for job in self._jobs.values():
                states[job.state] += 1
            hits = (self.counters["dedup_checkpoint_hits"]
                    + self.counters["dedup_inflight_hits"])
            submitted = self.counters["submitted_cells"]
            busy = min(self._running_batch, self.worker_count)
            return {
                "uptime_seconds": round(time.time() - self._started_at, 3),
                "draining": self._draining,
                "queue": {
                    "depth": len(self._queue),
                    "limit": self.queue_depth,
                    "running_batch": self._running_batch,
                },
                "jobs": states,
                "cells": {
                    "submitted": submitted,
                    "executed": self.counters["executed_cells"],
                    "failed": self.counters["failed_cells"],
                },
                "dedup": {
                    "checkpoint_hits": self.counters["dedup_checkpoint_hits"],
                    "inflight_hits": self.counters["dedup_inflight_hits"],
                    "hit_rate": round(hits / submitted, 6) if submitted else 0.0,
                },
                "workers": {
                    "count": self.worker_count,
                    "busy": busy,
                    "utilization": round(busy / self.worker_count, 6),
                },
                "stream_store": {
                    "enabled": self.stream_store is not None,
                    "shared_memory": self.shared_memory,
                    "hits": self.counters["stream_hits"],
                    "misses": self.counters["stream_misses"],
                },
                "replay_kernel": {
                    "array_cells": self.counters["kernel_array_cells"],
                    "object_cells": self.counters["kernel_object_cells"],
                    "fallbacks": dict(self.kernel_fallbacks),
                },
                **(
                    {"fleet": self.fleet.stats()}
                    if self.fleet is not None else {}
                ),
            }

    # ------------------------------------------------------------------
    # cancellation
    # ------------------------------------------------------------------
    def cancel(self, job_id: str) -> Job:
        """Cancel a job: queued cells it alone wanted leave the queue;
        cells other jobs share (or that are mid-execution) keep running
        and their results still checkpoint.  Terminal jobs are a no-op.

        Raises KeyError for unknown jobs.
        """
        with self._lock:
            job = self._jobs.get(job_id)
            if job is None:
                raise KeyError(job_id)
            if job.is_terminal:
                return job
            for key in list(self._job_pending.get(job_id, ())):
                entry = self._cells.get(key)
                if entry is None:
                    continue
                entry.jobs.discard(job_id)
                if not entry.jobs and entry.state == "queued":
                    self._queue.remove(key)
                    del self._cells[key]
            self._job_pending[job_id] = set()
            job.transition("cancelled")
            telemetry = self._telemetry.get(job_id)
            if telemetry is not None:
                telemetry.sweep_finished("cancelled")
            self.job_store.save(job, progress=self._progress(job))
            return job

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------
    def _pick_batch(
        self, limit: Optional[int] = None
    ) -> Tuple[Optional[ExperimentConfig], List[_CellEntry]]:
        """The next batch: queued cells sharing the best cell's config,
        in fair-share order, at most ``limit`` of them (lock held)."""
        if not self._queue:
            return None, []

        def sort_key(key: str):
            entry = self._cells[key]
            return (entry.priority, self._served.get(entry.client, 0), entry.seq)

        best = self._cells[min(self._queue, key=sort_key)]
        batch = [
            self._cells[key]
            for key in self._queue
            if self._cells[key].config == best.config
        ]
        batch.sort(key=lambda e: sort_key(e.key))
        if limit is not None:
            batch = batch[:limit]
        for entry in batch:
            self._queue.remove(entry.key)
            entry.state = "running"
            entry.dispatches += 1
            self._served[entry.client] = self._served.get(entry.client, 0) + 1
            for job_id in entry.jobs:
                job = self._jobs[job_id]
                if job.state == "queued":
                    job.transition("running")
                    self.job_store.save(job, progress=self._progress(job))
        return best.config, batch

    def _dispatch_loop(self) -> None:
        while True:
            with self._lock:
                while not self._queue and not self._draining:
                    self._wakeup.wait(timeout=0.5)
                    if self._closed:
                        return
                if self._draining:
                    # Drain means: never *start* a batch.  Whatever is
                    # still queued stays queued (and persisted) for the
                    # next server life to resume.
                    self._wakeup.notify_all()
                    return
                config, batch = self._pick_batch()
                self._running_batch = len(batch)
            try:
                if batch:
                    self._execute_batch(config, batch)
            except Exception as exc:  # defensive: dispatcher must survive
                with self._lock:
                    for entry in batch:
                        if entry.state == "running":
                            self._finish_cell(
                                entry, "failed",
                                detail=f"batch execution failed: "
                                       f"{type(exc).__name__}: {exc}",
                            )
            finally:
                with self._lock:
                    self._running_batch = 0
                    self._wakeup.notify_all()

    def _execute_batch(
        self, config: ExperimentConfig, batch: List[_CellEntry]
    ) -> None:
        """Run one batch through the harness's cell executor
        (dispatcher thread)."""
        by_cell = {entry.cell: entry for entry in batch}
        by_label = {entry.label: entry for entry in batch}
        cache = WorkloadCache(config, stream_store=self.stream_store)

        def record(cell: Cell, result: RunResult, timing: Dict[str, object]) -> None:
            entry = by_cell[cell]
            self.checkpoint.store(config, cell[0], cell[1], result)
            with self._lock:
                entry.timing = timing
                self._count_kernel(result)
                self._finish_cell(entry, "done")

        def on_event(kind: str, label: str, **payload) -> None:
            # Finishes reach the jobs through _finish_cell, which settles
            # them; starts, retries and timeouts are forwarded here.
            entry = by_label.get(label)
            if entry is None or kind not in ("started", "retried", "timed_out"):
                return
            with self._lock:
                for job_id in entry.jobs:
                    telemetry = self._telemetry.get(job_id)
                    if telemetry is not None:
                        telemetry.on_event(kind, label, **payload)

        failures = run_cells(
            cache,
            list(by_cell),
            self.worker_count,
            self.fault_policy,
            on_success=record,
            on_event=on_event,
            shared_memory=self.shared_memory,
        )
        with self._lock:
            for failure in failures:
                entry = by_cell.get(failure.cell)
                if entry is not None and entry.state == "running":
                    self._finish_cell(entry, "failed", detail=str(failure))
            self.counters["stream_hits"] += cache.stream_hits
            self.counters["stream_misses"] += cache.stream_misses

    def _count_kernel(self, result: RunResult) -> None:
        """Tally a completed cell's replay kernel and fallback (lock held)."""
        kernel = getattr(result, "kernel", None)
        fallback = getattr(result, "kernel_fallback", None)
        if kernel == "array":
            self.counters["kernel_array_cells"] += 1
        elif kernel is not None:
            self.counters["kernel_object_cells"] += 1
            if fallback is not None:
                self.kernel_fallbacks[fallback] = (
                    self.kernel_fallbacks.get(fallback, 0) + 1
                )

    def _finish_cell(
        self, entry: _CellEntry, state: str, detail: str = ""
    ) -> None:
        """Mark a cell terminal and settle every attached job (lock held)."""
        entry.state = state
        entry.detail = detail
        if state == "done":
            self.counters["executed_cells"] += 1
        else:
            self.counters["failed_cells"] += 1
        status = "ok" if state == "done" else "failed"
        for job_id in sorted(entry.jobs):
            job = self._jobs.get(job_id)
            if job is None or job.is_terminal:
                continue
            pending = self._job_pending.get(job_id, set())
            pending.discard(entry.key)
            if state == "failed":
                self._job_failed.setdefault(job_id, {})[entry.key] = (
                    f"{entry.label}: {detail}"
                )
            telemetry = self._telemetry.get(job_id)
            if telemetry is not None:
                telemetry.cell_finished(entry.label, status, timing=entry.timing)
            if not pending:
                failed = self._job_failed.get(job_id, {})
                if failed:
                    job.error = "; ".join(failed.values())
                    job.transition("failed")
                    if telemetry is not None:
                        telemetry.sweep_finished("failed")
                else:
                    job.transition("done")
                    if telemetry is not None:
                        telemetry.sweep_finished("ok")
            self.job_store.save(job, progress=self._progress(job))
        # The registry keeps done/failed entries so later submissions
        # dedup against them in-memory; they are cheap (no results).

    # ------------------------------------------------------------------
    # fleet integration (called by repro.service.fleet)
    # ------------------------------------------------------------------
    def fleet_checkout(
        self, max_cells: Optional[int] = None
    ) -> Tuple[Optional[ExperimentConfig], List[_CellEntry]]:
        """Check out up to ``max_cells`` queued cells for a lease.

        Same selection as the local dispatcher (`_pick_batch`): fair-share
        order within the best cell's config.  Checked-out cells are
        ``running`` with ``dispatches`` bumped -- the per-cell attempt
        number the chaos harness draws against.
        """
        with self._lock:
            config, batch = self._pick_batch(limit=max_cells)
            for entry in batch:
                for job_id in entry.jobs:
                    telemetry = self._telemetry.get(job_id)
                    if telemetry is not None:
                        telemetry.cell_started(entry.label)
            return config, batch

    def fleet_requeue(self, keys: Sequence[str], reason: str = "") -> int:
        """Return running cells to the queue (lease expiry, worker loss,
        graceful deregistration).  Returns how many actually requeued;
        cells already settled by a racing completion stay settled."""
        requeued = 0
        with self._lock:
            for key in keys:
                entry = self._cells.get(key)
                if entry is None or entry.state != "running":
                    continue
                entry.state = "queued"
                self._queue.append(key)
                requeued += 1
                for job_id in entry.jobs:
                    telemetry = self._telemetry.get(job_id)
                    if telemetry is not None:
                        telemetry.cell_retried(
                            entry.label, reason, entry.dispatches + 1
                        )
            if requeued:
                self._wakeup.notify_all()
        return requeued

    def fleet_complete(
        self,
        key: str,
        result: RunResult,
        timing: Optional[Dict[str, object]] = None,
    ) -> str:
        """Settle one leased cell with a worker's result.

        Outcomes: ``accepted`` (first completion), ``late`` (the cell
        had expired back to the queue -- or even terminally failed --
        before the original worker finished; the result is still taken,
        because it is bit-identical to any other execution's),
        ``duplicate`` (already done: the result is dropped), or
        ``unknown`` (no such cell in the registry).  At-least-once
        dispatch is safe precisely because this settlement is
        idempotent: the checkpoint store is content-addressed and every
        execution of a cell produces identical bytes.
        """
        with self._lock:
            entry = self._cells.get(key)
            if entry is None:
                return "unknown"
            if entry.state == "done":
                return "duplicate"
            config = entry.config
        # Checkpoint outside the lock: a disk write must not stall
        # admission or heartbeats.
        self.checkpoint.store(config, entry.benchmark, entry.technique, result)
        with self._lock:
            if entry.state == "done":
                return "duplicate"
            if entry.state == "failed":
                # The scheduler gave up on the cell before this result
                # arrived; jobs already settled, but the checkpoint now
                # exists, so future submissions dedup against it.
                return "late"
            late = entry.state == "queued"
            if late:
                try:
                    self._queue.remove(key)
                except ValueError:
                    pass
            entry.timing = timing
            self._count_kernel(result)
            self._finish_cell(entry, "done")
            return "late" if late else "accepted"

    def fleet_fail(self, key: str, detail: str) -> str:
        """Record a worker-reported cell failure: requeue while dispatch
        attempts remain (``max_retries`` + the first), else fail the
        cell and its jobs.  Returns ``requeued``, ``failed``, or
        ``unknown``."""
        max_dispatches = self.fault_policy.max_retries + 1
        with self._lock:
            entry = self._cells.get(key)
            if entry is None or entry.state != "running":
                return "unknown"
            if entry.dispatches < max_dispatches:
                entry.state = "queued"
                self._queue.append(key)
                for job_id in entry.jobs:
                    telemetry = self._telemetry.get(job_id)
                    if telemetry is not None:
                        telemetry.cell_retried(
                            entry.label, detail, entry.dispatches + 1
                        )
                self._wakeup.notify_all()
                return "requeued"
            self._finish_cell(entry, "failed", detail=detail)
            return "failed"

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def drain(self, timeout: Optional[float] = None) -> bool:
        """Graceful shutdown: refuse new jobs, let the running batch
        finish (each completed cell is already checkpointed), persist
        job states, stop the dispatcher.  Returns True when the
        dispatcher stopped within ``timeout``."""
        with self._lock:
            self._draining = True
            self._wakeup.notify_all()
        if self.fleet is not None:
            # Fleet mode: stop granting leases, give in-flight leases a
            # chance to complete (their results checkpoint); whatever
            # remains leased stays journaled for the next server life.
            self.fleet.drain(timeout=timeout)
        if self._dispatcher.is_alive():
            self._dispatcher.join(timeout=timeout)
        stopped = not self._dispatcher.is_alive()
        with self._lock:
            for job in self._jobs.values():
                self.job_store.save(job, progress=self._progress(job))
        return stopped

    def close(self, timeout: Optional[float] = 30.0) -> None:
        self.drain(timeout=timeout)
        if self.fleet is not None:
            self.fleet.stop()
        with self._lock:
            self._closed = True
            self._wakeup.notify_all()


def _run_to_dict(run: RunResult, benchmark: str, technique: Optional[str]) -> Dict:
    """JSON body for a single-cell result."""
    stats = run.llc_stats
    return {
        "kind": "cell",
        "benchmark": benchmark,
        "technique": technique if technique is not None else "lru(baseline)",
        "instructions": run.instructions,
        "mpki": run.mpki,
        "ipc": run.ipc,
        "llc": {
            "accesses": stats.accesses,
            "hits": stats.hits,
            "misses": stats.misses,
            "fills": stats.fills,
            "evictions": stats.evictions,
            "writebacks": stats.writebacks,
            "bypasses": stats.bypasses,
            "dead_block_victims": stats.dead_block_victims,
        },
    }
