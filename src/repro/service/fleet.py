"""Lease-based worker-fleet coordination for the experiment service.

The PR 5 service executes cells on local process pools; this module is
the protocol layer that lets *worker processes* -- ``repro worker
--connect URL``, on this machine or any other -- pull cell batches from
one scheduler and survive every ugly way a distributed fleet fails:

* **Time-bounded leases.**  A worker checks cells out under a lease
  that expires unless renewed by heartbeats.  A worker that crashes,
  hangs, or partitions simply stops renewing; the monitor thread
  returns its cells to the queue and they re-dispatch to live workers.
* **At-least-once, exactly-once-effective.**  Re-dispatch means a cell
  can execute twice (the original worker may finish after its lease
  expired -- the split-brain case).  That is safe by construction:
  cells are content-addressed, every execution is bit-identical, and
  results settle through the idempotent checkpoint store.  Duplicate
  and late completions are detected, dropped or absorbed, and counted
  in ``GET /v1/stats``.
* **Write-ahead lease journal.**  Every grant/renewal/settlement
  rewrites ``<job-store>/leases.json`` atomically *before* the worker
  observes the change, so a restarted server recovers in-flight leases
  instead of instantly re-dispatching work that live workers are still
  computing.  A journaled lease whose worker never returns expires
  normally and re-dispatches.
* **Blob handover.**  When the scheduler has a compiled-workload store,
  each lease names the stream-blob digest for every benchmark it
  carries; workers fetch missing blobs by digest over
  ``GET /v1/blobs/{digest}`` with torn-transfer detection (the sha256
  addressing of :mod:`repro.sim.streamstore`) and fall back to a local
  compile when the transfer cannot be made whole.
* **Deterministic chaos.**  ``REPRO_CHAOS`` (see
  :class:`repro.harness.faults.ChaosSpec`) injects worker kills,
  heartbeat drops, slow workers, and truncated blob transfers as pure
  hash draws, so ``make fleet-smoke`` can kill a worker mid-batch on
  every run and still demand a bit-identical sweep result.

The coordinator shares the scheduler's RLock: worker registry, lease
table, and cell state mutate under one lock, so there is no window
where a cell is both queued and leased.  See docs/service.md for the
wire protocol and docs/robustness.md for the failure taxonomy.
"""

from __future__ import annotations

import base64
import json
import threading
import time
import uuid
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.harness.checkpoint import result_from_wire
from repro.harness.runner import ExperimentConfig, WorkloadCache
from repro.sim.streamstore import StreamStore
from repro.service.jobs import cell_key, config_from_dict, config_to_dict
from repro.utils.atomic import atomic_write
from repro.utils.env import env_number

__all__ = ["FleetCoordinator", "Lease", "WorkerInfo"]

#: Default lease TTL in seconds (override with ``REPRO_LEASE_TTL``).
DEFAULT_LEASE_TTL = 60.0
#: Default heartbeat period in seconds (override with ``REPRO_HEARTBEAT_SEC``).
DEFAULT_HEARTBEAT_SECONDS = 5.0
#: Default max cells per lease grant.
DEFAULT_LEASE_CELLS = 4


@dataclass
class WorkerInfo:
    """One registered worker as the coordinator sees it."""

    id: str
    name: str
    pid: Optional[int] = None
    host: str = ""
    registered_at: float = 0.0
    last_seen: float = 0.0
    state: str = "idle"  # idle | busy | dead | gone
    leases: set = field(default_factory=set)
    completed_cells: int = 0
    failed_cells: int = 0


@dataclass
class Lease:
    """One time-bounded checkout of cells to one worker.

    ``cells`` maps cell key -> (benchmark, technique, attempt) where
    *attempt* is the cell's dispatch count at grant time -- the number
    the worker-side chaos harness draws against, so ``kill:1@1`` kills
    exactly the first dispatch of a cell and never its re-dispatch.
    """

    id: str
    worker_id: str
    config: ExperimentConfig
    cells: Dict[str, Tuple[str, Optional[str], int]]
    granted_at: float
    expires_at: float
    renewals: int = 0
    recovered: bool = False


class FleetCoordinator:
    """Worker registry + lease table + expiry monitor for one scheduler.

    Constructed by :class:`~repro.service.scheduler.ExperimentScheduler`
    when ``fleet=True``; all mutable state shares the scheduler's RLock.

    Args:
        scheduler: the owning scheduler (queue, registry, checkpoint).
        lease_ttl: seconds a lease lives without renewal (default
            ``REPRO_LEASE_TTL`` or 60).
        heartbeat_seconds: the renewal period workers are told to use
            (default ``REPRO_HEARTBEAT_SEC`` or 5); a worker silent for
            ``max(lease_ttl, 3 * heartbeat)`` is declared dead.
        lease_cells: max cells per lease grant (default 4).
        start: start the expiry-monitor thread (tests driving expiry by
            hand pass False).
    """

    def __init__(
        self,
        scheduler,
        lease_ttl: Optional[float] = None,
        heartbeat_seconds: Optional[float] = None,
        lease_cells: Optional[int] = None,
        start: bool = True,
    ) -> None:
        self.scheduler = scheduler
        self.lease_ttl = (
            float(lease_ttl) if lease_ttl is not None
            else env_number("REPRO_LEASE_TTL", DEFAULT_LEASE_TTL, float)
        )
        self.heartbeat_seconds = (
            float(heartbeat_seconds) if heartbeat_seconds is not None
            else env_number("REPRO_HEARTBEAT_SEC", DEFAULT_HEARTBEAT_SECONDS, float)
        )
        if self.lease_ttl <= 0 or self.heartbeat_seconds <= 0:
            raise ValueError("lease_ttl and heartbeat_seconds must be positive")
        self.lease_cells = int(lease_cells) if lease_cells else DEFAULT_LEASE_CELLS
        if self.lease_cells < 1:
            raise ValueError(f"lease_cells must be >= 1, got {lease_cells}")
        self.journal_path = self.scheduler.job_store.root / "leases.json"

        self._lock = scheduler._lock  # one lock: cells + leases + workers
        self._workers: Dict[str, WorkerInfo] = {}
        self._leases: Dict[str, Lease] = {}
        self._compile_caches: Dict[ExperimentConfig, WorkloadCache] = {}
        self._draining = False
        self._stop = threading.Event()
        self.counters = {
            "workers_registered": 0,
            "workers_lost": 0,
            "leases_granted": 0,
            "leases_expired": 0,
            "leases_recovered": 0,
            "cells_leased": 0,
            "cells_completed": 0,
            "cells_redispatched": 0,
            "duplicate_completions": 0,
            "late_completions": 0,
            "failed_reports": 0,
            "blobs_served": 0,
            "blob_bytes_served": 0,
            "chaos_truncated_blobs": 0,
        }

        self._recover_journal()
        self._monitor = threading.Thread(
            target=self._monitor_loop, name="repro-fleet-monitor", daemon=True
        )
        if start:
            self._monitor.start()

    # ------------------------------------------------------------------
    # worker lifecycle
    # ------------------------------------------------------------------
    def register(
        self, name: str = "", pid: Optional[int] = None, host: str = ""
    ) -> Dict:
        """Admit a worker; returns its id and the protocol knobs."""
        now = time.time()
        with self._lock:
            worker_id = f"wkr-{uuid.uuid4().hex[:10]}"
            self._workers[worker_id] = WorkerInfo(
                id=worker_id,
                name=name or worker_id,
                pid=pid,
                host=host,
                registered_at=now,
                last_seen=now,
            )
            self.counters["workers_registered"] += 1
            return {
                "worker_id": worker_id,
                "lease_ttl": self.lease_ttl,
                "heartbeat_seconds": self.heartbeat_seconds,
                "draining": self._draining or self.scheduler._draining,
            }

    def deregister(self, worker_id: str) -> Dict:
        """Graceful drain: the worker's unfinished cells requeue
        immediately (no TTL wait) and the worker is marked gone."""
        with self._lock:
            worker = self._require_worker(worker_id)
            released = 0
            for lease_id in list(worker.leases):
                released += self._expire_lease_locked(
                    self._leases[lease_id],
                    reason=f"worker {worker.name} deregistered",
                    count_expired=False,
                )
            worker.state = "gone"
            worker.leases.clear()
            self._write_journal_locked()
            return {"worker_id": worker_id, "requeued_cells": released}

    def _require_worker(self, worker_id: str) -> WorkerInfo:
        """Look up a live worker (lock held); revives ``dead`` workers
        that turn out to still be talking.  Raises KeyError for unknown
        or deregistered ids -- the HTTP layer maps that to 404, and the
        worker re-registers."""
        worker = self._workers.get(worker_id)
        if worker is None or worker.state == "gone":
            raise KeyError(f"unknown worker {worker_id!r}")
        worker.last_seen = time.time()
        if worker.state == "dead":
            worker.state = "busy" if worker.leases else "idle"
        return worker

    # ------------------------------------------------------------------
    # leasing
    # ------------------------------------------------------------------
    def lease(self, worker_id: str, max_cells: Optional[int] = None) -> Dict:
        """Grant a lease of queued cells to a worker, or report why not.

        The response always carries ``outstanding`` (cells currently
        leased fleet-wide) so an idle ``--once`` worker can distinguish
        "queue empty, fleet finished" from "queue empty, another
        worker's lease may yet expire back to me".
        """
        with self._lock:
            self._require_worker(worker_id)
            draining = self._draining or self.scheduler._draining
            if draining:
                return {
                    "lease": None,
                    "draining": True,
                    "outstanding": self._outstanding_locked(),
                    "retry_seconds": self.heartbeat_seconds,
                }
            limit = min(int(max_cells), self.lease_cells) if max_cells else self.lease_cells
            if limit < 1:
                limit = 1
        config, batch = self.scheduler.fleet_checkout(limit)
        if not batch:
            with self._lock:
                return {
                    "lease": None,
                    "draining": False,
                    "outstanding": self._outstanding_locked(),
                    "retry_seconds": min(1.0, self.heartbeat_seconds),
                }
        blobs = self._blob_digests(config, batch)
        now = time.time()
        with self._lock:
            worker = self._workers.get(worker_id)
            if worker is None or worker.state == "gone":
                # The worker vanished between checkout and grant: put
                # the cells straight back.
                self.scheduler.fleet_requeue(
                    [entry.key for entry in batch],
                    reason="worker vanished during lease grant",
                )
                raise KeyError(f"unknown worker {worker_id!r}")
            lease = Lease(
                id=f"lease-{uuid.uuid4().hex[:12]}",
                worker_id=worker_id,
                config=config,
                cells={
                    entry.key: (entry.benchmark, entry.technique, entry.dispatches)
                    for entry in batch
                },
                granted_at=now,
                expires_at=now + self.lease_ttl,
            )
            self._leases[lease.id] = lease
            worker.leases.add(lease.id)
            worker.state = "busy"
            self.counters["leases_granted"] += 1
            self.counters["cells_leased"] += len(batch)
            # Write-ahead: the journal records the lease before the
            # worker ever sees it, so a crash between here and the HTTP
            # response can only recover a lease, never lose one.
            self._write_journal_locked()
            return {
                "lease": self._lease_wire_locked(lease, blobs),
                "draining": False,
                "outstanding": self._outstanding_locked(),
            }

    def heartbeat(self, worker_id: str, lease_ids: List[str]) -> Dict:
        """Renew a worker's leases; returns lease ids the server no
        longer recognizes (expired and re-dispatched -- the worker must
        abandon their remaining cells: split-brain resolution)."""
        with self._lock:
            self._require_worker(worker_id)
            unknown: List[str] = []
            renewed = False
            now = time.time()
            for lease_id in lease_ids:
                lease = self._leases.get(lease_id)
                if lease is None or lease.worker_id != worker_id:
                    unknown.append(lease_id)
                    continue
                lease.expires_at = now + self.lease_ttl
                lease.renewals += 1
                renewed = True
            if renewed:
                self._write_journal_locked()
            return {
                "ok": True,
                "draining": self._draining or self.scheduler._draining,
                "unknown_leases": unknown,
                "heartbeat_seconds": self.heartbeat_seconds,
            }

    def complete(
        self,
        worker_id: str,
        lease_id: str,
        key: str,
        status: str,
        result_b64: Optional[str] = None,
        error: str = "",
        timing: Optional[Dict[str, object]] = None,
    ) -> Dict:
        """Settle one cell of a lease with a worker's outcome.

        ``status="ok"`` carries a base64 :func:`result_to_wire` payload;
        anything undecodable is a protocol error (ValueError -> 400),
        never a stored result.  Completions for expired or foreign
        leases are still settled against the cell registry -- a result
        is a result, whoever computed it -- they just count as late or
        duplicate.  Returns ``{"outcome": ...}``.
        """
        if status == "ok":
            if not result_b64:
                raise ValueError("status 'ok' requires a result payload")
            try:
                raw = base64.b64decode(result_b64, validate=True)
            except Exception as exc:
                raise ValueError(f"bad result encoding: {exc}") from None
            result = result_from_wire(raw)
            outcome = self.scheduler.fleet_complete(key, result, timing=timing)
        else:
            outcome = self.scheduler.fleet_fail(
                key, error or "worker reported failure"
            )
        with self._lock:
            worker = self._workers.get(worker_id)
            if worker is not None and worker.state != "gone":
                worker.last_seen = time.time()
                if status == "ok":
                    worker.completed_cells += 1
                else:
                    worker.failed_cells += 1
            if outcome in ("accepted", "late"):
                self.counters["cells_completed"] += 1
            if outcome == "late":
                self.counters["late_completions"] += 1
            elif outcome == "duplicate":
                self.counters["duplicate_completions"] += 1
            elif outcome == "requeued":
                self.counters["failed_reports"] += 1
                self.counters["cells_redispatched"] += 1
            elif outcome == "failed":
                self.counters["failed_reports"] += 1
            lease = self._leases.get(lease_id)
            if lease is not None and key in lease.cells:
                del lease.cells[key]
                if not lease.cells:
                    self._drop_lease_locked(lease)
                self._write_journal_locked()
            return {"outcome": outcome}

    # ------------------------------------------------------------------
    # expiry + journal
    # ------------------------------------------------------------------
    def _outstanding_locked(self) -> int:
        return sum(len(lease.cells) for lease in self._leases.values())

    def _drop_lease_locked(self, lease: Lease) -> None:
        self._leases.pop(lease.id, None)
        worker = self._workers.get(lease.worker_id)
        if worker is not None:
            worker.leases.discard(lease.id)
            if not worker.leases and worker.state == "busy":
                worker.state = "idle"

    def _expire_lease_locked(
        self, lease: Lease, reason: str, count_expired: bool = True
    ) -> int:
        """Return a lease's unfinished cells to the queue (lock held)."""
        requeued = self.scheduler.fleet_requeue(list(lease.cells), reason=reason)
        self.counters["cells_redispatched"] += requeued
        if count_expired:
            self.counters["leases_expired"] += 1
        self._drop_lease_locked(lease)
        return requeued

    def _monitor_loop(self) -> None:
        interval = max(0.05, min(self.heartbeat_seconds, self.lease_ttl / 4.0))
        while not self._stop.wait(interval):
            self.check_expiry()

    def check_expiry(self) -> int:
        """One monitor scan: expire overdue leases, declare silent
        workers dead (and expire their leases early).  Public so tests
        and the drain path can force a scan."""
        now = time.time()
        dead_after = max(self.lease_ttl, 3.0 * self.heartbeat_seconds)
        requeued = 0
        with self._lock:
            changed = False
            for worker in self._workers.values():
                if (
                    worker.state in ("idle", "busy")
                    and now - worker.last_seen > dead_after
                ):
                    worker.state = "dead"
                    self.counters["workers_lost"] += 1
                    changed = True
                    for lease_id in list(worker.leases):
                        lease = self._leases.get(lease_id)
                        if lease is not None:
                            requeued += self._expire_lease_locked(
                                lease,
                                reason=f"worker {worker.name} stopped "
                                       f"heartbeating ({dead_after:.1f}s silent)",
                            )
            for lease in [
                lease for lease in self._leases.values()
                if lease.expires_at <= now
            ]:
                requeued += self._expire_lease_locked(
                    lease,
                    reason=f"lease {lease.id} expired "
                           f"({self.lease_ttl:.1f}s without renewal)",
                )
                changed = True
            if changed:
                self._write_journal_locked()
        return requeued

    def _write_journal_locked(self) -> None:
        """Atomically rewrite the write-ahead lease journal (lock held)."""
        records = []
        for lease in self._leases.values():
            worker = self._workers.get(lease.worker_id)
            records.append({
                "id": lease.id,
                "worker_id": lease.worker_id,
                "worker_name": worker.name if worker is not None else "",
                "config": config_to_dict(lease.config),
                "cells": [
                    [benchmark, technique, attempt]
                    for benchmark, technique, attempt in lease.cells.values()
                ],
                "granted_at": lease.granted_at,
                "expires_at": lease.expires_at,
                "renewals": lease.renewals,
            })
        payload = json.dumps(
            {"version": 1, "leases": records}, sort_keys=True, indent=1
        )
        atomic_write(self.journal_path, payload.encode("utf-8"))

    def _recover_journal(self) -> None:
        """Restore in-flight leases from a previous server life.

        Runs after the scheduler's job resume re-queued all unfinished
        cells: each journaled cell still queued is pulled back out of
        the queue and held under a restored lease with a fresh TTL.  If
        its worker is still alive, its heartbeats (same lease id) renew
        the restored lease and its completions settle normally; if not,
        the lease expires and the cells re-dispatch -- either way no
        work is lost and none double-runs while a live worker holds it.
        """
        try:
            data = json.loads(self.journal_path.read_text(encoding="utf-8"))
        except FileNotFoundError:
            return
        except Exception as exc:
            print(
                f"[fleet] lease journal unreadable ({type(exc).__name__}: "
                f"{exc}); in-flight leases from the previous life are "
                "forfeit and their cells will re-dispatch",
                flush=True,
            )
            return
        now = time.time()
        with self._lock:
            for record in data.get("leases", ()):
                try:
                    config = config_from_dict(record.get("config"))
                    raw_cells = list(record.get("cells", ()))
                    lease_id = str(record["id"])
                    worker_id = str(record["worker_id"])
                except (KeyError, TypeError, ValueError):
                    continue  # malformed record: its cells stay queued
                cells: Dict[str, Tuple[str, Optional[str], int]] = {}
                for item in raw_cells:
                    try:
                        benchmark, technique, attempt = item
                    except (TypeError, ValueError):
                        continue
                    key = cell_key(config, benchmark, technique)
                    entry = self.scheduler._cells.get(key)
                    if entry is None or entry.state != "queued":
                        continue  # already finished, or never resumed
                    self.scheduler._queue.remove(key)
                    entry.state = "running"
                    entry.dispatches = max(entry.dispatches, int(attempt))
                    cells[key] = (benchmark, technique, int(attempt))
                if not cells:
                    continue
                if worker_id not in self._workers:
                    self._workers[worker_id] = WorkerInfo(
                        id=worker_id,
                        name=str(record.get("worker_name", "")) or worker_id,
                        registered_at=now,
                        last_seen=now,
                        state="busy",
                    )
                worker = self._workers[worker_id]
                lease = Lease(
                    id=lease_id,
                    worker_id=worker_id,
                    config=config,
                    cells=cells,
                    granted_at=float(record.get("granted_at", now)),
                    expires_at=now + self.lease_ttl,
                    renewals=int(record.get("renewals", 0)),
                    recovered=True,
                )
                self._leases[lease.id] = lease
                worker.leases.add(lease.id)
                worker.state = "busy"
                self.counters["leases_recovered"] += 1
            self._write_journal_locked()

    # ------------------------------------------------------------------
    # blob handover
    # ------------------------------------------------------------------
    def _blob_digests(self, config: ExperimentConfig, batch) -> Dict[str, str]:
        """Compile (once) and digest each benchmark's stream blob so the
        lease can name what workers may fetch.  Best-effort: a compile
        failure just means workers build the workload themselves."""
        store = self.scheduler.stream_store
        if store is None:
            return {}
        try:
            cache = self._compile_caches.get(config)
            if cache is None:
                cache = WorkloadCache(config, stream_store=store)
                self._compile_caches[config] = cache
            digests = {}
            for benchmark in dict.fromkeys(entry.benchmark for entry in batch):
                compiled = cache.compiled(benchmark)
                digests[benchmark] = StreamStore.digest_for_key(compiled.key)
            with self._lock:
                self.scheduler.counters["stream_hits"] += cache.stream_hits
                self.scheduler.counters["stream_misses"] += cache.stream_misses
                cache.stream_hits = 0
                cache.stream_misses = 0
            return digests
        except Exception as exc:
            print(
                f"[fleet] blob compile failed ({type(exc).__name__}: {exc}); "
                "lease ships without blob digests",
                flush=True,
            )
            return {}

    def record_blob_served(self, nbytes: int, truncated: bool = False) -> None:
        """Counter hook for the HTTP blob route."""
        with self._lock:
            self.counters["blobs_served"] += 1
            self.counters["blob_bytes_served"] += int(nbytes)
            if truncated:
                self.counters["chaos_truncated_blobs"] += 1

    def _lease_wire_locked(self, lease: Lease, blobs: Dict[str, str]) -> Dict:
        return {
            "id": lease.id,
            "ttl": self.lease_ttl,
            "heartbeat_seconds": self.heartbeat_seconds,
            "expires_at": lease.expires_at,
            "config": config_to_dict(lease.config),
            "cells": [
                {
                    "key": key,
                    "benchmark": benchmark,
                    "technique": technique,
                    "attempt": attempt,
                }
                for key, (benchmark, technique, attempt) in lease.cells.items()
            ],
            "blobs": {
                benchmark: blobs[benchmark]
                for benchmark in dict.fromkeys(
                    benchmark for benchmark, _, _ in lease.cells.values()
                )
                if benchmark in blobs
            },
        }

    # ------------------------------------------------------------------
    # lifecycle + stats
    # ------------------------------------------------------------------
    def drain(self, timeout: Optional[float] = None) -> bool:
        """Stop granting leases and wait for in-flight leases to settle
        (workers finish their cells and the results checkpoint).  Leases
        that outlive ``timeout`` stay journaled for the next server life.
        Returns True when every lease settled."""
        with self._lock:
            self._draining = True
        deadline = (
            time.monotonic() + timeout if timeout is not None else None
        )
        while True:
            self.check_expiry()
            with self._lock:
                if not self._leases:
                    return True
            if deadline is not None and time.monotonic() >= deadline:
                return False
            time.sleep(0.05)

    def stop(self) -> None:
        """Stop the monitor thread (idempotent)."""
        self._stop.set()
        if self._monitor.is_alive():
            self._monitor.join(timeout=10.0)

    def alive_workers(self) -> int:
        """How many workers are currently idle or busy (``/healthz``)."""
        with self._lock:
            return sum(
                1
                for worker in self._workers.values()
                if worker.state in ("idle", "busy")
            )

    def stats(self) -> Dict:
        """The ``fleet`` section of ``GET /v1/stats``."""
        with self._lock:
            states: Dict[str, int] = {}
            for worker in self._workers.values():
                states[worker.state] = states.get(worker.state, 0) + 1
            return {
                "lease_ttl": self.lease_ttl,
                "heartbeat_seconds": self.heartbeat_seconds,
                "lease_cells": self.lease_cells,
                "draining": self._draining,
                "workers": {
                    "registered": self.counters["workers_registered"],
                    "alive": states.get("idle", 0) + states.get("busy", 0),
                    "states": states,
                    "lost": self.counters["workers_lost"],
                },
                "leases": {
                    "active": len(self._leases),
                    "outstanding_cells": self._outstanding_locked(),
                    "granted": self.counters["leases_granted"],
                    "expired": self.counters["leases_expired"],
                    "recovered": self.counters["leases_recovered"],
                },
                "cells": {
                    "leased": self.counters["cells_leased"],
                    "completed": self.counters["cells_completed"],
                    "redispatched": self.counters["cells_redispatched"],
                    "duplicate_completions":
                        self.counters["duplicate_completions"],
                    "late_completions": self.counters["late_completions"],
                    "failed_reports": self.counters["failed_reports"],
                },
                "blobs": {
                    "served": self.counters["blobs_served"],
                    "bytes_served": self.counters["blob_bytes_served"],
                    "chaos_truncated": self.counters["chaos_truncated_blobs"],
                },
            }
