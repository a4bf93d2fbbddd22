"""The fleet worker: ``repro worker --connect URL``.

A worker is a plain process that registers with a fleet-mode server,
pulls cell batches under time-bounded leases, executes them through
:func:`repro.harness.parallel._run_cell_timed` -- the *same* in-process
cell path, with the same timing record, that every CLI sweep and local
service batch uses, which is what keeps fleet results bit-identical --
and posts each result and its timing back as it finishes.  Fleet-level
parallelism comes from running many workers; within one worker, cells
run serially, so a worker is cheap, crashable, and trivially reasoned
about.

Resilience, per docs/robustness.md's fleet failure taxonomy:

* **Reconnect.**  Registration and every poll retries with exponential
  backoff plus jitter, so a restarting server gets a ragged (not
  thundering) herd of returning workers.  A server that forgot us
  (restart without our lease in the journal) answers 404; the worker
  just re-registers under a fresh id.
* **Heartbeats.**  A daemon thread renews active leases every
  ``heartbeat_seconds`` (as told by the server).  The renewal response
  lists lease ids the server no longer recognizes -- our lease expired
  and was re-dispatched while we stalled -- and the worker *abandons*
  those cells immediately rather than racing the replacement worker
  (the race would be harmless, just wasted: completions settle
  idempotently).
* **Blob acquisition.**  Each lease names the stream-blob digest per
  benchmark.  The worker tries its local store, then fetches by digest
  from the server with bounded retry -- a torn or truncated transfer
  is detected by decode + sha256 verification and retried -- and
  finally falls back to compiling the workload locally.  Every tier
  yields bit-identical replay.
* **Graceful drain.**  ``stop()`` (SIGTERM/SIGINT in the CLI) finishes
  the cell in progress, deregisters -- which requeues the rest of the
  lease server-side without waiting for the TTL -- and exits.

Chaos (``REPRO_CHAOS``, :class:`repro.harness.faults.ChaosSpec`, the
one fault harness sweep-pool workers read too) deterministically
injects ``kill`` (exit with ``KILL_EXIT_CODE`` before a cell), ``slow``
(stall past the lease TTL, forcing split-brain re-dispatch), and
``heartbeat`` (skip renewals) at the exact points a real fleet fails.
Draws use the cell's label and its dispatch attempt, counted from 1,
so a rule fires on the same (cell, attempt) as in a sweep pool.
"""

from __future__ import annotations

import base64
import os
import random
import threading
from typing import Dict, Optional, Set, Union

from repro.harness.checkpoint import result_to_wire
from repro.harness.faults import KILL_EXIT_CODE, ChaosSpec, cell_label
from repro.harness.parallel import _run_cell_timed
from repro.harness.runner import ExperimentConfig, WorkloadCache
from repro.sim.streamstore import CompiledWorkload, StreamStore
from repro.service.client import ServiceClient, ServiceError
from repro.service.jobs import config_from_dict

__all__ = ["FleetWorker"]


class FleetWorker:
    """One fleet worker process (or thread, in tests).

    Args:
        url: fleet-mode service base URL.
        name: worker name for the registry (default: host+pid).
        stream_cache: local compiled-workload store directory or
            :class:`StreamStore` (None defers to ``REPRO_STREAM_CACHE``;
            without one, fetched blobs live only in memory).
        max_cells: cap on cells per lease request (None = server's).
        once: exit when the queue is empty and no leases are
            outstanding fleet-wide, instead of polling forever.
        poll_seconds: idle re-poll override (None = server's hint).
        client: injected :class:`ServiceClient` (tests).
    """

    def __init__(
        self,
        url: str,
        name: Optional[str] = None,
        stream_cache: Union[StreamStore, str, os.PathLike, None] = None,
        max_cells: Optional[int] = None,
        once: bool = False,
        poll_seconds: Optional[float] = None,
        client: Optional[ServiceClient] = None,
        reconnect_base: float = 0.2,
        reconnect_cap: float = 10.0,
        blob_retries: int = 3,
    ) -> None:
        self.client = client if client is not None else ServiceClient(url)
        self.name = name or f"{os.uname().nodename}-{os.getpid()}"
        if isinstance(stream_cache, StreamStore):
            self.stream_store: Optional[StreamStore] = stream_cache
        else:
            self.stream_store = StreamStore.from_env(stream_cache)
        self.max_cells = max_cells
        self.once = once
        self.poll_seconds = poll_seconds
        self.reconnect_base = reconnect_base
        self.reconnect_cap = reconnect_cap
        self.blob_retries = int(blob_retries)
        self.chaos = ChaosSpec.from_env()
        self.worker_id: Optional[str] = None
        self.lease_ttl = 60.0
        self.heartbeat_seconds = 5.0
        self.stats = {
            "cells_completed": 0,
            "cells_failed": 0,
            "leases_processed": 0,
            "leases_abandoned": 0,
            "blob_local_hits": 0,
            "blob_fetches": 0,
            "blob_torn_transfers": 0,
            "blob_fallback_compiles": 0,
            "heartbeats_sent": 0,
            "heartbeats_chaos_dropped": 0,
            "reconnects": 0,
        }
        self._stop = threading.Event()
        self._state_lock = threading.Lock()
        self._active_leases: Set[str] = set()
        self._abandoned: Set[str] = set()
        self._reregister = threading.Event()
        self._caches: Dict[ExperimentConfig, WorkloadCache] = {}
        self._rng = random.Random()
        self._hb_thread: Optional[threading.Thread] = None
        self._hb_seq = 0

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def stop(self) -> None:
        """Request a graceful drain: finish the current cell, deregister,
        exit.  Safe from signal handlers and other threads."""
        self._stop.set()

    def run(self) -> int:
        """Blocking main loop; returns a process exit code."""
        try:
            while not self._stop.is_set():
                if self.worker_id is None or self._reregister.is_set():
                    if not self._register_with_backoff():
                        break  # stop() while reconnecting
                response = self._poll_lease()
                if response is None:
                    continue  # transport trouble handled inside
                lease = response.get("lease")
                if lease is not None:
                    self._process_lease(lease)
                    continue
                if response.get("draining") and self.once:
                    break
                if (
                    self.once
                    and not response.get("draining")
                    and int(response.get("outstanding", 0)) == 0
                ):
                    break  # fleet-wide: nothing queued, nothing leased
                self._sleep(
                    self.poll_seconds
                    if self.poll_seconds is not None
                    else float(response.get("retry_seconds", 1.0))
                )
        finally:
            self._shutdown()
        return 0

    def _shutdown(self) -> None:
        self._stop.set()
        if self._hb_thread is not None and self._hb_thread.is_alive():
            self._hb_thread.join(timeout=self.heartbeat_seconds + 5.0)
        if self.worker_id is not None:
            try:
                self.client.fleet_deregister(self.worker_id)
            except (ServiceError, OSError):
                pass  # server gone or already forgot us; leases expire
            self.worker_id = None

    # ------------------------------------------------------------------
    # registration + transport resilience
    # ------------------------------------------------------------------
    def _backoff(self, failures: int) -> float:
        """Exponential backoff with jitter: full delay in
        ``[0.5, 1.0] * base * 2**failures``, capped."""
        delay = min(self.reconnect_cap, self.reconnect_base * (2.0 ** failures))
        return delay * (0.5 + self._rng.random() / 2.0)

    def _register_with_backoff(self) -> bool:
        failures = 0
        while not self._stop.is_set():
            try:
                grant = self.client.fleet_register(
                    name=self.name, pid=os.getpid()
                )
            except (ServiceError, OSError) as exc:
                self.stats["reconnects"] += 1
                self._sleep(self._backoff(failures))
                failures = min(failures + 1, 16)
                if failures == 1:
                    print(
                        f"[worker {self.name}] cannot reach server "
                        f"({exc}); retrying with backoff",
                        flush=True,
                    )
                continue
            self.worker_id = grant["worker_id"]
            self.lease_ttl = float(grant.get("lease_ttl", self.lease_ttl))
            self.heartbeat_seconds = float(
                grant.get("heartbeat_seconds", self.heartbeat_seconds)
            )
            self._reregister.clear()
            if self._hb_thread is None:
                self._hb_thread = threading.Thread(
                    target=self._heartbeat_loop,
                    name=f"repro-worker-hb-{self.name}",
                    daemon=True,
                )
                self._hb_thread.start()
            return True
        return False

    def _poll_lease(self) -> Optional[Dict]:
        try:
            return self.client.fleet_lease(
                self.worker_id, max_cells=self.max_cells
            )
        except ServiceError as exc:
            if exc.status == 404:
                # Server restarted and does not know us: re-register.
                self.worker_id = None
                return None
            self._sleep(self._backoff(0))
            return None
        except OSError:
            self.stats["reconnects"] += 1
            self._sleep(self._backoff(1))
            return None

    def _sleep(self, seconds: float) -> None:
        self._stop.wait(timeout=max(0.0, seconds))

    # ------------------------------------------------------------------
    # heartbeats
    # ------------------------------------------------------------------
    def _heartbeat_loop(self) -> None:
        while not self._stop.wait(timeout=self.heartbeat_seconds):
            worker_id = self.worker_id
            if worker_id is None:
                continue
            self._hb_seq += 1
            if self.chaos.fires("heartbeat", self.name, self._hb_seq):
                self.stats["heartbeats_chaos_dropped"] += 1
                continue
            with self._state_lock:
                lease_ids = sorted(self._active_leases)
            try:
                response = self.client.fleet_heartbeat(worker_id, lease_ids)
            except ServiceError as exc:
                if exc.status == 404:
                    self._reregister.set()
                continue
            except OSError:
                continue  # main loop owns reconnect policy
            self.stats["heartbeats_sent"] += 1
            unknown = response.get("unknown_leases") or ()
            if unknown:
                # Split-brain: those leases expired and re-dispatched.
                # Abandon their remaining cells -- the replacement
                # worker owns them now.
                with self._state_lock:
                    self._abandoned.update(unknown)

    # ------------------------------------------------------------------
    # lease execution
    # ------------------------------------------------------------------
    def _process_lease(self, lease: Dict) -> None:
        lease_id = lease["id"]
        with self._state_lock:
            self._active_leases.add(lease_id)
        try:
            config = config_from_dict(lease.get("config"))
            cache = self._cache_for(config, lease.get("blobs") or {})
            for cell in lease.get("cells", ()):
                with self._state_lock:
                    if lease_id in self._abandoned:
                        self.stats["leases_abandoned"] += 1
                        break
                if self._stop.is_set():
                    break  # graceful drain: deregister requeues the rest
                self._execute_cell(lease_id, config, cache, cell)
            self.stats["leases_processed"] += 1
        finally:
            with self._state_lock:
                self._active_leases.discard(lease_id)
                self._abandoned.discard(lease_id)

    def _execute_cell(
        self,
        lease_id: str,
        config: ExperimentConfig,
        cache: WorkloadCache,
        cell: Dict,
    ) -> None:
        benchmark = cell["benchmark"]
        technique = cell.get("technique")
        attempt = int(cell.get("attempt", 1))
        label = cell_label((benchmark, technique))
        if self.chaos.fires("slow", label, attempt):
            # Stall past the lease TTL *before* computing: the lease
            # expires and re-dispatches while we are still alive --
            # the split-brain case -- then we finish anyway and our
            # completion lands late or duplicate.
            self._sleep(self.lease_ttl * 1.5)
        if self.chaos.fires("kill", label, attempt):
            os._exit(KILL_EXIT_CODE)  # simulated OOM kill: no cleanup
        try:
            result, timing = _run_cell_timed(cache, (benchmark, technique))
        except Exception as exc:
            self.stats["cells_failed"] += 1
            self._post_completion(
                lease_id, cell, status="error",
                error=f"{type(exc).__name__}: {exc}",
            )
            return
        payload = base64.b64encode(result_to_wire(result)).decode("ascii")
        self.stats["cells_completed"] += 1
        self._post_completion(
            lease_id, cell, status="ok", result=payload, timing=timing
        )

    def _post_completion(
        self,
        lease_id: str,
        cell: Dict,
        status: str,
        result: Optional[str] = None,
        error: str = "",
        timing: Optional[Dict[str, object]] = None,
    ) -> None:
        try:
            self.client.fleet_complete(
                self.worker_id, lease_id, cell["key"], status,
                result=result, error=error, timing=timing,
            )
        except (ServiceError, OSError) as exc:
            # The result is lost only to *this* lease: the lease will
            # expire and the cell re-dispatches (or, if the checkpoint
            # write landed, dedups).  Nothing to retry beyond what the
            # client's own backoff already did.
            print(
                f"[worker {self.name}] completion for "
                f"{cell_label((cell['benchmark'], cell.get('technique')))} "
                f"not delivered ({exc}); lease expiry will re-dispatch",
                flush=True,
            )

    # ------------------------------------------------------------------
    # blob acquisition
    # ------------------------------------------------------------------
    def _cache_for(
        self, config: ExperimentConfig, blobs: Dict[str, str]
    ) -> WorkloadCache:
        cache = self._caches.get(config)
        if cache is None:
            cache = WorkloadCache(config, stream_store=self.stream_store)
            self._caches[config] = cache
        held = {StreamStore.digest_for_key(key) for key in cache.compiled_streams}
        for benchmark, digest in blobs.items():
            if digest in held:
                continue
            # Derive the key exactly as the coordinator did (v2 format,
            # canonical-spec digest folded in).  A spec that cannot
            # resolve on this machine (e.g. a trace(...) workload with
            # no local trace library) still fetches by digest below --
            # store_raw verifies content against the digest itself.
            try:
                local_key = cache.workload_key(benchmark, config.instructions)
            except Exception:
                local_key = None
            if (
                local_key is not None
                and StreamStore.digest_for_key(local_key) != digest
            ):
                continue  # geometry/format/content skew: compile locally
            if self.stream_store is not None and local_key is not None:
                local = self.stream_store.load(local_key)
                if local is not None:
                    self.stats["blob_local_hits"] += 1
                    cache.compiled_streams[local.key] = local
                    continue
            fetched = self._fetch_blob(digest, benchmark)
            if fetched is not None:
                cache.compiled_streams[fetched.key] = fetched
            else:
                self.stats["blob_fallback_compiles"] += 1
        return cache

    def _fetch_blob(
        self, digest: str, benchmark: str
    ) -> Optional[CompiledWorkload]:
        """Fetch one blob by digest with bounded retry and torn-transfer
        detection; None means every attempt failed (caller falls back to
        a local compile)."""
        for attempt in range(1, self.blob_retries + 1):
            try:
                raw = self.client.fetch_blob(digest, attempt=attempt)
            except (ServiceError, OSError) as exc:
                if isinstance(exc, ServiceError) and exc.status == 404:
                    return None  # server does not have it; do not hammer
                self._sleep(self._backoff(attempt - 1))
                continue
            try:
                self.stats["blob_fetches"] += 1
                if self.stream_store is not None:
                    # Verifies decode + digest, persists for next time.
                    return self.stream_store.store_raw(raw, digest)
                compiled = CompiledWorkload.from_buffer(raw)
                if StreamStore.digest_for_key(compiled.key) != digest:
                    raise ValueError("blob key does not hash to its digest")
                return compiled
            except ValueError as exc:
                self.stats["blob_torn_transfers"] += 1
                print(
                    f"[worker {self.name}] torn blob transfer for "
                    f"{benchmark} (attempt {attempt}/{self.blob_retries}): "
                    f"{exc}",
                    flush=True,
                )
                self._sleep(self._backoff(attempt - 1))
        return None
