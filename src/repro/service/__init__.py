"""Experiment service: an async job server over the sweep harness.

One-shot CLI sweeps own the terminal that launched them; the service
turns the same machinery into a long-lived, multi-tenant dispatcher:

* :mod:`repro.service.jobs` -- the job model and its atomic on-disk
  store.  Jobs decompose into (benchmark, technique) *cells*
  content-addressed by the exact :mod:`repro.harness.checkpoint` key
  scheme, so a cell computed by anyone -- a CLI sweep, another client's
  job, a previous server life -- satisfies every later submission
  instantly (result dedup, the service-level analogue of the compiled
  workload store).
* :mod:`repro.service.scheduler` -- the deduplicating scheduler: a
  bounded priority queue with fair-share across clients, draining into
  the supervised process pool from :mod:`repro.harness.faults`
  (``REPRO_JOBS`` workers, per-cell deadlines, retries) with the PR 4
  warm-store/shared-memory fan-out, and graceful drain on shutdown.
* :mod:`repro.service.server` -- a stdlib-only ``asyncio.start_server``
  HTTP/1.1 front end (``POST /v1/jobs``, streamed NDJSON progress,
  ``/v1/stats``, ...).
* :mod:`repro.service.client` -- the blocking client SDK behind
  ``repro submit`` / ``repro jobs`` / ``repro serve``, with bounded
  retry (exponential backoff + jitter) on transient failures.
* :mod:`repro.service.fleet` / :mod:`repro.service.worker` -- the
  fault-tolerant worker fleet (``repro serve --fleet`` + ``repro
  worker``): lease-based dispatch with heartbeats, expiry re-dispatch,
  a write-ahead lease journal, and digest-addressed blob transfer.

Results served through the service are bit-identical to ``make``-driven
sweeps; ``tests/test_service_http.py`` pins the golden equality and
``python -m repro.smoke serve`` (``make serve-smoke``) re-checks it
end to end on every ``make check``.
See docs/service.md.
"""

from repro.service.client import ServiceClient, ServiceError
from repro.service.fleet import FleetCoordinator
from repro.service.jobs import Job, JobStore, QueueFull, cell_key
from repro.service.scheduler import ExperimentScheduler
from repro.service.server import ExperimentServer, serve
from repro.service.worker import FleetWorker

__all__ = [
    "ExperimentScheduler",
    "ExperimentServer",
    "FleetCoordinator",
    "FleetWorker",
    "Job",
    "JobStore",
    "QueueFull",
    "ServiceClient",
    "ServiceError",
    "cell_key",
    "serve",
]
