"""Blocking client SDK for the experiment service.

A thin, dependency-free wrapper over :mod:`http.client` (stdlib) that
speaks the ``/v1`` API: submit jobs, poll or stream their progress,
fetch results, cancel, and read server stats.  This is the library the
``repro submit`` / ``repro jobs`` CLI commands are built on, the one
the golden bit-identity smoke tests drive, and -- via the ``fleet_*``
methods -- the transport layer of every fleet worker.

    client = ServiceClient("http://127.0.0.1:8035")
    job = client.submit(benchmarks=["mcf"], techniques=["sampler"], sweep=True)
    for event in client.stream_events(job["id"]):
        print(event["event"])
    result = client.result(job["id"])      # == export_json of the CLI sweep

Every HTTP error surfaces as :class:`ServiceError` carrying the status
code and the server's message; 429 backpressure additionally carries
``retry_after``.

Transient failures are retried *inside* the client: connection resets
and refusals, torn responses, and 429/503 answers are retried up to
``max_retries`` times with exponential backoff plus jitter (a server's
``Retry-After`` hint, when present, overrides the computed delay, capped
at ``backoff_cap``).  Other 4xx/5xx statuses are never retried -- they
are answers, not weather.  Construct with ``max_retries=0`` to disable
retries entirely and see every failure raw (the backpressure tests and
the fleet blob fetch path, which runs its own attempt loop, do this).
"""

from __future__ import annotations

import http.client
import json
import random
import time
import urllib.parse
from typing import Dict, Iterator, List, Optional, Sequence

__all__ = ["ServiceClient", "ServiceError"]

_RETRYABLE_STATUSES = (429, 503)


class ServiceError(Exception):
    """An HTTP-level failure from the service."""

    def __init__(self, status: int, message: str, retry_after: Optional[float] = None):
        self.status = status
        self.message = message
        self.retry_after = retry_after
        super().__init__(f"HTTP {status}: {message}")


class ServiceClient:
    """Blocking client bound to one service base URL.

    Args:
        base_url: ``http://host:port`` (scheme optional).
        timeout: per-request socket timeout, seconds.
        max_retries: extra attempts after a retryable failure (429/503
            or a transport error); 0 disables retrying.
        backoff: base delay before the first retry, seconds; doubles per
            attempt with jitter in ``[0.5, 1.0]`` of the computed delay.
        backoff_cap: upper bound on any single delay, including one a
            ``Retry-After`` header asks for.
    """

    def __init__(
        self,
        base_url: str,
        timeout: float = 60.0,
        max_retries: int = 3,
        backoff: float = 0.1,
        backoff_cap: float = 2.0,
    ) -> None:
        parsed = urllib.parse.urlsplit(base_url)
        if parsed.scheme not in ("http", ""):
            raise ValueError(f"unsupported scheme {parsed.scheme!r} (http only)")
        netloc = parsed.netloc or parsed.path  # accept "host:port" without scheme
        host, _, port = netloc.partition(":")
        self.host = host or "127.0.0.1"
        self.port = int(port) if port else 80
        self.timeout = timeout
        self.max_retries = int(max_retries)
        self.backoff = backoff
        self.backoff_cap = backoff_cap
        self.retries_performed = 0  # observability: total retries, all calls

    # ------------------------------------------------------------------
    # plumbing
    # ------------------------------------------------------------------
    def _request_once(
        self, method: str, path: str, body: Optional[Dict] = None
    ) -> Dict:
        connection = http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout
        )
        try:
            payload = json.dumps(body).encode("utf-8") if body is not None else None
            headers = {"Content-Type": "application/json"} if payload else {}
            connection.request(method, path, body=payload, headers=headers)
            response = connection.getresponse()
            raw = response.read()
            data = json.loads(raw.decode("utf-8")) if raw else {}
            if response.status >= 400:
                retry_after = response.getheader("Retry-After")
                raise ServiceError(
                    response.status,
                    data.get("error", raw.decode("utf-8", "replace")),
                    retry_after=float(retry_after) if retry_after else None,
                )
            return data
        finally:
            connection.close()

    def _retry_delay(self, attempt: int, retry_after: Optional[float]) -> float:
        """Delay before retry number ``attempt`` (1-based); the server's
        ``Retry-After``, when given, wins -- capped, never amplified."""
        if retry_after is not None:
            return min(max(retry_after, 0.0), self.backoff_cap)
        delay = min(self.backoff_cap, self.backoff * (2.0 ** (attempt - 1)))
        return delay * (0.5 + random.random() / 2.0)

    def _request(
        self, method: str, path: str, body: Optional[Dict] = None
    ) -> Dict:
        attempt = 0
        while True:
            try:
                return self._request_once(method, path, body)
            except ServiceError as exc:
                if (
                    exc.status not in _RETRYABLE_STATUSES
                    or attempt >= self.max_retries
                ):
                    raise
                delay = self._retry_delay(attempt + 1, exc.retry_after)
            except (OSError, http.client.HTTPException):
                # Connection refused/reset, timeout, torn response --
                # the request may or may not have landed; every /v1
                # mutation is idempotent or dedup'd, so retrying is safe.
                if attempt >= self.max_retries:
                    raise
                delay = self._retry_delay(attempt + 1, None)
            attempt += 1
            self.retries_performed += 1
            time.sleep(delay)

    # ------------------------------------------------------------------
    # API surface
    # ------------------------------------------------------------------
    def healthz(self) -> Dict:
        return self._request("GET", "/v1/healthz")

    def stats(self) -> Dict:
        return self._request("GET", "/v1/stats")

    def submit(
        self,
        benchmarks: Optional[Sequence[str]] = None,
        techniques: Optional[Sequence[str]] = None,
        benchmark: Optional[str] = None,
        technique: Optional[str] = None,
        sweep: bool = False,
        config: Optional[Dict] = None,
        client: str = "anonymous",
        priority: int = 0,
    ) -> Dict:
        """Submit one cell (``benchmark=.../technique=...``) or a sweep
        (``benchmarks=[...], techniques=[...], sweep=True``).  Returns
        the created job record (``state`` may already be ``done`` when
        every cell was a dedup hit)."""
        body: Dict = {"sweep": sweep, "client": client, "priority": priority}
        if benchmarks is not None:
            body["benchmarks"] = list(benchmarks)
        if techniques is not None:
            body["techniques"] = list(techniques)
        if benchmark is not None:
            body["benchmark"] = benchmark
        if technique is not None:
            body["technique"] = technique
        if config is not None:
            body["config"] = dict(config)
        return self._request("POST", "/v1/jobs", body)

    def get(self, job_id: str) -> Dict:
        return self._request("GET", f"/v1/jobs/{job_id}")

    def list_jobs(self) -> List[Dict]:
        return self._request("GET", "/v1/jobs")["jobs"]

    def cancel(self, job_id: str) -> Dict:
        return self._request("DELETE", f"/v1/jobs/{job_id}")

    def result(self, job_id: str) -> Dict:
        return self._request("GET", f"/v1/jobs/{job_id}/result")

    def wait(
        self,
        job_id: str,
        timeout: Optional[float] = None,
        poll_seconds: float = 0.1,
    ) -> Dict:
        """Block until the job reaches a terminal state; returns the
        final job record.  Raises TimeoutError after ``timeout``."""
        deadline = time.monotonic() + timeout if timeout is not None else None
        while True:
            job = self.get(job_id)
            if job["state"] in ("done", "failed", "cancelled"):
                return job
            if deadline is not None and time.monotonic() >= deadline:
                raise TimeoutError(
                    f"job {job_id} still {job['state']} after {timeout}s"
                )
            time.sleep(poll_seconds)

    def stream_events(self, job_id: str, follow: bool = True) -> Iterator[Dict]:
        """Yield the job's NDJSON progress events as dicts.

        With ``follow=True`` (default) the stream runs until the job
        reaches a terminal state; the final event is ``sweep_finished``.
        """
        connection = http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout
        )
        try:
            suffix = "" if follow else "?follow=0"
            connection.request("GET", f"/v1/jobs/{job_id}/events{suffix}")
            response = connection.getresponse()
            if response.status >= 400:
                raw = response.read()
                try:
                    message = json.loads(raw.decode("utf-8")).get("error", "")
                except Exception:
                    message = raw.decode("utf-8", "replace")
                raise ServiceError(response.status, message)
            for line in response:
                line = line.strip()
                if line:
                    yield json.loads(line.decode("utf-8"))
        finally:
            connection.close()

    def submit_and_wait(
        self, timeout: Optional[float] = None, **submit_kwargs
    ) -> Dict:
        """Submit, wait for terminal state, and return the final job."""
        job = self.submit(**submit_kwargs)
        return self.wait(job["id"], timeout=timeout)

    # ------------------------------------------------------------------
    # fleet protocol (workers)
    # ------------------------------------------------------------------
    def fleet_register(
        self, name: str = "", pid: Optional[int] = None, host: str = ""
    ) -> Dict:
        return self._request(
            "POST",
            "/v1/fleet/register",
            {"name": name, "pid": pid, "host": host},
        )

    def fleet_lease(
        self, worker_id: str, max_cells: Optional[int] = None
    ) -> Dict:
        body: Dict = {"worker_id": worker_id}
        if max_cells is not None:
            body["max_cells"] = int(max_cells)
        return self._request("POST", "/v1/fleet/lease", body)

    def fleet_heartbeat(
        self, worker_id: str, lease_ids: Sequence[str]
    ) -> Dict:
        return self._request(
            "POST",
            "/v1/fleet/heartbeat",
            {"worker_id": worker_id, "leases": list(lease_ids)},
        )

    def fleet_complete(
        self,
        worker_id: str,
        lease_id: str,
        key: str,
        status: str,
        result: Optional[str] = None,
        error: str = "",
        timing: Optional[Dict[str, object]] = None,
    ) -> Dict:
        body: Dict = {
            "worker_id": worker_id,
            "lease_id": lease_id,
            "key": key,
            "status": status,
            "error": error,
        }
        if result is not None:
            body["result"] = result
        if timing is not None:
            body["timing"] = dict(timing)
        return self._request("POST", "/v1/fleet/complete", body)

    def fleet_deregister(self, worker_id: str) -> Dict:
        return self._request(
            "POST", "/v1/fleet/deregister", {"worker_id": worker_id}
        )

    def fetch_blob(self, digest: str, attempt: int = 1) -> bytes:
        """Raw stream-blob bytes by digest.

        Deliberately *not* auto-retried: the worker runs its own attempt
        loop so it can verify each transfer (decode + digest) before
        trusting it, and so chaos blob-truncation draws see true attempt
        numbers.
        """
        connection = http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout
        )
        try:
            connection.request(
                "GET", f"/v1/blobs/{digest}?attempt={int(attempt)}"
            )
            response = connection.getresponse()
            raw = response.read()
            if response.status >= 400:
                try:
                    message = json.loads(raw.decode("utf-8")).get("error", "")
                except Exception:
                    message = raw.decode("utf-8", "replace")
                raise ServiceError(response.status, message)
            return raw
        finally:
            connection.close()
