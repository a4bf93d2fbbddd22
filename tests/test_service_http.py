"""The HTTP API and client SDK against a live embedded server.

Every test here boots a real ``asyncio.start_server`` instance on an
ephemeral port (``ExperimentServer.start_in_thread``) and talks to it
through :class:`repro.service.client.ServiceClient` -- the same pairing
``make serve-smoke`` exercises.  All tests are
``@pytest.mark.service``: each runs under the hard SIGALRM deadline
from ``tests/conftest.py`` so a wedged server fails loudly.

The golden test at the bottom pins the service's core promise: a sweep
executed through queued jobs, parallel workers, and shared-memory
stream fan-out is **bit-identical** to the same sweep run serially
through the CLI harness path.
"""

from __future__ import annotations

import time

import pytest

from repro.harness.export import to_dict
from repro.harness.parallel import parallel_single_thread_comparison
from repro.harness.runner import ExperimentConfig, WorkloadCache
from repro.service.client import ServiceClient, ServiceError
from repro.service.scheduler import ExperimentScheduler
from repro.service.server import ExperimentServer

pytestmark = pytest.mark.service

CONFIG = ExperimentConfig(instructions=20_000)
CONFIG_BODY = {"instructions": 20_000}


def serve(tmp_path, **scheduler_kwargs):
    """A live embedded server over tmp-rooted stores; returns (handle, client)."""
    scheduler_kwargs.setdefault("jobs", 1)
    scheduler = ExperimentScheduler(tmp_path / "service", **scheduler_kwargs)
    handle = ExperimentServer(scheduler, port=0).start_in_thread()
    # max_retries=0: backpressure tests assert on raw 429/503 answers,
    # which the client's retry policy would otherwise absorb.
    return handle, ServiceClient(
        f"http://127.0.0.1:{handle.port}", max_retries=0
    )


class TestEndpoints:
    def test_healthz_and_stats(self, tmp_path):
        handle, client = serve(tmp_path, start=False)
        try:
            health = client.healthz()
            assert health["status"] == "ok" and "version" in health
            stats = client.stats()
            assert stats["queue"]["depth"] == 0
            assert stats["workers"]["count"] >= 1
            assert set(stats["dedup"]) == {
                "checkpoint_hits", "inflight_hits", "hit_rate"
            }
        finally:
            handle.stop()

    def test_unknown_routes_and_jobs_are_404(self, tmp_path):
        handle, client = serve(tmp_path, start=False)
        try:
            for call in (
                lambda: client.get("job-nope"),
                lambda: client.result("job-nope"),
                lambda: client.cancel("job-nope"),
                lambda: client._request("GET", "/v2/anything"),
            ):
                with pytest.raises(ServiceError) as excinfo:
                    call()
                assert excinfo.value.status == 404
        finally:
            handle.stop()

    def test_bad_submissions_are_400(self, tmp_path):
        handle, client = serve(tmp_path, start=False)
        try:
            for body in (
                dict(benchmark="notabench"),
                dict(benchmark="mcf", technique="notatech"),
                dict(benchmarks=["mcf", "perlbench"]),  # cell with 2 benchmarks
                dict(benchmark="mcf", config={"scale": 0}),
                dict(benchmark="mcf", config={"typo": 1}),
            ):
                with pytest.raises(ServiceError) as excinfo:
                    client.submit(**body)
                assert excinfo.value.status == 400
        finally:
            handle.stop()

    def test_result_before_done_is_409(self, tmp_path):
        handle, client = serve(tmp_path, start=False)  # job stays queued
        try:
            job = client.submit(benchmark="perlbench", config=CONFIG_BODY)
            with pytest.raises(ServiceError) as excinfo:
                client.result(job["id"])
            assert excinfo.value.status == 409
        finally:
            handle.stop()

    def test_full_queue_is_429_with_retry_after(self, tmp_path):
        handle, client = serve(tmp_path, start=False, queue_depth=1)
        try:
            client.submit(benchmark="perlbench", config=CONFIG_BODY)
            with pytest.raises(ServiceError) as excinfo:
                client.submit(benchmark="mcf", config=CONFIG_BODY)
            assert excinfo.value.status == 429
            assert excinfo.value.retry_after is not None
        finally:
            handle.stop()

    def test_draining_server_refuses_submissions_503(self, tmp_path):
        handle, client = serve(tmp_path, start=False)
        try:
            handle.scheduler.drain(timeout=5.0)
            with pytest.raises(ServiceError) as excinfo:
                client.submit(benchmark="perlbench", config=CONFIG_BODY)
            assert excinfo.value.status == 503
        finally:
            handle.stop()

    def test_cancel_and_list(self, tmp_path):
        handle, client = serve(tmp_path, start=False)
        try:
            job = client.submit(benchmark="perlbench", config=CONFIG_BODY)
            cancelled = client.cancel(job["id"])
            assert cancelled["state"] == "cancelled"
            listed = client.list_jobs()
            assert [j["id"] for j in listed] == [job["id"]]
            assert listed[0]["state"] == "cancelled"
        finally:
            handle.stop()


class TestJobLifecycle:
    def test_submit_wait_result_and_events(self, tmp_path):
        handle, client = serve(tmp_path)
        try:
            job = client.submit(
                benchmark="perlbench", technique="rrip",
                config=CONFIG_BODY, client="alice",
            )
            assert job["state"] in ("queued", "running", "done")
            final = client.wait(job["id"], timeout=90.0)
            assert final["state"] == "done"
            assert final["progress"] == {
                "total": 1, "done": 1, "failed": 0, "pending": 0
            }
            result = client.result(job["id"])
            assert result["kind"] == "cell"
            assert result["llc"]["accesses"] > 0

            # The NDJSON stream replays the standard sweep story and
            # terminates (follow mode) because the job is terminal.
            events = list(client.stream_events(job["id"]))
            kinds = [event["event"] for event in events]
            assert kinds[0] == "sweep_started"
            assert kinds[-1] == "sweep_finished"
            assert events[-1]["status"] == "ok"
            assert all("seq" in event and "elapsed_seconds" in event
                       for event in events)
            # ?follow=0 dumps the same events without following.
            snapshot = list(client.stream_events(job["id"], follow=False))
            assert snapshot == events
        finally:
            handle.stop()

    def test_dedup_resubmission_is_instant_and_counted(self, tmp_path):
        handle, client = serve(tmp_path)
        try:
            spec = dict(benchmark="perlbench", technique="rrip", config=CONFIG_BODY)
            first = client.submit_and_wait(timeout=90.0, **spec)
            assert first["state"] == "done"
            again = client.submit(**spec)
            assert again["state"] == "done"  # done at admission: no wait
            assert again["dedup_cells"] == 1
            assert client.result(again["id"]) == client.result(first["id"])
            stats = client.stats()
            assert stats["dedup"]["checkpoint_hits"] >= 1
            assert stats["cells"]["executed"] == 1
            # The dedup hit shows as a cell_resumed event.
            kinds = [e["event"] for e in client.stream_events(again["id"])]
            assert "cell_resumed" in kinds
        finally:
            handle.stop()

    def test_stop_drains_and_restart_resumes_from_job_store(self, tmp_path):
        # Life 1: accept a job but never dispatch it, then stop (which
        # drains: states persist).  This is the SIGTERM story -- serve()
        # wires SIGTERM to exactly this stop path.
        handle, client = serve(tmp_path, start=False)
        job = client.submit(
            benchmark="perlbench", technique="rrip", config=CONFIG_BODY
        )
        assert client.get(job["id"])["state"] == "queued"
        handle.stop()

        # Life 2 over the same stores: the queued job resumes, runs,
        # and its result is served.
        handle, client = serve(tmp_path)
        try:
            final = client.wait(job["id"], timeout=90.0)
            assert final["state"] == "done"
            assert client.result(job["id"])["benchmark"] == "perlbench"
        finally:
            handle.stop()


@pytest.mark.service(timeout=240)
class TestGoldenBitIdentity:
    def test_service_sweep_equals_serial_cli_sweep(self, tmp_path):
        """The acceptance test: one sweep through the service (queued
        job, parallel workers, shared-memory stream fan-out) against the
        identical sweep run serially through the harness -- the JSON
        bodies must be equal, key for key, bit for bit."""
        benchmarks = ("perlbench",)
        techniques = ("rrip",)

        serial = parallel_single_thread_comparison(
            WorkloadCache(CONFIG), list(techniques), benchmarks, jobs=1
        )
        expected = to_dict(serial)

        handle, client = serve(
            tmp_path, jobs=2,
            stream_cache=tmp_path / "streams", shared_memory=True,
        )
        try:
            job = client.submit(
                benchmarks=list(benchmarks), techniques=list(techniques),
                sweep=True, config=CONFIG_BODY,
            )
            final = client.wait(job["id"], timeout=200.0)
            assert final["state"] == "done", final.get("error", "")
            assert client.result(job["id"]) == expected
            # The parallel path really did fan out through the stream
            # store (the warm-start machinery, not a silent fallback).
            stats = client.stats()
            assert stats["stream_store"]["enabled"]
            assert stats["stream_store"]["shared_memory"]
            # Pooled cells keep the timing their worker measured.
            finished = [
                event for event in client.stream_events(job["id"], follow=False)
                if event["event"] == "cell_finished"
            ]
            assert len(finished) == 2  # baseline + rrip
            assert all(event["wall_seconds"] > 0 for event in finished)
        finally:
            handle.stop()
