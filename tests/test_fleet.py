"""Worker-fleet tests: chaos spec, lease lifecycle, re-dispatch, dedup,
journal recovery, client retry, job quarantine, blob transfer, and the
golden bit-identity guarantee across a worker loss.

Everything here is ``@pytest.mark.fleet`` (run via ``make test-fleet``)
and sits under the conftest hard per-test deadline: a wedged fleet must
fail, never hang the suite.  Coordinator-level tests drive
:class:`FleetCoordinator` directly with ``start=False`` (no monitor
thread, no HTTP) so expiry and recovery are exercised deterministically
by calling ``check_expiry()`` by hand; the end-to-end tests embed a real
server and a real :class:`FleetWorker`.
"""

from __future__ import annotations

import base64
import json
import threading
import time
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest

from repro.harness.checkpoint import result_from_wire, result_to_wire
from repro.harness.export import to_dict
from repro.harness.faults import ChaosRule, ChaosSpec, parse_chaos_spec
from repro.harness.parallel import _run_cell_on, parallel_single_thread_comparison
from repro.harness.runner import ExperimentConfig, WorkloadCache
from repro.service.client import ServiceClient, ServiceError
from repro.service.jobs import JobStore
from repro.service.scheduler import ExperimentScheduler
from repro.service.server import ExperimentServer
from repro.service.worker import FleetWorker
from repro.sim.streamstore import CompiledWorkload, StreamStore

pytestmark = pytest.mark.fleet

CONFIG = ExperimentConfig(scale=16, instructions=10_000, seed=1)


def _complete_ok(coordinator, worker_id, lease, cache=None):
    """Execute every cell of a lease for real and report it completed."""
    cache = cache or WorkloadCache(CONFIG)
    outcomes = []
    for cell in lease["cells"]:
        result = _run_cell_on(cache, (cell["benchmark"], cell["technique"]))
        payload = base64.b64encode(result_to_wire(result)).decode("ascii")
        outcomes.append(
            coordinator.complete(
                worker_id, lease["id"], cell["key"], "ok", result_b64=payload
            )["outcome"]
        )
    return outcomes


@pytest.fixture
def fleet_scheduler(tmp_path):
    """A fleet-mode scheduler with no running threads (tests drive the
    coordinator by hand) and a very small TTL."""
    scheduler = ExperimentScheduler(
        job_store=tmp_path / "service",
        fleet=True,
        lease_ttl=0.2,
        heartbeat_seconds=0.05,
        lease_cells=2,
        start=False,
    )
    yield scheduler
    scheduler.fleet.stop()
    scheduler.close(timeout=5.0)


# ----------------------------------------------------------------------
# chaos spec: the one fault grammar, for sweep pools and fleets alike
# ----------------------------------------------------------------------
class TestChaosSpec:
    def test_parse_defaults_and_fields(self):
        spec = parse_chaos_spec(
            "kill:1@1,hang:0.05,raise:0.1,heartbeat:0.5,slow@2,blob"
        )
        assert spec["kill"] == ChaosRule(1.0, 1)
        assert spec["hang"] == ChaosRule(0.05, None)
        assert spec["raise"] == ChaosRule(0.1, None)
        assert spec["heartbeat"] == ChaosRule(0.5, None)
        # A bare mode means probability 1.0.
        assert spec["slow"] == ChaosRule(1.0, 2)
        assert spec["blob"] == ChaosRule(1.0, None)
        # Empty text and None disable injection.
        assert parse_chaos_spec("") == {}
        assert parse_chaos_spec("  ") == {}
        assert parse_chaos_spec(None) == {}

    # Unknown modes (``crash`` folded into ``kill``), non-numbers and
    # out-of-range probabilities or caps are rejected.
    @pytest.mark.parametrize("bad", ["explode", "explode:0.5", "crash:0.5",
                                     "kill:1.5", "kill:-0.1", "kill:x",
                                     "raise:nan-ish", "hang:1.5",
                                     "kill@0", "kill@x"])
    def test_parse_rejects(self, bad):
        with pytest.raises(ValueError):
            parse_chaos_spec(bad)

    def test_from_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHAOS", "slow:0.25")
        spec = ChaosSpec.from_env()
        assert bool(spec)
        assert spec.rule("slow") == ChaosRule(0.25, None)
        assert spec.rule("kill") is None
        monkeypatch.delenv("REPRO_CHAOS")
        assert not ChaosSpec.from_env()

    def test_fires_is_deterministic_and_respects_attempt_cap(self):
        spec = ChaosSpec.from_env("kill:1@1,slow:0.5")
        assert spec.fires("kill", "mcf/sampler", attempt=1)
        assert not spec.fires("kill", "mcf/sampler", attempt=2)
        draws = [spec.fires("slow", f"cell-{i}", 1) for i in range(200)]
        assert draws == [spec.fires("slow", f"cell-{i}", 1) for i in range(200)]
        assert 0 < sum(draws) < 200  # probability actually thins the draws
        # A re-dispatch redraws: some identity flips between attempts.
        assert any(
            spec.fires("slow", f"cell-{i}", 1) != spec.fires("slow", f"cell-{i}", 2)
            for i in range(200)
        )


# ----------------------------------------------------------------------
# result wire format
# ----------------------------------------------------------------------
class TestResultWire:
    def test_roundtrip_preserves_stats(self):
        result = _run_cell_on(WorkloadCache(CONFIG), ("perlbench", None))
        back = result_from_wire(result_to_wire(result))
        assert back.llc_stats == result.llc_stats
        assert back.llc_hits == result.llc_hits
        assert back.workload == result.workload
        assert back.cache is None and back.observers == ()

    @pytest.mark.parametrize(
        "garbage", [b"", b"not a pickle", b"\x80\x05garbage"]
    )
    def test_rejects_undecodable(self, garbage):
        with pytest.raises(ValueError):
            result_from_wire(garbage)

    def test_rejects_wrong_type(self):
        import pickle

        with pytest.raises(ValueError, match="expected RunResult"):
            result_from_wire(pickle.dumps({"not": "a RunResult"}))


# ----------------------------------------------------------------------
# digest-addressed blob transfer (StreamStore raw IO)
# ----------------------------------------------------------------------
class TestBlobTransfer:
    def _compiled(self, store):
        cache = WorkloadCache(CONFIG, stream_store=store)
        return cache.compiled("perlbench")

    def test_raw_roundtrip_between_stores(self, tmp_path):
        source = StreamStore(tmp_path / "source")
        compiled = self._compiled(source)
        digest = StreamStore.digest_for_key(compiled.key)
        raw = source.load_raw(digest)
        assert raw is not None
        target = StreamStore(tmp_path / "target")
        stored = target.store_raw(raw, digest)
        assert stored.key == compiled.key
        assert target.load(compiled.key) is not None

    def test_store_raw_rejects_torn_and_mismatched(self, tmp_path):
        source = StreamStore(tmp_path / "source")
        compiled = self._compiled(source)
        digest = StreamStore.digest_for_key(compiled.key)
        raw = source.load_raw(digest)
        target = StreamStore(tmp_path / "target")
        with pytest.raises(ValueError):
            target.store_raw(raw[: len(raw) // 3], digest)  # truncated
        with pytest.raises(ValueError, match="digest"):
            target.store_raw(raw, "0" * 64)  # wrong address
        assert not list((tmp_path / "target").glob("*.rsc"))

    def test_path_for_digest_rejects_traversal(self, tmp_path):
        store = StreamStore(tmp_path / "s")
        assert store.path_for_digest("../../etc/passwd") is None
        assert store.path_for_digest("ABC") is None
        assert store.load_raw("..%2f..") is None
        assert store.path_for_digest("a" * 64) is not None


# ----------------------------------------------------------------------
# lease lifecycle: grant -> renew -> expire -> re-dispatch -> dedup
# ----------------------------------------------------------------------
class TestLeaseLifecycle:
    def test_full_cycle(self, fleet_scheduler):
        scheduler = fleet_scheduler
        coordinator = scheduler.fleet
        job = scheduler.submit(CONFIG, ["perlbench"], ["sampler"], sweep=True)
        assert job.state == "queued"

        grant = coordinator.register(name="w1", pid=123)
        worker_id = grant["worker_id"]
        assert grant["lease_ttl"] == pytest.approx(0.2)

        # Grant: lease_cells bounds the batch; each cell carries its key
        # and dispatch attempt.
        response = coordinator.lease(worker_id)
        lease = response["lease"]
        assert lease is not None and len(lease["cells"]) == 2
        assert all(cell["attempt"] == 1 for cell in lease["cells"])
        assert response["outstanding"] == 2

        # Heartbeat renewal pushes expiry out and flags unknown leases.
        before = coordinator._leases[lease["id"]].expires_at
        time.sleep(0.05)
        beat = coordinator.heartbeat(worker_id, [lease["id"], "lease-bogus"])
        assert coordinator._leases[lease["id"]].expires_at > before
        assert beat["unknown_leases"] == ["lease-bogus"]

        # Expiry: let the TTL lapse, scan, and the cells re-dispatch.
        time.sleep(0.25)
        assert coordinator.check_expiry() >= 1
        assert lease["id"] not in coordinator._leases
        stats = coordinator.stats()
        assert stats["cells"]["redispatched"] == 2
        assert stats["leases"]["expired"] == 1

        # Re-dispatch: the same cells come back with attempt == 2.
        retry = coordinator.lease(worker_id)["lease"]
        assert retry is not None
        assert sorted(c["key"] for c in retry["cells"]) == sorted(
            c["key"] for c in lease["cells"]
        )
        assert all(cell["attempt"] == 2 for cell in retry["cells"])

        # Complete for real; the late echo of the *old* lease's cells is
        # deduplicated, not double-counted.  (A one-technique sweep is
        # exactly these two cells: the LRU baseline plus the technique.)
        cache = WorkloadCache(CONFIG)
        assert _complete_ok(coordinator, worker_id, retry, cache) == [
            "accepted", "accepted",
        ]
        assert _complete_ok(coordinator, worker_id, lease, cache) == [
            "duplicate", "duplicate",
        ]

        assert scheduler.get(job.id).state == "done"
        stats = coordinator.stats()
        assert stats["cells"]["completed"] == 2
        assert stats["cells"]["duplicate_completions"] == 2
        assert coordinator.lease(worker_id)["lease"] is None

    def test_worker_failure_report_requeues_then_fails(self, fleet_scheduler):
        scheduler = fleet_scheduler
        coordinator = scheduler.fleet
        job = scheduler.submit(CONFIG, ["perlbench"], [], sweep=False)
        grant = coordinator.register(name="w1")
        worker_id = grant["worker_id"]
        attempts = 0
        while True:
            lease = coordinator.lease(worker_id)["lease"]
            if lease is None:
                break
            attempts += 1
            outcome = coordinator.complete(
                worker_id, lease["id"], lease["cells"][0]["key"],
                "error", error="boom",
            )["outcome"]
            if outcome == "failed":
                break
            assert outcome == "requeued"
        # max_retries=2 (the FaultPolicy default): three dispatches total.
        assert attempts == 3
        assert scheduler.get(job.id).state == "failed"
        assert "boom" in scheduler.get(job.id).error

    def test_deregister_requeues_immediately(self, fleet_scheduler):
        scheduler = fleet_scheduler
        coordinator = scheduler.fleet
        scheduler.submit(CONFIG, ["perlbench"], ["sampler"], sweep=True)
        worker_id = coordinator.register(name="leaver")["worker_id"]
        lease = coordinator.lease(worker_id)["lease"]
        assert lease is not None
        out = coordinator.deregister(worker_id)
        assert out["requeued_cells"] == len(lease["cells"])
        # No TTL wait: the cells are immediately grantable to another
        # worker, and the departed worker is forgotten (404 -> KeyError).
        other = coordinator.register(name="next")["worker_id"]
        assert coordinator.lease(other)["lease"] is not None
        with pytest.raises(KeyError):
            coordinator.lease(worker_id)

    def test_silent_worker_is_declared_dead(self, fleet_scheduler):
        coordinator = fleet_scheduler.fleet
        fleet_scheduler.submit(CONFIG, ["perlbench"], [], sweep=False)
        worker_id = coordinator.register(name="silent")["worker_id"]
        assert coordinator.lease(worker_id)["lease"] is not None
        time.sleep(0.3)  # past max(lease_ttl, 3*heartbeat) with no contact
        coordinator.check_expiry()
        stats = coordinator.stats()
        assert stats["workers"]["lost"] == 1
        assert stats["workers"]["states"].get("dead") == 1
        # Contact revives: the worker polls again and is alive once more.
        assert coordinator.lease(worker_id)["lease"] is not None


# ----------------------------------------------------------------------
# write-ahead lease journal
# ----------------------------------------------------------------------
class TestLeaseJournal:
    def test_restart_recovers_outstanding_leases(self, tmp_path):
        root = tmp_path / "service"
        first = ExperimentScheduler(
            job_store=root, fleet=True, lease_ttl=30.0, lease_cells=2,
            start=False,
        )
        job_id = first.submit(CONFIG, ["perlbench"], ["sampler"], sweep=True).id
        worker_id = first.fleet.register(name="w1")["worker_id"]
        lease = first.fleet.lease(worker_id)["lease"]
        assert lease is not None
        journal = json.loads((root / "leases.json").read_text())
        assert [rec["id"] for rec in journal["leases"]] == [lease["id"]]
        first.fleet.stop()  # simulate a crash: no drain, no completion

        second = ExperimentScheduler(
            job_store=root, fleet=True, lease_ttl=0.2, lease_cells=2,
            start=False,
        )
        try:
            stats = second.fleet.stats()
            assert stats["leases"]["recovered"] == 1
            assert stats["leases"]["active"] == 1
            # The surviving worker's id is honored across the restart...
            beat = second.fleet.heartbeat(worker_id, [lease["id"]])
            assert beat["unknown_leases"] == []
            # ...and if it never comes back, expiry re-dispatches as usual.
            time.sleep(0.25)
            assert second.fleet.check_expiry() >= 1
            retry = second.fleet.lease(
                second.fleet.register(name="w2")["worker_id"]
            )["lease"]
            assert retry is not None
            # Journal attempts survive: the re-dispatch is attempt 2.
            assert all(cell["attempt"] == 2 for cell in retry["cells"])
            assert second.get(job_id).state in ("queued", "running")
        finally:
            second.fleet.stop()
            second.close(timeout=5.0)

    def test_corrupt_journal_is_ignored(self, tmp_path):
        root = tmp_path / "service"
        root.mkdir(parents=True)
        (root / "leases.json").write_text("{ torn json", encoding="utf-8")
        scheduler = ExperimentScheduler(
            job_store=root, fleet=True, start=False
        )
        try:
            assert scheduler.fleet.stats()["leases"]["recovered"] == 0
        finally:
            scheduler.fleet.stop()
            scheduler.close(timeout=5.0)


# ----------------------------------------------------------------------
# client retry policy
# ----------------------------------------------------------------------
class _FlakyHandler(BaseHTTPRequestHandler):
    """Answers 503 (with Retry-After) a configured number of times, then
    200 with an empty JSON object."""

    failures_left = 2
    seen = 0

    def do_GET(self):  # noqa: N802 (stdlib naming)
        cls = type(self)
        cls.seen += 1
        if cls.failures_left > 0:
            cls.failures_left -= 1
            body = b'{"error": "draining"}\n'
            self.send_response(503)
            self.send_header("Retry-After", "0.01")
        else:
            body = b'{"status": "ok"}\n'
            self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


@pytest.fixture
def flaky_server():
    _FlakyHandler.failures_left = 2
    _FlakyHandler.seen = 0
    httpd = HTTPServer(("127.0.0.1", 0), _FlakyHandler)
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{httpd.server_port}"
    httpd.shutdown()
    thread.join(timeout=10.0)


class TestClientRetry:
    def test_retries_503_honoring_retry_after(self, flaky_server):
        client = ServiceClient(flaky_server, max_retries=3, backoff=0.01)
        assert client.healthz() == {"status": "ok"}
        assert client.retries_performed == 2
        assert _FlakyHandler.seen == 3

    def test_max_retries_zero_is_an_escape_hatch(self, flaky_server):
        client = ServiceClient(flaky_server, max_retries=0)
        with pytest.raises(ServiceError) as excinfo:
            client.healthz()
        assert excinfo.value.status == 503
        assert excinfo.value.retry_after == pytest.approx(0.01)
        assert _FlakyHandler.seen == 1

    def test_gives_up_after_budget(self, flaky_server):
        _FlakyHandler.failures_left = 99
        client = ServiceClient(flaky_server, max_retries=2, backoff=0.01)
        with pytest.raises(ServiceError) as excinfo:
            client.stats()
        assert excinfo.value.status == 503
        assert _FlakyHandler.seen == 3  # 1 try + 2 retries, no more

    def test_retries_connection_refused(self):
        # Grab a port nobody is listening on.
        import socket

        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        client = ServiceClient(
            f"http://127.0.0.1:{port}", max_retries=1, backoff=0.01
        )
        with pytest.raises(OSError):
            client.healthz()
        assert client.retries_performed == 1

    def test_non_retryable_status_is_not_retried(self, flaky_server):
        _FlakyHandler.failures_left = 0
        client = ServiceClient(flaky_server, max_retries=3)
        client.healthz()
        assert client.retries_performed == 0


# ----------------------------------------------------------------------
# job quarantine
# ----------------------------------------------------------------------
class TestJobQuarantine:
    def test_resume_quarantines_corrupt_records(self, tmp_path, capsys):
        store = JobStore(tmp_path)
        from repro.service.jobs import Job

        good = Job.new("cell", "c", 0, CONFIG, ["perlbench"], [],
                       [("perlbench", None)])
        store.save(good)
        torn = store.path("job-torn")
        torn.write_text('{"id": "job-torn", "kind"', encoding="utf-8")
        jobs = store.resume()
        assert [job.id for job in jobs] == [good.id]
        assert store.quarantined_count == 1
        assert (store.corrupt_dir / "job-torn.json").exists()
        assert not torn.exists()
        assert "quarantined" in capsys.readouterr().err
        # A second resume neither re-trips nor double-counts.
        store.resume()
        assert store.quarantined_count == 1

    def test_healthz_surfaces_quarantine_count(self, tmp_path):
        scheduler = ExperimentScheduler(
            job_store=tmp_path / "service", start=False
        )
        bad = scheduler.job_store.path("job-bad")
        bad.write_text("no json here", encoding="utf-8")
        scheduler.job_store.resume()
        handle = ExperimentServer(scheduler, port=0).start_in_thread()
        try:
            health = ServiceClient(
                f"http://127.0.0.1:{handle.port}"
            ).healthz()
            assert health["quarantined_jobs"] == 1
            assert "fleet_workers_alive" not in health  # fleet off
        finally:
            handle.stop()


# ----------------------------------------------------------------------
# end-to-end: HTTP fleet, blob chaos, and golden bit-identity
# ----------------------------------------------------------------------
def _fleet_server(tmp_path, **overrides):
    kwargs = dict(
        job_store=tmp_path / "service",
        stream_cache=tmp_path / "streams",
        fleet=True,
        lease_ttl=0.5,
        heartbeat_seconds=0.1,
        lease_cells=2,
    )
    kwargs.update(overrides)
    scheduler = ExperimentScheduler(**kwargs)
    return ExperimentServer(scheduler, port=0).start_in_thread()


class TestFleetOverHttp:
    def test_fleet_routes_404_when_disabled(self, tmp_path):
        scheduler = ExperimentScheduler(
            job_store=tmp_path / "service", start=False
        )
        handle = ExperimentServer(scheduler, port=0).start_in_thread()
        try:
            client = ServiceClient(
                f"http://127.0.0.1:{handle.port}", max_retries=0
            )
            with pytest.raises(ServiceError) as excinfo:
                client.fleet_register(name="w")
            assert excinfo.value.status == 404
            assert "fleet mode disabled" in excinfo.value.message
            with pytest.raises(ServiceError) as excinfo:
                client.fetch_blob("a" * 64)
            assert excinfo.value.status == 404
        finally:
            handle.stop()

    @pytest.mark.fleet(timeout=240)
    def test_blob_chaos_truncation_detected_and_retried(
        self, tmp_path, monkeypatch
    ):
        handle = _fleet_server(tmp_path)
        try:
            # Prime the server's store with the blob workers will want.
            server_store = handle.scheduler.stream_store
            compiled = WorkloadCache(
                CONFIG, stream_store=server_store
            ).compiled("perlbench")
            digest = StreamStore.digest_for_key(compiled.key)
            url = f"http://127.0.0.1:{handle.port}"

            # First attempt is chaos-truncated and must fail decode...
            monkeypatch.setenv("REPRO_CHAOS", "blob:1@1")
            client = ServiceClient(url)
            torn = client.fetch_blob(digest, attempt=1)
            with pytest.raises(ValueError):
                CompiledWorkload.from_buffer(torn)
            # ...while the worker's bounded-retry fetch path survives it:
            # attempt 1 torn, attempt 2 clean, verified, and persisted.
            worker = FleetWorker(
                url, name="fetcher", client=client,
                stream_cache=StreamStore(tmp_path / "worker-streams"),
            )
            fetched = worker._fetch_blob(digest, "perlbench")
            assert fetched is not None and fetched.key == compiled.key
            assert worker.stats["blob_torn_transfers"] == 1
            assert worker.stream_store.load(compiled.key) is not None

            # Permanent truncation exhausts retries -> local compile path.
            monkeypatch.setenv("REPRO_CHAOS", "blob:1")
            broken = FleetWorker(url, name="fallback", client=client)
            assert broken._fetch_blob(digest, "perlbench") is None
            assert broken.stats["blob_torn_transfers"] == broken.blob_retries

            stats = handle.scheduler.fleet.stats()
            assert stats["blobs"]["chaos_truncated"] >= 4
        finally:
            monkeypatch.delenv("REPRO_CHAOS", raising=False)
            handle.stop()

    @pytest.mark.fleet(timeout=240)
    def test_golden_bit_identity_across_worker_loss(self, tmp_path):
        serial = parallel_single_thread_comparison(
            WorkloadCache(CONFIG), ["sampler", "rrip"], ("perlbench",), jobs=1
        )
        expected = to_dict(serial)

        handle = _fleet_server(tmp_path)
        try:
            url = f"http://127.0.0.1:{handle.port}"
            client = ServiceClient(url)
            job = client.submit(
                client="golden",
                benchmarks=["perlbench"], techniques=["sampler", "rrip"],
                sweep=True,
                config={
                    "scale": CONFIG.scale,
                    "instructions": CONFIG.instructions,
                    "seed": CONFIG.seed,
                    "cores": CONFIG.num_cores,
                },
            )
            # A ghost worker grabs the first lease and vanishes without
            # ever completing or heartbeating -- the in-process stand-in
            # for a kill -9.  Its lease must expire and re-dispatch.
            coordinator = handle.scheduler.fleet
            ghost = coordinator.register(name="ghost")["worker_id"]
            assert coordinator.lease(ghost)["lease"] is not None

            worker = FleetWorker(
                url, name="survivor", once=True,
                stream_cache=StreamStore(tmp_path / "worker-streams"),
            )
            thread = threading.Thread(target=worker.run, daemon=True)
            thread.start()
            try:
                final = client.wait(job["id"], timeout=180.0)
                assert final["state"] == "done", final.get("error")
                assert client.result(job["id"]) == expected
            finally:
                worker.stop()
                thread.join(timeout=30.0)
            assert not thread.is_alive()

            fleet = client.stats()["fleet"]
            assert fleet["cells"]["redispatched"] >= 1
            assert fleet["leases"]["expired"] >= 1
            assert fleet["cells"]["completed"] == 3
            assert worker.stats["blob_local_hits"] + worker.stats[
                "blob_fetches"
            ] >= 1  # the sweep's workload arrived via the blob protocol
        finally:
            handle.stop()
