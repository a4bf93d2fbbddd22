"""Workload leases in the local sweep pool.

A pooled sweep hands each worker the cells of one workload, so the
workload's replay index, prediction plane and timing plan -- built on
first use and cached in the worker -- serve every cell of it.  These
tests pin the picker (:func:`repro.harness.faults.next_lease`), the
per-cell build counters every timing record carries, a round's width
after a worker dies, and, on real ``spawn`` pools, bit-identity with
the serial sweep with fewer builds than one per worker and workload.
"""

from __future__ import annotations

import json
import queue
import threading
import time

import pytest

from repro.harness.experiments import single_thread_comparison
from repro.harness.faults import FaultPolicy, _lease_round, next_lease
from repro.harness.parallel import _run_cell_timed, parallel_single_thread_comparison
from repro.harness.runner import ExperimentConfig, WorkloadCache
from repro.telemetry.manifest import RunManifest

#: Figure 4's workloads and a technique subset that keeps the pool
#: tests short: an array-kernel policy and the sampler (the one
#: technique that reads the prediction plane).
BENCHMARKS = ("mcf", "omnetpp", "libquantum", "hmmer")
TECHNIQUE_KEYS = ("rrip", "sampler")
SMALL = ExperimentConfig(scale=16, instructions=20_000)

BUILD_KEYS = ("replay_index_builds", "prediction_plane_builds", "timing_plan_builds")


class TestNextLease:
    def test_keeps_the_held_workload_while_it_has_cells(self):
        backlog = {"mcf": 1, "omnetpp": 5}
        assert next_lease("mcf", backlog, leased={"omnetpp"}) == "mcf"
        assert next_lease("mcf", backlog, leased=set()) == "mcf"

    def test_leases_the_fullest_unleased_workload(self):
        backlog = {"mcf": 0, "omnetpp": 2, "libquantum": 4, "hmmer": 7}
        # hmmer is fuller but held by another worker.
        assert next_lease("mcf", backlog, leased={"hmmer"}) == "libquantum"
        assert next_lease(None, backlog, leased=set()) == "hmmer"

    def test_steals_from_the_fullest_leased_workload(self):
        backlog = {"mcf": 0, "omnetpp": 2, "libquantum": 3}
        assert next_lease("mcf", backlog, leased={"omnetpp", "libquantum"}) == "libquantum"

    def test_ties_go_to_the_earlier_workload(self):
        assert next_lease(None, {"a": 3, "b": 3}, leased=set()) == "a"
        assert next_lease(None, {"a": 3, "b": 3}, leased={"a"}) == "b"
        assert next_lease("c", {"a": 2, "b": 2, "c": 0}, leased={"a", "b"}) == "a"

    def test_none_when_no_cell_is_left(self):
        assert next_lease("mcf", {"mcf": 0, "hmmer": 0}, leased={"hmmer"}) is None
        assert next_lease(None, {}, leased=set()) is None


class TestCellBuilds:
    def test_first_cell_builds_and_later_cells_reuse(self):
        # The in-process executor of serial sweeps, serial degradation
        # and fleet workers.
        cache = WorkloadCache(SMALL)
        _, first = _run_cell_timed(cache, ("mcf", None))
        _, second = _run_cell_timed(cache, ("mcf", "rrip"))
        _, sampler = _run_cell_timed(cache, ("mcf", "sampler"))
        assert [first[key] for key in BUILD_KEYS] == [1, 0, 1]
        assert [second[key] for key in BUILD_KEYS] == [0, 0, 0]
        # The sampler reads the plane; the index and plan are reused.
        assert [sampler[key] for key in BUILD_KEYS] == [0, 1, 0]

    def test_serial_sweep_manifest_records_builds(self, tmp_path):
        path = tmp_path / "manifest.json"
        parallel_single_thread_comparison(
            SMALL, TECHNIQUE_KEYS, ("mcf",), jobs=1, manifest_path=str(path)
        )
        cells = RunManifest.load(str(path))["cells"]
        assert cells["mcf/lru(baseline)"]["replay_index_builds"] == 1
        assert cells["mcf/sampler"]["prediction_plane_builds"] == 1
        assert sum(cell["timing_plan_builds"] for cell in cells.values()) == 1


class _Proc:
    def __init__(self, pid: int) -> None:
        self.pid = pid


class _ThreadPool:
    """A stand-in for ``multiprocessing.Pool`` whose workers are threads
    with made-up pids.

    A worker that draws a cell in ``kill`` dies with it: it never
    reports, and its slot takes a fresh pid, as the pool replaces a dead
    process with a new one.  ``widths`` records how many cells were
    running each time one started, and whether a worker had died by
    then.
    """

    def __init__(self, workers: int, kill, seconds: float) -> None:
        self._pool = [_Proc(1000 + slot) for slot in range(workers)]
        self.kill = set(kill)
        self.seconds = seconds
        self.widths = []
        self._running = 0
        self._deaths = 0
        self._fresh_pid = 2000
        self._lock = threading.Lock()
        self._tasks: "queue.Queue" = queue.Queue()
        self._threads = [
            threading.Thread(target=self._serve, args=(slot,), daemon=True)
            for slot in range(workers)
        ]
        for thread in self._threads:
            thread.start()

    def apply_async(self, worker, args, callback=None, error_callback=None):
        self._tasks.put((args[0], callback))

    def _serve(self, slot: int) -> None:
        while True:
            item = self._tasks.get()
            if item is None:
                return
            (benchmark, key, _attempt, _timeout), callback = item
            with self._lock:
                self._running += 1
                self.widths.append((self._running, self._deaths > 0))
                pid = self._pool[slot].pid
            time.sleep(self.seconds)
            with self._lock:
                self._running -= 1
                if (benchmark, key) in self.kill:
                    self._deaths += 1
                    self._pool[slot] = _Proc(self._fresh_pid)
                    self._fresh_pid += 1
                    continue
            callback((benchmark, key, "ok", None, None, pid))

    def close(self) -> None:
        for _ in self._threads:
            self._tasks.put(None)
        for thread in self._threads:
            thread.join()


class TestLeaseRound:
    def test_round_stays_wide_after_a_worker_dies(self):
        cells = [(workload, key) for workload in "ab" for key in range(6)]
        killed = ("a", 0)
        pool = _ThreadPool(2, kill=[killed], seconds=0.03)
        reports = []
        start = time.monotonic()
        try:
            _lease_round(
                pool, None, cells, 1, None, 30.0,
                lambda cell, status, payload, timing: reports.append(cell),
            )
        finally:
            pool.close()
        # Every other cell reported once; the lost one never did, and
        # the round ended without waiting out its 30 s watchdog.
        assert sorted(reports) == sorted(set(cells) - {killed})
        assert time.monotonic() - start < 10.0
        # The replacement worker took a cell: after the death, two cells
        # ran at once again.
        assert max(width for width, after in pool.widths if after) == 2


def _assert_bit_identical(reference, comparison):
    assert not comparison.is_partial
    for benchmark in BENCHMARKS:
        assert (
            reference.baseline[benchmark].llc_stats.snapshot()
            == comparison.baseline[benchmark].llc_stats.snapshot()
        )
        assert reference.baseline[benchmark].ipc == comparison.baseline[benchmark].ipc
        for key in TECHNIQUE_KEYS:
            mine = reference.results[benchmark][key]
            theirs = comparison.results[benchmark][key]
            assert mine.llc_stats.snapshot() == theirs.llc_stats.snapshot()
            assert mine.llc_hits == theirs.llc_hits
            assert mine.ipc == theirs.ipc


@pytest.fixture(scope="module")
def serial():
    return single_thread_comparison(WorkloadCache(SMALL), TECHNIQUE_KEYS, BENCHMARKS)


@pytest.mark.faults
class TestLeasedPool:
    """Real spawn pools; marked ``faults`` for the hard per-test deadline."""

    def test_two_jobs_match_serial_with_fewer_builds(self, serial, tmp_path):
        path = tmp_path / "manifest.json"
        comparison = parallel_single_thread_comparison(
            SMALL, TECHNIQUE_KEYS, BENCHMARKS, jobs=2, shared_memory=True,
            manifest_path=str(path),
        )
        _assert_bit_identical(serial, comparison)
        cells = RunManifest.load(str(path))["cells"]
        assert len(cells) == len(BENCHMARKS) * (len(TECHNIQUE_KEYS) + 1)
        # Without leases both workers touch every workload: 8 builds.
        for key in ("replay_index_builds", "timing_plan_builds"):
            builds = sum(cell[key] for cell in cells.values())
            assert len(BENCHMARKS) <= builds < 2 * len(BENCHMARKS)

    def test_killed_workers_recover_bit_identically(
        self, serial, monkeypatch, tmp_path
    ):
        # About half the first attempts die mid-round; their cells rerun
        # in the next round, and no cell is degraded to serial.
        monkeypatch.setenv("REPRO_CHAOS", "kill:0.5@1")
        events = tmp_path / "events.ndjson"
        comparison = parallel_single_thread_comparison(
            SMALL, TECHNIQUE_KEYS, BENCHMARKS, jobs=2,
            fault_policy=FaultPolicy(max_retries=1, backoff=0.0, watchdog=60.0),
            events_file=str(events),
        )
        _assert_bit_identical(serial, comparison)
        kinds = [json.loads(line)["event"] for line in events.read_text().splitlines()]
        assert "cell_retried" in kinds
        assert "sweep_degraded" not in kinds
