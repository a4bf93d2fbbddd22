"""Golden bit-identity for the compiled workload store at sweep level.

The store and the shared-memory fan-out are pure transport: every mode
-- store off, store cold, store warm, parallel, parallel + shm -- must
produce byte-for-byte the same hit/miss counters, per-access hit lists,
and IPC as a plain serial sweep that prepares every workload from
scratch.  These tests pin that, plus the provenance trail (manifest
``stream_store`` summary and per-cell hit/miss counters) that proves the
warm path was actually taken.
"""

from __future__ import annotations

import pytest

from repro.harness.experiments import comparison_cells, single_thread_comparison
from repro.harness.parallel import parallel_single_thread_comparison, sweep
from repro.harness.runner import ExperimentConfig, WorkloadCache
from repro.sim.streamstore import StreamStore
from repro.telemetry.manifest import RunManifest
from repro.workloads import MIXES

TINY = ExperimentConfig(scale=32, instructions=20_000, seed=3)
BENCHMARKS = ("perlbench", "mcf")
TECHNIQUE_KEYS = ("rrip",)


@pytest.fixture(autouse=True)
def _isolate_store_env(monkeypatch):
    """Keep ambient REPRO_* store knobs out of these tests."""
    for name in ("REPRO_STREAM_CACHE", "REPRO_SHM", "REPRO_STREAM_REQUIRE"):
        monkeypatch.delenv(name, raising=False)


@pytest.fixture(scope="module")
def reference():
    """The golden serial sweep, prepared from scratch with no store."""
    return single_thread_comparison(WorkloadCache(TINY), TECHNIQUE_KEYS, BENCHMARKS)


def assert_bit_identical(reference, comparison):
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


def run_sweep(tmp_path, tag, **kwargs):
    manifest_path = tmp_path / f"{tag}-manifest.json"
    comparison = parallel_single_thread_comparison(
        TINY, TECHNIQUE_KEYS, BENCHMARKS,
        manifest_path=str(manifest_path), **kwargs,
    )
    return comparison, RunManifest.load(str(manifest_path))


def cell_counter(manifest, counter):
    return sum(cell.get(counter, 0) for cell in manifest["cells"].values())


class TestSerialStorePath:
    def test_cold_sweep_populates_store_and_matches(self, reference, tmp_path):
        store = StreamStore(tmp_path / "store")
        comparison, manifest = run_sweep(tmp_path, "cold", jobs=1, stream_cache=store)
        assert_bit_identical(reference, comparison)
        assert len(store) == len(BENCHMARKS)
        summary = manifest["stream_store"]
        assert summary["shared_memory"] is False
        assert summary["misses"] == len(BENCHMARKS)
        assert summary["hits"] == 0

    def test_warm_sweep_loads_without_compiling(
        self, reference, tmp_path, monkeypatch
    ):
        store = StreamStore(tmp_path / "store")
        run_sweep(tmp_path, "prime", jobs=1, stream_cache=store)
        # REPRO_STREAM_REQUIRE turns any cold compile into a hard error,
        # so a passing warm sweep *proves* every workload came off disk.
        monkeypatch.setenv("REPRO_STREAM_REQUIRE", "1")
        comparison, manifest = run_sweep(tmp_path, "warm", jobs=1, stream_cache=store)
        assert_bit_identical(reference, comparison)
        summary = manifest["stream_store"]
        assert summary["hits"] == len(BENCHMARKS)
        assert summary["misses"] == 0

    def test_store_off_is_unchanged(self, reference, tmp_path):
        comparison, manifest = run_sweep(tmp_path, "off", jobs=1)
        assert_bit_identical(reference, comparison)
        assert manifest["stream_store"] is None


@pytest.mark.faults
class TestParallelStorePath:
    """Real spawn pools; marked ``faults`` for the hard per-test deadline."""

    def test_parallel_store_bit_identical(self, reference, tmp_path):
        store = StreamStore(tmp_path / "store")
        comparison, manifest = run_sweep(
            tmp_path, "par", jobs=2, stream_cache=store
        )
        assert_bit_identical(reference, comparison)
        summary = manifest["stream_store"]
        assert summary["shared_memory"] is False
        assert summary["workloads"] == sorted(BENCHMARKS)
        # The parent compiled both workloads cold; the workers then read
        # them back from the store and never compiled anything.
        assert summary["misses"] == len(BENCHMARKS)
        assert cell_counter(manifest, "store_misses") == 0
        assert cell_counter(manifest, "store_hits") >= 1
        for cell in manifest["cells"].values():
            assert "store_hits" in cell and "store_misses" in cell
            for key in (
                "replay_index_builds", "prediction_plane_builds", "timing_plan_builds",
            ):
                assert cell[key] in (0, 1)
        # Each worker builds a workload's index at most once, and at
        # least one worker builds each workload's.
        index_builds = cell_counter(manifest, "replay_index_builds")
        assert len(BENCHMARKS) <= index_builds <= 2 * len(BENCHMARKS)

    def test_parallel_shm_attach_without_recompile(
        self, reference, tmp_path, monkeypatch
    ):
        store = StreamStore(tmp_path / "store")
        run_sweep(tmp_path, "prime", jobs=1, stream_cache=store)
        # Workers inherit the environment, so REPRO_STREAM_REQUIRE makes
        # any worker-side build_trace/prepare abort its cell: completion
        # proves every worker attached the parent's segments instead.
        monkeypatch.setenv("REPRO_STREAM_REQUIRE", "1")
        comparison, manifest = run_sweep(
            tmp_path, "shm", jobs=2, stream_cache=store, shared_memory=True
        )
        assert_bit_identical(reference, comparison)
        summary = manifest["stream_store"]
        assert summary["shared_memory"] is True
        assert summary["misses"] == 0  # parent loaded the primed store
        assert cell_counter(manifest, "store_misses") == 0
        assert cell_counter(manifest, "store_hits") >= len(BENCHMARKS)

    def test_shm_alone_without_disk_store(self, reference, tmp_path):
        comparison, manifest = run_sweep(
            tmp_path, "shm-only", jobs=2, shared_memory=True
        )
        assert_bit_identical(reference, comparison)
        summary = manifest["stream_store"]
        assert summary["root"] is None
        assert summary["shared_memory"] is True
        assert cell_counter(manifest, "store_misses") == 0

    def test_pooled_mix_cells_start_warm(self, tmp_path):
        # A mix is its members: the parent compiles each member once and
        # the workers attach them, so no mix cell builds a workload.
        mixes = ("mix1", "mix5")
        cells = comparison_cells(mixes, TECHNIQUE_KEYS)
        serial, _ = sweep(WorkloadCache(TINY), cells, jobs=1)
        manifest_path = str(tmp_path / "mix-manifest.json")
        pooled, _ = sweep(
            TINY, cells, jobs=2, shared_memory=True, manifest_path=manifest_path
        )
        manifest = RunManifest.load(manifest_path)
        summary = manifest["stream_store"]
        assert summary["shared_memory"] is True
        assert summary["workloads"] == sorted({m for mix in mixes for m in MIXES[mix]})
        assert len(manifest["cells"]) == len(cells)
        for label, cell in manifest["cells"].items():
            assert cell["store_misses"] == 0, label
        for cell in cells:
            mine, theirs = serial[cell], pooled[cell]
            assert mine.llc_stats.snapshot() == theirs.llc_stats.snapshot()
            assert (mine.ipcs, mine.single_ipcs) == (theirs.ipcs, theirs.single_ipcs)
