"""The process-parallel sweep runner and its environment knobs.

The load-bearing promise of :mod:`repro.harness.parallel` is that a
parallel sweep is *bit-identical* to the serial one; the tests here pin
that on a small budget -- for the CLI sweep and for every figure
function -- along with the run manifest every figure writes, up-front
technique validation, job-count resolution and the ``REPRO_CORES`` /
``REPRO_JOBS`` environment overrides.
"""

from __future__ import annotations

import pytest

from repro.harness.parallel import (
    parallel_single_thread_comparison,
    resolve_jobs,
)
from repro.harness.runner import ExperimentConfig, WorkloadCache
from repro.harness.experiments import multicore_comparison, single_thread_comparison
from repro.harness.techniques import TECHNIQUES
from repro.telemetry.manifest import RunManifest
from tests.test_figure_goldens import FIGURES, digest, figure_output, tiny_config

BENCHMARKS = ("perlbench", "mcf")
TECHNIQUE_KEYS = ("rrip",)
SMALL = ExperimentConfig(instructions=30_000)


class TestResolveJobs:
    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert resolve_jobs() == 1

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "3")
        assert resolve_jobs() == 3

    def test_argument_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "3")
        assert resolve_jobs(5) == 5

    @pytest.mark.parametrize("raw", ["0", "-2", "two", "", "2.5", "0x4"])
    def test_invalid_settings_rejected(self, monkeypatch, raw):
        monkeypatch.setenv("REPRO_JOBS", raw)
        with pytest.raises(ValueError):
            resolve_jobs()

    def test_error_names_the_variable_and_value(self, monkeypatch):
        # An empty or garbled setting (e.g. REPRO_JOBS= in a CI file)
        # must say what was wrong, not surface a bare int() failure.
        monkeypatch.setenv("REPRO_JOBS", "")
        with pytest.raises(ValueError, match=r"REPRO_JOBS.*''"):
            resolve_jobs()

    def test_surrounding_whitespace_tolerated(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "  4 ")
        assert resolve_jobs() == 4

    def test_invalid_argument_rejected(self):
        with pytest.raises(ValueError):
            resolve_jobs(0)


class TestExperimentConfigEnv:
    def test_repro_cores_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_CORES", "2")
        assert ExperimentConfig.from_env().num_cores == 2

    def test_repro_cores_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_CORES", raising=False)
        assert ExperimentConfig.from_env().num_cores == 4

    def test_repro_cores_invalid(self, monkeypatch):
        monkeypatch.setenv("REPRO_CORES", "0")
        with pytest.raises(ValueError):
            ExperimentConfig.from_env()


class TestParallelComparison:
    def test_serial_path_reuses_workload_cache(self):
        cache = WorkloadCache(SMALL)
        comparison = parallel_single_thread_comparison(
            cache, TECHNIQUE_KEYS, BENCHMARKS, jobs=1
        )
        assert comparison.benchmarks == BENCHMARKS
        # jobs=1 runs in-process: the passed cache now holds the workloads.
        assert cache._filtered

    def test_parallel_matches_serial_bit_identically(self):
        serial = single_thread_comparison(
            WorkloadCache(SMALL), TECHNIQUE_KEYS, BENCHMARKS
        )
        parallel = parallel_single_thread_comparison(
            SMALL, TECHNIQUE_KEYS, BENCHMARKS, jobs=2
        )
        for benchmark in BENCHMARKS:
            serial_base = serial.baseline[benchmark]
            parallel_base = parallel.baseline[benchmark]
            assert (
                serial_base.llc_stats.snapshot()
                == parallel_base.llc_stats.snapshot()
            )
            assert serial_base.ipc == parallel_base.ipc
            for key in TECHNIQUE_KEYS:
                mine = serial.results[benchmark][key]
                theirs = parallel.results[benchmark][key]
                assert mine.llc_stats.snapshot() == theirs.llc_stats.snapshot()
                assert mine.llc_hits == theirs.llc_hits
                assert mine.ipc == theirs.ipc
                assert mine.instructions == theirs.instructions

    def test_env_jobs_drives_fanout(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "2")
        comparison = parallel_single_thread_comparison(
            SMALL, TECHNIQUE_KEYS, BENCHMARKS
        )
        assert set(comparison.results) == set(BENCHMARKS)
        for benchmark in BENCHMARKS:
            result = comparison.results[benchmark][TECHNIQUE_KEYS[0]]
            # Results crossed the process boundary stripped of the cache.
            assert result.cache is None
            assert result.llc_stats.accesses > 0

    def test_unknown_technique_rejected_up_front(self):
        # Typos must fail before any replay begins, with a closest-match
        # suggestion and the valid vocabulary -- not as a KeyError from
        # inside a worker process minutes into the sweep.
        with pytest.raises(
            ValueError,
            match=r"unknown technique 'sampelr'.*did you mean 'sampler'.*registered:.*rrip",
        ):
            parallel_single_thread_comparison(
                SMALL, ("rrip", "sampelr"), BENCHMARKS, jobs=1
            )

    def test_complete_sweep_reports_no_failures(self):
        comparison = parallel_single_thread_comparison(
            SMALL, TECHNIQUE_KEYS, BENCHMARKS, jobs=1
        )
        assert not comparison.is_partial
        assert comparison.failures == ()
        assert comparison.failure_report() == ""


@pytest.mark.parametrize("figure", FIGURES)
def test_figure_at_one_job_equals_two_and_writes_a_manifest(
    figure, tmp_path, monkeypatch
):
    # Every figure function runs its cells through the one driver, so
    # REPRO_JOBS fans it out bit-identically and REPRO_EVENTS_FILE gives
    # it a manifest that names each cell's replay kernel and, for the
    # reference loop, why the array kernel was not taken.
    digests = {}
    for jobs in ("1", "2"):
        events = tmp_path / f"jobs{jobs}.ndjson"
        monkeypatch.setenv("REPRO_JOBS", jobs)
        monkeypatch.setenv("REPRO_EVENTS_FILE", str(events))
        digests[jobs] = digest(figure_output(figure, WorkloadCache(tiny_config(1))))
        manifest = RunManifest.load(f"{events}.manifest.json")
        assert manifest["status"] == "ok"
        assert manifest["cells"]
        for label, cell in manifest["cells"].items():
            assert cell["status"] == "ok", label
            assert cell["kernel"] in ("array", "object"), label
            assert ("kernel_fallback" in cell) == (cell["kernel"] == "object"), label
    assert digests["1"] == digests["2"]


class TestAdHocMixCells:
    """A ``+``-joined mix is a Figure-10 cell like a Table-IV name."""

    MIX = "mcf+hmmer+lbm+milc"

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_ad_hoc_mix_runs_as_cells(self, jobs, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", jobs)
        cache = WorkloadCache(tiny_config(1))
        comparison = multicore_comparison(cache, ["sampler"], mixes=(self.MIX,))
        prepared = cache.prepared_mix(self.MIX)
        for got, key in (
            (comparison.baseline[self.MIX], "lru"),
            (comparison.results[self.MIX]["sampler"], "sampler"),
        ):
            want = cache.multicore.run(prepared, TECHNIQUES[key].build, key)
            assert got.llc_stats.snapshot() == want.llc_stats.snapshot()
            assert (got.ipcs, got.single_ipcs) == (want.ipcs, want.single_ipcs)


class TestUpFrontValidation:
    # A misspelled technique must fail before any workload is generated
    # or any cell runs, with a closest-match suggestion.
    def test_multicore_comparison_prepares_no_mix(self):
        cache = WorkloadCache(SMALL)
        with pytest.raises(ValueError, match=r"unknown technique 'samplr'.*did you mean 'sampler'"):
            multicore_comparison(cache, ["samplr"])
        assert not cache._mixes

    def test_single_thread_comparison_runs_no_baseline(self):
        cache = WorkloadCache(SMALL)
        with pytest.raises(ValueError, match=r"unknown technique 'samplr'.*did you mean 'sampler'"):
            single_thread_comparison(cache, ["samplr"], BENCHMARKS)
        assert not cache._filtered


class TestWorkloadCacheClear:
    def test_reuse_after_clear(self):
        cache = WorkloadCache(SMALL)
        first = cache.filtered(BENCHMARKS[0])
        assert cache.filtered(BENCHMARKS[0]) is first  # memoized
        cache.clear()
        assert not cache._filtered and not cache._mixes
        # The cache must stay fully usable: same workload, fresh object,
        # identical content (generation is deterministic).
        again = cache.filtered(BENCHMARKS[0])
        assert again is not first
        assert again.llc_indices == first.llc_indices
        assert again.levels == first.levels
        assert again.trace.records == first.trace.records

    def test_clear_empty_cache_is_harmless(self):
        cache = WorkloadCache(SMALL)
        cache.clear()
        cache.clear()
        assert cache.filtered(BENCHMARKS[0]).llc_indices
