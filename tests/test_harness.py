"""Tests for the technique registry, runner, and experiment functions.

Experiment functions are exercised end-to-end on a tiny configuration
(64KB LLC, short traces) so the full suite stays fast; the benchmark
scripts run the real configuration.
"""

import pytest

from repro.harness import (
    ExperimentConfig,
    MULTICORE_LRU_TECHNIQUES,
    RANDOM_DEFAULT_TECHNIQUES,
    SINGLE_THREAD_TECHNIQUES,
    TECHNIQUES,
    WorkloadCache,
    accuracy_experiment,
    characterization_table,
    efficiency_experiment,
    format_table,
    multicore_comparison,
    single_thread_comparison,
)
from repro.harness.experiments import ABLATION_VARIANTS, ablation_experiment
from repro.harness.parallel import _run_cell_on
from repro.harness.techniques import Scheme


@pytest.fixture(scope="module")
def small_cache():
    config = ExperimentConfig(scale=32, instructions=40_000)
    return WorkloadCache(config)


class TestTechniqueRegistry:
    def test_table_v_techniques_present(self):
        for key in (
            "sampler", "tdbp", "cdbp", "dip", "rrip", "tadip",
            "random", "random_sampler", "random_cdbp", "optimal", "lru",
        ):
            assert key in TECHNIQUES

    def test_figure_axes(self):
        assert SINGLE_THREAD_TECHNIQUES == (
            "tdbp", "cdbp", "dip", "rrip", "sampler", "optimal"
        )
        assert RANDOM_DEFAULT_TECHNIQUES == (
            "random", "random_cdbp", "random_sampler"
        )
        assert "tadip" in MULTICORE_LRU_TECHNIQUES

    def test_optimal_timing_not_meaningful(self):
        assert not TECHNIQUES["optimal"].timing_meaningful
        assert TECHNIQUES["sampler"].timing_meaningful

    def test_every_technique_builds(self):
        from repro.cache import Cache, CacheGeometry
        from repro.sim.hierarchy import PreparedStream

        geometry = CacheGeometry(64 * 16 * 64, 16, 64)
        empty = PreparedStream.from_accesses([], geometry)
        for technique in TECHNIQUES.values():
            policy = technique.build(geometry, empty, num_cores=4)
            Cache(geometry, policy)  # binds without error


class TestExperimentConfig:
    def test_defaults(self):
        config = ExperimentConfig()
        assert config.scale == 8
        assert config.machine().llc.size_bytes == 256 * 1024

    def test_from_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "16")
        monkeypatch.setenv("REPRO_INSTRUCTIONS", "1234")
        config = ExperimentConfig.from_env()
        assert config.scale == 16
        assert config.instructions == 1234

    def test_from_env_rejects_garbage(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "banana")
        with pytest.raises(ValueError):
            ExperimentConfig.from_env()

    def test_from_env_rejects_nonpositive(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "0")
        with pytest.raises(ValueError):
            ExperimentConfig.from_env()

    def test_describe_mentions_scale(self):
        assert "1/8" in ExperimentConfig().describe()


class TestWorkloadCache:
    def test_filtered_is_memoized(self, small_cache):
        first = small_cache.filtered("hmmer")
        second = small_cache.filtered("hmmer")
        assert first is second

    def test_clear_drops_cache(self):
        cache = WorkloadCache(ExperimentConfig(scale=32, instructions=20_000))
        first = cache.filtered("gamess")
        cache.clear()
        assert cache.filtered("gamess") is not first


class TestSingleThreadComparison:
    @pytest.fixture(scope="class")
    def comparison(self, small_cache):
        return single_thread_comparison(
            small_cache,
            technique_keys=("sampler", "optimal"),
            benchmarks=("hmmer", "libquantum"),
        )

    def test_structure(self, comparison):
        assert set(comparison.results) == {"hmmer", "libquantum"}
        assert set(comparison.results["hmmer"]) == {"sampler", "optimal"}

    def test_optimal_never_worse_than_lru(self, comparison):
        for benchmark in comparison.benchmarks:
            assert comparison.normalized_mpki(benchmark, "optimal") <= 1.0 + 1e-9

    def test_sampler_not_worse_than_optimal(self, comparison):
        for benchmark in comparison.benchmarks:
            assert comparison.normalized_mpki(
                benchmark, "optimal"
            ) <= comparison.normalized_mpki(benchmark, "sampler") + 1e-9

    def test_rows_have_amean_and_gmean(self, comparison):
        mpki_rows = comparison.mpki_rows()
        assert mpki_rows[-1][0] == "amean"
        speedup_rows = comparison.speedup_rows(technique_keys=("sampler",))
        assert speedup_rows[-1][0] == "gmean"

    def test_speedup_positive(self, comparison):
        assert comparison.speedup_gmean("sampler") > 0


class TestAccuracyExperiment:
    def test_rates_in_range(self, small_cache):
        result = accuracy_experiment(small_cache, benchmarks=("hmmer",))
        for predictor in result.predictors:
            assert 0.0 <= result.mean_coverage(predictor) <= 1.0
            assert 0.0 <= result.mean_false_positive(predictor) <= 1.0

    def test_false_positives_bounded_by_coverage(self, small_cache):
        result = accuracy_experiment(small_cache, benchmarks=("hmmer",))
        for predictor in result.predictors:
            assert result.mean_false_positive(predictor) <= (
                result.mean_coverage(predictor) + 1e-9
            )


class TestEfficiencyExperiment:
    def test_sampler_beats_lru_efficiency(self, small_cache):
        result = efficiency_experiment(small_cache, benchmark="hmmer")
        assert 0.0 <= result.lru_efficiency <= 1.0
        assert result.sampler_efficiency > result.lru_efficiency

    def test_matrices_match_geometry(self, small_cache):
        result = efficiency_experiment(small_cache, benchmark="hmmer")
        machine = small_cache.machine
        assert len(result.lru_matrix) == machine.llc.num_sets
        assert len(result.lru_matrix[0]) == machine.llc.associativity


class TestAblationExperiment:
    def test_all_variants_reported(self, small_cache):
        rows = ablation_experiment(small_cache, benchmarks=("hmmer",))
        labels = [label for label, _, _ in rows]
        assert labels[0] == "DBRB alone"
        assert labels[-1] == "DBRB+sampler+3 tables+12-way"
        assert len(rows) == 6
        for _, measured, paper in rows:
            assert measured > 0
            assert paper > 1.0

    def test_default_row_is_the_sampler_cell(self, small_cache):
        # "DBRB+sampler+3 tables+12-way" is SamplingDeadBlockPredictor()'s
        # own defaults, so the row runs as the plain sampler cell.
        shape = dict(use_sampler=True, skewed=True, sampler_assoc=12)
        shaped = _run_cell_on(
            small_cache, ("hmmer", Scheme("sampler", shape=tuple(sorted(shape.items()))))
        )
        plain = _run_cell_on(small_cache, ("hmmer", "sampler"))
        assert shaped.llc_stats.snapshot() == plain.llc_stats.snapshot()
        assert shaped.timing.cycles == plain.timing.cycles
        assert shaped.llc_hits == plain.llc_hits
        assert ABLATION_VARIANTS[-1][0] == "DBRB+sampler+3 tables+12-way"
        assert ABLATION_VARIANTS[-1][1] == {}


class TestMulticoreComparison:
    @pytest.fixture(scope="class")
    def comparison(self, small_cache):
        return multicore_comparison(
            small_cache, technique_keys=("sampler",), mixes=("mix1",)
        )

    def test_structure(self, comparison):
        assert comparison.mixes == ("mix1",)
        assert "sampler" in comparison.results["mix1"]

    def test_normalized_speedup_positive(self, comparison):
        assert comparison.normalized_weighted_speedup("mix1", "sampler") > 0

    def test_rows_end_with_gmean(self, comparison):
        assert comparison.speedup_rows()[-1][0] == "gmean"


class TestCharacterization:
    def test_rows_for_requested_benchmarks(self, small_cache):
        rows = characterization_table(small_cache, benchmarks=("hmmer", "gamess"))
        assert len(rows) == 2
        names = [row[0] for row in rows]
        assert names == ["hmmer", "gamess"]
        # hmmer is in the subset, gamess is not.
        assert rows[0][4] == "yes"
        assert rows[1][4] == ""

    def test_min_mpki_not_above_lru(self, small_cache):
        rows = characterization_table(small_cache, benchmarks=("hmmer",))
        _, lru_mpki, min_mpki, ipc, _ = rows[0]
        assert min_mpki <= lru_mpki + 1e-9
        assert ipc > 0


class TestFormatTable:
    def test_alignment_and_headers(self):
        text = format_table(["name", "value"], [["a", 1.5], ["bb", 2.25]])
        lines = text.split("\n")
        assert "name" in lines[0]
        assert lines[2].startswith("a ")

    def test_none_renders_dash(self):
        text = format_table(["n", "v"], [["x", None]])
        assert "-" in text.split("\n")[-1]

    def test_title(self):
        text = format_table(["n"], [["x"]], title="Table 1")
        assert text.startswith("Table 1")

    def test_row_width_mismatch_rejected(self):
        with pytest.raises(ValueError):
            format_table(["a", "b"], [["only one"]])
