"""Tests for the synthetic workload suite."""

import pytest

from repro.workloads import (
    ALL_BENCHMARKS,
    MIXES,
    SINGLE_THREAD_SUBSET,
    build_trace,
    generator_for,
)
from repro.workloads.generators import (
    HotColdGenerator,
    PointerChaseGenerator,
    ScanReuseGenerator,
    StreamingGenerator,
    ThrashGenerator,
    UnpredictableGenerator,
)

LLC_BYTES = 256 * 1024  # the scaled benchmark machine's LLC


class TestSuiteStructure:
    def test_twenty_nine_benchmarks(self):
        assert len(ALL_BENCHMARKS) == 29  # Table III rows

    def test_nineteen_in_subset(self):
        assert len(SINGLE_THREAD_SUBSET) == 19  # Figure 4's x-axis

    def test_subset_is_a_subset(self):
        assert set(SINGLE_THREAD_SUBSET) <= set(ALL_BENCHMARKS)

    def test_unknown_benchmark_rejected(self):
        with pytest.raises(KeyError):
            generator_for("nonexistent")

    def test_mixes_match_table_iv(self):
        assert len(MIXES) == 10
        assert MIXES["mix1"] == ("mcf", "hmmer", "libquantum", "omnetpp")
        assert MIXES["mix7"] == ("perlbench", "milc", "hmmer", "lbm")

    def test_all_mix_members_exist(self):
        for members in MIXES.values():
            for name in members:
                assert name in ALL_BENCHMARKS

    def test_mix_core0_member_is_the_single_core_workload(self, fig10_workloads):
        prepared = fig10_workloads.prepared_mix("mix1")
        assert [ft.name for ft in prepared.filtered] == list(MIXES["mix1"])
        assert prepared.filtered[0] is fig10_workloads.filtered("mcf")

    def test_mix_member_seed_follows_its_core(self, fig10_workloads):
        cache, seed = fig10_workloads, fig10_workloads.config.seed
        assert MIXES["mix5"][2] == "mcf"
        member = cache.prepared_mix("mix5").filtered[2]
        assert member is cache.filtered("mcf", seed=seed + 2)
        budget = cache.config.instructions
        assert cache.workload_key("mcf", budget, seed + 2) != cache.workload_key("mcf", budget)

    def test_unknown_mix_rejected(self, fig10_workloads):
        with pytest.raises(KeyError):
            fig10_workloads.prepared_mix("mix99")


class TestTraceProperties:
    @pytest.mark.parametrize("name", ALL_BENCHMARKS)
    def test_every_benchmark_generates(self, name):
        trace = build_trace(name, 20_000, LLC_BYTES)
        assert len(trace) > 0
        # Budget respected within one iteration's slack.
        assert 20_000 <= trace.instructions < 26_000

    def test_determinism(self):
        a = build_trace("mcf", 15_000, LLC_BYTES, seed=7)
        b = build_trace("mcf", 15_000, LLC_BYTES, seed=7)
        assert a.records == b.records

    def test_seed_changes_trace(self):
        a = build_trace("omnetpp", 15_000, LLC_BYTES, seed=1)
        b = build_trace("omnetpp", 15_000, LLC_BYTES, seed=2)
        assert a.records != b.records

    def test_pointer_chase_is_dependent(self):
        trace = build_trace("mcf", 15_000, LLC_BYTES)
        dependent = sum(1 for record in trace if record.depends)
        assert dependent > len(trace) * 0.2

    def test_streaming_has_writes(self):
        trace = build_trace("lbm", 15_000, LLC_BYTES)
        writes = sum(1 for record in trace if record.is_write)
        assert writes > 0

    def test_small_footprint_stays_small(self):
        trace = build_trace("gamess", 20_000, LLC_BYTES)
        blocks = {record.address >> 6 for record in trace}
        assert len(blocks) * 64 < 0.2 * LLC_BYTES

    def test_streaming_footprint_is_huge(self):
        trace = build_trace("milc", 150_000, LLC_BYTES)
        blocks = {record.address >> 6 for record in trace}
        assert len(blocks) * 64 > 2 * LLC_BYTES

    def test_pc_pools_are_disjoint_across_benchmarks(self):
        pcs_a = {record.pc for record in build_trace("hmmer", 10_000, LLC_BYTES)}
        pcs_b = {record.pc for record in build_trace("mcf", 10_000, LLC_BYTES)}
        assert not (pcs_a & pcs_b)


class TestGeneratorValidation:
    def test_streaming_rejects_zero_streams(self):
        with pytest.raises(ValueError):
            StreamingGenerator("x", streams=0)

    def test_hotcold_rejects_bad_probability(self):
        with pytest.raises(ValueError):
            HotColdGenerator("x", hot_probability=1.5)

    def test_mixed_phase_rejects_empty(self):
        from repro.workloads.generators import MixedPhaseGenerator

        with pytest.raises(ValueError):
            MixedPhaseGenerator("x", phases=[])


class TestArchetypeSignatures:
    """Each archetype must actually exhibit its defining statistic."""

    def test_thrash_has_cyclic_reuse(self):
        # One pass over 1.5x LLC costs ~60k instructions here; give the
        # budget for ~3 passes so the cycle is visible.
        trace = ThrashGenerator("t", ws_factor=1.5).generate(190_000, LLC_BYTES)
        blocks = [record.address >> 6 for record in trace]
        unique = len(set(blocks))
        assert len(blocks) > 2.5 * unique  # blocks revisited across passes
        assert unique * 64 > 1.2 * LLC_BYTES

    def test_scan_reuse_hot_blocks_rereferenced(self):
        generator = ScanReuseGenerator("t", hot_factor=0.4, scan_factor=1.0)
        trace = generator.generate(120_000, LLC_BYTES)
        from collections import Counter

        counts = Counter(record.address >> 6 for record in trace)
        multi = sum(1 for count in counts.values() if count >= 4)
        single = sum(1 for count in counts.values() if count == 1)
        assert multi > 0  # a reused hot set exists
        assert single > multi  # drowned in single-touch scan blocks

    def test_unpredictable_pc_block_independence(self):
        generator = UnpredictableGenerator("t", ws_factor=2.0, pc_pool=16)
        trace = generator.generate(30_000, LLC_BYTES)
        pcs = {record.pc for record in trace}
        assert len(pcs) == 16

    def test_pointer_chase_walks_whole_pool(self):
        generator = PointerChaseGenerator("t", ws_factor=4.0, hot_accesses_per_node=0)
        trace = generator.generate(60_000, LLC_BYTES)
        blocks = {record.address >> 6 for record in trace}
        # The permutation should touch a large share of distinct nodes.
        assert len(blocks) > 1000
