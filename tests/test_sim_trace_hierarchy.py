"""Tests for trace containers and the L1/L2 hierarchy filter."""

import pytest

from repro.cache.geometry import CacheGeometry
from repro.sim.hierarchy import HierarchyFilter, MachineConfig
from repro.sim.trace import Trace, TraceRecord


def tiny_machine() -> MachineConfig:
    """A machine small enough to reason about: 2-set L1, 4-set L2."""
    return MachineConfig(
        l1=CacheGeometry(2 * 2 * 64, 2, 64),
        l2=CacheGeometry(4 * 4 * 64, 4, 64),
        llc=CacheGeometry(16 * 8 * 64, 8, 64),
    )


def rec(pc, address, gap=2, write=False, depends=False):
    return TraceRecord(pc, address, write, gap, depends)


class TestTrace:
    def test_instruction_accounting(self):
        trace = Trace("t", [rec(1, 0, gap=3), rec(1, 64, gap=5)])
        assert trace.instructions == 3 + 5 + 2
        assert len(trace) == 2

    def test_memory_fraction(self):
        trace = Trace("t", [rec(1, 0, gap=4)])
        assert trace.memory_fraction == pytest.approx(1 / 5)

    def test_empty_trace(self):
        trace = Trace("empty", [])
        assert trace.instructions == 0
        assert trace.memory_fraction == 0.0

    def test_concatenate(self):
        a = Trace("a", [rec(1, 0)])
        b = Trace("b", [rec(2, 64), rec(3, 128)])
        joined = Trace.concatenate("ab", [a, b])
        assert len(joined) == 3
        assert joined.instructions == a.instructions + b.instructions

    def test_precomputed_instruction_count(self):
        records = [rec(1, 0, gap=3), rec(1, 64, gap=5)]
        # A caller-supplied total is trusted verbatim (no O(n) re-walk)...
        assert Trace("t", records, instructions=123).instructions == 123
        # ...and the summed default stays consistent with concatenate's
        # piecewise accumulation.
        pieces = [Trace("p", records[:1]), Trace("q", records[1:])]
        joined = Trace.concatenate("pq", pieces)
        assert joined.instructions == Trace("t", records).instructions

    def test_iteration_yields_records(self):
        records = [rec(1, 0), rec(2, 64)]
        assert list(Trace("t", records)) == records


class TestMachineConfig:
    def test_paper_defaults(self):
        config = MachineConfig()
        assert config.l1.describe() == "32KB 8-way 64B"
        assert config.l2.describe() == "256KB 8-way 64B"
        assert config.llc.describe() == "2MB 16-way 64B"
        assert config.width == 4
        assert config.window == 128

    def test_scaled(self):
        config = MachineConfig().scaled(8)
        assert config.llc.size_bytes == 256 * 1024
        assert config.l1.size_bytes == 4 * 1024
        assert config.width == 4  # core untouched

    def test_shared_llc(self):
        shared = MachineConfig().shared_llc(4)
        assert shared.size_bytes == 8 * 1024 * 1024  # paper's quad-core 8MB
        assert shared.associativity == 16

    def test_latency_resolution(self):
        config = MachineConfig()
        assert config.latency_for_level(1, llc_hit=False) == config.l1_latency
        assert config.latency_for_level(2, llc_hit=False) == config.l2_latency
        assert config.latency_for_level(3, llc_hit=True) == config.llc_latency
        assert config.latency_for_level(3, llc_hit=False) == config.memory_latency


class TestHierarchyFilter:
    def test_first_touch_reaches_llc(self):
        filtered = HierarchyFilter(tiny_machine()).filter(Trace("t", [rec(1, 0)]))
        assert filtered.levels == [3]
        assert filtered.llc_indices == [0]

    def test_immediate_retouch_hits_l1(self):
        trace = Trace("t", [rec(1, 0), rec(1, 8)])  # same 64B block
        filtered = HierarchyFilter(tiny_machine()).filter(trace)
        assert filtered.levels == [3, 1]
        assert filtered.llc_indices == [0]

    def test_l1_conflict_falls_to_l2(self):
        # L1: 2 sets, 2 ways.  Blocks 0, 2, 4 collide in L1 set 0 but all
        # fit in L2 (4 sets, 4 ways).
        trace = Trace(
            "t",
            [rec(1, 0), rec(1, 2 * 64), rec(1, 4 * 64), rec(1, 0)],
        )
        filtered = HierarchyFilter(tiny_machine()).filter(trace)
        assert filtered.levels == [3, 3, 3, 2]  # final re-touch: L1 miss, L2 hit

    def test_filter_ratio(self):
        trace = Trace("t", [rec(1, 0), rec(1, 8), rec(1, 16), rec(1, 24)])
        filtered = HierarchyFilter(tiny_machine()).filter(trace)
        assert filtered.filter_ratio() == pytest.approx(0.75)

    def test_llc_records_carry_pc_and_write(self):
        trace = Trace("t", [rec(7, 0, write=True)])
        filtered = HierarchyFilter(tiny_machine()).filter(trace)
        assert filtered.llc_arrays() == ([7], [0], [True])

    def test_temporal_locality_filtering(self):
        """The Section VII-A.3 phenomenon: a block touched k times in quick
        succession reaches the LLC only once, so the LLC-visible 'trace'
        of the block collapses to its first PC."""
        records = []
        for block in range(8):
            for touch, pc in enumerate([0x10, 0x20, 0x30]):
                records.append(rec(pc, block * 64 + touch * 8))
        filtered = HierarchyFilter(tiny_machine()).filter(Trace("t", records))
        llc_pcs = set(filtered.llc_arrays()[0])
        assert llc_pcs == {0x10}
