"""Tests for the single-core runner and the quad-core shared-LLC system."""

import hashlib

import pytest

from repro.cache.geometry import CacheGeometry
from repro.core import DBRBPolicy, SamplingDeadBlockPredictor
from repro.harness import (
    MULTICORE_LRU_TECHNIQUES,
    MULTICORE_RANDOM_TECHNIQUES,
    multicore_comparison,
)
from repro.replacement import LRUPolicy, OptimalPolicy, annotate_next_use
from repro.sim import MachineConfig, MulticoreSystem, SingleCoreSystem
from repro.sim.trace import Trace, TraceRecord
from repro.workloads import build_trace


def small_machine() -> MachineConfig:
    return MachineConfig(
        l1=CacheGeometry(2 * 2 * 64, 2, 64),
        l2=CacheGeometry(4 * 4 * 64, 4, 64),
        llc=CacheGeometry(16 * 8 * 64, 8, 64),
    )


def simple_trace(name="t", blocks=200, repeats=3, gap=3):
    records = []
    for _ in range(repeats):
        for block in range(blocks):
            records.append(TraceRecord(0x400, block * 64, False, gap, False))
    return Trace(name, records)


class TestSingleCoreSystem:
    def test_run_produces_consistent_result(self):
        system = SingleCoreSystem(small_machine())
        filtered = system.prepare(simple_trace())
        result = system.run(filtered, lambda g, a: LRUPolicy(), "lru")
        assert result.technique == "lru"
        assert result.llc_stats.accesses == len(filtered.llc_indices)
        assert len(result.llc_hits) == len(filtered.llc_indices)
        assert result.mpki > 0
        assert result.ipc > 0

    def test_compute_timing_false_skips_ipc(self):
        system = SingleCoreSystem(small_machine())
        filtered = system.prepare(simple_trace())
        result = system.run(
            filtered, lambda g, a: LRUPolicy(), "lru", compute_timing=False
        )
        assert result.timing is None
        assert result.ipc == 0.0

    def test_llc_stream_seq_is_stream_position(self):
        system = SingleCoreSystem(small_machine())
        filtered = system.prepare(simple_trace())
        accesses = filtered.llc_stream(small_machine().llc).accesses
        assert [a.seq for a in accesses] == list(range(len(accesses)))

    def test_optimal_policy_integrates(self):
        system = SingleCoreSystem(small_machine())
        filtered = system.prepare(simple_trace())
        lru = system.run(filtered, lambda g, a: LRUPolicy(), "lru")
        optimal = system.run(
            filtered,
            lambda g, a: OptimalPolicy(annotate_next_use(a, g)),
            "optimal",
            compute_timing=False,
        )
        assert optimal.llc_stats.misses <= lru.llc_stats.misses

    def test_fewer_misses_means_no_worse_ipc(self):
        """The timing model must be monotone: an all-hit LLC outcome is at
        least as fast as an all-miss one."""
        system = SingleCoreSystem(small_machine())
        filtered = system.prepare(simple_trace())
        hits = [True] * len(filtered.llc_indices)
        misses = [False] * len(filtered.llc_indices)
        fast = system._core.run(filtered, hits)
        slow = system._core.run(filtered, misses)
        assert fast.ipc >= slow.ipc

    def test_llc_geometry_override(self):
        system = SingleCoreSystem(small_machine())
        filtered = system.prepare(simple_trace())
        big = CacheGeometry(64 * 8 * 64, 8, 64)
        small_result = system.run(filtered, lambda g, a: LRUPolicy(), "s")
        big_result = system.run(
            filtered, lambda g, a: LRUPolicy(), "b", llc_geometry=big
        )
        assert big_result.llc_stats.misses <= small_result.llc_stats.misses


class TestMulticoreSystem:
    @pytest.fixture(scope="class")
    def system(self):
        return MulticoreSystem(small_machine(), num_cores=4)

    @pytest.fixture(scope="class")
    def prepared(self, system):
        traces = [
            simple_trace(name=f"core{i}", blocks=100 + 40 * i) for i in range(4)
        ]
        return system.prepare("testmix", traces)

    def test_rejects_bad_core_count(self):
        with pytest.raises(ValueError):
            MulticoreSystem(small_machine(), num_cores=0)

    def test_prepare_rejects_wrong_trace_count(self, system):
        with pytest.raises(ValueError):
            system.prepare("bad", [simple_trace()])

    def test_shared_geometry_is_four_times_private(self, system):
        assert system.shared_geometry.size_bytes == 4 * small_machine().llc.size_bytes

    def test_merge_preserves_all_accesses(self, prepared):
        per_core = sum(len(positions) for positions in prepared.per_core_positions)
        assert per_core == len(prepared.merged)
        accesses = prepared.merged.accesses
        assert [a.seq for a in accesses] == list(range(len(accesses)))

    def test_merged_stream_interleaves_cores(self, prepared):
        accesses = prepared.merged.accesses
        cores_in_first_quarter = {
            access.core for access in accesses[: len(accesses) // 4]
        }
        assert len(cores_in_first_quarter) == 4  # nobody runs alone up front

    def test_core_address_spaces_disjoint(self, prepared):
        by_core = {}
        for access in prepared.merged.accesses:
            by_core.setdefault(access.core, set()).add(access.address >> 44)
        for core, prefixes in by_core.items():
            assert prefixes == {core}

    def test_single_ipcs_positive(self, prepared):
        assert all(ipc > 0 for ipc in prepared.single_ipcs)

    def test_run_produces_per_core_ipcs(self, system, prepared):
        result = system.run(prepared, lambda g, a, n: LRUPolicy(), "lru")
        assert len(result.ipcs) == 4
        assert all(ipc > 0 for ipc in result.ipcs)
        assert result.weighted_ipc > 0
        assert result.llc_stats.accesses == len(prepared.merged)

    def test_weighted_ipc_at_most_num_cores(self, system, prepared):
        """Each thread's shared IPC cannot beat its solo full-cache IPC, so
        the weighted sum is bounded by the core count (up to timing-model
        noise from the merged interleaving)."""
        result = system.run(prepared, lambda g, a, n: LRUPolicy(), "lru")
        assert result.weighted_ipc <= 4.0 + 0.2

    def test_sampler_not_worse_than_lru_on_real_mix(self):
        machine = MachineConfig().scaled(32)
        system = MulticoreSystem(machine, num_cores=4)
        traces = [
            build_trace(name, 30_000, machine.llc.size_bytes, seed=3)
            for name in ("hmmer", "libquantum", "soplex", "gamess")
        ]
        prepared = system.prepare("mix", traces)
        lru = system.run(prepared, lambda g, a, n: LRUPolicy(), "lru")
        sampler = system.run(
            prepared,
            lambda g, a, n: DBRBPolicy(LRUPolicy(), SamplingDeadBlockPredictor()),
            "sampler",
        )
        assert sampler.llc_stats.misses <= lru.llc_stats.misses * 1.02


# ----------------------------------------------------------------------
# Figure 10 golden pin
# ----------------------------------------------------------------------
#: mix3 on the 1/64 machine, 20k instructions per core (the
#: ``fig10_workloads`` fixture): merged-stream length and the sha256 of
#: its ``address,pc,is_write,core,seq;`` records.
FIG10_MERGED = (14949, "afc09b34410d86eaa0e37f49712034971f47200d0f6c9d18be20ef32579843dc")

#: Per technique, the LRU baseline included: the shared LLC's
#: ``(accesses, hits, misses, fills, evictions, writebacks, bypasses,
#: dead_block_victims)`` and the four per-core IPCs.
FIG10_GOLDEN = {
    "lru": (
        (14949, 5288, 9661, 9661, 7613, 2509, 0, 0),
        (0.660139075633718, 0.6559963266042408, 0.672319755275609, 0.1801177069214732),
    ),
    "tdbp": (
        (14949, 6888, 8061, 4588, 2540, 1598, 3473, 1160),
        (0.6675731362457145, 0.6596472712581318, 0.672319755275609, 0.19660415473729997),
    ),
    "cdbp": (
        (14949, 6335, 8614, 6869, 4821, 2190, 1745, 27),
        (0.6674283808014678, 0.6596418323933907, 0.672319755275609, 0.17755918269508206),
    ),
    "tadip": (
        (14949, 6298, 8651, 8651, 6603, 2312, 0, 0),
        (0.6673059444495402, 0.6595711353124974, 0.672319755275609, 0.1833625949474437),
    ),
    "rrip": (
        (14949, 5943, 9006, 9006, 6958, 2044, 0, 0),
        (0.663752705919432, 0.6595711353124974, 0.672319755275609, 0.1705724197190246),
    ),
    "sampler": (
        (14949, 6608, 8341, 5299, 3251, 2060, 3042, 1605),
        (0.663807762174537, 0.6595928866463852, 0.672319755275609, 0.19951915882722637),
    ),
    "random": (
        (14949, 5203, 9746, 9746, 7698, 2769, 0, 0),
        (0.6601554122053025, 0.6560501197231607, 0.672319755275609, 0.17176818166202892),
    ),
    "random_cdbp": (
        (14949, 5305, 9644, 7794, 5746, 2565, 1850, 162),
        (0.6636536276713079, 0.6595276369481885, 0.6761153790894416, 0.15736600776207832),
    ),
    "random_sampler": (
        (14949, 6404, 8545, 5498, 3450, 2151, 3047, 1599),
        (0.6637361908237401, 0.6595656977031773, 0.6761153790894416, 0.1926114257097731),
    ),
}


def test_figure10_golden_pin(fig10_workloads):
    """The merged stream and every Figure-10 cell of one mix, bit for bit:
    neither how the merge is built nor which replay kernel runs a cell
    may move a statistic or an IPC."""
    prepared = fig10_workloads.prepared_mix("mix3")
    digest = hashlib.sha256()
    for access in prepared.merged.accesses:
        digest.update(
            f"{access.address},{access.pc},{int(access.is_write)},"
            f"{access.core},{access.seq};".encode()
        )
    assert (len(prepared.merged), digest.hexdigest()) == FIG10_MERGED

    comparison = multicore_comparison(
        fig10_workloads,
        MULTICORE_LRU_TECHNIQUES + MULTICORE_RANDOM_TECHNIQUES,
        mixes=("mix3",),
    )
    results = {"lru": comparison.baseline["mix3"], **comparison.results["mix3"]}
    observed = {}
    for key, result in results.items():
        stats = result.llc_stats
        observed[key] = (
            (
                stats.accesses, stats.hits, stats.misses, stats.fills,
                stats.evictions, stats.writebacks, stats.bypasses,
                stats.dead_block_victims,
            ),
            tuple(result.ipcs),
        )
    assert observed == FIG10_GOLDEN
