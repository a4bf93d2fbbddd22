"""Focused tests for smaller behaviours not covered elsewhere."""

import pytest

from repro.cache import Cache, CacheAccess, CacheGeometry, CacheStats
from repro.harness.tables import format_value
from repro.replacement import DIPPolicy, DRRIPPolicy, LRUPolicy
from repro.replacement.dueling import FOLLOWER
from repro.sim.cpu import CoreTiming
from repro.sim.multicore import MulticoreResult


def leader_counts(policy):
    """(first-policy leaders, second-policy leaders) of a dueling policy."""
    duel = policy.duel
    leaders = [s for o, s in zip(duel.owner, duel.second) if o != FOLLOWER]
    return leaders.count(False), leaders.count(True)


class TestLeaderSetAutoScaling:
    """DIP-family policies scale their dedicated sets with the cache
    (32 leaders per 2048 sets, the paper ratio)."""

    def test_dip_auto_ratio(self):
        geometry = CacheGeometry(2 * 1024 * 1024, 16, 64)  # 2048 sets
        policy = DIPPolicy()
        Cache(geometry, policy)
        assert leader_counts(policy) == (32, 32)  # MRU and BIP leaders

    def test_dip_scaled_cache_keeps_fraction(self):
        geometry = CacheGeometry(256 * 1024, 16, 64)  # 256 sets
        policy = DIPPolicy()
        Cache(geometry, policy)
        assert leader_counts(policy)[0] == 4

    def test_explicit_leader_count_respected(self):
        geometry = CacheGeometry(256 * 1024, 16, 64)
        policy = DIPPolicy(leader_sets=8)
        Cache(geometry, policy)
        assert leader_counts(policy)[0] == 8

    def test_tadip_auto_ratio(self):
        geometry = CacheGeometry(2 * 1024 * 1024, 16, 64)
        policy = DIPPolicy(num_cores=4)
        Cache(geometry, policy)
        owners = [o for o in policy.duel.owner if o != FOLLOWER]
        # 32 per policy per core, two policies, four cores.
        assert len(owners) == 32 * 2 * 4

    def test_drrip_auto_ratio(self):
        geometry = CacheGeometry(2 * 1024 * 1024, 16, 64)
        policy = DRRIPPolicy()
        Cache(geometry, policy)
        owners = [o for o in policy.duel.owner if o != FOLLOWER]
        assert len(owners) == 64  # 32 SRRIP + 32 BRRIP leaders


class TestFormatValue:
    def test_float_precision(self):
        assert format_value(1.23456, precision=2) == "1.23"

    def test_none_is_dash(self):
        assert format_value(None) == "-"

    def test_int_passthrough(self):
        assert format_value(42) == "42"

    def test_string_passthrough(self):
        assert format_value("abc") == "abc"


class TestMulticoreResult:
    def make(self, ipcs, singles):
        return MulticoreResult(
            mix="m",
            technique="t",
            ipcs=ipcs,
            single_ipcs=singles,
            llc_stats=CacheStats(misses=500),
            instructions=100_000,
        )

    def test_weighted_ipc(self):
        result = self.make([1.0, 2.0], [2.0, 2.0])
        assert result.weighted_ipc == pytest.approx(1.5)

    def test_mpki(self):
        result = self.make([1.0], [1.0])
        assert result.mpki == pytest.approx(5.0)


class TestCoreTiming:
    def test_ipc(self):
        assert CoreTiming(instructions=100, cycles=50).ipc == pytest.approx(2.0)


class TestGeometryDescribeEdge:
    def test_byte_sized_cache(self):
        # 2 sets x 2 ways x 64B = 256B: falls through to the bytes branch
        # only for non-KB multiples, so construct a 3-block oddity.
        geometry = CacheGeometry(256, 2, 64)
        assert "B" in geometry.describe()


class TestTechniqueRepr:
    def test_policy_reprs_are_informative(self):
        from repro.core import DBRBPolicy, SamplingDeadBlockPredictor

        policy = DBRBPolicy(LRUPolicy(), SamplingDeadBlockPredictor())
        text = repr(policy)
        assert "DBRBPolicy" in text
        assert "SamplingDeadBlockPredictor" in text

    def test_access_repr(self):
        access = CacheAccess(address=0x40, pc=0x400, is_write=True, seq=3)
        text = repr(access)
        assert "W" in text and "0x40" in text
