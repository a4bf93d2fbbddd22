"""Tests for SRRIP / BRRIP / DRRIP."""

import pytest

from repro.cache import Cache, CacheAccess
from repro.replacement import BRRIPPolicy, DRRIPPolicy, LRUPolicy, SRRIPPolicy
from repro.replacement.dueling import FOLLOWER

from tests.conftest import replay, tiny_geometry


class TestSRRIP:
    def test_rejects_zero_bits(self):
        with pytest.raises(ValueError):
            SRRIPPolicy(rrpv_bits=0)

    def test_hit_resets_rrpv(self):
        geometry = tiny_geometry(sets=1, assoc=2)
        cache = Cache(geometry, SRRIPPolicy())
        replay(cache, [0, 0])
        assert cache.policy._rrpv[0][0] == 0

    def test_insertion_is_long_not_near(self):
        geometry = tiny_geometry(sets=1, assoc=2)
        cache = Cache(geometry, SRRIPPolicy())
        replay(cache, [0])
        assert cache.policy._rrpv[0][0] == cache.policy.rrpv_max - 1

    def test_victim_prefers_distant_block(self):
        geometry = tiny_geometry(sets=1, assoc=2)
        cache = Cache(geometry, SRRIPPolicy())
        # Fill both ways; re-reference block 0 so it is near (rrpv 0) while
        # block 1 stays long (rrpv 2).  The scan block must evict block 1.
        replay(cache, [0, 1, 0, 2])
        assert cache.contains(0)
        assert not cache.contains(64)

    def test_aging_when_no_distant_block(self):
        geometry = tiny_geometry(sets=1, assoc=2)
        cache = Cache(geometry, SRRIPPolicy())
        replay(cache, [0, 1, 0, 1])  # both rrpv 0
        replay(cache, [2])
        # Aging adds 3 to both, leftmost (way 0) evicted.
        assert not cache.contains(0)
        assert cache.contains(64)

    def test_scan_resistance(self):
        """SRRIP's headline property: a one-time scan should not destroy a
        re-used working set, unlike LRU."""
        geometry = tiny_geometry(sets=1, assoc=4)
        working = [0, 1, 0, 1, 0, 1]
        scan = [10, 11, 12, 13]
        probe = [0, 1]
        srrip = Cache(geometry, SRRIPPolicy())
        lru = Cache(tiny_geometry(sets=1, assoc=4), LRUPolicy())
        for cache in (srrip, lru):
            replay(cache, working)
            replay(cache, scan)
        assert sum(replay(srrip, probe)) >= sum(replay(lru, probe))
        assert sum(replay(srrip, probe + probe)) >= 2


class TestBRRIP:
    def test_mostly_inserts_distant(self):
        geometry = tiny_geometry(sets=1, assoc=4)
        cache = Cache(geometry, BRRIPPolicy(epsilon_inverse=1000))
        replay(cache, [0])
        assert cache.policy._rrpv[0][0] == cache.policy.rrpv_max

    def test_epsilon_one_matches_srrip_insertion(self):
        geometry = tiny_geometry(sets=1, assoc=4)
        cache = Cache(geometry, BRRIPPolicy(epsilon_inverse=1))
        replay(cache, [0])
        assert cache.policy._rrpv[0][0] == cache.policy.rrpv_max - 1

    def test_brrip_survives_thrash_better_than_srrip(self):
        pattern = []
        for _ in range(60):
            pattern.extend(range(6))  # 6 blocks in a 4-way set
        srrip = Cache(tiny_geometry(sets=1, assoc=4), SRRIPPolicy())
        brrip = Cache(tiny_geometry(sets=1, assoc=4), BRRIPPolicy())
        assert sum(replay(brrip, pattern)) >= sum(replay(srrip, pattern))


class TestDRRIP:
    def test_rejects_bad_cores(self):
        with pytest.raises(ValueError):
            DRRIPPolicy(num_cores=0)

    def test_leader_sets_assigned(self):
        geometry = tiny_geometry(sets=64, assoc=4)
        policy = DRRIPPolicy(leader_sets=4)
        Cache(geometry, policy)
        owners = [o for o in policy.duel.owner if o != FOLLOWER]
        assert len(owners) == 8  # 4 SRRIP + 4 BRRIP leaders

    def test_psel_drifts_to_brrip_under_thrash(self):
        geometry = tiny_geometry(sets=16, assoc=4)
        policy = DRRIPPolicy(leader_sets=4, psel_bits=8)
        cache = Cache(geometry, policy)
        start = policy.duel.psels[0]
        pattern = []
        for _ in range(40):
            pattern.extend(range(16 * 6))
        replay(cache, pattern)
        assert policy.duel.psels[0] > start

    def test_multicore_psels_are_independent(self):
        geometry = tiny_geometry(sets=64, assoc=4)
        policy = DRRIPPolicy(num_cores=2, leader_sets=4, psel_bits=6)
        cache = Cache(geometry, policy)
        seq = 0
        for _ in range(40):
            for i in range(64 * 5):  # core 0 thrashes
                cache.access(CacheAccess(address=i * 64, pc=1, seq=seq, core=0))
                seq += 1
            for i in range(32):  # core 1 is friendly
                cache.access(
                    CacheAccess(address=(1 << 22) + i * 64, pc=2, seq=seq, core=1)
                )
                seq += 1
        half = policy.duel.psel_max // 2
        assert policy.duel.psels[0] > half  # BRRIP wins
        assert policy.duel.psels[1] <= half
