"""Tests for BIP, DIP, and thread-aware DIP (TADIP) insertion policies."""

import pytest

from repro.cache import Cache, CacheAccess
from repro.replacement import BIPPolicy, DIPPolicy, LRUPolicy
from repro.replacement.dueling import FOLLOWER, SetDuel

from tests.conftest import replay, tiny_geometry


def thrash_pattern(working_set: int, rounds: int):
    """A cyclic scan over ``working_set`` distinct blocks, repeated."""
    return list(range(working_set)) * rounds


class TestBIP:
    def test_mostly_inserts_at_lru(self):
        geometry = tiny_geometry(sets=1, assoc=4)
        cache = Cache(geometry, BIPPolicy(epsilon_inverse=1000))
        # Fill the set, then touch a scanning stream: with LRU insertion the
        # resident working set {0..3} would be fully destroyed; with BIP the
        # first scan block takes the LRU victim and later scan blocks evict
        # each other, so only one working-set block is lost.
        replay(cache, [0, 1, 2, 3, 0, 1, 2, 3])
        hits = replay(cache, [4, 5, 6, 0, 1, 2])
        assert hits == [False, False, False, False, True, True]

    def test_epsilon_fill_goes_to_mru(self):
        geometry = tiny_geometry(sets=1, assoc=4)
        cache = Cache(geometry, BIPPolicy(epsilon_inverse=1))
        # With epsilon 1/1 every fill is MRU: behaves exactly like LRU.
        lru = Cache(geometry, LRUPolicy())
        pattern = thrash_pattern(6, 4)
        assert replay(cache, pattern) == replay(lru, pattern)

    def test_bip_beats_lru_on_thrash(self):
        """The motivating case: working set of assoc+1 cycled repeatedly.
        LRU misses every time; BIP retains most of the working set."""
        pattern = thrash_pattern(5, 40)
        lru = Cache(tiny_geometry(sets=1, assoc=4), LRUPolicy())
        bip = Cache(tiny_geometry(sets=1, assoc=4), BIPPolicy())
        lru_hits = sum(replay(lru, pattern))
        bip_hits = sum(replay(bip, pattern))
        assert lru_hits == 0  # classic LRU pathological case
        assert bip_hits > len(pattern) // 2

    def test_rejects_bad_epsilon(self):
        with pytest.raises(ValueError):
            BIPPolicy(epsilon_inverse=0)


def leader_counts(duel):
    """(first-policy leaders, second-policy leaders, followers)."""
    leaders = [s for o, s in zip(duel.owner, duel.second) if o != FOLLOWER]
    return leaders.count(False), leaders.count(True), duel.owner.count(FOLLOWER)


class TestDIP:
    def test_leader_assignment_covers_both_policies(self):
        duel = SetDuel(leader_sets=4)
        duel.bind(64)
        assert leader_counts(duel) == (4, 4, 56)

    def test_leader_assignment_clamps_for_tiny_cache(self):
        duel = SetDuel(leader_sets=32)
        duel.bind(4)
        assert leader_counts(duel) == (2, 2, 0)

    def test_psel_moves_toward_bip_under_thrash(self):
        geometry = tiny_geometry(sets=16, assoc=4)
        policy = DIPPolicy(leader_sets=4, psel_bits=8)
        cache = Cache(geometry, policy)
        start = policy.duel.psels[0]
        # Thrash every set: blocks k, k+16, k+32, ... share set k.
        pattern = []
        for _ in range(30):
            for i in range(16 * 5):
                pattern.append(i)
        replay(cache, pattern)
        # Both leader groups miss, but LRU leaders miss strictly more,
        # so PSEL must drift up (toward BIP).
        assert policy.duel.psels[0] > start

    def test_dip_beats_lru_on_thrash(self):
        geometry = tiny_geometry(sets=4, assoc=4)
        pattern = []
        for _ in range(60):
            pattern.extend(range(4 * 5))  # 5 blocks per set: thrash
        lru = Cache(tiny_geometry(sets=4, assoc=4), LRUPolicy())
        dip = Cache(geometry, DIPPolicy(leader_sets=1, psel_bits=6))
        assert sum(replay(dip, pattern)) > sum(replay(lru, pattern))

    def test_dip_matches_lru_on_friendly_workload(self):
        """When the working set fits, DIP's followers stay in LRU mode and
        hit rates match plain LRU almost exactly."""
        geometry = tiny_geometry(sets=4, assoc=4)
        pattern = []
        for _ in range(50):
            pattern.extend(range(8))  # 2 blocks per set: fits easily
        lru = Cache(tiny_geometry(sets=4, assoc=4), LRUPolicy())
        dip = Cache(geometry, DIPPolicy(leader_sets=1))
        lru_hits = sum(replay(lru, pattern))
        dip_hits = sum(replay(dip, pattern))
        assert dip_hits >= lru_hits * 0.9

    def test_rejects_zero_leader_sets(self):
        with pytest.raises(ValueError):
            DIPPolicy(leader_sets=0)


class TestTADIP:
    def test_requires_positive_cores(self):
        with pytest.raises(ValueError):
            DIPPolicy(num_cores=0)

    def test_each_core_owns_leader_sets(self):
        geometry = tiny_geometry(sets=64, assoc=4)
        policy = DIPPolicy(num_cores=4, leader_sets=2)
        Cache(geometry, policy)
        owners = set(policy.duel.owner) - {FOLLOWER}
        assert owners == {0, 1, 2, 3}

    def test_thrashing_core_switches_to_bip_friendly_core_does_not(self):
        geometry = tiny_geometry(sets=32, assoc=4)
        policy = DIPPolicy(num_cores=2, leader_sets=4, psel_bits=6)
        cache = Cache(geometry, policy)
        seq = 0
        # Core 0: streams over a huge footprint (thrash).  Core 1: reuses a
        # tiny footprint (friendly).
        for round_index in range(40):
            for i in range(32 * 5):
                cache.access(
                    CacheAccess(address=i * 64, pc=1, seq=seq, core=0)
                )
                seq += 1
            for i in range(16):
                cache.access(
                    CacheAccess(address=(1 << 20) + i * 64, pc=2, seq=seq, core=1)
                )
                seq += 1
        half = policy.duel.psel_max // 2
        assert policy.duel.psels[0] > half  # BIP wins
        assert policy.duel.psels[1] <= half

    def test_single_core_tadip_behaves_like_dip_shape(self):
        """With one core, TADIP should still solve the thrash case."""
        geometry = tiny_geometry(sets=4, assoc=4)
        pattern = []
        for _ in range(60):
            pattern.extend(range(4 * 5))
        lru = Cache(tiny_geometry(sets=4, assoc=4), LRUPolicy())
        tadip = Cache(geometry, DIPPolicy(num_cores=1, leader_sets=1, psel_bits=6))
        assert sum(replay(tadip, pattern)) > sum(replay(lru, pattern))
