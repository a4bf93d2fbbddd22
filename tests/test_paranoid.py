"""Paranoid mode: per-access machine-checking of cache invariants.

``Cache(paranoid=True)`` (or ``REPRO_PARANOID=1``) validates the PR-1
tag->way fast-path index against the ground-truth frame array, the
replacement policy's own metadata, and the statistics counters after
every access.  These tests corrupt each of those structures directly and
assert the checker names the damage; they also pin that paranoid mode is
a pure observer -- simulated results are bit-identical with it on or off,
including through the replay fast path.
"""

from __future__ import annotations

import random

import pytest
from tests.conftest import make_access, replay as drive, tiny_geometry

from repro.cache import Cache, CacheStats
from repro.cache.cache import ParanoidViolation
from repro.replacement.lru import LRUPolicy
from repro.sim.hierarchy import PreparedStream
from repro.sim.replay import replay


def make_cache(paranoid=True, sets=4, assoc=2):
    return Cache(tiny_geometry(sets=sets, assoc=assoc), LRUPolicy(), paranoid=paranoid)


def warm(cache, blocks=(0, 1, 4, 5, 0, 8, 1)):
    drive(cache, blocks)


class TestDetection:
    def test_clean_cache_passes(self):
        cache = make_cache()
        warm(cache)
        cache.check_invariants()

    def test_stale_index_entry_caught_on_access(self):
        # An index entry pointing at a frame that no longer holds that
        # tag is exactly the class of fast-path bug paranoid mode is for.
        cache = make_cache()
        warm(cache)
        set_index, ways = next(
            (s, w) for s, w in enumerate(cache.sets) if any(b.valid for b in w)
        )
        way = next(w for w, b in enumerate(cache.sets[set_index]) if b.valid)
        cache.sets[set_index][way].tag ^= 0x5A  # frame and index now disagree
        with pytest.raises(ParanoidViolation, match="frame holds"):
            cache.access(make_access(set_index, cache.geometry, seq=99))

    def test_index_to_invalid_frame_caught(self):
        cache = make_cache()
        warm(cache)
        set_index = next(
            s for s, index in enumerate(cache._tag_index) if index
        )
        tag, way = next(iter(cache._tag_index[set_index].items()))
        cache.sets[set_index][way].invalidate()
        with pytest.raises(ParanoidViolation, match="invalid frame"):
            cache.check_invariants(set_index)

    def test_missing_index_entry_caught(self):
        cache = make_cache()
        warm(cache)
        set_index = next(
            s for s, index in enumerate(cache._tag_index) if index
        )
        cache._tag_index[set_index].clear()  # frames valid, index empty
        with pytest.raises(ParanoidViolation, match="not indexed to its way"):
            cache.check_invariants(set_index)

    def test_out_of_range_index_way_caught(self):
        cache = make_cache()
        warm(cache)
        set_index = next(
            s for s, index in enumerate(cache._tag_index) if index
        )
        tag = next(iter(cache._tag_index[set_index]))
        cache._tag_index[set_index][tag] = 99
        with pytest.raises(ParanoidViolation, match="out-of-range way"):
            cache.check_invariants(set_index)

    def test_lru_stack_corruption_caught(self):
        cache = make_cache()
        warm(cache)
        stack = cache.policy._stacks[0]
        stack[0] = stack[1]  # duplicate entry: not a permutation
        with pytest.raises(ParanoidViolation, match="not a permutation"):
            cache.check_invariants(0)

    def test_stats_identity_violation_caught(self):
        cache = make_cache()
        warm(cache)
        cache.stats.hits += 3  # hits + misses no longer equals accesses
        with pytest.raises(ParanoidViolation, match="stats identity"):
            cache.check_invariants()

    def test_stats_regression_caught(self):
        cache = make_cache()
        warm(cache)
        cache.check_invariants()  # snapshots the floor
        cache.stats.accesses -= 1
        cache.stats.misses -= 1
        with pytest.raises(ParanoidViolation, match="went backwards"):
            cache.check_invariants()

    def test_violation_is_loud_only_in_paranoid_mode(self):
        # The same damage goes unnoticed with paranoid off: the mode is
        # what buys detection, not the normal access path.
        cache = make_cache(paranoid=False)
        warm(cache)
        set_index = next(
            s for s, index in enumerate(cache._tag_index) if index
        )
        cache._tag_index[set_index].clear()
        cache.access(make_access(set_index + 4 * 7, cache.geometry, seq=99))


class TestTransparency:
    def test_results_identical_with_and_without(self):
        rng = random.Random(7)
        blocks = [rng.randrange(64) for _ in range(600)]
        plain, checked = make_cache(paranoid=False), make_cache(paranoid=True)
        assert drive(plain, blocks) == drive(checked, blocks)
        assert plain.stats.snapshot() == checked.stats.snapshot()

    def test_replay_checked_and_identical(self):
        # Paranoid mode sends sim.replay to the Cache.access reference
        # loop, which checks the touched set and the statistics after
        # every access; the hit vector and stats must not move.
        rng = random.Random(11)
        geometry = tiny_geometry(sets=8, assoc=4)
        accesses = [
            make_access(rng.randrange(256), geometry, seq=seq)
            for seq in range(800)
        ]
        plain = Cache(geometry, LRUPolicy(), paranoid=False)
        checked = Cache(geometry, LRUPolicy(), paranoid=True)
        stream = PreparedStream.from_accesses(accesses, geometry)
        assert replay(plain, stream) == replay(checked, stream)
        assert plain.stats.snapshot() == checked.stats.snapshot()

    def test_replay_detects_planted_corruption(self):
        geometry = tiny_geometry(sets=8, assoc=4)
        accesses = [
            make_access(number, geometry, seq=seq)
            for seq, number in enumerate([0, 8, 16, 24, 0, 32])
        ]
        cache = Cache(geometry, LRUPolicy(), paranoid=True)
        replay(cache, PreparedStream.from_accesses(accesses, geometry))
        cache._tag_index[0].clear()
        with pytest.raises(ParanoidViolation):
            replay(
                cache,
                PreparedStream.from_accesses(
                    [make_access(0, geometry, seq=0)], geometry
                ),
            )


class TestConfiguration:
    def test_default_is_off(self, monkeypatch):
        monkeypatch.delenv("REPRO_PARANOID", raising=False)
        assert not Cache(tiny_geometry(), LRUPolicy()).paranoid

    @pytest.mark.parametrize("value,expected", [
        ("1", True), ("true", True), ("YES", True), ("on", True),
        ("0", False), ("", False), ("off", False),
    ])
    def test_env_flag(self, monkeypatch, value, expected):
        monkeypatch.setenv("REPRO_PARANOID", value)
        assert Cache(tiny_geometry(), LRUPolicy()).paranoid is expected

    def test_explicit_argument_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_PARANOID", "1")
        assert not Cache(tiny_geometry(), LRUPolicy(), paranoid=False).paranoid

    def test_stats_floor_starts_clean(self):
        cache = make_cache()
        assert cache._stats_floor.accesses == 0
        assert isinstance(cache._stats_floor, CacheStats)
