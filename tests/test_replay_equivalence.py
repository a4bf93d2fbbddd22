"""Golden equivalence of the replay kernel and the reference access loop.

``replay()`` promises bit-identical behavior to
``[cache.access(a) for a in accesses]`` for every replacement policy:
the same hit vector, the same :class:`CacheStats` (hits, misses,
bypasses, fills, evictions, writebacks, dead victims), the same block
contents.  These tests drive every policy family of the repo through
both paths on the same deterministic stream and compare everything.
"""

from __future__ import annotations

import pytest

from repro.cache.cache import Cache, CacheAccess, CacheObserver
from repro.cache.geometry import CacheGeometry
from repro.core import DBRBPolicy, SamplingDeadBlockPredictor
from repro.replacement import (
    DIPPolicy,
    DRRIPPolicy,
    LRUPolicy,
    RandomPolicy,
    SHiPPolicy,
    TADIPPolicy,
    TreePLRUPolicy,
)
from repro.sim.hierarchy import PreparedStream
from repro.sim.replay import replay
from repro.utils.rng import XorShift64
from repro.vvc.cache import VictimRelocationCache

GEOMETRY = CacheGeometry(size_bytes=32 * 4 * 64, associativity=4, block_bytes=64)

#: name -> zero-argument policy factory; a fresh instance per path keeps
#: stateful policies (RNG streams, PSELs, predictor tables) comparable.
POLICIES = {
    "lru": lambda: LRUPolicy(),
    "random": lambda: RandomPolicy(),
    "plru": lambda: TreePLRUPolicy(),
    "dip": lambda: DIPPolicy(),
    "rrip": lambda: DRRIPPolicy(),
    "ship": lambda: SHiPPolicy(),
    "tadip": lambda: TADIPPolicy(num_cores=2),
    "dbrb": lambda: DBRBPolicy(LRUPolicy(), SamplingDeadBlockPredictor()),
}


def make_stream(length: int = 8000, blocks: int = 300) -> list:
    """A deterministic mixed stream: reuse, conflicts, writes, streaming.

    Half the accesses reuse a working set (hits, evictions, writebacks);
    the other half stream through never-revisited blocks from a handful
    of PCs, which is what trains a dead-block predictor to bypass.
    """
    rng = XorShift64(0xC0FFEE)
    accesses = []
    next_cold_block = blocks
    for seq in range(length):
        if rng.randrange(2):
            block = rng.randrange(blocks)
            # Skew toward a hot subset so hits, evictions, and
            # writebacks all occur in quantity.
            if rng.randrange(4):
                block %= 48
            pc = 0x400000 + 8 * rng.randrange(24)
        else:
            block = next_cold_block
            next_cold_block += 1
            pc = 0x500000 + 8 * rng.randrange(4)
        accesses.append(
            CacheAccess(
                address=block * GEOMETRY.block_bytes,
                pc=pc,
                is_write=rng.randrange(5) == 0,
                seq=seq,
                core=seq % 2,
            )
        )
    return accesses


STREAM = make_stream()
#: Built from the stream's columns (its access objects are then derived
#: from them, independently of ``STREAM``'s) and decomposed by the
#: geometry's own accessors, independently of the shared address split
#: in :func:`repro.sim.hierarchy.decompose`.
PREPARED = PreparedStream(
    [a.address for a in STREAM],
    [a.pc for a in STREAM],
    [a.is_write for a in STREAM],
    [GEOMETRY.set_index(a.address) for a in STREAM],
    [GEOMETRY.tag(a.address) for a in STREAM],
    cores=[a.core for a in STREAM],
)


def run_reference(policy_factory):
    cache = Cache(GEOMETRY, policy_factory(), name="ref")
    hits = [cache.access(access) for access in STREAM]
    return cache, hits


def assert_same_state(reference: Cache, replayed: Cache) -> None:
    assert reference.stats.snapshot() == replayed.stats.snapshot()
    for set_index in range(GEOMETRY.num_sets):
        for way in range(GEOMETRY.associativity):
            ref_block = reference.sets[set_index][way]
            new_block = replayed.sets[set_index][way]
            assert ref_block.valid == new_block.valid
            if ref_block.valid:
                assert ref_block.tag == new_block.tag
                assert ref_block.dirty == new_block.dirty
                assert ref_block.last_access_seq == new_block.last_access_seq
                assert ref_block.access_count == new_block.access_count


def assert_tag_index_coherent(cache: Cache) -> None:
    for set_index in range(GEOMETRY.num_sets):
        expected = {
            block.tag: way
            for way, block in enumerate(cache.sets[set_index])
            if block.valid
        }
        assert cache._tag_index[set_index] == expected


@pytest.mark.parametrize("name", sorted(POLICIES))
def test_replay_matches_access_loop(name):
    policy_factory = POLICIES[name]
    reference, loop_hits = run_reference(policy_factory)

    replayed = Cache(GEOMETRY, policy_factory(), name="replay")
    replay_hits = replay(replayed, PREPARED)

    assert replay_hits == loop_hits
    assert_same_state(reference, replayed)
    assert_tag_index_coherent(reference)
    assert_tag_index_coherent(replayed)
    # The stream must have actually exercised the interesting paths.
    stats = replayed.stats
    assert stats.hits > 0 and stats.misses > 0
    assert stats.evictions > 0 and stats.writebacks > 0
    if name == "dbrb":
        assert stats.bypasses > 0


@pytest.mark.parametrize("name", ["lru", "dbrb"])
def test_replay_shared_decomposition_matches(name):
    """The shared address split every prepared stream goes through agrees
    with the geometry's accessors, and replays like the access loop."""
    policy_factory = POLICIES[name]
    _, loop_hits = run_reference(policy_factory)
    stream = PreparedStream.from_accesses(STREAM, GEOMETRY)
    assert stream.set_indices == PREPARED.set_indices
    assert stream.tags == PREPARED.tags
    replayed = Cache(GEOMETRY, policy_factory(), name="replay")
    assert replay(replayed, stream) == loop_hits


class _CountingObserver(CacheObserver):
    def __init__(self):
        self.events = 0

    def on_hit(self, set_index, way, block, access):
        self.events += 1

    def on_fill(self, set_index, way, block, access):
        self.events += 1


def test_replay_with_observer_takes_reference_path():
    """Observers force the fallback loop and still see every event."""
    reference, loop_hits = run_reference(POLICIES["lru"])

    observed = Cache(GEOMETRY, LRUPolicy(), name="observed")
    observer = _CountingObserver()
    observed.add_observer(observer)
    hits = replay(observed, PREPARED)

    assert hits == loop_hits
    assert_same_state(reference, observed)
    stats = observed.stats
    assert observer.events == stats.hits + stats.fills


def test_replay_with_vvc_subclass_takes_reference_path():
    """Cache subclasses keep their overridden access semantics."""
    loop_cache = VictimRelocationCache(GEOMETRY, LRUPolicy())
    loop_hits = [loop_cache.access(access) for access in STREAM]

    replay_cache = VictimRelocationCache(GEOMETRY, LRUPolicy())
    replay_hits = replay(replay_cache, PREPARED)

    assert replay_hits == loop_hits
    assert loop_cache.stats.snapshot() == replay_cache.stats.snapshot()
    assert loop_cache.vvc_stats == replay_cache.vvc_stats
