"""Tests for Belady MIN + optimal bypass."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache import Cache, CacheAccess
from repro.replacement import LRUPolicy, OptimalPolicy, annotate_next_use
from repro.replacement.optimal import NEVER
from repro.sim.hierarchy import PreparedStream

from tests.conftest import make_access, replay, tiny_geometry


def build_stream(block_numbers, geometry):
    return [
        make_access(number, geometry, seq=seq)
        for seq, number in enumerate(block_numbers)
    ]


def next_uses(accesses, geometry):
    return annotate_next_use(PreparedStream.from_accesses(accesses, geometry), geometry)


def run_optimal(block_numbers, sets=1, assoc=2, bypass=True):
    geometry = tiny_geometry(sets=sets, assoc=assoc)
    stream = build_stream(block_numbers, geometry)
    next_use = next_uses(stream, geometry)
    cache = Cache(geometry, OptimalPolicy(next_use, bypass=bypass))
    hits = [cache.access(access) for access in stream]
    return cache, hits


def run_lru(block_numbers, sets=1, assoc=2):
    cache = Cache(tiny_geometry(sets=sets, assoc=assoc), LRUPolicy())
    return cache, replay(cache, block_numbers)


class TestAnnotateNextUse:
    def test_simple_chain(self):
        geometry = tiny_geometry()
        stream = build_stream([0, 1, 0, 1, 0], geometry)
        next_use = next_uses(stream, geometry)
        assert next_use == [2, 3, 4, NEVER, NEVER]

    def test_never_reused(self):
        geometry = tiny_geometry()
        stream = build_stream([0, 1, 2], geometry)
        assert next_uses(stream, geometry) == [NEVER] * 3

    def test_empty_stream(self):
        geometry = tiny_geometry()
        assert next_uses([], geometry) == []

    def test_offset_within_block_shares_next_use(self):
        geometry = tiny_geometry()
        stream = [
            CacheAccess(address=0, pc=0, seq=0),
            CacheAccess(address=32, pc=0, seq=1),  # same 64B block
        ]
        assert next_uses(stream, geometry) == [1, NEVER]


class TestBeladyChoices:
    def test_evicts_farthest_future(self):
        # Set: {0, 1}; access 2 arrives; 0 is used next, 1 much later.
        _, hits = run_optimal([0, 1, 2, 0, 2, 0, 1])
        # MIN keeps 0, and with bypass may refuse 2 only if its next use is
        # farther than both residents -- here 2 is used at 4, sooner than 1
        # at 6, so 2 is placed, evicting 1.
        assert hits == [False, False, False, True, True, True, False]

    def test_bypass_refuses_distant_block(self):
        # Residents 0 (next at 3) and 1 (next at 4); 2 is never used again.
        cache, hits = run_optimal([0, 1, 2, 0, 1])
        assert hits == [False, False, False, True, True]
        assert cache.stats.bypasses == 1

    def test_no_bypass_when_free_frame(self):
        cache, _ = run_optimal([0], assoc=2)
        assert cache.stats.bypasses == 0
        assert cache.contains(0)

    def test_bypass_disabled_places_everything(self):
        cache, _ = run_optimal([0, 1, 2, 0, 1], bypass=False)
        assert cache.stats.bypasses == 0

    def test_lru_pathological_case(self):
        """Cyclic working set of assoc+1: LRU gets zero hits, MIN hits a lot."""
        pattern = [0, 1, 2] * 20
        _, lru_hits = run_lru(pattern, assoc=2)
        _, optimal_hits = run_optimal(pattern, assoc=2)
        assert sum(lru_hits) == 0
        assert sum(optimal_hits) >= len(pattern) // 3


@settings(max_examples=60, deadline=None)
@given(
    blocks=st.lists(st.integers(min_value=0, max_value=12), min_size=1, max_size=250),
    assoc=st.sampled_from([1, 2, 4]),
)
def test_optimal_never_worse_than_lru(blocks, assoc):
    """Property: MIN+bypass produces no more misses than LRU on any access
    string (Belady optimality; bypass can only help further)."""
    _, lru_hits = run_lru(blocks, sets=2, assoc=assoc)
    _, optimal_hits = run_optimal(blocks, sets=2, assoc=assoc)
    assert sum(optimal_hits) >= sum(lru_hits)


@settings(max_examples=40, deadline=None)
@given(
    blocks=st.lists(st.integers(min_value=0, max_value=8), min_size=1, max_size=150),
)
def test_optimal_bypass_never_worse_than_plain_min(blocks):
    """Property: adding the bypass rule never increases misses over MIN."""
    _, plain = run_optimal(blocks, sets=1, assoc=2, bypass=False)
    _, bypass = run_optimal(blocks, sets=1, assoc=2, bypass=True)
    assert sum(bypass) >= sum(plain)


@settings(max_examples=30, deadline=None)
@given(
    blocks=st.lists(st.integers(min_value=0, max_value=6), min_size=1, max_size=60),
)
def test_optimal_matches_exhaustive_search_on_tiny_cases(blocks):
    """Property: on a 1-set, 2-way cache, MIN's hit count equals the best
    achievable by exhaustive search over all eviction/bypass choices."""
    geometry = tiny_geometry(sets=1, assoc=2)
    stream = [geometry.block_address(b * 64) for b in blocks]
    memo = {}

    def best(position, resident):
        if position == len(stream):
            return 0
        key = (position, resident)
        if key in memo:
            return memo[key]
        block = stream[position]
        if block in resident:
            result = 1 + best(position + 1, resident)
        else:
            options = []
            if len(resident) < 2:
                options.append(best(position + 1, resident | {block}))
            else:
                options.append(best(position + 1, resident))  # bypass
                for victim in resident:
                    options.append(
                        best(position + 1, (resident - {victim}) | {block})
                    )
            result = max(options)
        memo[key] = result
        return result

    _, hits = run_optimal(blocks, sets=1, assoc=2)
    assert sum(hits) == best(0, frozenset())
