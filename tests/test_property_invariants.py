"""Property-based invariants across the whole cache/policy/predictor stack.

These run every policy and predictor combination against arbitrary access
strings and check the accounting identities and optimality bounds that
must hold regardless of workload.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache import Cache, CacheAccess, CacheGeometry
from repro.sim.hierarchy import PreparedStream
from repro.core import DBRBPolicy, SamplingDeadBlockPredictor
from repro.predictors import (
    AIPPredictor,
    BurstFilter,
    CountingPredictor,
    RefTracePredictor,
    TimeBasedPredictor,
)
from repro.replacement import (
    BIPPolicy,
    DIPPolicy,
    DRRIPPolicy,
    LRUPolicy,
    OptimalPolicy,
    RandomPolicy,
    SRRIPPolicy,
    TreePLRUPolicy,
    annotate_next_use,
)


def small_geometry() -> CacheGeometry:
    return CacheGeometry(4 * 2 * 64, 2, 64)


#: (block number, pc index) pairs; small domains force heavy conflict.
access_strings = st.lists(
    st.tuples(st.integers(0, 15), st.integers(0, 5)),
    min_size=1,
    max_size=250,
)


def build_accesses(pairs, geometry):
    return [
        CacheAccess(
            address=block * geometry.block_bytes,
            pc=0x400 + 4 * pc,
            is_write=(block + pc) % 5 == 0,
            seq=seq,
        )
        for seq, (block, pc) in enumerate(pairs)
    ]


POLICY_FACTORIES = [
    ("lru", lambda g, a: LRUPolicy()),
    ("random", lambda g, a: RandomPolicy(seed=7)),
    ("plru", lambda g, a: TreePLRUPolicy()),
    ("bip", lambda g, a: BIPPolicy()),
    ("dip", lambda g, a: DIPPolicy(leader_sets=1)),
    ("tadip", lambda g, a: DIPPolicy(num_cores=2, leader_sets=1)),
    ("srrip", lambda g, a: SRRIPPolicy()),
    ("drrip", lambda g, a: DRRIPPolicy(leader_sets=1)),
    (
        "optimal",
        lambda g, a: OptimalPolicy(
            annotate_next_use(PreparedStream.from_accesses(a, g), g)
        ),
    ),
    ("dbrb-sampler", lambda g, a: DBRBPolicy(LRUPolicy(), SamplingDeadBlockPredictor(sampler_assoc=2))),
    ("dbrb-reftrace", lambda g, a: DBRBPolicy(LRUPolicy(), RefTracePredictor())),
    ("dbrb-counting", lambda g, a: DBRBPolicy(LRUPolicy(), CountingPredictor())),
    ("dbrb-aip", lambda g, a: DBRBPolicy(LRUPolicy(), AIPPredictor())),
    ("dbrb-time", lambda g, a: DBRBPolicy(LRUPolicy(), TimeBasedPredictor())),
    ("dbrb-bursts", lambda g, a: DBRBPolicy(LRUPolicy(), BurstFilter(RefTracePredictor()))),
    ("dbrb-random-sampler", lambda g, a: DBRBPolicy(RandomPolicy(seed=5), SamplingDeadBlockPredictor(sampler_assoc=2))),
]


@settings(max_examples=25, deadline=None)
@given(pairs=access_strings)
def test_accounting_identities_hold_for_every_policy(pairs):
    """accesses = hits + misses; fills = misses - bypasses; residency =
    fills - evictions; everything non-negative."""
    geometry = small_geometry()
    for name, factory in POLICY_FACTORIES:
        accesses = build_accesses(pairs, geometry)
        cache = Cache(geometry, factory(geometry, accesses))
        for access in accesses:
            cache.access(access)
        stats = cache.stats
        assert stats.accesses == len(accesses), name
        assert stats.hits + stats.misses == stats.accesses, name
        assert stats.fills == stats.misses - stats.bypasses, name
        resident = sum(1 for _ in cache.resident_blocks())
        assert resident == stats.fills - stats.evictions, name
        assert stats.writebacks <= stats.evictions, name
        assert stats.dead_block_victims <= stats.evictions, name


@settings(max_examples=25, deadline=None)
@given(pairs=access_strings)
def test_set_occupancy_never_exceeds_associativity(pairs):
    geometry = small_geometry()
    for name, factory in POLICY_FACTORIES:
        accesses = build_accesses(pairs, geometry)
        cache = Cache(geometry, factory(geometry, accesses))
        for access in accesses:
            cache.access(access)
            for ways in cache.sets:
                valid = [b for b in ways if b.valid]
                tags = [b.tag for b in valid]
                assert len(tags) == len(set(tags)), f"{name}: duplicate tags"


@settings(max_examples=25, deadline=None)
@given(pairs=access_strings)
def test_optimal_dominates_every_policy(pairs):
    """Belady MIN with bypass must achieve at least as many hits as every
    other policy on the same access string."""
    geometry = small_geometry()
    accesses = build_accesses(pairs, geometry)
    optimal_cache = Cache(
        geometry,
        OptimalPolicy(
            annotate_next_use(PreparedStream.from_accesses(accesses, geometry), geometry)
        ),
    )
    for access in accesses:
        optimal_cache.access(access)
    optimal_hits = optimal_cache.stats.hits

    for name, factory in POLICY_FACTORIES:
        if name == "optimal":
            continue
        accesses = build_accesses(pairs, geometry)
        cache = Cache(geometry, factory(geometry, accesses))
        for access in accesses:
            cache.access(access)
        assert cache.stats.hits <= optimal_hits, name


@settings(max_examples=20, deadline=None)
@given(pairs=access_strings)
def test_runs_are_deterministic(pairs):
    """Two identical runs of any policy produce identical statistics."""
    geometry = small_geometry()
    for name, factory in POLICY_FACTORIES:
        outcomes = []
        for _ in range(2):
            accesses = build_accesses(pairs, geometry)
            cache = Cache(geometry, factory(geometry, accesses))
            hits = [cache.access(access) for access in accesses]
            outcomes.append((hits, cache.stats.snapshot()))
        assert outcomes[0][0] == outcomes[1][0], name
        assert outcomes[0][1] == outcomes[1][1], name


@settings(max_examples=25, deadline=None)
@given(pairs=access_strings)
def test_sampler_structural_invariants(pairs):
    """The sampler's LRU stacks stay permutations and its sets never hold
    duplicate partial tags."""
    geometry = small_geometry()
    predictor = SamplingDeadBlockPredictor(sampler_assoc=2)
    cache = Cache(geometry, DBRBPolicy(LRUPolicy(), predictor))
    for access in build_accesses(pairs, geometry):
        cache.access(access)
        sampler = predictor.sampler
        for stack in sampler._stacks:
            assert sorted(stack) == list(range(sampler.associativity))
        for entries in sampler.sets:
            tags = [e.partial_tag for e in entries if e.valid]
            assert len(tags) == len(set(tags))
