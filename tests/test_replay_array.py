"""The array-native replay kernels: equivalence, eligibility, fallback.

The array path (:mod:`repro.sim.replay_array` over the
:mod:`repro.cache.soa` substrate) promises *result transparency*: for
every policy in its kernel table, a replay on the flat planes leaves
behind the same hit vector, the same :class:`CacheStats`, the same block
contents, the same per-set tag index, and the same policy-internal state
(recency stacks, RRPV arrays, PSEL counters, RNG position) as the object
kernel (:func:`repro.sim.replay._replay_fast`).  These tests pin that
promise three ways:

* golden equivalence on a deterministic mixed stream, full-state deep
  compare, for the four simple policies in the table and for optimal
  (MIN with and without bypass; DBRB has its own suite,
  ``test_replay_array_dbrb``), and for the four simple policies on a
  4-core merged Figure-10 stream;
* a hypothesis property test over random streams and policies;
* end-to-end sweep bit-identity, array kernels vs an emptied kernel
  table, across the serial and parallel (shared-memory) harness paths.

Plus the eligibility matrix: the table covers exactly the policy types
Table V's techniques build, and every documented fallback reason must be
reported (and the object kernel actually used) for the replay shapes
the array path declines.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.cache import Cache, CacheAccess, CacheObserver
from repro.cache.geometry import CacheGeometry
from repro.replacement import (
    BIPPolicy,
    BRRIPPolicy,
    DIPPolicy,
    DRRIPPolicy,
    LRUPolicy,
    OptimalPolicy,
    RandomPolicy,
    SHiPPolicy,
    SRRIPPolicy,
    TreePLRUPolicy,
    annotate_next_use,
)
from repro.sim import replay_array
from repro.sim.hierarchy import PreparedStream
from repro.sim.replay import _replay_fast, replay
from repro.utils.rng import XorShift64
from repro.vvc.cache import VictimRelocationCache

GEOMETRY = CacheGeometry(size_bytes=16 * 4 * 64, associativity=4, block_bytes=64)

#: Every simple policy in the array kernel table; fresh instance per path.
ARRAY_POLICIES = {
    "lru": lambda: LRUPolicy(),
    "random": lambda: RandomPolicy(seed=0xDEADBEEF),
    "dip": lambda: DIPPolicy(epsilon_inverse=4),
    "drrip": lambda: DRRIPPolicy(rrpv_bits=2, epsilon_inverse=4),
}


def make_stream(geometry, length=4000, write_frac=0.3, seed=7, seq_offset=0):
    """Deterministic mixed stream: reuse skew, conflicts, writes."""
    rng = XorShift64(seed)
    footprint = geometry.num_sets * geometry.associativity * 3
    accesses = []
    for position in range(length):
        block = rng.randrange(footprint)
        if rng.random() < 0.5:
            block = rng.randrange(max(1, footprint // 8))
        accesses.append(
            CacheAccess(
                address=block * geometry.block_bytes,
                pc=block & 0xFFFF,
                is_write=rng.random() < write_frac,
                seq=position + seq_offset,
                core=0,
            )
        )
    return accesses


def policy_state(policy):
    """Every array-kernel-touched policy internal, repr-compared."""
    state = {}
    for attr in (
        "_stacks", "_trees", "_rrpv", "psel", "psels", "_fill_count",
        "_set_role", "_leader_owner", "_leader_is_brrip", "_frame_next",
    ):
        if hasattr(policy, attr):
            state[attr] = repr(getattr(policy, attr))
    rng = getattr(policy, "_rng", None)
    if rng is not None:
        state["_rng"] = rng._state
    return state


def block_state(cache):
    return [
        (
            block.valid, block.tag, block.dirty, block.predicted_dead,
            block.fill_seq, block.last_access_seq, block.access_count,
            dict(block.meta) if block.meta else {},
        )
        for blocks in cache.sets
        for block in blocks
    ]


def replay_both(policy_factory, geometry, stream):
    """Replay ``stream`` (a :class:`PreparedStream`, or an access list to
    decompose) on the object kernel, then through :func:`replay` (which
    takes the array kernel); return both sides."""
    if not isinstance(stream, PreparedStream):
        stream = PreparedStream.from_accesses(stream, geometry)
    object_cache = Cache(geometry, policy_factory())
    object_hits = _replay_fast(object_cache, stream)
    array_cache = Cache(geometry, policy_factory())
    array_hits = replay(array_cache, stream)
    return (object_hits, object_cache), (array_hits, array_cache)


def assert_equivalent(object_side, array_side):
    object_hits, object_cache = object_side
    array_hits, array_cache = array_side
    assert array_cache.last_replay_kernel == "array", (
        f"array kernel declined: {array_cache.last_replay_fallback}"
    )
    assert array_hits == object_hits
    assert array_cache.stats.snapshot() == object_cache.stats.snapshot()
    assert array_cache._tag_index == object_cache._tag_index
    assert block_state(array_cache) == block_state(object_cache)
    assert policy_state(array_cache.policy) == policy_state(object_cache.policy)


# ----------------------------------------------------------------------
# golden equivalence
# ----------------------------------------------------------------------
@pytest.mark.parametrize("write_frac", [0.0, 0.3])
@pytest.mark.parametrize("name", sorted(ARRAY_POLICIES))
def test_array_kernel_matches_object_kernel(name, write_frac):
    accesses = make_stream(GEOMETRY, write_frac=write_frac)
    object_side, array_side = replay_both(ARRAY_POLICIES[name], GEOMETRY, accesses)
    assert_equivalent(object_side, array_side)
    # The stream must actually exercise hits, evictions, and (when
    # writing) writebacks, or the equivalence is vacuous.
    stats = array_side[1].stats
    assert stats.hits > 0 and stats.misses > 0 and stats.evictions > 0
    if write_frac:
        assert stats.writebacks > 0


@pytest.mark.parametrize("name", sorted(ARRAY_POLICIES))
def test_array_kernel_matches_object_kernel_on_merged_stream(name, merged_mix):
    """A Figure-10 mix's 4-core merged shared-LLC stream is a
    :class:`PreparedStream` like any other: full state agrees there too."""
    geometry, stream = merged_mix
    assert {access.core for access in stream.accesses} == {0, 1, 2, 3}
    object_side, array_side = replay_both(ARRAY_POLICIES[name], geometry, stream)
    assert_equivalent(object_side, array_side)
    stats = array_side[1].stats
    assert stats.hits > 0 and stats.evictions > 0 and stats.writebacks > 0


@pytest.mark.parametrize("name", ["lru", "drrip"])
def test_array_kernel_handles_stream_seq_offsets(name):
    """seq != position streams hit the materializer's slow seq branch."""
    accesses = make_stream(GEOMETRY, length=2000, seq_offset=10_000)
    object_side, array_side = replay_both(ARRAY_POLICIES[name], GEOMETRY, accesses)
    assert_equivalent(object_side, array_side)
    resident = [b for b in block_state(array_side[1]) if b[0]]
    assert resident and all(b[4] >= 10_000 for b in resident)


@given(
    seed=st.integers(0, 2**32 - 1),
    length=st.integers(64, 600),
    write_frac=st.sampled_from([0.0, 0.2, 0.6]),
    name=st.sampled_from(sorted(ARRAY_POLICIES)),
)
@settings(max_examples=60, deadline=None)
def test_array_kernel_equivalence_property(seed, length, write_frac, name):
    """Random streams, every policy: the kernels never diverge."""
    geometry = CacheGeometry(size_bytes=8 * 2 * 64, associativity=2)
    accesses = make_stream(
        geometry, length=length, write_frac=write_frac, seed=seed | 1
    )
    object_side, array_side = replay_both(ARRAY_POLICIES[name], geometry, accesses)
    assert_equivalent(object_side, array_side)


def optimal_factory(geometry, accesses, bypass):
    """MIN over the stream's own future annotation; fresh per path."""
    stream = PreparedStream.from_accesses(accesses, geometry)
    return lambda: OptimalPolicy(annotate_next_use(stream, geometry), bypass=bypass)


@pytest.mark.parametrize("write_frac", [0.0, 0.3])
@pytest.mark.parametrize("bypass", [True, False])
def test_optimal_array_kernel_matches_object_kernel(bypass, write_frac):
    """Full state, ``_frame_next`` included; the stream must exercise
    evictions, writebacks and (with the rule on) bypasses."""
    accesses = make_stream(GEOMETRY, write_frac=write_frac)
    object_side, array_side = replay_both(
        optimal_factory(GEOMETRY, accesses, bypass), GEOMETRY, accesses
    )
    assert_equivalent(object_side, array_side)
    stats = array_side[1].stats
    assert stats.hits > 0 and stats.evictions > 0
    assert (stats.bypasses > 0) == bypass
    if write_frac:
        assert stats.writebacks > 0


@given(
    seed=st.integers(0, 2**32 - 1),
    length=st.integers(64, 600),
    write_frac=st.sampled_from([0.0, 0.2, 0.6]),
    bypass=st.booleans(),
    assoc=st.sampled_from([1, 2, 4]),
)
@settings(max_examples=60, deadline=None)
def test_optimal_equivalence_property(seed, length, write_frac, bypass, assoc):
    """Random streams and associativities (direct-mapped included, where
    every full-set miss is a bypass-or-evict decision on one way)."""
    geometry = CacheGeometry(size_bytes=8 * assoc * 64, associativity=assoc)
    accesses = make_stream(
        geometry, length=length, write_frac=write_frac, seed=seed | 1
    )
    object_side, array_side = replay_both(
        optimal_factory(geometry, accesses, bypass), geometry, accesses
    )
    assert_equivalent(object_side, array_side)


# ----------------------------------------------------------------------
# eligibility and fallback attribution
# ----------------------------------------------------------------------
STREAM = make_stream(GEOMETRY)
PREPARED = PreparedStream.from_accesses(STREAM, GEOMETRY)


def expect_fallback(cache, reason, stream=PREPARED):
    object_cache = Cache(GEOMETRY, LRUPolicy())
    expected = _replay_fast(object_cache, stream)
    hits = replay(cache, stream)
    assert cache.last_replay_kernel == "object"
    assert cache.last_replay_fallback == reason
    return hits, expected


def test_fallback_paranoid():
    cache = Cache(GEOMETRY, LRUPolicy(), paranoid=True)
    hits, expected = expect_fallback(cache, "paranoid")
    assert hits == expected


def test_fallback_warm_cache():
    """The first replay runs on the planes; a second one is warm."""
    cache = Cache(GEOMETRY, LRUPolicy())
    replay(cache, PREPARED)
    assert cache.last_replay_kernel == "array"
    replay(cache, PREPARED)
    assert cache.last_replay_kernel == "object"
    assert cache.last_replay_fallback == "warm-cache"

    object_cache = Cache(GEOMETRY, LRUPolicy())
    _replay_fast(object_cache, PREPARED)
    _replay_fast(object_cache, PREPARED)
    assert cache.stats.snapshot() == object_cache.stats.snapshot()
    assert block_state(cache) == block_state(object_cache)


def test_fallback_small_stream():
    """Streams shorter than the frame count can't amortize the planes."""
    short = STREAM[: GEOMETRY.num_sets * GEOMETRY.associativity - 1]
    cache = Cache(GEOMETRY, LRUPolicy())
    hits, expected = expect_fallback(
        cache, "small-stream", PreparedStream.from_accesses(short, GEOMETRY)
    )
    assert hits == expected


def test_fallback_unregistered_policy():
    cache = Cache(GEOMETRY, SHiPPolicy())
    replay(cache, PREPARED)
    assert cache.last_replay_kernel == "object"
    assert cache.last_replay_fallback == "policy:SHiPPolicy"


#: Public policies no technique builds, so none has an array kernel.
OBJECT_POLICIES = {
    "plru": lambda: TreePLRUPolicy(),
    "srrip": lambda: SRRIPPolicy(rrpv_bits=2),
    "bip": lambda: BIPPolicy(epsilon_inverse=4),
    "brrip": lambda: BRRIPPolicy(rrpv_bits=2, epsilon_inverse=4),
}


@pytest.mark.parametrize("write_frac", [0.0, 0.3])
@pytest.mark.parametrize("name", sorted(OBJECT_POLICIES))
def test_fallback_policy_no_technique_builds(name, write_frac):
    """Policies outside the kernel table replay on the object kernel,
    named by exact type, with the object kernel's results and state."""
    stream = PreparedStream.from_accesses(
        make_stream(GEOMETRY, write_frac=write_frac), GEOMETRY
    )
    cache = Cache(GEOMETRY, OBJECT_POLICIES[name]())
    hits = replay(cache, stream)
    assert cache.last_replay_kernel == "object"
    assert cache.last_replay_fallback == f"policy:{type(cache.policy).__name__}"
    object_cache = Cache(GEOMETRY, OBJECT_POLICIES[name]())
    assert hits == _replay_fast(object_cache, stream)
    assert cache.stats.snapshot() == object_cache.stats.snapshot()
    assert block_state(cache) == block_state(object_cache)
    assert policy_state(cache.policy) == policy_state(object_cache.policy)


def test_fallback_optimal_seq_offset():
    """Optimal indexes its future by ``seq``: a stream whose seq is not
    its position declines (``optimal-seq``) and keeps the object path's
    IndexError contract."""
    accesses = make_stream(GEOMETRY, length=2000, seq_offset=10_000)
    stream = PreparedStream.from_accesses(accesses, GEOMETRY)
    cache = Cache(GEOMETRY, OptimalPolicy(annotate_next_use(stream, GEOMETRY)))
    with pytest.raises(IndexError, match="seq to be the stream position"):
        replay(cache, stream)
    assert cache.last_replay_kernel == "object"
    assert cache.last_replay_fallback == "optimal-seq"


def test_fallback_optimal_annotation_length():
    """An annotation longer than the stream is valid for the object path
    (seq stays in range) but not the kernel's: declined, same results."""
    future = annotate_next_use(PREPARED, GEOMETRY) + [0] * 8
    cache = Cache(GEOMETRY, OptimalPolicy(future))
    hits = replay(cache, PREPARED)
    assert cache.last_replay_kernel == "object"
    assert cache.last_replay_fallback == "optimal-seq"
    object_cache = Cache(GEOMETRY, OptimalPolicy(future))
    assert hits == _replay_fast(object_cache, PREPARED)
    assert cache.stats.snapshot() == object_cache.stats.snapshot()
    assert policy_state(cache.policy) == policy_state(object_cache.policy)


def test_fallback_thread_aware_drrip():
    """The DRRIP kernel is in the table but declines multicore set
    dueling."""
    cache = Cache(GEOMETRY, DRRIPPolicy(num_cores=2))
    replay(cache, PREPARED)
    assert cache.last_replay_kernel == "object"
    assert cache.last_replay_fallback == "thread-aware-drrip"


class _NullObserver(CacheObserver):
    pass


def test_fallback_observers():
    cache = Cache(GEOMETRY, LRUPolicy())
    cache.add_observer(_NullObserver())
    replay(cache, PREPARED)
    assert cache.last_replay_kernel == "object"
    assert cache.last_replay_fallback == "observers"


def test_fallback_cache_subclass():
    cache = VictimRelocationCache(GEOMETRY, LRUPolicy())
    replay(cache, PREPARED)
    assert cache.last_replay_kernel == "object"
    assert cache.last_replay_fallback == "cache-subclass"


def test_fallback_probe():
    from repro.telemetry.probe import IntervalRecorder

    cache = Cache(GEOMETRY, LRUPolicy(), probe=IntervalRecorder(epochs=4))
    hits = replay(cache, PREPARED)
    assert cache.last_replay_kernel == "object"
    assert cache.last_replay_fallback == "probe"

    object_cache = Cache(GEOMETRY, LRUPolicy())
    assert hits == _replay_fast(object_cache, PREPARED)


# ----------------------------------------------------------------------
# the kernel table covers exactly the techniques that build its policies
# ----------------------------------------------------------------------
#: Table V cells that replay array-native on a cold single-core stream.
ARRAY_TECHNIQUES = (
    "lru", "random", "dip", "rrip", "sampler", "random_sampler",
    "tdbp", "cdbp", "optimal",
)

#: The other Table V cells, with the fallback reason each must report.
OBJECT_TECHNIQUES = {
    "tadip": "policy:TADIPPolicy",
    "random_cdbp": "dbrb-default:RandomPolicy",
    "ship": "policy:SHiPPolicy",
}


def test_kernel_table_covers_exactly_the_array_techniques():
    """Every kernel in the table serves a policy type some technique
    builds, and on a cold Figure-4 stream every technique cell reports
    the kernel it ran and, on the object kernel, a named reason."""
    from repro.harness.runner import ExperimentConfig, WorkloadCache
    from repro.harness.techniques import TECHNIQUES

    assert set(ARRAY_TECHNIQUES) | set(OBJECT_TECHNIQUES) == set(TECHNIQUES)
    workloads = WorkloadCache(ExperimentConfig(instructions=30_000))
    geometry = workloads.machine.llc
    stream = workloads.filtered("mcf").llc_stream(geometry)
    built = set()
    observed = {}
    for key, technique in TECHNIQUES.items():
        cache = Cache(geometry, technique.build(geometry, stream))
        built.add(type(cache.policy))
        replay(cache, stream)
        observed[key] = (cache.last_replay_kernel, cache.last_replay_fallback)

    assert set(replay_array._KERNELS) <= built
    expected = {key: ("array", None) for key in ARRAY_TECHNIQUES}
    expected.update(
        (key, ("object", reason)) for key, reason in OBJECT_TECHNIQUES.items()
    )
    assert observed == expected


# ----------------------------------------------------------------------
# end-to-end sweep bit-identity, array kernels vs an emptied table
# ----------------------------------------------------------------------
SWEEP_BENCHMARKS = ("mcf",)
SWEEP_TECHNIQUES = ("lru", "rrip", "tdbp", "cdbp", "optimal")


def run_sweep(**kwargs):
    from repro.harness.export import to_dict
    from repro.harness.parallel import parallel_single_thread_comparison
    from repro.harness.runner import ExperimentConfig

    config = ExperimentConfig(instructions=30_000)
    comparison = parallel_single_thread_comparison(
        config, SWEEP_TECHNIQUES, SWEEP_BENCHMARKS, **kwargs
    )
    return to_dict(comparison)


def object_sweep(monkeypatch, **kwargs):
    """The same sweep in this process with the kernel table emptied, so
    every cell replays on the object kernel."""
    with monkeypatch.context() as patch:
        patch.setattr(replay_array, "_KERNELS", {})
        return run_sweep(**kwargs)


def test_sweep_bit_identity_array_on_off_serial(monkeypatch):
    assert run_sweep(jobs=1) == object_sweep(monkeypatch, jobs=1)


@pytest.mark.faults
def test_sweep_bit_identity_array_on_parallel_shm(monkeypatch):
    """Array kernels inside spawn workers with shared-memory streams must
    match the in-process object-kernel sweep bit for bit.  (Spawned
    workers import a fresh kernel table, so they always take the array
    path.)"""
    parallel = run_sweep(jobs=2, shared_memory=True)
    assert parallel == object_sweep(monkeypatch, jobs=1)
