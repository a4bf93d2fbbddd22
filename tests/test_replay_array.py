"""The array replay kernels of the simple policies and optimal.

Named cases over the differential harness
(:mod:`tests.test_replay_differential`): each replays a registry subject
through :func:`repro.sim.replay.replay` and through the reference loop
and compares the full state.  ``*_matches_object_kernel`` cases replay
once on the array kernel and once with the kernel table emptied (the
reference loop), so both equal the reference, and so each other.  This suite's own shapes
are a 16-set, 4-way cache, the ``mixed`` stream with and without writes,
and random streams on 8 sets.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.geometry import CacheGeometry
from tests.conftest import make_stream
from tests.test_replay_differential import differential

GEOMETRY = CacheGeometry(size_bytes=16 * 4 * 64, associativity=4)
STREAM = make_stream(GEOMETRY)

#: The simple policies in the array kernel table -> harness subject.
ARRAY_SUBJECTS = {
    "lru": "lru",
    "random": "random-seeded",
    "dip": "dip-eps4",
    "drrip": "drrip-eps4",
}

#: Public policies no technique builds, so none has an array kernel.
OBJECT_SUBJECTS = ("plru", "srrip", "bip", "brrip")


def both_kernels(name, geometry, stream):
    """Replay subject ``name`` on its kernel and on the reference loop,
    each against the reference loop; return the first replayed cache."""
    cache = differential(name, geometry, stream)
    differential(name, geometry, stream, "kernels-off")
    return cache


@pytest.mark.parametrize("write_frac", [0.0, 0.3])
@pytest.mark.parametrize("name", sorted(ARRAY_SUBJECTS))
def test_array_kernel_matches_object_kernel(name, write_frac):
    stream = make_stream(GEOMETRY, write_frac=write_frac)
    stats = both_kernels(ARRAY_SUBJECTS[name], GEOMETRY, stream).stats
    # The stream must exercise hits, evictions and (when writing)
    # writebacks, or the equivalence is vacuous.
    assert stats.hits > 0 and stats.misses > 0 and stats.evictions > 0
    if write_frac:
        assert stats.writebacks > 0


@pytest.mark.parametrize("name", sorted(ARRAY_SUBJECTS))
def test_array_kernel_matches_object_kernel_on_merged_stream(name, merged_mix):
    """A Figure-10 mix's 4-core merged shared-LLC stream is a
    :class:`PreparedStream` like any other."""
    geometry, stream = merged_mix
    assert set(stream.cores) == {0, 1, 2, 3}
    stats = both_kernels(ARRAY_SUBJECTS[name], geometry, stream).stats
    assert stats.hits > 0 and stats.evictions > 0 and stats.writebacks > 0


@given(
    seed=st.integers(0, 2**32 - 1),
    length=st.integers(64, 600),
    write_frac=st.sampled_from([0.0, 0.2, 0.6]),
    name=st.sampled_from(sorted(ARRAY_SUBJECTS)),
)
@settings(max_examples=60, deadline=None)
def test_array_kernel_equivalence_property(seed, length, write_frac, name):
    """Random streams, every simple policy: never a divergence."""
    geometry = CacheGeometry(size_bytes=8 * 2 * 64, associativity=2)
    stream = make_stream(geometry, length=length, seed=seed | 1, write_frac=write_frac)
    differential(ARRAY_SUBJECTS[name], geometry, stream)


@pytest.mark.parametrize("write_frac", [0.0, 0.3])
@pytest.mark.parametrize("bypass", [True, False])
def test_optimal_array_kernel_matches_object_kernel(bypass, write_frac):
    """Full state, ``_frame_next`` included; the stream must exercise
    evictions, writebacks and (with the rule on) bypasses."""
    name = "optimal" if bypass else "optimal-no-bypass"
    stream = make_stream(GEOMETRY, write_frac=write_frac)
    stats = both_kernels(name, GEOMETRY, stream).stats
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
    stream = make_stream(geometry, length=length, seed=seed | 1, write_frac=write_frac)
    differential("optimal" if bypass else "optimal-no-bypass", geometry, stream)


# ----------------------------------------------------------------------
# fallback attribution (the harness asserts each reported reason)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("write_frac", [0.0, 0.3])
@pytest.mark.parametrize("name", OBJECT_SUBJECTS)
def test_fallback_policy_no_technique_builds(name, write_frac):
    """Policies outside the kernel table replay on the reference loop,
    named by exact type (``policy:<type>``)."""
    differential(name, GEOMETRY, make_stream(GEOMETRY, write_frac=write_frac))


def test_fallback_unregistered_policy():
    differential("ship", GEOMETRY, STREAM)


def test_fallback_observers():
    cache = differential("lru", GEOMETRY, STREAM, "observer")
    assert cache.last_replay_fallback == "observers"


def test_fallback_cache_subclass():
    cache = differential("lru", GEOMETRY, STREAM, "subclass")
    assert cache.last_replay_fallback == "cache-subclass"
