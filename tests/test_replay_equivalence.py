"""``replay()`` against the reference access loop, one case per policy family.

``replay()`` promises the behaviour of ``[cache.access(a) for a in
stream.accesses]`` for every replacement policy, whichever kernel it
takes.  Named cases over the differential harness
(:mod:`tests.test_replay_differential`) on this suite's stream: 8,000
accesses on a 32-set, 4-way cache, half reuse of a hot working set, half
never-revisited blocks from a few PCs, two cores interleaved.
"""

from __future__ import annotations

import pytest

from repro.sim.hierarchy import PreparedStream
from tests.conftest import make_stream
from tests.test_replay_differential import GEOMETRY, differential

STREAM = make_stream(GEOMETRY, "cold", 8000, seed=0xC0FFEE, write_frac=0.2)

#: Policy family -> harness subject.
POLICIES = {
    "lru": "lru",
    "random": "random",
    "plru": "plru",
    "dip": "dip",
    "rrip": "rrip",
    "ship": "ship",
    "tadip": "tadip-4core",
    "dbrb": "sampler",
}


@pytest.mark.parametrize("name", sorted(POLICIES))
def test_replay_matches_access_loop(name):
    stats = differential(POLICIES[name], GEOMETRY, STREAM).stats
    # The stream must have exercised the interesting paths.
    assert stats.hits > 0 and stats.misses > 0
    assert stats.evictions > 0 and stats.writebacks > 0
    if name == "dbrb":
        assert stats.bypasses > 0


@pytest.mark.parametrize("name", ["lru", "dbrb"])
def test_replay_shared_decomposition_matches(name):
    """The shared address split every prepared stream goes through agrees
    with the geometry's accessors, and replays like the access loop."""
    accesses = STREAM.accesses
    stream = PreparedStream.from_accesses(accesses, GEOMETRY)
    assert stream.set_indices == [GEOMETRY.set_index(a.address) for a in accesses]
    assert stream.tags == [GEOMETRY.tag(a.address) for a in accesses]
    differential(POLICIES[name], GEOMETRY, stream)


def test_replay_with_observer_takes_reference_path():
    """Observers force the reference loop and still see every event."""
    cache = differential("lru", GEOMETRY, STREAM, "observer")
    assert cache.last_replay_fallback == "observers"
    (observer,) = cache._observers
    assert observer.accesses == cache.stats.accesses


def test_replay_with_vvc_subclass_takes_reference_path():
    """Cache subclasses keep their overridden access semantics (the
    victim cache's counters are part of the compared state)."""
    cache = differential("lru", GEOMETRY, STREAM, "subclass")
    assert cache.last_replay_fallback == "cache-subclass"
    assert cache.vvc_stats
