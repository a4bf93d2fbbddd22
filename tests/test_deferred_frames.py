"""Deferred block frames: a cache builds its ``CacheBlock`` frames on first read.

A new :class:`~repro.cache.cache.Cache` holds no frames, and an array
replay leaves its final state in the committed
:class:`~repro.cache.soa.SoACache` instead of writing blocks.  The first
read of the frames builds them.  These tests pin:

* no block exists after an array replay until a read, and each kind of
  read (``resident_blocks``, ``find``, ``check_invariants``, a warm
  replay) then sees exactly what the ``Cache.access`` reference loop
  leaves;
* the reference loop keeps CPython's plain attribute loads: ``Cache``
  defines no ``__getattr__``/``__getattribute__``, and after one access
  a fresh cache holds plain lists;
* the array path's warm-cache check does not build a fresh cache's
  frames;
* the committed state holds no per-frame Python object: the TDBP and
  CDBP kernels commit their metadata planes as flat lists, and the
  stream's ``ReplayIndex`` holds no per-block dict, so ``block.meta``
  dicts and ``access_count`` / ``last_access_seq`` are made only when
  the frames are built -- exactly, also for blocks evicted and filled
  again.
"""

from __future__ import annotations

from unittest import mock

import pytest

from repro.cache import cache as cache_module
from repro.cache.block import CacheBlock
from repro.cache.cache import Cache, CacheAccess
from repro.cache.geometry import CacheGeometry
from repro.harness.techniques import TECHNIQUES
from repro.sim.replay import replay
from tests.conftest import make_stream
from tests.test_replay_differential import full_state

GEOMETRY = CacheGeometry(size_bytes=32 * 4 * 64, associativity=4)
STREAM = make_stream(GEOMETRY, "mixed", 1200)
WARM_STREAM = make_stream(GEOMETRY, "dead", 600, seed=3)


@pytest.fixture
def built_blocks():
    """Counts every ``CacheBlock`` a cache builds while the fixture is live."""
    built = []

    class CountedBlock(CacheBlock):
        __slots__ = ()

        def __init__(self) -> None:
            super().__init__()
            built.append(self)

    with mock.patch.object(cache_module, "CacheBlock", CountedBlock):
        yield built


def _cache(technique):
    return Cache(GEOMETRY, TECHNIQUES[technique].build(GEOMETRY, STREAM))


def _block_fields(cache):
    return [
        (set_index, way, block.tag, block.dirty, block.predicted_dead,
         block.fill_seq, block.last_access_seq, block.access_count, block.meta)
        for set_index, way, block in cache.resident_blocks()
    ]


def _reference(technique):
    cache = _cache(technique)
    hits = [cache.access(access) for access in STREAM.accesses]
    return cache, hits


def _read_resident_blocks(cache, reference):
    assert _block_fields(cache) == _block_fields(reference)


def _read_find(cache, reference):
    blocks = list(zip(STREAM.set_indices, STREAM.tags))
    assert [cache.find(s, t) for s, t in blocks] == [
        reference.find(s, t) for s, t in blocks
    ]


def _read_check_invariants(cache, reference):
    cache.check_invariants()
    reference.check_invariants()


def _read_warm_replay(cache, reference):
    expected = [reference.access(access) for access in WARM_STREAM.accesses]
    assert replay(cache, WARM_STREAM) == expected
    assert cache.last_replay_fallback == "warm-cache"


READS = {
    "resident_blocks": _read_resident_blocks,
    "find": _read_find,
    "check_invariants": _read_check_invariants,
    "warm-replay": _read_warm_replay,
}


@pytest.mark.parametrize("technique", ["lru", "sampler", "tdbp", "cdbp"])
@pytest.mark.parametrize("read", sorted(READS))
def test_array_replay_builds_no_frames_until_a_read(built_blocks, read, technique):
    reference, expected = _reference(technique)
    built_blocks.clear()
    cache = _cache(technique)
    assert replay(cache, STREAM) == expected
    assert cache.last_replay_kernel == "array"
    assert built_blocks == []
    READS[read](cache, reference)
    assert len(built_blocks) == GEOMETRY.num_sets * GEOMETRY.associativity
    assert full_state(cache) == full_state(reference)


def test_cache_keeps_plain_attribute_loads():
    """A ``__getattr__``/``__getattribute__`` hook or a descriptor on the
    frames would take ``Cache.access`` off CPython's fast attribute
    loads; the frames are plain lists once the first access built them."""
    assert not hasattr(Cache, "__getattr__")
    assert Cache.__getattribute__ is object.__getattribute__
    assert "sets" not in vars(Cache) and "_tag_index" not in vars(Cache)
    cache = _cache("lru")
    held = cache.sets
    cache.access(CacheAccess(address=0, pc=0))
    assert type(cache.sets) is list and type(cache._tag_index) is list
    assert all(type(index) is dict for index in cache._tag_index)
    # A reference taken before the build still reads the live frames.
    assert held[0] is cache.sets[0]


def test_warm_cache_check_does_not_build_a_fresh_cache(built_blocks):
    cache = _cache("lru")
    assert not cache.has_resident_blocks()
    replay(cache, STREAM)
    assert cache.last_replay_kernel == "array"
    assert built_blocks == []
    assert cache.has_resident_blocks()
    assert built_blocks == []


def _dicts_in(value):
    """Every dict reachable from ``value`` through lists, tuples and dicts."""
    if isinstance(value, dict):
        yield value
        items = value.values()
    elif isinstance(value, (list, tuple)):
        items = value
    else:
        return
    for item in items:
        yield from _dicts_in(item)


@pytest.mark.parametrize("technique", ["lru", "sampler", "tdbp", "cdbp"])
def test_array_replay_commits_no_per_frame_dict(built_blocks, technique):
    cache = _cache(technique)
    replay(cache, STREAM)
    assert cache.last_replay_kernel == "array"
    committed = cache._array_state
    index = committed.index
    assert not hasattr(index, "tag_positions")
    assert [
        found for name in index.__slots__ for found in _dicts_in(getattr(index, name))
    ] == []
    # The only dicts are the per-set ``tag -> way`` indexes.
    tag_index_ids = {id(tag_to_way) for tag_to_way in committed.tag_index}
    dicts = [
        found
        for name in committed.__slots__
        if name != "index"
        for found in _dicts_in(getattr(committed, name))
    ]
    assert dicts and all(id(found) in tag_index_ids for found in dicts)
    assert built_blocks == []


def _first_touch():
    first = {}
    for position, block in enumerate(zip(STREAM.set_indices, STREAM.tags)):
        first.setdefault(block, position)
    return first


@pytest.mark.parametrize("technique", ["tdbp", "cdbp"])
def test_refilled_blocks_recover_counts_and_meta(technique):
    """A block evicted and filled again counts only the accesses of its
    last incarnation, and its ``meta`` is that incarnation's, with the
    object path's key order."""
    reference, expected = _reference(technique)
    cache = _cache(technique)
    assert replay(cache, STREAM) == expected
    first_touch = _first_touch()
    refilled = [
        (set_index, way)
        for set_index, way, block in cache.resident_blocks()
        if block.fill_seq != first_touch[(set_index, block.tag)]
    ]
    assert len(refilled) >= GEOMETRY.num_sets
    assert _block_fields(cache) == _block_fields(reference)
    for set_index, way in refilled:
        ours = cache.sets[set_index][way].meta
        theirs = reference.sets[set_index][way].meta
        assert list(ours.items()) == list(theirs.items())
