"""The differential replay harness: every replay path against ``Cache.access``.

The paper replays one filtered LLC stream per technique (Section VI-B),
so every figure rests on :func:`repro.sim.replay.replay` leaving a cache
exactly as the reference loop ``[cache.access(a) for a in
stream.accesses]`` does -- whichever path it takes (an array kernel of
:mod:`repro.sim.replay_array` or the reference loop itself) and
whatever rides along (a telemetry probe, an observer,
paranoid checks).  The harness has one oracle, that loop, and:

* one registry, :data:`SUBJECTS`: a name maps to a
  ``(geometry, stream) -> policy`` factory and the kernel a plain replay
  must take -- ``"array"`` or the fallback reason it must report.  A new
  policy or kernel gets coverage from one entry here;
* one state extractor, :func:`full_state`: statistics, the tag index,
  every block field and the policy's internals, walked recursively;
* one driver, :func:`differential`, which replays a subject both ways
  in one of the :data:`MODES` and compares everything.

The tests: a hypothesis property over subject x stream shape x geometry
x mode; golden cases on fixed streams and on a Figure-10 merged stream,
each checking that the stream exercised what it should; one fallback
table; and end-to-end sweeps, array kernels vs an emptied kernel table,
run serially, over shared memory, and through a fleet that loses a
worker.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from array import array
from collections import OrderedDict
from pathlib import Path
from typing import Callable, NamedTuple, Optional
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro
from repro.analysis.accuracy import AccuracyObserver
from repro.cache.cache import Cache, CacheAccess
from repro.cache.geometry import CacheGeometry
from repro.core import DBRBPolicy, SamplingDeadBlockPredictor
from repro.harness.faults import KILL_EXIT_CODE
from repro.harness.techniques import (
    MULTICORE_LRU_TECHNIQUES,
    MULTICORE_RANDOM_TECHNIQUES,
    TECHNIQUES,
)
from repro.predictors import AIPPredictor, CountingPredictor, RefTracePredictor
from repro.replacement import (
    BIPPolicy,
    BRRIPPolicy,
    DIPPolicy,
    DRRIPPolicy,
    LRUPolicy,
    OptimalPolicy,
    RandomPolicy,
    SRRIPPolicy,
    TreePLRUPolicy,
    annotate_next_use,
)
from repro.replacement.base import ReplacementPolicy
from repro.sim import replay_array
from repro.sim.hierarchy import PreparedStream, decompose
from repro.sim.replay import replay
from repro.telemetry import IntervalRecorder
from repro.utils.hashing import fold_xor
from repro.vvc.cache import VictimRelocationCache
from tests.conftest import SHAPES, make_stream

GEOMETRY = CacheGeometry(size_bytes=32 * 4 * 64, associativity=4)


# ----------------------------------------------------------------------
# the registry
# ----------------------------------------------------------------------
class Subject(NamedTuple):
    """One policy shape under test.

    ``kernel`` is ``"array"`` or the fallback reason a plain replay of a
    long enough stream reports.  ``prime`` prepares a freshly bound cache
    (both sides) before the replay.  ``bypasses`` / ``dead_victims``
    require the golden streams to make the policy bypass / evict a block
    predicted dead.
    """

    factory: Callable[[CacheGeometry, PreparedStream], ReplacementPolicy]
    kernel: str
    prime: Optional[Callable[[Cache], None]] = None
    bypasses: bool = False
    dead_victims: bool = False


def _technique(key, num_cores=1):
    technique = TECHNIQUES[key]
    return lambda geometry, stream: technique.build(geometry, stream, num_cores)


def _plain(policy_type, **knobs):
    return lambda geometry, stream: policy_type(**knobs)


def _dbrb(default, predictor, **knobs):
    return lambda geometry, stream: DBRBPolicy(default(), predictor(), **knobs)


def _optimal(bypass=True, padding=0):
    def build(geometry, stream):
        return OptimalPolicy(
            annotate_next_use(stream, geometry) + [0] * padding, bypass=bypass
        )

    return build


def _pretrained(factory, train):
    def build(geometry, stream):
        policy = factory(geometry, stream)
        train(policy.predictor)
        return policy

    return build


def _train_tables(predictor):
    predictor.tables.train(1, dead=True)


def _train_reftrace(predictor):
    predictor.table[7] = 1


def _train_counting(predictor):
    predictor.confidences[7] = 1


def _touch_sampler(cache):
    cache.policy.predictor.sampler.accesses = 1


_SAMPLER = SamplingDeadBlockPredictor

SUBJECTS = {
    # Table V, built as the figures build it.
    "lru": Subject(_technique("lru"), "array"),
    "random": Subject(_technique("random"), "array"),
    "dip": Subject(_technique("dip"), "array"),
    "rrip": Subject(_technique("rrip"), "array"),
    "sampler": Subject(_technique("sampler"), "array", None, True, True),
    "random_sampler": Subject(_technique("random_sampler"), "array", None, True, True),
    "tdbp": Subject(_technique("tdbp"), "array", None, True, True),
    "cdbp": Subject(_technique("cdbp"), "array", None, True, True),
    "optimal": Subject(_technique("optimal"), "array", None, True),
    "tadip": Subject(_technique("tadip"), "policy:TADIPPolicy"),
    "ship": Subject(_technique("ship"), "policy:SHiPPolicy"),
    "random_cdbp": Subject(
        _technique("random_cdbp"), "dbrb-default:RandomPolicy", None, True, True
    ),
    # Figure 10's thread-aware shapes.
    "tadip-4core": Subject(_technique("tadip", 4), "policy:TADIPPolicy"),
    "rrip-4core": Subject(_technique("rrip", 4), "thread-aware-drrip"),
    # Non-default parameters of the array-kernel policies.
    "random-seeded": Subject(_plain(RandomPolicy, seed=0xDEADBEEF), "array"),
    "dip-eps4": Subject(_plain(DIPPolicy, epsilon_inverse=4), "array"),
    "drrip-eps4": Subject(_plain(DRRIPPolicy, rrpv_bits=2, epsilon_inverse=4), "array"),
    "optimal-no-bypass": Subject(_optimal(bypass=False), "array"),
    "optimal-long-annotation": Subject(_optimal(padding=8), "optimal-seq", None, True),
    # Policies no technique builds.
    "plru": Subject(_plain(TreePLRUPolicy), "policy:TreePLRUPolicy"),
    "srrip": Subject(_plain(SRRIPPolicy, rrpv_bits=2), "policy:SRRIPPolicy"),
    "bip": Subject(_plain(BIPPolicy, epsilon_inverse=4), "policy:BIPPolicy"),
    "brrip": Subject(
        _plain(BRRIPPolicy, rrpv_bits=2, epsilon_inverse=4), "policy:BRRIPPolicy"
    ),
    # Figure 6's ablation shapes of the sampling predictor.
    "dbrb-aip": Subject(
        _dbrb(LRUPolicy, AIPPredictor), "dbrb-predictor:AIPPredictor", None, True
    ),
    "dbrb-plru-default": Subject(
        _dbrb(TreePLRUPolicy, _SAMPLER), "dbrb-default:TreePLRUPolicy", None, True, True
    ),
    "dbrb-no-bypass": Subject(
        _dbrb(LRUPolicy, _SAMPLER, enable_bypass=False), "dbrb-no-bypass",
        None, False, True,
    ),
    "dbrb-no-replacement": Subject(
        _dbrb(LRUPolicy, _SAMPLER, enable_replacement=False), "dbrb-no-replacement",
        None, True,
    ),
    "dbrb-no-sampler": Subject(
        _dbrb(LRUPolicy, lambda: _SAMPLER(use_sampler=False)), "dbrb-no-sampler",
        None, True, True,
    ),
    "dbrb-single-table": Subject(
        _dbrb(LRUPolicy, lambda: _SAMPLER(skewed=False)), "dbrb-single-table",
        None, True, True,
    ),
    "dbrb-sampler-geometry": Subject(
        _dbrb(LRUPolicy, lambda: _SAMPLER(sampler_assoc=16)), "dbrb-sampler-geometry",
        None, True, True,
    ),
    "dbrb-table-geometry": Subject(
        _dbrb(LRUPolicy, lambda: _SAMPLER(threshold=4)), "dbrb-table-geometry",
        None, True, True,
    ),
    # TDBP / CDBP outside Table V's shape (CDBP over the random default
    # is the ``random_cdbp`` technique above).
    "tdbp-random-default": Subject(
        _dbrb(RandomPolicy, RefTracePredictor), "dbrb-default:RandomPolicy",
        None, True, True,
    ),
    "tdbp-no-bypass": Subject(
        _dbrb(LRUPolicy, RefTracePredictor, enable_bypass=False), "dbrb-no-bypass",
        None, False, True,
    ),
    "cdbp-no-bypass": Subject(
        _dbrb(LRUPolicy, CountingPredictor, enable_bypass=False), "dbrb-no-bypass",
        None, False, True,
    ),
    "tdbp-no-replacement": Subject(
        _dbrb(LRUPolicy, RefTracePredictor, enable_replacement=False),
        "dbrb-no-replacement", None, True,
    ),
    "cdbp-no-replacement": Subject(
        _dbrb(LRUPolicy, CountingPredictor, enable_replacement=False),
        "dbrb-no-replacement", None, True,
    ),
    # Pre-trained predictors (warmup experiments): the kernels start cold.
    "sampler-warm-tables": Subject(
        _pretrained(_technique("sampler"), _train_tables), "dbrb-warm-predictor",
        None, True, True,
    ),
    "sampler-warm-sampler": Subject(
        _technique("sampler"), "dbrb-warm-predictor", _touch_sampler, True, True
    ),
    "tdbp-warm": Subject(
        _pretrained(_technique("tdbp"), _train_reftrace), "dbrb-warm-predictor",
        None, True, True,
    ),
    "cdbp-warm": Subject(
        _pretrained(_technique("cdbp"), _train_counting), "dbrb-warm-predictor",
        None, True, True,
    ),
}


# ----------------------------------------------------------------------
# the state extractor
# ----------------------------------------------------------------------
#: Cache attributes that describe how a replay was run, not what it left
#: behind: they legitimately differ between the modes and the oracle.
_RUN_FIELDS = frozenset({
    "name", "paranoid", "probe", "_observers", "_stats_floor",
    "last_replay_kernel", "last_replay_fallback",
})

_SCALARS = frozenset({int, float, str, bytes, bool, type(None)})


def full_state(cache):
    """Everything a replay can leave behind in ``cache``, as plain data.

    The cache's own fields -- statistics, the per-set tag index, every
    :class:`~repro.cache.block.CacheBlock` field (``meta``,
    ``predicted_dead`` and ``fill_seq`` included), subclass state such
    as the victim cache's counters -- and the policy's internals (recency
    stacks, RRPVs, PSELs, RNG positions, predictor tables, sampler
    entries), walked recursively through ``__slots__`` and ``__dict__``.
    Back-references to the cache are skipped.
    """
    return {
        name: _walk(value, cache)
        for name, value in vars(cache).items()
        if name not in _RUN_FIELDS
    }


def _walk(value, cache):
    if type(value) in _SCALARS:
        return value
    if value is cache:
        return "<cache>"
    if isinstance(value, OrderedDict):
        # Iteration order is recency state.
        return [(_walk(key, cache), _walk(item, cache)) for key, item in value.items()]
    if isinstance(value, dict):
        return {key: _walk(item, cache) for key, item in value.items()}
    if isinstance(value, (list, tuple, array, bytearray)):
        if all(map(_SCALARS.__contains__, map(type, value))):
            return (type(value).__name__, list(value))
        return (type(value).__name__, [_walk(item, cache) for item in value])
    if callable(value):
        return getattr(value, "__qualname__", type(value).__name__)
    fields = dict(getattr(value, "__dict__", {}))
    for klass in type(value).__mro__:
        slots = getattr(klass, "__slots__", ())
        for name in (slots,) if isinstance(slots, str) else slots:
            if hasattr(value, name):
                fields[name] = getattr(value, name)
    for name, item in fields.items():
        if type(item) not in _SCALARS:
            fields[name] = _walk(item, cache)
    return (type(value).__name__, fields)


# ----------------------------------------------------------------------
# the driver
# ----------------------------------------------------------------------
#: mode -> the fallback reason it forces (None: the subject's own).
#: ``kernels-off`` empties the kernel table; ``observer-probe`` replays
#: the reference path in probe epochs; ``flush`` flushes the cache
#: between a warmup stream and the stream under test.
MODES = {
    "plain": None,
    "kernels-off": None,
    "probe": "probe",
    "observer": "observers",
    "observer-probe": "observers",
    "paranoid": "paranoid",
    "subclass": "cache-subclass",
    "flush": None,
}

#: The modes the property samples: each replays into a cold cache of the
#: plain type.
PROPERTY_MODES = (
    "plain", "kernels-off", "probe", "observer", "observer-probe", "paranoid"
)


def expected_kernel(subject, cache, stream, mode, warm):
    """``(last_replay_kernel, last_replay_fallback)`` a replay must report,
    in the order :func:`repro.sim.replay_array.maybe_replay_array`
    checks its circumstances."""
    geometry = cache.geometry
    reason = MODES[mode]
    if reason is None:
        if cache.paranoid:  # REPRO_PARANOID=1 makes every cache paranoid
            reason = "paranoid"
        elif warm:
            reason = "warm-cache"
        elif len(stream) < geometry.num_sets * geometry.associativity:
            reason = "small-stream"
        elif mode == "kernels-off":
            reason = f"policy:{type(cache.policy).__name__}"
        else:
            reason = subject.kernel
    return ("array", None) if reason == "array" else ("object", reason)


def differential(name, geometry, stream, mode="plain", warmup=None):
    """Replay subject ``name`` over ``stream`` through :func:`replay` in
    ``mode`` and through the reference loop -- after replaying ``warmup``
    the same two ways, if given -- and assert the hit vectors, the
    :func:`full_state` and the reported kernel; return the replayed
    cache."""
    subject = SUBJECTS[name]
    cache_type = VictimRelocationCache if mode == "subclass" else Cache

    def build(**options):
        cache = cache_type(geometry, subject.factory(geometry, stream), **options)
        if subject.prime is not None:
            subject.prime(cache)
        if mode.startswith("observer"):
            cache.add_observer(AccuracyObserver(cache))
        return cache

    reference = build()
    options = {}
    if mode.endswith("probe"):
        options["probe"] = IntervalRecorder(epochs=7)
    elif mode == "paranoid":
        options["paranoid"] = True
    replayed = build(**options)
    kernels = {} if mode == "kernels-off" else replay_array._KERNELS
    with mock.patch.object(replay_array, "_KERNELS", kernels):
        if warmup is not None:
            expected = [reference.access(access) for access in warmup.accesses]
            assert replay(replayed, warmup) == expected
            if mode == "flush":
                reference.flush()
                replayed.flush()
        expected = [reference.access(access) for access in stream.accesses]
        assert replay(replayed, stream) == expected
    assert full_state(replayed) == full_state(reference)
    assert (replayed.last_replay_kernel, replayed.last_replay_fallback) == (
        expected_kernel(subject, replayed, stream, mode, warmup is not None)
    )
    assert [_walk(o, replayed) for o in replayed._observers] == [
        _walk(o, reference) for o in reference._observers
    ]
    if mode.endswith("probe"):
        samples = replayed.probe.samples
        assert samples and samples[-1].end == len(stream)
    return replayed


# ----------------------------------------------------------------------
# property
# ----------------------------------------------------------------------
def _pinned(name, mode):
    return example(
        name=name, shape="cold", sets=16, assoc=4, length=400, seed=1,
        write_frac=0.3, mode=mode,
    )


@given(
    name=st.sampled_from(sorted(SUBJECTS)),
    shape=st.sampled_from(SHAPES),
    sets=st.sampled_from([8, 16]),
    assoc=st.sampled_from([1, 2, 4]),
    length=st.integers(100, 400),
    seed=st.integers(0, 2**32 - 1),
    write_frac=st.sampled_from([0.0, 0.3]),
    mode=st.sampled_from(PROPERTY_MODES),
)
@_pinned("lru", "probe")
@_pinned("random", "probe")
@_pinned("rrip", "probe")
@_pinned("sampler", "probe")
@_pinned("lru", "observer-probe")
@_pinned("sampler", "observer-probe")
@settings(max_examples=160, deadline=None)
def test_replay_matches_reference_property(
    name, shape, sets, assoc, length, seed, write_frac, mode
):
    """Random streams, geometries (direct-mapped and caches smaller than
    the 32-set sampler included) and modes: never a divergence.  The
    pinned examples keep the probe and the observer on the reference
    loop covered on every run."""
    geometry = CacheGeometry(size_bytes=sets * assoc * 64, associativity=assoc)
    stream = make_stream(geometry, shape, length, seed | 1, write_frac)
    differential(name, geometry, stream, mode)


# ----------------------------------------------------------------------
# golden cases
# ----------------------------------------------------------------------
STREAMS = {shape: make_stream(GEOMETRY, shape, 1200) for shape in SHAPES}


@pytest.mark.parametrize("name", sorted(SUBJECTS))
def test_replay_matches_reference_golden(name):
    """Every subject on every fixed stream.  Each stream must exercise
    hits, evictions and writebacks, and together they must exercise
    the bypasses and dead-block victims the subject is capable of."""
    subject = SUBJECTS[name]
    runs = [differential(name, GEOMETRY, STREAMS[shape]).stats for shape in SHAPES]
    for stats in runs:
        assert stats.hits > 0 and stats.misses > 0
        assert stats.evictions > 0 and stats.writebacks > 0
    if subject.bypasses:
        assert any(stats.bypasses for stats in runs)
    if subject.dead_victims:
        assert any(stats.dead_block_victims for stats in runs)


#: Figure 10's techniques and its LRU baseline, as its shared-LLC
#: replays build them.
MERGED_SUBJECTS = sorted(
    set(MULTICORE_LRU_TECHNIQUES + MULTICORE_RANDOM_TECHNIQUES + ("lru",))
    - {"tadip", "rrip"} | {"tadip-4core", "rrip-4core"}
)


@pytest.mark.parametrize("name", MERGED_SUBJECTS)
def test_replay_matches_reference_on_merged_stream(name, merged_mix):
    """A Figure-10 mix's 4-core merged shared-LLC stream is a
    :class:`PreparedStream` like any other."""
    geometry, stream = merged_mix
    assert set(stream.cores) == {0, 1, 2, 3}
    subject = SUBJECTS[name]
    stats = differential(name, geometry, stream).stats
    assert stats.hits > 0 and stats.evictions > 0 and stats.writebacks > 0
    if subject.dead_victims:
        assert stats.bypasses > 0 and stats.dead_block_victims > 0


def _flip_stream(name):
    """A stream where eviction training flips an install prediction.

    Every access uses one PC in set 0 of a 2-set, 2-way cache.  TDBP: the
    third and fourth misses each evict an LRU block whose signature is
    the PC's own, so the fourth fill sees the counter reach the
    threshold only after ``predict_fill`` said live.  CDBP: blocks A and
    B share one live-time entry; re-filling A evicts B, whose final count
    of 1 repeats the entry's count and sets its confidence just before
    A's ``install`` reads it.
    """
    geometry = CacheGeometry(size_bytes=2 * 2 * 64, associativity=2)
    set0 = range(0, 1 << 12, geometry.num_sets)
    if name == "tdbp":
        blocks = list(set0[:4])
    else:
        column = fold_xor(0, 8)
        a, b = [block for block in set0 if fold_xor(block, 8) == column][:2]
        filler = next(block for block in set0 if fold_xor(block, 8) != column)
        # A, B fill both ways; the filler evicts A (LRU) and B is then
        # the LRU way when A returns.
        blocks = [a, b, filler, a]
    addresses = [block * 64 for block in blocks]
    stream = PreparedStream(
        addresses, [0x40] * len(blocks), [False] * len(blocks),
        *decompose(addresses, geometry),
    )
    return geometry, stream


@pytest.mark.parametrize("name", ["tdbp", "cdbp"])
def test_eviction_training_flips_install_prediction(name):
    """The last access misses, is *not* bypassed (``predict_fill`` said
    live), and yet its block is installed predicted dead: the eviction
    it caused trained the very entry ``install`` reads next."""
    geometry, stream = _flip_stream(name)
    cache = differential(name, geometry, stream)
    assert cache.stats.bypasses == 0 and cache.stats.fills == len(stream)
    way = cache._tag_index[0][stream.tags[-1]]
    assert cache.sets[0][way].predicted_dead


# ----------------------------------------------------------------------
# the fallback table
# ----------------------------------------------------------------------
def _revisit(blocks, length, geometry):
    """``blocks`` revisited round-robin, ``length`` accesses long."""
    addresses = [blocks[i % len(blocks)] * geometry.block_bytes for i in range(length)]
    return PreparedStream(
        addresses, [0x40] * length, [False] * length, *decompose(addresses, geometry)
    )


FRAMES = GEOMETRY.num_sets * GEOMETRY.associativity

#: Every fallback a replay's circumstances (rather than its policy)
#: force: case id -> reason, subject, mode, stream, warmup stream.  The
#: policy-shape reasons are the ``kernel`` column of :data:`SUBJECTS`.
FALLBACKS = {
    "paranoid": ("paranoid", "lru", "paranoid", STREAMS["mixed"], None),
    # A paranoid or probe-enabled replay into a warm cache reports its
    # mode, which the decline chain checks before the cache's warmth.
    "paranoid-warm": ("paranoid", "lru", "paranoid", STREAMS["mixed"], STREAMS["mixed"]),
    "probe-warm": ("probe", "lru", "probe", STREAMS["mixed"], STREAMS["mixed"]),
    "observers": ("observers", "sampler", "observer", STREAMS["mixed"], None),
    "probe": ("probe", "lru", "probe", STREAMS["mixed"], None),
    "subclass": ("cache-subclass", "lru", "subclass", STREAMS["mixed"], None),
    "warm": ("warm-cache", "lru", "plain", STREAMS["mixed"], STREAMS["mixed"]),
    # A flushed cache has an empty tag index but warm recency stacks; one
    # block per set then leaves never-filled ways, which the LRU kernel
    # would rebuild in fresh order.
    "flushed": (
        "warm-cache", "lru", "flush",
        _revisit(range(GEOMETRY.num_sets), FRAMES, GEOMETRY), STREAMS["mixed"],
    ),
    "small-stream": (
        "small-stream", "lru", "plain", _revisit(range(64), FRAMES - 1, GEOMETRY), None
    ),
    "kernels-off": ("policy:DBRBPolicy", "sampler", "kernels-off", STREAMS["mixed"], None),
}

#: Every reason the replay path can report.
REASONS = {
    "paranoid", "observers", "probe", "cache-subclass", "warm-cache",
    "small-stream", "optimal-seq", "thread-aware-drrip", "dbrb-no-bypass",
    "dbrb-no-replacement", "dbrb-no-sampler", "dbrb-single-table",
    "dbrb-sampler-geometry", "dbrb-table-geometry", "dbrb-warm-predictor",
    "dbrb-predictor:AIPPredictor", "dbrb-default:RandomPolicy",
    "dbrb-default:TreePLRUPolicy", "policy:DBRBPolicy", "policy:TADIPPolicy",
    "policy:SHiPPolicy", "policy:TreePLRUPolicy", "policy:SRRIPPolicy",
    "policy:BIPPolicy", "policy:BRRIPPolicy",
}


@pytest.mark.parametrize("case", sorted(FALLBACKS))
def test_fallback_table(case):
    """Each circumstance is reported by name, and the reference loop it
    falls back to still equals the reference in full state."""
    reason, name, mode, stream, warmup = FALLBACKS[case]
    cache = differential(name, GEOMETRY, stream, mode, warmup)
    if not cache.paranoid:  # REPRO_PARANOID=1: "paranoid" is reported first
        assert cache.last_replay_fallback == reason


def test_every_fallback_reason_is_covered():
    named = {row[0] for row in FALLBACKS.values()}
    named |= {subject.kernel for subject in SUBJECTS.values()} - {"array"}
    assert named == REASONS


def test_registry_covers_every_technique_and_kernel():
    """Every Table V technique is a subject, and every kernel in the
    table serves a policy type some array subject builds."""
    assert set(TECHNIQUES) <= set(SUBJECTS)
    built = {
        type(subject.factory(GEOMETRY, STREAMS["mixed"]))
        for subject in SUBJECTS.values()
        if subject.kernel == "array"
    }
    assert set(replay_array._KERNELS) == built


def test_from_accesses_requires_positional_seq():
    """Wrapping an access list decomposes it like the geometry does; a
    list whose ``seq`` numbers are not ``0..n-1`` is refused."""
    accesses = STREAMS["mixed"].accesses[:200]
    stream = PreparedStream.from_accesses(accesses, GEOMETRY)
    assert stream.set_indices == [GEOMETRY.set_index(a.address) for a in accesses]
    assert stream.tags == [GEOMETRY.tag(a.address) for a in accesses]
    shifted = [
        CacheAccess(a.address, a.pc, a.is_write, a.seq + 10_000, a.core)
        for a in accesses
    ]
    with pytest.raises(ValueError, match="seq"):
        PreparedStream.from_accesses(shifted, GEOMETRY)


# ----------------------------------------------------------------------
# end-to-end sweep bit-identity, array kernels vs an emptied table
# ----------------------------------------------------------------------
SWEEPS = {
    "figure4": ("lru", "rrip", "tdbp", "cdbp", "optimal"),
    "sampler": ("sampler", "random_sampler"),
}


def run_sweep(techniques, **kwargs):
    from repro.harness.export import to_dict
    from repro.harness.parallel import parallel_single_thread_comparison
    from repro.harness.runner import ExperimentConfig

    config = ExperimentConfig(instructions=30_000)
    comparison = parallel_single_thread_comparison(
        config, techniques, ("mcf",), **kwargs
    )
    return to_dict(comparison)


def object_sweep(techniques, **kwargs):
    """The same sweep in this process with the kernel table emptied, so
    every cell replays on the reference loop."""
    with mock.patch.object(replay_array, "_KERNELS", {}):
        return run_sweep(techniques, **kwargs)


@pytest.mark.parametrize("sweep", sorted(SWEEPS))
def test_sweep_bit_identity_serial(sweep):
    assert run_sweep(SWEEPS[sweep], jobs=1) == object_sweep(SWEEPS[sweep], jobs=1)


@pytest.mark.faults
@pytest.mark.parametrize("sweep", sorted(SWEEPS))
def test_sweep_bit_identity_parallel_shm(sweep):
    """Array kernels inside spawn workers with shared-memory streams must
    match the in-process reference-loop sweep bit for bit.  (Spawned
    workers import a fresh kernel table, so they always take the array
    path.)"""
    parallel = run_sweep(SWEEPS[sweep], jobs=2, shared_memory=True)
    assert parallel == object_sweep(SWEEPS[sweep], jobs=1)


def _spawn_worker(url, name, root, extra_env):
    env = dict(os.environ)
    src_dir = str(Path(repro.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        [src_dir] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env.pop("REPRO_CHAOS", None)
    env.update(extra_env)
    return subprocess.Popen(
        [
            sys.executable, "-m", "repro", "worker",
            "--connect", url, "--name", name, "--once",
            "--stream-cache", str(root / f"worker-streams-{name}"),
        ],
        env=env,
    )


@pytest.mark.fleet(timeout=240)
def test_fleet_sampler_bit_identity_across_chaos_kill(tmp_path):
    """End to end: sampler cells replayed on the array kernel inside real
    fleet workers -- one chaos-killed mid-lease, its cells re-dispatched
    -- produce the same bytes as a reference-loop serial sweep in this
    process (kernel table emptied)."""
    from repro.harness.export import to_dict
    from repro.harness.parallel import parallel_single_thread_comparison
    from repro.harness.runner import ExperimentConfig, WorkloadCache
    from repro.service.client import ServiceClient
    from repro.service.scheduler import ExperimentScheduler
    from repro.service.server import ExperimentServer

    techniques = list(SWEEPS["sampler"])
    config = ExperimentConfig(scale=16, instructions=10_000, seed=1)
    with mock.patch.object(replay_array, "_KERNELS", {}):
        serial = parallel_single_thread_comparison(
            WorkloadCache(config), techniques, ("perlbench",), jobs=1
        )
    expected = to_dict(serial)

    scheduler = ExperimentScheduler(
        job_store=tmp_path / "service",
        stream_cache=tmp_path / "streams",
        fleet=True,
        lease_ttl=0.5,
        heartbeat_seconds=0.1,
        lease_cells=2,
    )
    handle = ExperimentServer(scheduler, port=0).start_in_thread()
    workers = []
    try:
        url = f"http://127.0.0.1:{handle.port}"
        client = ServiceClient(url)
        job = client.submit(
            client="dbrb-chaos",
            benchmarks=["perlbench"], techniques=techniques,
            sweep=True,
            config={
                "scale": config.scale,
                "instructions": config.instructions,
                "seed": config.seed,
                "cores": config.num_cores,
            },
        )
        # The victim is chaos-rigged to die, kill -9 style, the moment
        # it starts its first cell.
        victim = _spawn_worker(url, "victim", tmp_path, {"REPRO_CHAOS": "kill:1@1"})
        workers.append(victim)
        deadline = time.monotonic() + 60.0
        while time.monotonic() < deadline:
            if client.stats()["fleet"]["cells"]["leased"] >= 1:
                break
            time.sleep(0.1)
        else:
            pytest.fail("victim worker never leased a cell")
        assert victim.wait(timeout=60.0) == KILL_EXIT_CODE

        survivor = _spawn_worker(url, "survivor", tmp_path, {})
        workers.append(survivor)
        final = client.wait(job["id"], timeout=180.0)
        assert final["state"] == "done", final.get("error")
        assert client.result(job["id"]) == expected

        fleet = client.stats()["fleet"]
        assert fleet["cells"]["redispatched"] >= 1
        assert fleet["leases"]["expired"] >= 1
        assert survivor.wait(timeout=60.0) == 0
    finally:
        for proc in workers:
            if proc.poll() is None:
                proc.terminate()
                try:
                    proc.wait(timeout=10.0)
                except subprocess.TimeoutExpired:
                    proc.kill()
        handle.stop()
