"""The fast LLC replay kernel.

The paper's evaluation replays one L1/L2-filtered LLC stream once per
technique (Section VI-B); in a pure-Python model the replay loop is the
hot path of every figure.  :func:`replay` drives a
:class:`~repro.cache.cache.Cache` over a
:class:`~repro.sim.hierarchy.PreparedStream` -- the one replay input,
whose ``(set_index, tag)`` decomposition was precomputed once per stream
(:meth:`~repro.sim.hierarchy.FilteredTrace.llc_stream` for one core, the
merged stream of :class:`~repro.sim.multicore.MulticoreSystem` for a
shared LLC) -- with the access path inlined into one loop: per-set dict
lookup for the tag probe, policy callbacks bound to locals, statistics
accumulated in local counters and committed once at the end.

Correctness contract: ``replay(cache, stream)`` produces the same hit
vector and leaves the cache in the same state -- bit-identical
:class:`~repro.cache.stats.CacheStats`, block contents, and policy state --
as the reference loop ``[cache.access(a) for a in stream.accesses]``.  The
differential harness (``tests/test_replay_differential.py``) checks this
for every replacement policy and kernel against that loop.

The kernel only takes the inlined fast path when it can prove it is
semantically equivalent to the reference loop:

* the cache is exactly :class:`~repro.cache.cache.Cache` (subclasses such
  as the victim-relocation cache override ``access`` and must keep their
  virtual dispatch), and
* no observer is attached (Figures 4-8 replay with zero observers; the
  efficiency/accuracy analyses attach observers and take the reference
  path).

If a policy raises mid-replay, the locally accumulated counters for the
partial replay are not committed to ``cache.stats``.

Array path: when the policy's exact type has an array kernel in
:mod:`repro.sim.replay_array`'s table and the replay is eligible (exact
:class:`~repro.cache.cache.Cache`, cold, no observers/probe/paranoid,
a stream no shorter than the frame count),
the stream is replayed on the structure-of-arrays substrate instead
under the same transparency contract.  The choice is made from those
observable facts alone; there is no override.  :func:`_replay_fast` is
the object kernel every other replay takes.  The kernel actually used
and any fallback reason are recorded on the cache as
``last_replay_kernel`` / ``last_replay_fallback``.

Telemetry: when the cache carries an enabled probe
(:mod:`repro.telemetry.probe`), the stream is replayed in epoch-sized
position ranges -- through the *same* inlined kernel, or through
``cache.access`` on the reference path -- with the probe notified at
every range boundary.  Statistics commits are additive, so committing
per range is arithmetically identical to one final commit, and the cache
state simply carries across ranges -- the harness checks bit-identical
results probe-on vs the reference loop.  With the default
:data:`~repro.telemetry.probe.NULL_PROBE` the only cost over the
original kernel is one attribute check per replayed stream.
"""

from __future__ import annotations

from typing import List, Optional

from repro.cache.cache import Cache
from repro.replacement.base import ReplacementPolicy
from repro.sim.hierarchy import PreparedStream
from repro.sim.replay_array import maybe_replay_array

__all__ = ["replay"]


def replay(cache: Cache, stream: PreparedStream) -> List[bool]:
    """Replay an LLC access stream; returns the per-access hit vector.

    Args:
        cache: the LLC under test (policy already bound).
        stream: the stream, decomposed for ``cache.geometry`` (its
            ``seq`` numbers are its positions).  The array kernels read its
            columns and never build its access objects; they reuse the
            stream's cached :class:`~repro.cache.soa.ReplayIndex` and
            :class:`~repro.cache.soa.PredictionPlane` across techniques.
    """
    probe = cache.probe
    if type(cache) is not Cache or cache.has_observers:
        # Reference path: subclass access overrides and observer
        # notifications must keep their exact semantics.
        cache.last_replay_kernel = "object"
        cache.last_replay_fallback = (
            "cache-subclass" if type(cache) is not Cache else "observers"
        )
        cache_access = cache.access
        accesses = stream.accesses
        if not probe.enabled:
            return [cache_access(access) for access in accesses]

        def replay_slice(start: int, stop: int) -> List[bool]:
            return [cache_access(access) for access in accesses[start:stop]]

    elif not probe.enabled:
        array_hits = maybe_replay_array(cache, stream)
        if array_hits is not None:
            return array_hits
        return _replay_fast(cache, stream)
    else:
        # The array kernels commit statistics (and policy/block state)
        # only once at the end of a whole-stream run, so epoch boundaries
        # would observe nothing; probe replays stay on the object kernel.
        cache.last_replay_kernel = "object"
        cache.last_replay_fallback = "probe"

        def replay_slice(start: int, stop: int) -> List[bool]:
            return _replay_fast(cache, stream, start, stop)

    # Probe path, either substrate: replay epoch-sized position ranges
    # and notify the probe at every boundary.  Stats commits are
    # additive, so the per-range commits sum to exactly the
    # single-commit totals.
    total = len(stream)
    epoch = probe.resolve_epoch(total)
    probe.begin_run(cache, total)
    hits: List[bool] = []
    for start in range(0, total, epoch):
        stop = min(start + epoch, total)
        hits.extend(replay_slice(start, stop))
        probe.on_epoch(cache, stop)
    probe.end_run(cache, total)
    return hits


def _override(policy: ReplacementPolicy, name: str):
    """The policy's ``name`` callback, or None where the policy left it
    as the base-class no-op (skipped outright; the base
    ``should_bypass`` always answers False, so skipping it is equivalent
    to never bypassing)."""
    if getattr(type(policy), name) is getattr(ReplacementPolicy, name):
        return None
    return getattr(policy, name)


def _replay_fast(
    cache: Cache, stream: PreparedStream, start: int = 0, stop: Optional[int] = None
) -> List[bool]:
    """The inlined replay kernel: exactly :class:`Cache`, zero observers.

    Replays positions ``[start, stop)`` of ``stream`` (the whole stream
    by default) and commits its local counters to ``cache.stats`` on
    return, so calling it over consecutive ranges accumulates the same
    totals as one call over the whole stream (the probe path does).
    """
    associativity = cache.geometry.associativity
    sets = cache.sets
    tag_index = cache._tag_index
    policy = cache.policy
    choose_victim = policy.choose_victim
    on_hit = _override(policy, "on_hit")
    on_fill = _override(policy, "on_fill")
    on_miss = _override(policy, "on_miss")
    should_bypass = _override(policy, "should_bypass")
    on_evict = _override(policy, "on_evict")
    # Paranoid mode keeps the fast path (that is the code under test)
    # but machine-checks the touched set's invariants after every access
    # and the statistics identity after the final commit.
    paranoid = cache.paranoid
    check_set = cache.check_invariants

    hits: List[bool] = []
    hits_append = hits.append
    hit_count = 0
    miss_count = 0
    bypass_count = 0
    fill_count = 0
    evict_count = 0
    writeback_count = 0
    dead_victim_count = 0

    accesses = stream.accesses
    set_indices = stream.set_indices
    tags = stream.tags
    if start or stop is not None:
        accesses = accesses[start:stop]
        set_indices = set_indices[start:stop]
        tags = tags[start:stop]
    for position, access in enumerate(accesses):
        set_index = set_indices[position]
        tag = tags[position]
        index = tag_index[set_index]
        way = index.get(tag)
        if way is not None:
            hit_count += 1
            # Inlined CacheBlock.touch.
            block = sets[set_index][way]
            block.last_access_seq = access.seq
            block.access_count += 1
            if access.is_write:
                block.dirty = True
            if on_hit is not None:
                on_hit(set_index, way, access)
            if paranoid:
                check_set(set_index)
            hits_append(True)
            continue

        miss_count += 1
        if on_miss is not None:
            on_miss(set_index, access)
        if should_bypass is not None and should_bypass(set_index, access):
            bypass_count += 1
            if paranoid:
                check_set(set_index)
            hits_append(False)
            continue

        blocks = sets[set_index]
        way = -1
        if len(index) < associativity:
            for candidate, block in enumerate(blocks):
                if not block.valid:
                    way = candidate
                    break
        if way < 0:
            way = choose_victim(set_index, access)
            if not 0 <= way < associativity:
                raise ValueError(
                    f"policy {cache.policy!r} chose invalid victim way {way}"
                )
        block = blocks[way]
        if block.valid:
            # Inlined Cache._evict; the fill below overwrites every field
            # CacheBlock.invalidate would reset, so the victim frame is
            # never explicitly invalidated.
            evict_count += 1
            if block.dirty:
                writeback_count += 1
            if block.predicted_dead:
                dead_victim_count += 1
            if on_evict is not None:
                on_evict(set_index, way, access)
            old_tag = block.tag
            if index.get(old_tag) == way:
                del index[old_tag]
        # Inlined CacheBlock.fill.
        seq = access.seq
        block.valid = True
        block.tag = tag
        block.dirty = access.is_write
        block.predicted_dead = False
        block.fill_seq = seq
        block.last_access_seq = seq
        block.access_count = 1
        if block.meta:
            block.meta.clear()
        index[tag] = way
        fill_count += 1
        if on_fill is not None:
            on_fill(set_index, way, access)
        if paranoid:
            check_set(set_index)
        hits_append(False)

    stats = cache.stats
    stats.accesses += len(accesses)
    stats.hits += hit_count
    stats.misses += miss_count
    stats.bypasses += bypass_count
    stats.fills += fill_count
    stats.evictions += evict_count
    stats.writebacks += writeback_count
    stats.dead_block_victims += dead_victim_count
    if paranoid:
        cache.check_invariants()
    return hits
