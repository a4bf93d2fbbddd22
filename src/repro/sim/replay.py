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
golden-equivalence tests (``tests/test_replay_equivalence.py``) pin this
for every replacement policy.

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
the object kernel every other replay takes and the oracle the array
kernels are tested against.  The kernel actually used and any fallback
reason are recorded on the cache as ``last_replay_kernel`` /
``last_replay_fallback``.

Telemetry: when the cache carries an enabled probe
(:mod:`repro.telemetry.probe`), the stream is replayed in epoch-sized
slices -- through the *same* inlined kernel, or through ``cache.access``
on the reference path -- with the probe notified at every slice
boundary.  Statistics commits are additive, so committing
per slice is arithmetically identical to one final commit, and the cache
state simply carries across slices -- the transparency tests pin
bit-identical results probe-on vs probe-off.  With the default
:data:`~repro.telemetry.probe.NULL_PROBE` the only cost over the
original kernel is one attribute check per replayed stream.
"""

from __future__ import annotations

from typing import List

from repro.cache.cache import Cache
from repro.replacement.base import ReplacementPolicy
from repro.sim.hierarchy import PreparedStream
from repro.sim.replay_array import maybe_replay_array

__all__ = ["replay"]


def replay(cache: Cache, stream: PreparedStream) -> List[bool]:
    """Replay an LLC access stream; returns the per-access hit vector.

    Args:
        cache: the LLC under test (policy already bound).
        stream: the stream, decomposed for ``cache.geometry``; its
            ``seq`` numbers must be the stream positions when the policy
            is position-indexed (optimal).  The array kernels read its
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
        # The binding (per-set containers, elided policy callbacks,
        # paranoid hooks) is loop-invariant across epoch slices; compute
        # it once here instead of once per slice.
        binding = _bind(cache)

        def replay_slice(start: int, stop: int) -> List[bool]:
            return _replay_fast(cache, stream.slice(start, stop), binding)

    # Probe path, either substrate: replay epoch-sized slices and notify
    # the probe at every slice boundary.  Stats commits are additive, so
    # the per-slice commits sum to exactly the single-commit totals.
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


def _bind(cache: Cache):
    """Snapshot the loop-invariant kernel inputs for ``_replay_fast``.

    The associativity, the per-set containers, the policy callbacks
    with base-class no-ops elided, and the paranoid hooks.  Computed
    once per replay; the probe path reuses one binding across all of its
    epoch slices.
    """
    policy = cache.policy
    policy_type = type(policy)
    # Callbacks a policy left as the base-class no-op are skipped outright;
    # the base ``should_bypass`` always answers False, so skipping it is
    # equivalent to never bypassing.
    return (
        cache.geometry.associativity,
        cache.sets,
        cache._tag_index,
        policy.choose_victim,
        policy.on_hit if policy_type.on_hit is not ReplacementPolicy.on_hit else None,
        policy.on_fill
        if policy_type.on_fill is not ReplacementPolicy.on_fill
        else None,
        policy.on_miss
        if policy_type.on_miss is not ReplacementPolicy.on_miss
        else None,
        policy.should_bypass
        if policy_type.should_bypass is not ReplacementPolicy.should_bypass
        else None,
        policy.on_evict
        if policy_type.on_evict is not ReplacementPolicy.on_evict
        else None,
        # Paranoid mode keeps the fast path (that is the code under test)
        # but machine-checks the touched set's invariants after every
        # access and the statistics identity after the final commit.
        cache.paranoid,
        cache.check_invariants,
    )


def _replay_fast(cache: Cache, stream: PreparedStream, binding=None) -> List[bool]:
    """The inlined replay kernel: exactly :class:`Cache`, zero observers.

    Commits its local counters to ``cache.stats`` on return, so calling
    it over consecutive slices of a stream accumulates the same totals
    as one call over the whole stream (the probe path passes the shared
    ``binding`` so slices skip re-deriving it).
    """
    if binding is None:
        binding = _bind(cache)
    (
        associativity,
        sets,
        tag_index,
        choose_victim,
        on_hit,
        on_fill,
        on_miss,
        should_bypass,
        on_evict,
        paranoid,
        check_set,
    ) = binding

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
