"""Array-native batched replay kernels.

The reference loop (``[cache.access(a) for a in stream.accesses]``,
what :func:`repro.sim.replay.replay` runs when these kernels decline)
pays a :meth:`~repro.cache.cache.Cache.access` call per access: address
decomposition, per-hit :class:`~repro.cache.block.CacheBlock` attribute
writes, per-fill block updates, per-access statistics increments, and
up to five policy callbacks.  The kernels here simulate on the
structure-of-arrays substrate (:mod:`repro.cache.soa`) instead:
residency dicts over precomputed block keys, compact recency encodings,
and flat frame planes, with every policy decision inlined into the
loop.  Per-block bookkeeping the figures never read during the replay
-- ``access_count``, ``last_access_seq``, and the dirty bit -- is
dropped from the hot loop entirely and recovered at eviction time, or
when the frames are built, from the shared
:class:`~repro.cache.soa.ReplayIndex` (see that module's docstring for
why the recovery is exact).

Result transparency is the contract: the same hit vector, the same
:class:`~repro.cache.stats.CacheStats`, the same final block contents
and policy state as the reference loop.  The block contents stay in the
committed :class:`~repro.cache.soa.SoACache` until something reads the
cache's frames (see :mod:`repro.cache.cache`).  The differential
harness ``tests/test_replay_differential.py`` checks every kernel
against that loop; a new kernel gets coverage from one registry entry
there.

Loop shape notes (all measured on real filtered LLC streams):

* **Miss marking.**  The hit vector is prefilled ``True`` and flipped
  at misses, so the hit path -- the common case -- writes nothing.
* **Per-set batched** (LRU, optimal): LRU keeps no cross-set state, so the
  stream is replayed one set at a time with the set's recency state
  bound to locals -- the grouping comes precomputed from the
  :class:`~repro.cache.soa.ReplayIndex`.  Recency is the iteration
  order of an :class:`~collections.OrderedDict` (``tag -> way``), so a
  promote is one C ``move_to_end`` and a victim is one C ``popitem``;
  the policy's recency stacks are reconstructed from the dict order at
  the end of each set.  Optimal (MIN plus bypass) needs no recency at
  all: the set's slice of the policy's next-use plane decides bypass
  and victim with one C ``max`` and one ``list.index``.
* **Stream-order** (random, DIP, DRRIP): a global RNG stream, fill
  throttle, or PSEL counter makes cross-set access order
  semantically relevant, so these walk the stream in order -- but over
  ONE global residency dict keyed by the precomputed block key
  (``tag << index_bits | set_index``), which is cheaper than a per-set
  dict-of-dicts lookup, plus flat frame-indexed planes
  (``frame = set_index * associativity + way``).
* **RRIP victims.**  RRPVs never exceed the maximum, so the object
  path's scan-and-age loop reduces to: if a max-RRPV way exists (the
  common case under mostly-distant insertion), take the first by C
  ``list.index``; otherwise age by the deficit in one slice-assign.

* **Dead-block batched** (``sampler`` / ``random_sampler``, and the
  Figure 6 and design-sweep shapes that keep the sampler): with the
  sampling predictor, all training flows through the sampler, which
  observes every access to a sampled set regardless of LLC hit/miss --
  so the per-access prediction bits and the final sampler/table state
  are a pure function of the stream and the predictor's shape,
  precomputed once per workload and shape as a
  :class:`~repro.cache.soa.PredictionPlane` (cached on the
  :class:`~repro.sim.hierarchy.PreparedStream`, shared by every DBRB
  technique of that shape).  The LLC-side replay then reduces to
  the default policy's kernel shape plus three sparse twists: a dead
  prediction on a miss bypasses, a predicted-dead way (LRU-first for an
  LRU default, way-order for random) overrides the victim, and hits
  refresh the per-way dead bit.
* **Dead-block inlined** (``tdbp`` / ``cdbp``): the reftrace and counting
  predictors train on LLC evictions, so nothing about them is a function
  of the stream alone.  Their kernels walk the stream in order (the
  prediction table is global) over per-set recency OrderedDicts, keep
  the per-block predictor metadata on flat frame planes, and inline the
  predictor's four events in the object path's order.

Eligibility and fallback: one table, ``_KERNELS``, maps an *exact*
policy type to its kernel -- LRU, random, DIP, DRRIP, DBRB and optimal,
so every Figure 4 cell (LRU, TDBP, CDBP, DIP, RRIP, sampler, optimal)
replays array-native on a cold single-core stream, and so do six of
Figure 10's nine shared-LLC replays per mix (the LRU baseline, TDBP,
CDBP, sampler, random, random sampler) on the merged multicore stream,
which is a :class:`~repro.sim.hierarchy.PreparedStream` like any other.
Everything else --
SHiP, the policies no technique builds (tree PLRU, SRRIP, BIP,
BRRIP), the VVC cache subclass, observer-attached or probe-enabled or
paranoid replays, and warm caches -- falls through to the reference
loop.  A kernel narrows its type's eligibility with an optional
``supports(cache, policy, stream)`` hook, checked before the stream's
:class:`~repro.cache.soa.ReplayIndex` is fetched:

* DIP and DRRIP decline thread-aware set dueling (``thread-aware-dip``,
  ``thread-aware-drrip``);
* DBRB declines other predictors (``dbrb-predictor:<Name>``), a
  default other than LRU/random (other than LRU for reftrace/counting,
  so ``random_cdbp`` reports ``dbrb-default:RandomPolicy``), the bypass
  or replacement knob off, ``use_sampler=False`` and pre-trained
  predictors, each with a ``dbrb-*`` reason (any sampler shape is
  eligible);
* optimal declines a future annotation whose length is not the
  stream's (``optimal-seq``), so the object path keeps its
  ``IndexError`` contract.

Of Figure 10's techniques, thread-aware DIP (TADIP), thread-aware DRRIP
and ``random_cdbp`` run the reference loop with those reasons.
The chosen kernel and any fallback reason are recorded on the cache
(``last_replay_kernel`` / ``last_replay_fallback``) for run manifests
and the service's ``/stats``.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import List, Optional

from repro.cache.cache import Cache
from repro.cache.soa import SoACache
from repro.core.policy import DBRBPolicy
from repro.core.predictor import SamplingDeadBlockPredictor
from repro.predictors import counting, reftrace
from repro.predictors.counting import CountingPredictor
from repro.predictors.reftrace import RefTracePredictor
from repro.replacement.dip import DIPPolicy
from repro.replacement.dueling import FOLLOWER
from repro.replacement.lru import LRUPolicy
from repro.replacement.optimal import OptimalPolicy
from repro.replacement.random_policy import RandomPolicy
from repro.replacement.rrip import DRRIPPolicy
from repro.utils.hashing import fold_xor_many

__all__ = ["maybe_replay_array"]

_MASK64 = (1 << 64) - 1
_XORSHIFT_MULT = 0x2545F4914F6CDD1D


def maybe_replay_array(cache, stream) -> Optional[List[bool]]:
    """Replay ``stream`` on the array substrate when eligible; else
    return None.

    This is the one place the replay substrate is chosen: the first
    circumstance that applies, in the order below, is the fallback
    reason.  On success the cache's statistics and policy state are
    those of a reference-loop replay, ``cache.last_replay_kernel`` is
    ``"array"``, and the kernel's committed :class:`SoACache` (with the
    stream's :class:`~repro.cache.soa.ReplayIndex`) is left on the cache
    in place of block frames: the cache's first frame read builds them,
    bit-identical to the reference loop's (see :mod:`repro.cache.cache`).
    On decline the reason is recorded, ``last_replay_kernel`` is
    ``"object"``, and the caller (:func:`repro.sim.replay.replay`) runs
    the reference loop.
    """
    reason = None
    geometry = cache.geometry
    policy = cache.policy
    kernel = _KERNELS.get(type(policy))
    if type(cache) is not Cache:
        # Subclasses such as the victim-relocation cache override
        # ``access`` and must keep their virtual dispatch.
        reason = "cache-subclass"
    elif cache.has_observers:
        # Observer notifications happen inside ``Cache.access``.
        reason = "observers"
    elif cache.probe.enabled:
        # The kernels commit statistics (and policy/block state) only
        # once at the end of a whole-stream run, so epoch boundaries
        # would observe nothing.
        reason = "probe"
    elif cache.paranoid:
        reason = "paranoid"
    elif cache.stats.accesses or cache.has_resident_blocks():
        # Kernels assume a cold cache: fills allocate ways densely from
        # zero and the policy's recency state is the freshly bound one.
        # A cache that has replayed before -- even one flushed since,
        # whose policy state is still warm -- runs the reference loop.
        reason = "warm-cache"
    elif kernel is None:
        reason = f"policy:{type(policy).__name__}"
    else:
        supports = getattr(kernel, "supports", None)
        if supports is not None:
            reason = supports(cache, policy, stream)
    if reason is not None:
        cache.last_replay_kernel = "object"
        cache.last_replay_fallback = reason
        return None
    index = stream.replay_index(geometry.num_sets)
    soa = SoACache(index)
    hits, counters = kernel.run(cache, policy, stream, index, soa)
    cache._array_state = soa
    (
        hit_count,
        miss_count,
        bypass_count,
        fill_count,
        evict_count,
        writeback_count,
        dead_victim_count,
    ) = counters
    stats = cache.stats
    stats.accesses += len(stream)
    stats.hits += hit_count
    stats.misses += miss_count
    stats.bypasses += bypass_count
    stats.fills += fill_count
    stats.evictions += evict_count
    stats.writebacks += writeback_count
    stats.dead_block_victims += dead_victim_count
    cache.last_replay_kernel = "array"
    cache.last_replay_fallback = None
    return hits


def _finish(hits, filled_total, writeback_total, bypass_total=0, dead_victim_total=0):
    """Derive the replay counters from the hit vector and final
    occupancy: fills are the misses that were not bypassed (the simple
    policies never bypass, so there fills == misses) and evictions are
    the fills that displaced a resident block."""
    hit_total = hits.count(True)
    misses = len(hits) - hit_total
    fills = misses - bypass_total
    return hits, (
        hit_total,
        misses,
        bypass_total,
        fills,
        fills - filled_total,
        writeback_total,
        dead_victim_total,
    )


# ----------------------------------------------------------------------
# per-set batched kernels
# ----------------------------------------------------------------------
class _LRUKernel:
    """True LRU, one set at a time.  The per-set OrderedDict is both the
    residency lookup and the recency order (front = LRU, back = MRU), so
    a hit is a containment check plus ``move_to_end`` and an eviction is
    ``popitem(last=False)``.  The policy's recency stack is rebuilt from
    the dict order afterwards; LRU always inserts/promotes to MRU, so
    never-filled ways stay at the stack tail in their original order --
    exactly the object path's final state."""

    def run(self, cache, policy, stream, index, soa):
        associativity = cache.geometry.associativity
        stacks = policy._stacks
        set_tags = index.set_tags
        next_write = index.next_write
        commit_set = soa.commit_set
        hits = [True] * len(stream)
        filled_total = 0
        writeback_total = 0
        for set_index, positions in enumerate(index.set_positions):
            if not positions:
                continue
            od: "OrderedDict[int, int]" = OrderedDict()
            od_move = od.move_to_end
            od_pop = od.popitem
            way_fill = [0] * associativity
            filled = 0
            for position, tag in zip(positions, set_tags[set_index]):
                if tag in od:
                    od_move(tag)
                    continue
                hits[position] = False
                if filled < associativity:
                    way = filled
                    filled += 1
                else:
                    way = od_pop(False)[1]
                    if next_write[way_fill[way]] < position:
                        writeback_total += 1
                od[tag] = way
                way_fill[way] = position
            filled_total += filled
            stack = list(od.values())
            stack.reverse()
            if filled < associativity:
                stack.extend(range(filled, associativity))
            stacks[set_index] = stack
            commit_set(set_index, od, way_fill, filled)
        return _finish(hits, filled_total, writeback_total)


class _OptimalKernel:
    """Belady MIN plus optimal bypass, one set at a time (the future
    annotation is per position and no state crosses sets).

    The set's slice of the policy's ``_frame_next`` is mutated in place,
    so it ends exactly as the object path leaves it: each resident way
    holds the next use of its block's latest access, never-filled ways
    stay ``NEVER``.  On a miss into a full set the farthest next use
    decides both questions the object path asks in turn: bypass when the
    incoming block's next use lies beyond it (``should_bypass``), else
    evict its first way (``choose_victim``'s strict ``>`` scan)."""

    def supports(self, cache, policy, stream) -> Optional[str]:
        # The kernel reads one annotation entry per stream position; an
        # annotation of another length was made for another stream (the
        # object path indexes it by ``seq`` and keeps its IndexError
        # contract past the end).
        if len(policy._next_use) != len(stream):
            return "optimal-seq"
        return None

    def run(self, cache, policy, stream, index, soa):
        associativity = cache.geometry.associativity
        next_use = policy._next_use
        bypass = policy.bypass
        all_frame_next = policy._frame_next
        set_tags = index.set_tags
        next_write = index.next_write
        commit_set = soa.commit_set
        hits = [True] * len(stream)
        filled_total = 0
        writeback_total = 0
        bypass_total = 0
        for set_index, positions in enumerate(index.set_positions):
            if not positions:
                continue
            frame_next = all_frame_next[set_index]
            farthest_of = frame_next.index
            resident = {}
            resident_get = resident.get
            way_tag = [0] * associativity
            way_fill = [0] * associativity
            filled = 0
            for position, tag in zip(positions, set_tags[set_index]):
                future = next_use[position]
                way = resident_get(tag)
                if way is not None:
                    frame_next[way] = future
                    continue
                hits[position] = False
                if filled < associativity:
                    way = filled
                    filled += 1
                else:
                    farthest = max(frame_next)
                    if bypass and future > farthest:
                        bypass_total += 1
                        continue
                    way = farthest_of(farthest)
                    del resident[way_tag[way]]
                    if next_write[way_fill[way]] < position:
                        writeback_total += 1
                resident[tag] = way
                way_tag[way] = tag
                way_fill[way] = position
                frame_next[way] = future
            filled_total += filled
            commit_set(set_index, resident, way_fill, filled)
        return _finish(hits, filled_total, writeback_total, bypass_total)


# ----------------------------------------------------------------------
# stream-order kernels (global policy state)
# ----------------------------------------------------------------------
def _commit_flat(soa, index, way_keys, way_fill, filled_by_set, associativity,
                 pred=None):
    """Commit the flat frame planes of a stream-order kernel: rebuild
    each touched set's ``tag -> way`` dict from the stored block keys
    (``tag = key >> index_bits``) and hand it to the substrate.  ``pred``
    is the DBRB kernel's frame-indexed predicted-dead plane; sliced
    per set on the way through."""
    index_bits = index.index_bits
    commit_set = soa.commit_set
    filled_total = 0
    for set_index, filled in enumerate(filled_by_set):
        if not filled:
            continue
        filled_total += filled
        base = set_index * associativity
        tag_to_way = {
            way_keys[base + way] >> index_bits: way for way in range(filled)
        }
        commit_set(
            set_index,
            tag_to_way,
            way_fill[base : base + associativity],
            filled,
            None if pred is None else pred[base : base + associativity],
        )
    return filled_total


class _RandomKernel:
    """Random replacement in stream order (the victim RNG draw sequence
    is global), with the xorshift64* step inlined and the generator
    state written back at the end."""

    def run(self, cache, policy, stream, index, soa):
        associativity = cache.geometry.associativity
        set_indices = stream.set_indices
        next_write = index.next_write
        way_keys = [0] * (index.num_sets * associativity)
        way_fill = [0] * (index.num_sets * associativity)
        filled_by_set = [0] * index.num_sets
        lookup = {}
        rng_state = policy._rng._state
        hits = [True] * len(stream)
        writeback_total = 0
        for position, key in enumerate(index.block_keys):
            if key in lookup:
                continue
            hits[position] = False
            set_index = set_indices[position]
            base = set_index * associativity
            filled = filled_by_set[set_index]
            if filled < associativity:
                frame = base + filled
                filled_by_set[set_index] = filled + 1
            else:
                x = rng_state
                x ^= (x << 13) & _MASK64
                x ^= x >> 7
                x ^= (x << 17) & _MASK64
                rng_state = x
                frame = base + (((x * _XORSHIFT_MULT) & _MASK64) >> 11) % associativity
                if next_write[way_fill[frame]] < position:
                    writeback_total += 1
                del lookup[way_keys[frame]]
            lookup[key] = frame
            way_keys[frame] = key
            way_fill[frame] = position
        policy._rng._state = rng_state
        filled_total = _commit_flat(
            soa, index, way_keys, way_fill, filled_by_set, associativity
        )
        return _finish(hits, filled_total, writeback_total)


class _DIPKernel:
    """Single-core DIP set dueling in stream order (the PSEL counter and
    the BIP fill throttle are global).  The thread-aware variant (TADIP)
    consults per-access core ids against per-core PSELs; ``supports``
    declines it so multicore runs run the reference loop.

    Recency runs on per-set OrderedDicts over *all* ways (front = LRU,
    back = MRU), seeded lazily from the live stack on a set's first
    touch: a recency move is then one O(1) relink instead of the
    stack's O(associativity) ``list.remove``.  Because every way is in
    the dict -- including never-filled ones -- the order maps exactly
    onto the object stack (reversed), so BIP's LRU-position inserts
    stay faithful and the final stacks are rebuilt per touched set.
    """

    def supports(self, cache, policy, stream) -> Optional[str]:
        if policy.duel.num_cores > 1:
            return "thread-aware-dip"
        return None

    def run(self, cache, policy, stream, index, soa):
        associativity = cache.geometry.associativity
        duel = policy.duel
        throttle = policy.throttle
        lru_leader, bip_leader = 1, 2
        roles = [
            0 if owner == FOLLOWER else bip_leader if second else lru_leader
            for owner, second in zip(duel.owner, duel.second)
        ]
        psel = duel.psels[0]
        psel_max = duel.psel_max
        psel_half = psel_max // 2
        epsilon = throttle.epsilon_inverse
        fill_count = throttle.fills
        stacks = policy._stacks
        set_indices = stream.set_indices
        next_write = index.next_write
        num_sets = index.num_sets
        way_keys = [0] * (num_sets * associativity)
        way_fill = [0] * (num_sets * associativity)
        filled_by_set = [0] * num_sets
        ods: List[Optional["OrderedDict[int, None]"]] = [None] * num_sets
        movers: List = [None] * num_sets
        lookup = {}
        lookup_get = lookup.get
        hits = [True] * len(stream)
        writeback_total = 0
        for position, key in enumerate(index.block_keys):
            way = lookup_get(key)
            if way is not None:
                movers[set_indices[position]](way)
                continue
            hits[position] = False
            set_index = set_indices[position]
            od = ods[set_index]
            if od is None:
                od = OrderedDict()
                for entry in reversed(stacks[set_index]):
                    od[entry] = None
                ods[set_index] = od
                movers[set_index] = od.move_to_end
            role = roles[set_index]
            if role == lru_leader:
                if psel < psel_max:
                    psel += 1
            elif role == bip_leader:
                if psel > 0:
                    psel -= 1
            base = set_index * associativity
            filled = filled_by_set[set_index]
            if filled < associativity:
                way = filled
                filled_by_set[set_index] = filled + 1
            else:
                way = next(iter(od))  # front = LRU = object stack[-1]
                frame = base + way
                if next_write[way_fill[frame]] < position:
                    writeback_total += 1
                del lookup[way_keys[frame]]
            frame = base + way
            lookup[key] = way
            way_keys[frame] = key
            way_fill[frame] = position
            if role == lru_leader:
                insert_mru = True
            elif role == bip_leader or psel > psel_half:
                fill_count += 1
                insert_mru = fill_count % epsilon == 0
            else:
                insert_mru = True
            if insert_mru:
                movers[set_index](way)
            else:
                movers[set_index](way, False)
        duel.psels[0] = psel
        throttle.fills = fill_count
        for set_index, od in enumerate(ods):
            if od is not None:
                stack = list(od)
                stack.reverse()
                stacks[set_index][:] = stack
        filled_total = _commit_flat(
            soa, index, way_keys, way_fill, filled_by_set, associativity
        )
        return _finish(hits, filled_total, writeback_total)


class _DRRIPKernel:
    """Single-core DRRIP set dueling in stream order over a flat RRPV
    plane.  The thread-aware variant consults per-access core ids
    against per-core PSELs; ``supports`` declines it so multicore runs
    run the reference loop."""

    def supports(self, cache, policy, stream) -> Optional[str]:
        if policy.duel.num_cores > 1:
            return "thread-aware-drrip"
        return None

    def run(self, cache, policy, stream, index, soa):
        associativity = cache.geometry.associativity
        rrpv_max = policy.rrpv_max
        long_insert = rrpv_max - 1
        duel = policy.duel
        throttle = policy.throttle
        epsilon = throttle.epsilon_inverse
        fill_count = throttle.fills
        psel = duel.psels[0]
        psel_max = duel.psel_max
        psel_half = psel_max // 2
        follower = FOLLOWER
        leader_owner = duel.owner
        leader_is_brrip = duel.second
        all_rrpv = policy._rrpv
        flat_rrpv: List[int] = []
        for values in all_rrpv:
            flat_rrpv.extend(values)
        flat_index = flat_rrpv.index
        set_indices = stream.set_indices
        next_write = index.next_write
        way_keys = [0] * (index.num_sets * associativity)
        way_fill = [0] * (index.num_sets * associativity)
        filled_by_set = [0] * index.num_sets
        lookup = {}
        lookup_get = lookup.get
        hits = [True] * len(stream)
        writeback_total = 0
        for position, key in enumerate(index.block_keys):
            frame = lookup_get(key)
            if frame is not None:
                flat_rrpv[frame] = 0
                continue
            hits[position] = False
            set_index = set_indices[position]
            owner = leader_owner[set_index]
            is_brrip_leader = owner != follower and leader_is_brrip[set_index]
            if owner != follower:
                if is_brrip_leader:
                    if psel > 0:
                        psel -= 1
                elif psel < psel_max:
                    psel += 1
            base = set_index * associativity
            filled = filled_by_set[set_index]
            if filled < associativity:
                frame = base + filled
                filled_by_set[set_index] = filled + 1
            else:
                # Bounded index over the flat plane -- no slice copy on
                # the common path; the except arm only fires when the
                # whole set needs aging (no RRPV at the maximum).
                try:
                    frame = flat_index(rrpv_max, base, base + associativity)
                except ValueError:
                    hi = base + associativity
                    segment = flat_rrpv[base:hi]
                    deficit = rrpv_max - max(segment)
                    segment = [value + deficit for value in segment]
                    flat_rrpv[base:hi] = segment
                    frame = base + segment.index(rrpv_max)
                if next_write[way_fill[frame]] < position:
                    writeback_total += 1
                del lookup[way_keys[frame]]
            lookup[key] = frame
            way_keys[frame] = key
            way_fill[frame] = position
            if is_brrip_leader or (owner == follower and psel > psel_half):
                fill_count += 1
                value = long_insert if fill_count % epsilon == 0 else rrpv_max
            else:
                value = long_insert
            flat_rrpv[frame] = value
        duel.psels[0] = psel
        throttle.fills = fill_count
        for set_index, filled in enumerate(filled_by_set):
            if filled:
                base = set_index * associativity
                all_rrpv[set_index][:] = flat_rrpv[base : base + associativity]
        filled_total = _commit_flat(
            soa, index, way_keys, way_fill, filled_by_set, associativity
        )
        return _finish(hits, filled_total, writeback_total)


# ----------------------------------------------------------------------
# dead-block replacement and bypass (the paper's headline technique)
# ----------------------------------------------------------------------
class _DBRBKernel:
    """DBRB in three shapes, keyed off the predictor's exact type.

    **Sampling predictor** (LRU or random default).  The predictor side
    is entirely precomputed: the shared
    :class:`~repro.cache.soa.PredictionPlane` of the predictor's shape
    carries ``dead[p]`` -- the prediction the object path would assign on a hit (``touch``) and
    consult on a miss (``predict_fill`` / ``install``, identical within
    one access since no training separates them) -- plus the final
    sampler/table state, installed into this replay's fresh predictor
    at the end.  The LLC side then follows the object semantics of
    :class:`~repro.core.policy.DBRBPolicy` exactly:

    * hit: default recency update, then the way's dead bit becomes
      ``dead[p]``;
    * miss with ``dead[p]``: bypass (``enable_bypass`` is required by
      ``supports``), nothing else changes;
    * fill into a full set: the predicted-dead victim closest to LRU
      (LRU default: walk the recency order from the LRU end; random
      default: lowest way) wins, else the default victim -- the random
      default's RNG is drawn *only* when no dead way exists;
    * fill: the new block's dead bit is ``dead[p]``, necessarily False
      here because a True prediction bypassed.

    **Reftrace (TDBP) and counting (CDBP) predictors** (LRU default).
    These train on LLC evictions, so their tables depend on the replay
    itself and cannot be precomputed; the kernel inlines the
    predictor's ``touch`` / ``predict_fill`` / ``evicted`` / ``install``
    in the object path's order instead, in stream order (the table is
    global), over per-set recency OrderedDicts (front = LRU) and flat
    per-frame planes for the per-block metadata.  Eviction training
    runs before the incoming block's ``install`` prediction and can hit
    the same table entry, so an install may predict dead although
    ``predict_fill`` did not bypass.

    Writebacks, ``access_count`` / ``last_access_seq``, and the dirty
    bit keep the shared :class:`~repro.cache.soa.ReplayIndex` recovery:
    the residency argument survives bypass because a bypassed access is
    by definition a miss, and a miss on a tag filled at ``f`` and still
    resident would contradict ``f`` being the final fill.
    """

    def supports(self, cache, policy, stream) -> Optional[str]:
        predictor = policy.predictor
        kind = type(predictor)
        if kind is RefTracePredictor or kind is CountingPredictor:
            return self._supports_trained(policy, predictor)
        if kind is not SamplingDeadBlockPredictor:
            return f"dbrb-predictor:{kind.__name__}"
        default = policy.default
        if type(default) is not LRUPolicy and type(default) is not RandomPolicy:
            return f"dbrb-default:{type(default).__name__}"
        if not policy.enable_bypass:
            return "dbrb-no-bypass"
        if not policy.enable_replacement:
            return "dbrb-no-replacement"
        if not predictor.use_sampler:
            return "dbrb-no-sampler"
        sampler = predictor.sampler
        if (
            sampler is None
            or sampler.accesses
            or any(entry.valid for entries in sampler.sets for entry in entries)
            or any(map(any, predictor.tables.tables))
        ):
            # The plane simulates from a cold predictor; a pre-trained
            # one (warmup experiments) runs the reference loop.
            return "dbrb-warm-predictor"
        return None

    @staticmethod
    def _supports_trained(policy, predictor) -> Optional[str]:
        """Reftrace / counting: LRU default, both knobs on, cold table."""
        default = policy.default
        if type(default) is not LRUPolicy:
            return f"dbrb-default:{type(default).__name__}"
        if not policy.enable_bypass:
            return "dbrb-no-bypass"
        if not policy.enable_replacement:
            return "dbrb-no-replacement"
        if type(predictor) is RefTracePredictor:
            warm = any(predictor.table)
        else:
            warm = any(predictor.counts) or any(predictor.confidences)
        if warm:
            # Like the sampler's warm case: the kernels are pinned
            # against the object path from cold tables only, so a
            # pre-trained predictor (warmup experiments) keeps the oracle.
            return "dbrb-warm-predictor"
        return None

    def run(self, cache, policy, stream, index, soa):
        kind = type(policy.predictor)
        if kind is RefTracePredictor:
            return self._run_reftrace(cache, policy, stream, index, soa)
        if kind is CountingPredictor:
            return self._run_counting(cache, policy, stream, index, soa)
        plane = stream.prediction_plane(cache.geometry.num_sets, policy.predictor.shape)
        if type(policy.default) is LRUPolicy:
            result = self._run_lru(cache, policy, stream, index, soa, plane)
        else:
            result = self._run_random(cache, policy, stream, index, soa, plane)
        plane.install(policy.predictor)
        return result

    def _run_lru(self, cache, policy, stream, index, soa, plane):
        """Per-set batched, like :class:`_LRUKernel`: the OrderedDict is
        residency and recency at once (front = LRU), so the dead-victim
        walk from the LRU end is iteration from the front, and a middle
        deletion preserves the remaining order exactly as the object
        path's ``stack.remove`` does."""
        associativity = cache.geometry.associativity
        stacks = policy.default._stacks
        dead = plane.dead
        set_tags = index.set_tags
        next_write = index.next_write
        commit_set = soa.commit_set
        hits = [True] * len(stream)
        filled_total = 0
        writeback_total = 0
        bypass_total = 0
        dead_victim_total = 0
        for set_index, positions in enumerate(index.set_positions):
            if not positions:
                continue
            od: "OrderedDict[int, int]" = OrderedDict()
            od_get = od.get
            od_move = od.move_to_end
            od_pop = od.popitem
            way_fill = [0] * associativity
            way_dead = [0] * associativity
            ndead = 0
            filled = 0
            for position, tag in zip(positions, set_tags[set_index]):
                way = od_get(tag)
                if way is not None:
                    od_move(tag)
                    prediction = dead[position]
                    if way_dead[way] != prediction:
                        way_dead[way] = prediction
                        ndead += 1 if prediction else -1
                    continue
                hits[position] = False
                if dead[position]:
                    bypass_total += 1
                    continue
                if filled < associativity:
                    way = filled
                    filled += 1
                else:
                    if ndead:
                        # First predicted-dead way from the LRU end.
                        for victim_tag, victim_way in od.items():
                            if way_dead[victim_way]:
                                break
                        way = victim_way
                        del od[victim_tag]
                        way_dead[way] = 0
                        ndead -= 1
                        dead_victim_total += 1
                    else:
                        way = od_pop(False)[1]
                    if next_write[way_fill[way]] < position:
                        writeback_total += 1
                od[tag] = way
                way_fill[way] = position
            filled_total += filled
            stack = list(od.values())
            stack.reverse()
            if filled < associativity:
                stack.extend(range(filled, associativity))
            stacks[set_index] = stack
            commit_set(set_index, od, way_fill, filled, way_dead)
        return _finish(
            hits, filled_total, writeback_total, bypass_total, dead_victim_total
        )

    def _run_random(self, cache, policy, stream, index, soa, plane):
        """Stream-order, like :class:`_RandomKernel` (the victim RNG draw
        sequence is global), with the dead bits on a flat frame plane so
        the way-order dead-victim scan is one C ``bytearray.find``."""
        associativity = cache.geometry.associativity
        dead = plane.dead
        set_indices = stream.set_indices
        next_write = index.next_write
        frames = index.num_sets * associativity
        way_keys = [0] * frames
        way_fill = [0] * frames
        pred = bytearray(frames)
        pred_find = pred.find
        filled_by_set = [0] * index.num_sets
        lookup = {}
        lookup_get = lookup.get
        rng_state = policy.default._rng._state
        hits = [True] * len(stream)
        writeback_total = 0
        bypass_total = 0
        dead_victim_total = 0
        for position, key in enumerate(index.block_keys):
            frame = lookup_get(key)
            if frame is not None:
                pred[frame] = dead[position]
                continue
            hits[position] = False
            if dead[position]:
                bypass_total += 1
                continue
            set_index = set_indices[position]
            base = set_index * associativity
            filled = filled_by_set[set_index]
            if filled < associativity:
                frame = base + filled
                filled_by_set[set_index] = filled + 1
            else:
                frame = pred_find(1, base, base + associativity)
                if frame >= 0:
                    # Way-order dead-victim scan (non-LRU default).
                    pred[frame] = 0
                    dead_victim_total += 1
                else:
                    # No dead way: only now does the default draw.
                    x = rng_state
                    x ^= (x << 13) & _MASK64
                    x ^= x >> 7
                    x ^= (x << 17) & _MASK64
                    rng_state = x
                    frame = base + (
                        ((x * _XORSHIFT_MULT) & _MASK64) >> 11
                    ) % associativity
                if next_write[way_fill[frame]] < position:
                    writeback_total += 1
                del lookup[way_keys[frame]]
            lookup[key] = frame
            way_keys[frame] = key
            way_fill[frame] = position
        policy.default._rng._state = rng_state
        filled_total = _commit_flat(
            soa, index, way_keys, way_fill, filled_by_set, associativity, pred
        )
        return _finish(
            hits, filled_total, writeback_total, bypass_total, dead_victim_total
        )

    def _run_reftrace(self, cache, policy, stream, index, soa):
        """Reftrace (TDBP) in stream order.  Per frame the planes keep the
        block's trace signature (``block.meta``) and its dead bit."""
        predictor = policy.predictor
        table = predictor.table
        threshold = predictor.threshold
        counter_max = predictor.counter_max
        signature_mask = predictor.signature_mask
        pcs = stream.pcs
        distinct = list(set(pcs))
        folded = dict(
            zip(distinct, fold_xor_many(distinct, predictor.signature_bits))
        )
        pc_signature = [folded[pc] for pc in pcs]
        associativity = cache.geometry.associativity
        num_sets = index.num_sets
        set_mask = num_sets - 1
        next_write = index.next_write
        frames = num_sets * associativity
        signature = [0] * frames
        pred = bytearray(frames)
        pred_find = pred.find
        way_fill = [0] * frames
        filled_by_set = [0] * num_sets
        ods: List["OrderedDict[int, int]"] = [OrderedDict() for _ in range(num_sets)]
        hits = [True] * len(stream)
        writeback_total = 0
        bypass_total = 0
        dead_victim_total = 0
        for position, key in enumerate(index.block_keys):
            set_index = key & set_mask
            od = ods[set_index]
            frame = od.get(key)
            if frame is not None:
                od.move_to_end(key)
                # touch: the previous signature did not end the trace.
                old = signature[frame]
                value = table[old]
                if value:
                    table[old] = value - 1
                new = (old + pc_signature[position]) & signature_mask
                signature[frame] = new
                pred[frame] = table[new] >= threshold
                continue
            hits[position] = False
            new = pc_signature[position]
            if table[new] >= threshold:  # predict_fill: dead on arrival
                bypass_total += 1
                continue
            base = set_index * associativity
            filled = filled_by_set[set_index]
            if filled < associativity:
                frame = base + filled
                filled_by_set[set_index] = filled + 1
            else:
                if pred_find(1, base, base + associativity) >= 0:
                    # First predicted-dead way from the LRU end.
                    for victim, frame in od.items():
                        if pred[frame]:
                            break
                    del od[victim]
                    dead_victim_total += 1
                else:
                    frame = od.popitem(False)[1]
                if next_write[way_fill[frame]] < position:
                    writeback_total += 1
                # evicted: the victim's final signature ended its trace.
                old = signature[frame]
                value = table[old]
                if value < counter_max:
                    table[old] = value + 1
            od[key] = frame
            way_fill[frame] = position
            signature[frame] = new
            pred[frame] = table[new] >= threshold  # install
        filled_total = _commit_recency(
            soa, index, ods, way_fill, pred, filled_by_set, associativity,
            policy.default._stacks,
        )
        soa.commit_meta((reftrace._META_KEY,), (signature,))
        return _finish(
            hits, filled_total, writeback_total, bypass_total, dead_victim_total
        )

    def _run_counting(self, cache, policy, stream, index, soa):
        """Counting (CDBP, the live-time predictor) in stream order.  Per
        frame the planes keep the block's table entry, access count,
        learned limit and confidence (``block.meta``), its dead bit, and
        ``dead_at``: the count at which it turns dead (past the counter
        range when it never does), which folds the touch-time prediction
        into one compare."""
        predictor = policy.predictor
        counts = predictor.counts
        confidences = predictor.confidences
        addr_bits = predictor.addr_bits
        column_mask = (1 << addr_bits) - 1
        count_max = predictor.count_max
        never = count_max + 1
        pcs = stream.pcs
        distinct = list(set(pcs))
        # Rows come pre-shifted into place: ``entry = row << addr_bits | column``.
        rows = {
            pc: row << addr_bits
            for pc, row in zip(distinct, fold_xor_many(distinct, predictor.pc_bits))
        }
        # The block key is the block address the predictor hashes.
        distinct = list(set(index.block_keys))
        columns = dict(zip(distinct, fold_xor_many(distinct, addr_bits)))
        associativity = cache.geometry.associativity
        num_sets = index.num_sets
        set_mask = num_sets - 1
        next_write = index.next_write
        frames = num_sets * associativity
        entry = [0] * frames
        count = [0] * frames
        limit = [0] * frames
        confidence = [0] * frames
        dead_at = [never] * frames
        pred = bytearray(frames)
        pred_find = pred.find
        way_fill = [0] * frames
        filled_by_set = [0] * num_sets
        ods: List["OrderedDict[int, int]"] = [OrderedDict() for _ in range(num_sets)]
        hits = [True] * len(stream)
        writeback_total = 0
        bypass_total = 0
        dead_victim_total = 0
        for position, key in enumerate(index.block_keys):
            set_index = key & set_mask
            od = ods[set_index]
            frame = od.get(key)
            if frame is not None:
                od.move_to_end(key)
                # touch: one more access this generation.
                value = count[frame]
                if value < count_max:
                    value += 1
                    count[frame] = value
                pred[frame] = value >= dead_at[frame]
                continue
            hits[position] = False
            at = rows[pcs[position]] | columns[key]
            if confidences[at] == 1 and counts[at] == 1:  # predict_fill
                bypass_total += 1
                continue
            base = set_index * associativity
            filled = filled_by_set[set_index]
            if filled < associativity:
                frame = base + filled
                filled_by_set[set_index] = filled + 1
            else:
                if pred_find(1, base, base + associativity) >= 0:
                    # First predicted-dead way from the LRU end.
                    for victim, frame in od.items():
                        if pred[frame]:
                            break
                    del od[victim]
                    dead_victim_total += 1
                else:
                    frame = od.popitem(False)[1]
                if next_write[way_fill[frame]] < position:
                    writeback_total += 1
                # evicted: learn the generation's final count.
                trained = entry[frame]
                final = count[frame]
                confidences[trained] = 1 if final == counts[trained] else 0
                counts[trained] = final
            od[key] = frame
            way_fill[frame] = position
            # install: the fill is the generation's first access.
            learned = counts[at]
            confident = confidences[at]
            entry[frame] = at
            count[frame] = 1
            limit[frame] = learned
            confidence[frame] = confident
            if confident and learned > 0:
                dead_at[frame] = learned
                pred[frame] = learned == 1
            else:
                dead_at[frame] = never
                pred[frame] = 0
        filled_total = _commit_recency(
            soa, index, ods, way_fill, pred, filled_by_set, associativity,
            policy.default._stacks,
        )
        # The object path's install writes these keys in this order.
        soa.commit_meta(
            (
                counting._ROW_KEY,
                counting._COL_KEY,
                counting._COUNT_KEY,
                counting._LIMIT_KEY,
                counting._CONF_KEY,
            ),
            (
                [at >> addr_bits for at in entry],
                [at & column_mask for at in entry],
                count,
                limit,
                confidence,
            ),
        )
        return _finish(
            hits, filled_total, writeback_total, bypass_total, dead_victim_total
        )


def _commit_recency(soa, index, ods, way_fill, pred, filled_by_set,
                    associativity, stacks):
    """Commit the stream-order LRU-default DBRB kernels: per touched set,
    the ``tag -> way`` dict and the LRU stack come from the recency
    OrderedDict (``block key -> frame``, front = LRU; never-filled ways
    stay at the stack tail in order, as in :class:`_LRUKernel`), and the
    fill and dead planes are sliced.  The per-block metadata planes go
    to :meth:`~repro.cache.soa.SoACache.commit_meta` whole."""
    index_bits = index.index_bits
    commit_set = soa.commit_set
    filled_total = 0
    for set_index, filled in enumerate(filled_by_set):
        if not filled:
            continue
        filled_total += filled
        base = set_index * associativity
        top = base + associativity
        tag_to_way = {
            key >> index_bits: frame - base
            for key, frame in ods[set_index].items()
        }
        stack = list(tag_to_way.values())
        stack.reverse()
        if filled < associativity:
            stack.extend(range(filled, associativity))
        stacks[set_index] = stack
        commit_set(
            set_index,
            tag_to_way,
            way_fill[base:top],
            filled,
            pred[base:top],
        )
    return filled_total


# The one table of array kernels, keyed by *exact* policy type: a kernel
# hard-codes its policy's insertion/promotion/victim logic, so a subclass
# (SHiPPolicy over SRRIPPolicy) must not inherit its parent's kernel.
# These are the policy types Table V's techniques build; every other
# policy runs the reference loop with fallback reason ``policy:<Name>``.
# A kernel's ``supports`` hook narrows eligibility further (thread-aware
# DIP and DRRIP, DBRB knobs and predictors without a kernel, optimal
# over another stream's annotation).
_KERNELS = {
    LRUPolicy: _LRUKernel(),
    RandomPolicy: _RandomKernel(),
    DIPPolicy: _DIPKernel(),
    DRRIPPolicy: _DRRIPKernel(),
    DBRBPolicy: _DBRBKernel(),
    OptimalPolicy: _OptimalKernel(),
}
