"""Structure-of-arrays LLC substrate for the batched replay kernels.

The object substrate (:class:`repro.cache.cache.Cache`) spends most of a
replayed access on Python attribute traffic: every hit touches a
:class:`~repro.cache.block.CacheBlock` three times and every fill writes
seven fields.  The array kernels (:mod:`repro.sim.replay_array`) instead
simulate on flat per-frame planes plus per-set locals, and write
object state only when something reads it:

* :class:`SoACache` is what a kernel commits at the end of a replay: per
  touched set, the ``tag -> way`` dict, each way's final fill position
  and, for the dead-block kernels, the per-way predicted-dead bits; for
  the predictors that keep per-block metadata (reftrace, counting), the
  kernel's flat frame planes of that metadata, as they stand.  The
  replay driver leaves it on the cache, and the cache's first frame read
  (see :mod:`repro.cache.cache`) has :meth:`SoACache.to_cache` write it
  into freshly built blocks, building each resident block's ``meta``
  dict there; a figure that reads only statistics and the hit vector
  never pays for that.  Recency state (LRU stacks, RRIP counters) is
  *policy* state, already array-shaped inside each policy; the kernels
  mutate it directly (or rebuild it from their own compact encodings)
  and leave it exactly as the reference loop would.
* :class:`ReplayIndex` is the per-stream side: the stream's positions
  and tags grouped by set (so order-independent policies replay one set
  at a time in a tight loop), each position's block key, and the flat
  ``next_write`` array.  It is built once per ``(workload, geometry)``
  and cached on the :class:`~repro.sim.hierarchy.PreparedStream`, so
  every technique of a sweep shares it -- the same amortization contract
  as the precomputed ``(set_index, tag)`` decomposition itself.

The index is what lets the kernels drop per-access metadata maintenance
from the hot loop entirely:

* ``access_count`` / ``last_access_seq`` are recovered when the frames
  are built, *for resident frames only*.  Given a frame's final
  fill position ``f``, every later stream position touching that
  ``(set, tag)`` necessarily hit this incarnation of the block (had it
  been evicted after ``f``, a later touch would have re-filled it at a
  position ``> f``, and no touch after an eviction means the block
  would not be resident).  So one walk over the set's positions and
  tags gives ``access_count`` (the positions ``>= f`` with the block's
  tag) and ``last_access_seq`` (the last of them).
* ``dirty`` is a pure function of the fill position: a block incarnation
  filled at ``f`` is dirty iff some access at position ``>= f`` (the
  fill itself included) wrote to its ``(set, tag)`` before the block
  left -- and by the same residency argument every such access up to the
  eviction (or the end of the stream) belongs to this incarnation.
  ``next_write[f]`` gives the first such position, so eviction-time
  writeback accounting is ``next_write[fill] < position`` and
  commit-time dirty is ``next_write[fill] < len(stream)``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.predictor import PredictorShape

__all__ = ["PredictionPlane", "ReplayIndex", "SoACache"]


class ReplayIndex:
    """Per-(stream, geometry) grouping of a prepared LLC stream.

    Attributes:
        num_sets: geometry the grouping was built for.
        index_bits: ``log2(num_sets)`` (sets are a power of two).
        set_positions / set_tags: per set, the stream positions that map
            to it and their tags, in stream order (parallel lists).
        block_keys: per stream position, ``tag << index_bits |
            set_index`` -- the block address.  One key identifies a
            block globally, so the stream-order kernels can keep a
            single residency dict instead of one per set.
        next_write: per stream position ``p``, the first position
            ``>= p`` (``p`` itself included) that *writes* to the same
            ``(set, tag)``, or ``len(stream)`` when there is none.
    """

    __slots__ = (
        "num_sets",
        "index_bits",
        "set_positions",
        "set_tags",
        "block_keys",
        "next_write",
    )

    def __init__(
        self,
        num_sets: int,
        set_positions: List[List[int]],
        set_tags: List[List[int]],
        block_keys: List[int],
        next_write: List[int],
    ) -> None:
        self.num_sets = num_sets
        self.index_bits = num_sets.bit_length() - 1
        self.set_positions = set_positions
        self.set_tags = set_tags
        self.block_keys = block_keys
        self.next_write = next_write

    @classmethod
    def build(
        cls,
        set_indices: Sequence[int],
        tags: Sequence[int],
        writes: Sequence[int],
        num_sets: int,
    ) -> "ReplayIndex":
        """Group a decomposed stream's columns by set (one bucketing
        pass), then fill ``next_write`` in one reverse pass over the
        block keys, remembering each block's nearest later write."""
        total = len(set_indices)
        index_bits = num_sets.bit_length() - 1
        block_keys = [
            tag << index_bits | set_index
            for set_index, tag in zip(set_indices, tags)
        ]
        set_positions: List[List[int]] = [[] for _ in range(num_sets)]
        appends = [positions.append for positions in set_positions]
        for position, set_index in enumerate(set_indices):
            appends[set_index](position)
        set_tags = [
            [tags[position] for position in positions]
            for positions in set_positions
        ]
        next_write = [total] * total
        nearest: Dict[int, int] = {}
        nearest_get = nearest.get
        for position in range(total - 1, -1, -1):
            key = block_keys[position]
            if writes[position]:
                nearest[key] = position
            next_write[position] = nearest_get(key, total)
        return cls(num_sets, set_positions, set_tags, block_keys, next_write)


class PredictionPlane:
    """Per-(workload, LLC geometry, predictor shape) precompute for the
    DBRB array kernel.

    The sampling predictor trains exclusively through its sampler, and
    the sampler observes every access to a sampled set whether the LLC
    hit or missed -- so sampler and skewed-table evolution is a pure
    function of the access stream, independent of LLC contents (see
    :func:`repro.core.sampler.simulate_sampled_stream` for the proof
    sketch).  This plane caches that one-pass simulation per
    ``(workload, num_llc_sets, shape)`` on the
    :class:`~repro.sim.hierarchy.PreparedStream`:

    * ``dead[p]``: the per-access prediction bit, evaluated after
      position ``p``'s sampler update -- the only predictor output the
      LLC-side replay consumes;
    * the final sampler contents / LRU stacks / event counters and the
      final table counters, installed into each technique's fresh
      predictor objects at the end of its replay (copies, never
      aliases: the plane is shared across techniques).

    ``shape`` is the :class:`~repro.core.predictor.PredictorShape`
    simulated: the paper's, a Figure 6 variant's or a design-sweep point's.
    """

    __slots__ = (
        "num_llc_sets",
        "shape",
        "dead",
        "sampler_ways",
        "sampler_stacks",
        "tables",
        "sampler_counters",
    )

    def __init__(
        self,
        num_llc_sets: int,
        shape: "PredictorShape",
        dead: bytearray,
        sampler_ways: List[List[Tuple[int, int, bool]]],
        sampler_stacks: List[List[int]],
        tables: List[List[int]],
        sampler_counters: Tuple[int, int, int],
    ) -> None:
        self.num_llc_sets = num_llc_sets
        self.shape = shape
        self.dead = dead
        self.sampler_ways = sampler_ways
        self.sampler_stacks = sampler_stacks
        self.tables = tables
        self.sampler_counters = sampler_counters

    @classmethod
    def build(
        cls,
        pcs: Sequence[int],
        set_indices: Sequence[int],
        tags: Sequence[int],
        num_llc_sets: int,
        shape: "PredictorShape",
    ) -> "PredictionPlane":
        """Simulate a sampler of ``shape`` over a decomposed stream's
        columns."""
        from repro.core.sampler import simulate_sampled_stream

        dead, ways, stacks, tables, counters = simulate_sampled_stream(
            set_indices, tags, pcs, num_llc_sets, shape
        )
        return cls(num_llc_sets, shape, dead, ways, stacks, tables, counters)

    def install(self, predictor) -> None:
        """Copy the final sampler/table state into a fresh predictor.

        Leaves the predictor exactly as a reference-loop replay of the
        same stream would: table counters, sampler entries (way order),
        LRU stacks, and event counters.  Never-filled sampler ways stay
        at their fresh defaults, which is what the object path leaves
        too (the sampler never invalidates an entry).
        """
        for table, counters in zip(predictor.tables.tables, self.tables):
            table[:] = counters
        sampler = predictor.sampler
        for sampler_set, ways in enumerate(self.sampler_ways):
            entries = sampler.sets[sampler_set]
            for way, (partial, signature, prediction) in enumerate(ways):
                entry = entries[way]
                entry.valid = True
                entry.partial_tag = partial
                entry.signature = signature
                entry.prediction = prediction
            sampler._stacks[sampler_set][:] = self.sampler_stacks[sampler_set]
        accesses, hits, evictions = self.sampler_counters
        sampler.accesses = accesses
        sampler.hits = hits
        sampler.evictions = evictions


class SoACache:
    """The per-set state an array kernel commits, kept until something
    reads the cache's frames.

    Only sets a kernel actually touched carry state (``tag_index[s]`` is
    ``None`` for untouched sets), so a sparse stream pays for its own
    footprint only.  The replay driver leaves the committed instance on
    the cache; the cache's first frame read calls :meth:`to_cache`.
    """

    __slots__ = ("index", "tag_index", "_fills", "_dead", "_meta")

    def __init__(self, index: ReplayIndex) -> None:
        num_sets = index.num_sets
        #: The stream's index: the frame-build recovery reads its
        #: ``set_positions``, ``set_tags`` and ``next_write``.
        self.index = index
        #: Per-set ``tag -> way`` over valid frames; None = set untouched.
        self.tag_index: List[Optional[Dict[int, int]]] = [None] * num_sets
        #: Per-set ``way -> final fill position`` (parallel to tag_index).
        self._fills: List[Optional[List[int]]] = [None] * num_sets
        #: Per-set ``way -> predicted-dead bit``; None = no dead-block
        #: kernel ran (blocks keep their ``False``).
        self._dead: List[Optional[Sequence[int]]] = [None] * num_sets
        #: ``(keys, planes)``: the ``block.meta`` keys and, per key, its
        #: frame-indexed plane (frame = ``set * associativity + way``);
        #: None = the predictor keeps no per-block metadata (blocks keep
        #: their empty dict).
        self._meta: Optional[
            Tuple[Tuple[str, ...], Tuple[Sequence[int], ...]]
        ] = None

    # ------------------------------------------------------------------
    def commit_set(
        self,
        set_index: int,
        tag_to_way: Dict[int, int],
        way_fill: List[int],
        filled: int,
        way_dead: Optional[Sequence[int]] = None,
    ) -> None:
        """Hand one set's kernel-local state over to the substrate.

        Kernels fill ways densely from 0 (the eligible policies never
        invalidate a frame), so ``filled`` bounds the valid ways.  The
        handoff is O(1): the kernel transfers ownership of its per-set
        ``tag -> way`` mapping and ``way -> fill position`` list, and
        :meth:`to_cache` writes the object blocks from them.  The dirty
        bit is derived there from the fill positions (see the module
        docstring) -- kernels never track it.  ``way_dead`` carries the
        DBRB kernel's per-way predicted-dead bits; the simple policies
        never predict, so they omit it.
        """
        self.tag_index[set_index] = tag_to_way
        self._fills[set_index] = way_fill
        if way_dead is not None:
            self._dead[set_index] = way_dead

    def commit_meta(
        self, keys: Tuple[str, ...], planes: Tuple[Sequence[int], ...]
    ) -> None:
        """Hand over the per-block metadata of a predictor that keeps it
        (reftrace, counting): ``planes[i][frame]`` is the value of
        ``keys[i]`` in that frame's ``block.meta``.  The planes are the
        kernel's own, frame-indexed over the whole cache; only resident
        frames are read, and only when the frames are built.  ``keys``
        is in the object path's insertion order, which the built dicts
        keep."""
        self._meta = (keys, planes)

    # ------------------------------------------------------------------
    def to_cache(self, cache) -> None:
        """Write the committed sets into ``cache``'s freshly built frames.

        One walk over each touched set's indexed positions recovers its
        resident blocks' ``access_count`` / ``last_access_seq`` (see the
        module docstring), then one pass per resident frame writes the
        :class:`~repro.cache.block.CacheBlock` fields plus the per-set
        ``tag -> way`` index.  Leaves the cache exactly as the reference
        loop would have; statistics and policy state are committed by
        the replay driver and the kernel respectively.

        ``predicted_dead`` follows the per-way bits the DBRB kernel
        committed (``way_dead``); the simple policies never predict, so
        their sets skip that branch and blocks keep their ``False``;
        likewise ``block.meta`` is only built from committed metadata
        planes, a fresh dict per resident frame.

        Sequence numbers are the stream positions: every
        :class:`~repro.sim.hierarchy.PreparedStream` numbers its accesses
        ``0..n-1``.

        Relies on being called on fresh frames: every frame starts
        invalid, with ``dirty`` / ``predicted_dead`` off and an empty
        ``meta``, so those fields only need a write when the replay
        turned them on.
        """
        sets = cache.sets
        cache_index = cache._tag_index
        associativity = cache.geometry.associativity
        index = self.index
        set_positions = index.set_positions
        set_tags = index.set_tags
        next_write = index.next_write
        sentinel = len(next_write)
        fills = self._fills
        dead_by_set = self._dead
        meta_keys, meta_planes = self._meta or ((), ())
        for set_index, tag_to_way in enumerate(self.tag_index):
            if tag_to_way is None:
                continue
            cache_index[set_index].update(tag_to_way)
            way_fill = fills[set_index]
            way_dead = dead_by_set[set_index]
            access_count = [0] * associativity
            last_access = [0] * associativity
            tag_to_way_get = tag_to_way.get
            for position, tag in zip(set_positions[set_index], set_tags[set_index]):
                way = tag_to_way_get(tag)
                if way is not None and position >= way_fill[way]:
                    access_count[way] += 1
                    last_access[way] = position
            base = set_index * associativity
            blocks = sets[set_index]
            for tag, way in tag_to_way.items():
                fill_position = way_fill[way]
                block = blocks[way]
                if way_dead is not None and way_dead[way]:
                    block.predicted_dead = True
                block.valid = True
                block.tag = tag
                if meta_planes:
                    frame = base + way
                    block.meta = dict(
                        zip(meta_keys, [plane[frame] for plane in meta_planes])
                    )
                if next_write[fill_position] < sentinel:
                    block.dirty = True
                block.fill_seq = fill_position
                block.last_access_seq = last_access[way]
                block.access_count = access_count[way]
