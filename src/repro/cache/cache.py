"""The set-associative cache model.

A :class:`Cache` owns the block frames and statistics and delegates every
*decision* -- who to victimize, where to insert, whether to bypass -- to a
replacement policy object (see :mod:`repro.replacement.base` for the
interface).  This mirrors the structure of the paper's evaluation, where one
LLC model is driven in turn by LRU, random, DIP, RRIP, the optimal policy,
and the dead-block replacement-and-bypass (DBRB) policy with each of the
three predictors.

Access flow (one call to :meth:`Cache.access`):

1. decompose the address into set index and tag;
2. probe the set; on a hit, notify the policy and return;
3. on a miss, notify the policy, then ask it whether the block should
   **bypass** the cache (paper Section V: blocks predicted dead on arrival
   are not placed);
4. otherwise pick a frame -- an invalid one if present, else the policy's
   victim -- evict its occupant, and fill.

Lookup cost: each set keeps a ``tag -> way`` index alongside the block
frames, so the probe in step 2 is one dict lookup instead of an
O(associativity) tag scan -- on the paper's 16-way LLC this is the single
hottest operation of every experiment.  The index is maintained through
:meth:`_install_frame` / :meth:`_clear_frame`; subclasses that move blocks
around directly (e.g. the victim-relocation cache) must use those helpers
rather than calling ``block.fill`` / ``block.invalidate`` themselves.

Deferred frames: a new cache builds no :class:`CacheBlock`.  Its ``sets``
and ``_tag_index`` start as placeholders, and an array-kernel replay
(:mod:`repro.sim.replay_array`) leaves its final state in array form
(a committed :class:`~repro.cache.soa.SoACache`) instead of writing it
into frames.  The first read of either attribute -- an :meth:`access`,
a policy or predictor hook, :meth:`resident_blocks`, :meth:`find`,
:meth:`check_invariants`, :meth:`flush` -- builds both real lists, writes
any committed array state into them, and from then on they are plain
lists.  A figure that reads only ``stats`` and the hit vector never
builds them.  The placeholders are attribute *values*, not a
``__getattr__`` or a descriptor: either of those, or a read of the
instance ``__dict__``, takes :meth:`access` off CPython 3.11's fast
attribute-load paths for good.
"""

from __future__ import annotations

import weakref
from typing import Dict, List, Optional, TYPE_CHECKING

from repro.cache.block import CacheBlock
from repro.cache.geometry import CacheGeometry
from repro.cache.stats import CacheStats
from repro.telemetry.probe import NULL_PROBE, TelemetryProbe
from repro.utils.env import env_flag

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.cache.soa import SoACache
    from repro.replacement.base import ReplacementPolicy

__all__ = ["Cache", "CacheAccess", "CacheObserver", "ParanoidViolation"]

class ParanoidViolation(AssertionError):
    """A paranoid-mode invariant check failed: the cache's derived
    bookkeeping (tag index, policy metadata, statistics) disagrees with
    the ground-truth frame array.  Always a simulator bug, never a
    property of the workload."""


class CacheAccess:
    """One demand access presented to a cache.

    Attributes:
        address: byte address.
        pc: program counter of the memory instruction.  This is the *only*
            program information the sampling predictor uses (paper
            Section III-C).
        is_write: store vs load.
        seq: global sequence number of the access; doubles as the logical
            clock for the optimal policy and the efficiency analysis.
        core: issuing core id (0 for single-core runs); consulted by the
            thread-aware policies (TADIP, thread-aware DRRIP).
    """

    __slots__ = ("address", "core", "is_write", "pc", "seq")

    def __init__(
        self,
        address: int,
        pc: int,
        is_write: bool = False,
        seq: int = 0,
        core: int = 0,
    ) -> None:
        self.address = address
        self.pc = pc
        self.is_write = is_write
        self.seq = seq
        self.core = core

    def __repr__(self) -> str:
        kind = "W" if self.is_write else "R"
        return f"CacheAccess({kind} addr={self.address:#x} pc={self.pc:#x} seq={self.seq})"


class CacheObserver:
    """Optional hook observing cache events; base class is a no-op.

    The efficiency analysis (Figure 1) and the accuracy analysis (Figure 9)
    attach observers rather than patching the cache, so the measured cache
    is exactly the one the policies run on.  Replay with no observer
    attached skips the notification loops entirely.
    """

    def on_hit(self, set_index: int, way: int, block: CacheBlock, access: CacheAccess) -> None:
        """Called after a hit is recorded on ``block``."""

    def on_fill(self, set_index: int, way: int, block: CacheBlock, access: CacheAccess) -> None:
        """Called after a new block is installed in ``block``."""

    def on_evict(self, set_index: int, way: int, block: CacheBlock, access: CacheAccess) -> None:
        """Called just before the occupant of ``block`` is invalidated.

        ``access`` is the miss that forced the eviction.
        """

    def on_bypass(self, set_index: int, access: CacheAccess) -> None:
        """Called when a missing block is not placed in the cache."""


class _UnbuiltFrames:
    """Stands in for ``Cache.sets`` or ``Cache._tag_index`` until the
    frames are built.  Any read builds both real lists (through
    :meth:`Cache._build_frames`) and delegates to the one it stands for,
    so a caller that kept a reference to the placeholder still sees the
    live list.  It holds its cache weakly: a strong link back would make
    every cache with unbuilt frames cyclic garbage, freed only by the
    cyclic collector instead of when its last reference goes."""

    __slots__ = ("_cache", "_name")

    def __init__(self, cache: "Cache", name: str) -> None:
        self._cache = weakref.ref(cache)
        self._name = name

    def _built(self) -> list:
        cache = self._cache()
        if getattr(cache, self._name) is self:
            cache._build_frames()
        return getattr(cache, self._name)

    def __getitem__(self, index):
        return self._built()[index]

    def __iter__(self):
        return iter(self._built())

    def __len__(self) -> int:
        return len(self._built())


class Cache:
    """A set-associative cache driven by a replacement policy.

    Args:
        geometry: shape of the cache.
        policy: decision-maker implementing the
            :class:`repro.replacement.base.ReplacementPolicy` interface.
        name: label used in reports ("L1D", "LLC", ...).
        paranoid: validate the tag->way index against the frame array,
            the policy's internal integrity, and statistics monotonicity
            after every access (slow; for debugging and fault tests).
            ``None`` defers to the ``REPRO_PARANOID`` environment flag.
        probe: telemetry probe the replay engine drives at epoch
            boundaries (see :mod:`repro.telemetry.probe`).  Defaults to
            the shared inert :data:`~repro.telemetry.probe.NULL_PROBE`;
            probes are strictly observational and never change results.
    """

    def __init__(
        self,
        geometry: CacheGeometry,
        policy: "ReplacementPolicy",
        name: str = "cache",
        paranoid: Optional[bool] = None,
        probe: Optional[TelemetryProbe] = None,
    ) -> None:
        self.geometry = geometry
        self.policy = policy
        self.name = name
        self.probe = probe if probe is not None else NULL_PROBE
        self.paranoid = (
            env_flag("REPRO_PARANOID") if paranoid is None else bool(paranoid)
        )
        self._stats_floor = CacheStats()
        self.stats = CacheStats()
        #: Per set, its block frames; built on first read (see the module
        #: docstring).
        self.sets: List[List[CacheBlock]] = _UnbuiltFrames(self, "sets")
        #: Per-set ``tag -> way`` index over *valid* frames; the invariant
        #: is that every valid frame's tag maps to its way (frames holding
        #: a sentinel tag that can collide, like the VVC's relocation
        #: marker, keep only the most recent mapping -- such tags are never
        #: produced by address decomposition, so demand lookups are exact).
        #: Built with ``sets``.
        self._tag_index: List[Dict[int, int]] = _UnbuiltFrames(self, "_tag_index")
        #: The committed state of an array-kernel replay, written into the
        #: frames when they are built; None once they are, or before any
        #: array replay.
        self._array_state: Optional["SoACache"] = None
        # Address arithmetic hoisted out of geometry method calls; these
        # mirror CacheGeometry.set_index/tag exactly.
        self._offset_bits = geometry.offset_bits
        self._index_bits = geometry.index_bits
        self._index_mask = geometry.num_sets - 1
        self._observers: List[CacheObserver] = []
        #: Which replay substrate last drove this cache ("array" for the
        #: array kernels, "object" for the ``Cache.access`` reference
        #: loop; None until the first replay) and, for "object", why the
        #: array path declined.  Strictly observational -- set by
        #: :func:`repro.sim.replay_array.maybe_replay_array`, read by run
        #: manifests and the service's /stats aggregation; never
        #: consulted by the model.
        self.last_replay_kernel: Optional[str] = None
        self.last_replay_fallback: Optional[str] = None
        policy.bind(self)

    # ------------------------------------------------------------------
    # observers
    # ------------------------------------------------------------------
    def add_observer(self, observer: CacheObserver) -> None:
        """Attach an event observer (see :class:`CacheObserver`)."""
        self._observers.append(observer)

    @property
    def has_observers(self) -> bool:
        """True when at least one observer is attached (the replay
        declines the array kernels then: fallback ``observers``)."""
        return bool(self._observers)

    # ------------------------------------------------------------------
    # deferred frames
    # ------------------------------------------------------------------
    def _build_frames(self) -> None:
        """Replace the placeholders with real frames and tag index, and
        write any committed array-replay state into them."""
        geometry = self.geometry
        self.sets = [
            [CacheBlock() for _ in range(geometry.associativity)]
            for _ in range(geometry.num_sets)
        ]
        self._tag_index = [{} for _ in range(geometry.num_sets)]
        committed, self._array_state = self._array_state, None
        if committed is not None:
            committed.to_cache(self)

    def has_resident_blocks(self) -> bool:
        """True when some frame holds a block; answered from the
        committed array state when the frames are not built, without
        building them."""
        if type(self._tag_index) is _UnbuiltFrames:
            committed = self._array_state
            return committed is not None and any(committed.tag_index)
        return any(self._tag_index)

    # ------------------------------------------------------------------
    # lookup helpers
    # ------------------------------------------------------------------
    def find(self, set_index: int, tag: int) -> Optional[int]:
        """Return the way holding ``tag`` in ``set_index``, or None."""
        return self._tag_index[set_index].get(tag)

    def contains(self, address: int) -> bool:
        """True if the block containing ``address`` is currently resident."""
        block_address = address >> self._offset_bits
        set_index = block_address & self._index_mask
        tag = block_address >> self._index_bits
        return tag in self._tag_index[set_index]

    def resident_blocks(self):
        """Yield ``(set_index, way, block)`` for every valid frame."""
        for set_index, ways in enumerate(self.sets):
            for way, block in enumerate(ways):
                if block.valid:
                    yield set_index, way, block

    # ------------------------------------------------------------------
    # paranoid invariant checking
    # ------------------------------------------------------------------
    def _violation(self, message: str) -> None:
        raise ParanoidViolation(f"{self.name}: {message}")

    def _check_set(self, set_index: int) -> None:
        """Validate one set's tag index against its frames, plus the
        policy's own integrity for that set."""
        blocks = self.sets[set_index]
        index = self._tag_index[set_index]
        associativity = self.geometry.associativity
        for tag, way in index.items():
            if not 0 <= way < associativity:
                self._violation(
                    f"set {set_index}: index maps tag {tag:#x} to "
                    f"out-of-range way {way}"
                )
            block = blocks[way]
            if not block.valid:
                self._violation(
                    f"set {set_index}: index maps tag {tag:#x} to invalid "
                    f"frame (way {way})"
                )
            if block.tag != tag:
                self._violation(
                    f"set {set_index} way {way}: index says tag {tag:#x}, "
                    f"frame holds {block.tag:#x}"
                )
        for way, block in enumerate(blocks):
            # Sentinel tags (negative; never produced by address
            # decomposition, e.g. the VVC relocation marker) may collide
            # within a set, and the index then keeps only the most recent
            # mapping -- so only real tags demand an exact entry.
            if block.valid and block.tag >= 0 and index.get(block.tag) != way:
                self._violation(
                    f"set {set_index} way {way}: valid frame tag "
                    f"{block.tag:#x} not indexed to its way "
                    f"(index says {index.get(block.tag)!r})"
                )
        self.policy.check_integrity(set_index)

    def _check_stats(self) -> None:
        """Statistics identity and monotonicity since the last check."""
        stats, floor = self.stats, self._stats_floor
        if stats.hits + stats.misses != stats.accesses:
            self._violation(
                f"stats identity broken: hits {stats.hits} + misses "
                f"{stats.misses} != accesses {stats.accesses}"
            )
        for field in (
            "accesses", "hits", "misses", "fills",
            "evictions", "writebacks", "bypasses", "dead_block_victims",
        ):
            now, before = getattr(stats, field), getattr(floor, field)
            if now < before:
                self._violation(
                    f"stats counter {field} went backwards: "
                    f"{before} -> {now}"
                )
        self._stats_floor = stats.snapshot()

    def check_invariants(self, set_index: Optional[int] = None) -> None:
        """Machine-check the cache's coherence invariants.

        With ``set_index`` given, validates that set's structures only
        (the per-access check); with ``None``, validates every
        set plus the statistics counters.  Raises
        :class:`ParanoidViolation` on the first inconsistency.
        """
        if set_index is not None:
            self._check_set(set_index)
            return
        for index in range(self.geometry.num_sets):
            self._check_set(index)
        self._check_stats()

    def _paranoid_check(self, set_index: int) -> None:
        self._check_set(set_index)
        self._check_stats()

    # ------------------------------------------------------------------
    # frame bookkeeping (the only writers of the tag index)
    # ------------------------------------------------------------------
    def _install_frame(
        self, set_index: int, way: int, tag: int, seq: int, is_write: bool
    ) -> CacheBlock:
        """Fill ``(set_index, way)`` with a block, keeping the index
        coherent.  No statistics or policy callbacks; callers layer those."""
        block = self.sets[set_index][way]
        block.fill(tag, seq, is_write)
        self._tag_index[set_index][tag] = way
        return block

    def _clear_frame(self, set_index: int, way: int) -> CacheBlock:
        """Invalidate ``(set_index, way)``, keeping the index coherent.
        No statistics or policy callbacks; callers layer those."""
        block = self.sets[set_index][way]
        index = self._tag_index[set_index]
        if index.get(block.tag) == way:
            del index[block.tag]
        block.invalidate()
        return block

    # ------------------------------------------------------------------
    # the access path
    # ------------------------------------------------------------------
    def access(self, access: CacheAccess) -> bool:
        """Perform one demand access.  Returns True on a hit."""
        block_address = access.address >> self._offset_bits
        set_index = block_address & self._index_mask
        tag = block_address >> self._index_bits
        stats = self.stats
        stats.accesses += 1

        way = self._tag_index[set_index].get(tag)
        if way is not None:
            block = self.sets[set_index][way]
            stats.hits += 1
            block.touch(access.seq, access.is_write)
            self.policy.on_hit(set_index, way, access)
            if self._observers:
                for observer in self._observers:
                    observer.on_hit(set_index, way, block, access)
            if self.paranoid:
                self._paranoid_check(set_index)
            return True

        stats.misses += 1
        self.policy.on_miss(set_index, access)

        if self.policy.should_bypass(set_index, access):
            stats.bypasses += 1
            if self._observers:
                for observer in self._observers:
                    observer.on_bypass(set_index, access)
            if self.paranoid:
                self._paranoid_check(set_index)
            return False

        way = self._frame_for_fill(set_index, access)
        if self.sets[set_index][way].valid:
            self._evict(set_index, way, access)
        block = self._install_frame(set_index, way, tag, access.seq, access.is_write)
        stats.fills += 1
        self.policy.on_fill(set_index, way, access)
        if self._observers:
            for observer in self._observers:
                observer.on_fill(set_index, way, block, access)
        if self.paranoid:
            self._paranoid_check(set_index)
        return False

    def _frame_for_fill(self, set_index: int, access: CacheAccess) -> int:
        """Pick the frame the missing block will occupy."""
        blocks = self.sets[set_index]
        # A full set has one index entry per frame; only scan for an
        # invalid frame when the index says one may exist.
        if len(self._tag_index[set_index]) < len(blocks):
            for way, block in enumerate(blocks):
                if not block.valid:
                    return way
        way = self.policy.choose_victim(set_index, access)
        if not 0 <= way < self.geometry.associativity:
            raise ValueError(
                f"policy {self.policy!r} chose invalid victim way {way}"
            )
        return way

    def _evict(self, set_index: int, way: int, access: CacheAccess) -> None:
        block = self.sets[set_index][way]
        self.stats.evictions += 1
        if block.dirty:
            self.stats.writebacks += 1
        if block.predicted_dead:
            self.stats.dead_block_victims += 1
        self.policy.on_evict(set_index, way, access)
        if self._observers:
            for observer in self._observers:
                observer.on_evict(set_index, way, block, access)
        self._clear_frame(set_index, way)

    # ------------------------------------------------------------------
    # direct installation (prefetchers, victim relocation)
    # ------------------------------------------------------------------
    def insert(self, access: CacheAccess, way: int) -> None:
        """Install ``access``'s block into ``way`` of its set directly.

        Evicts the current occupant (full eviction bookkeeping runs) and
        fills without consulting the bypass or victim-selection hooks --
        the caller has already decided placement.  Used by the prefetch
        engine and the victim-relocation extension; demand traffic should
        go through :meth:`access`.
        """
        if not 0 <= way < self.geometry.associativity:
            raise ValueError(f"way {way} out of range")
        set_index = self.geometry.set_index(access.address)
        tag = self.geometry.tag(access.address)
        existing = self.find(set_index, tag)
        if existing is not None and existing != way:
            raise ValueError(
                f"block {access.address:#x} already resident in way {existing}"
            )
        block = self.sets[set_index][way]
        if block.valid and block.tag != tag:
            self._evict(set_index, way, access)
        block = self._install_frame(set_index, way, tag, access.seq, access.is_write)
        self.stats.fills += 1
        self.policy.on_fill(set_index, way, access)
        if self._observers:
            for observer in self._observers:
                observer.on_fill(set_index, way, block, access)
        if self.paranoid:
            self._check_set(set_index)

    # ------------------------------------------------------------------
    # maintenance
    # ------------------------------------------------------------------
    def flush(self) -> None:
        """Invalidate every frame (no writeback accounting), reset nothing else."""
        for ways in self.sets:
            for block in ways:
                block.invalidate()
        for index in self._tag_index:
            index.clear()

    def __repr__(self) -> str:
        return f"Cache({self.name}, {self.geometry.describe()}, policy={self.policy!r})"
