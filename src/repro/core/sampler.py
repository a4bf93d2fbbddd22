"""The sampler: a decoupled partial-tag array (paper Sections III-A to III-D).

The sampler tracks a small number of cache sets -- 32 sets for both the 2MB
single-core LLC and the 8MB quad-core LLC -- and is the *only* place the
predictor learns from.  Key properties straight from the paper:

* each sampler set corresponds to every ``num_cache_sets / 32``-th LLC set;
* entries hold 15-bit partial tags and 15-bit partial PCs plus a
  prediction bit, a valid bit, and LRU state;
* the sampler is LRU-managed regardless of the LLC's policy (a
  deterministic policy is easier to learn from -- Section III-B);
* its associativity need not match the LLC: 12 ways beats 16 because
  likely-dead tags leave the sampler sooner (Section III-B);
* tags never bypass the sampler -- every access to a sampled set is
  installed (Section V-B).

Training protocol on an access to a sampled set:

* **sampler hit**: the entry's recorded last-touch PC was *not* the last
  touch after all -> train "live" on the stored signature, overwrite the
  signature with the current PC, refresh the prediction bit, promote to MRU;
* **sampler miss**: victimize the LRU entry; if it was valid, its stored
  signature really did end the block's life in the sampler -> train "dead";
  install the new partial tag with the current PC's signature at MRU.
"""

from __future__ import annotations

from functools import lru_cache
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro.core.skewed import SkewedCounterTable, skewed_indices
from repro.utils.bits import ilog2, mask
from repro.utils.hashing import fold_xor

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.predictor import PredictorShape

__all__ = [
    "Sampler",
    "SamplerEntry",
    "pc_signature",
    "simulate_sampled_stream",
]


@lru_cache(maxsize=None)
def pc_signature(pc: int, pc_bits: int) -> int:
    """Fold a PC to its table-index signature (process-wide memo).

    The fold is pure and the distinct-PC set of a workload is small, so
    one memo shared by the sampler/predictor objects and the array
    path's prediction-plane precompute serves every technique of a sweep.
    """
    return fold_xor(pc, pc_bits)


class SamplerEntry:
    """One sampler frame: partial tag, last-touch PC signature, bookkeeping."""

    __slots__ = ("partial_tag", "prediction", "signature", "valid")

    def __init__(self) -> None:
        self.valid = False
        self.partial_tag = 0
        self.signature = 0
        self.prediction = False

    def __repr__(self) -> str:
        if not self.valid:
            return "SamplerEntry(invalid)"
        return (
            f"SamplerEntry(tag={self.partial_tag:#06x}, "
            f"sig={self.signature:#06x}, dead={self.prediction})"
        )


class Sampler:
    """The sampling partial-tag array.

    Args:
        tables: the skewed counter tables trained by this sampler.
        num_sets: sampler sets (paper: 32).
        associativity: sampler ways (paper: 12; 16 for the ablation).
        tag_bits: partial tag width (paper: 15 -- "we observed no incorrect
            matches in any of the benchmarks").
        pc_bits: partial PC signature width (paper: 15).
        cache_sets: number of sets in the cache being sampled; used to
            derive which cache sets have a sampler set.
    """

    def __init__(
        self,
        tables: SkewedCounterTable,
        cache_sets: int,
        num_sets: int = 32,
        associativity: int = 12,
        tag_bits: int = 15,
        pc_bits: int = 15,
    ) -> None:
        if num_sets < 1:
            raise ValueError(f"sampler needs at least one set, got {num_sets}")
        if associativity < 1:
            raise ValueError(f"sampler needs at least one way, got {associativity}")
        if cache_sets < 1:
            raise ValueError(f"cache_sets must be positive, got {cache_sets}")
        self.tables = tables
        # A tiny test cache may have fewer sets than the sampler wants.
        self.num_sets = min(num_sets, cache_sets)
        self.associativity = associativity
        self.tag_bits = tag_bits
        self.pc_bits = pc_bits
        self.interval = max(1, cache_sets // self.num_sets)
        self._tag_mask = mask(tag_bits)
        self.sets: List[List[SamplerEntry]] = [
            [SamplerEntry() for _ in range(associativity)]
            for _ in range(self.num_sets)
        ]
        # LRU stacks, MRU first, mirroring repro.replacement.lru.
        self._stacks: List[List[int]] = [
            list(range(associativity)) for _ in range(self.num_sets)
        ]
        # Event counters used by the power model and the paper's claim that
        # <1.6% of LLC accesses update the predictor.
        self.accesses = 0
        self.hits = 0
        self.evictions = 0

    # ------------------------------------------------------------------
    # set mapping
    # ------------------------------------------------------------------
    def sampler_set_for(self, cache_set: int) -> Optional[int]:
        """Sampler set tracking ``cache_set``, or None if unsampled.

        Cache set ``k * interval`` maps to sampler set ``k`` -- e.g. every
        64th set of a 2,048-set cache (paper Section III-A).
        """
        if cache_set % self.interval != 0:
            return None
        sampler_set = cache_set // self.interval
        if sampler_set >= self.num_sets:
            return None
        return sampler_set

    # ------------------------------------------------------------------
    # signature arithmetic
    # ------------------------------------------------------------------
    def partial_tag(self, tag: int) -> int:
        """Lower-order bits of the full tag (paper Section III-A)."""
        return tag & self._tag_mask

    def pc_signature(self, pc: int) -> int:
        """Fold the PC to the signature width used to index the tables."""
        return pc_signature(pc, self.pc_bits)

    # ------------------------------------------------------------------
    # the access path
    # ------------------------------------------------------------------
    def access(self, sampler_set: int, tag: int, pc: int) -> None:
        """Process one access to a sampled cache set; trains the tables."""
        self.accesses += 1
        partial = self.partial_tag(tag)
        signature = self.pc_signature(pc)
        entries = self.sets[sampler_set]
        stack = self._stacks[sampler_set]

        for way, entry in enumerate(entries):
            if entry.valid and entry.partial_tag == partial:
                self.hits += 1
                # The stored signature was not the last touch: train live.
                self.tables.train(entry.signature, dead=False)
                entry.signature = signature
                entry.prediction = self.tables.predict(signature)
                stack.remove(way)
                stack.insert(0, way)
                return

        # Sampler miss: victimize LRU (tags never bypass the sampler).
        way = self._choose_victim(sampler_set)
        entry = entries[way]
        if entry.valid:
            self.evictions += 1
            # The victim's stored signature really was its last touch.
            self.tables.train(entry.signature, dead=True)
        entry.valid = True
        entry.partial_tag = partial
        entry.signature = signature
        entry.prediction = self.tables.predict(signature)
        stack.remove(way)
        stack.insert(0, way)

    def _choose_victim(self, sampler_set: int) -> int:
        for way, entry in enumerate(self.sets[sampler_set]):
            if not entry.valid:
                return way
        return self._stacks[sampler_set][-1]

    # ------------------------------------------------------------------
    # telemetry
    # ------------------------------------------------------------------
    def telemetry_snapshot(self) -> Dict[str, float]:
        """Occupancy gauge plus cumulative event counters.

        ``*_count`` keys follow the interval-recorder convention
        (cumulative, differenced into per-epoch rates); occupancy is the
        fraction of sampler frames currently valid.
        """
        valid = sum(
            1 for entries in self.sets for entry in entries if entry.valid
        )
        return {
            "sampler_occupancy": valid / (self.num_sets * self.associativity),
            "sampler_access_count": self.accesses,
            "sampler_hit_count": self.hits,
            "sampler_eviction_count": self.evictions,
        }

    # ------------------------------------------------------------------
    # storage accounting (Table I: 6.75KB for the paper's configuration)
    # ------------------------------------------------------------------
    @property
    def entry_bits(self) -> int:
        """Bits per entry: partial tag + partial PC + prediction + valid +
        LRU position (paper Section IV-C)."""
        lru_bits = max(1, (self.associativity - 1).bit_length())
        return self.tag_bits + self.pc_bits + 1 + 1 + lru_bits

    @property
    def storage_bits(self) -> int:
        """Total sampler storage in bits."""
        return self.num_sets * self.associativity * self.entry_bits

    def __repr__(self) -> str:
        return (
            f"Sampler({self.num_sets}x{self.associativity}, "
            f"interval={self.interval})"
        )


# ----------------------------------------------------------------------
# batched plane construction for the array replay path
# ----------------------------------------------------------------------
def simulate_sampled_stream(
    set_indices: Sequence[int],
    tags: Sequence[int],
    pcs: Sequence[int],
    cache_sets: int,
    shape: "PredictorShape",
) -> Tuple[
    bytearray,
    List[List[Tuple[int, int, bool]]],
    List[List[int]],
    List[List[int]],
    Tuple[int, int, int],
]:
    """One-pass batched replay of the sampler + skewed tables.

    With ``use_sampler=True`` the predictor trains *exclusively* through
    the sampler, and the sampler observes every access to a sampled set
    regardless of the LLC's hit/miss outcome (``touch`` samples on hits,
    ``predict_fill`` samples on misses -- tags never bypass the sampler,
    Section V-B -- and ``install`` does not sample).  Sampler and table
    evolution is therefore a pure function of the access stream,
    independent of LLC contents, so it can be simulated once per
    workload and :class:`~repro.core.predictor.PredictorShape` and
    shared across every technique of that shape -- the heart of the
    array-native DBRB kernel (:mod:`repro.sim.replay_array`).

    Returns ``(dead, sampler_ways, sampler_stacks, tables, counters)``:

    * ``dead[p]``: the prediction for access ``p``'s PC evaluated *after*
      position ``p``'s sampler update -- exactly the value the object
      path assigns on a hit (``touch``) and consults on a miss
      (``predict_fill``/``install``, identical within one access since
      no training separates them);
    * ``sampler_ways[s]``: the filled ways of sampler set ``s`` in way
      order, as ``(partial_tag, signature, prediction)`` triples;
    * ``sampler_stacks[s]``: the final LRU stack (MRU first, a full way
      permutation, never-filled ways at the tail in way order);
    * ``tables``: the final per-bank counter lists;
    * ``counters``: ``(accesses, hits, evictions)`` event totals.

    Predictions are memoized per PC under a table *stamp* bumped only
    when a training event actually changes a counter, so the unsampled
    ~98.4% of accesses cost one dict probe each.
    """
    num_sets, associativity, tag_bits, pc_bits = shape[:4]
    num_tables, entries_per_table, counter_bits, threshold = shape[4:]
    eff_sets = min(num_sets, cache_sets)
    interval = max(1, cache_sets // eff_sets)
    index_bits = ilog2(entries_per_table)
    counter_max = (1 << counter_bits) - 1
    tag_mask = mask(tag_bits)
    tables: List[List[int]] = [[0] * entries_per_table for _ in range(num_tables)]

    total = len(set_indices)
    dead = bytearray(total)
    tag_to_way: List[Dict[int, int]] = [{} for _ in range(eff_sets)]
    way_partial = [[0] * associativity for _ in range(eff_sets)]
    way_sig = [[0] * associativity for _ in range(eff_sets)]
    way_indices: List[List[Tuple[int, ...]]] = [
        [()] * associativity for _ in range(eff_sets)
    ]
    way_pred = [[False] * associativity for _ in range(eff_sets)]
    filled_by_set = [0] * eff_sets
    stacks = [list(range(associativity)) for _ in range(eff_sets)]
    accesses = hits = evictions = 0

    # pc -> (signature, per-bank indices); pc -> [stamp, prediction].
    pc_info: Dict[int, Tuple[int, Tuple[int, ...]]] = {}
    pc_info_get = pc_info.get
    pred_memo: Dict[int, List] = {}
    pred_memo_get = pred_memo.get
    stamp = 0

    for position in range(total):
        pc = pcs[position]
        info = pc_info_get(pc)
        if info is None:
            signature = pc_signature(pc, pc_bits)
            info = (signature, skewed_indices(signature, num_tables, index_bits))
            pc_info[pc] = info
        set_index = set_indices[position]
        if not set_index % interval:
            sampler_set = set_index // interval
            if sampler_set < eff_sets:
                accesses += 1
                partial = tags[position] & tag_mask
                lookup = tag_to_way[sampler_set]
                way = lookup.get(partial)
                stack = stacks[sampler_set]
                if way is not None:
                    # Sampler hit: the stored signature was not the last
                    # touch after all -> train live (decrement).
                    hits += 1
                    for table, idx in zip(tables, way_indices[sampler_set][way]):
                        value = table[idx]
                        if value > 0:
                            table[idx] = value - 1
                            stamp += 1
                else:
                    filled = filled_by_set[sampler_set]
                    if filled < associativity:
                        way = filled
                        filled_by_set[sampler_set] = filled + 1
                    else:
                        # Victimize LRU; its signature really did end the
                        # block's sampler life -> train dead (increment).
                        way = stack[-1]
                        evictions += 1
                        for table, idx in zip(
                            tables, way_indices[sampler_set][way]
                        ):
                            value = table[idx]
                            if value < counter_max:
                                table[idx] = value + 1
                                stamp += 1
                        del lookup[way_partial[sampler_set][way]]
                    lookup[partial] = way
                    way_partial[sampler_set][way] = partial
                signature, indices = info
                way_sig[sampler_set][way] = signature
                way_indices[sampler_set][way] = indices
                stack.remove(way)
                stack.insert(0, way)
                confidence = 0
                for table, idx in zip(tables, indices):
                    confidence += table[idx]
                prediction = confidence >= threshold
                way_pred[sampler_set][way] = prediction
                pred_memo[pc] = [stamp, prediction]
                dead[position] = prediction
                continue
        entry = pred_memo_get(pc)
        if entry is not None and entry[0] == stamp:
            dead[position] = entry[1]
            continue
        confidence = 0
        for table, idx in zip(tables, info[1]):
            confidence += table[idx]
        prediction = confidence >= threshold
        pred_memo[pc] = [stamp, prediction]
        dead[position] = prediction

    sampler_ways = [
        [
            (way_partial[s][way], way_sig[s][way], way_pred[s][way])
            for way in range(filled_by_set[s])
        ]
        for s in range(eff_sets)
    ]
    return dead, sampler_ways, stacks, tables, (accesses, hits, evictions)
