"""The sampling dead block predictor (paper Section III).

The predictor answers "is this block dead?" from nothing but the PC of the
current access: fold the PC to a 15-bit signature, read the three skewed
counter tables, compare the summed confidence with the threshold.  All
*training* happens through the sampler on the ~1.6% of LLC accesses that
touch a sampled set; the LLC itself carries only one prediction bit per
block.

The constructor exposes every knob of the paper's Figure 6 ablation:

=====================  =====================================================
``use_sampler=False``  "DBRB alone": no sampler; the predictor learns from
                       every LLC access and eviction, keeping a last-PC
                       signature in each block's metadata (this is exactly
                       "the reftrace predictor using the last PC instead of
                       the trace signature", Section VII-A.4).
``skewed=False``       one 4x-larger table instead of three skewed tables.
``sampler_assoc=16``   sampler associativity matching the LLC instead of
                       the reduced 12 ways.
=====================  =====================================================
"""

from __future__ import annotations

from typing import Dict, NamedTuple, Optional, TYPE_CHECKING

from repro.core.sampler import Sampler, pc_signature
from repro.core.skewed import SkewedCounterTable
from repro.predictors.base import DeadBlockPredictor

if TYPE_CHECKING:  # pragma: no cover
    from repro.cache.cache import Cache, CacheAccess

__all__ = ["PAPER_SHAPE", "PredictorShape", "SamplingDeadBlockPredictor"]

_LAST_PC_KEY = "sdbp_last_pc"


class PredictorShape(NamedTuple):
    """What a sampler and its tables are sized by, and so the key of a
    stream's :class:`~repro.cache.soa.PredictionPlane`."""

    sampler_sets: int
    sampler_assoc: int
    tag_bits: int
    pc_bits: int
    num_tables: int
    entries_per_table: int
    counter_bits: int
    threshold: int


#: The paper's shape (Sections III-A/B/E, IV-C): a 32-set, 12-way sampler
#: of 15-bit partial tags and PC signatures training three skewed
#: 4,096-entry tables of 2-bit counters, dead at a confidence of 8.
PAPER_SHAPE = PredictorShape(32, 12, 15, 15, 3, 4096, 2, 8)

#: Single-table ablation: one table of 4x the entries, and the threshold
#: for a lone 2-bit counter (the conventional weakly-dead threshold).
_SINGLE_TABLE = PAPER_SHAPE._replace(
    num_tables=1, entries_per_table=4 * PAPER_SHAPE.entries_per_table, threshold=2
)


class SamplingDeadBlockPredictor(DeadBlockPredictor):
    """PC-indexed dead block predictor trained through a sampler.

    Args:
        sampler_sets: sampler sets (paper: 32).
        sampler_assoc: sampler ways (paper: 12).
        use_sampler: disable to learn from every LLC access (ablation).
        skewed: three skewed tables (True) or one 4x table (False).
        threshold: override the confidence threshold; None picks the
            paper's value for the chosen table organization.
        tag_bits / pc_bits: partial tag and signature widths (paper: 15).

    ``shape`` is the resulting :class:`PredictorShape`.
    """

    name = "sampler"

    def __init__(
        self,
        sampler_sets: int = PAPER_SHAPE.sampler_sets,
        sampler_assoc: int = PAPER_SHAPE.sampler_assoc,
        use_sampler: bool = True,
        skewed: bool = True,
        threshold: Optional[int] = None,
        tag_bits: int = PAPER_SHAPE.tag_bits,
        pc_bits: int = PAPER_SHAPE.pc_bits,
    ) -> None:
        super().__init__()
        base = PAPER_SHAPE if skewed else _SINGLE_TABLE
        self.shape = shape = base._replace(
            sampler_sets=sampler_sets,
            sampler_assoc=sampler_assoc,
            tag_bits=tag_bits,
            pc_bits=pc_bits,
            threshold=base.threshold if threshold is None else threshold,
        )
        self.tables = SkewedCounterTable(
            shape.num_tables, shape.entries_per_table, shape.counter_bits, shape.threshold
        )
        self.use_sampler = use_sampler
        self.skewed = skewed
        self.sampler: Optional[Sampler] = None

    def bind(self, cache: "Cache") -> None:
        super().bind(cache)
        if self.use_sampler:
            shape = self.shape
            self.sampler = Sampler(
                self.tables, cache.geometry.num_sets, shape.sampler_sets,
                shape.sampler_assoc, shape.tag_bits, shape.pc_bits,
            )

    # ------------------------------------------------------------------
    # prediction: purely a function of the accessing PC
    # ------------------------------------------------------------------
    def _signature(self, pc: int) -> int:
        # Shared process-wide memo (repro.core.sampler.pc_signature): the
        # fold is pure and the distinct-PC set of a workload is small.
        return pc_signature(pc, self.shape.pc_bits)

    def _predict(self, pc: int) -> bool:
        return self.tables.predict(self._signature(pc))

    def _sample(self, set_index: int, access: "CacheAccess") -> None:
        """Feed the access to the sampler when its set is sampled."""
        sampler = self.sampler
        if sampler is None:
            return
        # Inlined Sampler.sampler_set_for: this runs on every LLC access,
        # and only ~1.6% of sets are sampled, so the reject path must be
        # two integer ops, not a method call.
        interval = sampler.interval
        if set_index % interval:
            return
        sampler_set = set_index // interval
        if sampler_set < sampler.num_sets:
            sampler.access(
                sampler_set, self.cache.geometry.tag(access.address), access.pc
            )

    # ------------------------------------------------------------------
    # predictor events
    # ------------------------------------------------------------------
    def touch(self, set_index: int, way: int, access: "CacheAccess") -> bool:
        if self.use_sampler:
            self._sample(set_index, access)
        else:
            block = self.cache.sets[set_index][way]
            previous = block.meta.get(_LAST_PC_KEY)
            if previous is not None:
                # Re-reference proves the previous PC was not the last touch.
                self.tables.train(previous, dead=False)
            block.meta[_LAST_PC_KEY] = self._signature(access.pc)
        return self._predict(access.pc)

    def predict_fill(self, set_index: int, access: "CacheAccess") -> bool:
        # NOTE: the sampler must still see bypassed accesses -- tags never
        # bypass the sampler (Section V-B) -- so sampling happens here, on
        # the *decision* path, rather than in install().
        if self.use_sampler:
            self._sample(set_index, access)
        return self._predict(access.pc)

    def install(self, set_index: int, way: int, access: "CacheAccess") -> bool:
        if not self.use_sampler:
            block = self.cache.sets[set_index][way]
            block.meta[_LAST_PC_KEY] = self._signature(access.pc)
        return self._predict(access.pc)

    def evicted(self, set_index: int, way: int, access: "CacheAccess") -> None:
        if self.use_sampler:
            return  # training comes exclusively from sampler evictions
        block = self.cache.sets[set_index][way]
        signature = block.meta.get(_LAST_PC_KEY)
        if signature is not None:
            self.tables.train(signature, dead=True)

    # ------------------------------------------------------------------
    # telemetry
    # ------------------------------------------------------------------
    def telemetry_snapshot(self) -> Dict[str, float]:
        """Sampler occupancy/event counters plus table-population gauges."""
        snapshot: Dict[str, float] = {}
        if self.sampler is not None:
            snapshot.update(self.sampler.telemetry_snapshot())
        snapshot.update(self.tables.telemetry_snapshot())
        return snapshot

    # ------------------------------------------------------------------
    def __repr__(self) -> str:
        parts = []
        if self.use_sampler and self.sampler is not None:
            parts.append(
                f"sampler={self.sampler.num_sets}x{self.sampler.associativity}"
            )
        elif self.use_sampler:
            parts.append(f"sampler={self.shape.sampler_sets}x{self.shape.sampler_assoc}")
        else:
            parts.append("no-sampler")
        parts.append("skewed" if self.skewed else "single-table")
        return f"SamplingDeadBlockPredictor({', '.join(parts)})"
