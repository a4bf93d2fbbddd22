"""The skewed prediction table (paper Section III-E).

"The predictor keeps three 4,096-entry tables of 2-bit counters, each
indexed by a different hash of a 15-bit signature.  Each access to the
predictor yields three counter values whose sum is used as a confidence
compared with a threshold; if the threshold is met, then the corresponding
block is predicted dead. [...] We find that a threshold of eight gives the
best accuracy."

The skew matters because two unrelated signatures that conflict in one
table are unlikely to conflict in all three, so destructive interference is
voted down.  A bonus the paper calls out: three tables give ten confidence
levels (0..9) instead of four, allowing a finer threshold.

The same class also models the *single-table* ablation configuration of
Figure 6 (``num_tables=1`` with a 4x larger table), where the paper's
"DBRB alone" predictor is one 2-bit counter table with a threshold of 2.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, List, Tuple

from repro.utils.bits import ilog2
from repro.utils.hashing import skewed_hash

__all__ = ["SkewedCounterTable", "skewed_indices"]


@lru_cache(maxsize=None)
def skewed_indices(signature: int, num_tables: int, index_bits: int) -> Tuple[int, ...]:
    """Per-bank skewed table indices for ``signature``.

    A pure function of its arguments (the skew salts are fixed), shared
    process-wide: the predictor objects' tables and the array path's
    prediction-plane precompute (:mod:`repro.cache.soa`) index through
    the same memo, so a sweep pays for each signature's three hashes
    once, not once per technique.  The signature space is 15 bits and
    the geometry arguments take two values in practice, so the cache is
    bounded at ~64K entries.
    """
    return tuple(
        skewed_hash(signature, table_index, index_bits)
        for table_index in range(num_tables)
    )


class SkewedCounterTable:
    """A bank of skew-indexed saturating counter tables.

    Args:
        num_tables: number of skewed banks (paper: 3; ablation: 1).
        entries_per_table: counters per bank (paper: 4,096; must be a
            power of two).
        counter_bits: counter width (paper: 2).
        threshold: summed confidence at or above which the prediction is
            "dead" (paper: 8 for three tables; 2 is the sensible default
            for one table).
    """

    def __init__(
        self,
        num_tables: int = 3,
        entries_per_table: int = 4096,
        counter_bits: int = 2,
        threshold: int = 8,
    ) -> None:
        if num_tables < 1:
            raise ValueError(f"need at least one table, got {num_tables}")
        self.num_tables = num_tables
        self.index_bits = ilog2(entries_per_table)
        self.counter_max = (1 << counter_bits) - 1
        max_confidence = num_tables * self.counter_max
        if not 0 < threshold <= max_confidence:
            raise ValueError(
                f"threshold {threshold} out of range (0, {max_confidence}]"
            )
        self.threshold = threshold
        self.tables: List[List[int]] = [
            [0] * entries_per_table for _ in range(num_tables)
        ]

    # ------------------------------------------------------------------
    def _indices(self, signature: int) -> Tuple[int, ...]:
        """Per-bank table indices for ``signature`` (process-wide memo)."""
        return skewed_indices(signature, self.num_tables, self.index_bits)

    def confidence(self, signature: int) -> int:
        """Summed counter value across the banks for ``signature``."""
        total = 0
        for table, index in zip(self.tables, self._indices(signature)):
            total += table[index]
        return total

    def predict(self, signature: int) -> bool:
        """True when ``signature``'s confidence meets the dead threshold."""
        total = 0
        for table, index in zip(self.tables, self._indices(signature)):
            total += table[index]
        return total >= self.threshold

    def train(self, signature: int, dead: bool) -> None:
        """Push every bank's counter toward dead (increment) or live
        (decrement), saturating."""
        maximum = self.counter_max
        for table, index in zip(self.tables, self._indices(signature)):
            value = table[index]
            if dead:
                if value < maximum:
                    table[index] = value + 1
            elif value > 0:
                table[index] = value - 1

    # ------------------------------------------------------------------
    def telemetry_snapshot(self) -> Dict[str, float]:
        """Counter-population gauges for the interval recorder.

        ``table_saturation`` is the fraction of counters pinned at their
        maximum (a saturated table stops learning "dead" -- the paper's
        2-bit choice banks on decay via live training); the mean counter
        tracks overall confidence drift.
        """
        tables = self.tables
        counters = sum(map(len, tables))
        saturated = sum(table.count(self.counter_max) for table in tables)
        return {
            "table_saturation": saturated / counters,
            "table_mean_counter": sum(map(sum, tables)) / counters,
        }

    # ------------------------------------------------------------------
    @property
    def storage_bits(self) -> int:
        """Total predictor-table storage in bits (for Table I accounting)."""
        counter_bits = ilog2(self.counter_max + 1)
        return self.num_tables * len(self.tables[0]) * counter_bits

    def __repr__(self) -> str:
        return (
            f"SkewedCounterTable({self.num_tables}x{len(self.tables[0])}, "
            f"threshold={self.threshold})"
        )
