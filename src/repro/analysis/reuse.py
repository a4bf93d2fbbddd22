"""Reuse-distance profiling.

Dead block prediction is, at bottom, a bet about the reuse-distance
distribution of each PC's blocks: a block is LRU-dead iff its next reuse
distance exceeds the cache's associativity-weighted reach, and the
sampler can only *learn* reuses within its own 12-way reach.  This module
computes those distributions so workloads (synthetic or user-supplied
traces) can be characterized in the same terms the predictors operate in.

Distances here are **LRU stack distances in unique blocks**: the number
of distinct blocks referenced between consecutive touches of the same
block.  A re-reference hits a fully-associative LRU cache of capacity C
iff its stack distance is < C; per-set distances are ~stack/num_sets for
a hashed index.

The implementation uses the classic O(n log n) Olken-style algorithm with
a Fenwick (binary indexed) tree over access timestamps.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional

from repro.sim.trace import Trace

__all__ = ["ReuseProfile", "profile_trace", "reuse_histogram"]

#: Sentinel distance for first-ever touches (cold references).
COLD = -1


class _FenwickTree:
    """Prefix sums over timestamp slots (1-indexed)."""

    def __init__(self, size: int) -> None:
        self.size = size
        self.tree = [0] * (size + 1)

    def add(self, index: int, delta: int) -> None:
        index += 1
        while index <= self.size:
            self.tree[index] += delta
            index += index & (-index)

    def prefix_sum(self, index: int) -> int:
        index += 1
        total = 0
        while index > 0:
            total += self.tree[index]
            index -= index & (-index)
        return total


@dataclass
class ReuseProfile:
    """Reuse statistics of one trace (block granularity).

    Attributes:
        name: trace name.
        total_references: block-granular references profiled.
        cold_references: first touches (infinite distance).
        distances: histogram of stack distances, bucketed by powers of
            two: ``distances[k]`` counts reuses with distance in
            ``[2**k, 2**(k+1))`` (bucket 0 holds distances 0 and 1).
        pc_reuse: per PC: (reuses observed, reuses within ``llc_reach``).
    """

    name: str
    llc_reach: int
    total_references: int = 0
    cold_references: int = 0
    distances: Dict[int, int] = field(default_factory=dict)
    pc_reuse: Dict[int, List[int]] = field(default_factory=dict)

    # ------------------------------------------------------------------
    def record(self, pc: int, distance: int) -> None:
        self.total_references += 1
        if distance == COLD:
            self.cold_references += 1
            return
        bucket = max(distance, 1).bit_length() - 1
        self.distances[bucket] = self.distances.get(bucket, 0) + 1
        entry = self.pc_reuse.setdefault(pc, [0, 0])
        entry[0] += 1
        if distance < self.llc_reach:
            entry[1] += 1

    # ------------------------------------------------------------------
    @property
    def reuse_fraction(self) -> float:
        """Fraction of references that are re-references."""
        if self.total_references == 0:
            return 0.0
        return 1.0 - self.cold_references / self.total_references

    def hit_fraction(self, capacity_blocks: int) -> float:
        """Fraction of all references a fully-associative LRU cache of
        ``capacity_blocks`` would hit (Mattson's stack analysis)."""
        if self.total_references == 0:
            return 0.0
        hits = 0
        for bucket, count in self.distances.items():
            if (1 << (bucket + 1)) <= capacity_blocks:
                hits += count
            elif (1 << bucket) < capacity_blocks:
                hits += count // 2  # split bucket: approximate
        return hits / self.total_references

    def pc_llc_reuse_ratio(self, pc: int) -> Optional[float]:
        """Of a PC's observed reuses, the fraction within the LLC's reach
        -- the statistic that decides whether the sampler will keep the
        PC alive.  None if the PC produced no reuses."""
        entry = self.pc_reuse.get(pc)
        if not entry or entry[0] == 0:
            return None
        return entry[1] / entry[0]

    def summary(self) -> str:
        lines = [
            f"reuse profile: {self.name}",
            f"  references:       {self.total_references:,}",
            f"  cold (first use): {self.cold_references:,} "
            f"({1 - self.reuse_fraction:.1%})",
        ]
        for bucket in sorted(self.distances):
            low, high = 1 << bucket, (1 << (bucket + 1)) - 1
            count = self.distances[bucket]
            share = count / max(self.total_references, 1)
            lines.append(f"  distance {low:>7,}..{high:<9,} {count:>9,} ({share:.1%})")
        return "\n".join(lines)


def profile_trace(
    trace: Trace,
    llc_reach: int = 4096,
    block_bits: int = 6,
) -> ReuseProfile:
    """Profile a trace's block-granular reuse distances.

    Args:
        trace: the trace to profile.
        llc_reach: unique-block reach used for the per-PC LLC statistic
            (default: a 256KB/64B cache's 4,096 blocks).
        block_bits: log2 of the block size for address folding.
    """
    profile = ReuseProfile(name=trace.name, llc_reach=llc_reach)
    last = len(trace) - 1
    tree = _FenwickTree(len(trace))
    last_position: Dict[int, int] = {}
    for position, (pc, address) in enumerate(zip(trace.pcs, trace.addresses)):
        block = address >> block_bits
        previous = last_position.get(block)
        if previous is None:
            profile.record(pc, COLD)
        else:
            # Unique blocks touched since the previous touch = number of
            # "last touch" markers after `previous`.
            distance = tree.prefix_sum(last) - tree.prefix_sum(previous)
            profile.record(pc, distance)
            tree.add(previous, -1)
        tree.add(position, 1)
        last_position[block] = position
    return profile


def reuse_histogram(traces: Iterable[Trace], llc_reach: int = 4096) -> str:
    """Profile several traces and return their summaries."""
    return "\n\n".join(profile_trace(t, llc_reach=llc_reach).summary() for t in traces)
