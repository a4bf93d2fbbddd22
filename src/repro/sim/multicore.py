"""Quad-core shared-LLC simulation (paper Sections VI-A.2 and VII-D).

Methodology mirrored from the paper:

* each core runs one benchmark with private L1D and L2;
* the LLC is shared (2MB per core -- 8MB for the quad-core machine);
* the reported metric is the **normalized weighted speedup**: per thread,
  IPC in the shared run divided by that program's IPC running alone with
  the full shared-size LLC under LRU; summed over threads; normalized to
  the same sum for the shared-LRU run.

Interleaving substitution: the paper's CMP$im executes the four programs
cycle-by-cycle.  A trace-driven reproduction cannot feed back contention
into the interleaving, so we approximate simultaneity by timestamping each
core's LLC accesses with an *estimated* cycle (instruction position
divided by the core's solo IPC) and merging the four streams in timestamp
order.  Cores therefore progress at realistic relative rates, which is
what matters for shared-cache contention; the residual error is
second-order (contention-induced slowdown changing the interleaving
itself).  DESIGN.md records this substitution.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import merge as heap_merge
from itertools import accumulate
from typing import Callable, List, Optional, Sequence, Tuple

from repro.cache.cache import Cache
from repro.cache.geometry import CacheGeometry
from repro.cache.stats import CacheStats
from repro.replacement.base import ReplacementPolicy
from repro.replacement.lru import LRUPolicy
from repro.sim.cpu import CoreModel
from repro.sim.hierarchy import (
    FilteredTrace,
    HierarchyFilter,
    MachineConfig,
    PreparedStream,
    decompose,
)
from repro.sim.metrics import weighted_speedup
from repro.sim.replay import replay
from repro.sim.trace import Trace

__all__ = ["MulticoreResult", "MulticoreSystem", "PreparedMix"]

#: Builds the shared-LLC policy.  Receives the geometry, the merged
#: stream, and the core count (thread-aware policies need it).
SharedPolicyFactory = Callable[[CacheGeometry, PreparedStream, int], ReplacementPolicy]

#: Address bits reserved to keep per-core address spaces disjoint in the
#: shared LLC (the mixes, and loadsim's tenants, are multiprogrammed, not
#: shared-memory).
CORE_ADDRESS_SHIFT = 44


@dataclass
class PreparedMix:
    """Filtered traces and solo baselines for one multi-core mix."""

    name: str
    filtered: List[FilteredTrace]
    single_ipcs: List[float]          # solo IPC, full LLC, LRU (paper's SingleIPC_i)
    merged: PreparedStream            # timestamp-merged shared-LLC stream
    per_core_positions: List[List[int]]  # per core: positions into `merged`


@dataclass
class MulticoreResult:
    """Outcome of one (mix, technique) shared-cache run."""

    mix: str
    technique: str
    ipcs: List[float]
    single_ipcs: List[float]
    llc_stats: CacheStats
    instructions: int
    #: Replay substrate of the shared-LLC stream and, for "object" (the
    #: reference loop), why the array path was not taken (as on
    #: ``RunResult``).
    kernel: Optional[str] = None
    kernel_fallback: Optional[str] = None

    @property
    def weighted_ipc(self) -> float:
        """Sum of per-thread IPC ratios (before LRU normalization)."""
        return weighted_speedup(self.ipcs, self.single_ipcs)

    @property
    def mpki(self) -> float:
        """Shared-LLC misses per kilo-instruction (all cores)."""
        return self.llc_stats.mpki(self.instructions)


class MulticoreSystem:
    """Runs mixes of workloads on the shared-LLC machine."""

    def __init__(self, config: MachineConfig, num_cores: int = 4) -> None:
        if num_cores < 1:
            raise ValueError(f"num_cores must be >= 1, got {num_cores}")
        self.config = config
        self.num_cores = num_cores
        self._filter = HierarchyFilter(config)
        self._core = CoreModel(config)

    # ------------------------------------------------------------------
    @property
    def shared_geometry(self) -> CacheGeometry:
        return self.config.shared_llc(self.num_cores)

    def prepare(self, name: str, traces: Sequence[Trace]) -> PreparedMix:
        """Filter each core's trace, compute solo baselines, merge streams."""
        if len(traces) != self.num_cores:
            raise ValueError(
                f"mix has {len(traces)} traces for {self.num_cores} cores"
            )
        filtered = [self._filter.filter(trace) for trace in traces]
        single_ipcs = [self._solo_ipc(ft) for ft in filtered]
        merged, positions = self._merge(filtered, single_ipcs)
        return PreparedMix(
            name=name,
            filtered=filtered,
            single_ipcs=single_ipcs,
            merged=merged,
            per_core_positions=positions,
        )

    def _solo_ipc(self, filtered: FilteredTrace) -> float:
        """IPC of one program alone with the full shared LLC under LRU."""
        geometry = self.shared_geometry
        stream = filtered.llc_stream(geometry)
        cache = Cache(geometry, LRUPolicy(), name="LLC-solo")
        hits = replay(cache, stream)
        return self._core.run(filtered, hits).ipc

    def _merge(
        self, filtered: List[FilteredTrace], single_ipcs: List[float]
    ) -> Tuple[PreparedStream, List[List[int]]]:
        """Merge per-core LLC streams by estimated arrival cycle.

        A core's LLC access at trace record ``i`` arrives at its
        instruction position (the prefix sum of ``gap + 1`` through
        ``i``) divided by the core's solo IPC.  Merging on
        ``(cycle, core, cursor)`` breaks cycle ties by core, then keeps
        each core's own stream order.
        """
        keyed = []
        for core, ft in enumerate(filtered):
            ipc = max(single_ipcs[core], 1e-6)
            # Instruction position through record ``i`` is the gap prefix
            # sum plus the ``i + 1`` memory operations themselves.
            gap_sums = list(accumulate(ft.trace.gaps))
            keyed.append(
                [
                    ((gap_sums[index] + index + 1) / ipc, core, cursor)
                    for cursor, index in enumerate(ft.llc_indices)
                ]
            )
        columns = [ft.llc_arrays() for ft in filtered]
        pcs: List[int] = []
        addresses: List[int] = []
        writes: List[bool] = []
        cores: List[int] = []
        positions: List[List[int]] = [[] for _ in filtered]
        for seq, (_, core, cursor) in enumerate(heap_merge(*keyed)):
            core_pcs, core_addresses, core_writes = columns[core]
            pcs.append(core_pcs[cursor])
            addresses.append(core_addresses[cursor] + (core << CORE_ADDRESS_SHIFT))
            writes.append(core_writes[cursor])
            cores.append(core)
            positions[core].append(seq)
        set_indices, tags = decompose(addresses, self.shared_geometry)
        return (
            PreparedStream(addresses, pcs, writes, set_indices, tags, cores),
            positions,
        )

    # ------------------------------------------------------------------
    def run(
        self,
        prepared: PreparedMix,
        policy_factory: SharedPolicyFactory,
        technique_name: str = "unnamed",
    ) -> MulticoreResult:
        """Replay the merged stream on a shared LLC; time each core."""
        geometry = self.shared_geometry
        policy = policy_factory(geometry, prepared.merged, self.num_cores)
        cache = Cache(geometry, policy, name="sharedLLC")
        hits = replay(cache, prepared.merged)
        ipcs = []
        for core, ft in enumerate(prepared.filtered):
            core_hits = [hits[position] for position in prepared.per_core_positions[core]]
            ipcs.append(self._core.run(ft, core_hits).ipc)
        return MulticoreResult(
            mix=prepared.name,
            technique=technique_name,
            ipcs=ipcs,
            single_ipcs=prepared.single_ipcs,
            llc_stats=cache.stats,
            instructions=sum(ft.instructions for ft in prepared.filtered),
            kernel=cache.last_replay_kernel,
            kernel_fallback=cache.last_replay_fallback,
        )
