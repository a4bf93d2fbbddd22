"""Single-core system runs (paper Section VI-A.1).

A run has three phases:

1. **filter** the workload trace through L1D and L2 once (shared by every
   technique evaluated on that workload);
2. **replay** the LLC access stream against a cache built with the policy
   under test, collecting hit/miss outcomes and cache statistics;
3. **time** the full trace with the out-of-order core model to get IPC.

The phases are separable because the LLC policy cannot influence L1/L2
behaviour (no inclusion enforcement, as in the paper's infrastructure), so
one expensive filter pass serves all six techniques of Figure 4.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro.cache.cache import Cache, CacheObserver
from repro.cache.geometry import CacheGeometry
from repro.cache.stats import CacheStats
from repro.replacement.base import ReplacementPolicy
from repro.sim.cpu import CoreModel, CoreTiming
from repro.sim.hierarchy import (
    FilteredTrace,
    HierarchyFilter,
    MachineConfig,
    PreparedStream,
)
from repro.sim.replay import replay
from repro.sim.trace import Trace

__all__ = ["PolicyFactory", "RunResult", "SingleCoreSystem"]

#: A technique is a callable building the LLC policy for a run.  It gets
#: the LLC geometry and the run's prepared LLC stream (so the optimal
#: policy can precompute next-use distances from its address column).
PolicyFactory = Callable[[CacheGeometry, PreparedStream], ReplacementPolicy]


@dataclass
class RunResult:
    """Outcome of one (workload, technique) run.

    The LLC itself and any attached observers are kept so analyses
    (efficiency matrices, accuracy counters) can be read out afterwards.
    """

    workload: str
    technique: str
    instructions: int
    llc_stats: CacheStats
    timing: Optional[CoreTiming]
    llc_hits: List[bool]
    cache: Optional[Cache] = None
    observers: Sequence[CacheObserver] = ()
    #: Replay kernel used for the LLC stream ("array" or "object") and,
    #: for the object kernel, why the array path was not taken.  Strictly
    #: observational (manifests, /stats) -- never part of exported figure
    #: data, which stays bit-identical across kernels.
    kernel: Optional[str] = None
    kernel_fallback: Optional[str] = None
    #: Plain numbers read off an analysis observer (``coverage`` and
    #: ``false_positive_rate``; ``efficiency`` and ``efficiency_matrix``)
    #: by the harness's cell runner, so they survive process boundaries,
    #: checkpoints and the fleet wire, which all drop the observers.
    analysis: Dict[str, object] = field(default_factory=dict)

    @property
    def mpki(self) -> float:
        """LLC misses per kilo-instruction."""
        return self.llc_stats.mpki(self.instructions)

    @property
    def ipc(self) -> float:
        """Instructions per cycle (0.0 when timing was skipped)."""
        return self.timing.ipc if self.timing is not None else 0.0

    def __repr__(self) -> str:
        return (
            f"RunResult({self.workload}/{self.technique}: "
            f"MPKI={self.mpki:.2f}, IPC={self.ipc:.3f})"
        )


class SingleCoreSystem:
    """Runs workloads on the single-core machine."""

    def __init__(self, config: MachineConfig) -> None:
        self.config = config
        self._filter = HierarchyFilter(config)
        self._core = CoreModel(config)

    # ------------------------------------------------------------------
    def prepare(self, trace: Trace) -> FilteredTrace:
        """Phase 1: one-time L1/L2 filtering of a workload trace."""
        return self._filter.filter(trace)

    # ------------------------------------------------------------------
    def run(
        self,
        filtered: FilteredTrace,
        policy_factory: PolicyFactory,
        technique_name: str = "unnamed",
        observer_factories: Sequence[Callable[[Cache], CacheObserver]] = (),
        compute_timing: bool = True,
        llc_geometry: Optional[CacheGeometry] = None,
        probe=None,
    ) -> RunResult:
        """Phases 2 and 3: replay the LLC stream and time the trace.

        Args:
            filtered: the prepared workload.
            policy_factory: builds the LLC replacement policy under test.
            technique_name: label for reports.
            observer_factories: callables building observers for the run's
                cache (efficiency/accuracy analyses); the constructed
                observers are returned on the result.
            compute_timing: set False to skip the core model (the paper
                reports the optimal policy for misses only).
            llc_geometry: override the LLC geometry (multicore sizing).
            probe: optional telemetry probe attached to the LLC (see
                :mod:`repro.telemetry.probe`); strictly observational.
        """
        geometry = llc_geometry or self.config.llc
        stream = filtered.llc_stream(geometry)
        policy = policy_factory(geometry, stream)
        cache = Cache(geometry, policy, name="LLC", probe=probe)
        observers = [factory(cache) for factory in observer_factories]
        for observer in observers:
            cache.add_observer(observer)
        if probe is not None and probe.enabled:
            probe.set_context(
                workload=filtered.name,
                technique=technique_name,
                instructions=filtered.instructions,
                llc_accesses=len(stream),
            )
        llc_hits = replay(cache, stream)
        timing = self._core.run(filtered, llc_hits) if compute_timing else None
        return RunResult(
            workload=filtered.name,
            technique=technique_name,
            instructions=filtered.instructions,
            llc_stats=cache.stats,
            timing=timing,
            llc_hits=llc_hits,
            cache=cache,
            observers=observers,
            kernel=cache.last_replay_kernel,
            kernel_fallback=cache.last_replay_fallback,
        )
