"""repro: a reproduction of *Sampling Dead Block Prediction for Last-Level
Caches* (Khan, Tian, Jimenez -- MICRO-43, 2010).

The package implements the paper's sampling dead block predictor and the
dead-block replacement-and-bypass optimization it drives, together with
every substrate the paper's evaluation needs: a three-level cache
hierarchy with trace-driven simulation, an out-of-order timing model, the
baseline predictors (reftrace, counting/LvP) and policies (DIP, TADIP,
RRIP, Belady-optimal-with-bypass), synthetic SPEC-CPU-2006-like
workloads, and CACTI-like storage/power accounting.

Quick start::

    from repro import (
        Cache, DBRBPolicy, LRUPolicy, MachineConfig,
        SamplingDeadBlockPredictor, SingleCoreSystem, build_trace,
    )

    config = MachineConfig().scaled(8)          # a 256KB-LLC machine
    system = SingleCoreSystem(config)
    trace = build_trace("hmmer", 200_000, config.llc.size_bytes)
    filtered = system.prepare(trace)

    lru = system.run(filtered, lambda g, a: LRUPolicy(), "lru")
    dbrb = system.run(
        filtered,
        lambda g, a: DBRBPolicy(LRUPolicy(), SamplingDeadBlockPredictor()),
        "sampler",
    )
    print(lru.mpki, "->", dbrb.mpki)

See ``examples/`` for runnable scenarios and ``benchmarks/`` for the
scripts that regenerate every table and figure of the paper.
"""

from repro.cache import Cache, CacheAccess, CacheGeometry, CacheStats
from repro.core import (
    DBRBPolicy,
    Sampler,
    SamplingDeadBlockPredictor,
    SkewedCounterTable,
)
from repro.predictors import (
    AIPPredictor,
    BurstFilter,
    CountingPredictor,
    DeadBlockPredictor,
    RefTracePredictor,
    TimeBasedPredictor,
)
from repro.replacement import (
    BIPPolicy,
    DIPPolicy,
    DRRIPPolicy,
    LRUPolicy,
    OptimalPolicy,
    RandomPolicy,
    ReplacementPolicy,
    SRRIPPolicy,
    TreePLRUPolicy,
    annotate_next_use,
)
from repro.sim import (
    CoreModel,
    MachineConfig,
    MulticoreSystem,
    RunResult,
    SingleCoreSystem,
    Trace,
    TraceRecord,
)
from repro.workloads import (
    ALL_BENCHMARKS,
    MIXES,
    SINGLE_THREAD_SUBSET,
    build_mix_traces,
    build_trace,
)

__version__ = "1.0.0"

__all__ = [
    "AIPPredictor",
    "ALL_BENCHMARKS",
    "BIPPolicy",
    "BurstFilter",
    "Cache",
    "CacheAccess",
    "CacheGeometry",
    "CacheStats",
    "CoreModel",
    "CountingPredictor",
    "DBRBPolicy",
    "DIPPolicy",
    "DRRIPPolicy",
    "DeadBlockPredictor",
    "LRUPolicy",
    "MIXES",
    "MachineConfig",
    "MulticoreSystem",
    "OptimalPolicy",
    "RandomPolicy",
    "RefTracePredictor",
    "ReplacementPolicy",
    "RunResult",
    "SINGLE_THREAD_SUBSET",
    "SRRIPPolicy",
    "Sampler",
    "SamplingDeadBlockPredictor",
    "SingleCoreSystem",
    "SkewedCounterTable",
    "TimeBasedPredictor",
    "Trace",
    "TraceRecord",
    "TreePLRUPolicy",
    "annotate_next_use",
    "build_mix_traces",
    "build_trace",
    "__version__",
]
