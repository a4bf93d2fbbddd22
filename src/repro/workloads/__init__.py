"""Synthetic SPEC-CPU-2006-like workloads.

The paper evaluates on SimPoint traces of the 29 SPEC CPU 2006 benchmarks
(Table III), with a memory-intensive 19-benchmark subset for the
single-thread figures and ten quad-core mixes (Table IV).  Those traces
are not redistributable, so this package provides *synthetic analogues*:
one generator per benchmark, each reproducing the memory-behaviour
archetype the benchmark is known for -- streaming, pointer chasing,
scan-thrash, hot/cold skew, stencil planes, or unpredictable reference
patterns -- with working sets expressed as multiples of the LLC capacity
and PC-correlated last-touch behaviour (the statistic dead block
predictors live on).

See DESIGN.md Section 4 for why this substitution preserves the paper's
comparisons, and :mod:`repro.workloads.suite` for the per-benchmark
parameterization.
"""

from repro.workloads.base import TraceBuilder, WorkloadGenerator
from repro.workloads.generators import (
    HotColdGenerator,
    MixedPhaseGenerator,
    PointerChaseGenerator,
    ScanReuseGenerator,
    SmallFootprintGenerator,
    StencilGenerator,
    StreamingGenerator,
    ThrashGenerator,
    UnpredictableGenerator,
)
from repro.workloads.mixes import MIX_NAMES, MIXES, mix_cores, mix_members
from repro.workloads.patterns import (
    PATTERN_FAMILIES,
    BurstyPattern,
    ComposedPattern,
    HotspotPattern,
    PatternWorkload,
    SequentialPattern,
    UniformRandomPattern,
    WorkloadSpecError,
    ZipfianPattern,
    compose,
    parse_workload_spec,
    register_pattern_family,
)
from repro.workloads.replay import (
    TraceLibrary,
    TraceReplayWorkload,
    default_trace_library,
    trace_content_digest,
)
from repro.workloads.suite import (
    ALL_BENCHMARKS,
    SINGLE_THREAD_SUBSET,
    UnknownWorkloadError,
    build_trace,
    generator_for,
    resolve_workload,
    validate_workloads,
    workload_spec,
    workload_spec_digest,
)

__all__ = [
    "ALL_BENCHMARKS",
    "BurstyPattern",
    "ComposedPattern",
    "HotColdGenerator",
    "HotspotPattern",
    "MIXES",
    "MIX_NAMES",
    "MixedPhaseGenerator",
    "PATTERN_FAMILIES",
    "PatternWorkload",
    "PointerChaseGenerator",
    "SINGLE_THREAD_SUBSET",
    "ScanReuseGenerator",
    "SequentialPattern",
    "SmallFootprintGenerator",
    "StencilGenerator",
    "StreamingGenerator",
    "ThrashGenerator",
    "TraceBuilder",
    "TraceLibrary",
    "TraceReplayWorkload",
    "UniformRandomPattern",
    "UnknownWorkloadError",
    "UnpredictableGenerator",
    "WorkloadGenerator",
    "WorkloadSpecError",
    "ZipfianPattern",
    "build_trace",
    "compose",
    "default_trace_library",
    "generator_for",
    "mix_cores",
    "mix_members",
    "parse_workload_spec",
    "register_pattern_family",
    "resolve_workload",
    "trace_content_digest",
    "validate_workloads",
    "workload_spec",
    "workload_spec_digest",
]
