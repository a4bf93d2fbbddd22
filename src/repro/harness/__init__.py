"""Experiment harness: technique registry and figure/table regeneration.

* :mod:`repro.harness.techniques` -- the named cache-management techniques
  of the paper's Table V, each buildable against any LLC geometry.
* :mod:`repro.harness.runner` -- experiment configuration (machine scale,
  instruction budgets, seeds; overridable via ``REPRO_*`` environment
  variables) and workload caching so one L1/L2 filtering pass serves all
  techniques.
* :mod:`repro.harness.experiments` -- one function per paper experiment
  (Figures 1, 4-10; Tables I-IV), returning structured results.
* :mod:`repro.harness.parallel` -- the one cell runner and sweep driver
  every figure goes through: process-parallel fan-out (``REPRO_JOBS``),
  bit-identical to serial runs, with checkpoints and run manifests.
* :mod:`repro.harness.checkpoint` -- content-addressed on-disk store of
  completed sweep cells (``REPRO_CHECKPOINT_DIR``), enabling
  resume-after-interruption.
* :mod:`repro.harness.faults` -- per-cell timeout/retry supervision,
  graceful serial degradation, the failure taxonomy, and the
  fault-injection test hook (see docs/robustness.md).
* :mod:`repro.harness.tables` -- plain-text rendering used by the
  benchmark scripts to print paper-style tables.

Observability (progress events, run manifests, interval time series)
lives in :mod:`repro.telemetry` and plugs into the parallel runner via
``events_file`` / ``progress`` / ``manifest_path`` (see
docs/observability.md).
"""

from repro.harness.checkpoint import CheckpointStore, resolve_checkpoint_dir
from repro.harness.experiments import (
    AccuracyResult,
    EfficiencyResult,
    LoadSimComparison,
    MulticoreComparison,
    PatternSweepResult,
    SingleThreadComparison,
    TimeseriesResult,
    ablation_experiment,
    accuracy_experiment,
    characterization_table,
    efficiency_experiment,
    loadsim_experiment,
    multicore_comparison,
    pattern_axis,
    pattern_sweep_experiment,
    single_thread_comparison,
    timeseries_experiment,
    zipf_skew_axis,
)
from repro.harness.faults import (
    CellCrashed,
    CellError,
    CellTimeout,
    FaultPolicy,
    SweepAborted,
)
from repro.harness.parallel import (
    parallel_single_thread_comparison,
    resolve_jobs,
)
from repro.harness.runner import ExperimentConfig, WorkloadCache
from repro.harness.tables import format_table
from repro.harness.techniques import (
    MULTICORE_LRU_TECHNIQUES,
    MULTICORE_RANDOM_TECHNIQUES,
    RANDOM_DEFAULT_TECHNIQUES,
    SINGLE_THREAD_TECHNIQUES,
    TECHNIQUES,
    Technique,
    UnknownTechniqueError,
    resolve_technique,
    validate_techniques,
)

__all__ = [
    "AccuracyResult",
    "CellCrashed",
    "CellError",
    "CellTimeout",
    "CheckpointStore",
    "EfficiencyResult",
    "ExperimentConfig",
    "FaultPolicy",
    "LoadSimComparison",
    "MULTICORE_LRU_TECHNIQUES",
    "MULTICORE_RANDOM_TECHNIQUES",
    "MulticoreComparison",
    "PatternSweepResult",
    "RANDOM_DEFAULT_TECHNIQUES",
    "SINGLE_THREAD_TECHNIQUES",
    "SingleThreadComparison",
    "SweepAborted",
    "TECHNIQUES",
    "Technique",
    "TimeseriesResult",
    "UnknownTechniqueError",
    "WorkloadCache",
    "ablation_experiment",
    "accuracy_experiment",
    "characterization_table",
    "efficiency_experiment",
    "format_table",
    "loadsim_experiment",
    "multicore_comparison",
    "parallel_single_thread_comparison",
    "pattern_axis",
    "pattern_sweep_experiment",
    "resolve_checkpoint_dir",
    "resolve_jobs",
    "resolve_technique",
    "single_thread_comparison",
    "timeseries_experiment",
    "validate_techniques",
    "zipf_skew_axis",
]
