"""One function per paper experiment.

Each function takes a :class:`~repro.harness.runner.WorkloadCache` (which
carries the machine and memoized workloads) and returns a structured
result object the benchmark scripts render.  Mapping to the paper:

==============================  =========================================
Function                        Paper experiment
==============================  =========================================
:func:`single_thread_comparison`  Figures 4/5 (LRU default) and 7/8
                                  (random default), depending on the
                                  technique list passed
:func:`ablation_experiment`       Figure 6 (component contributions)
:func:`accuracy_experiment`       Figure 9 (coverage / false positives)
:func:`efficiency_experiment`     Figure 1 (cache efficiency greyscale)
:func:`multicore_comparison`      Figure 10(a)/(b)
:func:`characterization_table`    Table III
==============================  =========================================

Every one of them, and :func:`pattern_sweep_experiment`, is a list of
(workload, scheme) cells plus a reducer: the cells run through
:func:`repro.harness.parallel.sweep`, so each figure honours
``REPRO_JOBS``, ``REPRO_CHECKPOINT_DIR`` and ``REPRO_EVENTS_FILE`` /
``REPRO_MANIFEST`` the way the CLI sweep does, and is bit-identical
whatever the job count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.analysis.accuracy import AccuracyObserver
from repro.harness.faults import Cell, CellError
from repro.harness.parallel import parallel_single_thread_comparison, sweep
from repro.harness.runner import WorkloadCache
from repro.harness.techniques import TECHNIQUES, Scheme
from repro.sim.metrics import geometric_mean
from repro.sim.multicore import MulticoreResult
from repro.sim.system import RunResult
from repro.telemetry.probe import IntervalRecorder
from repro.workloads import MIX_NAMES, SINGLE_THREAD_SUBSET
from repro.workloads.suite import ALL_BENCHMARKS, SINGLE_THREAD_SUBSET as _SUBSET

if TYPE_CHECKING:  # imported lazily at runtime (heavy subsystem)
    from repro.loadsim.sim import LoadScenario, LoadSimResult

__all__ = [
    "AccuracyResult",
    "EfficiencyResult",
    "LoadSimComparison",
    "MulticoreComparison",
    "PatternSweepResult",
    "SingleThreadComparison",
    "TimeseriesResult",
    "ablation_experiment",
    "accuracy_experiment",
    "characterization_table",
    "comparison_cells",
    "efficiency_experiment",
    "loadsim_experiment",
    "multicore_comparison",
    "pattern_axis",
    "pattern_sweep_experiment",
    "single_thread_comparison",
    "timeseries_experiment",
    "zipf_skew_axis",
]


def comparison_cells(workloads: Sequence[str], schemes: Sequence) -> List[Cell]:
    """The workload x (LRU baseline + schemes) grid, baseline first per
    workload: the cells of Figures 4-8 and 10, Table III and the pattern
    sweep, and of the experiment service's sweep jobs."""
    return [(workload, scheme) for workload in workloads for scheme in (None, *schemes)]


def _grid(workloads: Sequence[str], keys: Sequence[str], runs: Mapping[Cell, object]):
    """Split ``runs`` into the per-workload baseline and per-technique
    maps; cells missing from ``runs`` (failed in a partial sweep) are
    left out."""
    baseline = {w: runs[(w, None)] for w in workloads if (w, None) in runs}
    results = {
        w: {key: runs[(w, key)] for key in keys if (w, key) in runs}
        for w in workloads
    }
    return baseline, results


# ----------------------------------------------------------------------
# Figures 4, 5, 7, 8: single-thread technique comparisons
# ----------------------------------------------------------------------
@dataclass
class SingleThreadComparison:
    """Baseline-LRU-normalized results for a set of techniques.

    ``failures`` is empty for a complete sweep; a *partial* sweep (see
    ``allow_partial`` on the fault-tolerant runner in
    :mod:`repro.harness.parallel`) lists the unrecovered cells there,
    and the per-cell accessors raise ``KeyError`` for those cells.
    """

    benchmarks: Tuple[str, ...]
    technique_keys: Tuple[str, ...]
    baseline: Dict[str, RunResult]
    results: Dict[str, Dict[str, RunResult]]
    failures: Tuple[CellError, ...] = ()

    @property
    def is_partial(self) -> bool:
        """True when at least one cell failed unrecoverably."""
        return bool(self.failures)

    @classmethod
    def from_cells(
        cls,
        benchmarks: Sequence[str],
        technique_keys: Sequence[str],
        runs: Mapping[Cell, RunResult],
        failures: Sequence[CellError] = (),
    ) -> "SingleThreadComparison":
        """Assemble the :func:`comparison_cells` grid's results."""
        baseline, results = _grid(benchmarks, technique_keys, runs)
        return cls(
            benchmarks=tuple(benchmarks),
            technique_keys=tuple(technique_keys),
            baseline=baseline,
            results=results,
            failures=tuple(failures),
        )

    def failure_report(self) -> str:
        """Human-readable summary of the failed cells ("" when complete)."""
        if not self.failures:
            return ""
        total = len(self.benchmarks) * (len(self.technique_keys) + 1)
        lines = [
            f"partial sweep: {len(self.failures)} of {total} cells failed"
        ]
        lines.extend(f"  - {failure}" for failure in self.failures)
        return "\n".join(lines)

    def normalized_mpki(self, benchmark: str, technique: str) -> float:
        """Misses normalized to the LRU baseline (Figure 4/7 y-axis)."""
        base = self.baseline[benchmark].llc_stats.misses
        if base == 0:
            return 1.0
        return self.results[benchmark][technique].llc_stats.misses / base

    def speedup(self, benchmark: str, technique: str) -> float:
        """IPC over LRU IPC (Figure 5/8 y-axis)."""
        base = self.baseline[benchmark].ipc
        ipc = self.results[benchmark][technique].ipc
        if base <= 0 or ipc <= 0:
            return 1.0
        return ipc / base

    def mpki_amean(self, technique: str) -> float:
        """Arithmetic mean of normalized MPKI (the paper's 'amean' bar)."""
        values = [
            self.normalized_mpki(benchmark, technique)
            for benchmark in self.benchmarks
        ]
        return sum(values) / len(values)

    def speedup_gmean(self, technique: str) -> float:
        """Geometric mean speedup (the paper's 'gmean' bar)."""
        return geometric_mean(
            [self.speedup(benchmark, technique) for benchmark in self.benchmarks]
        )

    def mpki_rows(self) -> List[List]:
        """Figure 4/7 as table rows: one per benchmark plus the amean."""
        rows = []
        for benchmark in self.benchmarks:
            rows.append(
                [benchmark]
                + [self.normalized_mpki(benchmark, key) for key in self.technique_keys]
            )
        rows.append(["amean"] + [self.mpki_amean(key) for key in self.technique_keys])
        return rows

    def speedup_rows(self, technique_keys: Optional[Sequence[str]] = None) -> List[List]:
        """Figure 5/8 as table rows: one per benchmark plus the gmean."""
        keys = tuple(technique_keys or self.technique_keys)
        rows = []
        for benchmark in self.benchmarks:
            rows.append(
                [benchmark] + [self.speedup(benchmark, key) for key in keys]
            )
        rows.append(["gmean"] + [self.speedup_gmean(key) for key in keys])
        return rows


def single_thread_comparison(
    cache: WorkloadCache,
    technique_keys: Sequence[str],
    benchmarks: Sequence[str] = SINGLE_THREAD_SUBSET,
) -> SingleThreadComparison:
    """Run every (benchmark, technique) pair plus the LRU baseline: the
    same code path as
    :func:`~repro.harness.parallel.parallel_single_thread_comparison`,
    with every knob left to the environment."""
    return parallel_single_thread_comparison(cache, technique_keys, benchmarks)


# ----------------------------------------------------------------------
# Figure 6: component ablation
# ----------------------------------------------------------------------
#: The paper's six feasible component combinations, in Figure 6's order,
#: with the paper's reported speedups for reference.  Each names the
#: ``SamplingDeadBlockPredictor`` arguments it changes; the last row is
#: the predictor's defaults (``sampler_assoc=12``, sampler and skewed
#: tables on), so it runs as the plain ``sampler`` cell.
ABLATION_VARIANTS: Tuple[Tuple[str, dict, float], ...] = (
    ("DBRB alone", dict(use_sampler=False, skewed=False), 1.034),
    ("DBRB+3 tables", dict(use_sampler=False, skewed=True), 1.023),
    ("DBRB+sampler", dict(use_sampler=True, skewed=False, sampler_assoc=16), 1.038),
    (
        "DBRB+sampler+3 tables",
        dict(use_sampler=True, skewed=True, sampler_assoc=16),
        1.040,
    ),
    (
        "DBRB+sampler+12-way",
        dict(use_sampler=True, skewed=False, sampler_assoc=12),
        1.056,
    ),
    ("DBRB+sampler+3 tables+12-way", dict(), 1.059),
)


def ablation_experiment(
    cache: WorkloadCache,
    benchmarks: Sequence[str] = SINGLE_THREAD_SUBSET,
) -> List[Tuple[str, float, float]]:
    """Figure 6: gmean speedup of each predictor-component combination.

    Returns ``(variant label, measured gmean speedup, paper's value)``
    triples in the paper's presentation order.
    """
    schemes = [
        Scheme("sampler", shape=tuple(sorted(shape.items()))) if shape else "sampler"
        for _, shape, _ in ABLATION_VARIANTS
    ]
    runs, _ = sweep(cache, comparison_cells(benchmarks, schemes), command="figure6")
    rows = []
    for (label, _, paper), scheme in zip(ABLATION_VARIANTS, schemes):
        speedups = []
        for benchmark in benchmarks:
            base, result = runs[(benchmark, None)], runs[(benchmark, scheme)]
            if base.ipc > 0 and result.ipc > 0:
                speedups.append(result.ipc / base.ipc)
        rows.append((label, geometric_mean(speedups), paper))
    return rows


# ----------------------------------------------------------------------
# Figure 9: coverage and false positives
# ----------------------------------------------------------------------
@dataclass
class AccuracyResult:
    """Coverage / false-positive rates per predictor per benchmark."""

    predictors: Tuple[str, ...]
    coverage: Dict[str, Dict[str, float]]          # predictor -> bench -> value
    false_positive: Dict[str, Dict[str, float]]

    def mean_coverage(self, predictor: str) -> float:
        values = self.coverage[predictor].values()
        return sum(values) / len(values)

    def mean_false_positive(self, predictor: str) -> float:
        values = self.false_positive[predictor].values()
        return sum(values) / len(values)


#: Figure 9's predictors, each measured through its DBRB technique.
_ACCURACY_TECHNIQUES = {"reftrace": "tdbp", "counting": "cdbp", "sampler": "sampler"}


def accuracy_experiment(
    cache: WorkloadCache,
    benchmarks: Sequence[str] = SINGLE_THREAD_SUBSET,
) -> AccuracyResult:
    """Figure 9: per-predictor coverage and false-positive rate, measured
    on the DBRB policy with a default LRU cache."""
    schemes = {
        name: Scheme(key, "accuracy") for name, key in _ACCURACY_TECHNIQUES.items()
    }
    cells = [
        (benchmark, scheme)
        for benchmark in benchmarks
        for scheme in schemes.values()
    ]
    runs, _ = sweep(cache, cells, command="figure9")

    def per_benchmark(name: str, number: str) -> Dict[str, float]:
        return {b: runs[(b, schemes[name])].analysis[number] for b in benchmarks}

    return AccuracyResult(
        predictors=tuple(schemes),
        coverage={name: per_benchmark(name, "coverage") for name in schemes},
        false_positive={
            name: per_benchmark(name, "false_positive_rate") for name in schemes
        },
    )


# ----------------------------------------------------------------------
# Pattern-parameter sweeps (beyond the paper: the workload space axis)
# ----------------------------------------------------------------------
@dataclass
class PatternSweepResult:
    """DBRB behaviour along one workload-parameter axis.

    For every workload spec on the axis: the LRU baseline miss rate
    (DBRB off), the sampler-DBRB miss rate (DBRB on), and the sampler's
    prediction coverage and false-positive rate.  ``rows()`` renders in
    axis order for the report table.
    """

    specs: Tuple[str, ...]
    lru_miss_rate: Dict[str, float]
    dbrb_miss_rate: Dict[str, float]
    coverage: Dict[str, float]
    false_positive: Dict[str, float]

    def normalized_misses(self, spec: str) -> float:
        """DBRB misses relative to LRU (< 1.0 means DBRB helps)."""
        base = self.lru_miss_rate[spec]
        return self.dbrb_miss_rate[spec] / base if base > 0 else 0.0

    def rows(self) -> List[List[str]]:
        rows = [
            ["workload", "LRU miss", "DBRB miss", "norm. misses",
             "coverage", "false pos"]
        ]
        for spec in self.specs:
            rows.append([
                spec,
                f"{self.lru_miss_rate[spec]:.4f}",
                f"{self.dbrb_miss_rate[spec]:.4f}",
                f"{self.normalized_misses(spec):.3f}",
                f"{self.coverage[spec]:.3f}",
                f"{self.false_positive[spec]:.3f}",
            ])
        return rows


def _axis_value(value) -> str:
    if isinstance(value, float):
        text = repr(value)
        return text[:-2] if text.endswith(".0") else text
    return str(value)


def pattern_axis(
    family: str,
    param: str,
    values: Sequence,
    base: str = "",
) -> List[str]:
    """Spec strings sweeping one parameter of a pattern family.

    ``base`` carries fixed parameters (``"footprint=2,gap=2"``); the
    swept parameter is appended per value.
    """
    prefix = f"{base}," if base else ""
    return [f"{family}({prefix}{param}={_axis_value(v)})" for v in values]


def zipf_skew_axis(values: Sequence[float] = (0.6, 0.9, 1.2, 1.5)) -> List[str]:
    """The default report axis: Zipfian skew from near-uniform to hot."""
    return pattern_axis("zipf", "a", values)


def pattern_sweep_experiment(
    cache: WorkloadCache,
    specs: Sequence[str],
) -> PatternSweepResult:
    """Miss rate / coverage / false positives along a workload axis.

    Runs each spec as the LRU baseline cell (DBRB off) and under
    sampler-driven DBRB with an accuracy observer (DBRB on).  Any
    workload name resolvable by :func:`repro.workloads.build_trace`
    works -- pattern specs, trace replays, or suite benchmarks.
    """
    dbrb = Scheme("sampler", "accuracy")
    runs, _ = sweep(cache, comparison_cells(specs, (dbrb,)), command="pattern-sweep")
    return PatternSweepResult(
        specs=tuple(specs),
        lru_miss_rate={s: runs[(s, None)].llc_stats.miss_rate for s in specs},
        dbrb_miss_rate={s: runs[(s, dbrb)].llc_stats.miss_rate for s in specs},
        coverage={s: runs[(s, dbrb)].analysis["coverage"] for s in specs},
        false_positive={
            s: runs[(s, dbrb)].analysis["false_positive_rate"] for s in specs
        },
    )


# ----------------------------------------------------------------------
# Figure 1: cache efficiency
# ----------------------------------------------------------------------
@dataclass
class EfficiencyResult:
    """Efficiency of the baseline vs the sampler-optimized cache."""

    benchmark: str
    lru_efficiency: float
    sampler_efficiency: float
    lru_matrix: List[List[float]]
    sampler_matrix: List[List[float]]


def efficiency_experiment(
    cache: WorkloadCache, benchmark: str = "hmmer"
) -> EfficiencyResult:
    """Figure 1: live-time ratio under LRU vs sampler-driven DBRB.

    The paper uses 456.hmmer on a 1MB LRU cache (22% -> 87%); we use the
    synthetic hmmer analogue on the configured machine.
    """
    lru, sampler = Scheme("lru", "efficiency"), Scheme("sampler", "efficiency")
    runs, _ = sweep(cache, [(benchmark, lru), (benchmark, sampler)], command="figure1")
    lru_numbers = runs[(benchmark, lru)].analysis
    sampler_numbers = runs[(benchmark, sampler)].analysis
    return EfficiencyResult(
        benchmark=benchmark,
        lru_efficiency=lru_numbers["efficiency"],
        sampler_efficiency=sampler_numbers["efficiency"],
        lru_matrix=lru_numbers["efficiency_matrix"],
        sampler_matrix=sampler_numbers["efficiency_matrix"],
    )


# ----------------------------------------------------------------------
# Figure 10: multicore
# ----------------------------------------------------------------------
@dataclass
class MulticoreComparison:
    """Normalized weighted speedups for shared-LLC techniques."""

    mixes: Tuple[str, ...]
    technique_keys: Tuple[str, ...]
    baseline: Dict[str, MulticoreResult]
    results: Dict[str, Dict[str, MulticoreResult]]

    def normalized_weighted_speedup(self, mix: str, technique: str) -> float:
        """Figure 10's y-axis: weighted IPC over the shared-LRU run's."""
        return (
            self.results[mix][technique].weighted_ipc
            / self.baseline[mix].weighted_ipc
        )

    def normalized_mpki(self, mix: str, technique: str) -> float:
        base = self.baseline[mix].llc_stats.misses
        if base == 0:
            return 1.0
        return self.results[mix][technique].llc_stats.misses / base

    def speedup_gmean(self, technique: str) -> float:
        return geometric_mean(
            [self.normalized_weighted_speedup(mix, technique) for mix in self.mixes]
        )

    def mpki_amean(self, technique: str) -> float:
        values = [self.normalized_mpki(mix, technique) for mix in self.mixes]
        return sum(values) / len(values)

    def speedup_rows(self) -> List[List]:
        rows = []
        for mix in self.mixes:
            rows.append(
                [mix]
                + [
                    self.normalized_weighted_speedup(mix, key)
                    for key in self.technique_keys
                ]
            )
        rows.append(
            ["gmean"] + [self.speedup_gmean(key) for key in self.technique_keys]
        )
        return rows


def multicore_comparison(
    cache: WorkloadCache,
    technique_keys: Sequence[str],
    mixes: Sequence[str] = MIX_NAMES,
) -> MulticoreComparison:
    """Figure 10: run each mix on the shared LLC under each technique."""
    runs, _ = sweep(cache, comparison_cells(mixes, technique_keys), command="figure10")
    baseline, results = _grid(mixes, technique_keys, runs)
    return MulticoreComparison(
        mixes=tuple(mixes),
        technique_keys=tuple(technique_keys),
        baseline=baseline,
        results=results,
    )


# ----------------------------------------------------------------------
# Telemetry: per-epoch phase behaviour of one (benchmark, technique) run
# ----------------------------------------------------------------------
@dataclass
class TimeseriesResult:
    """One run's per-epoch time series (the ``repro telemetry`` payload).

    ``recorder`` holds the :class:`~repro.telemetry.probe.IntervalSample`
    rows and run context; ``run`` is the ordinary
    :class:`~repro.sim.system.RunResult` the same replay produced --
    telemetry is observational, so the aggregate numbers here match a
    probe-less run of the same cell exactly.
    """

    benchmark: str
    technique_key: str
    recorder: IntervalRecorder
    run: RunResult

    @property
    def samples(self):
        return self.recorder.samples


def timeseries_experiment(
    cache: WorkloadCache,
    benchmark: str,
    technique_key: str = "sampler",
    epochs: int = 32,
    accuracy: bool = True,
) -> TimeseriesResult:
    """Replay one (benchmark, technique) cell with an interval recorder.

    Args:
        cache: workload cache carrying the machine configuration.
        benchmark: workload to replay.
        technique_key: technique registry key (default: the paper's
            sampler-driven DBRB).
        epochs: target number of epochs across the LLC stream.
        accuracy: attach an
            :class:`~repro.analysis.accuracy.AccuracyObserver` so the
            series includes per-epoch prediction coverage and
            false-positive rate (the ground truth needs per-event
            observation).

    The recorder is an enabled probe, so the replay always declines the
    array kernel (fallback ``probe``) and runs the ``Cache.access``
    reference loop one epoch at a time, with or without ``accuracy``.
    The miss-rate/MPKI/bypass and component-gauge series need no
    observer; ``accuracy`` only adds the observer's per-event cost.
    """
    if technique_key not in TECHNIQUES:
        raise ValueError(
            f"unknown technique {technique_key!r} (valid: {', '.join(TECHNIQUES)})"
        )
    technique = TECHNIQUES[technique_key]
    recorder = IntervalRecorder(epochs=epochs)
    filtered = cache.filtered(benchmark)
    run = cache.system.run(
        filtered,
        lambda g, s: technique.build(g, s),
        technique_name=technique_key,
        observer_factories=[AccuracyObserver] if accuracy else (),
        compute_timing=False,
        probe=recorder,
    )
    return TimeseriesResult(
        benchmark=benchmark,
        technique_key=technique_key,
        recorder=recorder,
        run=run,
    )


# ----------------------------------------------------------------------
# Table III: benchmark characterization
# ----------------------------------------------------------------------
def characterization_table(
    cache: WorkloadCache,
    benchmarks: Sequence[str] = ALL_BENCHMARKS,
) -> List[List]:
    """Table III rows: benchmark, MPKI (LRU), MPKI (MIN), IPC (LRU), and
    subset membership (the paper's boldface)."""
    runs, _ = sweep(cache, comparison_cells(benchmarks, ("optimal",)), command="table3")
    rows = []
    for benchmark in benchmarks:
        lru, optimal = runs[(benchmark, None)], runs[(benchmark, "optimal")]
        rows.append(
            [
                benchmark,
                lru.mpki,
                optimal.mpki,
                lru.ipc,
                "yes" if benchmark in _SUBSET else "",
            ]
        )
    return rows


# ----------------------------------------------------------------------
# Service-level latency under load (beyond the paper; docs/loadsim.md)
# ----------------------------------------------------------------------
@dataclass
class LoadSimComparison:
    """One load scenario simulated under several LLC techniques.

    Every technique sees the *same* arrival streams and the same LLC
    access interleaving (the open-loop determinism contract of
    :mod:`repro.loadsim`), so latency deltas between rows are
    attributable to the replacement policy alone.  ``results`` maps
    technique key to its :class:`~repro.loadsim.sim.LoadSimResult`.
    """

    scenario: str
    technique_keys: Tuple[str, ...]
    results: Dict[str, "LoadSimResult"]

    def rows(self) -> List[List[str]]:
        """The report table: latency distribution per technique."""
        rows = [
            ["technique", "p50", "p95", "p99", "mean",
             "req/kcycle", "LLC miss", "fairness"]
        ]
        for key in self.technique_keys:
            result = self.results[key]
            rows.append([
                key,
                f"{result.p50:.0f}",
                f"{result.p95:.0f}",
                f"{result.p99:.0f}",
                f"{result.mean_latency:.0f}",
                f"{result.throughput:.3f}",
                f"{result.llc_stats.miss_rate:.4f}",
                f"{result.fairness:.3f}",
            ])
        return rows

    def tenant_rows(self) -> List[List[str]]:
        """Per-tenant MPKI / mean latency, techniques side by side."""
        header = ["tenant"]
        for key in self.technique_keys:
            header.extend([f"{key} MPKI", f"{key} mean lat"])
        rows = [header]
        first = self.results[self.technique_keys[0]]
        for index, report in enumerate(first.tenants):
            row = [f"{index}: {report.workload} @ {report.arrival}"]
            for key in self.technique_keys:
                tenant = self.results[key].tenants[index]
                row.extend([f"{tenant.mpki:.2f}", f"{tenant.mean_latency:.0f}"])
            rows.append(row)
        return rows


def loadsim_experiment(
    cache: WorkloadCache,
    scenario: "LoadScenario",
    technique_keys: Sequence[str] = ("sampler", "lru"),
) -> LoadSimComparison:
    """Simulate one load scenario under each technique (docs/loadsim.md).

    Tenant preparation (trace generation, L1/L2 filtering, request
    tables, the arrival schedule) is shared across techniques; the
    simulation itself is re-run per technique against a fresh LLC.
    """
    from repro.loadsim.sim import prepare_scenario

    prepared = prepare_scenario(cache, scenario)
    results: Dict[str, "LoadSimResult"] = {}
    for key in technique_keys:
        results[key] = prepared.run(key)
    return LoadSimComparison(
        scenario=scenario.describe(),
        technique_keys=tuple(technique_keys),
        results=results,
    )
