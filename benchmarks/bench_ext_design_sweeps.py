"""Extension benches: the design-space claims the paper states in prose.

These are not figures in the paper, but each corresponds to a specific
quantitative claim in the text, so we regenerate the evidence:

* Section III-A: "32 sets provide a good trade-off between accuracy and
  efficiency" -- sweep the sampler set count.
* Section III-E: "a threshold of eight gives the best accuracy" -- sweep
  the skewed-table confidence threshold.
* Section III-B: a 12-way sampler "offers better prediction accuracy
  than a 16-way sampler" -- sweep sampler associativity.
* Section II-A.3: cache bursts "offer little advantage for higher level
  caches, since most bursts are filtered out by the L1" -- measure the
  burst-length collapse at the LLC versus an unfiltered L1-level stream.
"""

from repro.core import DBRBPolicy
from repro.harness import format_table
from repro.harness.experiments import shape_sweep_experiment
from repro.predictors import BurstFilter, RefTracePredictor
from repro.replacement import LRUPolicy

SWEEP_BENCHMARKS = ("hmmer", "libquantum", "soplex", "zeusmp", "astar")


def _sweep(workload_cache, argument, values):
    """``(value, gmean speedup)`` rows: one predictor argument's sweep."""
    shapes = [{argument: value} for value in values]
    return list(zip(values, shape_sweep_experiment(workload_cache, shapes, SWEEP_BENCHMARKS)))


def test_ext_sampler_set_sweep(benchmark, workload_cache, report):
    """Sampler set count: accuracy saturates around the paper's 32."""
    set_counts = (4, 8, 16, 32, 64)

    def run():
        return _sweep(workload_cache, "sampler_sets", set_counts)

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    text = format_table(
        ["sampler sets", "gmean speedup"],
        rows,
        title="Extension: sampler set count sweep (paper SIII-A: 32 suffices)",
    )
    report("ext_sampler_sets", text)
    by_sets = dict(rows)
    # The paper's claim: a handful of sets already generalizes; going from
    # 32 to 64 buys little.
    assert by_sets[32] > 1.0
    assert abs(by_sets[64] - by_sets[32]) < 0.05
    assert by_sets[32] >= by_sets[4] - 0.02


def test_ext_threshold_sweep(benchmark, workload_cache, report):
    """Confidence threshold: too low -> false positives, too high -> no
    coverage; the paper picks 8."""
    thresholds = (2, 4, 6, 8, 9)

    def run():
        return _sweep(workload_cache, "threshold", thresholds)

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    text = format_table(
        ["threshold", "gmean speedup"],
        rows,
        title="Extension: dead-confidence threshold sweep (paper SIII-E: 8)",
    )
    report("ext_threshold", text)
    by_threshold = dict(rows)
    best = max(by_threshold.values())
    # 8 must be at (or within noise of) the sweet spot, and must beat the
    # aggressive threshold-2 configuration.
    assert by_threshold[8] >= best - 0.02
    assert by_threshold[8] >= by_threshold[2]


def test_ext_sampler_associativity_sweep(benchmark, workload_cache, report):
    """Sampler associativity around the paper's 12."""
    associativities = (8, 10, 12, 14, 16)

    def run():
        return _sweep(workload_cache, "sampler_assoc", associativities)

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    text = format_table(
        ["sampler ways", "gmean speedup"],
        rows,
        title="Extension: sampler associativity sweep (paper SIII-B: 12)",
    )
    report("ext_sampler_assoc", text)
    by_assoc = dict(rows)
    # 12 ways performs within noise of the best configuration (the paper's
    # 12-vs-16 edge is second-order; see EXPERIMENTS.md).
    assert by_assoc[12] >= max(by_assoc.values()) - 0.03


def test_ext_bursts_filtered_at_llc(benchmark, workload_cache, report):
    """Cache bursts at the LLC: the L1/L2 have already absorbed the
    repeated touches, so bursts degenerate to single accesses and the
    filter saves almost no predictor traffic (paper SII-A.3)."""

    def run():
        rows = []
        for name in ("hmmer", "libquantum", "omnetpp"):
            filtered = workload_cache.filtered(name)
            predictor = BurstFilter(RefTracePredictor())
            workload_cache.system.run(
                filtered,
                lambda g, a, p=predictor: DBRBPolicy(LRUPolicy(), p),
                "bursts",
                compute_timing=False,
            )
            raw = predictor.raw_events
            bursts = predictor.burst_events
            rows.append([name, raw, bursts, bursts / raw if raw else 0.0])
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    text = format_table(
        ["benchmark", "LLC events", "burst events", "burst/event ratio"],
        rows,
        title="Extension: burst filtering at the LLC (paper SII-A.3)",
    )
    report("ext_bursts_llc", text)
    for name, raw, bursts, ratio in rows:
        # At the LLC, bursts barely compress the event stream (paper: most
        # bursts are filtered out by the L1).  A burst filter at the L1
        # would show ratios far below 1.
        assert ratio > 0.6, name
