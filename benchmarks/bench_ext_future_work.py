"""Extension benches: the paper's Section VIII future-work optimizations.

"We plan to investigate the use of sampling predictors for optimizations
other than replacement and bypass."  Two such optimizations, built on the
sampling predictor:

* **dead-block-directed prefetching** (the original Lai et al. use case):
  fill predicted-dead frames with sequential/correlated prefetches;
* **virtual victim cache** (Khan et al., PACT 2010): park live victims of
  hot sets in predicted-dead frames of a partner set.
"""

from repro.cache import Cache
from repro.core import DBRBPolicy, SamplingDeadBlockPredictor
from repro.harness import format_table
from repro.prefetch import NextBlockPrefetcher, PrefetchEngine
from repro.replacement import LRUPolicy
from repro.vvc import VictimRelocationCache


def test_ext_dead_block_prefetching(benchmark, workload_cache, report):
    """Prefetching into dead blocks on the streaming/stencil benchmarks:
    the stream's frames are predicted dead, so next-block prefetching can
    run ahead of the demand front without displacing live data."""
    benchmarks = ("milc", "lbm", "leslie3d", "hmmer")

    def run():
        rows = []
        machine = workload_cache.machine
        for name in benchmarks:
            filtered = workload_cache.filtered(name)
            accesses = filtered.llc_stream(machine.llc).accesses

            def dbrb_policy():
                return DBRBPolicy(
                    LRUPolicy(),
                    SamplingDeadBlockPredictor(),
                    enable_bypass=False,  # dead frames host prefetches instead
                )

            baseline = Cache(machine.llc, dbrb_policy(), "LLC")
            base_misses = sum(0 if baseline.access(a) else 1 for a in accesses)

            cache = Cache(machine.llc, dbrb_policy(), "LLC")
            engine = PrefetchEngine(cache, NextBlockPrefetcher(degree=2))
            pf_misses = sum(0 if hit else 1 for hit in engine.run(accesses))
            engine.finalize()
            rows.append(
                [
                    name,
                    base_misses,
                    pf_misses,
                    pf_misses / base_misses if base_misses else 1.0,
                    engine.stats.issued,
                    engine.stats.accuracy,
                ]
            )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    text = format_table(
        ["benchmark", "DBRB misses", "+prefetch misses", "ratio", "issued", "accuracy"],
        rows,
        title="Extension: prefetching into dead blocks (paper SVIII / Lai et al.)",
    )
    report("ext_prefetch", text)

    by_name = {row[0]: row for row in rows}
    # Streams are sequential: prefetching into their dead frames must
    # remove a substantial share of the misses.  (Concurrent streams
    # compete for the per-set dead-frame supply, which bounds coverage --
    # the winner's chain self-sustains while later streams get throttled.)
    assert by_name["milc"][3] < 0.75
    assert by_name["lbm"][3] < 0.75
    # And it must never hurt (it only uses dead frames).
    for name, *_ in rows:
        assert by_name[name][3] <= 1.02


def test_ext_virtual_victim_cache(benchmark, workload_cache, report):
    """Victim relocation into dead frames: hot sets borrow dead capacity
    from their partner sets (Khan et al. PACT 2010)."""
    benchmarks = ("hmmer", "xalancbmk", "sphinx3")

    def run():
        rows = []
        machine = workload_cache.machine
        for name in benchmarks:
            filtered = workload_cache.filtered(name)
            accesses = filtered.llc_stream(machine.llc).accesses

            def dbrb_policy():
                return DBRBPolicy(LRUPolicy(), SamplingDeadBlockPredictor())

            plain = Cache(machine.llc, dbrb_policy(), "LLC")
            plain_misses = sum(0 if plain.access(a) else 1 for a in accesses)

            vvc = VictimRelocationCache(machine.llc, dbrb_policy(), "LLC")
            vvc_misses = sum(0 if vvc.access(a) else 1 for a in accesses)
            rows.append(
                [
                    name,
                    plain_misses,
                    vvc_misses,
                    vvc_misses / plain_misses if plain_misses else 1.0,
                    vvc.vvc_stats.relocations,
                    vvc.vvc_stats.vvc_hits,
                ]
            )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    text = format_table(
        ["benchmark", "DBRB misses", "+VVC misses", "ratio", "relocations", "VVC hits"],
        rows,
        title="Extension: virtual victim cache over dead blocks (PACT 2010)",
    )
    report("ext_vvc", text)

    for name, plain, vvc, ratio, relocations, hits in rows:
        assert relocations > 0, name
        assert ratio <= 1.05, name  # parking victims must not hurt much
    # At least one benchmark should genuinely profit from borrowed capacity.
    assert min(row[3] for row in rows) < 1.0
