#!/usr/bin/env python
"""Prefetch into dead blocks (the paper's future-work direction).

The sampling predictor identifies frames whose occupants will not be
referenced again; a prefetcher can treat those frames as free capacity.
This example runs a streaming workload under three configurations --
plain LRU, sampler-DBRB, and sampler-DBRB plus next-block prefetching
into dead frames -- and shows the miss reduction compounding.

Run:
    python examples/dead_block_prefetching.py [benchmark]
"""

import sys

from repro import (
    Cache,
    DBRBPolicy,
    LRUPolicy,
    MachineConfig,
    SamplingDeadBlockPredictor,
    SingleCoreSystem,
    build_trace,
)
from repro.harness import format_table
from repro.prefetch import CorrelationPrefetcher, NextBlockPrefetcher, PrefetchEngine
from repro.workloads import ALL_BENCHMARKS


def main(argv) -> int:
    benchmark = argv[0] if argv else "milc"
    if benchmark not in ALL_BENCHMARKS:
        print(f"unknown benchmark {benchmark!r}", file=sys.stderr)
        return 1

    config = MachineConfig().scaled(8)
    system = SingleCoreSystem(config)
    trace = build_trace(benchmark, 250_000, config.llc.size_bytes)
    filtered = system.prepare(trace)
    accesses = filtered.llc_stream(config.llc).accesses
    print(f"{benchmark}: {len(accesses):,} LLC accesses\n")

    def dbrb_policy(bypass):
        return DBRBPolicy(
            LRUPolicy(), SamplingDeadBlockPredictor(), enable_bypass=bypass
        )

    rows = []
    lru = Cache(config.llc, LRUPolicy(), "LLC")
    lru_misses = sum(0 if lru.access(a) else 1 for a in accesses)
    rows.append(["LRU", lru_misses, 1.0, None, None])

    dbrb = Cache(config.llc, dbrb_policy(bypass=True), "LLC")
    dbrb_misses = sum(0 if dbrb.access(a) else 1 for a in accesses)
    rows.append(["Sampler DBRB", dbrb_misses, dbrb_misses / lru_misses, None, None])

    for label, prefetcher in (
        ("DBRB + next-block pf", NextBlockPrefetcher(degree=2)),
        ("DBRB + correlation pf", CorrelationPrefetcher()),
    ):
        cache = Cache(config.llc, dbrb_policy(bypass=False), "LLC")
        engine = PrefetchEngine(cache, prefetcher)
        misses = sum(0 if hit else 1 for hit in engine.run(accesses))
        engine.finalize()
        rows.append(
            [label, misses, misses / lru_misses, engine.stats.issued,
             engine.stats.accuracy]
        )

    print(format_table(
        ["configuration", "LLC misses", "vs LRU", "prefetches", "pf accuracy"],
        rows,
        title="Dead-block-directed prefetching",
    ))
    print()
    print("Note: prefetch configurations disable bypass so that dead frames")
    print("stay available as prefetch targets instead of being skipped.")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
