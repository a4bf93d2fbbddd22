#!/usr/bin/env python
"""Quad-core shared-LLC management (the paper's Figure 10 scenario).

Runs one of the paper's Table IV mixes on a shared LLC under shared-LRU,
TADIP, thread-aware RRIP, and sampler-driven DBRB, and reports per-core
IPC plus the normalized weighted speedup.  The same 32-set sampler used
for the single-core cache serves the 4x larger shared cache unmodified
(paper Section III-F).

Run:
    python examples/multicore_shared_llc.py [mix1..mix10]
"""

import sys

from repro.harness import ExperimentConfig, TECHNIQUES, WorkloadCache, format_table
from repro.workloads import MIXES


def main(argv) -> int:
    mix_name = argv[0] if argv else "mix1"
    if mix_name not in MIXES:
        print(f"unknown mix {mix_name!r}; choose from {', '.join(MIXES)}",
              file=sys.stderr)
        return 1

    config = ExperimentConfig(scale=8, instructions=200_000)
    cache = WorkloadCache(config)
    members = MIXES[mix_name]
    print(f"{mix_name}: {', '.join(members)}")
    print(f"shared LLC: {cache.multicore.shared_geometry.describe()}\n")

    prepared = cache.prepared_mix(mix_name)
    technique_keys = ("lru", "tadip", "rrip", "sampler")
    results = {}
    for key in technique_keys:
        technique = TECHNIQUES[key]
        results[key] = cache.multicore.run(
            prepared,
            lambda g, s, n, technique=technique: technique.build(g, s, n),
            technique_name=key,
        )

    baseline = results["lru"]
    rows = []
    for key in technique_keys:
        result = results[key]
        rows.append(
            [TECHNIQUES[key].label]
            + [round(ipc, 3) for ipc in result.ipcs]
            + [
                result.weighted_ipc / baseline.weighted_ipc,
                result.llc_stats.misses / baseline.llc_stats.misses,
            ]
        )
    headers = ["technique"] + [f"IPC:{name}" for name in members] + [
        "norm. weighted speedup",
        "norm. misses",
    ]
    print(format_table(headers, rows))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
