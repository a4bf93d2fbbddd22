"""Table IV: the ten quad-core workload mixes.

The composition is reproduced verbatim from the paper; this bench builds
each mix's four traces on the configured machine and reports their
aggregate memory character (the paper's table shows per-mix cache
sensitivity curves; we summarize each mix by its cores' solo MPKIs).
"""

from repro.harness import TECHNIQUES, format_table
from repro.workloads import MIXES


def test_table4_mixes(benchmark, workload_cache, report):
    lru = TECHNIQUES["lru"]

    def run():
        rows = []
        for mix_name, members in MIXES.items():
            mpkis = []
            for member in members:
                filtered = workload_cache.filtered(member)
                result = workload_cache.system.run(
                    filtered,
                    lambda g, s: lru.build(g, s),
                    "lru",
                    compute_timing=False,
                )
                mpkis.append(result.mpki)
            rows.append([mix_name, " ".join(members)] + [round(m, 1) for m in mpkis])
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    text = format_table(
        ["mix", "benchmarks", "mpki0", "mpki1", "mpki2", "mpki3"],
        rows,
        precision=1,
        title="Table IV: quad-core mixes (per-core solo LRU MPKI)",
    )
    report("table4_mixes", text)

    assert len(rows) == 10
    assert rows[0][1] == "mcf hmmer libquantum omnetpp"
