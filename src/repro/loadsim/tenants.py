"""Tenants: workload-derived request generators for the load simulator.

A tenant couples one *workload spec* -- any name the suite resolves:
suite benchmarks (``mcf``), parameterized patterns (``zipf(a=1.2)``),
imported traces (``trace(name)``) -- with one *arrival spec*
(:mod:`repro.loadsim.arrivals`).  Every existing workload is therefore a
valid tenant profile with zero special-casing, the same contract the
sweep harness and service already rely on.

The memory behaviour comes straight from the reproduction's pipeline:
the tenant's trace is filtered through private L1/L2 once
(:class:`~repro.sim.hierarchy.FilteredTrace`, shared with every other
experiment via the :class:`~repro.harness.runner.WorkloadCache` memo),
and its record stream is chopped into fixed-size *requests* of ``ops``
consecutive memory references.  Per request everything that does not
depend on the shared LLC is precomputed: the instruction count, the
resolved L1/L2 cycles, and the span of LLC-bound accesses in the
tenant's prepared stream (relocated into a disjoint address range per
tenant, as the multicore model does).  Requests are consumed cyclically,
so an open-loop arrival stream never exhausts its tenant.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.loadsim.arrivals import parse_arrival_spec
from repro.sim.hierarchy import FilteredTrace, PreparedStream
from repro.workloads.patterns import split_top_level

__all__ = ["PreparedTenant", "TenantSpec", "split_specs"]

#: Default memory references per request.
DEFAULT_OPS = 32


def split_specs(text: str) -> List[str]:
    """Split a comma-separated spec list at top-level commas, dropping
    empty members.

    Raises:
        WorkloadSpecError: unbalanced parentheses (a ``ValueError``).
    """
    parts = (part.strip() for part in split_top_level(text, ","))
    return [part for part in parts if part]


@dataclass(frozen=True)
class TenantSpec:
    """One tenant of a scenario: a workload under an arrival process."""

    workload: str
    arrival: str

    def describe(self) -> str:
        return f"{self.workload} @ {self.arrival}"


class PreparedTenant:
    """A tenant's precomputed request table.

    The table (instructions / private cycles / LLC span per request) is
    a pure function of the filtered trace and ``ops``, so one prepared
    tenant serves every technique of a comparison identically.  Request
    ``req_id`` is entry ``req_id % len(requests)``.
    """

    def __init__(
        self,
        index: int,
        spec: TenantSpec,
        filtered: FilteredTrace,
        stream: PreparedStream,
        l1_latency: int,
        l2_latency: int,
        ops: int = DEFAULT_OPS,
    ) -> None:
        self.index = index
        self.spec = spec
        #: The canonical arrival spec (family defaults filled in).
        self.arrival = parse_arrival_spec(spec.arrival).spec
        self.stream = stream
        self.ops = ops
        self.requests: List[Tuple[int, float, int, int]] = []  # (instr, private, llc_lo, llc_hi)
        self._build_table(filtered, l1_latency, l2_latency)

    # ------------------------------------------------------------------
    def _build_table(self, filtered: FilteredTrace,
                     l1_latency: int, l2_latency: int) -> None:
        gaps = filtered.trace.gaps
        latencies = filtered.fixed_latencies(l1_latency, l2_latency)
        ops = self.ops
        llc_cursor = 0
        for start in range(0, len(gaps), ops):
            fixed = latencies[start : start + ops]
            llc = fixed.count(-1)
            instructions = sum(gaps[start : start + ops]) + len(fixed)
            # An LLC reference reads -1: add them back to sum the L1/L2 cycles.
            private = float(sum(fixed) + llc)
            self.requests.append((instructions, private, llc_cursor, llc_cursor + llc))
            llc_cursor += llc
        if not self.requests:
            raise ValueError(
                f"tenant workload {self.spec.workload!r} produced an empty trace"
            )
