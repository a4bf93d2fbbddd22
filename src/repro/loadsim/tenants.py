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

from repro.loadsim.arrivals import ArrivalProcess, parse_arrival_spec
from repro.sim.hierarchy import L1_HIT, L2_HIT, FilteredTrace, PreparedStream
from repro.utils.rng import XorShift64

__all__ = ["PreparedTenant", "TenantSpec", "split_specs"]

#: Address bits keeping per-tenant address spaces disjoint in the shared
#: LLC (tenants are multiprogrammed, not shared-memory) -- the same
#: relocation the multicore model applies per core.
TENANT_ADDRESS_SHIFT = 44

#: Default memory references per request.
DEFAULT_OPS = 32


def split_specs(text: str) -> List[str]:
    """Split a comma-separated spec list at *top-level* commas only.

    Workload and arrival specs carry commas inside parentheses
    (``zipf(a=1.2,seed=7)``), so a naive ``split(',')`` would shred
    them.
    """
    parts: List[str] = []
    depth = 0
    current: List[str] = []
    for char in text:
        if char == "(":
            depth += 1
        elif char == ")":
            depth = max(0, depth - 1)
        if char == "," and depth == 0:
            part = "".join(current).strip()
            if part:
                parts.append(part)
            current = []
        else:
            current.append(char)
    tail = "".join(current).strip()
    if tail:
        parts.append(tail)
    return parts


@dataclass(frozen=True)
class TenantSpec:
    """One tenant of a scenario: a workload under an arrival process."""

    workload: str
    arrival: str

    def describe(self) -> str:
        return f"{self.workload} @ {self.arrival}"


class PreparedTenant:
    """A tenant's precomputed request table plus its live run state.

    The request table (instructions / private cycles / LLC span per
    request) is a pure function of the filtered trace and ``ops``; the
    run state (RNG, cyclic request cursor, per-tenant counters) is reset
    per simulation via :meth:`reset` so one prepared tenant serves every
    technique of a comparison identically.
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
        if ops < 1:
            raise ValueError(f"ops per request must be positive, got {ops}")
        self.index = index
        self.spec = spec
        self.arrival: ArrivalProcess = parse_arrival_spec(spec.arrival)
        self.stream = stream
        self.ops = ops
        self.requests: List[Tuple[int, float, int, int]] = []  # (instr, private, llc_lo, llc_hi)
        self._build_table(filtered, l1_latency, l2_latency)
        # ---- per-run state (reset() before every simulation) ----
        self.rng = XorShift64()
        self.cursor = 0
        self.arrived = 0
        self.completed = 0
        self.completed_in_window = 0
        self.instructions = 0
        self.llc_accesses = 0
        self.llc_misses = 0
        self.latencies: List[float] = []

    # ------------------------------------------------------------------
    def _build_table(self, filtered: FilteredTrace,
                     l1_latency: int, l2_latency: int) -> None:
        gaps = filtered.trace.gaps
        levels = filtered.levels
        ops = self.ops
        llc_cursor = 0
        for start in range(0, len(gaps), ops):
            stop = min(start + ops, len(gaps))
            instructions = 0
            private = 0.0
            llc_lo = llc_cursor
            for position in range(start, stop):
                instructions += gaps[position] + 1
                level = levels[position]
                if level == L1_HIT:
                    private += l1_latency
                elif level == L2_HIT:
                    private += l2_latency
                else:
                    llc_cursor += 1
            self.requests.append((instructions, private, llc_lo, llc_cursor))
        if not self.requests:
            raise ValueError(
                f"tenant workload {self.spec.workload!r} produced an empty trace"
            )

    # ------------------------------------------------------------------
    def reset(self, seed: int) -> None:
        """Rewind the tenant for a fresh simulation run.

        The RNG seed folds the scenario seed with the tenant index, so
        tenants draw independent arrival streams while the whole
        scenario stays a pure function of one seed.  The arrival process
        is re-parsed so stateful processes (MMPP burst state) restart
        cold.
        """
        self.rng = XorShift64((seed << 8) ^ (self.index + 1) ^ 0x5DEECE66D)
        self.arrival = parse_arrival_spec(self.spec.arrival)
        self.cursor = 0
        self.arrived = 0
        self.completed = 0
        self.completed_in_window = 0
        self.instructions = 0
        self.llc_accesses = 0
        self.llc_misses = 0
        self.latencies = []

    def next_request(self) -> Tuple[int, int, float, int, int]:
        """The next request (cyclic): ``(req_id, instr, private, lo, hi)``."""
        req_id = self.cursor
        table = self.requests
        entry = table[req_id % len(table)]
        self.cursor = req_id + 1
        return (req_id,) + entry

    def next_gap(self) -> float:
        return self.arrival.next_gap(self.rng)

    # ------------------------------------------------------------------
    @property
    def mpki(self) -> float:
        """Shared-LLC misses per kilo-instruction of *arrived* work."""
        if not self.instructions:
            return 0.0
        return self.llc_misses * 1000.0 / self.instructions

    @property
    def mean_latency(self) -> float:
        if not self.latencies:
            return 0.0
        return sum(self.latencies) / len(self.latencies)
