"""The service-level load simulator: a shared LLC under live traffic.

The paper evaluates dead-block replacement-and-bypass on fixed quad-core
mixes by weighted speedup; this subsystem asks the production-shaped
question instead -- *what request latency does a multi-tenant service
deliver* with DBRB on vs off, under contention, bursts, and skew at
load.

Model
-----

N tenants issue requests open-loop (arrival processes from
:mod:`repro.loadsim.arrivals`).  A request is ``ops`` consecutive memory
references of the tenant's workload (:mod:`repro.loadsim.tenants`);
its latency decomposes as

    ``latency = private + wait + service``

where *private* is the resolved L1/L2 cycles of the request's filtered
references (fixed per request, precomputed), *service* is the sum of
LLC-hit / DRAM latencies of its LLC-bound references -- resolved live
against the shared LLC built with the technique under test -- and *wait*
is the queueing delay at the shared LLC/memory station, modeled as a
single FIFO server (busy from a request's service start to its end, in
global arrival order).

Determinism: every tenant owns a seeded RNG and arrivals are open-loop,
so the LLC access interleaving is a pure function of ``(tenants,
arrival specs, seed)`` and **identical across techniques** -- the same
contention pattern hits LRU and DBRB, which makes latency deltas
attributable to the policy.  Completion times feed back into nothing,
so :func:`arrival_schedule` orders every request once per scenario
(ties broken by a fixed rule), and a run is one pass over that
schedule: replay each request's LLC span, then serve it at the FIFO
station.

Metrics: p50/p95/p99 request latency (nearest-rank,
:func:`repro.sim.metrics.percentiles`), per-tenant MPKI, throughput in
the arrival window, Jain's fairness index over per-tenant mean latency,
and a per-epoch interval series recorded through the standard telemetry
:class:`~repro.telemetry.probe.IntervalRecorder` convention (epoch
boundaries are simulated-time slices of the arrival window).
"""

from __future__ import annotations

import csv
import gc
import hashlib
import heapq
import json
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.cache.cache import Cache
from repro.cache.stats import CacheStats
from repro.harness.techniques import resolve_technique
from repro.loadsim.arrivals import parse_arrival_spec
from repro.loadsim.tenants import (
    DEFAULT_OPS,
    PreparedTenant,
    TenantSpec,
    split_specs,
)
from repro.sim.hierarchy import prepare_stream
from repro.sim.multicore import CORE_ADDRESS_SHIFT
from repro.sim.metrics import jain_fairness_index, percentiles
from repro.telemetry.probe import IntervalRecorder
from repro.utils.rng import XorShift64

__all__ = [
    "DEFAULT_ARRIVAL",
    "DEFAULT_TENANT_WORKLOADS",
    "LoadScenario",
    "LoadSimResult",
    "PreparedScenario",
    "TenantReport",
    "arrival_schedule",
    "prepare_scenario",
    "resolve_tenant_specs",
    "write_csv",
    "write_ndjson",
]

#: Default arrival process for tenants that do not name one.  The rate
#: sits just under one-server saturation for typical suite workloads
#: (~20 LLC references per request at ~190 cycles each), so default
#: runs exercise queueing without running away.
DEFAULT_ARRIVAL = "poisson(rate=0.05)"

#: Workload rotation used when ``--tenants`` is a plain count: skewed,
#: bursty, hot-spotted, and streaming traffic -- the distribution shapes
#: the variability-aware reuse literature flags as predictor-hostile.
DEFAULT_TENANT_WORKLOADS = (
    "zipf(a=1.2)",
    "bursty",
    "hotspot",
    "seq",
)

#: Latency percentile points reported everywhere.
LATENCY_POINTS = (50.0, 95.0, 99.0)


@dataclass(frozen=True)
class LoadScenario:
    """One load-simulation scenario (technique-independent)."""

    tenants: Tuple[TenantSpec, ...]
    duration: float = 200_000.0
    seed: int = 1
    ops: int = DEFAULT_OPS
    epochs: int = 16

    def __post_init__(self) -> None:
        if not self.tenants:
            raise ValueError("a load scenario needs at least one tenant")
        count = len(self.tenants)
        if count & (count - 1):
            raise ValueError(
                f"{count} tenants: the shared LLC is the per-core LLC times "
                "the tenant count, and its set count must be a power of "
                "two, so the tenant count must be one too"
            )
        if not (math.isfinite(self.duration) and self.duration > 0):
            raise ValueError(
                f"duration must be positive and finite, got {self.duration}"
            )
        if self.ops < 1:
            raise ValueError(f"ops per request must be positive, got {self.ops}")
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")

    def describe(self) -> str:
        parts = ", ".join(t.describe() for t in self.tenants)
        return (
            f"{len(self.tenants)} tenants [{parts}], "
            f"{self.duration:.0f} cycles, seed {self.seed}, "
            f"{self.ops} refs/request"
        )


def resolve_tenant_specs(
    tenants: str, arrival: Optional[str] = None
) -> Tuple[TenantSpec, ...]:
    """Tenant specs from CLI-style arguments.

    ``tenants`` is either a plain count (rotate through
    :data:`DEFAULT_TENANT_WORKLOADS`) or a top-level-comma-separated
    list of workload specs.  ``arrival`` is one arrival spec for all
    tenants or a matching comma-separated list.
    """
    text = (tenants or "").strip()
    if text.isdigit():
        count = int(text)
        if count < 1:
            raise ValueError("tenant count must be >= 1")
        workloads = [
            DEFAULT_TENANT_WORKLOADS[i % len(DEFAULT_TENANT_WORKLOADS)]
            for i in range(count)
        ]
    else:
        workloads = split_specs(text)
        if not workloads:
            raise ValueError(f"no tenant workloads in {tenants!r}")
    arrivals = split_specs(arrival) if arrival else [DEFAULT_ARRIVAL]
    if len(arrivals) == 1:
        arrivals = arrivals * len(workloads)
    if len(arrivals) != len(workloads):
        raise ValueError(
            f"{len(arrivals)} arrival specs for {len(workloads)} tenants "
            "(pass one spec, or one per tenant)"
        )
    # Validate and canonicalize the arrival specs up front so a typo
    # fails here, with the spec named, not deep inside a prepared run.
    return tuple(
        TenantSpec(workload=w, arrival=parse_arrival_spec(a).spec)
        for w, a in zip(workloads, arrivals)
    )


@dataclass
class TenantReport:
    """Per-tenant outcome of one simulated run."""

    workload: str
    arrival: str
    arrived: int
    completed: int
    completed_in_window: int
    instructions: int
    llc_accesses: int
    llc_misses: int
    mpki: float
    mean_latency: float
    p99_latency: float
    throughput: float  # completions inside the window, per kilocycle

    def to_dict(self) -> Dict[str, object]:
        return dict(self.__dict__)


@dataclass
class LoadSimResult:
    """Outcome of one (scenario, technique) load-simulation run."""

    technique: str
    scenario: str
    tenants: Tuple[TenantReport, ...]
    duration: float
    seed: int
    latency_series: List[float]          # completion order
    latency_percentiles: Dict[float, float]
    mean_latency: float
    throughput: float                    # completions in window / kilocycle
    fairness: float                      # Jain over per-tenant mean latency
    llc_stats: CacheStats
    recorder: IntervalRecorder
    events: List[Tuple] = field(default_factory=list, repr=False)

    @property
    def p50(self) -> float:
        return self.latency_percentiles[50.0]

    @property
    def p95(self) -> float:
        return self.latency_percentiles[95.0]

    @property
    def p99(self) -> float:
        return self.latency_percentiles[99.0]

    def event_log_digest(self) -> str:
        """Content digest of the processed event log.

        Every event renders its time and payload through ``repr``, so
        two runs agree on the digest iff they agree bit-for-bit on every
        simulated event -- the determinism contract the tests pin.
        """
        blob = "\n".join(
            " ".join(repr(part) for part in event) for event in self.events
        )
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready summary (the NDJSON header row)."""
        return {
            "kind": "loadsim",
            "technique": self.technique,
            "scenario": self.scenario,
            "duration": self.duration,
            "seed": self.seed,
            "requests_arrived": sum(t.arrived for t in self.tenants),
            "requests_completed": sum(t.completed for t in self.tenants),
            "latency_p50": self.p50,
            "latency_p95": self.p95,
            "latency_p99": self.p99,
            "latency_mean": self.mean_latency,
            "throughput_per_kcycle": self.throughput,
            "fairness": self.fairness,
            "llc_miss_rate": self.llc_stats.miss_rate,
            "llc_bypasses": self.llc_stats.bypasses,
            "event_log_digest": self.event_log_digest(),
        }


#: ``(time, tie key, tenant index, req_id)`` of one request.
Arrival = Tuple[float, int, int, int]


def arrival_schedule(scenario: LoadScenario) -> List[Arrival]:
    """Every request of a scenario, in the order it reaches the LLC.

    Each tenant draws its gaps from its own :class:`XorShift64`, seeded
    from the scenario seed folded with the tenant index, and from a
    freshly parsed arrival process (MMPP burst state starts cold).  A
    heap holds each tenant's next arrival; requests leave it in
    ``(time, tie key)`` order.  The tie key is the order a scheduler
    would have queued the events in: the tenants' first arrivals in
    tenant order (negative keys), then, for the request at position
    ``k``, its completion (``2k``) followed by its tenant's next arrival
    (``2k + 1``).  Epoch boundaries tie before everything.  Completion
    times never feed back, so the schedule is technique-independent.
    """
    duration = scenario.duration
    count = len(scenario.tenants)
    rngs = [
        XorShift64((scenario.seed << 8) ^ (index + 1) ^ 0x5DEECE66D)
        for index in range(count)
    ]
    processes = [parse_arrival_spec(t.arrival) for t in scenario.tenants]
    pending = []
    for index in range(count):
        first = processes[index].next_gap(rngs[index])
        if first < duration:
            pending.append((first, index - count, index))
    heapq.heapify(pending)
    issued = [0] * count
    schedule: List[Arrival] = []
    while pending:
        time, key, index = heapq.heappop(pending)
        position = len(schedule)
        schedule.append((time, key, index, issued[index]))
        issued[index] += 1
        following = time + processes[index].next_gap(rngs[index])
        if following < duration:
            heapq.heappush(pending, (following, 2 * position + 1, index))
    return schedule


class PreparedScenario:
    """A scenario with its tenants prepared against one machine.

    Preparation (trace generation, L1/L2 filtering, request tables,
    relocated LLC streams, the arrival schedule) is paid once;
    :meth:`run` replays the same scenario under any technique.
    """

    def __init__(self, scenario: LoadScenario, machine, tenants: List[PreparedTenant],
                 geometry) -> None:
        self.scenario = scenario
        self.machine = machine
        self.tenants = tenants
        self.geometry = geometry
        self.schedule = arrival_schedule(scenario)

    # ------------------------------------------------------------------
    def run(self, technique_key: str = "sampler") -> LoadSimResult:
        """Simulate the scenario under one LLC technique."""
        technique = resolve_technique(technique_key)
        if technique_key == "optimal":
            raise ValueError(
                "the optimal policy needs the full future access stream; "
                "a live load simulation cannot provide one"
            )
        scenario = self.scenario
        schedule = self.schedule
        tenants = self.tenants
        # A finished run's LLC is cyclic garbage (cache and policy refer
        # to each other), freed only by a full collection; collect it
        # now so two runs' frame arrays never coexist.
        gc.collect()
        policy = technique.build(self.geometry, None, num_cores=len(tenants))
        cache = Cache(self.geometry, policy, name="loadsim-LLC")
        recorder = IntervalRecorder(epochs=scenario.epochs)
        recorder.set_context(
            workload="+".join(t.spec.workload for t in tenants),
            technique=technique_key,
            tenants=len(tenants),
            duration=scenario.duration,
            seed=scenario.seed,
        )
        recorder.begin_run(cache, 0)

        duration = scenario.duration
        epoch_length = duration / scenario.epochs
        boundaries = [b * epoch_length for b in range(scenario.epochs, 0, -1)]
        llc_latency = self.machine.llc_latency
        memory_latency = self.machine.memory_latency
        cache_access = cache.access
        instructions = [0] * len(tenants)
        llc_accesses = [0] * len(tenants)
        llc_misses = [0] * len(tenants)
        completions: List[float] = []  # per schedule position
        station_free = 0.0
        llc_count = 0  # also the next LLC access's ``seq``
        for time, _, index, req_id in schedule:
            while boundaries and boundaries[-1] <= time:
                boundaries.pop()
                recorder.on_epoch(cache, llc_count)
            tenant = tenants[index]
            table = tenant.requests
            request_instructions, private, llc_lo, llc_hi = table[req_id % len(table)]
            instructions[index] += request_instructions
            if llc_hi > llc_lo:
                hits = 0
                for seq, access in enumerate(
                    tenant.stream.accesses[llc_lo:llc_hi], llc_count
                ):
                    access.seq = seq
                    hits += cache_access(access)
                count = llc_hi - llc_lo
                misses = count - hits
                llc_count += count
                llc_accesses[index] += count
                llc_misses[index] += misses
                # Latencies are whole cycles, so this is exactly the
                # per-access sum.
                service = hits * llc_latency + misses * memory_latency
                # The FIFO station serves requests in arrival order.
                station_free = max(time + private, station_free) + service
                completion = station_free
            else:
                completion = time + private
            completions.append(completion)
        for _ in boundaries:
            recorder.on_epoch(cache, llc_count)
        recorder.end_run(cache, llc_count)

        # Completion order, ties in schedule order (the sort is stable,
        # and request k's completion key 2k grows with k); the float
        # sums below depend on it.
        order = sorted(range(len(completions)), key=completions.__getitem__)
        latency_series: List[float] = []
        latencies: List[List[float]] = [[] for _ in tenants]
        in_window = [0] * len(tenants)
        for k in order:
            time, _, index, _ = schedule[k]
            latency = completions[k] - time
            latency_series.append(latency)
            latencies[index].append(latency)
            if completions[k] <= duration:
                in_window[index] += 1
        arrivals = (
            (time, key, ("arr", time, index, req_id))
            for time, key, index, req_id in schedule
        )
        finishes = (
            (completions[k], 2 * k,
             ("fin", completions[k], schedule[k][2], schedule[k][3], latency))
            for k, latency in zip(order, latency_series)
        )
        events = [event for _, _, event in heapq.merge(arrivals, finishes)]

        if latency_series:
            latency_percentiles = percentiles(latency_series, LATENCY_POINTS)
            mean_latency = sum(latency_series) / len(latency_series)
        else:
            latency_percentiles = {point: 0.0 for point in LATENCY_POINTS}
            mean_latency = 0.0
        means = [sum(series) / len(series) if series else 0.0 for series in latencies]
        active = [mean for mean, series in zip(means, latencies) if series]
        fairness = jain_fairness_index(active) if active else 1.0
        reports = tuple(
            TenantReport(
                workload=tenant.spec.workload,
                arrival=tenant.arrival,
                arrived=len(latencies[i]),
                completed=len(latencies[i]),
                completed_in_window=in_window[i],
                instructions=instructions[i],
                llc_accesses=llc_accesses[i],
                llc_misses=llc_misses[i],
                mpki=(
                    llc_misses[i] * 1000.0 / instructions[i]
                    if instructions[i] else 0.0
                ),
                mean_latency=means[i],
                p99_latency=(
                    percentiles(latencies[i], (99.0,))[99.0] if latencies[i] else 0.0
                ),
                throughput=in_window[i] / (duration / 1000.0),
            )
            for i, tenant in enumerate(tenants)
        )
        return LoadSimResult(
            technique=technique_key,
            scenario=scenario.describe(),
            tenants=reports,
            duration=duration,
            seed=scenario.seed,
            latency_series=latency_series,
            latency_percentiles=latency_percentiles,
            mean_latency=mean_latency,
            throughput=sum(in_window) / (duration / 1000.0),
            fairness=fairness,
            llc_stats=cache.stats,
            recorder=recorder,
            events=events,
        )


def prepare_scenario(workload_cache, scenario: LoadScenario) -> PreparedScenario:
    """Prepare every tenant of a scenario against the cache's machine.

    ``workload_cache`` is the standard
    :class:`~repro.harness.runner.WorkloadCache`, so trace generation and
    L1/L2 filtering are shared with every other experiment (and with the
    compiled stream store when one is attached).  The shared LLC is
    sized like the multicore model's: per-core capacity times the tenant
    count.
    """
    machine = workload_cache.machine
    geometry = machine.shared_llc(len(scenario.tenants))
    tenants: List[PreparedTenant] = []
    for index, spec in enumerate(scenario.tenants):
        filtered = workload_cache.filtered(spec.workload)
        # A private stream per tenant: the run writes each access's
        # ``seq``, so sharing the workload's cached stream would corrupt
        # it for every later replay.
        stream = prepare_stream(
            filtered.llc_arrays(),
            geometry,
            address_offset=index << CORE_ADDRESS_SHIFT,
            core=index,
        )
        tenants.append(
            PreparedTenant(
                index=index,
                spec=spec,
                filtered=filtered,
                stream=stream,
                l1_latency=machine.l1_latency,
                l2_latency=machine.l2_latency,
                ops=scenario.ops,
            )
        )
    return PreparedScenario(scenario, machine, tenants, geometry)


# ----------------------------------------------------------------------
# exporters (NDJSON / CSV, mirroring the telemetry exporters' shape)
# ----------------------------------------------------------------------
def write_ndjson(result: LoadSimResult, path_or_file) -> None:
    """Dump a run as NDJSON: summary header, tenant rows, epoch rows."""

    def _write(handle) -> None:
        handle.write(json.dumps(result.to_dict(), sort_keys=True) + "\n")
        for report in result.tenants:
            row = {"kind": "tenant"}
            row.update(report.to_dict())
            handle.write(json.dumps(row, sort_keys=True) + "\n")
        for sample in result.recorder.samples:
            row = {"kind": "epoch"}
            row.update(sample.to_dict())
            handle.write(json.dumps(row, sort_keys=True) + "\n")

    if hasattr(path_or_file, "write"):
        _write(path_or_file)
    else:
        with open(path_or_file, "w", encoding="utf-8") as handle:
            _write(handle)


def write_csv(result: LoadSimResult, path_or_file) -> None:
    """Dump the per-tenant table as CSV."""
    fields = [
        "workload", "arrival", "arrived", "completed", "completed_in_window",
        "instructions", "llc_accesses", "llc_misses", "mpki",
        "mean_latency", "p99_latency", "throughput",
    ]

    def _write(handle) -> None:
        writer = csv.DictWriter(handle, fieldnames=fields)
        writer.writeheader()
        for report in result.tenants:
            writer.writerow(report.to_dict())

    if hasattr(path_or_file, "write"):
        _write(path_or_file)
    else:
        with open(path_or_file, "w", encoding="utf-8", newline="") as handle:
            _write(handle)
