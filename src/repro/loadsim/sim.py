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

Determinism: the event engine breaks ties by scheduling order, every
tenant owns a seeded RNG, and arrivals are open-loop, so the LLC access
interleaving is a pure function of ``(tenants, arrival specs, seed)``
and **identical across techniques** -- the same contention pattern hits
LRU and DBRB, which makes latency deltas attributable to the policy.
Completion times feed back into nothing.

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
import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.cache.cache import Cache
from repro.cache.stats import CacheStats
from repro.harness.techniques import resolve_technique
from repro.loadsim.arrivals import parse_arrival_spec
from repro.loadsim.engine import EventLoop
from repro.loadsim.tenants import (
    DEFAULT_OPS,
    TENANT_ADDRESS_SHIFT,
    PreparedTenant,
    TenantSpec,
    split_specs,
)
from repro.sim.hierarchy import prepare_stream
from repro.sim.metrics import jain_fairness_index, percentiles
from repro.telemetry.probe import IntervalRecorder

__all__ = [
    "DEFAULT_ARRIVAL",
    "DEFAULT_TENANT_WORKLOADS",
    "LoadScenario",
    "LoadSimResult",
    "PreparedScenario",
    "TenantReport",
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
        if self.duration <= 0:
            raise ValueError(f"duration must be positive, got {self.duration}")
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


class PreparedScenario:
    """A scenario with its tenants prepared against one machine.

    Preparation (trace generation, L1/L2 filtering, request tables,
    relocated LLC streams) is paid once; :meth:`run` replays the same
    scenario under any technique.
    """

    def __init__(self, scenario: LoadScenario, machine, tenants: List[PreparedTenant],
                 geometry) -> None:
        self.scenario = scenario
        self.machine = machine
        self.tenants = tenants
        self.geometry = geometry

    # ------------------------------------------------------------------
    def run(self, technique_key: str = "sampler",
            record_events: bool = True) -> LoadSimResult:
        """Simulate the scenario under one LLC technique."""
        technique = resolve_technique(technique_key)
        if technique_key == "optimal":
            raise ValueError(
                "the optimal policy needs the full future access stream; "
                "a live load simulation cannot provide one"
            )
        scenario = self.scenario
        for tenant in self.tenants:
            tenant.reset(scenario.seed)
        # A finished run's LLC is cyclic garbage (cache and policy refer
        # to each other), freed only by a full collection; collect it
        # now so two runs' frame arrays never coexist.
        gc.collect()
        policy = technique.build(self.geometry, None, num_cores=len(self.tenants))
        cache = Cache(self.geometry, policy, name="loadsim-LLC")
        recorder = IntervalRecorder(epochs=scenario.epochs)
        recorder.set_context(
            workload="+".join(t.spec.workload for t in self.tenants),
            technique=technique_key,
            tenants=len(self.tenants),
            duration=scenario.duration,
            seed=scenario.seed,
        )
        recorder.begin_run(cache, 0)

        loop = EventLoop()
        duration = scenario.duration
        llc_latency = self.machine.llc_latency
        memory_latency = self.machine.memory_latency
        events: List[Tuple] = []
        latency_series: List[float] = []
        # ``llc_count`` is also the next LLC access's ``seq``.
        state = {"station_free": 0.0, "llc_count": 0, "completed_in_window": 0}
        cache_access = cache.access

        def complete(time: float, tenant: PreparedTenant, req_id: int,
                     latency: float) -> None:
            tenant.completed += 1
            tenant.latencies.append(latency)
            latency_series.append(latency)
            if time <= duration:
                tenant.completed_in_window += 1
                state["completed_in_window"] += 1
            if record_events:
                events.append(("fin", time, tenant.index, req_id, latency))

        def arrive(time: float, tenant: PreparedTenant) -> None:
            if time >= duration:
                return
            req_id, instructions, private, llc_lo, llc_hi = tenant.next_request()
            tenant.arrived += 1
            tenant.instructions += instructions
            if record_events:
                events.append(("arr", time, tenant.index, req_id))
            if llc_hi > llc_lo:
                first = state["llc_count"]
                hits = 0
                for seq, access in enumerate(
                    tenant.stream.accesses[llc_lo:llc_hi], first
                ):
                    access.seq = seq
                    hits += cache_access(access)
                count = llc_hi - llc_lo
                misses = count - hits
                state["llc_count"] = first + count
                tenant.llc_accesses += count
                tenant.llc_misses += misses
                # Latencies are whole cycles, so this is exactly the
                # per-access sum.
                service = hits * llc_latency + misses * memory_latency
                start = max(time + private, state["station_free"])
                completion = start + service
                state["station_free"] = completion
            else:
                completion = time + private
            latency = completion - time
            loop.schedule_at(
                completion,
                lambda now, t=tenant, r=req_id, lat=latency: complete(now, t, r, lat),
            )
            gap = tenant.next_gap()
            if time + gap < duration:
                loop.schedule_at(
                    time + gap, lambda now, t=tenant: arrive(now, t)
                )

        # Epoch boundaries slice the arrival window by simulated time;
        # they are scheduled up-front so their tie-breaking order never
        # depends on the traffic.
        epoch_length = duration / scenario.epochs
        for boundary in range(1, scenario.epochs + 1):
            loop.schedule_at(
                boundary * epoch_length,
                lambda now: recorder.on_epoch(cache, state["llc_count"]),
            )
        for tenant in self.tenants:
            first = tenant.next_gap()
            if first < duration:
                loop.schedule_at(first, lambda now, t=tenant: arrive(now, t))
        loop.run()
        recorder.end_run(cache, state["llc_count"])

        if latency_series:
            latency_percentiles = percentiles(latency_series, LATENCY_POINTS)
            mean_latency = sum(latency_series) / len(latency_series)
        else:
            latency_percentiles = {point: 0.0 for point in LATENCY_POINTS}
            mean_latency = 0.0
        active = [t.mean_latency for t in self.tenants if t.completed]
        fairness = jain_fairness_index(active) if active else 1.0
        reports = tuple(
            TenantReport(
                workload=t.spec.workload,
                arrival=t.arrival.spec,
                arrived=t.arrived,
                completed=t.completed,
                completed_in_window=t.completed_in_window,
                instructions=t.instructions,
                llc_accesses=t.llc_accesses,
                llc_misses=t.llc_misses,
                mpki=t.mpki,
                mean_latency=t.mean_latency,
                p99_latency=(
                    percentiles(t.latencies, (99.0,))[99.0] if t.latencies else 0.0
                ),
                throughput=t.completed_in_window / (duration / 1000.0),
            )
            for t in self.tenants
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
            throughput=state["completed_in_window"] / (duration / 1000.0),
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
            address_offset=index << TENANT_ADDRESS_SHIFT,
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
