"""Service-level load simulation over the shared-LLC model.

The paper evaluates dead-block replacement-and-bypass by MPKI and
weighted speedup on fixed multiprogrammed mixes; this subsystem drives
the same shared LLC with *open-loop tenant traffic* (Poisson and MMPP
bursts over the suite's workload specs), ordered once per scenario by
a deterministic arrival schedule, and reports what a service operator
would ask for: p50/p95/p99 request latency, per-tenant MPKI,
throughput, and Jain fairness -- with every run a pure function of
``(tenants, arrivals, seed, technique)``.

See ``docs/loadsim.md`` for the model and CLI walkthrough.
"""

from repro.loadsim.arrivals import (
    ArrivalProcess,
    ArrivalSpecError,
    BurstyArrivals,
    PoissonArrivals,
    UniformArrivals,
    parse_arrival_spec,
)
from repro.loadsim.sim import (
    DEFAULT_ARRIVAL,
    DEFAULT_TENANT_WORKLOADS,
    LoadScenario,
    LoadSimResult,
    PreparedScenario,
    TenantReport,
    prepare_scenario,
    resolve_tenant_specs,
    write_csv,
    write_ndjson,
)
from repro.loadsim.tenants import (
    DEFAULT_OPS,
    PreparedTenant,
    TenantSpec,
    split_specs,
)

__all__ = [
    "ArrivalProcess",
    "ArrivalSpecError",
    "BurstyArrivals",
    "DEFAULT_ARRIVAL",
    "DEFAULT_OPS",
    "DEFAULT_TENANT_WORKLOADS",
    "LoadScenario",
    "LoadSimResult",
    "PoissonArrivals",
    "PreparedScenario",
    "PreparedTenant",
    "TenantReport",
    "TenantSpec",
    "UniformArrivals",
    "parse_arrival_spec",
    "prepare_scenario",
    "resolve_tenant_specs",
    "split_specs",
    "write_csv",
    "write_ndjson",
]
