"""The benchmark's workloads: set-up, timed body and checked outputs.

Every body drives the simulator only through its public calls.  The
same body runs untraced (end-to-end metrics) and traced (per-layer
spans, see :mod:`spans`), so both execute the same calls in the same
order.  Each body returns its *checked outputs* -- one digest per
operation (a Figure-4 cell or a load-simulation run) -- and the number
of simulated LLC accesses it replayed.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from typing import Dict, Tuple

#: Figure 4/5 subset: pointer chasing (mcf, omnetpp), streaming
#: (libquantum) and mixed (hmmer) inputs.
FIG4_BENCHMARKS = ("mcf", "omnetpp", "libquantum", "hmmer")
#: Figure 4's techniques; the LRU baseline cell always runs first.
FIG4_TECHNIQUES = ("tdbp", "cdbp", "dip", "rrip", "sampler", "optimal")
#: The load simulator's four default tenants, one Poisson rate for all.
LOADSIM_TENANTS = "4"
LOADSIM_ARRIVAL = "poisson(rate=0.04)"
#: The techniques each load simulation runs, in order.
LOADSIM_RUNS = ("sampler", "lru")
#: The pool size of the warm parallel sweep.
WARM_JOBS = 2


@dataclass(frozen=True)
class Sizes:
    """Input sizes; the defaults are the configuration of record."""

    scale: int = 8
    instructions: int = 400_000
    benchmarks: Tuple[str, ...] = FIG4_BENCHMARKS
    techniques: Tuple[str, ...] = FIG4_TECHNIQUES
    loadsim_instructions: int = 50_000
    loadsim_duration: float = 60_000_000.0


@dataclass
class BodyResult:
    outputs: Dict[str, str]
    llc_accesses: int
    #: Files the body's sweep wrote (events, manifest), read by the traced run.
    artifacts: Dict[str, str] = field(default_factory=dict)


# ----------------------------------------------------------------------
# checked outputs
# ----------------------------------------------------------------------
_STATS_FIELDS = (
    "accesses", "hits", "misses", "fills", "evictions",
    "writebacks", "bypasses", "dead_block_victims",
)


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def cell_digest(stats, cycles) -> str:
    """Digest of one cell: its LLC statistics and its simulated cycles.

    Statistics that break the replay's own identities (every access hits
    or misses; every miss fills or bypasses) are reported as invalid
    instead, so they count as failed whatever the reference says.
    """
    if stats.hits + stats.misses != stats.accesses:
        return "invalid: hits + misses != accesses"
    if stats.fills + stats.bypasses != stats.misses:
        return "invalid: fills + bypasses != misses"
    if cycles is not None and not cycles > 0:
        return "invalid: non-positive cycle count"
    counts = [getattr(stats, name) for name in _STATS_FIELDS]
    return _digest(json.dumps(counts) + "|" + repr(cycles))


def loadsim_digest(result) -> str:
    """Digest of one load-simulation run: event log and p50/p95/p99."""
    return _digest(
        result.event_log_digest()
        + "|" + repr((result.p50, result.p95, result.p99))
    )


def _error(exc: Exception) -> str:
    return f"error: {type(exc).__name__}: {exc}"


def _all_failed(ops, exc: Exception, artifacts=None) -> BodyResult:
    """A body whose call raised: every one of its operations failed."""
    return BodyResult({op: _error(exc) for op in ops}, 0, artifacts or {})


# ----------------------------------------------------------------------
# Figure-4 cells, shared by the cold and the warm sweep
# ----------------------------------------------------------------------
def _config(sizes: Sizes, seed: int, instructions: int):
    from repro.harness.runner import ExperimentConfig

    return ExperimentConfig(scale=sizes.scale, instructions=instructions, seed=seed)


def _cells(sizes: Sizes):
    """``benchmark/technique`` of every cell, each benchmark's LRU baseline first."""
    return [
        f"{benchmark}/{key}"
        for benchmark in sizes.benchmarks
        for key in ("lru",) + tuple(sizes.techniques)
    ]


def _digest_comparison(comparison, sizes: Sizes, artifacts=None) -> BodyResult:
    """One digest per cell of a ``SingleThreadComparison``; a cell the
    sweep did not return reads as an error."""
    outputs: Dict[str, str] = {}
    accesses = 0
    for cell in _cells(sizes):
        benchmark, key = cell.split("/")
        if key == "lru":
            result = comparison.baseline.get(benchmark)
        else:
            result = comparison.results.get(benchmark, {}).get(key)
        if result is None:
            outputs[cell] = "error: cell failed in the sweep"
            continue
        cycles = result.timing.cycles if result.timing is not None else None
        outputs[cell] = cell_digest(result.llc_stats, cycles)
        accesses += result.llc_stats.accesses
    return BodyResult(outputs, accesses, artifacts or {})


# ----------------------------------------------------------------------
# fig4-cold: the serial Figure-4 sweep with no workload store
# ----------------------------------------------------------------------
def setup_fig4_cold(sizes: Sizes, seed: int, workdir: str):
    from repro.harness.runner import WorkloadCache

    return WorkloadCache(_config(sizes, seed, sizes.instructions)), sizes


def body_fig4_cold(state) -> BodyResult:
    # Looked up on the module at call time, so a test can make it raise.
    from repro.harness import experiments

    cache, sizes = state
    geometry = cache.machine.llc
    try:
        for benchmark in sizes.benchmarks:
            # First use of the array substrate gets its own span, instead
            # of hiding inside the first eligible cell's replay.
            stream = cache.filtered(benchmark).llc_stream(geometry)
            stream.replay_index(geometry.num_sets)
            stream.prediction_plane(geometry.num_sets)
        comparison = experiments.single_thread_comparison(
            cache, sizes.techniques, sizes.benchmarks
        )
    except Exception as exc:  # a failed sweep is counted, not fatal
        return _all_failed(_cells(sizes), exc)
    return _digest_comparison(comparison, sizes)


# ----------------------------------------------------------------------
# fig4-warm-jobs2: the same cells through the parallel harness, warm
# ----------------------------------------------------------------------
def setup_fig4_warm(sizes: Sizes, seed: int, workdir: str):
    """Populate an empty workload store, then arm ``REPRO_STREAM_REQUIRE``."""
    from repro.harness.runner import WorkloadCache
    from repro.sim.streamstore import StreamStore

    config = _config(sizes, seed, sizes.instructions)
    store = StreamStore(os.path.join(workdir, "store"))
    populate = WorkloadCache(config, stream_store=store)
    for benchmark in sizes.benchmarks:
        populate.compiled(benchmark)
    os.environ["REPRO_STREAM_REQUIRE"] = "1"
    return WorkloadCache(config), store, sizes, os.path.join(workdir, "events.ndjson")


def body_fig4_warm(state) -> BodyResult:
    from repro.harness.parallel import parallel_single_thread_comparison

    cache, store, sizes, events = state
    artifacts = {"events": events, "manifest": f"{events}.manifest.json"}
    try:
        comparison = parallel_single_thread_comparison(
            cache,
            sizes.techniques,
            sizes.benchmarks,
            jobs=WARM_JOBS,
            stream_cache=store,
            shared_memory=True,
            events_file=events,
            allow_partial=True,
        )
    except Exception as exc:  # a failed sweep is counted, not fatal
        return _all_failed(_cells(sizes), exc, artifacts)
    return _digest_comparison(comparison, sizes, artifacts)


# ----------------------------------------------------------------------
# loadsim-4t: four tenants on a shared LLC, sampler then LRU
# ----------------------------------------------------------------------
def setup_loadsim(sizes: Sizes, seed: int, workdir: str):
    from repro.harness.runner import WorkloadCache
    from repro.loadsim.sim import LoadScenario, resolve_tenant_specs

    cache = WorkloadCache(_config(sizes, seed, sizes.loadsim_instructions))
    scenario = LoadScenario(
        tenants=resolve_tenant_specs(LOADSIM_TENANTS, LOADSIM_ARRIVAL),
        duration=sizes.loadsim_duration,
        seed=seed,
    )
    return cache, scenario


def body_loadsim(state) -> BodyResult:
    from repro.loadsim import sim as loadsim_module

    cache, scenario = state
    try:
        prepared = loadsim_module.prepare_scenario(cache, scenario)
    except Exception as exc:  # a failed prepare fails both runs
        return _all_failed(LOADSIM_RUNS, exc)
    outputs: Dict[str, str] = {}
    accesses = 0
    for key in LOADSIM_RUNS:
        try:
            result = prepared.run(key)
        except Exception as exc:  # a failed run is counted, not fatal
            outputs[key] = _error(exc)
            continue
        outputs[key] = loadsim_digest(result)
        accesses += result.llc_stats.accesses
    return BodyResult(outputs, accesses)


#: name -> (set-up, body, digest table in expected.json, pool size)
WORKLOADS = {
    "fig4-cold": (setup_fig4_cold, body_fig4_cold, "fig4", 1),
    "fig4-warm-jobs2": (setup_fig4_warm, body_fig4_warm, "fig4", WARM_JOBS),
    "loadsim-4t": (setup_loadsim, body_loadsim, "loadsim", 1),
}
