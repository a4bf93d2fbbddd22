"""Experiment configuration and workload caching.

The paper runs one-billion-instruction SimPoints on a 2MB-LLC machine; a
pure-Python reproduction scales both down.  :class:`ExperimentConfig`
holds the knobs, reads overrides from the environment, and builds the
machine; :class:`WorkloadCache` memoizes generated traces and their
L1/L2 filtering so the six techniques of Figure 4 (and the benchmark
suite's many processes' worth of figures) share one filtering pass per
workload, a Figure-10 mix's members included.

Environment overrides: ``REPRO_SCALE``, ``REPRO_INSTRUCTIONS``,
``REPRO_SEED`` and ``REPRO_CORES`` set :class:`ExperimentConfig` through
:meth:`ExperimentConfig.from_env`.  README's knob block lists every
``REPRO_*`` knob, its default and the one rule by which
:mod:`repro.utils.env` reads them all.

``REPRO_JOBS`` is read by :mod:`repro.harness.parallel`, not here: every
figure function runs its cells through that module's one driver, so it
controls how many cells of any figure -- Figures 1, 4-10, Table III,
the pattern sweep -- run concurrently, and has no effect on simulated
results (see docs/performance.md).  The same driver reads the
checkpoint/timeout/retry knobs of the fault-tolerance layer
(:mod:`repro.harness.checkpoint`, :mod:`repro.harness.faults`; see
docs/robustness.md), which likewise never change simulated results,
and the observability knobs: ``REPRO_EVENTS_FILE`` writes a figure's
progress events and, next to them, its run manifest
(``<events>.manifest.json``, or ``REPRO_MANIFEST``; see
docs/observability.md);
``REPRO_PARANOID`` is read by :class:`repro.cache.Cache` and only makes
runs slower and invariant violations loud.  ``REPRO_STREAM_CACHE`` and
``REPRO_SHM`` enable the compiled workload store and its shared-memory
fan-out (:mod:`repro.sim.streamstore`; see docs/performance.md) --
again purely a performance lever: a workload loaded from the store or
attached from a shared segment replays bit-identically to one built
from scratch.

``REPRO_SCALE=1 REPRO_INSTRUCTIONS=1000000000`` reproduces the paper's
exact machine and budget (at Python speed: bring a cluster and patience).
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Dict, Mapping, Optional, Tuple, Union

from repro.sim.hierarchy import FilteredTrace, MachineConfig
from repro.sim.multicore import MulticoreSystem, PreparedMix
from repro.sim.streamstore import (
    CompiledWorkload,
    StreamStore,
    compile_filtered,
    stream_compile_required,
)
from repro.sim.system import SingleCoreSystem
from repro.utils.env import env_number
from repro.workloads import build_trace, mix_cores, mix_members, workload_spec_digest

__all__ = ["ExperimentConfig", "WorkloadCache"]


@dataclass(frozen=True)
class ExperimentConfig:
    """Scale, budget, and seed for one experiment campaign."""

    scale: int = 8
    instructions: int = 400_000
    seed: int = 1
    num_cores: int = 4  # for the multicore experiments

    def __post_init__(self) -> None:
        for field in fields(self):
            value = getattr(self, field.name)
            if not isinstance(value, int) or isinstance(value, bool) or value <= 0:
                raise ValueError(
                    f"{field.name} must be a positive integer, got {value!r}"
                )

    @classmethod
    def from_env(cls) -> "ExperimentConfig":
        """Build from ``REPRO_*`` environment variables (see module doc)."""
        return cls(
            scale=env_number("REPRO_SCALE", cls.scale),
            instructions=env_number("REPRO_INSTRUCTIONS", cls.instructions),
            seed=env_number("REPRO_SEED", cls.seed),
            num_cores=env_number("REPRO_CORES", cls.num_cores),
        )

    def machine(self) -> MachineConfig:
        """The scaled machine."""
        return MachineConfig().scaled(self.scale)

    def describe(self) -> str:
        machine = self.machine()
        return (
            f"scale 1/{self.scale} machine (LLC {machine.llc.describe()}), "
            f"{self.instructions:,} instructions/benchmark, seed {self.seed}"
        )


class WorkloadCache:
    """Memoizes generated traces, filtering passes, and prepared mixes.

    :meth:`filtered` and :meth:`compiled` serve a workload -- a
    ``(benchmark, budget, seed)`` triple, the seed defaulting to
    ``config.seed`` -- through one lookup chain:

    1. the in-memory memo (free; not counted);
    2. ``compiled_streams`` -- pre-compiled blobs handed over by the
       parent process, typically views into shared-memory segments,
       re-keyed on their store keys (counted as a ``stream_hits``);
    3. ``stream_store`` -- the on-disk store (a hit);
    4. a cold build (a ``stream_misses``), written back to the store
       when one is attached so the next run starts warm.

    Every path yields bit-identical replay results; the counters exist
    so sweeps can *prove* the warm paths were taken (they land in the
    run manifest).
    """

    def __init__(
        self,
        config: ExperimentConfig,
        stream_store: Optional[StreamStore] = None,
        compiled_streams: Optional[Mapping[str, CompiledWorkload]] = None,
    ) -> None:
        self.config = config
        self.machine = config.machine()
        self.system = SingleCoreSystem(self.machine)
        self.multicore = MulticoreSystem(self.machine, num_cores=config.num_cores)
        self.stream_store = stream_store
        self.compiled_streams = {
            blob.key: blob for blob in (compiled_streams or {}).values()
        }
        self.stream_hits = 0
        self.stream_misses = 0
        self._filtered: Dict[Tuple[str, int, int], FilteredTrace] = {}
        self._mixes: Dict[Tuple[str, int], PreparedMix] = {}
        self._spec_digests: Dict[Tuple[str, int], str] = {}

    def workload_key(self, benchmark: str, budget: int, seed: Optional[int] = None) -> str:
        """The store key for one of this cache's workloads.

        Folds the workload's canonical spec digest into the key, so two
        parameterized patterns that *render* alike but differ in content
        (a re-imported trace, a changed family default) can never share
        a blob.  Digests are memoized per benchmark and seed -- for trace
        workloads computing one means hashing the trace file.
        """
        seed = self.config.seed if seed is None else seed
        digest = self._spec_digests.get((benchmark, seed))
        if digest is None:
            digest = workload_spec_digest(benchmark, seed)
            self._spec_digests[(benchmark, seed)] = digest
        return StreamStore.workload_key(
            benchmark, budget, seed, self.machine, spec_digest=digest
        )

    def filtered(
        self, benchmark: str, instructions: int = 0, *, seed: Optional[int] = None
    ) -> FilteredTrace:
        """The L1/L2-filtered trace for a benchmark (cached)."""
        return self._lookup(benchmark, instructions, seed, compiled=False)

    def compiled(
        self, benchmark: str, instructions: int = 0, *, seed: Optional[int] = None
    ) -> CompiledWorkload:
        """The compiled (flat-buffer) form of a workload.

        Compiled fresh (and written back to an attached store) when no
        blob is handed over or stored.  Parents use this to build
        shared-memory exports.
        """
        return self._lookup(benchmark, instructions, seed, compiled=True)

    def _lookup(
        self, benchmark: str, instructions: int, seed: Optional[int], compiled: bool
    ) -> Union[FilteredTrace, CompiledWorkload]:
        """The one lookup chain (see the class doc) behind both forms."""
        budget = instructions or self.config.instructions
        seed = self.config.seed if seed is None else seed
        key = (benchmark, budget, seed)
        filtered = self._filtered.get(key)
        if filtered is not None and not compiled:
            return filtered
        store_key = self.workload_key(benchmark, budget, seed)
        blob = self.compiled_streams.get(store_key)
        if blob is None and self.stream_store is not None:
            blob = self.stream_store.load(store_key)
        if blob is not None:
            self.stream_hits += 1
        else:
            if filtered is None:
                filtered = self._filtered[key] = self._build(*key)
                self.stream_misses += 1
            if compiled or self.stream_store is not None:
                blob = compile_filtered(filtered, self.machine, store_key)
                if self.stream_store is not None:
                    self.stream_store.store(blob)
        if compiled:
            self.compiled_streams[store_key] = blob
            return blob
        if filtered is None:
            filtered = self._filtered[key] = blob.filtered_trace()
        return filtered

    def _build(self, benchmark: str, budget: int, seed: int) -> FilteredTrace:
        """Cold path: generate the trace and run the filtering pass."""
        if stream_compile_required():
            raise RuntimeError(
                f"REPRO_STREAM_REQUIRE is set but workload {benchmark!r} "
                f"(budget {budget}) is not in the compiled store -- a warm "
                "path was expected and a cold compile was about to happen"
            )
        trace = build_trace(benchmark, budget, self.machine.llc.size_bytes, seed=seed)
        return self.system.prepare(trace)

    def prepared_mix(self, mix_name: str, instructions: int = 0) -> PreparedMix:
        """The prepared multi-core mix (cached), including solo baselines.

        Each core's member is :meth:`filtered` at the seed
        :func:`~repro.workloads.mixes.mix_cores` gives it, sized against
        the per-core LLC like a single-core run.  Raises KeyError when
        ``mix_name`` is not a mix.
        """
        budget = instructions or self.config.instructions
        key = (mix_name, budget)
        if key not in self._mixes:
            cores = mix_cores(mix_name, self.config.seed)
            if cores is None:
                mix_members(mix_name)  # not a mix: raises the unknown-mix KeyError
            members = [self.filtered(name, budget, seed=seed) for name, seed in cores]
            self._mixes[key] = self.multicore.prepare(mix_name, members)
        return self._mixes[key]

    def clear(self) -> None:
        """Drop all cached workloads (frees memory between experiments)."""
        self._filtered.clear()
        self._mixes.clear()
