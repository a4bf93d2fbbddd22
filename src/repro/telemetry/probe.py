"""The telemetry probe API: interval time-series instrumentation.

The paper's dead-block predictor is a *phase* mechanism -- coverage,
false-positive rate, and bypass rate swing as a workload moves between
phases (Section VII-C discusses exactly such dynamics) -- yet end-of-run
aggregates average those swings away.  A probe attached to a cache turns
one replay into a per-epoch time series without perturbing it.

Design constraints, in priority order:

1. **Transparency**: probes are strictly observational.  Replay results
   (hit vectors, statistics, block and policy state) are bit-identical
   with any probe attached or not; ``tests/test_telemetry_transparency.py``
   pins this.
2. **Probes-off is free**: the default :data:`NULL_PROBE` is checked once
   per *replay*, not once per access -- the fast path of
   :func:`repro.sim.replay.replay` is byte-for-byte the code that runs
   without telemetry (perfbench's replay layer times it).
3. **Pull, not push**: instead of per-event callbacks, the
   :class:`IntervalRecorder` reads cumulative counters
   (:class:`~repro.cache.stats.CacheStats`, the accuracy observer, and
   any component exposing ``telemetry_snapshot()``) at epoch boundaries
   and differences them.  Hot loops never see the probe.

Component gauges
----------------

Any object reachable as ``cache.policy`` may expose
``telemetry_snapshot() -> Dict[str, float]`` (see
:meth:`repro.replacement.base.ReplacementPolicy.telemetry_snapshot`).
Keys ending in ``_count`` are treated as cumulative counters and emitted
as per-epoch deltas under ``<key minus _count>_per_epoch``; every other
key is a point-in-time gauge and passes through raw.  The shipped
components report:

* sampler: ``sampler_occupancy`` plus access/hit/eviction counts
  (:meth:`repro.core.sampler.Sampler.telemetry_snapshot`);
* skewed tables: ``table_saturation`` / ``table_mean_counter``
  (:meth:`repro.core.skewed.SkewedCounterTable.telemetry_snapshot`).

Coverage and false positives need ground truth an aggregate counter
cannot supply; when an
:class:`~repro.analysis.accuracy.AccuracyObserver` is attached to the
cache the recorder differences its counters into per-epoch ``coverage``
and ``false_positive_rate`` series (recognized structurally, so the
probe layer imports nothing from the analysis layer).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

__all__ = [
    "NULL_PROBE",
    "IntervalRecorder",
    "IntervalSample",
    "NullProbe",
    "TelemetryProbe",
]

#: Stats counters differenced into every sample, in export order.
STAT_FIELDS = (
    "accesses",
    "hits",
    "misses",
    "fills",
    "evictions",
    "writebacks",
    "bypasses",
    "dead_block_victims",
)

#: Suffix marking a ``telemetry_snapshot`` key as a cumulative counter.
_COUNT_SUFFIX = "_count"


class TelemetryProbe:
    """Interface the replay engine drives; the base class is inert.

    ``enabled`` is a class attribute checked exactly once per replay: a
    disabled probe costs one attribute read per replayed stream.  When
    enabled, the replay engine calls :meth:`begin_run` before the first
    access, :meth:`on_epoch` at every epoch boundary (the final boundary
    always lands on the end of the stream), and :meth:`end_run` after
    the last -- on both the inlined fast path and the observer/subclass
    reference path.
    """

    enabled = False

    def resolve_epoch(self, total_accesses: int) -> int:
        """Epoch length in LLC accesses for a stream of ``total_accesses``."""
        return max(1, total_accesses)

    def set_context(self, **context: Any) -> None:
        """Attach run metadata (workload, technique, instruction count)."""

    def begin_run(self, cache, total_accesses: int) -> None:
        """The replay of ``total_accesses`` accesses is about to start."""

    def on_epoch(self, cache, position: int) -> None:
        """``position`` accesses have been replayed (epoch boundary)."""

    def end_run(self, cache, position: int) -> None:
        """The replay finished at ``position`` accesses."""


class NullProbe(TelemetryProbe):
    """The default probe: does nothing, costs nothing."""


#: Shared inert probe; ``Cache`` uses it when no probe is supplied, so
#: ``cache.probe`` is always a valid object and never needs a None check.
NULL_PROBE = NullProbe()


@dataclass
class IntervalSample:
    """One epoch of a replayed stream.

    Counter fields are per-epoch deltas of the cache statistics;
    ``gauges`` carries component snapshots (see the module docstring for
    the counter-vs-gauge convention) plus, when an accuracy observer is
    attached, per-epoch ``coverage`` and ``false_positive_rate``.
    """

    epoch: int
    start: int  # stream position of the epoch's first access
    end: int    # one past the epoch's last access
    accesses: int = 0
    hits: int = 0
    misses: int = 0
    fills: int = 0
    evictions: int = 0
    writebacks: int = 0
    bypasses: int = 0
    dead_block_victims: int = 0
    instructions_est: Optional[float] = None
    gauges: Dict[str, float] = field(default_factory=dict)

    @property
    def miss_rate(self) -> float:
        """Demand miss ratio within the epoch."""
        return self.misses / self.accesses if self.accesses else 0.0

    @property
    def bypass_rate(self) -> float:
        """Fraction of the epoch's misses that bypassed the LLC."""
        return self.bypasses / self.misses if self.misses else 0.0

    @property
    def mpki(self) -> Optional[float]:
        """Epoch MPKI against the estimated instruction share, or None."""
        if not self.instructions_est:
            return None
        return self.misses * 1000.0 / self.instructions_est

    def to_dict(self) -> Dict[str, Any]:
        """Flat, JSON-ready row (derived rates included)."""
        row: Dict[str, Any] = {"epoch": self.epoch, "start": self.start, "end": self.end}
        for name in STAT_FIELDS:
            row[name] = getattr(self, name)
        row["miss_rate"] = self.miss_rate
        row["bypass_rate"] = self.bypass_rate
        if self.instructions_est is not None:
            row["instructions_est"] = self.instructions_est
            row["mpki"] = self.mpki
        row.update(self.gauges)
        return row


class IntervalRecorder(TelemetryProbe):
    """Records per-epoch :class:`IntervalSample` rows during a replay.

    Args:
        epochs: target number of epochs per run; the epoch length is
            derived from the stream length (at least one access each).
        epoch_accesses: fixed epoch length in LLC accesses, overriding
            ``epochs``.

    One recorder observes one run at a time; a new :meth:`begin_run`
    starts a fresh sample list (reuse across techniques would silently
    splice unrelated series).  The completed series is in ``samples``
    and the run metadata in ``context``.
    """

    enabled = True

    def __init__(self, epochs: int = 32, epoch_accesses: Optional[int] = None) -> None:
        if epochs < 1:
            raise ValueError(f"epochs must be positive, got {epochs}")
        if epoch_accesses is not None and epoch_accesses < 1:
            raise ValueError(
                f"epoch_accesses must be positive, got {epoch_accesses}"
            )
        self.epochs = epochs
        self.epoch_accesses = epoch_accesses
        self.context: Dict[str, Any] = {}
        self.samples: List[IntervalSample] = []
        self.total_accesses = 0
        self._stats_floor = None
        self._accuracy_floor: Optional[Dict[str, int]] = None
        self._gauge_floor: Dict[str, float] = {}
        self._position = 0

    # ------------------------------------------------------------------
    # probe interface
    # ------------------------------------------------------------------
    def resolve_epoch(self, total_accesses: int) -> int:
        if self.epoch_accesses is not None:
            return self.epoch_accesses
        return max(1, -(-total_accesses // self.epochs))  # ceil division

    def set_context(self, **context: Any) -> None:
        self.context.update(context)

    def begin_run(self, cache, total_accesses: int) -> None:
        self.samples = []
        self.total_accesses = total_accesses
        self._position = 0
        self._stats_floor = cache.stats.snapshot()
        self._accuracy_floor = self._accuracy_counters(cache)
        self._gauge_floor = self._component_snapshot(cache)

    def on_epoch(self, cache, position: int) -> None:
        stats = cache.stats
        floor = self._stats_floor
        sample = IntervalSample(
            epoch=len(self.samples), start=self._position, end=position
        )
        for name in STAT_FIELDS:
            setattr(sample, name, getattr(stats, name) - getattr(floor, name))
        instructions = self.context.get("instructions")
        if instructions and self.total_accesses:
            sample.instructions_est = (
                instructions * sample.accesses / self.total_accesses
            )
        self._attach_accuracy(cache, sample)
        self._attach_gauges(cache, sample)
        self.samples.append(sample)
        self._position = position
        self._stats_floor = stats.snapshot()

    def end_run(self, cache, position: int) -> None:
        if position > self._position:
            # Trailing partial epoch (reference path streams whose length
            # is not a multiple of the epoch).
            self.on_epoch(cache, position)

    # ------------------------------------------------------------------
    # counter sources
    # ------------------------------------------------------------------
    @staticmethod
    def _accuracy_counters(cache) -> Optional[Dict[str, int]]:
        """Cumulative counters of an attached accuracy observer, or None.

        Recognized structurally (``positives`` / ``false_positives`` /
        ``accesses`` attributes) so this module never imports the
        analysis layer.
        """
        for observer in getattr(cache, "_observers", ()):
            positives = getattr(observer, "positives", None)
            false_positives = getattr(observer, "false_positives", None)
            accesses = getattr(observer, "accesses", None)
            if None not in (positives, false_positives, accesses):
                return {
                    "positives": positives,
                    "false_positives": false_positives,
                    "accesses": accesses,
                }
        return None

    def _attach_accuracy(self, cache, sample: IntervalSample) -> None:
        now = self._accuracy_counters(cache)
        floor = self._accuracy_floor
        if now is None or floor is None:
            return
        accesses = now["accesses"] - floor["accesses"]
        if accesses > 0:
            sample.gauges["coverage"] = (
                now["positives"] - floor["positives"]
            ) / accesses
            sample.gauges["false_positive_rate"] = (
                now["false_positives"] - floor["false_positives"]
            ) / accesses
        self._accuracy_floor = now

    @staticmethod
    def _component_snapshot(cache) -> Dict[str, float]:
        snapshot = getattr(cache.policy, "telemetry_snapshot", None)
        return dict(snapshot()) if snapshot is not None else {}

    def _attach_gauges(self, cache, sample: IntervalSample) -> None:
        snapshot = self._component_snapshot(cache)
        floor = self._gauge_floor
        for key, value in snapshot.items():
            if key.endswith(_COUNT_SUFFIX):
                delta = value - floor.get(key, 0)
                sample.gauges[key[: -len(_COUNT_SUFFIX)] + "_per_epoch"] = delta
            else:
                sample.gauges[key] = value
        self._gauge_floor = snapshot

    # ------------------------------------------------------------------
    # series access
    # ------------------------------------------------------------------
    def fields(self) -> List[str]:
        """Union of row columns across samples, in first-seen order."""
        seen: Dict[str, None] = {}
        for sample in self.samples:
            for key in sample.to_dict():
                seen.setdefault(key)
        return list(seen)

    def series(self, name: str) -> List[Optional[float]]:
        """One column across epochs (None where a sample lacks it)."""
        return [sample.to_dict().get(name) for sample in self.samples]

    def __repr__(self) -> str:
        label = self.context.get("workload", "?")
        return (
            f"IntervalRecorder({label}, {len(self.samples)} samples, "
            f"epochs={self.epochs})"
        )
