"""Telemetry transparency: probes must never change replay results.

The contract (docs/observability.md): replaying a stream with an
:class:`~repro.telemetry.probe.IntervalRecorder` attached produces
bit-identical hit vectors, statistics, block contents, and policy state
to the same replay with the default
:data:`~repro.telemetry.probe.NULL_PROBE` -- on the inlined fast path,
on the observer/reference path, and through the whole
``timeseries_experiment`` stack.  The recorder's per-epoch deltas must
also sum to exactly the end-of-run aggregates, or the time series would
disagree with the tables built from the same run.
"""

from __future__ import annotations

import pytest

from repro.cache.cache import Cache, CacheAccess, CacheGeometry
from repro.analysis.accuracy import AccuracyObserver
from repro.core import DBRBPolicy, SamplingDeadBlockPredictor
from repro.replacement import DRRIPPolicy, LRUPolicy, RandomPolicy
from repro.sim.hierarchy import PreparedStream
from repro.sim.replay import replay
from repro.telemetry import NULL_PROBE, IntervalRecorder
from repro.utils.rng import XorShift64

GEOMETRY = CacheGeometry(size_bytes=32 * 4 * 64, associativity=4, block_bytes=64)

POLICIES = {
    "lru": lambda: LRUPolicy(),
    "random": lambda: RandomPolicy(),
    "rrip": lambda: DRRIPPolicy(),
    "dbrb": lambda: DBRBPolicy(LRUPolicy(), SamplingDeadBlockPredictor()),
}


def make_stream(length: int = 6000, blocks: int = 300):
    """Deterministic mix of reuse and cold streaming (hits, evictions,
    writebacks, and -- under DBRB -- bypasses)."""
    rng = XorShift64(0xBEEF)
    accesses = []
    next_cold = blocks
    for seq in range(length):
        if rng.randrange(2):
            block = rng.randrange(blocks)
            pc = 0x400000 + (block % 13) * 4
        else:
            block = next_cold
            next_cold += 1
            pc = 0x500000 + (seq % 7) * 4
        accesses.append(
            CacheAccess(
                address=block * GEOMETRY.block_bytes,
                pc=pc,
                is_write=rng.randrange(4) == 0,
                seq=seq,
            )
        )
    return accesses


def block_state(cache: Cache):
    return [
        (
            block.valid, block.tag, block.dirty, block.predicted_dead,
            block.fill_seq, block.last_access_seq, block.access_count,
        )
        for ways in cache.sets
        for block in ways
    ]


def run(policy_factory, probe, observers=False):
    cache = Cache(GEOMETRY, policy_factory(), probe=probe)
    observer = None
    if observers:
        observer = AccuracyObserver(cache)
        cache.add_observer(observer)
    hits = replay(cache, PreparedStream.from_accesses(make_stream(), GEOMETRY))
    return cache, hits, observer


@pytest.mark.parametrize("name", sorted(POLICIES))
def test_recorder_is_bit_identical_on_fast_path(name):
    factory = POLICIES[name]
    base_cache, base_hits, _ = run(factory, NULL_PROBE)
    recorder = IntervalRecorder(epochs=7)  # deliberately not a divisor
    probed_cache, probed_hits, _ = run(factory, recorder)

    assert probed_hits == base_hits
    assert probed_cache.stats.snapshot() == base_cache.stats.snapshot()
    assert block_state(probed_cache) == block_state(base_cache)
    assert len(recorder.samples) == 7


@pytest.mark.parametrize("name", ["lru", "dbrb"])
def test_recorder_is_bit_identical_on_reference_path(name):
    factory = POLICIES[name]
    base_cache, base_hits, base_observer = run(factory, NULL_PROBE, observers=True)
    recorder = IntervalRecorder(epochs=5)
    probed_cache, probed_hits, probed_observer = run(
        factory, recorder, observers=True
    )

    assert probed_hits == base_hits
    assert probed_cache.stats.snapshot() == base_cache.stats.snapshot()
    assert block_state(probed_cache) == block_state(base_cache)
    assert probed_observer.positives == base_observer.positives
    assert probed_observer.false_positives == base_observer.false_positives
    assert probed_observer.accesses == base_observer.accesses


def test_epoch_deltas_sum_to_run_totals():
    recorder = IntervalRecorder(epochs=9)
    cache, _, _ = run(POLICIES["dbrb"], recorder)
    stats = cache.stats
    for field in ("accesses", "hits", "misses", "fills", "evictions",
                  "writebacks", "bypasses", "dead_block_victims"):
        assert sum(getattr(s, field) for s in recorder.samples) == \
            getattr(stats, field), field
    # Epochs tile the stream exactly: contiguous, complete, in order.
    assert recorder.samples[0].start == 0
    assert recorder.samples[-1].end == stats.accesses
    for before, after in zip(recorder.samples, recorder.samples[1:]):
        assert after.start == before.end


def test_timeseries_experiment_matches_probeless_run():
    """End to end: the timeseries cell's aggregates equal a plain run."""
    from repro.harness import ExperimentConfig, WorkloadCache, TECHNIQUES
    from repro.harness import timeseries_experiment

    config = ExperimentConfig(scale=32, instructions=30_000, seed=7)
    cache = WorkloadCache(config)
    result = timeseries_experiment(cache, "mcf", "sampler", epochs=6)

    technique = TECHNIQUES["sampler"]
    plain = cache.system.run(
        cache.filtered("mcf"),
        lambda g, a: technique.build(g, a),
        technique_name="sampler",
        observer_factories=[AccuracyObserver],
        compute_timing=False,
    )
    assert result.run.llc_hits == plain.llc_hits
    assert result.run.llc_stats.snapshot() == plain.llc_stats.snapshot()
    assert result.samples, "recorder captured no epochs"
    columns = result.recorder.fields()
    for required in ("coverage", "false_positive_rate", "bypass_rate",
                     "sampler_occupancy", "table_saturation"):
        assert required in columns, required
