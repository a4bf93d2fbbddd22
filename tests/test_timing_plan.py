"""The core model's per-workload timing plan (:class:`TimingPlan`).

:meth:`CoreModel.run` evaluates flat plan columns built once per
workload; :meth:`CoreModel.run_reference` walks the trace records.  The
two must agree to the last bit of the cycle count for every trace, hit
vector and machine shape, whichever source -- fresh records or a
compiled blob -- the plan came from.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.geometry import CacheGeometry
from repro.harness.runner import ExperimentConfig, WorkloadCache
from repro.replacement import LRUPolicy
from repro.sim.cpu import CoreModel
from repro.sim.hierarchy import FilteredTrace, HierarchyFilter, MachineConfig
from repro.sim.streamstore import StreamStore, compile_filtered
from repro.sim.trace import Trace, TraceRecord

CONFIG = ExperimentConfig(scale=32, instructions=20_000)
#: A tiny machine so short generated traces reach the LLC.
TINY = MachineConfig(
    l1=CacheGeometry(1024, 2, 64),
    l2=CacheGeometry(2048, 4, 64),
    llc=CacheGeometry(4096, 4, 64),
)


@st.composite
def timed_traces(draw):
    """A filtered trace, a hit vector for it, and a valid machine."""
    records = draw(
        st.lists(
            st.builds(
                TraceRecord,
                pc=st.just(0x400000),
                address=st.just(0),
                is_write=st.booleans(),
                # Gaps past the largest window retire several in-flight
                # operations before one record.
                gap=st.integers(min_value=0, max_value=300),
                depends=st.booleans(),
            ),
            max_size=200,
        )
    )
    levels = draw(
        st.lists(
            st.sampled_from([1, 2, 3]),
            min_size=len(records),
            max_size=len(records),
        )
    )
    llc_indices = [index for index, level in enumerate(levels) if level == 3]
    hits = draw(
        st.lists(
            st.booleans(), min_size=len(llc_indices), max_size=len(llc_indices)
        )
    )
    l1_latency = draw(st.integers(min_value=0, max_value=5))
    l2_latency = draw(st.integers(min_value=l1_latency, max_value=20))
    llc_latency = draw(st.integers(min_value=l2_latency + 1, max_value=60))
    memory_latency = draw(st.integers(min_value=llc_latency, max_value=300))
    machine = MachineConfig(
        l1_latency=l1_latency,
        l2_latency=l2_latency,
        llc_latency=llc_latency,
        memory_latency=memory_latency,
        # Non-powers of two make gap / width inexact, so any change in
        # the order of the float additions would show in the cycles.
        width=draw(st.sampled_from([1, 2, 3, 4, 5, 8])),
        window=draw(st.sampled_from([1, 16, 128])),
    )
    filtered = FilteredTrace(Trace("synthetic", records), levels, llc_indices)
    return filtered, hits, machine


@settings(max_examples=300, deadline=None)
@given(timed_traces())
def test_plan_matches_reference_bit_for_bit(case):
    filtered, hits, machine = case
    model = CoreModel(machine)
    plan = model.run(filtered, hits)
    reference = model.run_reference(filtered, hits)
    assert repr(plan.cycles) == repr(reference.cycles)
    assert plan.instructions == reference.instructions


def _lru_hits(cache, filtered):
    return cache.system.run(filtered, lambda g, a: LRUPolicy(), "lru").llc_hits


@settings(max_examples=60, deadline=None)
@given(
    records=st.lists(
        st.builds(
            TraceRecord,
            pc=st.just(0x400000),
            address=st.integers(min_value=0, max_value=1 << 14).map(
                lambda address: address & ~0x3
            ),
            is_write=st.booleans(),
            gap=st.integers(min_value=0, max_value=40),
            depends=st.booleans(),
        ),
        min_size=1,
        max_size=200,
    ),
    data=st.data(),
)
def test_compiled_trace_times_like_its_source(records, data):
    fresh = HierarchyFilter(TINY).filter(Trace("synthetic", records))
    rebuilt = compile_filtered(fresh, TINY, "key").filtered_trace()
    count = len(fresh.llc_indices)
    hits = data.draw(st.lists(st.booleans(), min_size=count, max_size=count))
    model = CoreModel(TINY)
    expected = repr(model.run_reference(fresh, hits).cycles)
    assert repr(model.run(fresh, hits).cycles) == expected
    assert repr(model.run(rebuilt, hits).cycles) == expected


def test_warm_timing_run_never_materializes_records(tmp_path):
    store = StreamStore(tmp_path / "store")
    cold = WorkloadCache(CONFIG, stream_store=store)
    expected = cold.system.run(
        cold.filtered("omnetpp"), lambda g, a: LRUPolicy(), "lru"
    ).timing.cycles

    warm = WorkloadCache(CONFIG, stream_store=store)
    loaded = warm.filtered("omnetpp")
    timing = warm.system.run(loaded, lambda g, a: LRUPolicy(), "lru").timing
    assert warm.stream_hits == 1
    assert repr(timing.cycles) == repr(expected)
    assert loaded.trace.records._list is None


def test_one_plan_per_core_shape():
    cache = WorkloadCache(CONFIG)
    filtered = cache.filtered("hmmer")
    hits = _lru_hits(cache, filtered)
    for window in (16, 128):
        model = CoreModel(MachineConfig(window=window))
        assert repr(model.run(filtered, hits).cycles) == repr(
            model.run_reference(filtered, hits).cycles
        )
    assert len(filtered._plans) == 2
    machine = MachineConfig(window=16)
    assert filtered.timing_plan(machine) is filtered.timing_plan(machine)


@pytest.mark.parametrize(
    "field, value",
    [
        ("l1_latency", 11),
        ("llc_latency", 10),
        ("memory_latency", 29),
        ("width", 0),
        ("window", 0),
    ],
)
def test_machine_config_rejects_broken_latency_order_and_shape(field, value):
    with pytest.raises(ValueError, match=f"MachineConfig.{field} "):
        MachineConfig(**{field: value})


def test_machine_config_accepts_equal_latency_bounds():
    config = MachineConfig(l1_latency=10, memory_latency=30)
    filtered = FilteredTrace(
        Trace("t", [TraceRecord(0, 0, False, 0, False)]), [3], [0]
    )
    assert CoreModel(config).run(filtered, [False]).cycles == 30.0
