"""The columnar front end: traces, filtered levels and LLC streams with
no per-record objects on the array path.

Pins what must not move when the representation does: record-view
equality by value, the Trace columns <-> TraceRecord round trip for
every suite benchmark, the compiled blob bytes and store keys, and the
array path of a Figure-4 sweep never building a ``CacheAccess`` --
while the access list, when something asks for it, is exactly the one
the eager construction produced.
"""

from __future__ import annotations

import hashlib
from array import array

import pytest

from repro.cache.cache import CacheAccess
from repro.harness import experiments
from repro.harness.runner import ExperimentConfig, WorkloadCache
from repro.harness.techniques import SINGLE_THREAD_TECHNIQUES
from repro.sim.multicore import CORE_ADDRESS_SHIFT
from repro.loadsim.sim import LoadScenario, TenantSpec, prepare_scenario
from repro.sim.streamstore import StreamStore, compile_filtered, encode_filtered
from repro.sim.trace import Trace, TraceRecord
from repro.sim.traceio import load_trace, save_trace
from repro.workloads import ALL_BENCHMARKS, build_trace
from repro.workloads.base import TraceBuilder

#: The pinned blobs' configuration (scale 1/32: a 64KB LLC).
PIN_CONFIG = ExperimentConfig(scale=32, instructions=20_000, seed=1)
#: ``(store key, sha256 of encode_filtered's blob)`` per workload,
#: recorded from the record-based front end this one replaced.
PINNED_BLOBS = {
    "mcf": (
        "rstream-v2|benchmark=mcf|instructions=20000|seed=1|l1=1024:8:64"
        "|l2=8192:8:64|llc=65536:16:64|spec=7a80f1412579facd",
        "3309c140b7a4c41ebe0cc005e4279e8e8177fc841890bf7f2b3c8fba8d1ab0d6",
    ),
    "zipf(a=1.2)": (
        "rstream-v2|benchmark=zipf(a=1.2)|instructions=20000|seed=1"
        "|l1=1024:8:64|l2=8192:8:64|llc=65536:16:64|spec=8067407f38ed8c31",
        "05e0de34115c33d36f137c101f6fc8dfecbde777ef6aafe7b1d043ee54704ae1",
    ),
}
LLC_BYTES = 64 * 1024


def records_of(*tuples):
    return [TraceRecord(*fields) for fields in tuples]


def eager_accesses(pcs, addresses, writes, core=0, offset=0):
    """The access list the eager front end built for every stream."""
    return [
        CacheAccess(address + offset, pc, write, position, core)
        for position, (pc, address, write) in enumerate(zip(pcs, addresses, writes))
    ]


def access_fields(accesses):
    return [
        (access.address, access.pc, access.is_write, access.seq, access.core)
        for access in accesses
    ]


# ----------------------------------------------------------------------
# record views
# ----------------------------------------------------------------------
class TestRecordViewEquality:
    RECORDS = records_of((4, 64, False, 2, True), (8, 128, True, 0, False))

    def test_equal_views_compare_by_value_without_materializing(self):
        first = Trace("a", self.RECORDS).records
        second = Trace("b", self.RECORDS).records
        assert first is not second
        assert first == second
        assert not first != second
        assert first._list is None and second._list is None

    def test_unequal_views(self):
        view = Trace("a", self.RECORDS).records
        flipped = records_of((4, 64, True, 2, True), (8, 128, True, 0, False))
        assert view != Trace("b", flipped).records
        assert view != Trace("c", self.RECORDS[:1]).records
        assert not view == Trace("d", []).records

    def test_view_against_list(self):
        view = Trace("a", self.RECORDS).records
        assert view == self.RECORDS
        assert self.RECORDS == view
        assert view == tuple(self.RECORDS)
        assert view != self.RECORDS[:1]
        assert view != list(reversed(self.RECORDS))
        assert view != "not records"

    def test_cold_view_equals_compiled_view(self):
        filtered = WorkloadCache(PIN_CONFIG).filtered("hmmer")
        compiled = compile_filtered(filtered, PIN_CONFIG.machine(), "k")
        rebuilt = compiled.filtered_trace()
        assert rebuilt.trace.records == filtered.trace.records
        assert rebuilt.trace.records._list is None
        assert filtered.trace.records._list is None

    def test_len_reads_a_column(self):
        trace = Trace("a", self.RECORDS)
        assert len(trace.records) == 2
        assert trace.records._list is None
        assert trace.records is trace.records

    def test_builder_records_stay_a_view(self):
        builder = TraceBuilder("b", 100)
        builder.load(4, 64, gap=2, depends=True)
        builder.store(8, 128, gap=0)
        assert builder.records == self.RECORDS
        assert builder.build().records == self.RECORDS


# ----------------------------------------------------------------------
# columns <-> records
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", ALL_BENCHMARKS)
def test_columns_round_trip_through_records(name):
    trace = build_trace(name, 6_000, LLC_BYTES)
    records = list(trace.records)
    assert len(records) == len(trace) > 0
    assert [r.pc for r in records] == list(trace.pcs)
    assert [r.address for r in records] == list(trace.addresses)
    assert [r.gap for r in records] == list(trace.gaps)
    assert [r.is_write | r.depends << 1 for r in records] == list(trace.flags)
    rebuilt = Trace(name, records, instructions=trace.instructions)
    for column in ("pcs", "addresses", "gaps"):
        assert getattr(rebuilt, column).typecode == getattr(trace, column).typecode
        assert getattr(rebuilt, column) == getattr(trace, column)
    assert rebuilt.flags == trace.flags
    assert rebuilt.records == trace.records


def test_cold_and_compiled_columns_share_item_formats():
    filtered = WorkloadCache(PIN_CONFIG).filtered("omnetpp")
    cold = filtered.trace
    compiled = compile_filtered(filtered, PIN_CONFIG.machine(), "k").filtered_trace()
    warm = compiled.trace
    assert (cold.pcs.typecode, cold.addresses.typecode, cold.gaps.typecode) == (
        "Q",
        "Q",
        "q",
    )
    assert isinstance(cold.flags, bytearray)
    for column in ("pcs", "addresses", "gaps", "flags"):
        assert memoryview(getattr(cold, column)).format == getattr(warm, column).format
        assert getattr(cold, column) == getattr(warm, column)
    # The LLC columns are the same types on both paths.
    assert [type(c) for c in compiled.llc_arrays()] == [
        type(c) for c in filtered.llc_arrays()
    ]


# ----------------------------------------------------------------------
# compiled blobs and store keys, byte for byte
# ----------------------------------------------------------------------
@pytest.mark.parametrize("workload", sorted(PINNED_BLOBS))
def test_compiled_blob_and_store_key_are_pinned(workload):
    key, blob_sha = PINNED_BLOBS[workload]
    cache = WorkloadCache(PIN_CONFIG)
    assert cache.workload_key(workload, PIN_CONFIG.instructions) == key
    blob = encode_filtered(cache.filtered(workload), cache.machine, key)
    assert hashlib.sha256(blob).hexdigest() == blob_sha
    assert StreamStore.digest_for_key(key) == hashlib.sha256(key.encode()).hexdigest()


# ----------------------------------------------------------------------
# the array path builds no access object
# ----------------------------------------------------------------------
def test_figure4_sweep_on_the_array_path_builds_no_access(monkeypatch):
    built = []
    original_init = CacheAccess.__init__

    def counting_init(self, *args, **kwargs):
        built.append(1)
        original_init(self, *args, **kwargs)

    monkeypatch.setattr(CacheAccess, "__init__", counting_init)
    cache = WorkloadCache(PIN_CONFIG)
    benchmarks = ("mcf", "libquantum")
    comparison = experiments.single_thread_comparison(
        cache, SINGLE_THREAD_TECHNIQUES, benchmarks
    )
    assert "optimal" in SINGLE_THREAD_TECHNIQUES
    for benchmark in benchmarks:
        cells = [comparison.baseline[benchmark]]
        cells += comparison.results[benchmark].values()
        assert [cell.kernel for cell in cells] == ["array"] * 7
    assert built == []
    monkeypatch.undo()

    for benchmark in benchmarks:
        filtered = cache.filtered(benchmark)
        assert filtered._streams
        for stream in filtered._streams.values():
            assert stream._accesses is None
            assert access_fields(stream.accesses) == access_fields(
                eager_accesses(*filtered.llc_arrays())
            )
            assert stream.accesses is stream.accesses


def test_loadsim_tenant_stream_accesses_match_eager_construction():
    cache = WorkloadCache(ExperimentConfig(scale=32, instructions=8_000, num_cores=2))
    scenario = LoadScenario(
        tenants=(
            TenantSpec(workload="zipf(a=1.2)", arrival="poisson(rate=1)"),
            TenantSpec(workload="hotspot", arrival="poisson(rate=1)"),
        ),
        duration=1_000.0,
        seed=5,
    )
    prepared = prepare_scenario(cache, scenario)
    tenant = prepared.tenants[1]
    stream = tenant.stream
    assert stream._accesses is None
    expected = eager_accesses(
        *cache.filtered("hotspot").llc_arrays(),
        core=1,
        offset=1 << CORE_ADDRESS_SHIFT,
    )
    assert access_fields(stream.accesses) == access_fields(expected)
    assert all(type(access.is_write) is bool for access in stream.accesses)


def test_trace_concatenation_and_import_build_columns(tmp_path):
    a = build_trace("mcf", 3_000, LLC_BYTES)
    b = build_trace("lbm", 3_000, LLC_BYTES)
    joined = Trace.concatenate("ab", [a, b])
    assert isinstance(joined.pcs, array) and isinstance(joined.flags, bytearray)
    assert joined.records == list(a.records) + list(b.records)
    path = tmp_path / "ab.trace"
    save_trace(joined, path)
    loaded = load_trace(path)
    assert isinstance(loaded.addresses, array)
    assert loaded.records == joined.records
    assert loaded.records._list is None
