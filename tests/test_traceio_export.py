"""Tests for trace persistence and JSON result export."""

import json

import pytest

from repro.harness import ExperimentConfig, WorkloadCache, single_thread_comparison
from repro.harness.export import export_json, to_dict
from repro.sim.trace import Trace, TraceRecord
from repro.sim.traceio import load_trace, save_trace
from repro.workloads import build_trace


def sample_trace():
    return Trace(
        "sample",
        [
            TraceRecord(0x400100, 0x1000, False, 3, False),
            TraceRecord(0x400104, 0x2040, True, 0, False),
            TraceRecord(0x400108, 0xDEADBEC0, False, 7, True),
        ],
    )


class TestTraceIO:
    def test_round_trip(self, tmp_path):
        original = sample_trace()
        path = tmp_path / "t.trace"
        save_trace(original, path)
        loaded = load_trace(path)
        assert loaded.name == "sample"
        assert loaded.records == original.records
        assert loaded.instructions == original.instructions

    def test_gzip_round_trip(self, tmp_path):
        original = sample_trace()
        path = tmp_path / "t.trace.gz"
        save_trace(original, path)
        assert load_trace(path).records == original.records

    def test_generated_workload_round_trip(self, tmp_path):
        original = build_trace("hmmer", 20_000, 64 * 1024)
        path = tmp_path / "hmmer.trace"
        save_trace(original, path)
        loaded = load_trace(path)
        assert loaded.records == original.records

    def test_rejects_bad_header(self, tmp_path):
        path = tmp_path / "bad.trace"
        path.write_text("not a trace\n")
        with pytest.raises(ValueError, match="bad header"):
            load_trace(path)

    def test_rejects_short_line(self, tmp_path):
        path = tmp_path / "bad.trace"
        path.write_text("# repro-trace v1 name=x\n400 1000 R\n")
        with pytest.raises(ValueError, match="expected 5 fields"):
            load_trace(path)

    def test_rejects_bad_kind(self, tmp_path):
        path = tmp_path / "bad.trace"
        path.write_text("# repro-trace v1 name=x\n400 1000 Q 3 -\n")
        with pytest.raises(ValueError, match="bad access kind"):
            load_trace(path)

    def test_rejects_bad_numbers(self, tmp_path):
        path = tmp_path / "bad.trace"
        path.write_text("# repro-trace v1 name=x\nzz 1000 R 3 -\n")
        with pytest.raises(ValueError, match="malformed numeric"):
            load_trace(path)

    def test_comments_and_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "ok.trace"
        path.write_text(
            "# repro-trace v1 name=x\n# comment\n\n400 1000 R 3 -\n"
        )
        assert len(load_trace(path)) == 1


class TestTraceIOValidation:
    """Hardened ingestion: hostile or damaged files fail loudly, with
    the offending line number, instead of producing a silently-wrong
    simulation input."""

    def test_rejects_negative_gap(self, tmp_path):
        path = tmp_path / "bad.trace"
        path.write_text("# repro-trace v1 name=x\n400 1000 R -3 -\n")
        with pytest.raises(ValueError, match=r"bad\.trace:2.*negative instruction gap"):
            load_trace(path)

    def test_rejects_gap_beyond_64_bit(self, tmp_path):
        path = tmp_path / "bad.trace"
        path.write_text(f"# repro-trace v1 name=x\n400 1000 R {1 << 63} -\n")
        with pytest.raises(ValueError, match=r"bad\.trace:2.*gap .*out of 64-bit range"):
            load_trace(path)

    @pytest.mark.parametrize("pc,address,field", [
        ("1" + "0" * 17, "1000", "pc"),          # 2^68: 18 hex digits
        ("400", "1" + "0" * 17, "address"),
        ("-400", "1000", "pc"),
        ("400", "-1000", "address"),
    ])
    def test_rejects_out_of_range_fields(self, tmp_path, pc, address, field):
        path = tmp_path / "bad.trace"
        path.write_text(f"# repro-trace v1 name=x\n{pc} {address} R 3 -\n")
        with pytest.raises(ValueError, match=f"{field} .*out of 64-bit range"):
            load_trace(path)

    def test_boundary_values_accepted(self, tmp_path):
        # 2^64 - 1 is a legal 64-bit value; zero gap means back-to-back
        # memory instructions.  Neither is an error.
        top = (1 << 64) - 1
        path = tmp_path / "ok.trace"
        path.write_text(f"# repro-trace v1 name=x\n{top:x} {top:x} W 0 D\n")
        record = load_trace(path).records[0]
        assert record.pc == top and record.address == top and record.gap == 0

    def test_truncated_final_record_is_called_out(self, tmp_path):
        # A copy cut off mid-line: the last record has no newline and too
        # few fields.  The error should suggest truncation, not garbage.
        path = tmp_path / "cut.trace"
        path.write_text("# repro-trace v1 name=x\n400 1000 R 3 -\n404 20")
        with pytest.raises(ValueError, match=r"truncated final record"):
            load_trace(path)

    def test_complete_final_line_not_blamed_for_truncation(self, tmp_path):
        # The same field-count error on a newline-terminated line must
        # NOT carry the truncation hint -- that would misdirect the user.
        path = tmp_path / "bad.trace"
        path.write_text("# repro-trace v1 name=x\n404 20\n")
        with pytest.raises(ValueError) as excinfo:
            load_trace(path)
        assert "truncated" not in str(excinfo.value)

    def test_truncated_gzip_stream_rejected(self, tmp_path):
        whole = tmp_path / "t.trace.gz"
        save_trace(sample_trace(), whole)
        cut = tmp_path / "cut.trace.gz"
        cut.write_bytes(whole.read_bytes()[:-10])  # lose the gzip trailer
        with pytest.raises(ValueError, match="truncated gzip stream"):
            load_trace(cut)


try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - hypothesis ships in the dev env
    HAVE_HYPOTHESIS = False


@pytest.mark.skipif(not HAVE_HYPOTHESIS, reason="hypothesis not installed")
class TestTraceIOProperties:
    """Property test: *every* trace the simulator can represent survives
    save -> load bit-for-bit, so the validation added above can never
    reject a file we ourselves wrote."""

    records_strategy = st.lists(
        st.builds(
            TraceRecord,
            st.integers(min_value=0, max_value=(1 << 64) - 1),  # pc
            st.integers(min_value=0, max_value=(1 << 64) - 1),  # address
            st.booleans(),                                      # is_write
            st.integers(min_value=0, max_value=10_000),         # gap
            st.booleans(),                                      # depends
        ),
        max_size=40,
    )

    @given(records=records_strategy)
    @settings(max_examples=60, deadline=None)
    def test_round_trip_is_identity(self, tmp_path_factory, records):
        tmp = tmp_path_factory.mktemp("prop")
        original = Trace("prop", records)
        for suffix in ("t.trace", "t.trace.gz"):
            path = tmp / suffix
            save_trace(original, path)
            loaded = load_trace(path)
            assert loaded.name == "prop"
            assert loaded.records == original.records
            assert loaded.instructions == original.instructions


class TestExport:
    @pytest.fixture(scope="class")
    def comparison(self):
        cache = WorkloadCache(ExperimentConfig(scale=32, instructions=25_000))
        return single_thread_comparison(
            cache, technique_keys=("sampler",), benchmarks=("hmmer",)
        )

    def test_to_dict_structure(self, comparison):
        data = to_dict(comparison)
        assert data["kind"] == "single_thread_comparison"
        assert data["benchmarks"] == ["hmmer"]
        assert "sampler" in data["normalized_mpki"]["hmmer"]
        assert "sampler" in data["speedup_gmean"]

    def test_export_json_writes_valid_json(self, comparison, tmp_path):
        path = tmp_path / "out.json"
        export_json(comparison, path)
        data = json.loads(path.read_text())
        assert data["kind"] == "single_thread_comparison"

    def test_unknown_type_rejected(self):
        with pytest.raises(TypeError):
            to_dict(object())


class TestExportOtherKinds:
    @pytest.fixture(scope="class")
    def cache(self):
        return WorkloadCache(ExperimentConfig(scale=32, instructions=25_000))

    def test_accuracy_result_serializes(self, cache, tmp_path):
        from repro.harness import accuracy_experiment

        result = accuracy_experiment(cache, benchmarks=("hmmer",))
        data = to_dict(result)
        assert data["kind"] == "accuracy"
        assert "sampler" in data["mean_coverage"]
        export_json(result, tmp_path / "a.json")
        assert json.loads((tmp_path / "a.json").read_text())["kind"] == "accuracy"

    def test_efficiency_result_serializes(self, cache):
        from repro.harness import efficiency_experiment

        result = efficiency_experiment(cache, benchmark="hmmer")
        data = to_dict(result)
        assert data["kind"] == "efficiency"
        assert 0 <= data["lru_efficiency"] <= 1

    def test_multicore_result_serializes(self, cache):
        from repro.harness import multicore_comparison

        result = multicore_comparison(cache, ("sampler",), mixes=("mix1",))
        data = to_dict(result)
        assert data["kind"] == "multicore_comparison"
        assert "sampler" in data["normalized_weighted_speedup"]["mix1"]
        assert "sampler" in data["speedup_gmean"]
