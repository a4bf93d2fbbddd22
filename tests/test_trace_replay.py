"""Trace replay and the trace library: round-trips, diagnostics, keys.

The replay path's promise is that an imported trace behaves exactly
like a built-in benchmark *and* that its identity is its content: the
canonical spec pins a digest, the digest folds into the stream-store
key, and re-importing different bytes under the same library name can
never silently reuse stale cached state.
"""

from __future__ import annotations

import pytest

from repro.harness.runner import ExperimentConfig, WorkloadCache
from repro.sim.traceio import save_trace
from repro.workloads import (
    TraceLibrary,
    TraceReplayWorkload,
    WorkloadSpecError,
    ZipfianPattern,
    trace_content_digest,
)

pytestmark = pytest.mark.workloads

LLC_BYTES = 32 * 1024
TINY = ExperimentConfig(scale=32, instructions=20_000, seed=3)


@pytest.fixture(autouse=True)
def _isolate_trace_lib(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_TRACE_LIB", str(tmp_path / "lib"))


def make_trace(seed=1, instructions=4_000):
    return ZipfianPattern(a=1.2, seed=seed).generate(instructions, LLC_BYTES)


class TestRoundTrip:
    @pytest.mark.parametrize("suffix", [".trace", ".trace.gz"])
    def test_import_round_trips_text_and_gzip(self, tmp_path, suffix):
        trace = make_trace()
        path = tmp_path / f"sample{suffix}"
        save_trace(trace, path)
        library = TraceLibrary()
        entry = library.import_file(path, name="sample")
        assert entry["records"] == len(trace.records)
        assert entry["instructions"] == trace.instructions
        loaded = library.load("sample")
        assert loaded.records == trace.records
        assert loaded.instructions == trace.instructions

    def test_plain_and_gzip_content_share_one_digest(self, tmp_path):
        trace = make_trace()
        save_trace(trace, tmp_path / "a.trace")
        save_trace(trace, tmp_path / "b.trace.gz")
        library = TraceLibrary()
        first = library.import_file(tmp_path / "a.trace", name="one")
        second = library.import_file(tmp_path / "b.trace.gz", name="two")
        assert first["digest"] == second["digest"]
        # Content addressing: both names point at a single blob.
        assert library.blob_path(str(first["digest"])).exists()

    def test_blob_bytes_do_not_depend_on_the_importing_process(
        self, tmp_path, monkeypatch
    ):
        # Two processes importing one trace must write identical blobs:
        # the temporary file name (which carries the pid) must not leak
        # into the gzip header.
        trace = make_trace()
        save_trace(trace, tmp_path / "sample.trace")
        blobs = []
        for pid in (1111, 2222):
            monkeypatch.setattr("os.getpid", lambda pid=pid: pid)
            library = TraceLibrary(tmp_path / f"lib-{pid}")
            entry = library.import_file(tmp_path / "sample.trace", name="sample")
            blobs.append(library.blob_path(str(entry["digest"])).read_bytes())
        assert blobs[0] == blobs[1]

    def test_replay_spec_round_trips_through_the_suite(self, tmp_path):
        from repro.workloads import parse_workload_spec, resolve_workload

        trace = make_trace()
        save_trace(trace, tmp_path / "w.trace")
        TraceLibrary().import_file(tmp_path / "w.trace", name="webapp")
        generator = resolve_workload("trace(webapp)")
        assert isinstance(generator, TraceReplayWorkload)
        spec = generator.spec()
        assert spec.startswith("trace(name=webapp,digest=")
        reparsed = parse_workload_spec(spec)
        assert reparsed.name == generator.name

    def test_direct_file_reference_without_library(self, tmp_path):
        from repro.workloads import resolve_workload

        trace = make_trace()
        path = tmp_path / "direct.trace.gz"
        save_trace(trace, path)
        generator = resolve_workload(f"trace(file={path})")
        replayed = generator.generate(trace.instructions, LLC_BYTES)
        assert replayed.records == trace.records


class TestBudgetShaping:
    def test_truncate_and_loop(self, tmp_path):
        trace = make_trace(instructions=8_000)
        save_trace(trace, tmp_path / "t.trace")
        library = TraceLibrary()
        library.import_file(tmp_path / "t.trace", name="t")

        short = TraceReplayWorkload("t", library=library).generate(
            2_000, LLC_BYTES
        )
        assert len(short.records) < len(trace.records)
        assert short.instructions == 2_000

        looped = TraceReplayWorkload("t", loop=True, library=library).generate(
            trace.instructions * 3, LLC_BYTES
        )
        assert len(looped.records) > len(trace.records) * 2
        assert looped.instructions >= trace.instructions * 3

        padded = TraceReplayWorkload("t", library=library).generate(
            trace.instructions * 3, LLC_BYTES
        )
        # Truncation mode on a short trace: full record list, with the
        # leftover budget accounted as trailing compute.
        assert len(padded.records) == len(trace.records)
        assert padded.instructions == trace.instructions * 3


class TestImportDiagnostics:
    def test_truncated_final_record_is_diagnosed(self, tmp_path):
        trace = make_trace()
        path = tmp_path / "cut.trace"
        save_trace(trace, path)
        text = path.read_text(encoding="ascii")
        path.write_text(text[: len(text) - 7], encoding="ascii")
        with pytest.raises(ValueError, match="truncated final record"):
            TraceLibrary().import_file(path, name="cut")

    def test_truncated_gzip_stream_is_diagnosed(self, tmp_path):
        trace = make_trace()
        path = tmp_path / "cut.trace.gz"
        save_trace(trace, path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) - 9])
        with pytest.raises(ValueError, match="truncated gzip stream"):
            TraceLibrary().import_file(path, name="cut")

    def test_bad_header_is_diagnosed(self, tmp_path):
        path = tmp_path / "noise.trace"
        path.write_text("this is not a trace\n", encoding="ascii")
        with pytest.raises(ValueError, match="bad header"):
            TraceLibrary().import_file(path, name="noise")

    def test_bad_name_is_rejected(self, tmp_path):
        trace = make_trace()
        path = tmp_path / "ok.trace"
        save_trace(trace, path)
        with pytest.raises(ValueError, match="bad trace name"):
            TraceLibrary().import_file(path, name="has spaces")

    def test_unknown_name_suggests_closest(self, tmp_path):
        trace = make_trace()
        save_trace(trace, tmp_path / "w.trace")
        library = TraceLibrary()
        library.import_file(tmp_path / "w.trace", name="webapp")
        with pytest.raises(WorkloadSpecError, match="did you mean 'webapp'"):
            library.lookup("webap")


class TestContentAddressedKeys:
    def test_key_format_is_v2_with_spec_digest(self):
        cache = WorkloadCache(TINY)
        key = cache.workload_key("mcf", TINY.instructions)
        assert key.startswith("rstream-v2|")
        assert "|spec=" in key

    def test_pattern_parameters_change_the_key(self):
        cache = WorkloadCache(TINY)
        a = cache.workload_key("zipf(a=1.2)", TINY.instructions)
        b = cache.workload_key("zipf(a=1.3)", TINY.instructions)
        assert a != b

    def test_reimport_with_different_content_changes_the_key(self, tmp_path):
        """The collision regression the digest satellite exists for.

        Same library name, same benchmark string, different trace
        content: before the spec digest was folded into the store key,
        the second sweep would warm-hit the first sweep's compiled blob.
        """
        library = TraceLibrary()
        save_trace(make_trace(seed=1), tmp_path / "v1.trace")
        library.import_file(tmp_path / "v1.trace", name="prod")
        spec = "trace(prod)"
        first = WorkloadCache(TINY).workload_key(spec, TINY.instructions)

        save_trace(make_trace(seed=2), tmp_path / "v2.trace")
        library.import_file(tmp_path / "v2.trace", name="prod")
        second = WorkloadCache(TINY).workload_key(spec, TINY.instructions)

        assert first != second

    def test_pinned_digest_rejects_reimported_content(self, tmp_path):
        library = TraceLibrary()
        save_trace(make_trace(seed=1), tmp_path / "v1.trace")
        library.import_file(tmp_path / "v1.trace", name="prod")
        pinned = TraceReplayWorkload("prod", library=library).spec()

        save_trace(make_trace(seed=2), tmp_path / "v2.trace")
        library.import_file(tmp_path / "v2.trace", name="prod")
        from repro.workloads import parse_workload_spec

        with pytest.raises(WorkloadSpecError, match="digest mismatch"):
            parse_workload_spec(pinned)

    def test_content_digest_is_stable(self):
        trace = make_trace()
        assert trace_content_digest(trace) == trace_content_digest(trace)
