"""Unit and integration tests for the telemetry subsystem.

Covers the four layers of :mod:`repro.telemetry` -- interval probes,
run manifests, sweep events, exporters -- plus the sweep integration
(``events_file`` / ``manifest_path`` on the parallel runner) and the
``repro telemetry`` / ``repro report`` CLI commands.
"""

from __future__ import annotations

import importlib.metadata
import io
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis.accuracy import AccuracyObserver
from repro.cache import Cache, CacheGeometry
from repro.core import DBRBPolicy, SamplingDeadBlockPredictor
from repro.harness import ExperimentConfig, WorkloadCache
from repro.harness.parallel import parallel_single_thread_comparison
from repro.replacement import LRUPolicy
from repro.sim.replay import replay
from repro.telemetry import manifest as manifest_module
from repro.telemetry import (
    EventLog,
    IntervalRecorder,
    NULL_PROBE,
    ProgressRenderer,
    RunManifest,
    SweepTelemetry,
    collect_environment,
    git_revision,
    read_events,
    render_report,
    sparkline,
    write_csv,
    write_ndjson,
)
from tests.conftest import make_stream

TINY = ExperimentConfig(scale=32, instructions=20_000, seed=3)


# ----------------------------------------------------------------------
# probe layer
# ----------------------------------------------------------------------
def test_null_probe_is_disabled_and_inert():
    assert NULL_PROBE.enabled is False
    # The full interface is callable without side effects.
    NULL_PROBE.set_context(workload="x")
    NULL_PROBE.begin_run(None, 10)
    NULL_PROBE.on_epoch(None, 5)
    NULL_PROBE.end_run(None, 10)
    assert NULL_PROBE.resolve_epoch(100) == 100


def test_recorder_epoch_resolution():
    assert IntervalRecorder(epochs=4).resolve_epoch(100) == 25
    assert IntervalRecorder(epochs=4).resolve_epoch(101) == 26  # ceil
    assert IntervalRecorder(epochs=1000).resolve_epoch(10) == 1
    assert IntervalRecorder(epoch_accesses=7).resolve_epoch(100) == 7
    with pytest.raises(ValueError):
        IntervalRecorder(epochs=0)
    with pytest.raises(ValueError):
        IntervalRecorder(epoch_accesses=0)


def test_recorder_counter_vs_gauge_convention():
    """``_count`` keys difference into ``_per_epoch``; others pass raw."""

    class FakeStats:
        accesses = hits = misses = fills = 0
        evictions = writebacks = bypasses = dead_block_victims = 0

        def snapshot(self):
            return self

    class FakePolicy:
        def __init__(self):
            self.events = 0

        def telemetry_snapshot(self):
            return {"thing_count": self.events, "level": self.events * 0.5}

    class FakeCache:
        stats = FakeStats()
        policy = FakePolicy()
        _observers = ()

    cache = FakeCache()
    recorder = IntervalRecorder(epochs=2)
    recorder.begin_run(cache, 20)
    cache.policy.events = 3
    recorder.on_epoch(cache, 10)
    cache.policy.events = 10
    recorder.on_epoch(cache, 20)
    per_epoch = recorder.series("thing_per_epoch")
    assert per_epoch == [3, 7]
    assert recorder.series("level") == [1.5, 5.0]


def test_epoch_deltas_sum_to_run_totals():
    recorder = IntervalRecorder(epochs=9)
    geometry = CacheGeometry(size_bytes=32 * 4 * 64, associativity=4)
    cache = Cache(
        geometry, DBRBPolicy(LRUPolicy(), SamplingDeadBlockPredictor()), probe=recorder
    )
    replay(cache, make_stream(geometry, "cold", 6000))
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


def test_render_report_and_sparkline():
    assert sparkline([1, 2, 3]) == "▁▄█"
    assert sparkline([5, 5, 5]) == "▅▅▅"  # flat series: mid-height
    assert sparkline([None, 1.0]) == " ▅"  # single value is also flat
    assert sparkline(list(range(100)), width=10) != ""
    assert len(sparkline(list(range(100)), width=10)) == 10

    recorder = IntervalRecorder(epochs=2)
    assert render_report(recorder) == "(no samples recorded)"


# ----------------------------------------------------------------------
# manifest layer
# ----------------------------------------------------------------------
def test_manifest_roundtrip(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_SCALE", "32")
    manifest = RunManifest(
        command="suite",
        config={"scale": 32},
        technique_keys=["sampler"],
        benchmarks=["mcf"],
        started_at=100.0,
        jobs=2,
    )
    manifest.record_cell(
        "mcf/sampler", "ok",
        timing={"wall_seconds": 1.25, "cpu_seconds": 1.0},
    )
    manifest.finalize("ok", finished_at=107.5)
    path = tmp_path / "deep" / "manifest.json"
    manifest.write(str(path))

    data = RunManifest.load(str(path))
    assert data["status"] == "ok"
    assert data["wall_seconds"] == 7.5
    assert data["cells"]["mcf/sampler"]["wall_seconds"] == 1.25
    assert data["environment"]["repro_env"]["REPRO_SCALE"] == "32"
    assert "python" in data["environment"]
    assert "sha" in data["git"] and "dirty" in data["git"]
    # No temp droppings from the atomic write.
    assert list(path.parent.iterdir()) == [path]


def test_manifest_load_rejects_non_manifests(tmp_path):
    path = tmp_path / "junk.json"
    path.write_text("[1, 2, 3]")
    with pytest.raises(ValueError):
        RunManifest.load(str(path))


def test_collect_environment_shape():
    env = collect_environment()
    assert set(env) >= {"python", "platform", "repro_env", "libraries"}
    assert set(env["libraries"]) == set(manifest_module._INTERESTING_LIBRARIES)


def test_library_versions_map_missing_distributions_to_none(monkeypatch):
    missing = "repro-manifest-no-such-distribution"
    monkeypatch.setattr(
        manifest_module,
        "_INTERESTING_LIBRARIES",
        manifest_module._INTERESTING_LIBRARIES + (missing,),
    )
    versions = manifest_module._library_versions()
    assert versions[missing] is None
    assert versions["pytest"] == importlib.metadata.version("pytest")


@pytest.mark.skipif(shutil.which("git") is None, reason="no git binary")
def test_git_revision_stamps_the_package_checkout(tmp_path, monkeypatch):
    """The SHA is the checkout holding the running code, not whichever
    repository the process happens to run in."""
    other = tmp_path / "other-repo"
    other.mkdir()
    identity = ["-c", "user.name=t", "-c", "user.email=t@example.invalid"]
    subprocess.run(["git", "init", "-q"], cwd=other, check=True)
    subprocess.run(
        ["git", *identity, "commit", "-q", "--allow-empty", "-m", "other"],
        cwd=other, check=True,
    )
    monkeypatch.chdir(other)
    package_dir = Path(manifest_module.__file__).resolve().parents[1]
    probe = subprocess.run(
        ["git", "-C", str(package_dir), "rev-parse", "HEAD"],
        capture_output=True, text=True,
    )
    expected = probe.stdout.strip() if probe.returncode == 0 else None
    assert git_revision()["sha"] == expected
    assert RunManifest().git["sha"] == expected


_FRESH_SWEEP = """
import sys
import repro.harness.parallel as parallel
from repro.harness import ExperimentConfig
from repro.telemetry import manifest
parallel.parallel_single_thread_comparison(
    ExperimentConfig(scale=32, instructions=20_000, seed=3),
    ("sampler",), ("mcf",), jobs=1, events_file=sys.argv[1],
)
print([name for name in manifest._INTERESTING_LIBRARIES if name in sys.modules])
"""


def test_fresh_sweep_imports_no_stamped_library(tmp_path):
    """A pool worker's import and a manifest-writing sweep load none of
    the libraries the manifest stamps; the stamped versions still equal
    the installed distributions'."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(Path(manifest_module.__file__).resolve().parents[2])
    events_path = tmp_path / "sweep.ndjson"
    run = subprocess.run(
        [sys.executable, "-c", _FRESH_SWEEP, str(events_path)],
        env=env, cwd=tmp_path, check=True, timeout=120,
        capture_output=True, text=True,
    )
    assert run.stdout.strip() == "[]"
    libraries = RunManifest.load(str(tmp_path / "sweep.ndjson.manifest.json"))[
        "environment"
    ]["libraries"]
    for name in manifest_module._INTERESTING_LIBRARIES:
        try:
            expected = importlib.metadata.version(name)
        except importlib.metadata.PackageNotFoundError:
            expected = None
        assert libraries[name] == expected


# ----------------------------------------------------------------------
# events layer
# ----------------------------------------------------------------------
def test_sweep_telemetry_event_stream(tmp_path):
    clock_value = [0.0]

    def clock():
        clock_value[0] += 1.0
        return clock_value[0]

    path = tmp_path / "events.ndjson"
    log = EventLog(str(path))
    manifest = RunManifest()
    telemetry = SweepTelemetry(sinks=[log], manifest=manifest, clock=clock)
    telemetry.sweep_started(3, ["mcf"], ["sampler"], jobs=2)
    telemetry.cell_resumed("mcf/lru(baseline)")
    telemetry.cell_retried("mcf/sampler", "injected", attempt=2)
    telemetry.cell_finished(
        "mcf/sampler", "ok", timing={"wall_seconds": 0.5, "cpu_seconds": 0.4}
    )
    telemetry.cell_finished("mcf/rrip", "failed")
    telemetry.sweep_finished("partial")
    telemetry.close()

    events = read_events(str(path))
    kinds = [event["event"] for event in events]
    assert kinds == [
        "sweep_started", "cell_resumed", "cell_retried",
        "cell_finished", "cell_finished", "sweep_finished",
    ]
    assert [event["seq"] for event in events] == list(range(6))
    finished = events[3]
    assert finished["benchmark"] == "mcf"
    assert finished["technique"] == "sampler"
    assert finished["done"] == 2 and finished["total"] == 3
    assert finished["eta_seconds"] is not None
    assert events[-1]["status"] == "partial"
    assert events[-1]["done"] == 3
    # The manifest mirrors the outcomes, including the retry count.
    assert manifest.cells["mcf/sampler"]["retries"] == 2
    assert manifest.cells["mcf/rrip"]["status"] == "failed"
    assert manifest.cells["mcf/lru(baseline)"]["resumed"] is True


def test_read_events_rejects_malformed_lines(tmp_path):
    path = tmp_path / "bad.ndjson"
    path.write_text('{"event": "sweep_started"}\nnot json\n')
    with pytest.raises(ValueError, match="bad.ndjson:2"):
        read_events(str(path))


def test_progress_renderer_lines():
    stream = io.StringIO()
    renderer = ProgressRenderer(stream)
    telemetry = SweepTelemetry(sinks=[renderer])
    telemetry.sweep_started(2, ["mcf"], ["sampler"], jobs=1)
    telemetry.cell_started("mcf/sampler")
    telemetry.cell_finished(
        "mcf/sampler", "ok", timing={"wall_seconds": 0.25, "cpu_seconds": 0.2}
    )
    telemetry.cell_timed_out("mcf/rrip", 30.0)
    telemetry.sweep_degraded("lost workers")
    telemetry.sweep_finished("ok")
    lines = stream.getvalue().splitlines()
    assert lines[0].startswith("[sweep] 2 cells")
    assert "[start] mcf/sampler" in lines[1]
    assert "[ok] mcf/sampler" in lines[2] and "(1/2)" in lines[2]
    assert "[timeout] mcf/rrip" in lines[3]
    assert "[degrade]" in lines[4]
    assert "[sweep ok] 1/2" in lines[5]


# ----------------------------------------------------------------------
# exporters
# ----------------------------------------------------------------------
def _small_recorder():
    from repro.harness import timeseries_experiment

    cache = WorkloadCache(TINY)
    return timeseries_experiment(cache, "mcf", "sampler", epochs=4).recorder


def test_ndjson_and_csv_exports(tmp_path):
    recorder = _small_recorder()
    ndjson_path = tmp_path / "series.ndjson"
    csv_path = tmp_path / "series.csv"
    write_ndjson(recorder, str(ndjson_path))
    write_csv(recorder, str(csv_path))

    lines = ndjson_path.read_text().splitlines()
    header = json.loads(lines[0])
    assert header["kind"] == "context"
    assert header["workload"] == "mcf"
    assert header["epochs"] == len(recorder.samples)
    rows = [json.loads(line) for line in lines[1:]]
    assert len(rows) == len(recorder.samples)
    assert all("miss_rate" in row and "coverage" in row for row in rows)

    import csv as csv_module

    with open(csv_path, newline="") as handle:
        parsed = list(csv_module.DictReader(handle))
    assert len(parsed) == len(recorder.samples)
    assert float(parsed[0]["accesses"]) == recorder.samples[0].accesses

    report = render_report(recorder)
    assert "mcf" in report and "miss_rate" in report and "coverage" in report


# ----------------------------------------------------------------------
# sweep integration: events + manifest through the parallel runner
# ----------------------------------------------------------------------
def test_serial_sweep_emits_events_and_manifest(tmp_path):
    events = io.StringIO()
    manifest_path = tmp_path / "manifest.json"
    comparison = parallel_single_thread_comparison(
        TINY, ("sampler",), ("mcf",), jobs=1,
        events_file=events, manifest_path=str(manifest_path),
        command="test-sweep",
    )
    assert not comparison.is_partial

    lines = [json.loads(line) for line in events.getvalue().splitlines()]
    kinds = [event["event"] for event in lines]
    assert kinds[0] == "sweep_started"
    assert kinds[-1] == "sweep_finished"
    assert kinds.count("cell_started") == 2  # baseline + sampler
    assert kinds.count("cell_finished") == 2
    finished = [e for e in lines if e["event"] == "cell_finished"]
    assert all(e["status"] == "ok" for e in finished)
    assert all(e["wall_seconds"] > 0 for e in finished)

    data = RunManifest.load(str(manifest_path))
    assert data["status"] == "ok"
    assert data["command"] == "test-sweep"
    assert data["config"]["scale"] == 32
    assert set(data["cells"]) == {"mcf/lru(baseline)", "mcf/sampler"}
    assert all(
        cell["status"] == "ok" and cell["cpu_seconds"] >= 0
        for cell in data["cells"].values()
    )


def test_resumed_cells_appear_in_event_stream(tmp_path):
    store_dir = tmp_path / "ckpt"
    parallel_single_thread_comparison(
        TINY, ("sampler",), ("mcf",), jobs=1, checkpoint=str(store_dir),
    )
    # Default manifest location: next to the checkpoint store.
    assert (store_dir / "manifest.json").exists()

    events = io.StringIO()
    parallel_single_thread_comparison(
        TINY, ("sampler",), ("mcf",), jobs=1, checkpoint=str(store_dir),
        resume=True, events_file=events,
    )
    kinds = [
        json.loads(line)["event"] for line in events.getvalue().splitlines()
    ]
    assert kinds.count("cell_resumed") == 2
    assert kinds.count("cell_started") == 0

    data = RunManifest.load(str(store_dir / "manifest.json"))
    assert all(cell.get("resumed") for cell in data["cells"].values())


def test_sweep_without_observability_writes_nothing(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    comparison = parallel_single_thread_comparison(
        TINY, ("sampler",), ("mcf",), jobs=1,
    )
    assert not comparison.is_partial
    assert list(tmp_path.iterdir()) == []


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def _cli(argv, monkeypatch, capsys):
    from repro.__main__ import main

    monkeypatch.setenv("REPRO_SCALE", "32")
    monkeypatch.setenv("REPRO_INSTRUCTIONS", "20000")
    assert main(argv) == 0
    return capsys.readouterr().out


def test_cli_telemetry_dump(tmp_path, monkeypatch, capsys):
    ndjson_path = tmp_path / "ts.ndjson"
    out = _cli(
        ["telemetry", "mcf", "sampler", "--epochs", "4",
         "--ndjson", str(ndjson_path)],
        monkeypatch, capsys,
    )
    assert "NDJSON" in out
    rows = [json.loads(line) for line in ndjson_path.read_text().splitlines()]
    assert rows[0]["kind"] == "context"
    assert len(rows) == 5  # header + 4 epochs


def test_cli_report_timeseries(monkeypatch, capsys):
    out = _cli(
        ["report", "--timeseries", "mcf", "--epochs", "4"],
        monkeypatch, capsys,
    )
    assert "mcf" in out
    for metric in ("miss_rate", "coverage", "false_positive_rate",
                   "bypass_rate"):
        assert metric in out, metric


def test_cli_sweep_events_file(tmp_path, monkeypatch, capsys):
    events_path = tmp_path / "events.ndjson"
    _cli(
        ["run", "mcf", "sampler", "--events-file", str(events_path),
         "--manifest", str(tmp_path / "m.json")],
        monkeypatch, capsys,
    )
    kinds = [event["event"] for event in read_events(str(events_path))]
    assert kinds[0] == "sweep_started" and kinds[-1] == "sweep_finished"
    assert RunManifest.load(str(tmp_path / "m.json"))["status"] == "ok"


def test_env_knobs_enable_observability(tmp_path, monkeypatch):
    events_path = tmp_path / "env-events.ndjson"
    manifest_path = tmp_path / "env-manifest.json"
    monkeypatch.setenv("REPRO_EVENTS_FILE", str(events_path))
    monkeypatch.setenv("REPRO_MANIFEST", str(manifest_path))
    parallel_single_thread_comparison(TINY, ("sampler",), ("mcf",), jobs=1)
    assert read_events(str(events_path))
    assert RunManifest.load(str(manifest_path))["status"] == "ok"


def test_events_file_default_manifest_sits_next_to_it(tmp_path):
    events_path = tmp_path / "sweep.ndjson"
    parallel_single_thread_comparison(
        TINY, ("sampler",), ("mcf",), jobs=1, events_file=str(events_path),
    )
    sidecar = tmp_path / "sweep.ndjson.manifest.json"
    assert sidecar.exists()
    assert RunManifest.load(str(sidecar))["status"] == "ok"
