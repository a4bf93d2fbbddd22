"""Tests for the benchmark's own code.

    python3 -m pytest perfbench -q
"""

import json
import os
import sys
import tempfile
import threading
from collections import Counter
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import bodies  # noqa: E402
import rep  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402

SMALL = bodies.Sizes(
    instructions=20_000,
    benchmarks=("mcf", "libquantum"),
    techniques=("tdbp", "sampler"),
    loadsim_instructions=5_000,
    loadsim_duration=200_000.0,
)


# ----------------------------------------------------------------------
# span arithmetic
# ----------------------------------------------------------------------
def test_self_time_subtracts_direct_children_only():
    spans_ = [
        ["outer", 0.0, 10.0, -1],
        ["mid", 1.0, 4.0, 0],
        ["inner", 2.0, 3.0, 1],
        ["mid", 5.0, 6.0, 0],
        ["outer", 20.0, 21.0, -1],
    ]
    assert spans.self_times(spans_) == {
        "outer": 10.0 - 3.0 - 1.0 + 1.0,
        "mid": (3.0 - 1.0) + 1.0,
        "inner": 1.0,
    }


def test_self_time_window_keeps_spans_starting_inside():
    spans_ = [["setup", 0.0, 1.0, -1], ["body", 2.0, 5.0, -1], ["child", 3.0, 4.0, 1]]
    assert spans.self_times(spans_, window=(2.0, 5.0)) == {"body": 2.0, "child": 1.0}


def test_tracer_nests_spans_by_call_stack():
    tracer = spans.Tracer()
    outer = tracer.open("a")
    inner = tracer.open("b")
    tracer.close(inner)
    tracer.close(outer)
    after = tracer.open("c")
    tracer.close(after)
    assert [s[3] for s in tracer.spans] == [-1, 0, -1]
    assert all(s[2] >= s[1] for s in tracer.spans)


def test_merge_sums_processes():
    assert spans.merge([{"a": 1.0}, {"a": 2.0, "b": 0.5}]) == {"a": 3.0, "b": 0.5}


def test_stage_table_shares_and_unattributed_row():
    rows = spans.stage_table({"replay.array": 1.0, "cpu.timing": 2.0}, wall=4.0, processes=2)
    by_label = {label: (seconds, share) for label, seconds, share in rows}
    assert by_label["replay, array kernel"] == (1.0, 1.0 / 8.0)
    assert by_label["cpu (CoreModel.run)"] == (2.0, 2.0 / 8.0)
    assert by_label["unattributed"] == (5.0, 5.0 / 8.0)
    assert rows[-1][0] == "unattributed"


def test_instrumentation_is_removed_cleanly():
    from repro.sim.cpu import CoreModel
    from repro.sim.streamstore import SharedStreamExport

    run_before = vars(CoreModel)["run"]
    create_before = vars(SharedStreamExport)["create"]
    instrumentation = spans.Instrumentation(spans.Tracer())
    assert vars(CoreModel)["run"] is not run_before
    assert isinstance(vars(SharedStreamExport)["create"], classmethod)
    instrumentation.remove()
    assert vars(CoreModel)["run"] is run_before
    assert vars(SharedStreamExport)["create"] is create_before


# ----------------------------------------------------------------------
# ratios and their bases
# ----------------------------------------------------------------------
def _layers(**overrides):
    counts = Counter(
        {
            "workloads.records": 1000,
            "hierarchy.refs": 1000,
            "hierarchy.llc_refs": 250,
            "replay.array_accesses": 300,
            "replay.object_accesses": 100,
            "cpu.records": 500,
            "loadsim.events": 40,
            "replay.fallback:policy:OptimalPolicy": 2,
            "replay.fallback:warm-cache": 1,
        }
    )
    self_s = {"workloads.generate": 2.0, "cpu.timing": 0.5, "loadsim.run": 4.0,
              "replay.array": 1.0}
    args = dict(self_s=self_s, counts=counts, wall=5.0, processes=2, busy=6.0,
                store=(3, 0), compile_s=0.0, compiled_bytes=0)
    args.update(overrides)
    return rep.per_layer(**args)


def test_ratios_use_their_bases():
    layers = _layers()
    assert layers["workloads.records_per_s"] == 1000 / 2.0
    assert layers["hierarchy.filter_ratio"] == 1.0 - 250 / 1000
    assert layers["replay.array_share"] == 300 / 400
    assert layers["cpu.records_per_s"] == 500 / 0.5
    assert layers["loadsim.events_per_s"] == 40 / 4.0
    assert layers["parallel.utilisation"] == 6.0 / (2 * 5.0)
    assert layers["parallel.overhead_s"] == 5.0 - 6.0 / 2
    assert layers["trace.unattributed_s"] == 2 * 5.0 - 7.5
    assert layers["replay.fallback.policy-OptimalPolicy"] == 2
    assert layers["replay.fallback.other"] == 1


def test_ratios_with_empty_bases_read_zero():
    layers = _layers(self_s={}, counts=Counter(), busy=0.0)
    for name in ("workloads.records_per_s", "hierarchy.filter_ratio", "replay.array_share",
                 "cpu.records_per_s", "loadsim.events_per_s", "parallel.utilisation",
                 "parallel.overhead_s"):
        assert layers[name] == 0.0


# ----------------------------------------------------------------------
# checked outputs and ops_failed
# ----------------------------------------------------------------------
def test_count_failures_counts_each_mismatch_and_missing_op():
    reference = {"a": "1", "b": "2"}
    runs = [{"a": "1", "b": "2"}, {"a": "1", "b": "x"}, {"a": "1"}]
    assert run.count_failures(reference, runs) == (6, 2)


def test_cell_digest_rejects_broken_identities():
    from repro.cache.stats import CacheStats

    good = CacheStats(accesses=10, hits=4, misses=6, fills=5, bypasses=1)
    assert len(bodies.cell_digest(good, 100.0)) == 16
    assert bodies.cell_digest(good, 100.0) != bodies.cell_digest(good, 101.0)
    assert bodies.cell_digest(CacheStats(accesses=10, hits=4, misses=5), None).startswith("invalid")
    assert bodies.cell_digest(good, 0.0).startswith("invalid")


def _fake_rep(outputs, wall=1.0):
    return {"setup_s": 0.1, "wall_s": wall, "cpu_s": wall, "slowdown": 1.0,
            "peak_rss_mb": 10.0, "llc_accesses": 1000, "outputs": outputs}


def test_injected_digest_mismatch_is_counted_not_fatal(monkeypatch):
    pinned = run.load_expected("fig4-cold", 1)
    assert pinned, "seed 1 is pinned"
    broken = dict(pinned)
    broken["mcf/sampler"] = "0" * 16
    reps = iter([_fake_rep(pinned), _fake_rep(broken), _fake_rep(pinned)])
    monkeypatch.setattr(run, "run_rep", lambda workload, seed, trace: next(reps))
    result = run.measure("fig4-cold", 1, seconds=0.0, trace=False)
    assert result["attempted"] == 3 * len(pinned)
    assert result["failed"] == 1
    assert result["correct"] is False
    assert set(result["metrics"]) == {
        "setup_s", "wall_s", "cpu_s", "peak_rss_mb", "host_us_per_llc_access"
    }
    assert result["metrics"]["host_us_per_llc_access"]["value"] == pytest.approx(1000.0)


def test_speed_probe_slowdown_is_the_mean_sample_since_the_last_call():
    probe = rep.SpeedProbe()
    assert probe.slowdown() == 1.0
    probe.samples += [rep.REFERENCE_PROBE_S, 3 * rep.REFERENCE_PROBE_S]
    assert probe.slowdown() == pytest.approx(2.0)
    probe.samples.append(rep.REFERENCE_PROBE_S / 2)
    assert probe.slowdown() == pytest.approx(0.5)


def test_every_metric_has_a_declared_unit():
    units = run.load_units()
    layers = set(_layers()) | {"trace.overhead_s"}
    end_to_end = set(run.end_to_end([_fake_rep({})]))
    assert layers | end_to_end == set(units)


def test_every_pinned_seed_covers_every_workload():
    for workload in run.WORKLOADS:
        for seed in (1, 7):
            assert run.load_expected(workload, seed)


# ----------------------------------------------------------------------
# whole bodies at small sizes
# ----------------------------------------------------------------------
@pytest.fixture
def clean_env():
    saved = {k: v for k, v in os.environ.items() if k.startswith("REPRO_")}
    for key in saved:
        del os.environ[key]
    yield
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    os.environ.update(saved)


def test_warm_sweep_generates_and_filters_nothing(tmp_path, clean_env):
    cold = rep.run_once("fig4-cold", 1, False, str(tmp_path / "cold"), SMALL, 0.0)
    (tmp_path / "warm").mkdir()
    warm = rep.run_once("fig4-warm-jobs2", 1, True, str(tmp_path / "warm"), SMALL, 0.0)
    layers = warm["layers"]
    assert layers["workloads.calls"] == 0
    assert layers["hierarchy.filter_calls"] == 0
    assert layers["streamstore.misses"] == 0
    assert layers["streamstore.hits"] > 0
    assert layers["streamstore.compile_s"] > 0  # paid in set-up
    assert layers["replay.calls"] == len(cold["outputs"]) == 6
    assert layers["parallel.busy_s"] > 0
    assert warm["outputs"] == cold["outputs"]


@pytest.mark.parametrize("workload, target", [
    ("fig4-cold", "repro.harness.experiments.single_thread_comparison"),
    ("loadsim-4t", "repro.loadsim.sim.prepare_scenario"),
])
def test_raising_body_fails_every_op_and_still_prints_a_result(
    workload, target, tmp_path, monkeypatch, capsys, clean_env
):
    def raise_injected(*args, **kwargs):
        raise RuntimeError("injected")

    def in_process(workload_, seed, trace):
        workdir = tempfile.mkdtemp(dir=tmp_path)
        return rep.run_once(workload_, seed, trace, workdir, SMALL, 0.0)

    monkeypatch.setattr(target, raise_injected)
    monkeypatch.setattr(run, "run_rep", in_process)
    assert run.main(["--workload", workload, "--seconds", "0"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["attempted"] == run.MIN_REPS * len(run.load_expected(workload, 1))
    assert result["failed"] == result["attempted"]
    assert result["correct"] is False
    assert "host_us_per_llc_access" not in result["metrics"]


def test_traced_loadsim_matches_untraced_and_skips_replay(tmp_path, clean_env):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    plain = rep.run_once("loadsim-4t", 3, False, str(tmp_path / "a"), SMALL, 0.0)
    traced = rep.run_once("loadsim-4t", 3, True, str(tmp_path / "b"), SMALL, 0.0)
    assert traced["outputs"] == plain["outputs"]
    layers = traced["layers"]
    assert layers["cpu.calls"] == 0 and layers["replay.calls"] == 0
    assert layers["loadsim.runs"] == 2
    assert layers["loadsim.llc_accesses"] == plain["llc_accesses"]
    assert "unattributed" in traced["stage_table"]
    assert plain["slowdown"] > 0
    assert not any(t.name == "speed-probe" for t in threading.enumerate())
