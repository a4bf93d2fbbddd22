"""Round-trip tests for :mod:`repro.harness.export`.

``export_json`` followed by ``json.load`` must preserve every field of
every serializable result kind -- the exported files feed the plotting
scripts, so a silently dropped or coerced field corrupts figures
downstream.  Result objects are synthesized with hand-picked values so
each assertion pins an exact number through the round trip.
"""

from __future__ import annotations

import json
import math
from types import SimpleNamespace

import pytest

from repro.harness.experiments import (
    AccuracyResult,
    EfficiencyResult,
    MulticoreComparison,
    SingleThreadComparison,
)
from repro.harness.export import export_json, to_dict
from repro.harness.faults import CellTimeout


def _run(misses: int, ipc: float) -> SimpleNamespace:
    """A RunResult stand-in with the attributes the accessors touch."""
    return SimpleNamespace(llc_stats=SimpleNamespace(misses=misses), ipc=ipc)


def _single_thread() -> SingleThreadComparison:
    return SingleThreadComparison(
        benchmarks=("mcf", "hmmer"),
        technique_keys=("sampler", "rrip"),
        baseline={"mcf": _run(1000, 0.5), "hmmer": _run(400, 1.0)},
        results={
            "mcf": {"sampler": _run(800, 0.6), "rrip": _run(900, 0.55)},
            "hmmer": {"sampler": _run(300, 1.2), "rrip": _run(380, 1.05)},
        },
        failures=(
            CellTimeout("mcf", "rrip", attempts=3, detail="cell exceeded 30s"),
        ),
    )


def _multicore() -> MulticoreComparison:
    def mc(misses, weighted_ipc):
        return SimpleNamespace(
            llc_stats=SimpleNamespace(misses=misses), weighted_ipc=weighted_ipc
        )

    return MulticoreComparison(
        mixes=("mix1", "mix2"),
        technique_keys=("sampler",),
        baseline={"mix1": mc(2000, 2.0), "mix2": mc(500, 3.0)},
        results={
            "mix1": {"sampler": mc(1500, 2.4)},
            "mix2": {"sampler": mc(450, 3.3)},
        },
    )


def _accuracy() -> AccuracyResult:
    return AccuracyResult(
        predictors=("reftrace", "sampler"),
        coverage={
            "reftrace": {"mcf": 0.9, "hmmer": 0.8},
            "sampler": {"mcf": 0.7, "hmmer": 0.6},
        },
        false_positive={
            "reftrace": {"mcf": 0.05, "hmmer": 0.1},
            "sampler": {"mcf": 0.2, "hmmer": 0.3},
        },
    )


def _efficiency() -> EfficiencyResult:
    return EfficiencyResult(
        benchmark="hmmer",
        lru_efficiency=0.22,
        sampler_efficiency=0.87,
        lru_matrix=[[0.1, 0.2], [0.3, 0.4]],
        sampler_matrix=[[0.5, 0.6], [0.7, 0.8]],
    )


@pytest.mark.parametrize(
    "factory", [_single_thread, _multicore, _accuracy, _efficiency],
    ids=["single_thread", "multicore", "accuracy", "efficiency"],
)
def test_export_json_roundtrip_is_lossless(factory, tmp_path):
    result = factory()
    path = tmp_path / "result.json"
    export_json(result, path)
    assert json.load(open(path)) == to_dict(result)


def test_single_thread_fields_survive(tmp_path):
    result = _single_thread()
    path = tmp_path / "st.json"
    export_json(result, path)
    data = json.load(open(path))

    assert data["kind"] == "single_thread_comparison"
    assert data["benchmarks"] == ["mcf", "hmmer"]
    assert data["techniques"] == ["sampler", "rrip"]
    assert data["normalized_mpki"]["mcf"]["sampler"] == 800 / 1000
    assert data["normalized_mpki"]["hmmer"]["rrip"] == 380 / 400
    assert data["speedup"]["mcf"]["sampler"] == 0.6 / 0.5
    assert data["mpki_amean"]["sampler"] == pytest.approx((0.8 + 0.75) / 2)
    assert data["speedup_gmean"]["sampler"] == pytest.approx(
        math.sqrt((0.6 / 0.5) * (1.2 / 1.0))
    )
    assert data["failures"] == [
        {
            "benchmark": "mcf",
            "technique": "rrip",
            "kind": "CellTimeout",
            "attempts": 3,
            "detail": "cell exceeded 30s",
        }
    ]


def test_multicore_fields_survive(tmp_path):
    result = _multicore()
    path = tmp_path / "mc.json"
    export_json(result, path)
    data = json.load(open(path))

    assert data["kind"] == "multicore_comparison"
    assert data["mixes"] == ["mix1", "mix2"]
    assert data["normalized_weighted_speedup"]["mix1"]["sampler"] == 2.4 / 2.0
    assert data["normalized_mpki"]["mix2"]["sampler"] == 450 / 500
    assert data["speedup_gmean"]["sampler"] == pytest.approx(
        math.sqrt((2.4 / 2.0) * (3.3 / 3.0))
    )


def test_accuracy_fields_survive(tmp_path):
    result = _accuracy()
    path = tmp_path / "acc.json"
    export_json(result, path)
    data = json.load(open(path))

    assert data["kind"] == "accuracy"
    assert data["predictors"] == ["reftrace", "sampler"]
    assert data["coverage"]["sampler"]["hmmer"] == 0.6
    assert data["false_positive"]["reftrace"]["mcf"] == 0.05
    assert data["mean_coverage"]["reftrace"] == pytest.approx(0.85)
    assert data["mean_false_positive"]["sampler"] == pytest.approx(0.25)


def test_efficiency_fields_survive(tmp_path):
    result = _efficiency()
    path = tmp_path / "eff.json"
    export_json(result, path)
    data = json.load(open(path))

    assert data["kind"] == "efficiency"
    assert data["benchmark"] == "hmmer"
    assert data["lru_efficiency"] == 0.22
    assert data["sampler_efficiency"] == 0.87
    assert data["lru_matrix"] == [[0.1, 0.2], [0.3, 0.4]]
    assert data["sampler_matrix"] == [[0.5, 0.6], [0.7, 0.8]]


def test_unknown_result_type_raises(tmp_path):
    with pytest.raises(TypeError, match="cannot serialize"):
        export_json(object(), tmp_path / "nope.json")


@pytest.mark.faults
def test_partial_sweep_with_dedup_hit_cells_roundtrips(tmp_path, monkeypatch):
    """A *real* partial sweep: checkpointed (dedup-hit) cells resumed off
    disk mixed with cells that failed unrecoverably.  The export must
    round-trip losslessly -- real numbers for the resumed cells, JSON
    ``null`` for the failed cells and for any mean that folds one in --
    instead of crashing on the missing cells.
    """
    from repro.harness.checkpoint import CheckpointStore
    from repro.harness.faults import FaultPolicy
    from repro.harness.parallel import parallel_single_thread_comparison
    from repro.harness.runner import ExperimentConfig

    config = ExperimentConfig(instructions=20_000)
    store = CheckpointStore(tmp_path / "ckpt")

    # Phase 1: complete the perlbench cells into the checkpoint store;
    # on resume they are the sweep's dedup hits.
    parallel_single_thread_comparison(
        config, ("rrip",), ("perlbench",), jobs=1, checkpoint=store
    )

    # Phase 2: resume over perlbench+mcf with every worker attempt
    # crashing and no degradation: perlbench comes off disk, every mcf
    # cell fails, and allow_partial returns the mixed result.
    monkeypatch.setenv("REPRO_CHAOS", "kill:1.0")
    comparison = parallel_single_thread_comparison(
        config, ("rrip",), ("perlbench", "mcf"), jobs=2,
        checkpoint=store, resume=True,
        fault_policy=FaultPolicy(
            max_retries=0, watchdog=2.0, backoff=0.0, degrade_serially=False
        ),
        allow_partial=True,
    )
    assert comparison.is_partial
    assert "perlbench" in comparison.baseline and "mcf" not in comparison.baseline

    path = tmp_path / "partial.json"
    export_json(comparison, path)
    data = json.load(open(path))
    assert data == to_dict(comparison)

    assert data["normalized_mpki"]["perlbench"]["rrip"] is not None
    assert data["speedup"]["perlbench"]["rrip"] is not None
    assert data["normalized_mpki"]["mcf"]["rrip"] is None
    assert data["speedup"]["mcf"]["rrip"] is None
    assert data["mpki_amean"]["rrip"] is None
    assert data["speedup_gmean"]["rrip"] is None
    failed = {(f["benchmark"], f["technique"]) for f in data["failures"]}
    assert ("mcf", "rrip") in failed
