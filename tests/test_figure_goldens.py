"""Golden digests of every figure function's output.

Each figure function of :mod:`repro.harness.experiments` is run at a
tiny configuration for seeds 1 and 7, its result is rendered to
canonical JSON (floats by ``repr``, so exactly), and the SHA-256 of that
text is compared with a pinned value.  The pins were recorded from the
hand-rolled serial loops the figures used before they became cell lists
over one driver, so they are the bit-identity gate for that model: a
change to how cells are run, ordered, shipped between processes or
reduced must leave every digest alone.

``figure_output`` and ``FIGURES`` are shared with
``tests/test_parallel_harness.py``, which checks the same outputs at one
job against two.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict

import pytest

from repro.harness import experiments
from repro.harness.runner import ExperimentConfig, WorkloadCache
from repro.harness.techniques import (
    MULTICORE_LRU_TECHNIQUES,
    MULTICORE_RANDOM_TECHNIQUES,
    RANDOM_DEFAULT_TECHNIQUES,
    SINGLE_THREAD_TECHNIQUES,
)

BENCHMARKS = ("mcf", "libquantum")
MIX = ("mix1",)
ZIPF_SPECS = tuple(experiments.zipf_skew_axis((0.8, 1.4)))
#: The design sweeps of ``benchmarks/bench_ext_design_sweeps.py``, three
#: points per axis: name -> (predictor argument, values).
DESIGN_SWEEPS = {
    "sweep-sets": ("sampler_sets", (4, 32, 64)),
    "sweep-threshold": ("threshold", (2, 8, 9)),
    "sweep-assoc": ("sampler_assoc", (8, 12, 16)),
}


def tiny_config(seed: int) -> ExperimentConfig:
    return ExperimentConfig(scale=32, instructions=20_000, seed=seed)


def _stats(result) -> dict:
    return asdict(result.llc_stats.snapshot())


def _hits(result) -> str:
    bits = "".join("1" if hit else "0" for hit in result.llc_hits)
    return hashlib.sha256(bits.encode("ascii")).hexdigest()


def _comparison(comparison) -> dict:
    cells = {}
    for benchmark in comparison.benchmarks:
        runs = {"<baseline>": comparison.baseline[benchmark]}
        runs.update(comparison.results[benchmark])
        for key, run in runs.items():
            cycles = run.timing.cycles if run.timing is not None else None
            cells[f"{benchmark}/{key}"] = [_stats(run), cycles, _hits(run)]
    return {
        "mpki": comparison.mpki_rows(),
        "speedup": comparison.speedup_rows(),
        "cells": cells,
    }


def _multicore(comparison) -> dict:
    cells = {}
    for mix in comparison.mixes:
        runs = {"<baseline>": comparison.baseline[mix]}
        runs.update(comparison.results[mix])
        for key, run in runs.items():
            cells[f"{mix}/{key}"] = [_stats(run), run.ipcs, run.single_ipcs]
    return {"speedup": comparison.speedup_rows(), "cells": cells}


def figure_output(name: str, cache: WorkloadCache):
    """The figure's result as JSON-ready data."""
    if name == "fig01":
        return asdict(experiments.efficiency_experiment(cache, "hmmer"))
    if name == "fig04":
        return _comparison(experiments.single_thread_comparison(
            cache, SINGLE_THREAD_TECHNIQUES, BENCHMARKS
        ))
    if name == "fig06":
        return experiments.ablation_experiment(cache, BENCHMARKS)
    if name == "fig07":
        return _comparison(experiments.single_thread_comparison(
            cache, RANDOM_DEFAULT_TECHNIQUES, BENCHMARKS
        ))
    if name == "fig09":
        return asdict(experiments.accuracy_experiment(cache, BENCHMARKS))
    if name == "fig10":
        keys = MULTICORE_LRU_TECHNIQUES + MULTICORE_RANDOM_TECHNIQUES
        return _multicore(experiments.multicore_comparison(cache, keys, MIX))
    if name == "table3":
        return experiments.characterization_table(cache, BENCHMARKS)
    if name == "patterns":
        return asdict(experiments.pattern_sweep_experiment(cache, ZIPF_SPECS))
    if name in DESIGN_SWEEPS:
        argument, values = DESIGN_SWEEPS[name]
        shapes = [{argument: value} for value in values]
        speedups = experiments.shape_sweep_experiment(cache, shapes, BENCHMARKS)
        return [[value, speedup] for value, speedup in zip(values, speedups)]
    raise ValueError(name)


def digest(output) -> str:
    text = json.dumps(output, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


#: (figure, seed) -> sha256 of the canonical JSON of its output.
GOLDEN = {
    ("fig01", 1): "17f8553c4720ebde55fbe04b10d154302ea4e7a810d60d8f0355c2dfaf265d7e",
    ("fig04", 1): "a7b2000666c78190846ed4af76ea511c7e626a4df83f13e0d695aff0972b6239",
    ("fig06", 1): "e6f3b3104cf069ac91276c9ea954bdf868893d1f02fa661a8201804ae2add89e",
    ("fig07", 1): "c6099287cb8a6b7bd8b43da8355e9d403869dfa2ac195e8fa57a7c59411d454b",
    ("fig09", 1): "cc6627cb4d3793ad2a4fe776cb0576ec36350fcd5be4eab2bbae9e63ac9cdb40",
    ("fig10", 1): "35673850c113cb222907c784c6658b0ee0a4bb9f561c8dc5660e76820cc07b6f",
    ("table3", 1): "13ea680f82f758cccd7bffd4b28bfab3327b5a16023e87675c806f9746a216f1",
    ("patterns", 1): "f9e74dd05d3bb1ab767c9fe2c53149da7acd0fefa2fb58ff7978146b1c3454a4",
    ("fig01", 7): "60d5541edfd25cf8d213f33dd472ad76024c821fcab8783ec7c77685dd944d7b",
    ("fig04", 7): "01d272a90b5eacc7786ebb0018870fc72c9c4c71fbec3f3705715827ccd00b73",
    ("fig06", 7): "e9ab046fac63b931073ffee85a10bb4a38743df86d2967e50084294cc4a39915",
    ("fig07", 7): "5b743097a960607066917a639c4669ba7381b6247b29d4acb4777481055afe62",
    ("fig09", 7): "659c8147c2df3a9453b54602d9b95dd12cee137dea9887e372c4e36d01adf094",
    ("fig10", 7): "4d8b83df228420a712c8b27810a14b5e79b8f380bcd60e60b9fbe8e93f23e43f",
    ("table3", 7): "12beca283d89beb95503cfeaaf5b530c0b8dab958569a77d29ddc1f9fa04d8e9",
    ("patterns", 7): "0dd4f3bb24152336c14f39ece729142e15af2b4d5f1e2d28cd6f65c8daf3f400",
    # Recorded from the design sweeps' hand loop (one LRU baseline and
    # one DBRB run per benchmark and point) before they became cells.
    ("sweep-sets", 1): "4643d3faf93e3f3642f41af683932a85ade80a871dbf8e7e47d45062ca7f5af0",
    ("sweep-threshold", 1): "e701da18eb9e25dbbee6df5b15a4f26f4af77925829011224c68d17792235be1",
    ("sweep-assoc", 1): "6e7babb627ee1c962ad19be3d475ac29769507032bf7ad35c6cdf3fd38dedc15",
    ("sweep-sets", 7): "a2538d569d7121500e66979c1f8ce805a297d97673bfa35410cef69d148d3ff0",
    ("sweep-threshold", 7): "3e58826535e44f318f8ad892f6ceba3d44b1253a171d743c1d4b092ff35cd2cb",
    ("sweep-assoc", 7): "1018bf543cde85ffe4ced63cbaf59cc713cfcf9771716c13d09e9e2b8715e77d",
}

FIGURES = (
    "fig01", "fig04", "fig06", "fig07", "fig09", "fig10", "table3", "patterns",
    *DESIGN_SWEEPS,
)


@pytest.fixture(scope="module")
def caches():
    return {seed: WorkloadCache(tiny_config(seed)) for seed in (1, 7)}


@pytest.mark.parametrize("seed", (1, 7))
@pytest.mark.parametrize("figure", FIGURES)
def test_figure_output_is_pinned(figure, seed, caches, monkeypatch):
    monkeypatch.delenv("REPRO_JOBS", raising=False)
    assert digest(figure_output(figure, caches[seed])) == GOLDEN[(figure, seed)]
