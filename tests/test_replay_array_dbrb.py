"""The DBRB array kernels: the sampling predictor, TDBP and CDBP.

Named cases over the differential harness
(:mod:`tests.test_replay_differential`) for the Table V cells whose
:class:`~repro.core.DBRBPolicy` has an array kernel.  Each replays on
the array kernel and, where named ``*_matches_object_kernel``, again
with the kernel table emptied, both against the reference loop; the
harness compares the sampler sets and stacks, the predictor tables and
every block's ``meta`` and prediction bit.  This suite's own shapes are
a 64-set, 8-way cache and random streams on 8 or 16 sets.  At the figure
goldens' tiny configuration, the Figure 6 and design-sweep cells must
report the kernel they replayed on, and the paper-shape cells must reuse
a prebuilt prediction plane.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.geometry import CacheGeometry
from repro.harness import experiments
from repro.harness.runner import WorkloadCache
from repro.harness.techniques import TECHNIQUES
from repro.sim.hierarchy import BUILDS
from repro.telemetry.manifest import RunManifest
from tests.conftest import make_stream
from tests.test_figure_goldens import BENCHMARKS, DESIGN_SWEEPS, tiny_config
from tests.test_replay_differential import differential

GEOMETRY = CacheGeometry(size_bytes=64 * 8 * 64, associativity=8)

#: The sampling predictor on both defaults, reftrace (TDBP) and counting
#: (CDBP) on LRU.
DBRB_SUBJECTS = ("sampler", "random_sampler", "tdbp", "cdbp")


@pytest.mark.parametrize("name", DBRB_SUBJECTS)
def test_dbrb_array_kernel_matches_object_kernel(name):
    """Both kernels on an engineered stream (scanning PCs that train dead,
    reuse PCs that train live) and on a reuse-skewed one.  Each stream
    must exercise hits, evictions and writebacks, and together they must
    exercise every DBRB-specific path: the scans make the sampler, TDBP
    and CDBP bypass, and CDBP only overrides a victim once its blocks are
    reused."""
    runs = []
    for shape in ("dead", "mixed"):
        stream = make_stream(GEOMETRY, shape, 6000, seed=11, write_frac=0.25)
        runs.append(differential(name, GEOMETRY, stream).stats)
        differential(name, GEOMETRY, stream, "kernels-off")
    for stats in runs:
        assert stats.hits > 0 and stats.misses > 0 and stats.evictions > 0
        assert stats.writebacks > 0
    assert runs[0].bypasses > 0, "predictions never fired on the fill path"
    assert any(stats.dead_block_victims for stats in runs), (
        "victim override never fired"
    )


@pytest.mark.parametrize("name", DBRB_SUBJECTS)
def test_dbrb_array_kernel_mixed_stream(name):
    """Varied-PC traffic where predictions mostly stay quiet: the kernel
    must agree on the boring streams too, not just the engineered one."""
    differential(name, GEOMETRY, make_stream(GEOMETRY))


@given(
    seed=st.integers(0, 2**32 - 1),
    length=st.integers(150, 600),
    sets=st.sampled_from([8, 16]),
    assoc=st.sampled_from([2, 4]),
    name=st.sampled_from(DBRB_SUBJECTS),
    engineered=st.booleans(),
)
@settings(max_examples=40, deadline=None)
def test_dbrb_equivalence_property(seed, length, sets, assoc, name, engineered):
    """Random streams and geometries (including caches smaller than the
    32-set sampler, where every set is sampled): never a divergence."""
    geometry = CacheGeometry(size_bytes=sets * assoc * 64, associativity=assoc)
    shape = "dead" if engineered else "mixed"
    differential(name, geometry, make_stream(geometry, shape, length, seed | 1))


def _dbrb_cell_kernels(tmp_path, monkeypatch, run):
    """Run ``run(cache)`` serially at the tiny configuration; return each
    non-baseline cell's label -> ``"array"`` or its fallback reason, as
    the run manifest records them."""
    events = tmp_path / "events.ndjson"
    monkeypatch.delenv("REPRO_JOBS", raising=False)
    monkeypatch.setenv("REPRO_EVENTS_FILE", str(events))
    run(WorkloadCache(tiny_config(1)))
    cells = RunManifest.load(f"{events}.manifest.json")["cells"]
    return {
        label: cell.get("kernel_fallback", cell["kernel"])
        for label, cell in cells.items()
        if not label.endswith("lru(baseline)")
    }


def test_figure6_cells_replay_on_the_array_kernel(tmp_path, monkeypatch):
    """Every Figure 6 variant that keeps the sampler replays on the array
    kernel over its own shape's plane; the two without a sampler decline."""
    kernels = _dbrb_cell_kernels(
        tmp_path, monkeypatch,
        lambda cache: experiments.ablation_experiment(cache, BENCHMARKS),
    )
    assert len(kernels) == len(experiments.ABLATION_VARIANTS) * len(BENCHMARKS)
    no_sampler = [label for label in kernels if "use_sampler=False" in label]
    assert len(no_sampler) == 2 * len(BENCHMARKS)
    for label, kernel in kernels.items():
        assert kernel == ("dbrb-no-sampler" if label in no_sampler else "array"), label


@pytest.mark.parametrize("sweep", sorted(DESIGN_SWEEPS))
def test_design_sweep_cells_replay_on_the_array_kernel(sweep, tmp_path, monkeypatch):
    argument, values = DESIGN_SWEEPS[sweep]
    kernels = _dbrb_cell_kernels(
        tmp_path, monkeypatch,
        lambda cache: experiments.shape_sweep_experiment(
            cache, [{argument: value} for value in values], BENCHMARKS
        ),
    )
    assert len(kernels) == len(values) * len(BENCHMARKS)
    assert set(kernels.values()) == {"array"}


def test_paper_shape_cells_reuse_the_prebuilt_plane():
    """A plane built by the one-argument call (the paper's shape) serves
    the ``sampler`` and ``random_sampler`` replays: neither builds one."""
    cache = WorkloadCache(tiny_config(1))
    geometry = cache.machine.llc
    filtered = cache.filtered(BENCHMARKS[0])
    filtered.llc_stream(geometry).prediction_plane(geometry.num_sets)
    builds = BUILDS["prediction_plane"]
    for key in ("sampler", "random_sampler"):
        result = cache.system.run(filtered, TECHNIQUES[key].build, key, compute_timing=False)
        assert result.kernel == "array", key
    assert BUILDS["prediction_plane"] == builds
