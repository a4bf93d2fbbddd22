"""The batched DBRB kernel: equivalence, ablation fallback, fleet identity.

The paper's headline technique -- DBRB over the sampling dead block
predictor -- replays array-native.  The prediction plane is a
pure function of the access stream (with ``use_sampler=True`` the
sampler sees every access to a sampled set whether the LLC hit or
missed, and training comes exclusively from the sampler), so the kernel
consumes a precomputed ``dead[p]`` plane and must leave behind exactly
the object path's state: stats including bypasses and dead-block
victims, block contents including the per-block prediction bit, the
default policy's recency stacks or RNG position, and the predictor's
sampler sets, sampler stacks, and skewed counter tables.

TDBP and CDBP -- DBRB over the reftrace and counting predictors on the
LRU default -- replay array-native too, with the predictor inlined in
stream order (their tables train on LLC evictions, so nothing can be
precomputed).  They must additionally reproduce every resident block's
``meta`` (the trace signature; the live-time entry, count, limit and
confidence) and the final predictor tables.

Three layers of pinning, mirroring ``test_replay_array``:

* golden full-state equivalence on a stream engineered to actually
  exercise bypasses and dead-victim overrides (scanning PCs that train
  dead, reuse PCs that train live), and on a 4-core merged Figure-10
  stream;
* a hypothesis property over random streams and geometries for both
  default policies;
* every Figure 6 ablation shape must fall back to the object kernel
  with its documented ``dbrb-*`` reason;
* sweep bit-identity, array kernels vs an emptied kernel table, across
  the serial and parallel shared-memory paths, plus the fleet: a sampler
  sweep surviving a chaos-killed worker must stay bit-identical to the
  in-process object-kernel serial reference.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.cache.cache import Cache, CacheAccess
from repro.cache.geometry import CacheGeometry
from repro.core import DBRBPolicy, SamplingDeadBlockPredictor
from repro.predictors import AIPPredictor, CountingPredictor, RefTracePredictor
from repro.replacement import LRUPolicy, RandomPolicy, TreePLRUPolicy
from repro.sim import replay_array
from repro.sim.hierarchy import PreparedStream
from repro.sim.replay import _replay_fast, replay
from repro.utils.hashing import fold_xor
from repro.utils.rng import XorShift64

GEOMETRY = CacheGeometry(size_bytes=64 * 8 * 64, associativity=8, block_bytes=64)

#: Every Table V cell whose DBRBPolicy has an array kernel: the sampling
#: predictor on both defaults, reftrace (TDBP) and counting (CDBP) on LRU.
DBRB_POLICIES = {
    "sampler": lambda: DBRBPolicy(LRUPolicy(), SamplingDeadBlockPredictor()),
    "random_sampler": lambda: DBRBPolicy(
        RandomPolicy(), SamplingDeadBlockPredictor()
    ),
    "tdbp": lambda: DBRBPolicy(LRUPolicy(), RefTracePredictor()),
    "cdbp": lambda: DBRBPolicy(LRUPolicy(), CountingPredictor()),
}

#: The cells whose predictor trains on LLC evictions (no plane).
TRAINED_POLICIES = ("tdbp", "cdbp")


def make_dead_stream(geometry, length=6000, seed=11, seq_offset=0):
    """A stream whose predictions actually fire.

    Scanning PCs touch a 4x-capacity footprint once per visit (their
    sampler evictions train *dead*), while a handful of reuse PCs hammer
    a hot 1/16th (their sampler hits train *live*).  The skewed tables
    saturate for the scan signatures, producing real bypasses and
    dead-victim overrides -- without this shaping, ``dead[p]`` stays all
    zeros and the equivalence below would be vacuous.
    """
    rng = XorShift64(seed)
    footprint = geometry.num_sets * geometry.associativity * 4
    hot = max(1, footprint // 16)
    accesses = []
    for position in range(length):
        if rng.random() < 0.55:
            block = rng.randrange(footprint)
            pc = 0x40 + (block % 3)
        else:
            block = rng.randrange(hot)
            pc = 0x900 + (block % 5)
        accesses.append(
            CacheAccess(
                address=block * geometry.block_bytes,
                pc=pc,
                is_write=rng.random() < 0.25,
                seq=position + seq_offset,
                core=0,
            )
        )
    return accesses


def make_mixed_stream(geometry, length=4000, seed=7):
    """test_replay_array's generator: reuse skew, conflicts, varied PCs."""
    rng = XorShift64(seed)
    footprint = geometry.num_sets * geometry.associativity * 3
    accesses = []
    for position in range(length):
        block = rng.randrange(footprint)
        if rng.random() < 0.5:
            block = rng.randrange(max(1, footprint // 8))
        accesses.append(
            CacheAccess(
                address=block * geometry.block_bytes,
                pc=block & 0xFFFF,
                is_write=rng.random() < 0.3,
                seq=position,
                core=0,
            )
        )
    return accesses


def dbrb_state(policy):
    """Every DBRB internal the array kernel must reproduce exactly."""
    state = {}
    default = policy.default
    if hasattr(default, "_stacks"):
        state["default_stacks"] = repr(default._stacks)
    rng = getattr(default, "_rng", None)
    if rng is not None:
        state["default_rng"] = rng._state
    predictor = policy.predictor
    if isinstance(predictor, RefTracePredictor):
        state["table"] = repr(predictor.table)
        return state
    if isinstance(predictor, CountingPredictor):
        state["counts"] = repr(predictor.counts)
        state["confidences"] = repr(predictor.confidences)
        return state
    state["tables"] = repr(predictor.tables.tables)
    sampler = predictor.sampler
    state["sampler_sets"] = [
        [
            (entry.valid, entry.partial_tag, entry.signature, entry.prediction)
            for entry in entries
        ]
        for entries in sampler.sets
    ]
    state["sampler_stacks"] = repr(sampler._stacks)
    state["sampler_counters"] = (sampler.accesses, sampler.hits, sampler.evictions)
    return state


def block_state(cache):
    return [
        (
            block.valid, block.tag, block.dirty, block.predicted_dead,
            block.fill_seq, block.last_access_seq, block.access_count,
            dict(block.meta) if block.meta else {},
        )
        for blocks in cache.sets
        for block in blocks
    ]


def replay_both(policy_factory, geometry, stream):
    """Replay ``stream`` (a :class:`PreparedStream`, or an access list to
    decompose) on the object kernel, then through :func:`replay` (which
    takes the array kernel); return both sides."""
    if not isinstance(stream, PreparedStream):
        stream = PreparedStream.from_accesses(stream, geometry)
    object_cache = Cache(geometry, policy_factory())
    object_hits = _replay_fast(object_cache, stream)
    array_cache = Cache(geometry, policy_factory())
    array_hits = replay(array_cache, stream)
    return (object_hits, object_cache), (array_hits, array_cache)


def assert_equivalent(object_side, array_side):
    object_hits, object_cache = object_side
    array_hits, array_cache = array_side
    assert array_cache.last_replay_kernel == "array", (
        f"array kernel declined: {array_cache.last_replay_fallback}"
    )
    assert array_hits == object_hits
    assert array_cache.stats.snapshot() == object_cache.stats.snapshot()
    assert array_cache._tag_index == object_cache._tag_index
    assert block_state(array_cache) == block_state(object_cache)
    assert dbrb_state(array_cache.policy) == dbrb_state(object_cache.policy)


# ----------------------------------------------------------------------
# golden equivalence
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", sorted(DBRB_POLICIES))
def test_dbrb_array_kernel_matches_object_kernel(name):
    accesses = make_dead_stream(GEOMETRY)
    object_side, array_side = replay_both(DBRB_POLICIES[name], GEOMETRY, accesses)
    assert_equivalent(object_side, array_side)
    # The engineered stream must exercise every DBRB-specific path, or
    # the full-state equivalence above proves nothing about them.
    stats = array_side[1].stats
    assert stats.hits > 0 and stats.misses > 0 and stats.evictions > 0
    assert stats.writebacks > 0
    assert stats.bypasses > 0, "predictions never fired on the fill path"
    assert stats.dead_block_victims > 0, "victim override never fired"


@pytest.mark.parametrize("name", sorted(DBRB_POLICIES))
def test_dbrb_array_kernel_mixed_stream(name):
    """Varied-PC traffic where predictions mostly stay quiet: the kernel
    must agree on the boring streams too, not just the engineered one."""
    accesses = make_mixed_stream(GEOMETRY)
    object_side, array_side = replay_both(DBRB_POLICIES[name], GEOMETRY, accesses)
    assert_equivalent(object_side, array_side)


@pytest.mark.parametrize("name", sorted(DBRB_POLICIES))
def test_dbrb_array_kernel_matches_object_kernel_on_merged_stream(name, merged_mix):
    """A Figure-10 mix's 4-core merged shared-LLC stream: every Figure-10
    DBRB cell with an array kernel keeps full-state equivalence there."""
    geometry, stream = merged_mix
    assert {access.core for access in stream.accesses} == {0, 1, 2, 3}
    object_side, array_side = replay_both(DBRB_POLICIES[name], geometry, stream)
    assert_equivalent(object_side, array_side)
    stats = array_side[1].stats
    assert stats.bypasses > 0 and stats.dead_block_victims > 0
    assert stats.writebacks > 0


def test_dbrb_array_kernel_handles_stream_seq_offsets():
    """seq != position streams exercise the materializer's slow branch;
    the prediction plane must keep indexing by position regardless."""
    accesses = make_dead_stream(GEOMETRY, length=3000, seq_offset=50_000)
    object_side, array_side = replay_both(
        DBRB_POLICIES["sampler"], GEOMETRY, accesses
    )
    assert_equivalent(object_side, array_side)
    resident = [b for b in block_state(array_side[1]) if b[0]]
    assert resident and all(b[4] >= 50_000 for b in resident)


@pytest.mark.parametrize("name", TRAINED_POLICIES)
def test_trained_predictor_kernel_handles_stream_seq_offsets(name):
    """The reftrace/counting kernels never read ``seq``: an offset stream
    replays array-native, with the materializer's slow seq branch."""
    accesses = make_dead_stream(GEOMETRY, length=3000, seq_offset=50_000)
    object_side, array_side = replay_both(DBRB_POLICIES[name], GEOMETRY, accesses)
    assert_equivalent(object_side, array_side)
    resident = [b for b in block_state(array_side[1]) if b[0]]
    assert resident and all(b[4] >= 50_000 for b in resident)
    assert all(b[7] for b in resident), "resident blocks lost their meta"


def _same_set_blocks(geometry, count, predicate=lambda block: True):
    """The first ``count`` block addresses in set 0 passing ``predicate``."""
    blocks = []
    block = 0
    while len(blocks) < count:
        if predicate(block):
            blocks.append(block)
        block += geometry.num_sets
    return blocks


def _flip_stream(name):
    """A stream where eviction training flips an install prediction.

    Every access uses one PC in set 0 of a 2-set, 2-way cache.  TDBP: the
    third and fourth misses each evict an LRU block whose signature is
    the PC's own, so the fourth fill sees the counter reach the
    threshold only after ``predict_fill`` said live.  CDBP: blocks A and
    B share one live-time entry; re-filling A evicts B, whose final count
    of 1 repeats the entry's count and sets its confidence just before
    A's ``install`` reads it.
    """
    geometry = CacheGeometry(size_bytes=2 * 2 * 64, associativity=2)
    if name == "tdbp":
        blocks = _same_set_blocks(geometry, 4)
    else:
        column = fold_xor(0, 8)
        a, b = _same_set_blocks(
            geometry, 2, lambda block: fold_xor(block, 8) == column
        )
        filler = _same_set_blocks(
            geometry, 1, lambda block: fold_xor(block, 8) != column
        )[0]
        # A, B fill both ways; the filler evicts A (LRU) and B is then
        # the LRU way when A returns.
        blocks = [a, b, filler, a]
    accesses = [
        CacheAccess(address=block * 64, pc=0x40, is_write=False, seq=position)
        for position, block in enumerate(blocks)
    ]
    return geometry, accesses


@pytest.mark.parametrize("name", TRAINED_POLICIES)
def test_eviction_training_flips_install_prediction(name):
    """The last access misses, is *not* bypassed (``predict_fill`` said
    live), and yet its block is installed predicted dead: the eviction
    it caused trained the very entry ``install`` reads next."""
    geometry, accesses = _flip_stream(name)
    object_side, array_side = replay_both(DBRB_POLICIES[name], geometry, accesses)
    assert_equivalent(object_side, array_side)
    cache = array_side[1]
    assert cache.stats.bypasses == 0 and cache.stats.fills == len(accesses)
    last_tag = (accesses[-1].address >> geometry.offset_bits) >> geometry.index_bits
    way = cache._tag_index[0][last_tag]
    assert cache.sets[0][way].predicted_dead


@given(
    seed=st.integers(0, 2**32 - 1),
    length=st.integers(150, 600),
    sets=st.sampled_from([8, 16]),
    assoc=st.sampled_from([2, 4]),
    name=st.sampled_from(sorted(DBRB_POLICIES)),
    engineered=st.booleans(),
)
@settings(max_examples=40, deadline=None)
def test_dbrb_equivalence_property(seed, length, sets, assoc, name, engineered):
    """Random streams and geometries (including caches smaller than the
    32-set sampler, where every set is sampled): never a divergence."""
    geometry = CacheGeometry(size_bytes=sets * assoc * 64, associativity=assoc)
    maker = make_dead_stream if engineered else make_mixed_stream
    accesses = maker(geometry, length=length, seed=seed | 1)
    object_side, array_side = replay_both(DBRB_POLICIES[name], geometry, accesses)
    assert_equivalent(object_side, array_side)


# ----------------------------------------------------------------------
# ablation shapes: every documented dbrb-* fallback reason
# ----------------------------------------------------------------------
STREAM = make_dead_stream(GEOMETRY)
PREPARED = PreparedStream.from_accesses(STREAM, GEOMETRY)

ABLATIONS = {
    "dbrb-predictor:AIPPredictor": lambda: DBRBPolicy(
        LRUPolicy(), AIPPredictor()
    ),
    "dbrb-default:TreePLRUPolicy": lambda: DBRBPolicy(
        TreePLRUPolicy(), SamplingDeadBlockPredictor()
    ),
    "dbrb-no-bypass": lambda: DBRBPolicy(
        LRUPolicy(), SamplingDeadBlockPredictor(), enable_bypass=False
    ),
    "dbrb-no-replacement": lambda: DBRBPolicy(
        LRUPolicy(), SamplingDeadBlockPredictor(), enable_replacement=False
    ),
    "dbrb-no-sampler": lambda: DBRBPolicy(
        LRUPolicy(), SamplingDeadBlockPredictor(use_sampler=False)
    ),
    "dbrb-single-table": lambda: DBRBPolicy(
        LRUPolicy(), SamplingDeadBlockPredictor(skewed=False)
    ),
    "dbrb-sampler-geometry": lambda: DBRBPolicy(
        LRUPolicy(), SamplingDeadBlockPredictor(sampler_assoc=16)
    ),
    "dbrb-table-geometry": lambda: DBRBPolicy(
        LRUPolicy(), SamplingDeadBlockPredictor(threshold=4)
    ),
}


@pytest.mark.parametrize("reason", sorted(ABLATIONS))
def test_dbrb_fallback_ablation_shapes(reason):
    cache = Cache(GEOMETRY, ABLATIONS[reason]())
    replay(cache, PREPARED)
    assert cache.last_replay_kernel == "object"
    assert cache.last_replay_fallback == reason


def test_dbrb_fallback_warm_predictor():
    """The plane simulates from a cold predictor, so pre-trained tables
    or a touched sampler must push the replay to the object kernel."""
    trained = Cache(GEOMETRY, DBRB_POLICIES["sampler"]())
    trained.policy.predictor.tables.train(1, dead=True)
    replay(trained, PREPARED)
    assert trained.last_replay_kernel == "object"
    assert trained.last_replay_fallback == "dbrb-warm-predictor"

    touched = Cache(GEOMETRY, DBRB_POLICIES["sampler"]())
    touched.policy.predictor.sampler.accesses = 1
    replay(touched, PREPARED)
    assert touched.last_replay_kernel == "object"
    assert touched.last_replay_fallback == "dbrb-warm-predictor"


#: The trained-predictor kernels' declines: the shapes outside TDBP/CDBP
#: as Table V builds them, one per (reason, predictor).
TRAINED_DECLINES = {
    ("dbrb-default:RandomPolicy", "tdbp"): lambda: DBRBPolicy(
        RandomPolicy(), RefTracePredictor()
    ),
    ("dbrb-default:RandomPolicy", "cdbp"): lambda: DBRBPolicy(
        RandomPolicy(), CountingPredictor()
    ),
    ("dbrb-no-bypass", "tdbp"): lambda: DBRBPolicy(
        LRUPolicy(), RefTracePredictor(), enable_bypass=False
    ),
    ("dbrb-no-bypass", "cdbp"): lambda: DBRBPolicy(
        LRUPolicy(), CountingPredictor(), enable_bypass=False
    ),
    ("dbrb-no-replacement", "tdbp"): lambda: DBRBPolicy(
        LRUPolicy(), RefTracePredictor(), enable_replacement=False
    ),
    ("dbrb-no-replacement", "cdbp"): lambda: DBRBPolicy(
        LRUPolicy(), CountingPredictor(), enable_replacement=False
    ),
}


@pytest.mark.parametrize(
    "reason,name", sorted(TRAINED_DECLINES), ids="-".join
)
def test_trained_predictor_declines(reason, name):
    """Each decline replays on the object kernel with its named reason
    and the object kernel's results (the random default is Table V's
    ``random_cdbp``)."""
    factory = TRAINED_DECLINES[(reason, name)]
    cache = Cache(GEOMETRY, factory())
    hits = replay(cache, PREPARED)
    assert cache.last_replay_kernel == "object"
    assert cache.last_replay_fallback == reason
    object_cache = Cache(GEOMETRY, factory())
    assert hits == _replay_fast(object_cache, PREPARED)
    assert cache.stats.snapshot() == object_cache.stats.snapshot()


def _pretrain(policy):
    predictor = policy.predictor
    if isinstance(predictor, RefTracePredictor):
        predictor.table[7] = 1
    else:
        predictor.confidences[7] = 1
    return policy


@pytest.mark.parametrize("name", TRAINED_POLICIES)
def test_trained_predictor_fallback_warm_predictor(name):
    """The kernels start from a cold table; a pre-trained one (a warmup
    experiment) keeps the object kernel."""
    cache = Cache(GEOMETRY, _pretrain(DBRB_POLICIES[name]()))
    hits = replay(cache, PREPARED)
    assert cache.last_replay_kernel == "object"
    assert cache.last_replay_fallback == "dbrb-warm-predictor"
    object_cache = Cache(GEOMETRY, _pretrain(DBRB_POLICIES[name]()))
    assert hits == _replay_fast(object_cache, PREPARED)


# ----------------------------------------------------------------------
# end-to-end sweep bit-identity, array kernels vs an emptied table
# ----------------------------------------------------------------------
SWEEP_BENCHMARKS = ("mcf",)
SWEEP_TECHNIQUES = ("sampler", "random_sampler")


def run_sweep(**kwargs):
    from repro.harness.export import to_dict
    from repro.harness.parallel import parallel_single_thread_comparison
    from repro.harness.runner import ExperimentConfig

    config = ExperimentConfig(instructions=30_000)
    comparison = parallel_single_thread_comparison(
        config, SWEEP_TECHNIQUES, SWEEP_BENCHMARKS, **kwargs
    )
    return to_dict(comparison)


def object_sweep(monkeypatch, **kwargs):
    """The same sweep in this process with the kernel table emptied, so
    every cell replays on the object kernel."""
    with monkeypatch.context() as patch:
        patch.setattr(replay_array, "_KERNELS", {})
        return run_sweep(**kwargs)


def test_dbrb_sweep_bit_identity_array_on_off_serial(monkeypatch):
    assert run_sweep(jobs=1) == object_sweep(monkeypatch, jobs=1)


@pytest.mark.faults
def test_dbrb_sweep_bit_identity_array_on_parallel_shm(monkeypatch):
    """Array kernel inside spawn workers with shared-memory streams must
    match the in-process object-kernel sweep bit for bit."""
    parallel = run_sweep(jobs=2, shared_memory=True)
    assert parallel == object_sweep(monkeypatch, jobs=1)


# ----------------------------------------------------------------------
# fleet: a sampler sweep survives a chaos-killed worker bit-identically
# ----------------------------------------------------------------------
_KILL_EXIT_CODE = 67


def _spawn_worker(url, name, root, extra_env):
    env = dict(os.environ)
    src_dir = str(Path(repro.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        [src_dir] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env.pop("REPRO_CHAOS", None)
    env.update(extra_env)
    return subprocess.Popen(
        [
            sys.executable, "-m", "repro", "worker",
            "--connect", url, "--name", name, "--once",
            "--stream-cache", str(root / f"worker-streams-{name}"),
        ],
        env=env,
    )


@pytest.mark.fleet(timeout=240)
def test_fleet_sampler_bit_identity_across_chaos_kill(tmp_path, monkeypatch):
    """End to end: sampler cells replayed on the array kernel inside real
    fleet workers -- one chaos-killed mid-lease, its cells re-dispatched
    -- produce the same bytes as an object-kernel serial sweep in this
    process (kernel table emptied)."""
    from repro.harness.export import to_dict
    from repro.harness.parallel import parallel_single_thread_comparison
    from repro.harness.runner import ExperimentConfig, WorkloadCache
    from repro.service.client import ServiceClient
    from repro.service.scheduler import ExperimentScheduler
    from repro.service.server import ExperimentServer

    config = ExperimentConfig(scale=16, instructions=10_000, seed=1)
    with monkeypatch.context() as patch:
        patch.setattr(replay_array, "_KERNELS", {})
        serial = parallel_single_thread_comparison(
            WorkloadCache(config), list(SWEEP_TECHNIQUES), ("perlbench",), jobs=1
        )
    expected = to_dict(serial)

    scheduler = ExperimentScheduler(
        job_store=tmp_path / "service",
        stream_cache=tmp_path / "streams",
        fleet=True,
        lease_ttl=0.5,
        heartbeat_seconds=0.1,
        lease_cells=2,
    )
    handle = ExperimentServer(scheduler, port=0).start_in_thread()
    workers = []
    try:
        url = f"http://127.0.0.1:{handle.port}"
        client = ServiceClient(url)
        job = client.submit(
            client="dbrb-chaos",
            benchmarks=["perlbench"], techniques=list(SWEEP_TECHNIQUES),
            sweep=True,
            config={
                "scale": config.scale,
                "instructions": config.instructions,
                "seed": config.seed,
                "cores": config.num_cores,
            },
        )
        # The victim is chaos-rigged to die, kill -9 style, the moment
        # it starts its first cell.
        victim = _spawn_worker(url, "victim", tmp_path, {"REPRO_CHAOS": "kill:1@1"})
        workers.append(victim)
        deadline = time.monotonic() + 60.0
        while time.monotonic() < deadline:
            if client.stats()["fleet"]["cells"]["leased"] >= 1:
                break
            time.sleep(0.1)
        else:
            pytest.fail("victim worker never leased a cell")
        assert victim.wait(timeout=60.0) == _KILL_EXIT_CODE

        survivor = _spawn_worker(url, "survivor", tmp_path, {})
        workers.append(survivor)
        final = client.wait(job["id"], timeout=180.0)
        assert final["state"] == "done", final.get("error")
        assert client.result(job["id"]) == expected

        fleet = client.stats()["fleet"]
        assert fleet["cells"]["redispatched"] >= 1
        assert fleet["leases"]["expired"] >= 1
        assert survivor.wait(timeout=60.0) == 0
    finally:
        for proc in workers:
            if proc.poll() is None:
                proc.terminate()
                try:
                    proc.wait(timeout=10.0)
                except subprocess.TimeoutExpired:
                    proc.kill()
        handle.stop()
