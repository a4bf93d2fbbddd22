"""Shared test helpers.

The helpers here build tiny caches and replay short access strings so the
unit tests can state expectations exactly.  Everything is deterministic.

Fault-injection tests (``@pytest.mark.faults``, run via ``make
test-faults``) exercise worker crashes, hangs, and timeouts, and
experiment-service tests (``@pytest.mark.service``, run via ``make
test-service``) exercise a live job server, fleet tests
(``@pytest.mark.fleet``, run via ``make test-fleet``) exercise
lease-based dispatch with real worker processes, workload tests
(``@pytest.mark.workloads``, run via ``make test-workloads``) exercise
pattern generators and trace replay, and load-simulator tests
(``@pytest.mark.loadsim``, run via ``make test-loadsim``) exercise the
arrival schedule and the simulation pass; a regression in any can
*wedge* rather than fail, so every marked test runs under a hard SIGALRM
deadline (default 120s, override with
``@pytest.mark.faults(timeout=N)`` / ``@pytest.mark.service(timeout=N)``)
that turns a hang into a loud failure instead of a stuck suite.
"""

from __future__ import annotations

import signal
from typing import Iterable, List

import pytest

from repro.cache import Cache, CacheAccess, CacheGeometry
from repro.sim.hierarchy import PreparedStream, decompose
from repro.utils.rng import XorShift64

_HARD_TEST_TIMEOUT = 120.0

#: Markers whose tests run under a hard wall-clock deadline.
_DEADLINE_MARKERS = ("faults", "service", "fleet", "workloads", "loadsim")


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_call(item):
    marker = next(
        (m for name in _DEADLINE_MARKERS
         if (m := item.get_closest_marker(name)) is not None),
        None,
    )
    if marker is None or not hasattr(signal, "SIGALRM"):
        yield
        return
    limit = float(marker.kwargs.get("timeout", _HARD_TEST_TIMEOUT))

    def _on_alarm(signum, frame):
        raise TimeoutError(
            f"deadline-marked test {item.nodeid} exceeded its {limit}s "
            "hard deadline"
        )

    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, limit)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def tiny_geometry(sets: int = 4, assoc: int = 2, block: int = 64) -> CacheGeometry:
    """A small cache geometry for unit tests."""
    return CacheGeometry(
        size_bytes=sets * assoc * block, associativity=assoc, block_bytes=block
    )


def make_access(
    block_number: int,
    geometry: CacheGeometry,
    pc: int = 0x400000,
    is_write: bool = False,
    seq: int = 0,
    core: int = 0,
) -> CacheAccess:
    """Build an access to the ``block_number``-th block of the address space.

    Block numbers enumerate blocks linearly, so consecutive numbers map to
    consecutive sets and numbers ``sets`` apart collide in one set.
    """
    return CacheAccess(
        address=block_number * geometry.block_bytes,
        pc=pc,
        is_write=is_write,
        seq=seq,
        core=core,
    )


def replay(cache: Cache, block_numbers: Iterable[int], pc: int = 0x400000) -> List[bool]:
    """Access a sequence of block numbers; return the per-access hit flags."""
    results = []
    for seq, number in enumerate(block_numbers):
        access = make_access(number, cache.geometry, pc=pc, seq=seq)
        results.append(cache.access(access))
    return results


def simulate_lru_reference(
    block_numbers: Iterable[int], sets: int, assoc: int
) -> List[bool]:
    """Oracle LRU simulator used to cross-check the Cache + LRUPolicy pair.

    Implemented with per-set ordered lists, independently of the production
    code, so a bug in the real stack maintenance cannot hide.
    """
    contents: List[List[int]] = [[] for _ in range(sets)]
    hits = []
    for number in block_numbers:
        set_index = number % sets
        tag = number // sets
        bucket = contents[set_index]
        if tag in bucket:
            bucket.remove(tag)
            bucket.insert(0, tag)
            hits.append(True)
        else:
            bucket.insert(0, tag)
            if len(bucket) > assoc:
                bucket.pop()
            hits.append(False)
    return hits


#: The shapes :func:`make_stream` builds.
SHAPES = ("mixed", "dead", "cold")


def make_stream(geometry, shape="mixed", length=4000, seed=7, write_frac=0.3):
    """A deterministic :class:`PreparedStream` of one of three shapes.

    * ``mixed``: reuse skew over three times the cache's frames, one PC
      per block: hits, conflicts and evictions, while dead-block
      predictions mostly stay quiet.
    * ``dead``: scanning PCs sweep sixteen times the frames (their
      sampler evictions train *dead*) while a few reuse PCs hammer a hot
      quarter of the frames (trained *live*), so predictions fire:
      bypasses and dead-victim overrides.
    * ``cold``: half the accesses reuse a hot working set, half stream
      through never-revisited blocks from a handful of PCs; two cores
      interleave.
    """
    rng = XorShift64(seed)
    frames = geometry.num_sets * geometry.associativity
    next_cold = 16 * frames
    addresses, pcs, writes, cores = [], [], [], []
    for position in range(length):
        if shape == "mixed":
            block = rng.randrange(3 * frames)
            if rng.random() < 0.5:
                block = rng.randrange(max(1, 3 * frames // 8))
            pc = block & 0xFFFF
        elif shape == "dead":
            if rng.random() < 0.55:
                block = rng.randrange(16 * frames)
                pc = 0x40 + block % 3
            else:
                block = rng.randrange(max(1, frames // 4))
                pc = 0x900 + block % 5
        elif rng.randrange(2):
            block = rng.randrange(2 * frames)
            if rng.randrange(4):
                block %= max(1, 3 * frames // 8)
            pc = 0x400000 + 8 * rng.randrange(24)
        else:
            block = next_cold
            next_cold += 1
            pc = 0x500000 + 8 * rng.randrange(4)
        addresses.append(block * geometry.block_bytes)
        pcs.append(pc)
        writes.append(rng.random() < write_frac)
        cores.append(position % 2 if shape == "cold" else 0)
    return PreparedStream(
        addresses, pcs, writes, *decompose(addresses, geometry), cores=cores
    )


@pytest.fixture
def geometry() -> CacheGeometry:
    return tiny_geometry()


@pytest.fixture(scope="session")
def fig10_workloads():
    """A small Figure-10 workload cache (1/64 machine, 20k instructions
    per core), shared by the multicore golden pin and the merged-stream
    kernel equivalence tests."""
    from repro.harness.runner import ExperimentConfig, WorkloadCache

    return WorkloadCache(ExperimentConfig(scale=64, instructions=20_000))


@pytest.fixture(scope="session")
def merged_mix(fig10_workloads):
    """``(shared-LLC geometry, merged 4-core stream)`` of mix3, a mix
    whose stream carries writes."""
    return (
        fig10_workloads.multicore.shared_geometry,
        fig10_workloads.prepared_mix("mix3").merged,
    )
