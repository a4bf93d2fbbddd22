"""The LLC replay driver.

The paper's evaluation replays one L1/L2-filtered LLC stream once per
technique (Section VI-B); in a pure-Python model the replay loop is the
hot path of every figure.  :func:`replay` drives a
:class:`~repro.cache.cache.Cache` over a
:class:`~repro.sim.hierarchy.PreparedStream` -- the one replay input,
whose ``(set_index, tag)`` decomposition was precomputed once per stream
(:meth:`~repro.sim.hierarchy.FilteredTrace.llc_stream` for one core, the
merged stream of :class:`~repro.sim.multicore.MulticoreSystem` for a
shared LLC) -- on one of two substrates:

* the array kernels of :mod:`repro.sim.replay_array`, when
  :func:`~repro.sim.replay_array.maybe_replay_array` finds the replay
  eligible (exact :class:`~repro.cache.cache.Cache`, no observers, no
  enabled probe, not paranoid, cold, a stream no shorter than the frame
  count, a policy type with a kernel); otherwise
* the reference loop ``[cache.access(a) for a in stream.accesses]``.

The choice is made from those observable facts alone, in one place
(``maybe_replay_array``'s decline chain); there is no override.  The
substrate actually used and any fallback reason are recorded on the
cache as ``last_replay_kernel`` (``"array"``, or ``"object"`` for the
reference loop) and ``last_replay_fallback``.

Correctness contract: ``replay(cache, stream)`` produces the same hit
vector and leaves the cache in the same state -- bit-identical
:class:`~repro.cache.stats.CacheStats`, block contents, and policy state --
as the reference loop.  The differential harness
(``tests/test_replay_differential.py``) checks this for every
replacement policy and kernel against that loop.

Telemetry: when the cache carries an enabled probe
(:mod:`repro.telemetry.probe`), the array kernels decline and the
reference loop runs one epoch-sized position range at a time, with the
probe notified at every range boundary.  ``Cache.access`` updates the
statistics per access and the cache state carries across ranges, so the
results are the reference loop's by construction.  With the default
:data:`~repro.telemetry.probe.NULL_PROBE` the only cost is one attribute
check per replayed stream.
"""

from __future__ import annotations

from typing import List

from repro.cache.cache import Cache
from repro.sim.hierarchy import PreparedStream
from repro.sim.replay_array import maybe_replay_array

__all__ = ["replay"]


def replay(cache: Cache, stream: PreparedStream) -> List[bool]:
    """Replay an LLC access stream; returns the per-access hit vector.

    Args:
        cache: the LLC under test (policy already bound).
        stream: the stream, decomposed for ``cache.geometry`` (its
            ``seq`` numbers are its positions).  The array kernels read its
            columns and never build its access objects; they reuse the
            stream's cached :class:`~repro.cache.soa.ReplayIndex` and
            :class:`~repro.cache.soa.PredictionPlane` across techniques.
    """
    hits = maybe_replay_array(cache, stream)
    if hits is not None:
        return hits
    cache_access = cache.access
    accesses = stream.accesses
    probe = cache.probe
    if not probe.enabled:
        return [cache_access(access) for access in accesses]

    total = len(stream)
    epoch = probe.resolve_epoch(total)
    probe.begin_run(cache, total)
    hits = []
    for start in range(0, total, epoch):
        stop = min(start + epoch, total)
        hits.extend([cache_access(access) for access in accesses[start:stop]])
        probe.on_epoch(cache, stop)
    probe.end_run(cache, total)
    return hits
