"""Telemetry transparency: probes must never change replay results.

The contract (docs/observability.md): replaying a stream with an
:class:`~repro.telemetry.probe.IntervalRecorder` attached leaves the
hit vector, statistics, block contents and policy state of the
reference loop -- on the object kernel the probe selects, and on the
reference path observers select.  Named cases over the differential
harness (:mod:`tests.test_replay_differential`), whose probe modes
record seven epochs and check that they tile the stream.
"""

from __future__ import annotations

import pytest

from tests.conftest import make_stream
from tests.test_replay_differential import GEOMETRY, differential

STREAM = make_stream(GEOMETRY, "cold", 6000, seed=0xBEEF, write_frac=0.25)

#: Policy family -> harness subject.
POLICIES = {"lru": "lru", "random": "random", "rrip": "rrip", "dbrb": "sampler"}


@pytest.mark.parametrize("name", sorted(POLICIES))
def test_recorder_is_bit_identical_on_fast_path(name):
    cache = differential(POLICIES[name], GEOMETRY, STREAM, "probe")
    assert cache.last_replay_kernel == "object"
    assert len(cache.probe.samples) == 7


@pytest.mark.parametrize("name", ["lru", "dbrb"])
def test_recorder_is_bit_identical_on_reference_path(name):
    """Observer state (accesses, positives, false positives) included."""
    cache = differential(POLICIES[name], GEOMETRY, STREAM, "observer-probe")
    assert cache.last_replay_fallback == "observers"
    assert len(cache.probe.samples) == 7
