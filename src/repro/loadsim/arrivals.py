"""Open-loop arrival processes for simulated tenants.

Three families, each a deterministic function of its own
:class:`~repro.utils.rng.XorShift64` stream (seeded per tenant by the
simulator, never from a global source):

* ``poisson(rate=R)`` -- memoryless arrivals; exponential inter-arrival
  gaps with mean ``1000 / R`` cycles (``rate`` is in requests per
  kilocycle, the natural unit at LLC latencies).
* ``bursty(rate=R, burst=B, on=ON, off=OFF)`` -- a two-state Markov
  modulated Poisson process (MMPP-2): the process alternates between a
  *base* state emitting at ``R`` and a *burst* state emitting at
  ``R * B``; state holding times are exponential with means ``OFF`` and
  ``ON`` cycles.  This is the classic open-systems burst model -- the
  long-run average rate stays moderate while short windows overload the
  shared LLC, which is exactly the regime where dead-block bypass must
  not fall apart.
* ``uniform(rate=R)`` -- a deterministic metronome (constant gap
  ``1000 / R``); draws nothing from the RNG.  Golden tests use it to pin
  percentile values without any sampling noise.

Specs follow the workload-pattern grammar (``family(key=value,...)``);
:func:`parse_arrival_spec` returns the process *factory* plus the
canonical spec string with every parameter explicit, so two textual
variants of one process share an identity in logs and digests.
"""

from __future__ import annotations

import math
import re
from typing import Callable, Dict, Tuple

from repro.utils.rng import XorShift64

__all__ = [
    "ArrivalProcess",
    "ArrivalSpecError",
    "BurstyArrivals",
    "PoissonArrivals",
    "UniformArrivals",
    "parse_arrival_spec",
]


class ArrivalSpecError(ValueError):
    """A malformed or unknown arrival spec."""


class ArrivalProcess:
    """Base class: a stream of inter-arrival gaps in cycles."""

    #: Canonical spec, filled by :func:`parse_arrival_spec`.
    spec = ""

    def next_gap(self, rng: XorShift64) -> float:
        raise NotImplementedError


def _exponential(rng: XorShift64, mean: float) -> float:
    """An exponential draw with the given mean, strictly positive."""
    # 1 - random() is in (0, 1], so the log argument never hits zero.
    return -mean * math.log(1.0 - rng.random())


class PoissonArrivals(ArrivalProcess):
    """Memoryless arrivals at ``rate`` requests per kilocycle."""

    def __init__(self, rate: float) -> None:
        if rate <= 0:
            raise ArrivalSpecError(f"poisson rate must be positive, got {rate}")
        self.rate = rate
        self.mean_gap = 1000.0 / rate

    def next_gap(self, rng: XorShift64) -> float:
        return _exponential(rng, self.mean_gap)


class UniformArrivals(ArrivalProcess):
    """A metronome: constant gap, no randomness."""

    def __init__(self, rate: float) -> None:
        if rate <= 0:
            raise ArrivalSpecError(f"uniform rate must be positive, got {rate}")
        self.rate = rate
        self.gap = 1000.0 / rate

    def next_gap(self, rng: XorShift64) -> float:
        return self.gap


class BurstyArrivals(ArrivalProcess):
    """MMPP-2: Poisson at ``rate``, bursts at ``rate * burst``.

    State holding times are exponential (mean ``off`` cycles in the base
    state, ``on`` cycles in the burst state).  The state machine advances
    lazily as gaps are drawn, consuming RNG values in a fixed order, so
    the whole arrival sequence is a pure function of the tenant seed.
    """

    def __init__(self, rate: float, burst: float = 8.0,
                 on: float = 2000.0, off: float = 8000.0) -> None:
        if rate <= 0:
            raise ArrivalSpecError(f"bursty rate must be positive, got {rate}")
        if burst < 1:
            raise ArrivalSpecError(f"burst multiplier must be >= 1, got {burst}")
        if on <= 0 or off <= 0:
            raise ArrivalSpecError(
                f"burst durations must be positive, got on={on} off={off}"
            )
        self.rate = rate
        self.burst = burst
        self.on = on
        self.off = off
        self._bursting = False
        self._state_left = 0.0  # remaining cycles in the current state
        self._primed = False

    def next_gap(self, rng: XorShift64) -> float:
        if not self._primed:
            self._state_left = _exponential(rng, self.off)
            self._primed = True
        gap = 0.0
        while True:
            rate = self.rate * (self.burst if self._bursting else 1.0)
            draw = _exponential(rng, 1000.0 / rate)
            if draw <= self._state_left:
                self._state_left -= draw
                return gap + draw
            # The state expires before the next arrival: advance time to
            # the state boundary and redraw in the new state.
            gap += self._state_left
            self._bursting = not self._bursting
            self._state_left = _exponential(
                rng, self.on if self._bursting else self.off
            )


#: family -> ((param, default) ..., factory).  Declaration order is the
#: canonical parameter order.
_FAMILIES: Dict[str, Tuple[Tuple[Tuple[str, float], ...], Callable]] = {
    "poisson": ((("rate", 2.0),), PoissonArrivals),
    "uniform": ((("rate", 2.0),), UniformArrivals),
    "bursty": (
        (("rate", 2.0), ("burst", 8.0), ("on", 2000.0), ("off", 8000.0)),
        BurstyArrivals,
    ),
}

_SPEC_RE = re.compile(r"^\s*([a-z]+)\s*(?:\(\s*(.*?)\s*\))?\s*$")


def _format_value(value: float) -> str:
    text = repr(float(value))
    return text[:-2] if text.endswith(".0") else text


def parse_arrival_spec(spec: str) -> ArrivalProcess:
    """Build an arrival process from a spec string.

    Returns the process with its ``spec`` attribute set to the canonical
    form (family defaults filled, declaration order), which is what the
    simulator records in results and event-log digests.
    """
    match = _SPEC_RE.match(spec or "")
    if match is None:
        raise ArrivalSpecError(f"malformed arrival spec {spec!r}")
    family, raw_args = match.group(1), match.group(2)
    entry = _FAMILIES.get(family)
    if entry is None:
        raise ArrivalSpecError(
            f"unknown arrival family {family!r} "
            f"(known: {', '.join(sorted(_FAMILIES))})"
        )
    params, factory = entry
    values = {name: default for name, default in params}
    if raw_args:
        for part in raw_args.split(","):
            part = part.strip()
            if not part:
                continue
            key, eq, raw = part.partition("=")
            key = key.strip()
            if not eq or key not in values:
                raise ArrivalSpecError(
                    f"arrival spec {spec!r}: unknown parameter {part!r} "
                    f"(valid for {family}: "
                    f"{', '.join(name for name, _ in params)})"
                )
            try:
                values[key] = float(raw.strip())
            except ValueError:
                raise ArrivalSpecError(
                    f"arrival spec {spec!r}: {key} must be a number, "
                    f"got {raw.strip()!r}"
                ) from None
            # inf would schedule endless zero gaps; nan compares false
            # against every bound and silently truncates the run.
            if not math.isfinite(values[key]):
                raise ArrivalSpecError(
                    f"arrival spec {spec!r}: {key} must be finite, "
                    f"got {raw.strip()!r}"
                )
    process = factory(**values)
    rendered = ",".join(
        f"{name}={_format_value(values[name])}" for name, _ in params
    )
    process.spec = f"{family}({rendered})"
    return process
