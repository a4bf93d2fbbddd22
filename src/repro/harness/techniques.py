"""The cache-management techniques of the paper's Table V.

Each :class:`Technique` builds a fresh LLC replacement policy.  The
factory receives the LLC geometry, the prepared LLC stream (needed by
the optimal policy's future pass over its address column), and the core
count (needed by the thread-aware policies), mirroring how the paper
instantiates each comparison point: the DBRB optimization "dropping in the reftrace and
counting predictors ... in place of our sampling predictor"
(Section VII).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Tuple

from repro.cache.geometry import CacheGeometry
from repro.core import DBRBPolicy, SamplingDeadBlockPredictor
from repro.predictors import CountingPredictor, RefTracePredictor
from repro.replacement import (
    DIPPolicy,
    DRRIPPolicy,
    LRUPolicy,
    OptimalPolicy,
    RandomPolicy,
    SHiPPolicy,
    TADIPPolicy,
    annotate_next_use,
)
from repro.replacement.base import ReplacementPolicy
from repro.sim.hierarchy import PreparedStream

__all__ = [
    "MULTICORE_LRU_TECHNIQUES",
    "MULTICORE_RANDOM_TECHNIQUES",
    "MEASURES",
    "RANDOM_DEFAULT_TECHNIQUES",
    "SINGLE_THREAD_TECHNIQUES",
    "Scheme",
    "TECHNIQUES",
    "Technique",
    "UnknownTechniqueError",
    "resolve_technique",
    "validate_techniques",
]

PolicyBuilder = Callable[
    [CacheGeometry, Optional[PreparedStream], int], ReplacementPolicy
]


@dataclass(frozen=True)
class Technique:
    """One row of Table V.

    Attributes:
        key: short identifier used in code and reports.
        label: the paper's display name ("Sampler", "TDBP", ...).
        description: Table V's description of the technique.
        builder: constructs the LLC policy.
        timing_meaningful: False for the optimal policy, which the paper
            reports "only for cache miss reduction and not for speedup".
    """

    key: str
    label: str
    description: str
    builder: PolicyBuilder = field(repr=False)
    timing_meaningful: bool = True

    def build(
        self,
        geometry: CacheGeometry,
        stream: Optional[PreparedStream],
        num_cores: int = 1,
    ) -> ReplacementPolicy:
        """Instantiate a fresh policy for one run over ``stream`` (None
        for a live run with no stream known ahead; only ``optimal``
        needs one)."""
        return self.builder(geometry, stream, num_cores)


def _lru(geometry, stream, num_cores):
    return LRUPolicy()


def _random(geometry, stream, num_cores):
    return RandomPolicy()


def _sampler(geometry, stream, num_cores):
    return DBRBPolicy(LRUPolicy(), SamplingDeadBlockPredictor())


def _tdbp(geometry, stream, num_cores):
    return DBRBPolicy(LRUPolicy(), RefTracePredictor())


def _cdbp(geometry, stream, num_cores):
    return DBRBPolicy(LRUPolicy(), CountingPredictor())


def _dip(geometry, stream, num_cores):
    return DIPPolicy()


def _tadip(geometry, stream, num_cores):
    return TADIPPolicy(num_cores=num_cores)


def _rrip(geometry, stream, num_cores):
    return DRRIPPolicy(num_cores=num_cores)


def _random_sampler(geometry, stream, num_cores):
    return DBRBPolicy(RandomPolicy(), SamplingDeadBlockPredictor())


def _random_cdbp(geometry, stream, num_cores):
    return DBRBPolicy(RandomPolicy(), CountingPredictor())


def _ship(geometry, stream, num_cores):
    return SHiPPolicy()


def _optimal(geometry, stream, num_cores):
    return OptimalPolicy(annotate_next_use(stream, geometry), bypass=True)


TECHNIQUES: Dict[str, Technique] = {
    technique.key: technique
    for technique in (
        Technique("lru", "LRU", "Baseline true-LRU replacement", _lru),
        Technique(
            "sampler",
            "Sampler",
            "Dead block bypass and replacement with sampling predictor, "
            "default LRU policy",
            _sampler,
        ),
        Technique(
            "tdbp",
            "TDBP",
            "Dead block bypass and replacement with reftrace, default LRU policy",
            _tdbp,
        ),
        Technique(
            "cdbp",
            "CDBP",
            "Dead block bypass and replacement with counting predictor, "
            "default LRU policy",
            _cdbp,
        ),
        Technique("dip", "DIP", "Dynamic Insertion Policy, default LRU policy", _dip),
        Technique("rrip", "RRIP", "Re-reference interval prediction", _rrip),
        Technique("tadip", "TADIP", "Thread-aware DIP, default LRU policy", _tadip),
        Technique("random", "Random", "Baseline random replacement", _random),
        Technique(
            "random_sampler",
            "Random Sampler",
            "Dead block bypass and replacement with sampling predictor, "
            "default random policy",
            _random_sampler,
        ),
        Technique(
            "random_cdbp",
            "Random CDBP",
            "Dead block bypass and replacement with counting predictor, "
            "default random policy",
            _random_cdbp,
        ),
        Technique(
            "ship",
            "SHiP",
            "Signature-based hit predictor insertion (Wu et al. 2011; "
            "follow-on work, not in the paper's figures)",
            _ship,
        ),
        Technique(
            "optimal",
            "Optimal",
            "Optimal replacement and bypass policy as described in Section VI-B",
            _optimal,
            timing_meaningful=False,
        ),
    )
}

#: Figure 4/5 comparison set (ordered as in the paper's legends).
SINGLE_THREAD_TECHNIQUES: Tuple[str, ...] = (
    "tdbp",
    "cdbp",
    "dip",
    "rrip",
    "sampler",
    "optimal",
)

#: Figure 7/8 comparison set (random default).
RANDOM_DEFAULT_TECHNIQUES: Tuple[str, ...] = (
    "random",
    "random_cdbp",
    "random_sampler",
)

#: Figure 10(a) comparison set.
MULTICORE_LRU_TECHNIQUES: Tuple[str, ...] = (
    "tdbp",
    "cdbp",
    "tadip",
    "rrip",
    "sampler",
)

#: Figure 10(b) comparison set.
MULTICORE_RANDOM_TECHNIQUES: Tuple[str, ...] = (
    "random",
    "random_cdbp",
    "random_sampler",
)


#: What a cell measures: ``run`` (LLC stats, hit vector and, where the
#: technique's timing is meaningful, core timing), ``accuracy`` (dead
#: block prediction coverage and false positives, Figure 9) or
#: ``efficiency`` (live-time ratio and per-frame matrix, Figure 1).
MEASURES: Tuple[str, ...] = ("run", "accuracy", "efficiency")


@dataclass(frozen=True)
class Scheme:
    """A technique run under a non-default measure or predictor shape.

    ``shape`` is a sorted tuple of ``SamplingDeadBlockPredictor`` keyword
    arguments that replaces the ``sampler`` technique's default predictor
    (Figure 6's component combinations).  A plain run is named by its
    technique key alone, never by a ``Scheme``, so the identity of plain
    cells does not change; a scheme's ``str`` is its content key
    (``sampler|measure=accuracy``, ``sampler|shape=skewed=False``), which
    labels its cell in events and manifests and extends its checkpoint
    key with the non-default fields.
    """

    technique: str
    measure: str = "run"
    shape: Tuple[Tuple[str, object], ...] = ()

    def __post_init__(self) -> None:
        if self.measure not in MEASURES:
            raise ValueError(
                f"unknown measure {self.measure!r} (valid: {', '.join(MEASURES)})"
            )
        if self.shape and self.technique != "sampler":
            raise ValueError("a predictor shape applies to the 'sampler' technique")
        if self.measure == "run" and not self.shape:
            raise ValueError(
                f"a plain run is named by its technique key {self.technique!r}"
            )

    def __str__(self) -> str:
        text = self.technique
        if self.shape:
            text += "|shape=" + ",".join(f"{k}={v}" for k, v in self.shape)
        if self.measure != "run":
            text += f"|measure={self.measure}"
        return text

    def build(
        self,
        geometry: CacheGeometry,
        stream: Optional[PreparedStream],
        num_cores: int = 1,
    ) -> ReplacementPolicy:
        """Instantiate the technique's policy, reshaped if ``shape`` says so."""
        if self.shape:
            return DBRBPolicy(LRUPolicy(), SamplingDeadBlockPredictor(**dict(self.shape)))
        return TECHNIQUES[self.technique].build(geometry, stream, num_cores)


class UnknownTechniqueError(KeyError):
    """An unregistered technique key, with a closest-match suggestion."""

    def __str__(self) -> str:  # KeyError reprs its arg; we want prose.
        return self.args[0] if self.args else ""


def resolve_technique(key: str) -> Technique:
    """Look up a technique by key, failing with actionable context.

    Raises:
        UnknownTechniqueError: the key is not registered; the message
            carries the sorted registry and a difflib suggestion.
    """
    technique = TECHNIQUES.get(key)
    if technique is None:
        import difflib

        matches = difflib.get_close_matches(key, list(TECHNIQUES), n=1)
        hint = f"; did you mean {matches[0]!r}?" if matches else ""
        raise UnknownTechniqueError(
            f"unknown technique {key!r}{hint} "
            f"(registered: {', '.join(sorted(TECHNIQUES))})"
        )
    return technique


def validate_techniques(keys) -> list:
    """Per-key error messages for the unresolvable members of ``keys``."""
    bad = []
    for key in keys:
        try:
            resolve_technique(key)
        except UnknownTechniqueError as error:
            bad.append(str(error))
    return bad
