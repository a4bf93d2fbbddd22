"""The replacement policy interface.

A policy is bound to exactly one :class:`repro.cache.Cache` and receives a
callback for every event on the access path.  All callbacks except
:meth:`choose_victim` default to no-ops, so simple policies only implement
what they need.

Event order for a miss that fills:

    ``on_miss`` -> ``should_bypass`` (False) -> ``choose_victim`` (only when
    the set is full) -> ``on_evict`` (only when a victim was displaced) ->
    ``on_fill``

Event order for a bypassed miss:

    ``on_miss`` -> ``should_bypass`` (True)
"""

from __future__ import annotations

from typing import Dict, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.cache.cache import Cache, CacheAccess

__all__ = ["ReplacementPolicy"]


class ReplacementPolicy:
    """Base class for all replacement/insertion/bypass policies."""

    def __init__(self) -> None:
        self.cache: "Cache" = None  # type: ignore[assignment]

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def bind(self, cache: "Cache") -> None:
        """Attach to a cache; allocate per-set state here.

        Subclasses overriding this must call ``super().bind(cache)`` first.
        """
        if self.cache is not None:
            raise RuntimeError(
                f"{type(self).__name__} is already bound to {self.cache.name}; "
                "policies are single-cache objects"
            )
        self.cache = cache

    # ------------------------------------------------------------------
    # events
    # ------------------------------------------------------------------
    def on_hit(self, set_index: int, way: int, access: "CacheAccess") -> None:
        """The access hit the block in ``(set_index, way)``."""

    def on_miss(self, set_index: int, access: "CacheAccess") -> None:
        """The access missed in ``set_index`` (called before bypass/victim)."""

    def should_bypass(self, set_index: int, access: "CacheAccess") -> bool:
        """Return True to skip placing the missing block.  Default: place."""
        return False

    def choose_victim(self, set_index: int, access: "CacheAccess") -> int:
        """Return the way to evict.  Only called when the set is full."""
        raise NotImplementedError

    def on_fill(self, set_index: int, way: int, access: "CacheAccess") -> None:
        """The missing block was installed at ``(set_index, way)``."""

    def on_evict(self, set_index: int, way: int, access: "CacheAccess") -> None:
        """The occupant of ``(set_index, way)`` is about to be invalidated."""

    # ------------------------------------------------------------------
    # telemetry
    # ------------------------------------------------------------------
    def telemetry_snapshot(self) -> Dict[str, float]:
        """Flat metric dict read by the interval recorder at epoch ends.

        Keys ending in ``_count`` are cumulative counters (reported as
        per-epoch deltas); everything else is a point-in-time gauge.
        Strictly observational -- must not mutate any policy state.  The
        base class has nothing to report.
        """
        return {}

    # ------------------------------------------------------------------
    # paranoid-mode self-checking
    # ------------------------------------------------------------------
    def check_integrity(self, set_index: int) -> None:
        """Validate this policy's internal metadata for one set.

        Called by the cache's paranoid mode (``REPRO_PARANOID``) after
        every access; raise on any inconsistency (e.g. a recency stack
        that is no longer a permutation of the ways).  The base class has
        no per-set state, so the default is a no-op.
        """

    def __repr__(self) -> str:
        return type(self).__name__
