"""Belady's MIN replacement enhanced with optimal bypass.

Section VI-B of the paper: the upper bound ("Optimal") in Figure 4 and
Table III is Belady's MIN [Belady 1966] extended with a bypass rule --
*refuse to place a block when its next access will not occur until after
the next accesses to all blocks currently in the set*.  Like the paper, we
compute it trace-driven over the exact sequence of LLC accesses the
out-of-order model produced, and report it only for miss reduction (not
speedup).

Usage contract: the policy needs the future, so the caller must

1. prepare the full LLC stream (a :class:`~repro.sim.hierarchy.PreparedStream`),
2. call :func:`annotate_next_use` on it,
3. construct :class:`OptimalPolicy` with the result, and
4. replay the stream with ``seq`` equal to each access's position (every
   stream the simulator prepares has this property).
"""

from __future__ import annotations

from typing import List, Sequence, TYPE_CHECKING

from repro.replacement.base import ReplacementPolicy

if TYPE_CHECKING:  # pragma: no cover
    from repro.cache.cache import Cache, CacheAccess
    from repro.cache.geometry import CacheGeometry
    from repro.sim.hierarchy import PreparedStream

__all__ = ["NEVER", "OptimalPolicy", "annotate_next_use"]

#: Sentinel "never referenced again"; larger than any real stream position.
NEVER = 1 << 62


def annotate_next_use(
    stream: "PreparedStream", geometry: "CacheGeometry"
) -> List[int]:
    """For each position of ``stream``, the position of the next access
    to the same block, or :data:`NEVER`.

    Reads the stream's address column only (no access objects).  One
    forward pass: each access is the next use of the previous access to
    its block.  O(n) time, O(working set) space.
    """
    offset_bits = geometry.offset_bits
    next_use = [NEVER] * len(stream)
    last_seen = {}
    last_seen_get = last_seen.get
    for position, address in enumerate(stream.addresses):
        block = address >> offset_bits
        previous = last_seen_get(block)
        if previous is not None:
            next_use[previous] = position
        last_seen[block] = position
    return next_use


class OptimalPolicy(ReplacementPolicy):
    """MIN + bypass with perfect future knowledge.

    Args:
        next_use: the per-position next-use array from
            :func:`annotate_next_use`.
        bypass: enable the optimal bypass rule (the paper's configuration).
            With ``bypass=False`` this is plain Belady MIN.
    """

    def __init__(self, next_use: Sequence[int], bypass: bool = True) -> None:
        super().__init__()
        self._next_use = next_use
        self.bypass = bypass
        self._frame_next: List[List[int]] = []

    def bind(self, cache: "Cache") -> None:
        super().bind(cache)
        self._frame_next = [
            [NEVER] * cache.geometry.associativity
            for _ in range(cache.geometry.num_sets)
        ]

    def _future_of(self, access: "CacheAccess") -> int:
        seq = access.seq
        if not 0 <= seq < len(self._next_use):
            raise IndexError(
                f"access seq {seq} outside the prepared stream of "
                f"{len(self._next_use)} accesses; OptimalPolicy requires "
                "seq to be the stream position"
            )
        return self._next_use[seq]

    # ------------------------------------------------------------------
    def on_hit(self, set_index: int, way: int, access: "CacheAccess") -> None:
        self._frame_next[set_index][way] = self._future_of(access)

    def on_fill(self, set_index: int, way: int, access: "CacheAccess") -> None:
        self._frame_next[set_index][way] = self._future_of(access)

    def should_bypass(self, set_index: int, access: "CacheAccess") -> bool:
        if not self.bypass:
            return False
        blocks = self.cache.sets[set_index]
        if any(not block.valid for block in blocks):
            return False  # free frame: placing can never hurt
        incoming = self._future_of(access)
        return all(incoming > resident for resident in self._frame_next[set_index])

    def choose_victim(self, set_index: int, access: "CacheAccess") -> int:
        """Evict the block whose next use is farthest in the future."""
        frame_next = self._frame_next[set_index]
        victim = 0
        farthest = -1
        for way, position in enumerate(frame_next):
            if position > farthest:
                farthest = position
                victim = way
        return victim
