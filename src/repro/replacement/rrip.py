"""Re-Reference Interval Prediction (RRIP) replacement.

Jaleel et al., ISCA 2010 -- the strongest contemporaneous baseline in the
paper (Figures 4, 5, and the multi-core variant in Figure 10a; the paper
reports RRIP reducing single-thread misses by 8.1% and speeding up 4.1%).

Each block carries an M-bit re-reference prediction value (RRPV):

* RRPV 0 = predicted "near-immediate" re-reference;
* RRPV ``2**M - 1`` = predicted "distant" re-reference (eviction candidate).

**SRRIP** inserts at ``max-1`` ("long" interval) and promotes to 0 on a hit
(hit-priority).  **BRRIP** inserts at ``max`` most of the time and at
``max-1`` for 1/32 of fills, which resists thrashing the way BIP does.
**DRRIP** set-duels SRRIP against BRRIP; the thread-aware variant used for
shared caches duels per core (this is the "multi-core version of RRIP" the
paper compares against).
"""

from __future__ import annotations

from typing import List, TYPE_CHECKING

from repro.replacement.base import ReplacementPolicy
from repro.replacement.dueling import BimodalThrottle, SetDuel, SetDueling

if TYPE_CHECKING:  # pragma: no cover
    from repro.cache.cache import Cache, CacheAccess

__all__ = ["BRRIPPolicy", "DRRIPPolicy", "SRRIPPolicy"]


class SRRIPPolicy(ReplacementPolicy):
    """Static RRIP with hit priority (SRRIP-HP).

    Args:
        rrpv_bits: width of the re-reference prediction value (paper: 2).
    """

    def __init__(self, rrpv_bits: int = 2) -> None:
        super().__init__()
        if rrpv_bits < 1:
            raise ValueError(f"rrpv_bits must be >= 1, got {rrpv_bits}")
        self.rrpv_max = (1 << rrpv_bits) - 1
        self._rrpv: List[List[int]] = []

    def bind(self, cache: "Cache") -> None:
        super().bind(cache)
        self._rrpv = [
            [self.rrpv_max] * cache.geometry.associativity
            for _ in range(cache.geometry.num_sets)
        ]

    # ------------------------------------------------------------------
    # insertion RRPV, overridden by BRRIP/DRRIP
    # ------------------------------------------------------------------
    def insertion_rrpv(self, set_index: int, access: "CacheAccess") -> int:
        return self.rrpv_max - 1  # "long" re-reference interval

    # ------------------------------------------------------------------
    def on_hit(self, set_index: int, way: int, access: "CacheAccess") -> None:
        self._rrpv[set_index][way] = 0

    def on_fill(self, set_index: int, way: int, access: "CacheAccess") -> None:
        self._rrpv[set_index][way] = self.insertion_rrpv(set_index, access)

    def choose_victim(self, set_index: int, access: "CacheAccess") -> int:
        """Evict the leftmost block at max RRPV, aging the set as needed."""
        rrpvs = self._rrpv[set_index]
        maximum = self.rrpv_max
        while True:
            for way, value in enumerate(rrpvs):
                if value >= maximum:
                    return way
            # Nobody is distant yet: age everyone by the smallest deficit.
            deficit = maximum - max(rrpvs)
            for way in range(len(rrpvs)):
                rrpvs[way] += deficit


class BRRIPPolicy(SRRIPPolicy):
    """Bimodal RRIP: distant insertion, with rare long insertions."""

    def __init__(self, rrpv_bits: int = 2, epsilon_inverse: int = 32) -> None:
        super().__init__(rrpv_bits)
        self.throttle = BimodalThrottle(epsilon_inverse)

    def insertion_rrpv(self, set_index: int, access: "CacheAccess") -> int:
        if self.throttle.rare():
            return self.rrpv_max - 1
        return self.rrpv_max


class DRRIPPolicy(SetDueling, SRRIPPolicy):
    """Dynamic RRIP: set dueling between SRRIP and BRRIP insertion
    (:mod:`repro.replacement.dueling`).

    With ``num_cores > 1`` the dueling is per core (thread-aware DRRIP),
    which is the configuration the paper's Figure 10a calls "RRIP".
    """

    def __init__(
        self,
        rrpv_bits: int = 2,
        num_cores: int = 1,
        leader_sets: int = None,
        psel_bits: int = 10,
        epsilon_inverse: int = 32,
    ) -> None:
        super().__init__(rrpv_bits)
        self.duel = SetDuel(num_cores, leader_sets, psel_bits)
        self.throttle = BimodalThrottle(epsilon_inverse)

    def bind(self, cache: "Cache") -> None:
        super().bind(cache)
        self.duel.bind(cache.geometry.num_sets)

    def insertion_rrpv(self, set_index: int, access: "CacheAccess") -> int:
        if self.distant_fill(set_index, access):
            return self.rrpv_max
        return self.rrpv_max - 1
