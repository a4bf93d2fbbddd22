"""Dynamic Insertion Policy (DIP) and its BIP component.

Qureshi et al., ISCA 2007 -- one of the paper's head-to-head baselines
(Figures 4 and 5; paper reports DIP reducing misses 6.1% and speeding up
3.1% on the single-thread suite).  Its thread-aware form, TADIP (Jaleel
et al., PACT 2008), is the shared-cache insertion baseline of Figure 10a
(a 7.6% geometric-mean normalized weighted speedup on the quad-core
mixes): ``DIPPolicy(num_cores=n)``.

DIP observes that thrashing workloads are better served by inserting new
blocks at the *LRU* position (so they are evicted quickly unless re-used)
while friendly workloads want classic MRU insertion.  It chooses between
the two at runtime with set dueling (:mod:`repro.replacement.dueling`):
leader sets always use MRU insertion or BIP (bimodal insertion: LRU
position, except every 1/32nd fill goes to MRU so the working set can
rotate), and the followers adopt whichever leader group misses less.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.replacement.dueling import BimodalThrottle, SetDuel, SetDueling
from repro.replacement.lru import LRUPolicy

if TYPE_CHECKING:  # pragma: no cover
    from repro.cache.cache import Cache, CacheAccess

__all__ = ["BIPPolicy", "DIPPolicy"]


class BIPPolicy(LRUPolicy):
    """Bimodal insertion: new blocks land at LRU, except 1/``epsilon_inverse``
    of fills which land at MRU."""

    def __init__(self, epsilon_inverse: int = 32) -> None:
        super().__init__()
        self.throttle = BimodalThrottle(epsilon_inverse)

    def insertion_position(self, set_index: int, access: "CacheAccess") -> int:
        if self.throttle.rare():
            return 0
        return self.cache.geometry.associativity - 1


class DIPPolicy(SetDueling, LRUPolicy):
    """DIP with set dueling between MRU insertion and BIP insertion.

    Args:
        leader_sets: dedicated sets per policy per core; the DIP paper uses
            32 for a 2,048-set cache, and ``None`` (the default) keeps that
            ratio (see :class:`~repro.replacement.dueling.SetDuel`).
        psel_bits: width of the policy selector counter (paper: 10).
        epsilon_inverse: BIP throttle (paper: 1/32).
        num_cores: threads sharing the cache; above one each core duels
            with its own leaders and PSEL (TADIP).
    """

    def __init__(
        self,
        leader_sets: int = None,
        psel_bits: int = 10,
        epsilon_inverse: int = 32,
        num_cores: int = 1,
    ) -> None:
        super().__init__()
        self.duel = SetDuel(num_cores, leader_sets, psel_bits)
        self.throttle = BimodalThrottle(epsilon_inverse)

    def bind(self, cache: "Cache") -> None:
        super().bind(cache)
        self.duel.bind(cache.geometry.num_sets)

    def insertion_position(self, set_index: int, access: "CacheAccess") -> int:
        if self.distant_fill(set_index, access):
            return self.cache.geometry.associativity - 1
        return 0
