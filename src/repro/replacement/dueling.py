"""Set dueling, the mechanism DIP, thread-aware DIP and DRRIP share.

A set-dueling policy runs two insertion policies side by side.  A few
*leader sets* per core always use the first policy (LRU's MRU insertion,
SRRIP's long interval), as many always use the second (BIP, BRRIP), and
a saturating policy-selector counter (PSEL) per core counts which group
misses more.  Every other set -- and every set another core leads -- is
a *follower*, and takes the policy its core's PSEL currently favours.
The thread-aware form (TADIP, Jaleel et al., PACT 2008, and the
thread-aware DRRIP of Figure 10a) gives each core its own leaders and
PSEL, so a thrashing thread can switch to the second policy while a
cache-friendly co-runner keeps the first.  With one core it is the
single-thread policy of Qureshi et al. (ISCA 2007).

The second policies share one fill throttle: a bimodal fill takes the
policy's usual distant insertion except every ``epsilon_inverse``-th,
which takes the near one (paper: 1/32).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List

if TYPE_CHECKING:  # pragma: no cover
    from repro.cache.cache import CacheAccess

__all__ = ["FOLLOWER", "LEADER_RATIO", "BimodalThrottle", "SetDuel", "SetDueling"]

#: Leader sets per policy per core per this many cache sets (the DIP
#: paper's 32 per 2,048).
LEADER_RATIO = 64

#: ``SetDuel.owner`` value of a set no core leads.
FOLLOWER = -1


class BimodalThrottle:
    """Lets every ``epsilon_inverse``-th bimodal fill through as the rare
    near insertion.  A modulo counter, as in the hardware proposal, so
    simulations are reproducible."""

    def __init__(self, epsilon_inverse: int = 32) -> None:
        if epsilon_inverse < 1:
            raise ValueError(
                f"epsilon_inverse must be >= 1, got {epsilon_inverse}"
            )
        self.epsilon_inverse = epsilon_inverse
        self.fills = 0

    def rare(self) -> bool:
        """Count one bimodal fill; True when it takes the near insertion."""
        self.fills += 1
        return self.fills % self.epsilon_inverse == 0


class SetDuel:
    """Leader layout and per-core PSELs of one cache.

    Args:
        num_cores: threads sharing the cache; each gets its own leaders
            and PSEL.
        leader_sets: leader sets per policy per core.  ``None`` scales
            :data:`LEADER_RATIO` to the bound cache, so scaled-down
            simulation machines keep the paper's dedicated-set fraction.
            Clamped so every core's leaders fit in a tiny cache; a cache
            with fewer than ``2 * num_cores`` sets cannot seat one leader
            of each policy per core, and :meth:`bind` refuses it.
        psel_bits: width of each policy selector counter (paper: 10).
    """

    def __init__(
        self, num_cores: int = 1, leader_sets: int = None, psel_bits: int = 10
    ) -> None:
        if num_cores < 1:
            raise ValueError(f"num_cores must be >= 1, got {num_cores}")
        if leader_sets is not None and leader_sets < 1:
            raise ValueError(f"need at least one leader set, got {leader_sets}")
        self.num_cores = num_cores
        self.leader_sets = leader_sets
        self.psel_max = (1 << psel_bits) - 1
        self.psels: List[int] = [1 << (psel_bits - 1)] * num_cores  # midpoint
        #: owner[s]: the core leading set s, or FOLLOWER.
        self.owner: List[int] = []
        #: second[s]: True when set s leads for the second policy.
        self.second: List[bool] = []

    def bind(self, num_sets: int) -> None:
        """Lay out the leaders: per core, ``leader_sets`` pairs of a
        first-policy and a second-policy leader, interleaved across cores
        and spread evenly over the cache.

        Raises:
            ValueError: ``num_sets < 2 * num_cores``; some core would own
                no leader set and could never move its PSEL.
        """
        if num_sets < 2 * self.num_cores:
            raise ValueError(
                f"set dueling needs two leader sets per core: num_sets "
                f"{num_sets} < 2 * num_cores {self.num_cores}"
            )
        self.owner = [FOLLOWER] * num_sets
        self.second = [False] * num_sets
        target = self.leader_sets
        if target is None:
            target = max(1, num_sets // LEADER_RATIO)
        per_core = max(1, min(target, num_sets // (2 * self.num_cores)))
        interval = max(1, num_sets // (2 * per_core * self.num_cores))
        position = 0
        for _ in range(per_core):
            for core in range(self.num_cores):
                for second in (False, True):
                    self.owner[position] = core
                    self.second[position] = second
                    position += interval


class SetDueling:
    """The set-dueling hooks of a policy that holds a :class:`SetDuel` as
    ``self.duel`` and a :class:`BimodalThrottle` as ``self.throttle``.

    A mixin rather than calls into ``self.duel``: these hooks run on every
    miss and every fill of the ``Cache.access`` reference loop, where one
    more method call per event shows in the replay time.
    """

    def on_miss(self, set_index: int, access: "CacheAccess") -> None:
        """A miss by a leader set's owning core moves that core's PSEL: up
        for the first policy's leaders, down for the second's."""
        duel = self.duel
        owner = duel.owner[set_index]
        if owner != access.core % duel.num_cores:
            return
        psels = duel.psels
        if duel.second[set_index]:
            if psels[owner] > 0:
                psels[owner] -= 1
        elif psels[owner] < duel.psel_max:
            psels[owner] += 1

    def distant_fill(self, set_index: int, access: "CacheAccess") -> bool:
        """True when this fill takes the second policy's distant insertion.

        The filling core's own leaders use their fixed policy; elsewhere a
        high PSEL (the first policy's leaders missed more) picks the
        second.  The second policy's fills go through the bimodal throttle.
        """
        duel = self.duel
        core = access.core % duel.num_cores
        if duel.owner[set_index] == core:
            second = duel.second[set_index]
        else:
            second = duel.psels[core] > duel.psel_max // 2
        return second and not self.throttle.rare()
