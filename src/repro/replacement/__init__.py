"""Replacement, insertion, and bypass policies.

The paper evaluates its sampling predictor against the strongest cache
management proposals of its era; all of them live here:

* :class:`LRUPolicy` -- the baseline every figure normalizes to.
* :class:`RandomPolicy` -- the cheap default policy of Section V-A/VII-B.
* :class:`TreePLRUPolicy` -- the practical LRU approximation (extension).
* :class:`DIPPolicy` -- dynamic insertion with set dueling (Qureshi et al.),
  including thread-aware DIP (TADIP) for shared caches (Jaleel et al.).
* :class:`SRRIPPolicy` / :class:`DRRIPPolicy` -- re-reference interval
  prediction (Jaleel et al.), including the thread-aware multi-core variant.
* :mod:`repro.replacement.dueling` -- the set dueling and bimodal fill
  throttle that DIP and DRRIP share.
* :class:`OptimalPolicy` -- Belady's MIN enhanced with bypass, the paper's
  upper bound (Section VI-B).

The dead-block replacement and bypass policy itself is in
:mod:`repro.core.policy` because it is part of the paper's contribution.
"""

from repro.replacement.base import ReplacementPolicy
from repro.replacement.dip import BIPPolicy, DIPPolicy
from repro.replacement.lru import LRUPolicy
from repro.replacement.optimal import OptimalPolicy, annotate_next_use
from repro.replacement.plru import TreePLRUPolicy
from repro.replacement.random_policy import RandomPolicy
from repro.replacement.rrip import BRRIPPolicy, DRRIPPolicy, SRRIPPolicy
from repro.replacement.ship import SHiPPolicy

__all__ = [
    "BIPPolicy",
    "BRRIPPolicy",
    "DIPPolicy",
    "DRRIPPolicy",
    "LRUPolicy",
    "OptimalPolicy",
    "RandomPolicy",
    "ReplacementPolicy",
    "SHiPPolicy",
    "SRRIPPolicy",
    "TreePLRUPolicy",
    "annotate_next_use",
]
