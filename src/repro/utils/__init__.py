"""Low-level utilities shared across the reproduction.

This subpackage deliberately contains only dependency-free helpers:

* :mod:`repro.utils.bits` -- power-of-two arithmetic and bit-field extraction
  used everywhere addresses are decomposed into tag/index/offset.
* :mod:`repro.utils.hashing` -- the hash family used by the skewed predictor
  tables and by the baseline predictors to fold PCs and addresses into
  fixed-width signatures.
* :mod:`repro.utils.counters` -- saturating counters, the basic storage cell
  of every dead block predictor in the paper.
* :mod:`repro.utils.rng` -- a tiny deterministic xorshift generator so that
  random replacement and synthetic workloads are reproducible without
  depending on global :mod:`random` state.
* :mod:`repro.utils.atomic` -- the temp-file-plus-``os.replace`` write
  every on-disk store publishes its files through.
"""

from repro.utils.bits import (
    bit_field,
    ilog2,
    is_power_of_two,
    mask,
    sign_extend,
)
from repro.utils.counters import SaturatingCounter
from repro.utils.hashing import (
    fold_xor,
    hash_combine,
    mix64,
    skewed_hash,
)
from repro.utils.rng import XorShift64

__all__ = [
    "SaturatingCounter",
    "XorShift64",
    "bit_field",
    "fold_xor",
    "hash_combine",
    "ilog2",
    "is_power_of_two",
    "mask",
    "mix64",
    "sign_extend",
    "skewed_hash",
]
