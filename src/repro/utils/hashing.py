"""Hash functions used by the predictors.

The paper's skewed predictor (Section III-E) indexes three counter tables with
*different* hashes of the same 15-bit signature, following the skewed-cache
idea of Seznec and the skewed branch predictors of Michaud et al.  The exact
hash family is not specified in the paper; what matters is that the three
functions are (a) cheap, (b) pairwise decorrelated, so that two signatures
that conflict in one table are unlikely to conflict in the other two.

We use a multiply-xorshift mixer (a 64-bit finalizer in the murmur/splitmix
family) salted per table.  The mixer is deterministic and dependency-free, so
every simulation is exactly reproducible.
"""

from __future__ import annotations

from typing import List, Sequence

__all__ = ["fold_xor", "fold_xor_many", "hash_combine", "mix64", "skewed_hash"]

_MASK64 = (1 << 64) - 1

# Odd 64-bit constants from splitmix64 / murmur3 finalizers.
_MIX_MULT_1 = 0xBF58476D1CE4E5B9
_MIX_MULT_2 = 0x94D049BB133111EB

# Per-table salts for the skewed organization.  Three large odd constants;
# any fixed decorrelated values work.
_SKEW_SALTS = (
    0x9E3779B97F4A7C15,
    0xC2B2AE3D27D4EB4F,
    0x165667B19E3779F9,
)


def mix64(value: int) -> int:
    """A 64-bit finalizing mixer (splitmix64 style).

    Bijective on 64-bit integers, so it never *introduces* collisions; all
    collisions come from the final fold to table width.
    """
    value &= _MASK64
    value ^= value >> 30
    value = (value * _MIX_MULT_1) & _MASK64
    value ^= value >> 27
    value = (value * _MIX_MULT_2) & _MASK64
    value ^= value >> 31
    return value


def fold_xor(value: int, width: int) -> int:
    """Fold an integer to ``width`` bits by xoring ``width``-wide chunks.

    This is the classic hardware-friendly way to reduce a PC or block address
    to a short signature (the paper's 15-bit signatures are of this kind).
    """
    if width <= 0:
        raise ValueError(f"width must be positive, got {width}")
    chunk_mask = (1 << width) - 1
    folded = 0
    value &= _MASK64
    while value:
        folded ^= value & chunk_mask
        value >>= width
    return folded


def fold_xor_many(values: Sequence[int], width: int) -> List[int]:
    """:func:`fold_xor` of every value, one chunk position per pass.

    The batched replay kernels fold tens of thousands of block addresses
    per run; a pass per chunk position over all of them beats a Python
    call per value by a wide margin.
    """
    if width <= 0:
        raise ValueError(f"width must be positive, got {width}")
    chunk_mask = (1 << width) - 1
    values = [value & _MASK64 for value in values]
    folded = [value & chunk_mask for value in values]
    for shift in range(width, max(values, default=0).bit_length(), width):
        folded = [
            fold ^ (value >> shift & chunk_mask)
            for fold, value in zip(folded, values)
        ]
    return folded


def hash_combine(a: int, b: int) -> int:
    """Combine two integers into one 64-bit hash value."""
    return mix64((a & _MASK64) ^ mix64(b))


def skewed_hash(signature: int, table: int, index_bits: int) -> int:
    """Index for skewed table ``table`` given a prediction ``signature``.

    Args:
        signature: the (already folded, e.g. 15-bit) prediction signature.
        table: which of the skewed tables is being indexed (0, 1, 2, ...).
        index_bits: log2 of the table size.

    Returns:
        an index in ``[0, 2**index_bits)``.
    """
    if table < 0:
        raise ValueError(f"table must be non-negative, got {table}")
    salt = _SKEW_SALTS[table % len(_SKEW_SALTS)] + table
    return fold_xor(mix64(signature ^ salt), index_bits)
