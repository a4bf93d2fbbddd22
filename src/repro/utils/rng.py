"""Deterministic pseudo-random number generation.

Both the random replacement policy (Section V-A of the paper evaluates the
sampler on a *randomly replaced* LLC) and the synthetic workload generators
need random numbers.  Using Python's global :mod:`random` would make results
depend on import order and on unrelated consumers, so each component owns an
independent :class:`XorShift64` seeded explicitly.  The same seeds therefore
always produce the same simulation, which the test suite relies on.
"""

from __future__ import annotations

__all__ = ["XorShift64"]

_MASK64 = (1 << 64) - 1
_UNIT = 1.0 / (1 << 53)


class XorShift64:
    """Marsaglia xorshift64* generator.

    Small, fast, and more than random enough for victim selection and
    workload synthesis.  Not cryptographic, and not meant to be.
    """

    __slots__ = ("_state",)

    def __init__(self, seed: int = 0x9E3779B97F4A7C15) -> None:
        # A zero state would get stuck at zero; remap it.
        self._state = (seed & _MASK64) or 0x9E3779B97F4A7C15

    def next_u64(self) -> int:
        """Return the next 64-bit unsigned value."""
        x = self._state
        x ^= (x << 13) & _MASK64
        x ^= x >> 7
        x ^= (x << 17) & _MASK64
        self._state = x
        return (x * 0x2545F4914F6CDD1D) & _MASK64

    def randrange(self, bound: int) -> int:
        """Return a value in ``[0, bound)``.

        Uses the high bits of the 64-bit output, which are the best-mixed
        bits of xorshift64*.
        """
        if bound <= 0:
            raise ValueError(f"bound must be positive, got {bound}")
        # next_u64 inlined here and in random(): workload generation
        # draws about once per trace record.
        x = self._state
        x ^= (x << 13) & _MASK64
        x ^= x >> 7
        x ^= (x << 17) & _MASK64
        self._state = x
        return (((x * 0x2545F4914F6CDD1D) & _MASK64) >> 11) % bound

    def random(self) -> float:
        """Return a float in ``[0, 1)`` with 53 bits of precision."""
        x = self._state
        x ^= (x << 13) & _MASK64
        x ^= x >> 7
        x ^= (x << 17) & _MASK64
        self._state = x
        return (((x * 0x2545F4914F6CDD1D) & _MASK64) >> 11) * _UNIT

    def choice(self, seq):
        """Return a uniformly random element of a non-empty sequence."""
        if not seq:
            raise IndexError("cannot choose from an empty sequence")
        return seq[self.randrange(len(seq))]

    def shuffle(self, seq) -> None:
        """In-place Fisher-Yates shuffle of a mutable sequence."""
        for i in range(len(seq) - 1, 0, -1):
            j = self.randrange(i + 1)
            seq[i], seq[j] = seq[j], seq[i]

    def fork(self) -> "XorShift64":
        """Return a new independent generator seeded from this one.

        Handy for giving each of many workload phases its own stream while
        still deriving everything from one top-level seed.
        """
        return XorShift64(self.next_u64())
