"""Workload generator infrastructure.

Every synthetic benchmark is a :class:`WorkloadGenerator` subclass that
emits a :class:`~repro.sim.trace.Trace` through a :class:`TraceBuilder`.
Two conventions keep the suite honest as a dead-block-prediction testbed:

* **PC discipline**: each generator allocates a small pool of PCs (as a
  real loop nest would have) and uses them *consistently*, so last-touch
  PCs correlate with deadness exactly to the degree the archetype says
  they should;
* **relative sizing**: working sets are multiples of the LLC capacity, so
  the same generator puts the same pressure on the paper's 2MB LLC and on
  the scaled-down benchmark machine.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from array import array
from typing import List

from repro.sim.trace import Trace
from repro.utils.hashing import mix64
from repro.utils.rng import XorShift64

__all__ = ["TraceBuilder", "WorkloadGenerator"]


def _stable_hash(text: str) -> int:
    """A process-independent string hash (built-in ``hash`` is salted)."""
    value = 0xCBF29CE484222325
    for byte in text.encode("utf-8"):
        value = mix64(value ^ byte)
    return value

#: Synthetic code and data segments: generators allocate PCs and data
#: regions relative to these bases.
CODE_BASE = 0x0040_0000
DATA_BASE = 0x1000_0000
BLOCK_BYTES = 64


class TraceBuilder:
    """Accumulates trace operations against an instruction budget.

    The builder tracks total instructions (memory ops plus gaps); a
    generator loops until :attr:`exhausted` and then calls :meth:`build`.
    No per-operation object is built: each operation extends one flat
    list by its four column values (``pc, address, gap, flags``), which
    :meth:`build` splits into the :class:`~repro.sim.trace.Trace`
    columns with strided slices.
    """

    __slots__ = ("_extend", "_ops", "budget", "instructions", "name")

    def __init__(self, name: str, budget: int) -> None:
        if budget <= 0:
            raise ValueError(f"instruction budget must be positive, got {budget}")
        self.name = name
        self.budget = budget
        self.instructions = 0
        self._ops: List[int] = []
        self._extend = self._ops.extend

    @property
    def exhausted(self) -> bool:
        """True once the instruction budget has been consumed."""
        return self.instructions >= self.budget

    def load(self, pc: int, address: int, gap: int = 2, depends: bool = False) -> None:
        """Append a load preceded by ``gap`` non-memory instructions."""
        self._extend((pc, address, gap, depends << 1))
        self.instructions += gap + 1

    def store(self, pc: int, address: int, gap: int = 2, depends: bool = False) -> None:
        """Append a store preceded by ``gap`` non-memory instructions."""
        self._extend((pc, address, gap, 1 | depends << 1))
        self.instructions += gap + 1

    def compute(self, instructions: int) -> None:
        """Account a burst of non-memory work.

        The burst is added to the instruction total only: no operation
        carries it in its ``gap``, so :meth:`build` hands the running
        total to the trace instead of re-deriving it from the gaps.
        """
        if instructions < 0:
            raise ValueError(f"negative compute burst: {instructions}")
        self.instructions += instructions

    @property
    def records(self):
        """The operations so far, as a lazy
        :class:`~repro.sim.trace.TraceRecord` view."""
        return self.build().records

    def build(self) -> Trace:
        """Finalize into a Trace."""
        ops = self._ops
        return Trace.from_columns(
            self.name,
            array("Q", ops[0::4]),
            array("Q", ops[1::4]),
            array("q", ops[2::4]),
            bytearray(ops[3::4]),
            instructions=self.instructions,
        )


class WorkloadGenerator(ABC):
    """Base class for synthetic benchmarks.

    Args:
        name: benchmark name ("mcf_like", ...).
        seed: RNG seed; the same (name, seed, budget, llc_bytes) always
            yields an identical trace.
    """

    def __init__(self, name: str, seed: int = 1) -> None:
        self.name = name
        self.seed = seed
        # Hashed once: a pattern's name is its canonical spec, tens of
        # bytes long, and pc()/data_region() run once per record.
        self._name_hash = _stable_hash(name)

    def _rng(self) -> XorShift64:
        """A fresh deterministic generator for one trace production."""
        mixed = self._name_hash & 0xFFFF_FFFF
        return XorShift64((self.seed << 32) ^ mixed ^ 0xA5A5_5A5A)

    @abstractmethod
    def generate(self, instructions: int, llc_bytes: int) -> Trace:
        """Produce a trace of roughly ``instructions`` instructions sized
        against an LLC of ``llc_bytes``."""

    # ------------------------------------------------------------------
    # helpers shared by the concrete generators
    # ------------------------------------------------------------------
    @staticmethod
    def region_blocks(llc_bytes: int, factor: float) -> int:
        """Number of 64B blocks in a region of ``factor`` x LLC capacity."""
        blocks = int(llc_bytes * factor) // BLOCK_BYTES
        return max(blocks, 1)

    def pc(self, index: int) -> int:
        """The ``index``-th PC of this generator's pool (4-byte spaced,
        namespaced by benchmark so suites do not alias)."""
        base = CODE_BASE + ((self._name_hash & 0xFF) << 12)
        return base + 4 * index

    def data_region(self, region_index: int) -> int:
        """Base byte address of this generator's ``region_index``-th
        disjoint data region (1GB spacing: regions never collide).

        A per-benchmark offset is mixed into address bits 20..29 -- above
        any cache's index bits but *inside* the sampler's 15-bit partial
        tags -- so that two benchmarks marching over same-shaped arrays
        (as multiprogrammed mixes do) do not systematically collide in
        the sampler the way no two real programs' heaps would.
        """
        benchmark_offset = (self._name_hash & 0x3FF) << 20
        return DATA_BASE + (region_index << 30) + benchmark_offset

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name!r})"
