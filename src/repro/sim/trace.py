"""Memory reference traces.

A trace is the interface between the workload generators and the machine
model: a sequence of memory operations, each annotated with the issuing
PC, the number of non-memory instructions preceding it, and whether it
depends on the previous memory operation (pointer chasing), which the
timing model uses to serialize miss latencies.

A :class:`Trace` stores its operations as four parallel columns -- the
same layout the compiled workload blob persists -- so generation, the
L1/L2 filter, the LLC stream and the timing model never build a Python
object per operation.  :class:`TraceRecord` is the one-operation view,
materialized on demand by :attr:`Trace.records`.
"""

from __future__ import annotations

from array import array
from typing import Iterable, List, NamedTuple, Optional, Sequence

__all__ = ["Trace", "TraceRecord"]

#: ``flags`` byte encoding, shared with the compiled blob's ``flags``
#: section: bit 0 = store, bit 1 = depends on the previous load.
WRITE_FLAG = 1
DEPENDS_FLAG = 2
#: ``bytes.translate`` tables mapping a flags byte to its write /
#: depends bit as 0 or 1.
WRITE_BIT = bytes(flag & WRITE_FLAG for flag in range(256))
DEPENDS_BIT = bytes((flag & DEPENDS_FLAG) >> 1 for flag in range(256))


class TraceRecord(NamedTuple):
    """One memory operation.

    Attributes:
        pc: address of the memory instruction.
        address: byte address referenced.
        is_write: store (True) or load (False).
        gap: count of non-memory instructions executed since the previous
            memory operation; lets the trace carry full instruction counts
            without storing non-memory instructions.
        depends: True when the operation's address depends on the value
            loaded by the *previous* memory operation (pointer chasing);
            the timing model serializes such pairs.
    """

    pc: int
    address: int
    is_write: bool
    gap: int
    depends: bool


class _LazyRecords:
    """A read-only records sequence over a trace's columns.

    :class:`TraceRecord` objects are materialized on first iteration or
    indexing and cached; ``len`` and equality read the columns.  Two
    views compare column by column without materializing either; a view
    compares equal to a list or tuple of the same records.
    """

    __slots__ = ("_addr", "_flags", "_gap", "_list", "_pc")

    def __init__(self, pcs, addresses, gaps, flags) -> None:
        self._pc = pcs
        self._addr = addresses
        self._gap = gaps
        self._flags = flags
        self._list: Optional[List[TraceRecord]] = None

    def _materialize(self) -> List[TraceRecord]:
        if self._list is None:
            record = TraceRecord
            self._list = [
                record(pc, addr, bool(flag & WRITE_FLAG), gap, bool(flag & DEPENDS_FLAG))
                for pc, addr, gap, flag in zip(
                    self._pc, self._addr, self._gap, self._flags
                )
            ]
        return self._list

    def __len__(self) -> int:
        return len(self._pc)

    def __iter__(self):
        return iter(self._materialize())

    def __getitem__(self, index):
        return self._materialize()[index]

    def __eq__(self, other) -> bool:
        if isinstance(other, _LazyRecords):
            # Column types may differ (arrays vs. buffer views); both
            # compare by value.
            return (
                self._pc == other._pc
                and self._addr == other._addr
                and self._gap == other._gap
                and self._flags == other._flags
            )
        if isinstance(other, (list, tuple)):
            return len(other) == len(self._pc) and self._materialize() == list(other)
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"<{len(self._pc)} trace records>"


class Trace:
    """A named memory-operation sequence plus instruction accounting.

    Attributes:
        name: workload name ("mcf_like", ...).
        pcs / addresses: per operation, ``array('Q')`` (or a ``'Q'``
            buffer view for a trace decoded from a compiled blob).
        gaps: per operation, ``array('q')`` (or a ``'q'`` view).
        flags: per operation, ``is_write | depends << 1``, a
            ``bytearray`` (or a ``'B'`` view).
        instructions: total instruction count (memory ops + all gaps).
    """

    __slots__ = ("_records", "addresses", "flags", "gaps", "instructions", "name", "pcs")

    def __init__(
        self,
        name: str,
        records: Iterable[TraceRecord] = (),
        instructions: Optional[int] = None,
    ) -> None:
        """Build from :class:`TraceRecord` objects (hand-made traces);
        producers with columns use :meth:`from_columns`."""
        pcs = array("Q")
        addresses = array("Q")
        gaps = array("q")
        flags = bytearray()
        for record in records:
            pcs.append(record.pc)
            addresses.append(record.address)
            gaps.append(record.gap)
            flags.append(bool(record.is_write) | bool(record.depends) << 1)
        self._set(name, pcs, addresses, gaps, flags, instructions)

    @classmethod
    def from_columns(
        cls,
        name: str,
        pcs: Sequence[int],
        addresses: Sequence[int],
        gaps: Sequence[int],
        flags: Sequence[int],
        instructions: Optional[int] = None,
    ) -> "Trace":
        """Wrap existing columns (not copied).

        ``instructions`` may be passed when the caller already knows the
        total (the builder, :meth:`concatenate`, a compiled blob),
        skipping the O(n) sum over ``gaps``.
        """
        trace = cls.__new__(cls)
        trace._set(name, pcs, addresses, gaps, flags, instructions)
        return trace

    def _set(self, name, pcs, addresses, gaps, flags, instructions) -> None:
        self.name = name
        self.pcs = pcs
        self.addresses = addresses
        self.gaps = gaps
        self.flags = flags
        self._records: Optional[_LazyRecords] = None
        if instructions is None:
            instructions = sum(gaps) + len(gaps)
        self.instructions = instructions

    @property
    def records(self) -> _LazyRecords:
        """The operations as :class:`TraceRecord` objects (a lazy view,
        created once and cached with whatever it materializes)."""
        if self._records is None:
            self._records = _LazyRecords(
                self.pcs, self.addresses, self.gaps, self.flags
            )
        return self._records

    def __len__(self) -> int:
        return len(self.pcs)

    def __iter__(self):
        return iter(self.records)

    @property
    def memory_fraction(self) -> float:
        """Fraction of instructions that are memory operations."""
        if self.instructions == 0:
            return 0.0
        return len(self.pcs) / self.instructions

    @staticmethod
    def concatenate(name: str, traces: Iterable["Trace"]) -> "Trace":
        """Join several traces into one (used by phase-based workloads).

        Each piece already carries its own total, so the joined count is a
        sum over pieces rather than a second walk over every operation.
        """
        pcs = array("Q")
        addresses = array("Q")
        gaps = array("q")
        flags = bytearray()
        instructions = 0
        for trace in traces:
            pcs.extend(trace.pcs)
            addresses.extend(trace.addresses)
            gaps.extend(trace.gaps)
            flags.extend(trace.flags)
            instructions += trace.instructions
        return Trace.from_columns(
            name, pcs, addresses, gaps, flags, instructions=instructions
        )

    def __repr__(self) -> str:
        return (
            f"Trace({self.name!r}, {len(self.pcs)} memory ops, "
            f"{self.instructions} instructions)"
        )
