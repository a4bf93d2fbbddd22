"""Trace persistence.

Workload generation is deterministic, but regenerating a multi-hundred-
thousand-instruction trace still costs seconds; saving traces also lets
users bring *their own* traces (e.g. converted from Pin/DynamoRIO tools)
to the simulator.  The format is a line-oriented text file:

    # repro-trace v1 name=<name>
    <pc> <address> <W|R> <gap> <D|->

Fields are hexadecimal for pc/address, decimal for gap.  Lines starting
with ``#`` are comments.  Gzip is applied transparently for paths ending
in ``.gz``.
"""

from __future__ import annotations

import gzip
from array import array
from pathlib import Path
from typing import Union

from repro.sim.trace import DEPENDS_FLAG, WRITE_FLAG, Trace

__all__ = ["load_trace", "save_trace", "trace_lines"]

_MAGIC = "# repro-trace v1"

#: PCs and addresses are 64-bit; anything outside [0, 2^64) is a
#: corrupted or hand-mangled file, not a usable reference.
_FIELD_LIMIT = 1 << 64
#: Gaps are stored as signed 64-bit values (the ``gaps`` column and the
#: compiled blob's ``gap`` section).
_GAP_LIMIT = 1 << 63


def _open(path: Path, mode: str):
    if path.suffix == ".gz":
        return gzip.open(path, mode + "t", encoding="ascii")
    return open(path, mode, encoding="ascii")


def trace_lines(trace: Trace):
    """Yield the canonical serialized lines of ``trace`` (with newlines).

    This is *the* byte representation of a trace: :func:`save_trace`
    writes exactly these lines, and the trace library's content digests
    hash them -- so a plain-text file and its gzip variant share one
    digest.
    """
    yield f"{_MAGIC} name={trace.name}\n"
    for pc, address, gap, flag in zip(
        trace.pcs, trace.addresses, trace.gaps, trace.flags
    ):
        yield (
            f"{pc:x} {address:x} {'W' if flag & WRITE_FLAG else 'R'} {gap} "
            f"{'D' if flag & DEPENDS_FLAG else '-'}\n"
        )


def save_trace(trace: Trace, path: Union[str, Path]) -> None:
    """Write ``trace`` to ``path`` (gzip if the name ends in .gz)."""
    path = Path(path)
    with _open(path, "w") as stream:
        stream.writelines(trace_lines(trace))


def load_trace(path: Union[str, Path]) -> Trace:
    """Read a trace written by :func:`save_trace`.

    Every malformed record -- wrong field count, unparsable or
    out-of-range numbers, negative gaps, bad flags -- is rejected with
    the offending line number, and a final line cut off mid-record
    (e.g. a copy interrupted before the last newline) is reported as
    truncation rather than as a generic parse failure.

    Raises:
        ValueError: on a missing/garbled header, malformed or
            out-of-range record line (with the offending line number),
            a truncated final record, or a truncated gzip stream.
    """
    path = Path(path)
    pcs = array("Q")
    addresses = array("Q")
    gaps = array("q")
    flags = bytearray()
    name = path.stem
    with _open(path, "r") as stream:
        try:
            header = stream.readline().rstrip("\n")
            if not header.startswith(_MAGIC):
                raise ValueError(f"{path}: not a repro trace file (bad header)")
            if "name=" in header:
                name = header.split("name=", 1)[1].strip()
            for line_number, raw_line in enumerate(stream, start=2):
                # A data line without its newline is the file's last line;
                # if it then fails to parse, say "truncated", not "garbage".
                truncated = "" if raw_line.endswith("\n") else " (truncated final record?)"
                line = raw_line.strip()
                if not line or line.startswith("#"):
                    continue
                parts = line.split()
                if len(parts) != 5:
                    raise ValueError(
                        f"{path}:{line_number}: expected 5 fields, "
                        f"got {len(parts)}{truncated}"
                    )
                pc_text, address_text, kind, gap_text, depends_text = parts
                try:
                    pc = int(pc_text, 16)
                    address = int(address_text, 16)
                    gap = int(gap_text)
                except ValueError:
                    raise ValueError(
                        f"{path}:{line_number}: malformed numeric field{truncated}"
                    ) from None
                if not 0 <= pc < _FIELD_LIMIT:
                    raise ValueError(
                        f"{path}:{line_number}: pc {pc_text} out of 64-bit range"
                    )
                if not 0 <= address < _FIELD_LIMIT:
                    raise ValueError(
                        f"{path}:{line_number}: address {address_text} "
                        f"out of 64-bit range"
                    )
                if gap < 0:
                    raise ValueError(
                        f"{path}:{line_number}: negative instruction gap {gap}"
                    )
                if gap >= _GAP_LIMIT:
                    raise ValueError(
                        f"{path}:{line_number}: instruction gap {gap} "
                        f"out of 64-bit range"
                    )
                if kind not in ("R", "W"):
                    raise ValueError(f"{path}:{line_number}: bad access kind {kind!r}")
                if depends_text not in ("D", "-"):
                    raise ValueError(
                        f"{path}:{line_number}: bad dependence flag {depends_text!r}"
                    )
                pcs.append(pc)
                addresses.append(address)
                gaps.append(gap)
                flags.append(
                    (kind == "W") * WRITE_FLAG | (depends_text == "D") * DEPENDS_FLAG
                )
        except EOFError:
            # gzip raises EOFError when the stream ends before the
            # end-of-stream marker (an interrupted write or copy).
            raise ValueError(f"{path}: truncated gzip stream") from None
    return Trace.from_columns(name, pcs, addresses, gaps, flags)
