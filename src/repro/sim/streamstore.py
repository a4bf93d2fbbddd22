"""The compiled workload store: persistent, shareable LLC streams.

The paper's methodology simulates L1+L2 once per workload and replays
only the LLC stream per technique (Section VI-B).  PR 1 made the replay
cheap; what remained expensive was *producing* the stream: every sweep
invocation -- and every worker process of :mod:`repro.harness.parallel`
-- regenerated the trace and re-ran the L1/L2 filtering pass from
scratch, because the :class:`~repro.harness.runner.WorkloadCache` was
private to its process.  This module makes the compiled form of a
workload a first-class, persistent artifact:

* :func:`compile_filtered` serializes a prepared
  :class:`~repro.sim.hierarchy.FilteredTrace` -- the full trace columns,
  per-record hit levels, the LLC arrays, the LLC's ``(set index, tag)``
  decomposition, and the timing model's fixed latencies -- into
  one flat binary blob of typed buffers (:class:`CompiledWorkload`);
* :class:`StreamStore` is a content-addressed on-disk store of those
  blobs, keyed by everything that determines a workload's compiled form
  (benchmark, instruction budget, seed, machine geometry, format
  version), with the same atomic temp-then-rename write discipline as
  :class:`repro.harness.checkpoint.CheckpointStore`;
* :class:`SharedStreamExport` / :func:`attach_shared_streams` fan a set
  of compiled blobs out to worker processes zero-copy through
  :mod:`multiprocessing.shared_memory`: the parent compiles (or loads)
  each workload once, workers attach to the segment and materialize
  Python objects lazily from the shared buffers.

Result transparency is the contract everything here honors: a
reconstructed workload replays **bit-identically** to a freshly prepared
one -- same stats, same hit vectors, same IPC -- whether it came off
disk or out of a shared-memory segment, serially or in a worker
(``tests/test_streamstore.py`` pins this).

Blob format (version 1)::

    8 bytes   magic  b"RPSTRM01"
    8 bytes   header length (little-endian)
    header    JSON (padded to an 8-byte boundary): name, instruction
              count, record/LLC counts, the store key, the latency pair
              of the serialized ``fixed_lat`` section, and a section
              table {id: {fmt, offset, count}}
    payload   the raw little-endian buffers, 8-byte aligned

Sections: ``pc``/``addr``/``gap`` (one ``q``/``Q`` per trace record),
``flags`` (bit 0 = write, bit 1 = depends), ``level`` (1/2/3 per
record), ``llc_index``, ``llc_pc``/``llc_addr``/``llc_write`` (the LLC
stream), ``fixed_lat`` (per-record resolved latency, -1 for LLC-bound),
and the ``set@O:I`` / ``tag@O:I`` pair of the machine's LLC
(``O``/``I`` = offset/index bits).

Replay-side derived structures -- the per-geometry
:class:`~repro.cache.soa.ReplayIndex` and the DBRB kernel's
:class:`~repro.cache.soa.PredictionPlane` -- are deliberately NOT
persisted in the blob: both are recomputed lazily per process and
cached on the reconstructed
:class:`~repro.sim.hierarchy.PreparedStream`, so they cost one pass per
(workload, geometry) regardless of how many techniques replay, while
the on-disk format stays a pure function of the workload (no format
rev, nothing stale to invalidate when a kernel's precompute changes).
Decoding never copies the payload:
:meth:`CompiledWorkload.from_buffer` keeps :class:`memoryview` casts
into the underlying buffer, and :meth:`CompiledWorkload.filtered_trace`
wraps the ``pc``/``addr``/``gap``/``flags`` views as the
:class:`~repro.sim.trace.Trace` columns -- the same layout a freshly
generated trace has -- so no per-record object is built unless a caller
asks for :attr:`~repro.sim.trace.Trace.records`.

Environment knobs: ``REPRO_STREAM_CACHE`` (the store root),
``REPRO_SHM`` (shared-memory fan-out in parallel sweeps) and
``REPRO_STREAM_REQUIRE`` (raise instead of compiling a workload from
scratch: a test/CI guard proving the warm path is taken); README's knob
block lists every ``REPRO_*`` knob and the rule they are all read by.
"""

from __future__ import annotations

import hashlib
import json
import os
from array import array
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Tuple, Union

from repro.cache.geometry import CacheGeometry
from repro.sim.hierarchy import (
    FilteredTrace,
    MachineConfig,
    prepare_stream,
)
from repro.sim.trace import Trace
from repro.utils.atomic import atomic_write
from repro.utils.env import env_flag, env_text

__all__ = [
    "CompiledWorkload",
    "CompiledFilteredTrace",
    "SharedStreamExport",
    "StoreEntry",
    "StreamManifest",
    "StreamStore",
    "attach_shared_streams",
    "compile_filtered",
    "resolve_stream_cache_dir",
    "shared_memory_enabled",
    "stream_compile_required",
    "verify_blob",
]

_MAGIC = b"RPSTRM01"
_FORMAT = 1
# The *key* format is versioned separately from the blob layout: v2 added
# the workload-spec digest token (parameterized pattern workloads), which
# invalidates every v1 key without touching how blobs decode.
_KEY_FORMAT = 2
_ALIGN = 8


def shared_memory_enabled(explicit: Optional[bool] = None) -> bool:
    """Shared-memory fan-out: explicit argument, else ``REPRO_SHM``."""
    if explicit is not None:
        return bool(explicit)
    return env_flag("REPRO_SHM")


def stream_compile_required() -> bool:
    """True when ``REPRO_STREAM_REQUIRE`` forbids cold compiles."""
    return env_flag("REPRO_STREAM_REQUIRE")


def resolve_stream_cache_dir(
    explicit: Union[str, Path, None] = None
) -> Optional[Path]:
    """The store root: explicit argument, else ``REPRO_STREAM_CACHE``,
    else None (store disabled)."""
    if explicit is not None:
        return Path(explicit)
    raw = env_text("REPRO_STREAM_CACHE")
    return Path(raw) if raw is not None else None


# ----------------------------------------------------------------------
# encoding
# ----------------------------------------------------------------------
def _pad(length: int) -> int:
    return (_ALIGN - length % _ALIGN) % _ALIGN


def _geometry_token(geometry: CacheGeometry) -> str:
    return f"{geometry.size_bytes}:{geometry.associativity}:{geometry.block_bytes}"


def _stream_section_ids(geometry: CacheGeometry) -> Tuple[str, str]:
    suffix = f"{geometry.offset_bits}:{geometry.index_bits}"
    return f"set@{suffix}", f"tag@{suffix}"


def encode_filtered(
    filtered: FilteredTrace,
    machine: MachineConfig,
    key: str,
) -> bytes:
    """Serialize a prepared workload into one self-describing blob.

    The machine LLC's ``(set index, tag)`` decomposition is baked in.
    """
    trace = filtered.trace
    pcs, addresses, writes = filtered.llc_arrays()

    # The trace columns already hold the sections' machine types ('Q' /
    # 'q' / one byte per value), so their sections are plain copies.
    sections: List[Tuple[str, str, bytes]] = [
        ("pc", "Q", trace.pcs.tobytes()),
        ("addr", "Q", trace.addresses.tobytes()),
        ("gap", "q", trace.gaps.tobytes()),
        ("flags", "B", bytes(trace.flags)),
        ("level", "B", bytes(filtered.levels)),
        ("llc_index", "Q", array("Q", filtered.llc_indices).tobytes()),
        ("llc_pc", "Q", array("Q", pcs).tobytes()),
        ("llc_addr", "Q", array("Q", addresses).tobytes()),
        ("llc_write", "B", bytes(writes)),
        (
            "fixed_lat",
            "q",
            array(
                "q",
                filtered.fixed_latencies(machine.l1_latency, machine.l2_latency),
            ).tobytes(),
        ),
    ]
    stream = filtered.llc_stream(machine.llc)
    set_id, tag_id = _stream_section_ids(machine.llc)
    sections.append((set_id, "Q", array("Q", stream.set_indices).tobytes()))
    sections.append((tag_id, "Q", array("Q", stream.tags).tobytes()))

    itemsize = {"Q": 8, "q": 8, "B": 1}
    table: Dict[str, Dict[str, int]] = {}
    # Offsets are relative to the payload start, which is itself 8-byte
    # aligned, so every 8-byte section below stays aligned too.
    cursor = 0
    for section_id, fmt, payload in sections:
        cursor += _pad(cursor)
        table[section_id] = {
            "fmt": fmt,
            "offset": cursor,
            "count": len(payload) // itemsize[fmt],
        }
        cursor += len(payload)

    header = {
        "format": _FORMAT,
        "key": key,
        "name": filtered.name,
        "instructions": filtered.instructions,
        "records": len(trace),
        "llc": len(filtered.llc_indices),
        "l1_latency": machine.l1_latency,
        "l2_latency": machine.l2_latency,
        "sections": table,
    }
    header_bytes = json.dumps(header, sort_keys=True).encode("ascii")
    header_bytes += b" " * _pad(len(header_bytes))

    blob = bytearray()
    blob += _MAGIC
    blob += len(header_bytes).to_bytes(8, "little")
    blob += header_bytes
    payload_start = len(blob)
    for section_id, fmt, payload in sections:
        meta = table[section_id]
        target = payload_start + meta["offset"]
        blob += b"\x00" * (target - len(blob))
        blob += payload
    return bytes(blob)


class CompiledFilteredTrace(FilteredTrace):
    """A :class:`FilteredTrace` reconstructed from a compiled blob.

    Behaviorally identical to a freshly prepared trace.  Its trace
    columns are the blob's buffer views, so the shared
    :class:`FilteredTrace` readers (the timing plan included) work on it
    unchanged; the overrides below only serve what the blob stores
    ready-made -- the LLC columns, stored stream decompositions and the
    fixed latencies -- instead of re-deriving it.
    """

    __slots__ = ("_compiled",)

    def __init__(self, trace, levels, llc_indices, compiled: "CompiledWorkload") -> None:
        super().__init__(trace, levels, llc_indices)
        self._compiled = compiled

    def llc_arrays(self):
        # Straight from the blob's LLC sections: no gather over the trace.
        if self._llc_arrays is None:
            compiled = self._compiled
            self._llc_arrays = (
                list(compiled.view("llc_pc")),
                list(compiled.view("llc_addr")),
                list(map(bool, compiled.view("llc_write"))),
            )
        return self._llc_arrays

    def llc_stream(self, geometry):
        key = (geometry.offset_bits, geometry.index_bits)
        if key not in self._streams:
            views = self._compiled.stream_views(
                geometry.offset_bits, geometry.index_bits
            )
            if views is not None:
                # The replay kernel indexes set_indices/tags millions of
                # times; one bulk list() conversion keeps its per-access
                # cost identical to the freshly prepared path.
                self._streams[key] = prepare_stream(
                    self.llc_arrays(),
                    geometry,
                    set_indices=list(views[0]),
                    tags=list(views[1]),
                )
        return super().llc_stream(geometry)

    def fixed_latencies(self, l1_latency: int, l2_latency: int):
        key = (l1_latency, l2_latency)
        if key not in self._latencies and key == self._compiled.latency_pair:
            self._latencies[key] = list(self._compiled.view("fixed_lat"))
        return super().fixed_latencies(l1_latency, l2_latency)


class CompiledWorkload:
    """One workload's compiled form, backed by a flat binary buffer.

    Instances are created by :func:`compile_filtered` (freshly encoded),
    :meth:`StreamStore.load` (read off disk), or
    :func:`attach_shared_streams` (views into a shared-memory segment).
    All three are interchangeable: :meth:`filtered_trace` reconstructs a
    bit-identical :class:`~repro.sim.hierarchy.FilteredTrace` from any
    of them.
    """

    __slots__ = (
        "_retained",
        "_sections",
        "_views",
        "instructions",
        "key",
        "latency_pair",
        "llc",
        "name",
        "nbytes",
        "raw",
        "records",
    )

    def __init__(self) -> None:  # populated by from_buffer
        self.raw = None
        self._retained = None
        self._views: List[memoryview] = []

    # ------------------------------------------------------------------
    @classmethod
    def from_buffer(cls, buffer) -> "CompiledWorkload":
        """Decode a blob (bytes or a shared-memory view) without copying.

        Raises ValueError on a torn, truncated, or foreign buffer; the
        store converts that into a cache miss.
        """
        base = memoryview(buffer)
        if len(base) < len(_MAGIC) + 8:
            raise ValueError("compiled workload: buffer too short")
        if bytes(base[: len(_MAGIC)]) != _MAGIC:
            raise ValueError("compiled workload: bad magic")
        header_len = int.from_bytes(base[len(_MAGIC) : len(_MAGIC) + 8], "little")
        header_start = len(_MAGIC) + 8
        payload_start = header_start + header_len
        if header_len <= 0 or payload_start > len(base):
            raise ValueError("compiled workload: truncated header")
        try:
            header = json.loads(bytes(base[header_start:payload_start]).decode("ascii"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ValueError(f"compiled workload: garbled header ({exc})") from None
        if not isinstance(header, dict) or header.get("format") != _FORMAT:
            raise ValueError(
                f"compiled workload: unsupported format {header.get('format')!r}"
            )

        self = cls()
        self.raw = buffer
        self.key = header["key"]
        self.name = header["name"]
        self.instructions = header["instructions"]
        self.records = header["records"]
        self.llc = header["llc"]
        self.latency_pair = (header["l1_latency"], header["l2_latency"])
        self.nbytes = len(base)
        itemsize = {"Q": 8, "q": 8, "B": 1}
        sections: Dict[str, memoryview] = {}
        for section_id, meta in header["sections"].items():
            fmt = meta["fmt"]
            if fmt not in itemsize:
                raise ValueError(f"compiled workload: unknown section format {fmt!r}")
            start = payload_start + meta["offset"]
            stop = start + meta["count"] * itemsize[fmt]
            if stop > len(base):
                raise ValueError(
                    f"compiled workload: section {section_id!r} exceeds the buffer"
                )
            view = base[start:stop].cast(fmt)
            sections[section_id] = view
            self._views.append(view)
        self._views.append(base)
        for required in (
            "pc", "addr", "gap", "flags", "level",
            "llc_index", "llc_pc", "llc_addr", "llc_write", "fixed_lat",
        ):
            if required not in sections:
                raise ValueError(f"compiled workload: missing section {required!r}")
        if len(sections["pc"]) != self.records or len(sections["llc_pc"]) != self.llc:
            raise ValueError("compiled workload: section counts disagree with header")
        self._sections = sections
        return self

    # ------------------------------------------------------------------
    def view(self, section_id: str) -> memoryview:
        """The raw typed view of one section."""
        return self._sections[section_id]

    def stream_views(
        self, offset_bits: int, index_bits: int
    ) -> Optional[Tuple[memoryview, memoryview]]:
        """The stored ``(set index, tag)`` views for a geometry, if baked in."""
        suffix = f"{offset_bits}:{index_bits}"
        set_view = self._sections.get(f"set@{suffix}")
        tag_view = self._sections.get(f"tag@{suffix}")
        if set_view is None or tag_view is None:
            return None
        return set_view, tag_view

    def filtered_trace(self) -> CompiledFilteredTrace:
        """Reconstruct the workload (records and streams materialize lazily)."""
        trace = Trace.from_columns(
            self.name,
            self.view("pc"),
            self.view("addr"),
            self.view("gap"),
            self.view("flags"),
            instructions=self.instructions,
        )
        return CompiledFilteredTrace(
            trace, self.view("level"), self.view("llc_index"), self
        )

    def to_bytes(self) -> bytes:
        """The encoded blob (copies only when backed by shared memory)."""
        if isinstance(self.raw, bytes):
            return self.raw
        return bytes(self.raw)

    def retain(self, resource) -> None:
        """Tie an external resource's lifetime (e.g. a SharedMemory
        handle) to this workload, keeping the mapping alive while views
        into it exist."""
        self._retained = resource

    def release(self) -> None:
        """Drop every buffer view and close a retained shared-memory
        segment.  After this the workload (and any FilteredTrace built
        from it) must not be used; tests and benchmarks call it to shut
        segments down deterministically."""
        self._sections = {}
        for view in reversed(self._views):
            view.release()
        self._views = []
        self.raw = None
        retained = self._retained
        self._retained = None
        if retained is not None:
            retained.close()

    def __repr__(self) -> str:
        return (
            f"CompiledWorkload({self.name!r}, {self.records} records, "
            f"{self.llc} LLC accesses, {self.nbytes} bytes)"
        )


def compile_filtered(
    filtered: FilteredTrace,
    machine: MachineConfig,
    key: str,
) -> CompiledWorkload:
    """Compile a prepared workload into its flat, shareable form."""
    return CompiledWorkload.from_buffer(encode_filtered(filtered, machine, key))


# ----------------------------------------------------------------------
# the on-disk store
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class StoreEntry:
    """One stored blob, as listed by :meth:`StreamStore.entries`."""

    path: Path
    digest: str
    name: str
    key: str
    nbytes: int
    records: int
    llc: int
    instructions: int


def verify_blob(blob: bytes, digest: str) -> CompiledWorkload:
    """Decode a transferred blob and check it is the one ``digest`` names.

    Raises ValueError when the blob is torn (it does not decode) or
    mislabeled (its embedded key does not hash to ``digest``).
    """
    compiled = CompiledWorkload.from_buffer(blob)
    if StreamStore.digest_for_key(compiled.key) != digest:
        raise ValueError(
            f"blob key digest mismatch: decoded key {compiled.key!r} "
            f"does not hash to {digest!r} (torn or mislabeled transfer)"
        )
    return compiled


class StreamStore:
    """Content-addressed on-disk store of compiled workloads.

    A blob's file name is the SHA-256 of its key string, so entries
    written under one configuration can never be mistaken for another's;
    the key is also embedded in the blob header and verified on load,
    turning collisions and misplaced files into misses rather than
    silent corruption -- the same discipline as the checkpoint store.
    """

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)
        self._dir = self.root / "streams"
        self._dir.mkdir(parents=True, exist_ok=True)

    @classmethod
    def from_env(
        cls, explicit: Union[str, Path, None] = None
    ) -> Optional["StreamStore"]:
        """A store rooted per :func:`resolve_stream_cache_dir`, or None."""
        root = resolve_stream_cache_dir(explicit)
        return cls(root) if root is not None else None

    # ------------------------------------------------------------------
    # keying
    # ------------------------------------------------------------------
    @staticmethod
    def workload_key(
        benchmark: str,
        instructions: int,
        seed: int,
        machine: MachineConfig,
        spec_digest: str = "",
    ) -> str:
        """Canonical key over everything that determines a compiled blob.

        Trace generation depends on (benchmark, budget, LLC capacity,
        seed); filtering on the L1/L2 geometries; the baked-in stream on
        the LLC geometry.  ``spec_digest`` is the workload's canonical
        spec digest (:func:`repro.workloads.suite.workload_spec_digest`),
        which distinguishes parameterized patterns whose *name* text may
        vary (or collide) while their content differs -- e.g. a
        re-imported ``trace(...)`` workload.  The leading format token
        versions the key schema; bumping ``_KEY_FORMAT`` invalidates
        every entry (blob layout is versioned separately by ``_FORMAT``).
        """
        return (
            f"rstream-v{_KEY_FORMAT}|benchmark={benchmark}"
            f"|instructions={instructions}|seed={seed}"
            f"|l1={_geometry_token(machine.l1)}"
            f"|l2={_geometry_token(machine.l2)}"
            f"|llc={_geometry_token(machine.llc)}"
            f"|spec={spec_digest}"
        )

    @staticmethod
    def digest_for_key(key: str) -> str:
        """The sha256 content address of a key -- the blob's on-disk
        name and the identity the fleet protocol ships blobs under."""
        return hashlib.sha256(key.encode("ascii")).hexdigest()

    def path_for_key(self, key: str) -> Path:
        return self._dir / f"{self.digest_for_key(key)}.rsc"

    def path_for_digest(self, digest: str) -> Optional[Path]:
        """The blob path for a digest, or None for a malformed digest.

        The digest doubles as a file name, so anything but 64 hex
        characters is rejected here -- the HTTP blob route must never
        turn a request path into directory traversal.
        """
        digest = digest.strip().lower()
        if len(digest) != 64 or any(c not in "0123456789abcdef" for c in digest):
            return None
        return self._dir / f"{digest}.rsc"

    def load_raw(self, digest: str) -> Optional[bytes]:
        """Raw blob bytes by digest (the fleet blob-serving path);
        missing or malformed digests read as None."""
        path = self.path_for_digest(digest)
        if path is None:
            return None
        try:
            return path.read_bytes()
        except OSError:
            return None

    def store_raw(self, blob: bytes, digest: str) -> CompiledWorkload:
        """Verify and persist a transferred blob under its digest.

        The blob must pass :func:`verify_blob` -- only then is it
        written, so a fetched blob in the local store is exactly as
        trustworthy as a locally compiled one.  Returns the decoded
        workload.
        """
        compiled = verify_blob(blob, digest)
        atomic_write(self.path_for_key(compiled.key), bytes(blob))
        return compiled

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------
    def store(self, compiled: CompiledWorkload) -> Path:
        """Persist one compiled workload (atomic temp-then-rename).

        A failure mid-write -- ENOSPC, a kill signal that still unwinds,
        a crashed serializer -- unlinks the temporary file, so the store
        never accumulates half-written blobs.
        """
        return atomic_write(self.path_for_key(compiled.key), compiled.to_bytes())

    def load(self, key: str) -> Optional[CompiledWorkload]:
        """The stored blob for a key, or None.

        Missing, torn, or key-mismatched files all read as None: a bad
        entry costs one recompile, never a wrong result.
        """
        path = self.path_for_key(key)
        try:
            blob = path.read_bytes()
        except OSError:
            return None
        try:
            compiled = CompiledWorkload.from_buffer(blob)
        except ValueError:
            return None
        if compiled.key != key:
            return None
        return compiled

    # ------------------------------------------------------------------
    # maintenance
    # ------------------------------------------------------------------
    def entries(self) -> List[StoreEntry]:
        """Every readable blob in the store, sorted by workload name."""
        found: List[StoreEntry] = []
        for path in sorted(self._dir.glob("*.rsc")):
            try:
                compiled = CompiledWorkload.from_buffer(path.read_bytes())
            except (OSError, ValueError):
                continue
            found.append(
                StoreEntry(
                    path=path,
                    digest=path.stem,
                    name=compiled.name,
                    key=compiled.key,
                    nbytes=path.stat().st_size,
                    records=compiled.records,
                    llc=compiled.llc,
                    instructions=compiled.instructions,
                )
            )
        return sorted(found, key=lambda e: (e.name, e.digest))

    def footprint(self) -> int:
        """Total bytes of stored blobs (unreadable files included)."""
        return sum(path.stat().st_size for path in self._dir.glob("*.rsc"))

    def evict(self, selector: str) -> int:
        """Delete entries whose workload name or digest prefix matches
        ``selector``; returns the count removed."""
        removed = 0
        for entry in self.entries():
            if entry.name == selector or entry.digest.startswith(selector):
                entry.path.unlink(missing_ok=True)
                removed += 1
        return removed

    def clear(self) -> int:
        """Delete every blob (and stray temp files); returns the count."""
        removed = 0
        for path in self._dir.glob("*.rsc"):
            path.unlink(missing_ok=True)
            removed += 1
        for path in self._dir.glob("*.tmp.*"):
            path.unlink(missing_ok=True)
        return removed

    def __len__(self) -> int:
        return sum(1 for _ in self._dir.glob("*.rsc"))

    def __repr__(self) -> str:
        return f"StreamStore({str(self.root)!r}, {len(self)} blobs)"


# ----------------------------------------------------------------------
# shared-memory fan-out
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class StreamManifest:
    """Picklable description of a :class:`SharedStreamExport`.

    ``pid`` records the creating (owning) process for provenance; the
    owner is the one that unlinks the segments.

    A note on the resource tracker: on CPython 3.8-3.12, *attaching* to
    a segment registers it for cleanup just like creating one does.
    That is harmless here -- spawn children inherit the parent's
    tracker process (the tracker fd travels in the spawn preparation
    data), where registration is a set-add and therefore idempotent;
    the parent's single unlink unregisters the name exactly once.  Do
    NOT "fix" the double registration by unregistering after attach:
    with a shared tracker that cancels the parent's registration and
    the eventual unlink trips a KeyError in the tracker process.
    """

    pid: int
    segments: Tuple[Tuple[str, str, int], ...]

    def __len__(self) -> int:
        return len(self.segments)


class SharedStreamExport:
    """Parent-side shared-memory segments, one per compiled workload.

    The parent copies each blob into a segment once;
    :meth:`manifest` is the picklable description workers turn back into
    :class:`CompiledWorkload` views via :func:`attach_shared_streams`.
    :meth:`close` is idempotent and runs in the sweep's cleanup path
    whatever happens -- crash, timeout, abort -- so a failed sweep never
    leaks segments.
    """

    def __init__(self) -> None:
        self._segments: Dict[str, Tuple[object, int]] = {}
        self._closed = False

    @classmethod
    def create(cls, compiled: Mapping[str, CompiledWorkload]) -> "SharedStreamExport":
        from multiprocessing import shared_memory

        export = cls()
        try:
            for benchmark, workload in compiled.items():
                blob = workload.to_bytes()
                segment = shared_memory.SharedMemory(create=True, size=len(blob))
                segment.buf[: len(blob)] = blob
                export._segments[benchmark] = (segment, len(blob))
        except BaseException:
            export.close()
            raise
        return export

    def manifest(self) -> StreamManifest:
        """The picklable description workers attach from."""
        return StreamManifest(
            pid=os.getpid(),
            segments=tuple(
                (benchmark, segment.name, nbytes)
                for benchmark, (segment, nbytes) in self._segments.items()
            ),
        )

    def close(self) -> None:
        """Close and unlink every segment (idempotent)."""
        if self._closed:
            return
        self._closed = True
        for segment, _ in self._segments.values():
            try:
                segment.close()
            except BufferError:
                pass  # a live in-process view keeps the mapping; unlink still works
            try:
                segment.unlink()
            except FileNotFoundError:
                pass
        self._segments = {}

    def __len__(self) -> int:
        return len(self._segments)


def attach_shared_streams(
    manifest: Optional[StreamManifest],
) -> Dict[str, CompiledWorkload]:
    """Worker-side attach: map each exported segment, zero-copy.

    Returns ``{name: CompiledWorkload}`` under the exported names; each
    workload retains its segment handle so the mapping stays alive for
    the worker's lifetime.  Returns an empty dict for a None/empty manifest.
    """
    if manifest is None or not manifest.segments:
        return {}
    from multiprocessing import shared_memory

    attached: Dict[str, CompiledWorkload] = {}
    for benchmark, segment_name, nbytes in manifest.segments:
        segment = shared_memory.SharedMemory(name=segment_name)
        workload = CompiledWorkload.from_buffer(memoryview(segment.buf)[:nbytes])
        workload.retain(segment)
        attached[benchmark] = workload
    return attached
