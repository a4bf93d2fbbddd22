"""External trace replay: bring-your-own traces as first-class workloads.

Two pieces:

* :class:`TraceLibrary` -- a tiny content-addressed store for imported
  trace files (``repro trace import``).  Traces live under a root
  directory (``REPRO_TRACE_LIB``, default ``.repro-traces``) as
  canonical gzip blobs named by the sha256 of their *canonical text
  serialization* (:func:`repro.sim.traceio.trace_lines`), with a JSON
  index mapping human names to digests.  Importing the same content
  twice -- from a ``.gz`` or plain file, under any filename -- lands on
  the same blob.

* :class:`TraceReplayWorkload` -- a
  :class:`~repro.workloads.base.WorkloadGenerator` that replays an
  imported (or directly referenced) trace file, truncating or looping it
  to the requested instruction budget.  Its canonical spec pins the
  trace's **content digest**, so a re-import of different content under
  the same library name changes every downstream key (checkpoint cells,
  stream-store blobs) instead of silently colliding.

Spec forms::

    trace(NAME)                     # library lookup by name
    trace(NAME,loop=true)           # wrap around instead of truncating
    trace(file=/path/to/file.gz)    # direct file reference (no library)

The canonical form always carries ``digest=<16 hex>``; a spec that pins
a digest is verified against the loaded content at generation time.

Fleet caveat: workers resolve ``trace(...)`` cells from *their own*
trace library (or the spec's literal ``file=`` path).  Compiled-stream
blobs travel by digest as usual, so a warm stream store hides this; a
cold fleet worker needs the trace library synced to its machine.
"""

from __future__ import annotations

import gzip
import hashlib
import io
import json
import os
from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.sim.trace import Trace
from repro.sim.traceio import load_trace, trace_lines
from repro.utils.atomic import atomic_write
from repro.workloads.base import WorkloadGenerator
from repro.workloads.patterns import (
    WorkloadSpecError,
    register_pattern_family,
    spec_digest,
)

__all__ = [
    "TraceLibrary",
    "TraceReplayWorkload",
    "default_trace_library",
    "trace_content_digest",
]

_ENV_ROOT = "REPRO_TRACE_LIB"
_DEFAULT_ROOT = ".repro-traces"
_DIGEST_CHARS = 16

# Digest memo keyed by (resolved path, size, mtime_ns): re-hashing a
# multi-MB trace on every cell of a sweep would dominate cold compiles.
_digest_cache: Dict[object, str] = {}


def trace_content_digest(trace: Trace) -> str:
    """sha256 (hex) of the trace's canonical text serialization."""
    digest = hashlib.sha256()
    for line in trace_lines(trace):
        digest.update(line.encode("ascii"))
    return digest.hexdigest()


def _digest_of_file(path: Path) -> str:
    stat = path.stat()
    key = (str(path.resolve()), stat.st_size, stat.st_mtime_ns)
    cached = _digest_cache.get(key)
    if cached is None:
        cached = trace_content_digest(load_trace(path))
        _digest_cache[key] = cached
    return cached


class TraceLibrary:
    """Content-addressed store of imported traces.

    Layout::

        <root>/index.json                 name -> {digest, records,
                                                   instructions, source}
        <root>/blobs/<sha256>.trace.gz    canonical gzip blobs
    """

    def __init__(self, root: Union[str, Path, None] = None) -> None:
        if root is None:
            root = os.environ.get(_ENV_ROOT, "") or _DEFAULT_ROOT
        self.root = Path(root)
        self._index_path = self.root / "index.json"
        self._blob_dir = self.root / "blobs"

    # ------------------------------------------------------------------
    # index
    # ------------------------------------------------------------------
    def entries(self) -> Dict[str, Dict[str, object]]:
        """The name -> metadata index (empty for a fresh library)."""
        try:
            with open(self._index_path, encoding="utf-8") as stream:
                index = json.load(stream)
        except FileNotFoundError:
            return {}
        except (OSError, json.JSONDecodeError) as error:
            raise ValueError(f"unreadable trace library index {self._index_path}: {error}")
        if not isinstance(index, dict):
            raise ValueError(f"corrupt trace library index {self._index_path}")
        return index

    def _write_index(self, index: Dict[str, Dict[str, object]]) -> None:
        self.root.mkdir(parents=True, exist_ok=True)
        text = json.dumps(index, indent=2, sort_keys=True) + "\n"
        atomic_write(self._index_path, text.encode("utf-8"))

    def blob_path(self, digest: str) -> Path:
        return self._blob_dir / f"{digest}.trace.gz"

    # ------------------------------------------------------------------
    # import / load
    # ------------------------------------------------------------------
    def import_file(self, path: Union[str, Path], name: Optional[str] = None) -> Dict[str, object]:
        """Bring an external trace file under the library.

        The file is parsed (so malformed or truncated traces are
        rejected at import time with :mod:`~repro.sim.traceio`'s
        diagnostics), re-serialized canonically, and stored as a gzip
        blob named by its content digest.  Returns the index entry.
        """
        path = Path(path)
        trace = load_trace(path)
        entry_name = name or trace.name
        if not entry_name or any(c in entry_name for c in "|,()= \t"):
            raise ValueError(
                f"bad trace name {entry_name!r}: must be non-empty and free of "
                "'|', ',', parentheses, '=' and whitespace (it becomes part of "
                "workload spec strings)"
            )
        digest = trace_content_digest(trace)
        self._blob_dir.mkdir(parents=True, exist_ok=True)
        blob = self.blob_path(digest)
        if not blob.exists():
            # No file name in the gzip header and mtime=0: the blob bytes
            # are a pure function of the trace, whichever process wrote it.
            buffer = io.BytesIO()
            with gzip.GzipFile(filename="", mode="wb", fileobj=buffer, mtime=0) as stream:
                for line in trace_lines(trace):
                    stream.write(line.encode("ascii"))
            atomic_write(blob, buffer.getvalue())
        index = self.entries()
        index[entry_name] = {
            "digest": digest,
            "records": len(trace),
            "instructions": trace.instructions,
            "source": str(path),
        }
        self._write_index(index)
        return index[entry_name]

    def lookup(self, name: str) -> Dict[str, object]:
        """The index entry for ``name`` (with a suggestion on a miss)."""
        import difflib

        index = self.entries()
        entry = index.get(name)
        if entry is None:
            known = ", ".join(sorted(index)) or "<library is empty>"
            matches = difflib.get_close_matches(name, list(index), n=1)
            hint = f"; did you mean {matches[0]!r}?" if matches else ""
            raise WorkloadSpecError(
                f"trace {name!r} not found in library {self.root} "
                f"(imported traces: {known}{hint})"
            )
        return entry

    def load(self, name: str) -> Trace:
        """Load the trace registered under ``name``."""
        entry = self.lookup(name)
        blob = self.blob_path(str(entry["digest"]))
        if not blob.exists():
            raise WorkloadSpecError(
                f"trace {name!r}: blob {blob} is missing (evicted or torn "
                "import); re-run `repro trace import`"
            )
        return load_trace(blob)


def default_trace_library() -> TraceLibrary:
    """The library named by ``REPRO_TRACE_LIB`` (default .repro-traces)."""
    return TraceLibrary()


class TraceReplayWorkload(WorkloadGenerator):
    """Replay an external trace as a workload.

    Args:
        source: a library trace name, or a direct file path when
            ``from_file`` is true.
        loop: wrap around when the trace is shorter than the requested
            budget (default: truncate -- the remaining budget is spent
            as trailing non-memory instructions).
        digest: expected content digest; filled automatically from the
            library/file, verified if supplied explicitly.
        library: the :class:`TraceLibrary` to resolve names in.
    """

    def __init__(
        self,
        source: str,
        loop: bool = False,
        seed: int = 1,
        digest: Optional[str] = None,
        from_file: bool = False,
        library: Optional[TraceLibrary] = None,
    ) -> None:
        self.source = str(source)
        self.loop = bool(loop)
        self.from_file = bool(from_file)
        self.library = library or default_trace_library()
        if from_file:
            actual = _digest_of_file(Path(self.source))[:_DIGEST_CHARS]
        else:
            actual = str(self.library.lookup(self.source)["digest"])[:_DIGEST_CHARS]
        if digest is not None and str(digest) != actual:
            raise WorkloadSpecError(
                f"trace {self.source!r}: content digest mismatch -- spec pins "
                f"{digest}, the trace content is {actual} (the trace was "
                "re-imported with different content; refresh the spec)"
            )
        self.digest = actual
        key = "file" if from_file else "name"
        loop_text = "true" if self.loop else "false"
        super().__init__(
            f"trace({key}={self.source},digest={self.digest},"
            f"loop={loop_text},seed={seed})",
            seed,
        )

    def spec(self) -> str:
        return self.name

    def spec_digest(self) -> str:
        return spec_digest(self.spec())

    def _load(self) -> Trace:
        if self.from_file:
            return load_trace(Path(self.source))
        return self.library.load(self.source)

    def generate(self, instructions: int, llc_bytes: int) -> Trace:
        source = self._load()
        if not len(source):
            raise WorkloadSpecError(f"trace {self.source!r} has no records")
        # Whole passes over the source while a pass stays under the
        # budget (one at most when truncating), then the prefix of one
        # more pass that reaches it.  Columns are copied in bulk.
        gaps = source.gaps
        per_pass = sum(gaps) + len(gaps)
        passes = 0
        cut = 0
        consumed = 0
        while consumed < instructions:
            if consumed + per_pass < instructions:
                consumed += per_pass
                passes += 1
                if self.loop:
                    continue
                break
            for position, gap in enumerate(gaps):
                consumed += gap + 1
                if consumed >= instructions:
                    cut = position + 1
                    break
            break
        columns = [
            column * passes + column[:cut]
            for column in (source.pcs, source.addresses, gaps, source.flags)
        ]
        trace = Trace.from_columns(self.name, *columns, instructions=consumed)
        if trace.instructions < instructions:
            # Truncation mode on a short trace: account the leftover
            # budget as trailing compute so IPC math stays comparable.
            trace.instructions = instructions
        return trace


def _trace_family(params: Dict[str, object], positional: List[object], seed: int):
    params = dict(params)
    name = params.pop("name", None)
    file_path = params.pop("file", None)
    if positional:
        if len(positional) > 1 or name is not None or file_path is not None:
            raise WorkloadSpecError(
                "trace: give exactly one source -- trace(NAME) or "
                "trace(file=PATH)"
            )
        name = positional[0]
    if (name is None) == (file_path is None):
        raise WorkloadSpecError(
            "trace: give exactly one source -- trace(NAME) or trace(file=PATH)"
        )
    digest = params.pop("digest", None)
    loop = params.pop("loop", False)
    seed_value = params.pop("seed", seed)
    if params:
        raise WorkloadSpecError(
            f"trace: unknown parameter(s) {', '.join(sorted(params))} "
            "(valid: name, file, digest, loop, seed)"
        )
    if not isinstance(loop, bool):
        raise WorkloadSpecError("trace: loop must be true or false")
    if not isinstance(seed_value, int):
        raise WorkloadSpecError("trace: seed must be an integer")
    return TraceReplayWorkload(
        str(file_path if name is None else name),
        loop=loop,
        seed=seed_value,
        digest=None if digest is None else str(digest),
        from_file=name is None,
    )


register_pattern_family("trace", _trace_family)
