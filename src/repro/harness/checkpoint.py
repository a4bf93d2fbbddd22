"""Checkpoint store for sweep cells.

A Figure 4/5/7/8 sweep is a grid of independent (benchmark, technique)
cells; at paper scale each cell is minutes-to-hours of replay.  The
:class:`CheckpointStore` persists each completed cell's
:class:`~repro.sim.system.RunResult` to disk as soon as it exists, so an
interrupted sweep -- crash, OOM kill, ctrl-C, power loss -- resumes from
the last completed cell instead of starting over.

Layout and keying
-----------------

The store is content-addressed: a cell's file name is the SHA-256 of a
canonical key string over everything that determines its result::

    v1|scale=8|instructions=400000|seed=1|cores=4|benchmark=mcf|technique=sampler

so checkpoints written under one configuration can never be mistaken for
another's (change the seed, the scale, or the budget and every key --
hence every path -- changes).  A cell measured another way, or run with
a reshaped predictor, is named by a
:class:`~repro.harness.techniques.Scheme` whose content key adds exactly
those fields (``...|technique=sampler|measure=accuracy``); a Figure-10
mix cell keys on its mix name (``benchmark=mix3``) and stores a
shared-LLC :class:`~repro.sim.multicore.MulticoreResult`.  Files live
under ``<root>/cells/`` as pickles of ``{"key": <key string>,
"result": <stripped result>}``; the embedded key is verified on load,
which turns both hash collisions and hand-misplaced files into cache
misses rather than silent corruption.  Writes go through a temporary file and ``os.replace`` so a
crash mid-write leaves either the old bytes or the new, never a torn
file; unreadable or torn checkpoints are treated as missing (and
re-running the cell rewrites them).

Results are stored stripped of their cache and observers, exactly as
they cross a worker-process boundary: sweeps only consume stats, timing,
hit vectors and the observer numbers copied into ``RunResult.analysis``,
and policies hold arbitrarily rich (and arbitrarily unpicklable) state.

The store root comes from, in priority order: an explicit path, the
``REPRO_CHECKPOINT_DIR`` environment variable (see
:func:`resolve_checkpoint_dir`), or nothing (checkpointing disabled).
"""

from __future__ import annotations

import copy
import hashlib
import os
import pickle
from pathlib import Path
from typing import Optional, Union

from repro.harness.runner import ExperimentConfig
from repro.sim.multicore import MulticoreResult
from repro.sim.system import RunResult
from repro.utils.atomic import atomic_write

__all__ = [
    "CheckpointStore",
    "resolve_checkpoint_dir",
    "result_from_wire",
    "result_to_wire",
]

_FORMAT = "v1"

#: What a cell produces: a single-core run, or a Figure-10 mix's
#: shared-LLC run.
CellResult = Union[RunResult, MulticoreResult]


def result_to_wire(result: RunResult) -> bytes:
    """Serialize one cell result for transport (fleet completions).

    Strips the cache and observers exactly as :meth:`CheckpointStore.store`
    does -- the wire carries stats, timing, and hit vectors, never live
    simulator state -- so a result that crossed the fleet protocol is
    byte-for-byte the result a local checkpoint write would have stored.
    """
    return pickle.dumps(_stripped(result), protocol=pickle.HIGHEST_PROTOCOL)


def _stripped(result: CellResult) -> CellResult:
    """A copy without the live cache and observers (a shared-LLC
    :class:`~repro.sim.multicore.MulticoreResult` carries neither)."""
    stripped = copy.copy(result)
    if isinstance(stripped, RunResult):
        stripped.cache = None
        stripped.observers = ()
    return stripped


def result_from_wire(data: bytes) -> RunResult:
    """Decode a :func:`result_to_wire` payload.

    Raises ValueError on anything that does not decode to a
    :class:`RunResult` -- a torn transfer or a confused sender must
    surface as a protocol error, never land in the checkpoint store.
    """
    try:
        payload = pickle.loads(data)
    except Exception as exc:
        raise ValueError(
            f"undecodable result payload: {type(exc).__name__}: {exc}"
        ) from None
    if not isinstance(payload, RunResult):
        raise ValueError(
            f"result payload decoded to {type(payload).__name__}, "
            "expected RunResult"
        )
    return payload


def resolve_checkpoint_dir(
    explicit: Union[str, Path, None] = None
) -> Optional[Path]:
    """The checkpoint root: explicit argument, else ``REPRO_CHECKPOINT_DIR``,
    else None (checkpointing disabled)."""
    if explicit is not None:
        return Path(explicit)
    raw = os.environ.get("REPRO_CHECKPOINT_DIR")
    if raw is None or not raw.strip():
        return None
    return Path(raw)


class CheckpointStore:
    """Content-addressed on-disk store of completed sweep cells."""

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)
        self._cells = self.root / "cells"
        self._cells.mkdir(parents=True, exist_ok=True)

    @classmethod
    def from_env(
        cls, explicit: Union[str, Path, None] = None
    ) -> Optional["CheckpointStore"]:
        """A store rooted per :func:`resolve_checkpoint_dir`, or None."""
        root = resolve_checkpoint_dir(explicit)
        return cls(root) if root is not None else None

    # ------------------------------------------------------------------
    # keying
    # ------------------------------------------------------------------
    @staticmethod
    def cell_key(
        config: ExperimentConfig,
        benchmark: str,
        technique_key: Optional[str],
    ) -> str:
        """Canonical key string for one cell (``technique_key=None`` is
        the LRU baseline cell; a :class:`~repro.harness.techniques.Scheme`
        contributes its content key)."""
        technique = technique_key if technique_key is not None else "<baseline>"
        return (
            f"{_FORMAT}|scale={config.scale}|instructions={config.instructions}"
            f"|seed={config.seed}|cores={config.num_cores}"
            f"|benchmark={benchmark}|technique={technique}"
        )

    def cell_path(
        self,
        config: ExperimentConfig,
        benchmark: str,
        technique_key: Optional[str],
    ) -> Path:
        """Where the cell's checkpoint lives (whether or not it exists)."""
        key = self.cell_key(config, benchmark, technique_key)
        digest = hashlib.sha256(key.encode("ascii")).hexdigest()
        return self._cells / f"{digest}.pkl"

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------
    def store(
        self,
        config: ExperimentConfig,
        benchmark: str,
        technique_key: Optional[str],
        result: CellResult,
    ) -> Path:
        """Persist one completed cell (atomically; returns the path)."""
        key = self.cell_key(config, benchmark, technique_key)
        path = self.cell_path(config, benchmark, technique_key)
        payload = pickle.dumps(
            {"key": key, "result": _stripped(result)},
            protocol=pickle.HIGHEST_PROTOCOL,
        )
        # The experiment service stores cells from a dispatcher thread
        # while sweep code may store from the main thread; atomic_write's
        # per-writer temp files let concurrent same-key writers each
        # replace atomically, last rename wins, with complete bytes.
        return atomic_write(path, payload)

    def load(
        self,
        config: ExperimentConfig,
        benchmark: str,
        technique_key: Optional[str],
    ) -> Optional[CellResult]:
        """The checkpointed result for a cell, or None.

        Missing, torn, unpicklable, or key-mismatched files all read as
        None: a bad checkpoint costs one cell re-run, never a wrong
        sweep.
        """
        path = self.cell_path(config, benchmark, technique_key)
        try:
            payload = pickle.loads(path.read_bytes())
        except FileNotFoundError:
            return None
        except Exception:
            return None  # torn or corrupt: treat as missing
        if (
            not isinstance(payload, dict)
            or payload.get("key") != self.cell_key(config, benchmark, technique_key)
            or not isinstance(payload.get("result"), (RunResult, MulticoreResult))
        ):
            return None
        return payload["result"]

    # ------------------------------------------------------------------
    # maintenance
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        """Count of stored cells."""
        return sum(1 for _ in self._cells.glob("*.pkl"))

    def clear(self) -> None:
        """Delete every stored cell (the root directory is kept)."""
        for path in self._cells.glob("*.pkl"):
            path.unlink(missing_ok=True)

    def __repr__(self) -> str:
        return f"CheckpointStore({str(self.root)!r}, {len(self)} cells)"
