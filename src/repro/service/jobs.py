"""Job model and persistent job store for the experiment service.

A *job* is one client submission: either a single (benchmark, technique)
cell or a whole sweep, expanded server-side into its cell grid (each
benchmark's LRU baseline cell included, exactly as
:func:`repro.harness.parallel.parallel_single_thread_comparison`
expands it).  Cells are content-addressed with the *same* key scheme as
:class:`repro.harness.checkpoint.CheckpointStore` --
``v1|scale=..|instructions=..|seed=..|cores=..|benchmark=..|technique=..``
-- which is what makes service-level dedup sound: a cell key names
everything that determines the cell's result, so any two submissions
with the same key may share one execution, and a cell computed by a
plain CLI sweep into the same checkpoint store satisfies a later job
without running anything.

State machine::

    queued -> running -> done
                      -> failed
    queued ----------> cancelled
    running ---------> cancelled   (cancel observed between cells)

Illegal transitions raise :class:`JobStateError`; terminal states never
transition again.  The :class:`JobStore` persists each job as one JSON
record written atomically (temp file + ``os.replace``), so a killed
server leaves either the old record or the new, never a torn one, and a
restarted server resumes from the store: ``queued`` jobs re-enqueue,
``running`` jobs fall back to ``queued`` (their already-completed cells
come out of the checkpoint store as instant dedup hits).

A record that does not parse -- torn by a crash mid-rename on an odd
filesystem, truncated by a full disk, or hand-edited into nonsense --
is *quarantined* on resume: moved aside into ``<jobs>/corrupt/`` with a
warning, so it can neither crash the server on every restart nor be
silently deleted before a human looks at it.  The quarantine count is
surfaced in ``/healthz``.
"""

from __future__ import annotations

import json
import os
import sys
import time
import uuid
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.harness.checkpoint import CheckpointStore
from repro.harness.runner import ExperimentConfig
from repro.utils.atomic import atomic_write

__all__ = [
    "Job",
    "JobStateError",
    "JobStore",
    "QueueFull",
    "STATES",
    "TERMINAL_STATES",
    "cell_key",
    "config_from_dict",
]

#: Every legal job state.
STATES = ("queued", "running", "done", "failed", "cancelled")

#: States a job never leaves.
TERMINAL_STATES = ("done", "failed", "cancelled")

_TRANSITIONS = {
    "queued": {"running", "cancelled", "done", "failed"},
    "running": {"done", "failed", "cancelled"},
    "done": set(),
    "failed": set(),
    "cancelled": set(),
}
# queued -> done/failed directly covers fully-deduplicated jobs: every
# cell was already in the checkpoint store, so the job never runs.


class JobStateError(Exception):
    """An illegal job state transition was attempted."""


class QueueFull(Exception):
    """The scheduler's bounded queue is at capacity (HTTP 429)."""


def config_from_dict(raw: Optional[Dict]) -> ExperimentConfig:
    """Build an :class:`ExperimentConfig` from a request's ``config``
    object (missing fields take the dataclass defaults).

    Raises ValueError on unknown fields, and :class:`ExperimentConfig`
    raises it on values that are not positive integers, so a typo'd
    submission fails loudly at the API boundary instead of silently
    running the default configuration.
    """
    raw = dict(raw or {})
    known = {"scale", "instructions", "seed", "cores"}
    unknown = sorted(set(raw) - known)
    if unknown:
        raise ValueError(
            f"unknown config field(s): {', '.join(unknown)} "
            f"(valid: {', '.join(sorted(known))})"
        )
    if "cores" in raw:
        raw["num_cores"] = raw.pop("cores")
    return ExperimentConfig(**raw)


def config_to_dict(config: ExperimentConfig) -> Dict[str, int]:
    """The wire form of a config (the ``cores`` spelling, as submitted)."""
    return {
        "scale": config.scale,
        "instructions": config.instructions,
        "seed": config.seed,
        "cores": config.num_cores,
    }


def cell_key(
    config: ExperimentConfig, benchmark: str, technique_key: Optional[str]
) -> str:
    """The content address of one cell -- delegated to the checkpoint
    store's key scheme so service dedup and checkpoint resume agree on
    what "the same cell" means."""
    return CheckpointStore.cell_key(config, benchmark, technique_key)


#: A cell identity as carried by a job: (benchmark, technique key or None).
Cell = Tuple[str, Optional[str]]


@dataclass
class Job:
    """One client submission and its lifecycle.

    ``cells`` is the expanded work list; ``kind`` records whether the
    submission was a single cell or a sweep (which changes the shape of
    ``/result``: a cell job returns one run's stats, a sweep job returns
    the full :func:`repro.harness.export.to_dict` comparison).
    """

    id: str
    kind: str  # "cell" | "sweep"
    client: str
    priority: int
    config: ExperimentConfig
    benchmarks: Tuple[str, ...]
    techniques: Tuple[str, ...]
    cells: Tuple[Cell, ...]
    state: str = "queued"
    error: str = ""
    created_at: float = field(default_factory=time.time)
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    seq: int = 0  # submission order, tie-breaker in the queue
    dedup_cells: int = 0  # cells satisfied without a new execution

    @classmethod
    def new(
        cls,
        kind: str,
        client: str,
        priority: int,
        config: ExperimentConfig,
        benchmarks: Sequence[str],
        techniques: Sequence[str],
        cells: Sequence[Cell],
        seq: int = 0,
    ) -> "Job":
        return cls(
            id=f"job-{uuid.uuid4().hex[:12]}",
            kind=kind,
            client=client,
            priority=priority,
            config=config,
            benchmarks=tuple(benchmarks),
            techniques=tuple(techniques),
            cells=tuple((b, t) for b, t in cells),
            seq=seq,
        )

    # ------------------------------------------------------------------
    # state machine
    # ------------------------------------------------------------------
    @property
    def is_terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    def transition(self, new_state: str) -> None:
        """Move to ``new_state``, enforcing the machine; stamps the
        started/finished timestamps as states are entered."""
        if new_state not in STATES:
            raise JobStateError(f"unknown job state {new_state!r}")
        if new_state == self.state:
            return
        if new_state not in _TRANSITIONS[self.state]:
            raise JobStateError(
                f"job {self.id}: illegal transition {self.state!r} -> {new_state!r}"
            )
        self.state = new_state
        now = time.time()
        if new_state == "running" and self.started_at is None:
            self.started_at = now
        if new_state in TERMINAL_STATES:
            self.finished_at = now

    # ------------------------------------------------------------------
    # serialization
    # ------------------------------------------------------------------
    def to_dict(self, progress: Optional[Dict[str, int]] = None) -> Dict:
        """JSON-ready record (also the ``GET /v1/jobs/{id}`` body)."""
        record = {
            "id": self.id,
            "kind": self.kind,
            "client": self.client,
            "priority": self.priority,
            "config": config_to_dict(self.config),
            "benchmarks": list(self.benchmarks),
            "techniques": list(self.techniques),
            "cells": [[b, t] for b, t in self.cells],
            "state": self.state,
            "error": self.error,
            "created_at": self.created_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "seq": self.seq,
            "dedup_cells": self.dedup_cells,
        }
        if progress is not None:
            record["progress"] = dict(progress)
        return record

    @classmethod
    def from_dict(cls, record: Dict) -> "Job":
        job = cls(
            id=record["id"],
            kind=record["kind"],
            client=record.get("client", ""),
            priority=int(record.get("priority", 0)),
            config=config_from_dict(record.get("config")),
            benchmarks=tuple(record.get("benchmarks", ())),
            techniques=tuple(record.get("techniques", ())),
            cells=tuple((b, t) for b, t in record.get("cells", ())),
            state=record.get("state", "queued"),
            error=record.get("error", ""),
            created_at=record.get("created_at", 0.0),
            started_at=record.get("started_at"),
            finished_at=record.get("finished_at"),
            seq=int(record.get("seq", 0)),
            dedup_cells=int(record.get("dedup_cells", 0)),
        )
        if job.state not in STATES:
            raise ValueError(f"job {job.id}: unknown state {job.state!r}")
        return job


class JobStore:
    """Atomic one-file-per-job JSON persistence under ``<root>/jobs/``."""

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)
        self._jobs = self.root / "jobs"
        self._jobs.mkdir(parents=True, exist_ok=True)

    def path(self, job_id: str) -> Path:
        return self._jobs / f"{job_id}.json"

    @property
    def corrupt_dir(self) -> Path:
        """Where unparseable job records are moved (may not exist yet)."""
        return self._jobs / "corrupt"

    @property
    def quarantined_count(self) -> int:
        """How many corrupt records have been quarantined (``/healthz``)."""
        try:
            return sum(1 for _ in self.corrupt_dir.glob("job-*.json"))
        except OSError:
            return 0

    def quarantine(self, path: Path) -> None:
        """Move one unreadable record into ``corrupt/``, loudly."""
        self.corrupt_dir.mkdir(parents=True, exist_ok=True)
        target = self.corrupt_dir / path.name
        try:
            os.replace(path, target)
        except OSError:
            return  # racing writer revived or removed it; leave it be
        print(
            f"[jobs] warning: quarantined unreadable job record "
            f"{path.name} -> {target} (torn write or corruption; "
            "inspect or delete manually)",
            file=sys.stderr,
            flush=True,
        )

    def save(self, job: Job, progress: Optional[Dict[str, int]] = None) -> Path:
        """Persist one job atomically (old record or new, never torn)."""
        path = self.path(job.id)
        payload = json.dumps(job.to_dict(progress), sort_keys=True, indent=1)
        return atomic_write(path, payload.encode("utf-8"))

    def load(self, job_id: str) -> Optional[Job]:
        """One job by id; missing, torn, or malformed records read as None."""
        try:
            record = json.loads(self.path(job_id).read_text(encoding="utf-8"))
            return Job.from_dict(record)
        except FileNotFoundError:
            return None
        except Exception:
            return None  # torn or corrupt record: absent, never wrong

    def load_all(self, quarantine: bool = False) -> List[Job]:
        """Every readable job record, in submission (seq) order.

        With ``quarantine=True``, records that exist but do not parse
        are moved into ``corrupt/`` (see :meth:`quarantine`) instead of
        being skipped silently.
        """
        jobs = []
        for path in sorted(self._jobs.glob("job-*.json")):
            job = self.load(path.stem)
            if job is not None:
                jobs.append(job)
            elif quarantine and path.exists():
                self.quarantine(path)
        jobs.sort(key=lambda job: (job.seq, job.created_at, job.id))
        return jobs

    def resume(self) -> List[Job]:
        """Jobs for a restarting server: non-terminal jobs come back as
        ``queued`` (a job caught ``running`` by a crash re-enqueues; its
        finished cells are checkpoint-store dedup hits) and are
        re-persisted in that state.  Unparseable records are quarantined
        rather than re-tripped-over on every restart."""
        jobs = self.load_all(quarantine=True)
        for job in jobs:
            if not job.is_terminal and job.state != "queued":
                job.state = "queued"
                job.started_at = None
                self.save(job)
        return jobs

    def __len__(self) -> int:
        return sum(1 for _ in self._jobs.glob("job-*.json"))

    def __repr__(self) -> str:
        return f"JobStore({str(self.root)!r}, {len(self)} jobs)"
