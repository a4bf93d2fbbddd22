"""Run manifests: what exactly produced a results file.

A sweep that ran overnight is worthless if nobody can say which config,
seed, code revision, and environment produced it.  A
:class:`RunManifest` stamps every sweep with:

* the experiment config (scale, instructions, seed, cores) and the
  technique keys and benchmarks swept;
* the git SHA (and a dirty flag) of the checkout holding the running
  ``repro`` package, when it is one;
* every ``REPRO_*`` environment knob that was set;
* interpreter and relevant library versions (read from installed
  distribution metadata, so stamping a manifest imports none of them);
* wall-clock duration plus per-cell wall/CPU timings measured inside
  the workers;
* the compiled-workload-store configuration and hit/miss counters
  (sweep-level summary in ``stream_store``, per-cell ``store_hits`` /
  ``store_misses``), so a results file can prove whether its workloads
  came off the warm path (see docs/performance.md);
* per-cell ``replay_index_builds`` / ``prediction_plane_builds`` /
  ``timing_plan_builds``, which say whether a cell built its workload's
  cached replay index, prediction plane and timing plan or reused them.

Manifests are written atomically (temp file + ``os.replace``) next to
the checkpoint store by default, so a manifest on disk always describes
a complete write -- the same discipline
:class:`repro.harness.checkpoint.CheckpointStore` uses for cells.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.utils.atomic import atomic_write

__all__ = ["RunManifest", "collect_environment", "git_revision"]

MANIFEST_VERSION = 1

#: Libraries whose presence/version can change results or performance.
_INTERESTING_LIBRARIES = ("numpy", "pytest", "hypothesis", "pytest_benchmark")

#: The directory of the ``repro`` package: the checkout a manifest stamps.
_PACKAGE_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def git_revision(cwd: Optional[str] = None) -> Dict[str, Any]:
    """Best-effort git identity of the checkout holding the running code.

    Git runs in ``cwd``, by default the ``repro`` package's directory --
    not the process's working directory, which may be another repository
    or none.  Returns ``{"sha": ..., "dirty": ...}``; outside a git
    checkout (an installed package) or without a git binary the values
    are ``None`` rather than failing -- a manifest must never break a
    sweep.
    """
    if cwd is None:
        cwd = _PACKAGE_DIR
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=cwd,
            capture_output=True,
            text=True,
            timeout=5,
            check=True,
        ).stdout.strip()
        status = subprocess.run(
            ["git", "status", "--porcelain"],
            cwd=cwd,
            capture_output=True,
            text=True,
            timeout=5,
            check=True,
        ).stdout
        return {"sha": sha, "dirty": bool(status.strip())}
    except (OSError, subprocess.SubprocessError):
        return {"sha": None, "dirty": None}


def _library_versions() -> Dict[str, Optional[str]]:
    """Installed version of each interesting library, ``None`` if absent.

    Read from distribution metadata: importing numpy just to read its
    ``__version__`` would cost a sweep's parent process a third of a
    second and its BLAS threads before the pool starts.
    """
    # Imported here: ``importlib.metadata`` costs every process that
    # imports the harness ~17 ms and 2 MB, and only manifests need it.
    from importlib import metadata

    versions: Dict[str, Optional[str]] = {}
    for name in _INTERESTING_LIBRARIES:
        try:
            versions[name] = metadata.version(name)
        except metadata.PackageNotFoundError:
            versions[name] = None
    return versions


def collect_environment() -> Dict[str, Any]:
    """Interpreter, platform, ``REPRO_*`` knobs, and library versions."""
    return {
        "python": sys.version.split()[0],
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "repro_env": {
            key: value
            for key, value in sorted(os.environ.items())
            if key.startswith("REPRO_")
        },
        "libraries": _library_versions(),
    }


@dataclass
class RunManifest:
    """Accumulates sweep provenance, then writes one atomic JSON file.

    The harness creates the manifest at sweep start, records each cell's
    outcome as it lands (including retries and failures, mirroring the
    PR 2 supervision taxonomy), and finalizes with the total wall time.
    ``cells`` maps ``"benchmark/technique"`` labels to outcome dicts:
    ``{"status": "ok"|"failed"|..., "wall_seconds": ..., "cpu_seconds":
    ..., "retries": ..., "resumed": ...}``.
    """

    command: str = ""
    config: Dict[str, Any] = field(default_factory=dict)
    technique_keys: List[str] = field(default_factory=list)
    benchmarks: List[str] = field(default_factory=list)
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    git: Dict[str, Any] = field(default_factory=git_revision)
    environment: Dict[str, Any] = field(default_factory=collect_environment)
    jobs: Optional[int] = None
    checkpoint_root: Optional[str] = None
    stream_store: Optional[Dict[str, Any]] = None
    status: str = "running"
    cells: Dict[str, Dict[str, Any]] = field(default_factory=dict)

    def record_cell(
        self,
        label: str,
        status: str,
        timing: Optional[Dict[str, float]] = None,
        retries: int = 0,
        resumed: bool = False,
    ) -> None:
        """Record one cell outcome (latest write for a label wins)."""
        entry: Dict[str, Any] = {"status": status, "retries": retries}
        if resumed:
            entry["resumed"] = True
        if timing:
            entry.update(
                {
                    key: timing[key]
                    for key in (
                        "wall_seconds",
                        "cpu_seconds",
                        "store_hits",
                        "store_misses",
                        "replay_index_builds",
                        "prediction_plane_builds",
                        "timing_plan_builds",
                        "kernel",
                        "kernel_fallback",
                    )
                    if key in timing
                }
            )
        self.cells[label] = entry

    def finalize(self, status: str, finished_at: Optional[float] = None) -> None:
        self.status = status
        self.finished_at = finished_at

    # ------------------------------------------------------------------
    # serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        wall = None
        if self.started_at is not None and self.finished_at is not None:
            wall = self.finished_at - self.started_at
        return {
            "manifest_version": MANIFEST_VERSION,
            "command": self.command,
            "status": self.status,
            "config": self.config,
            "technique_keys": list(self.technique_keys),
            "benchmarks": list(self.benchmarks),
            "jobs": self.jobs,
            "checkpoint_root": self.checkpoint_root,
            "stream_store": self.stream_store,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "wall_seconds": wall,
            "git": self.git,
            "environment": self.environment,
            "cells": self.cells,
        }

    def write(self, path: str) -> str:
        """Atomically serialize to ``path`` (temp file + ``os.replace``)."""
        directory = os.path.dirname(os.path.abspath(path))
        os.makedirs(directory, exist_ok=True)
        text = json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"
        atomic_write(path, text.encode("utf-8"))
        return path

    @classmethod
    def load(cls, path: str) -> Dict[str, Any]:
        """Read a manifest back as a plain dict (schema-checked lightly)."""
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
        if not isinstance(data, dict) or "manifest_version" not in data:
            raise ValueError(f"{path} is not a run manifest")
        return data
