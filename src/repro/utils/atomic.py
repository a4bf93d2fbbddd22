"""Atomic file publication: a temporary file, then ``os.replace``.

Every on-disk store of the reproduction -- run manifests, checkpoints,
the trace library, the compiled-workload store, job records and the
fleet lease journal -- publishes its files through :func:`atomic_write`,
so a reader sees the old bytes or the new ones, never a torn file.
"""

from __future__ import annotations

import os
import threading
from pathlib import Path
from typing import Union

__all__ = ["atomic_write"]


def atomic_write(path: Union[str, os.PathLike], data: bytes) -> Path:
    """Replace ``path`` with ``data`` atomically; returns the path.

    The temporary file is ``<name>.tmp.<pid>.<thread id>`` next to
    ``path``.  It is unique per writer, so concurrent writers of one
    path never share a temporary file (the last rename wins, with
    complete bytes), and no store's listing glob on its own extension
    (``*.pkl``, ``*.rsc``, ``job-*.json``) can see it.  A failure
    mid-write -- ENOSPC, a signal that unwinds, a failed rename --
    unlinks the temporary file before re-raising.
    """
    path = Path(path)
    tmp = path.with_name(f"{path.name}.tmp.{os.getpid()}.{threading.get_ident()}")
    try:
        tmp.write_bytes(data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return path
