"""Fault tolerance for experiment sweeps.

A long sweep is a grid of independent (workload, technique) cells, and
the failure of any one cell -- a crashed worker, an OOM kill, a policy
bug that wedges a replay -- must not destroy the hours of completed work
around it.  This module supplies the pieces
:mod:`repro.harness.parallel` composes into a fault-tolerant runner:

* a structured error taxonomy (:class:`CellTimeout`, :class:`CellCrashed`,
  :class:`SweepAborted`) whose members carry the failing cell's identity,
  so a failure report can say *which* cell died and why;
* :class:`FaultPolicy` -- the timeout / retry / degradation knobs, each
  overridable from the environment (``REPRO_CELL_TIMEOUT``,
  ``REPRO_CELL_RETRIES``, ``REPRO_RETRY_BACKOFF``);
* :func:`run_cells_supervised` -- the supervision loop: rounds of
  ``imap_unordered`` over the not-yet-completed cells with a parent-side
  watchdog (catches workers that die without reporting), bounded retry
  with exponential backoff between rounds, then graceful degradation to
  serial in-process execution of whatever still fails, and only then a
  partial result or :class:`SweepAborted`.  Without a pool it runs every
  cell in-process under the same taxonomy, so ``allow_partial`` means
  the same thing at every job count;
* one deterministic fault-injection harness (``REPRO_CHAOS``,
  :class:`ChaosSpec`) that kills, stalls, or faults sweep-pool workers
  and fleet workers on demand.

Per-cell timeouts are enforced *inside* the worker with ``SIGALRM``
(each worker is a separate process, so its main thread can take the
alarm); a worker that dies outright never reports, which the parent's
watchdog converts into :class:`CellCrashed` for every cell that was
still outstanding.  Retried and resumed sweeps stay bit-identical to an
uninterrupted serial run because cells are pure functions of
``(config, seed, benchmark, technique)`` -- supervision decides only
*whether* a cell's result was obtained, never *what* it is.

Fault injection syntax: ``REPRO_CHAOS=kill:1@1,raise:0.5,heartbeat:0.5``.
Each entry is ``mode[:probability][@max_attempt]``; the probability
defaults to 1.0, and ``@N`` limits a mode to attempts ``1..N`` of a
cell.  Whether a mode fires for a given (identity, attempt) pair is a
pure sha256 draw, so injected failure patterns are reproducible and
retries deterministically redraw.  Attempts count from 1 under both
executors, so one rule means the same (cell, attempt) in a sweep pool
and in a fleet.  Each executor reads its own modes:

* the sweep pool hook (:func:`maybe_inject_fault`) reads ``kill`` (the
  worker calls ``os._exit(KILL_EXIT_CODE)`` before the cell), ``hang``
  (the worker sleeps until its deadline) and ``raise`` (the worker
  raises a transient exception);
* the fleet (docs/service.md) reads ``kill`` (same exit, before a
  leased cell), ``heartbeat`` (the worker silently skips heartbeat
  sends), ``slow`` (the worker stalls past its lease TTL before a cell,
  forcing expiry and split-brain re-dispatch while still computing) and
  ``blob`` (the *server* truncates a stream-blob transfer so the client
  exercises torn-transfer detection).

``kill:1@1`` kills a cell's first attempt, so the retry or re-dispatch
deterministically survives.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import os
import signal
import sys
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.utils.env import env_number, env_text

__all__ = [
    "CellCrashed",
    "CellError",
    "CellTimeout",
    "ChaosRule",
    "ChaosSpec",
    "FaultPolicy",
    "KILL_EXIT_CODE",
    "SweepAborted",
    "cell_label",
    "drain_cleanup_hooks",
    "maybe_inject_fault",
    "parse_chaos_spec",
    "run_cells_supervised",
]

#: A cell identity: (workload or Table-IV mix, scheme).  The scheme is
#: None for the LRU baseline, a technique key for a plain run, or a
#: :class:`~repro.harness.techniques.Scheme` for another measure or a
#: reshaped predictor; labels, fault draws and checkpoint keys use its
#: ``str``, so plain cells keep the identity they always had.
Cell = Tuple[str, object]


def cell_label(cell: Cell) -> str:
    """Human-readable ``benchmark/technique`` label for a cell."""
    benchmark, technique_key = cell
    return f"{benchmark}/{technique_key if technique_key is not None else 'lru(baseline)'}"


# ----------------------------------------------------------------------
# error taxonomy
# ----------------------------------------------------------------------
class CellError(Exception):
    """A single (benchmark, technique) cell failed.

    Attributes:
        benchmark / technique_key: the failing cell's identity
            (``technique_key=None`` is the LRU baseline cell).
        attempts: how many executions were tried before giving up.
        detail: free-form diagnostic (exception text, timeout value...).
    """

    def __init__(
        self,
        benchmark: str,
        technique_key: Optional[str],
        attempts: int = 1,
        detail: str = "",
    ) -> None:
        self.benchmark = benchmark
        self.technique_key = technique_key
        self.attempts = attempts
        self.detail = detail
        super().__init__(str(self))

    @property
    def cell(self) -> Cell:
        return (self.benchmark, self.technique_key)

    def __str__(self) -> str:
        text = f"{cell_label(self.cell)}: {type(self).__name__}"
        if self.detail:
            text += f" ({self.detail})"
        if self.attempts > 1:
            text += f" after {self.attempts} attempts"
        return text


class CellTimeout(CellError):
    """The cell exceeded its wall-clock budget (``REPRO_CELL_TIMEOUT``)."""


class CellCrashed(CellError):
    """The cell's worker raised, died, or never reported a result."""


class SweepAborted(Exception):
    """The sweep could not complete and partial results were not allowed.

    Carries the unrecovered :class:`CellError` list and the count of
    cells that *did* complete (and were checkpointed, when a checkpoint
    store is attached) so callers know a resume is worthwhile.
    """

    def __init__(self, failures: Sequence[CellError], completed: int = 0) -> None:
        self.failures = tuple(failures)
        self.completed = completed
        lines = "; ".join(str(f) for f in self.failures)
        super().__init__(
            f"sweep aborted with {len(self.failures)} failed cell(s) "
            f"({completed} completed): {lines}"
        )


@dataclass(frozen=True)
class FaultPolicy:
    """Supervision knobs for one sweep.

    Attributes:
        cell_timeout: per-cell wall-clock budget in seconds, enforced in
            the worker via ``SIGALRM``; ``None`` disables the alarm.
        max_retries: parallel re-execution rounds after the first
            (``0`` = a cell gets exactly one parallel attempt).
        backoff: base of the exponential backoff slept between retry
            rounds (``backoff * 2**(round-1)`` seconds); ``0`` disables.
        degrade_serially: after the retry rounds, re-run still-failed
            cells serially in the parent process (no pool, no injection)
            before giving up.
        allow_partial: if cells remain failed after degradation, return
            a partial result carrying the failure report instead of
            raising :class:`SweepAborted`.
        watchdog: parent-side no-progress window in seconds.  When no
            result arrives for this long the round's outstanding cells
            are declared lost (:class:`CellCrashed`).  ``None`` derives
            a generous default from ``cell_timeout``.
    """

    cell_timeout: Optional[float] = None
    max_retries: int = 2
    backoff: float = 0.1
    degrade_serially: bool = True
    allow_partial: bool = False
    watchdog: Optional[float] = None

    @classmethod
    def from_env(cls) -> "FaultPolicy":
        """Build from ``REPRO_CELL_TIMEOUT`` / ``REPRO_CELL_RETRIES`` /
        ``REPRO_RETRY_BACKOFF`` (defaults where unset)."""
        return cls(
            cell_timeout=env_number("REPRO_CELL_TIMEOUT", cls.cell_timeout, float),
            max_retries=env_number(
                "REPRO_CELL_RETRIES", cls.max_retries, allow_zero=True
            ),
            backoff=env_number(
                "REPRO_RETRY_BACKOFF", cls.backoff, float, allow_zero=True
            ),
        )

    def effective_watchdog(self) -> float:
        """The parent's no-progress window (always finite: a sweep must
        never wedge just because a worker died silently)."""
        if self.watchdog is not None:
            return self.watchdog
        if self.cell_timeout is not None:
            return self.cell_timeout * 2 + 30.0
        return 900.0


# ----------------------------------------------------------------------
# deterministic fault injection (REPRO_CHAOS)
# ----------------------------------------------------------------------
_CHAOS_MODES = ("kill", "hang", "raise", "slow", "heartbeat", "blob")

#: Exit status of a worker the ``kill`` mode ends: ``os._exit`` before
#: the cell, with no exception and no cleanup, as an OOM kill would.
KILL_EXIT_CODE = 67


@dataclass(frozen=True)
class ChaosRule:
    """One chaos mode's firing rule.

    ``probability`` is the per-draw chance; ``max_attempt`` (when set)
    limits firing to attempts ``<= max_attempt``, which is how
    ``kill:1@1`` kills a worker on a cell's first attempt while the
    retried or re-dispatched attempt deterministically survives.
    """

    probability: float
    max_attempt: Optional[int] = None


def parse_chaos_spec(text: Optional[str]) -> Dict[str, ChaosRule]:
    """Parse ``"kill:1@1,heartbeat:0.5,blob"`` into ``{mode: rule}``.

    Syntax per entry: ``mode[:probability][@max_attempt]``; probability
    defaults to 1.0.  Raises ValueError on unknown modes, probabilities
    outside [0, 1], or non-positive attempt caps.
    """
    spec: Dict[str, ChaosRule] = {}
    if not text or not text.strip():
        return spec
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        body, _, cap_text = part.partition("@")
        mode, _, prob_text = body.partition(":")
        mode = mode.strip()
        if mode not in _CHAOS_MODES:
            raise ValueError(
                f"unknown REPRO_CHAOS mode {mode!r} "
                f"(valid: {', '.join(_CHAOS_MODES)})"
            )
        try:
            probability = float(prob_text) if prob_text.strip() else 1.0
        except ValueError:
            raise ValueError(
                f"bad REPRO_CHAOS probability {prob_text!r} for mode {mode!r}"
            ) from None
        if not 0.0 <= probability <= 1.0:
            raise ValueError(
                f"REPRO_CHAOS probability must be in [0, 1], got {probability}"
            )
        max_attempt: Optional[int] = None
        if cap_text.strip():
            try:
                max_attempt = int(cap_text)
            except ValueError:
                raise ValueError(
                    f"bad REPRO_CHAOS attempt cap {cap_text!r} for mode {mode!r}"
                ) from None
            if max_attempt < 1:
                raise ValueError(
                    f"REPRO_CHAOS attempt cap must be >= 1, got {max_attempt}"
                )
        spec[mode] = ChaosRule(probability, max_attempt)
    return spec


@dataclass(frozen=True)
class ChaosSpec:
    """The parsed ``REPRO_CHAOS`` harness for one process.

    Firing is a pure sha256 function of ``(mode, identity, attempt)``,
    so a chaos run is exactly reproducible: the same cell on the same
    attempt always makes the same draw, in a sweep pool or a fleet
    worker alike, while a retry or re-dispatch (higher attempt)
    redraws.
    """

    rules: Tuple[Tuple[str, ChaosRule], ...] = ()

    @classmethod
    def from_env(cls, explicit: Optional[str] = None) -> "ChaosSpec":
        text = explicit if explicit is not None else env_text("REPRO_CHAOS")
        return cls(rules=tuple(sorted(parse_chaos_spec(text).items())))

    def __bool__(self) -> bool:
        return bool(self.rules)

    def rule(self, mode: str) -> Optional[ChaosRule]:
        for name, rule in self.rules:
            if name == mode:
                return rule
        return None

    def fires(self, mode: str, identity: str, attempt: int = 1) -> bool:
        """Whether ``mode`` fires for this (identity, attempt) draw."""
        rule = self.rule(mode)
        if rule is None:
            return False
        if rule.max_attempt is not None and attempt > rule.max_attempt:
            return False
        text = f"chaos|{mode}|{identity}|{attempt}"
        digest = hashlib.sha256(text.encode("utf-8")).digest()
        draw = int.from_bytes(digest[:8], "big") / 2.0 ** 64
        return draw < rule.probability


def maybe_inject_fault(
    cell: Cell, attempt: int, spec: Optional[ChaosSpec] = None
) -> None:
    """Sweep-pool hook: fault this worker by ``REPRO_CHAOS``'s ``kill``,
    ``hang`` and ``raise`` rules.

    Called only from the *parallel worker* wrapper, never from serial or
    degraded in-process execution, so ``kill`` cannot take down the
    parent.  ``attempt`` counts from 1.  Each mode draws through
    :meth:`ChaosSpec.fires` on the cell's label, the identity fleet
    workers draw on too.
    """
    if spec is None:
        spec = ChaosSpec.from_env()
    if not spec:
        return
    label = cell_label(cell)
    if spec.fires("kill", label, attempt):
        os._exit(KILL_EXIT_CODE)  # simulate an OOM kill: no exception, no cleanup
    if spec.fires("hang", label, attempt):
        time.sleep(3600.0)  # wedge until the cell deadline / watchdog fires
    if spec.fires("raise", label, attempt):
        raise RuntimeError(f"injected transient fault ({label}, attempt {attempt})")


# ----------------------------------------------------------------------
# in-worker deadline
# ----------------------------------------------------------------------
class DeadlineExceeded(Exception):
    """Raised inside a worker when its cell overruns ``cell_timeout``."""


class cell_deadline:
    """Context manager arming a ``SIGALRM`` wall-clock deadline.

    A no-op when ``seconds`` is None or the platform lacks ``SIGALRM``
    (the parent watchdog still bounds the sweep in that case).
    """

    def __init__(self, seconds: Optional[float]) -> None:
        self.seconds = seconds
        self._armed = False
        self._previous = None

    def __enter__(self) -> "cell_deadline":
        if self.seconds is not None and hasattr(signal, "SIGALRM"):
            def _on_alarm(signum, frame):
                raise DeadlineExceeded(f"cell exceeded {self.seconds}s")

            self._previous = signal.signal(signal.SIGALRM, _on_alarm)
            signal.setitimer(signal.ITIMER_REAL, self.seconds)
            self._armed = True
        return self

    def __exit__(self, *exc_info) -> None:
        if self._armed:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, self._previous)


# ----------------------------------------------------------------------
# supervised cleanup hooks
# ----------------------------------------------------------------------
def drain_cleanup_hooks(
    hooks: Sequence[Callable[[], None]],
    on_error: Optional[Callable[[str], None]] = None,
) -> List[Exception]:
    """Run cleanup hooks in LIFO order, tolerating hooks that raise.

    Resource owners register hooks in acquisition order, so teardown
    must run in reverse (a shared-memory export created after a pool
    must be unlinked before the pool's teardown can assume it is gone).
    A raising hook is recorded and *reported* -- via ``on_error`` when
    given, else one line on stderr -- and the remaining hooks still run:
    one broken hook must never leak every resource registered before it.

    Returns the exceptions raised, in execution (LIFO) order; empty when
    every hook succeeded.
    """
    errors: List[Exception] = []
    for hook in reversed(list(hooks)):
        try:
            hook()
        except Exception as exc:
            errors.append(exc)
            name = getattr(hook, "__name__", repr(hook))
            message = (
                f"cleanup hook {name} raised "
                f"{type(exc).__name__}: {exc}; continuing with remaining hooks"
            )
            if on_error is not None:
                on_error(message)
            else:
                print(f"[cleanup] {message}", file=sys.stderr)
    return errors


# ----------------------------------------------------------------------
# the supervision loop
# ----------------------------------------------------------------------
#: Wire format a supervised worker returns:
#: (benchmark, technique_key, status, payload, timing) with status "ok"
#: carrying the cell result, "timeout"/"error" carrying a diagnostic
#: string.  ``timing`` is the cell's timing record (wall and CPU
#: seconds, store hits and misses, replay kernel and fallback) measured
#: inside the worker, None when the cell never ran to a measurable end;
#: it feeds the success callback, the sweep's events and run manifest.
WireResult = Tuple[str, Optional[str], str, object, Optional[Dict[str, object]]]

#: An in-process cell executor: returns the cell's result and timing
#: record, or raises.
InProcess = Callable[[Cell], Tuple[object, Dict[str, object]]]


def run_cells_supervised(
    make_pool: Optional[Callable[[], multiprocessing.pool.Pool]],
    worker: Callable[..., WireResult],
    cells: Sequence[Cell],
    policy: FaultPolicy,
    on_success: Callable[[Cell, object, Optional[Dict[str, object]]], None],
    in_process: Optional[InProcess] = None,
    on_event: Optional[Callable[..., None]] = None,
    cleanup: Union[Callable[[], None], Sequence[Callable[[], None]], None] = None,
) -> List[CellError]:
    """Drive ``cells`` through supervised parallel rounds.

    Args:
        make_pool: builds a fresh worker pool for each round (a round
            whose pool was poisoned by dead workers is terminated, never
            reused).  ``None`` skips the parallel rounds: every cell
            runs through ``in_process`` instead.
        worker: picklable task function taking
            ``(benchmark, technique_key, attempt, cell_timeout)``, with
            ``attempt`` counted from 1, and returning a
            :data:`WireResult`.  It must convert its own
            exceptions and deadline overruns into non-"ok" statuses;
            only a hard worker death leaves a cell unreported.
        cells: the work list, in deterministic order.
        policy: timeout / retry / degradation knobs.
        on_success: called as ``(cell, result, timing)`` once per
            completed cell, in completion order (checkpoint persistence
            hooks in here).
        in_process: :data:`InProcess` executor for the cells that run in
            this process -- all of them without a pool, else graceful
            degradation of those still failing after the retry rounds
            (``None`` disables degradation regardless of the policy).
            A cell it raises on becomes a :class:`CellCrashed` whose
            ``__cause__`` is the exception.
        on_event: optional progress callback ``(kind, cell_label,
            **payload)`` -- see
            :meth:`repro.telemetry.events.SweepTelemetry.on_event` for
            the kinds.  Purely observational: a raising callback is a
            caller bug, not a supervised fault.
        cleanup: a hook -- or a sequence of hooks, registered in
            acquisition order -- run exactly once when supervision ends,
            however it ends: success, partial failure,
            :class:`SweepAborted`, or an unexpected exception.  Resource
            owners (the shared-memory workload export, most importantly)
            hook their teardown here so a crashed or timed-out sweep can
            never leak segments.  Hooks drain in LIFO order via
            :func:`drain_cleanup_hooks`; a hook that raises is reported
            and the remaining hooks still run, so one broken hook cannot
            skip a later shm unlink.

    Returns the list of unrecovered failures, in work-list order; empty
    on full success.  Raises :class:`SweepAborted` when failures remain
    and ``policy.allow_partial`` is false, chained to the first failure's
    in-process exception (if it has one).
    """
    try:
        return _run_cells_supervised(
            make_pool, worker, cells, policy, on_success, in_process, on_event,
        )
    finally:
        if cleanup is not None:
            hooks = [cleanup] if callable(cleanup) else list(cleanup)
            drain_cleanup_hooks(hooks)


def _run_cells_supervised(
    make_pool: Optional[Callable[[], multiprocessing.pool.Pool]],
    worker: Callable[..., WireResult],
    cells: Sequence[Cell],
    policy: FaultPolicy,
    on_success: Callable[[Cell, object, Optional[Dict[str, object]]], None],
    in_process: Optional[InProcess],
    on_event: Optional[Callable[..., None]],
) -> List[CellError]:
    pending: List[Cell] = list(cells)
    failures: Dict[Cell, CellError] = {}
    watchdog = policy.effective_watchdog()

    def emit(kind: str, cell: Optional[Cell], **payload) -> None:
        if on_event is not None:
            on_event(kind, cell_label(cell) if cell is not None else "", **payload)

    def succeed(cell: Cell, payload: object, timing) -> None:
        pending.remove(cell)
        failures.pop(cell, None)
        on_success(cell, payload, timing)
        emit("finished", cell, status="ok", timing=timing)

    rounds = policy.max_retries + 1 if make_pool is not None else 0
    for attempt in range(1, rounds + 1):
        if not pending:
            break
        if attempt > 1:
            for cell in pending:
                prior = failures.get(cell)
                emit(
                    "retried", cell,
                    reason=prior.detail if prior is not None else "",
                    attempt=attempt,
                )
            if policy.backoff > 0:
                time.sleep(policy.backoff * 2.0 ** (attempt - 2))
        tasks = [
            (benchmark, key, attempt, policy.cell_timeout)
            for benchmark, key in pending
        ]
        pool = make_pool()
        try:
            results = pool.imap_unordered(worker, tasks)
            received = 0
            while received < len(tasks):
                try:
                    benchmark, key, status, payload, timing = results.next(
                        timeout=watchdog
                    )
                except StopIteration:  # pragma: no cover - defensive
                    break
                except multiprocessing.TimeoutError:
                    # No result for a full watchdog window: the round is
                    # wedged (lost workers).  Abandon it; outstanding
                    # cells are recorded as crashed below.
                    break
                received += 1
                cell = (benchmark, key)
                if status == "ok":
                    succeed(cell, payload, timing)
                elif status == "timeout":
                    failures[cell] = CellTimeout(
                        benchmark, key, attempts=attempt, detail=str(payload)
                    )
                    emit(
                        "timed_out", cell,
                        timeout_seconds=policy.cell_timeout,
                    )
                else:
                    failures[cell] = CellCrashed(
                        benchmark, key, attempts=attempt, detail=str(payload)
                    )
        finally:
            # terminate(), not close(): a wedged round must not block the
            # parent on workers that will never finish.
            pool.terminate()
            pool.join()
        # Cells that never reported (worker died) get a crash record;
        # a cell that reported a failure this round keeps that record.
        for cell in pending:
            existing = failures.get(cell)
            if existing is None or existing.attempts < attempt:
                failures[cell] = CellCrashed(
                    cell[0], cell[1], attempts=attempt,
                    detail="worker died without reporting",
                )

    # In-process execution, with no pool and no fault injection in the
    # way: every cell when there is no pool, else graceful degradation
    # of whatever still fails.
    serial: List[Cell] = []
    attempts, prefix = 1, ""
    if make_pool is None:
        serial = list(pending)
    elif pending and policy.degrade_serially and in_process is not None:
        emit(
            "degraded", None,
            reason=f"{len(pending)} cell(s) failed in parallel; "
            "re-running serially in the parent",
        )
        serial = list(pending)
        attempts, prefix = rounds + 1, "serial fallback failed: "
    for cell in serial:
        emit("started", cell)
        try:
            payload, timing = in_process(cell)
        except Exception as exc:
            failures[cell] = CellCrashed(
                cell[0], cell[1], attempts=attempts,
                detail=f"{prefix}{type(exc).__name__}: {exc}",
            )
            failures[cell].__cause__ = exc
        else:
            succeed(cell, payload, timing)

    unrecovered = [failures[cell] for cell in cells if cell in failures]
    for failure in unrecovered:
        emit("finished", failure.cell, status="failed", timing=None)
    if unrecovered and not policy.allow_partial:
        raise SweepAborted(
            unrecovered, completed=len(cells) - len(pending)
        ) from unrecovered[0].__cause__
    return unrecovered
