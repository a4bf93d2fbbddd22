"""The fault-tolerant sweep harness.

These tests inject deterministic worker faults (``REPRO_CHAOS``'s
``kill``, ``hang`` and ``raise`` modes) into real spawn-context pools
and pin the load-bearing promises of :mod:`repro.harness.faults` /
:mod:`repro.harness.checkpoint`:

* kills, hangs, and transient exceptions are retried / timed out /
  degraded to serial without losing completed cells;
* a sweep killed mid-run resumes from its checkpoint and the final
  comparison is **bit-identical** to an uninterrupted serial run;
* unrecoverable failures surface as a structured taxonomy
  (:class:`CellTimeout` / :class:`CellCrashed` / :class:`SweepAborted`)
  naming the failing cell, or as a partial result when allowed.

``TestFaultSpec`` pins the sweep-pool side of the one ``REPRO_CHAOS``
grammar; the full mode table and the fleet-side draws are pinned in
``tests/test_fleet.py`` (``TestChaosSpec``).  Everything else here is
``@pytest.mark.faults`` (``make test-faults``): those
tests spawn pools and stall workers on purpose, so each runs under the
hard per-test deadline armed in ``tests/conftest.py``.
"""

from __future__ import annotations

import json

import pytest

from repro.harness.checkpoint import CheckpointStore
from repro.harness.experiments import single_thread_comparison
from repro.harness.faults import (
    CellCrashed,
    CellTimeout,
    ChaosRule,
    ChaosSpec,
    FaultPolicy,
    SweepAborted,
    cell_label,
    drain_cleanup_hooks,
    maybe_inject_fault,
    parse_chaos_spec,
    run_cells_supervised,
)
from repro.harness.parallel import parallel_single_thread_comparison
from repro.harness.runner import ExperimentConfig, WorkloadCache
from repro.harness.techniques import Technique
from repro.telemetry.manifest import RunManifest

BENCHMARKS = ("perlbench", "mcf")
TECHNIQUE_KEYS = ("rrip",)
SMALL = ExperimentConfig(instructions=20_000)

#: Fast supervision for tests: no backoff sleeps, short watchdog.
FAST = dict(backoff=0.0, watchdog=4.0)

#: The per-cell build counters every timing record carries.
BUILD_KEYS = ("replay_index_builds", "prediction_plane_builds", "timing_plan_builds")


def serial_reference():
    return single_thread_comparison(WorkloadCache(SMALL), TECHNIQUE_KEYS, BENCHMARKS)


def assert_bit_identical(reference, comparison):
    for benchmark in BENCHMARKS:
        assert (
            reference.baseline[benchmark].llc_stats.snapshot()
            == comparison.baseline[benchmark].llc_stats.snapshot()
        )
        assert reference.baseline[benchmark].ipc == comparison.baseline[benchmark].ipc
        for key in TECHNIQUE_KEYS:
            mine = reference.results[benchmark][key]
            theirs = comparison.results[benchmark][key]
            assert mine.llc_stats.snapshot() == theirs.llc_stats.snapshot()
            assert mine.llc_hits == theirs.llc_hits
            assert mine.ipc == theirs.ipc


class TestFaultSpec:
    """The ``kill``/``hang``/``raise`` rules a sweep-pool worker reads."""

    def test_parse_modes_and_probabilities(self):
        assert parse_chaos_spec("kill:0.1,hang:0.05,raise:0.2") == {
            "kill": ChaosRule(0.1), "hang": ChaosRule(0.05), "raise": ChaosRule(0.2),
        }

    def test_bare_mode_means_always(self):
        assert parse_chaos_spec("kill") == {"kill": ChaosRule(1.0)}
        assert ChaosSpec.from_env("kill").fires("kill", "mcf/rrip", attempt=7)

    def test_empty_and_none_disable(self):
        assert parse_chaos_spec(None) == {}
        assert parse_chaos_spec("  ") == {}
        assert not ChaosSpec.from_env("")

    # ``crash`` folded into ``kill`` and is now an unknown mode; the
    # probability checks these cases pinned still hold for ``kill``.
    @pytest.mark.parametrize("bad", ["explode:0.5", "crash:nan-ish", "crash:1.5"])
    def test_bad_specs_rejected(self, bad):
        with pytest.raises(ValueError):
            parse_chaos_spec(bad)
        with pytest.raises(ValueError):
            parse_chaos_spec(bad.replace("crash", "kill"))

    def test_injection_is_deterministic_per_attempt(self):
        # With probability 1.0 the 'raise' mode must fire on every
        # attempt, and the exception names the cell and attempt.
        with pytest.raises(RuntimeError, match="mcf/rrip.*attempt 3"):
            maybe_inject_fault(("mcf", "rrip"), 3, spec=ChaosSpec.from_env("raise"))
        # Probability 0.0 never fires, and the hook ignores the
        # fleet-only modes.
        maybe_inject_fault(("mcf", "rrip"), 3, spec=ChaosSpec.from_env("raise:0"))
        maybe_inject_fault(
            ("mcf", "rrip"), 1, spec=ChaosSpec.from_env("heartbeat,slow,blob")
        )
        # At 0.5 the hook fires exactly when the shared draw on the
        # cell's label does, so a (cell, attempt) always faults alike.
        spec = ChaosSpec.from_env("raise:0.5")

        def fired(cell, attempt):
            try:
                maybe_inject_fault(cell, attempt, spec=spec)
            except RuntimeError:
                return True
            return False

        draws = [((f"bench{i}", "rrip"), attempt)
                 for i in range(20) for attempt in (1, 2, 3)]
        outcomes = [fired(cell, attempt) for cell, attempt in draws]
        assert outcomes == [
            spec.fires("raise", cell_label(cell), attempt) for cell, attempt in draws
        ]
        assert outcomes == [fired(cell, attempt) for cell, attempt in draws]
        assert 0 < sum(outcomes) < len(outcomes)

    def test_cell_label_names_baseline(self):
        assert cell_label(("mcf", None)) == "mcf/lru(baseline)"


class TestFaultPolicyEnv:
    def test_defaults(self, monkeypatch):
        for name in ("REPRO_CELL_TIMEOUT", "REPRO_CELL_RETRIES", "REPRO_RETRY_BACKOFF"):
            monkeypatch.delenv(name, raising=False)
        policy = FaultPolicy.from_env()
        assert policy.cell_timeout is None
        assert policy.max_retries == 2
        assert policy.degrade_serially and not policy.allow_partial

    def test_env_overrides(self, monkeypatch):
        monkeypatch.setenv("REPRO_CELL_TIMEOUT", "1.5")
        monkeypatch.setenv("REPRO_CELL_RETRIES", "0")
        monkeypatch.setenv("REPRO_RETRY_BACKOFF", "0.25")
        policy = FaultPolicy.from_env()
        assert policy.cell_timeout == 1.5
        assert policy.max_retries == 0
        assert policy.backoff == 0.25

    def test_zero_backoff_is_legal(self, monkeypatch):
        # "retry immediately" is a valid choice (the fault tests rely on
        # it); only the timeout has to be strictly positive.
        monkeypatch.setenv("REPRO_RETRY_BACKOFF", "0")
        assert FaultPolicy.from_env().backoff == 0.0
        monkeypatch.setenv("REPRO_RETRY_BACKOFF", "-0.1")
        with pytest.raises(ValueError, match="non-negative"):
            FaultPolicy.from_env()

    @pytest.mark.parametrize(
        "name,value",
        [
            ("REPRO_CELL_TIMEOUT", "zero"),
            ("REPRO_CELL_TIMEOUT", "-1"),
            ("REPRO_CELL_RETRIES", "-2"),
            ("REPRO_CELL_RETRIES", "two"),
        ],
    )
    def test_invalid_env_rejected(self, monkeypatch, name, value):
        monkeypatch.setenv(name, value)
        with pytest.raises(ValueError):
            FaultPolicy.from_env()

    def test_watchdog_always_finite(self):
        assert FaultPolicy().effective_watchdog() > 0
        assert FaultPolicy(cell_timeout=2.0).effective_watchdog() > 2.0
        assert FaultPolicy(watchdog=7.0).effective_watchdog() == 7.0


class TestCleanupHooks:
    """The supervised-cleanup drain: LIFO order, raise-tolerant.

    Regression for the bug where one raising hook skipped every later
    teardown -- most importantly the shared-memory stream unlink, which
    then leaked a segment per crashed sweep.
    """

    def test_hooks_drain_in_lifo_order(self):
        order = []
        errors = drain_cleanup_hooks(
            [lambda: order.append(1), lambda: order.append(2), lambda: order.append(3)]
        )
        assert order == [3, 2, 1]
        assert errors == []

    def test_raising_hook_is_reported_and_later_hooks_still_run(self):
        order = []

        def unlink_shm():
            order.append("shm")
            raise OSError("segment already gone")

        messages = []
        errors = drain_cleanup_hooks(
            # Acquisition order: pool teardown first, then the shm
            # export -- so the raiser runs *first* in LIFO and must not
            # take the pool hook down with it.
            [lambda: order.append("pool"), unlink_shm],
            on_error=messages.append,
        )
        assert order == ["shm", "pool"]
        assert len(errors) == 1 and isinstance(errors[0], OSError)
        assert "unlink_shm" in messages[0]
        assert "continuing" in messages[0]

    def test_default_report_goes_to_stderr(self, capsys):
        def broken():
            raise RuntimeError("disc full")

        errors = drain_cleanup_hooks([broken])
        assert len(errors) == 1
        captured = capsys.readouterr()
        assert "broken" in captured.err and "disc full" in captured.err

    def test_empty_and_single_callable_forms(self):
        assert drain_cleanup_hooks([]) == []
        ran = []
        assert drain_cleanup_hooks([lambda: ran.append(True)]) == []
        assert ran == [True]


@pytest.mark.faults
class TestSupervisedCleanup:
    def test_supervision_drains_every_hook_despite_a_raiser(self):
        # A real supervised run (spawn pool, one cell) whose cleanup
        # list contains a raising hook in the middle: all three hooks
        # run, LIFO, and the sweep itself still succeeds.
        from repro.harness.parallel import _run_cell_supervised, make_cell_pool_factory

        order = []

        def early():
            order.append("early")

        def raiser():
            order.append("raiser")
            raise OSError("unlink failed")

        def late():
            order.append("late")

        results = {}
        failures = run_cells_supervised(
            make_cell_pool_factory(SMALL, 1),
            _run_cell_supervised,
            [("perlbench", None)],
            FaultPolicy(max_retries=0, **FAST),
            on_success=lambda cell, result, timing: results.__setitem__(cell, result),
            cleanup=[early, raiser, late],
        )
        assert failures == []
        assert ("perlbench", None) in results
        assert order == ["late", "raiser", "early"]


@pytest.mark.faults
class TestCrashRecovery:
    def test_transient_faults_are_retried_bit_identically(self, monkeypatch):
        # Half the (cell, attempt) draws raise; retries redraw and the
        # sweep completes with results identical to the serial run.
        monkeypatch.setenv("REPRO_CHAOS", "raise:0.5")
        comparison = parallel_single_thread_comparison(
            SMALL, TECHNIQUE_KEYS, BENCHMARKS, jobs=2,
            fault_policy=FaultPolicy(max_retries=5, **FAST),
        )
        assert not comparison.is_partial
        assert_bit_identical(serial_reference(), comparison)

    def test_first_attempt_kill_is_retried_bit_identically(
        self, monkeypatch, tmp_path
    ):
        # ``kill:1@1`` kills every cell's first attempt, counted from 1
        # as in a fleet; the one retry round (attempt 2) survives, so the
        # sweep completes in the pool, with no serial degradation, and
        # equals the serial run.
        monkeypatch.setenv("REPRO_CHAOS", "kill:1@1")
        events_path = tmp_path / "events.ndjson"
        comparison = parallel_single_thread_comparison(
            SMALL, TECHNIQUE_KEYS, BENCHMARKS, jobs=2,
            fault_policy=FaultPolicy(
                max_retries=1, watchdog=4.0, backoff=0.0,
                degrade_serially=False,
            ),
            events_file=str(events_path),
        )
        assert not comparison.is_partial
        assert_bit_identical(serial_reference(), comparison)
        events = [json.loads(line) for line in events_path.read_text().splitlines()]
        retried = [e for e in events if e["event"] == "cell_retried"]
        assert retried and all(e["attempt"] == 2 for e in retried)
        assert not any(e["event"] == "sweep_degraded" for e in events)

    def test_hard_crashes_degrade_to_serial(self, monkeypatch, tmp_path):
        # Every parallel attempt dies via os._exit; graceful degradation
        # re-runs the cells in-process (where injection never applies)
        # and the sweep still completes bit-identically.
        monkeypatch.setenv("REPRO_CHAOS", "kill:1.0")
        manifest_path = tmp_path / "manifest.json"
        comparison = parallel_single_thread_comparison(
            SMALL, TECHNIQUE_KEYS, BENCHMARKS, jobs=2,
            fault_policy=FaultPolicy(max_retries=0, watchdog=2.0, backoff=0.0),
            manifest_path=manifest_path,
        )
        assert not comparison.is_partial
        assert comparison.failure_report() == ""
        assert_bit_identical(serial_reference(), comparison)
        # Degraded cells carry the same timing record as any other cell.
        cells = RunManifest.load(str(manifest_path))["cells"]
        assert len(cells) == len(BENCHMARKS) * (len(TECHNIQUE_KEYS) + 1)
        for entry in cells.values():
            assert entry["status"] == "ok"
            assert entry["kernel"] in ("array", "object")
            assert "store_hits" in entry and "store_misses" in entry
            for key in BUILD_KEYS:
                assert entry[key] in (0, 1)
        # In one process each workload's index and timing plan are built
        # once and reused by its later cells.
        for key in ("replay_index_builds", "timing_plan_builds"):
            assert sum(entry[key] for entry in cells.values()) == len(BENCHMARKS)

    def test_unrecoverable_crash_aborts_with_taxonomy(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHAOS", "kill:1.0")
        with pytest.raises(SweepAborted) as excinfo:
            parallel_single_thread_comparison(
                SMALL, TECHNIQUE_KEYS, BENCHMARKS, jobs=2,
                fault_policy=FaultPolicy(
                    max_retries=0, watchdog=2.0, backoff=0.0,
                    degrade_serially=False,
                ),
            )
        failures = excinfo.value.failures
        assert failures and all(isinstance(f, CellCrashed) for f in failures)
        # The taxonomy names the failing cells.
        assert {f.benchmark for f in failures} <= set(BENCHMARKS)

    def test_allow_partial_returns_completed_cells(self, monkeypatch):
        # Every worker attempt crashes, degradation is off, but partial
        # results are allowed: the sweep returns with every cell named
        # in the failure report instead of raising.
        monkeypatch.setenv("REPRO_CHAOS", "kill:1.0")
        comparison = parallel_single_thread_comparison(
            SMALL, TECHNIQUE_KEYS, BENCHMARKS, jobs=2,
            fault_policy=FaultPolicy(
                max_retries=0, watchdog=2.0, backoff=0.0,
                degrade_serially=False,
            ),
            allow_partial=True,
        )
        assert comparison.is_partial
        assert len(comparison.failures) == len(BENCHMARKS) * (len(TECHNIQUE_KEYS) + 1)
        report = comparison.failure_report()
        assert "partial sweep" in report and "mcf" in report


@pytest.fixture
def failing_build(monkeypatch):
    """Make building the ``rrip`` policy raise; returns the exception."""
    injected = RuntimeError("injected build failure")
    build = Technique.build

    def failing(technique, *args, **kwargs):
        if technique.key == "rrip":
            raise injected
        return build(technique, *args, **kwargs)

    monkeypatch.setattr(Technique, "build", failing)
    return injected


@pytest.mark.faults
class TestInProcessFailures:
    """At ``jobs=1`` a raising cell is a supervised failure, as pooled."""

    def test_allow_partial_at_one_job_returns_partial(self, failing_build):
        comparison = parallel_single_thread_comparison(
            SMALL, TECHNIQUE_KEYS, ("perlbench",), jobs=1, allow_partial=True,
        )
        assert comparison.is_partial
        assert [f.cell for f in comparison.failures] == [("perlbench", "rrip")]
        assert isinstance(comparison.failures[0], CellCrashed)
        # The surviving baseline cell still completed, bit-identically.
        reference = single_thread_comparison(WorkloadCache(SMALL), (), ("perlbench",))
        assert (
            comparison.baseline["perlbench"].llc_stats.snapshot()
            == reference.baseline["perlbench"].llc_stats.snapshot()
        )

    def test_abort_at_one_job_chains_the_exception(self, failing_build):
        with pytest.raises(SweepAborted) as excinfo:
            parallel_single_thread_comparison(
                SMALL, TECHNIQUE_KEYS, ("perlbench",), jobs=1,
                allow_partial=False,
            )
        assert [f.cell for f in excinfo.value.failures] == [("perlbench", "rrip")]
        assert excinfo.value.__cause__ is failing_build


@pytest.mark.faults
class TestTimeouts:
    def test_hung_workers_time_out_and_degrade(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHAOS", "hang:1.0")
        comparison = parallel_single_thread_comparison(
            SMALL, TECHNIQUE_KEYS, ("perlbench",), jobs=2,
            fault_policy=FaultPolicy(
                cell_timeout=0.5, max_retries=0, watchdog=4.0, backoff=0.0,
            ),
        )
        assert not comparison.is_partial
        reference = single_thread_comparison(
            WorkloadCache(SMALL), TECHNIQUE_KEYS, ("perlbench",)
        )
        assert (
            reference.results["perlbench"]["rrip"].llc_hits
            == comparison.results["perlbench"]["rrip"].llc_hits
        )

    def test_timeout_failures_carry_cell_identity(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHAOS", "hang:1.0")
        with pytest.raises(SweepAborted) as excinfo:
            parallel_single_thread_comparison(
                SMALL, TECHNIQUE_KEYS, ("perlbench",), jobs=2,
                fault_policy=FaultPolicy(
                    cell_timeout=0.5, max_retries=0, watchdog=4.0,
                    backoff=0.0, degrade_serially=False,
                ),
            )
        kinds = {type(f) for f in excinfo.value.failures}
        assert kinds <= {CellTimeout, CellCrashed}
        assert CellTimeout in kinds
        timeout = next(f for f in excinfo.value.failures if isinstance(f, CellTimeout))
        assert timeout.benchmark == "perlbench"


@pytest.mark.faults
class TestCheckpointResume:
    def test_killed_sweep_resumes_bit_identically(self, monkeypatch, tmp_path):
        """The acceptance scenario: a sweep dies mid-run, completed cells
        are on disk, and the resumed sweep equals an uninterrupted serial
        run bit-for-bit."""
        store = CheckpointStore(tmp_path / "ckpt")

        # Phase 1: half the (cell, attempt) draws raise and there are no
        # retries, so the sweep dies mid-run with some cells completed
        # and checkpointed, others not -- the "killed mid-run" half of
        # the acceptance scenario.  ``ChaosSpec.fires`` draws a sha256 of
        # (mode, cell label, attempt 1), so the phase-1 outcome is
        # pinned, not flaky.
        monkeypatch.setenv("REPRO_CHAOS", "raise:0.5")
        with pytest.raises(SweepAborted) as excinfo:
            parallel_single_thread_comparison(
                SMALL, TECHNIQUE_KEYS, BENCHMARKS, jobs=2,
                checkpoint=store,
                fault_policy=FaultPolicy(
                    max_retries=0, watchdog=4.0, backoff=0.0,
                    degrade_serially=False,
                ),
            )
        assert excinfo.value.failures  # the sweep really died mid-run
        completed_before = len(store)
        total_cells = len(BENCHMARKS) * (len(TECHNIQUE_KEYS) + 1)
        # The interruption left the store genuinely partial.
        assert 0 < completed_before < total_cells

        # Phase 2: faults off, resume from the checkpoint.
        monkeypatch.delenv("REPRO_CHAOS", raising=False)
        resumed = parallel_single_thread_comparison(
            SMALL, TECHNIQUE_KEYS, BENCHMARKS, jobs=2,
            checkpoint=store, resume=True,
            fault_policy=FaultPolicy(max_retries=0, **FAST),
        )
        assert not resumed.is_partial
        assert len(store) == total_cells
        assert len(store) >= completed_before
        assert_bit_identical(serial_reference(), resumed)

        # Phase 3: a second resume comes entirely off disk (serial path,
        # zero cells to run) and is still identical.
        rerun = parallel_single_thread_comparison(
            SMALL, TECHNIQUE_KEYS, BENCHMARKS, jobs=1,
            checkpoint=store, resume=True,
        )
        assert_bit_identical(serial_reference(), rerun)

    def test_partial_success_checkpoints_survivors(self, monkeypatch, tmp_path):
        # Transient faults + retries: every completed cell lands in the
        # store even though some attempts failed along the way.
        store = CheckpointStore(tmp_path / "ckpt")
        monkeypatch.setenv("REPRO_CHAOS", "raise:0.5")
        comparison = parallel_single_thread_comparison(
            SMALL, TECHNIQUE_KEYS, BENCHMARKS, jobs=2,
            checkpoint=store,
            fault_policy=FaultPolicy(max_retries=5, **FAST),
        )
        assert not comparison.is_partial
        assert len(store) == len(BENCHMARKS) * (len(TECHNIQUE_KEYS) + 1)

    def test_resume_without_store_is_an_error(self):
        with pytest.raises(ValueError, match="checkpoint"):
            parallel_single_thread_comparison(
                SMALL, TECHNIQUE_KEYS, BENCHMARKS, jobs=1, resume=True,
            )

    def test_checkpoint_dir_env_wiring(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CHECKPOINT_DIR", str(tmp_path / "env-ckpt"))
        comparison = parallel_single_thread_comparison(
            SMALL, TECHNIQUE_KEYS, ("perlbench",), jobs=1,
        )
        assert not comparison.is_partial
        store = CheckpointStore(tmp_path / "env-ckpt")
        assert len(store) == len(TECHNIQUE_KEYS) + 1
        # And a resume through the same env wiring comes off disk.
        resumed = parallel_single_thread_comparison(
            SMALL, TECHNIQUE_KEYS, ("perlbench",), jobs=1, resume=True,
        )
        assert (
            comparison.baseline["perlbench"].llc_stats.snapshot()
            == resumed.baseline["perlbench"].llc_stats.snapshot()
        )
