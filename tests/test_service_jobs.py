"""Job model and persistent job store (:mod:`repro.service.jobs`).

Pure state-machine and persistence tests: no server, no pools.  Pins the
contracts the scheduler and HTTP layer build on -- legal/illegal
transitions, content-addressed cell keys shared with the checkpoint
store, atomic job records, and restart resume semantics.
"""

from __future__ import annotations

import json

import pytest

from repro.harness.checkpoint import CheckpointStore
from repro.harness.runner import ExperimentConfig
from repro.service.jobs import (
    Job,
    JobStateError,
    JobStore,
    STATES,
    TERMINAL_STATES,
    cell_key,
    config_from_dict,
)

CONFIG = ExperimentConfig(instructions=20_000)


def make_job(**overrides) -> Job:
    kwargs = dict(
        kind="sweep",
        client="alice",
        priority=0,
        config=CONFIG,
        benchmarks=("perlbench",),
        techniques=("rrip",),
        cells=(("perlbench", None), ("perlbench", "rrip")),
        seq=1,
    )
    kwargs.update(overrides)
    return Job.new(**kwargs)


class TestStateMachine:
    def test_happy_path(self):
        job = make_job()
        assert job.state == "queued" and not job.is_terminal
        job.transition("running")
        assert job.started_at is not None and job.finished_at is None
        job.transition("done")
        assert job.is_terminal and job.finished_at is not None

    def test_queued_straight_to_done_covers_full_dedup(self):
        # A job whose every cell was already checkpointed never runs.
        job = make_job()
        job.transition("done")
        assert job.state == "done" and job.started_at is None

    def test_cancel_from_queued_and_running(self):
        for first in ((), ("running",)):
            job = make_job()
            for state in first:
                job.transition(state)
            job.transition("cancelled")
            assert job.is_terminal

    @pytest.mark.parametrize("terminal", TERMINAL_STATES)
    def test_terminal_states_never_transition(self, terminal):
        job = make_job()
        job.state = terminal
        for target in STATES:
            if target == terminal:
                job.transition(target)  # same-state is a no-op
            else:
                with pytest.raises(JobStateError, match="illegal transition"):
                    job.transition(target)

    def test_running_cannot_requeue(self):
        job = make_job()
        job.transition("running")
        with pytest.raises(JobStateError):
            job.transition("queued")

    def test_unknown_state_rejected(self):
        with pytest.raises(JobStateError, match="unknown job state"):
            make_job().transition("paused")


class TestCellKeys:
    def test_service_and_checkpoint_agree(self):
        # Dedup is sound only if both layers address cells identically.
        for technique in ("sampler", None):
            assert cell_key(CONFIG, "mcf", technique) == CheckpointStore.cell_key(
                CONFIG, "mcf", technique
            )

    def test_key_distinguishes_configs(self):
        other = ExperimentConfig(instructions=20_000, seed=2)
        assert cell_key(CONFIG, "mcf", "rrip") != cell_key(other, "mcf", "rrip")


class TestConfigFromDict:
    def test_defaults_and_partial_fill(self):
        assert config_from_dict(None) == ExperimentConfig()
        assert config_from_dict({"instructions": 5}) == ExperimentConfig(instructions=5)

    def test_cores_spelling_maps_to_num_cores(self):
        assert config_from_dict({"cores": 2}).num_cores == 2

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="unknown config field"):
            config_from_dict({"scael": 8})

    @pytest.mark.parametrize(
        "raw",
        [{"scale": 0}, {"instructions": -1}, {"seed": "1"}, {"cores": True},
         {"scale": 1.5}],
    )
    def test_bad_values_rejected(self, raw):
        with pytest.raises(ValueError, match="positive integer"):
            config_from_dict(raw)

    @pytest.mark.parametrize("cores", [0, -2, True, "4"])
    def test_bad_cores_named_as_sent(self, cores):
        # The wire field is ``cores``; the error must not name the
        # dataclass field ``num_cores`` the client never sent.
        with pytest.raises(ValueError) as excinfo:
            config_from_dict({"cores": cores})
        message = str(excinfo.value)
        assert message.startswith("cores must be a positive integer")
        assert "num_cores" not in message


class TestJobStore:
    def test_save_load_roundtrip(self, tmp_path):
        store = JobStore(tmp_path)
        job = make_job()
        job.transition("running")
        store.save(job, progress={"total": 2, "done": 1, "failed": 0, "pending": 1})
        loaded = store.load(job.id)
        assert loaded is not None
        assert loaded.to_dict() == job.to_dict()
        assert loaded.cells == job.cells
        assert loaded.config == CONFIG

    def test_missing_and_torn_records_read_as_none(self, tmp_path):
        store = JobStore(tmp_path)
        assert store.load("job-nope") is None
        job = make_job()
        path = store.save(job)
        path.write_text(path.read_text()[: len(path.read_text()) // 2])
        assert store.load(job.id) is None

    def test_record_with_unknown_state_reads_as_none(self, tmp_path):
        store = JobStore(tmp_path)
        job = make_job()
        path = store.save(job)
        record = json.loads(path.read_text())
        record["state"] = "paused"
        path.write_text(json.dumps(record))
        assert store.load(job.id) is None

    def test_load_all_orders_by_seq(self, tmp_path):
        store = JobStore(tmp_path)
        later = make_job(seq=7)
        earlier = make_job(seq=3)
        store.save(later)
        store.save(earlier)
        assert [job.seq for job in store.load_all()] == [3, 7]
        assert len(store) == 2

    def test_resume_requeues_interrupted_jobs(self, tmp_path):
        # A job caught 'running' by a crash must come back as 'queued'
        # (its finished cells are checkpoint dedup hits on re-admit),
        # and the flip must itself be persisted.
        store = JobStore(tmp_path)
        running = make_job(seq=1)
        running.transition("running")
        done = make_job(seq=2)
        done.transition("done")
        queued = make_job(seq=3)
        for job in (running, done, queued):
            store.save(job)

        resumed = {job.seq: job for job in store.resume()}
        assert resumed[1].state == "queued"
        assert resumed[2].state == "done"
        assert resumed[3].state == "queued"
        # Persisted, not just in-memory: a second store sees the flip.
        assert JobStore(tmp_path).load(running.id).state == "queued"
