"""Every ``REPRO_*`` knob follows one rule, read by :mod:`repro.utils.env`.

One table row per knob, each read through the public entry point that
honours it, so a knob routed around the one reader -- or parsed its own
way -- fails here:

* unset gives the knob's default;
* blank reads as unset for a text knob, as False for a flag, and raises
  for a number, naming the variable and the raw value;
* garbage raises a ValueError that names the variable;
* a number out of range raises "must be positive" (or "must be
  non-negative" where zero is allowed).

The scan at the end keeps every read of the environment in that module.
"""

from __future__ import annotations

import re
import threading
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import pytest

import repro
from repro.cache import Cache
from repro.harness import parallel as harness_parallel
from repro.harness.checkpoint import resolve_checkpoint_dir
from repro.harness.faults import ChaosRule, ChaosSpec, FaultPolicy
from repro.harness.parallel import resolve_jobs
from repro.harness.runner import ExperimentConfig
from repro.replacement.lru import LRUPolicy
from repro.service.fleet import FleetCoordinator
from repro.sim.streamstore import (
    resolve_stream_cache_dir,
    shared_memory_enabled,
    stream_compile_required,
)
from repro.telemetry.events import EventLog
from repro.workloads.replay import TraceLibrary
from tests.conftest import tiny_geometry


def _observability():
    """``(events file, progress on, manifest path)`` as a sweep reads them."""
    telemetry, _, manifest_path = harness_parallel._sweep_telemetry(
        None, None, None, None, "env", ExperimentConfig(), (), (), 1
    )
    events, progress = None, False
    for sink in telemetry.sinks if telemetry is not None else ():
        if isinstance(sink, EventLog):
            events = sink.path
            sink.close()
        else:
            progress = True
    return events, progress, manifest_path


def _coordinator():
    scheduler = SimpleNamespace(
        job_store=SimpleNamespace(root=Path.cwd()), _lock=threading.RLock()
    )
    return FleetCoordinator(scheduler, start=False)


def _names(rows):
    return [row[0] for row in rows]


# name, reader, default, a set value and what it reads as
TEXT = [
    ("REPRO_CHECKPOINT_DIR", resolve_checkpoint_dir, None,
     "ckpt", Path("ckpt")),
    ("REPRO_STREAM_CACHE", resolve_stream_cache_dir, None,
     "streams", Path("streams")),
    ("REPRO_EVENTS_FILE", lambda: _observability()[0], None,
     "events.ndjson", "events.ndjson"),
    ("REPRO_MANIFEST", lambda: _observability()[2], None,
     "run.json", "run.json"),
    ("REPRO_TRACE_LIB", lambda: TraceLibrary().root, Path(".repro-traces"),
     "traces", Path("traces")),
    ("REPRO_CHAOS", ChaosSpec.from_env, ChaosSpec(),
     "kill", ChaosSpec(rules=(("kill", ChaosRule(1.0)),))),
]
FLAGS = [
    ("REPRO_PARANOID", lambda: Cache(tiny_geometry(), LRUPolicy()).paranoid),
    ("REPRO_SHM", shared_memory_enabled),
    ("REPRO_STREAM_REQUIRE", stream_compile_required),
    ("REPRO_PROGRESS", lambda: _observability()[1]),
]
# name, reader, default, zero allowed
NUMBERS = [
    ("REPRO_SCALE", lambda: ExperimentConfig.from_env().scale, 8, False),
    ("REPRO_INSTRUCTIONS", lambda: ExperimentConfig.from_env().instructions,
     400_000, False),
    ("REPRO_SEED", lambda: ExperimentConfig.from_env().seed, 1, False),
    ("REPRO_CORES", lambda: ExperimentConfig.from_env().num_cores, 4, False),
    ("REPRO_JOBS", resolve_jobs, 1, False),
    ("REPRO_CELL_TIMEOUT", lambda: FaultPolicy.from_env().cell_timeout,
     None, False),
    ("REPRO_CELL_RETRIES", lambda: FaultPolicy.from_env().max_retries,
     2, True),
    ("REPRO_RETRY_BACKOFF", lambda: FaultPolicy.from_env().backoff,
     0.1, True),
    ("REPRO_LEASE_TTL", lambda: _coordinator().lease_ttl, 60.0, False),
    ("REPRO_HEARTBEAT_SEC", lambda: _coordinator().heartbeat_seconds,
     5.0, False),
]
KNOBS = _names(TEXT + FLAGS + NUMBERS)


@pytest.fixture(autouse=True)
def _clean_env(monkeypatch, tmp_path):
    """Every knob unset, in a scratch working directory."""
    for name in KNOBS:
        monkeypatch.delenv(name, raising=False)
    monkeypatch.chdir(tmp_path)


def test_the_table_covers_twenty_distinct_knobs():
    assert len(set(KNOBS)) == len(KNOBS) == 20


@pytest.mark.parametrize("name,reader,default,value,expected", TEXT, ids=_names(TEXT))
class TestTextKnobs:
    def test_unset_and_blank_give_the_default(
        self, monkeypatch, name, reader, default, value, expected
    ):
        assert reader() == default
        monkeypatch.setenv(name, "  ")
        assert reader() == default

    def test_set_value_is_read_stripped(
        self, monkeypatch, name, reader, default, value, expected
    ):
        monkeypatch.setenv(name, f" {value} ")
        assert reader() == expected


def test_garbled_chaos_spec_names_the_variable(monkeypatch):
    monkeypatch.setenv("REPRO_CHAOS", "two")
    with pytest.raises(ValueError, match="REPRO_CHAOS"):
        ChaosSpec.from_env()


@pytest.mark.parametrize("name,reader", FLAGS, ids=_names(FLAGS))
class TestFlagKnobs:
    def test_unset_and_blank_are_false(self, monkeypatch, name, reader):
        assert reader() is False
        monkeypatch.setenv(name, "")
        assert reader() is False

    @pytest.mark.parametrize("raw,expected", [
        ("1", True), ("True", True), (" yes ", True), ("ON", True),
        ("0", False), ("FALSE", False), ("no", False), ("Off", False),
    ])
    def test_words(self, monkeypatch, name, reader, raw, expected):
        monkeypatch.setenv(name, raw)
        assert reader() is expected

    @pytest.mark.parametrize("raw", ["two", "maybe", "2", "enabled"])
    def test_garbage_raises_naming_the_variable(
        self, monkeypatch, name, reader, raw
    ):
        monkeypatch.setenv(name, raw)
        with pytest.raises(ValueError, match=rf"{name}.*{raw!r}"):
            reader()


@pytest.mark.parametrize("name,reader,default,allow_zero", NUMBERS, ids=_names(NUMBERS))
class TestNumberKnobs:
    def test_unset_gives_the_default(self, name, reader, default, allow_zero):
        assert reader() == default

    def test_set_value_is_read(
        self, monkeypatch, name, reader, default, allow_zero
    ):
        monkeypatch.setenv(name, " 3 ")
        assert reader() == 3

    @pytest.mark.parametrize("raw", ["", "  ", "two"])
    def test_blank_and_garbage_raise_naming_variable_and_value(
        self, monkeypatch, name, reader, default, allow_zero, raw
    ):
        monkeypatch.setenv(name, raw)
        with pytest.raises(ValueError, match=rf"{name}.*{re.escape(repr(raw))}"):
            reader()

    def test_out_of_range_raises(
        self, monkeypatch, name, reader, default, allow_zero
    ):
        monkeypatch.setenv(name, "0")
        if allow_zero:
            assert reader() == 0
            monkeypatch.setenv(name, "-1")
            with pytest.raises(ValueError, match=f"{name} must be non-negative"):
                reader()
        else:
            with pytest.raises(ValueError, match=f"{name} must be positive"):
                reader()


class TestExperimentConfigValidates:
    @pytest.mark.parametrize("kwargs", [
        {"scale": 0}, {"instructions": -5}, {"seed": 0}, {"seed": True},
        {"num_cores": -1}, {"scale": 1.5}, {"instructions": "400000"},
    ])
    def test_construction_rejects_non_positive_and_non_int(self, kwargs):
        (field, value), = kwargs.items()
        with pytest.raises(
            ValueError, match=rf"^{field} must be a positive integer, got {re.escape(repr(value))}$"
        ):
            ExperimentConfig(**kwargs)

    def test_replace_validates_too(self):
        with pytest.raises(ValueError, match="seed must be a positive integer"):
            replace(ExperimentConfig(), seed=0)


#: Modules allowed to touch ``os.environ`` besides the reader itself:
#: the manifest captures the environment for provenance, and the smoke
#: driver copies it for its worker subprocesses.
_ENV_READERS = {"utils/env.py", "telemetry/manifest.py", "smoke.py"}


def test_only_the_env_module_reads_the_environment():
    root = Path(repro.__file__).parent
    hits = [
        f"{path.relative_to(root).as_posix()}:{number}: {line.strip()}"
        for path in sorted(root.rglob("*.py"))
        if path.relative_to(root).as_posix() not in _ENV_READERS
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if re.search(r"\b(environ|getenv)\b", line)
    ]
    assert not hits, "read REPRO_* knobs through repro.utils.env:\n" + "\n".join(hits)
