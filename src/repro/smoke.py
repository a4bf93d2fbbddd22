"""End-to-end smoke gates: ``python -m repro.smoke {serve,fleet,loadsim}``.

Each scenario drives a live surface of the reproduction and checks the
promise it makes:

* ``serve`` boots one job server (workload store, shared-memory fan-out,
  two pool workers) and runs two sweeps through the client SDK -- a
  named benchmark under two techniques and a two-point Zipf-skew pattern
  sweep.  Each result must be **bit-identical** to the same sweep run
  serially through the harness, and an identical resubmission must be
  served entirely by dedup (hits visible in ``/v1/stats``).  The first
  job's event stream must run ``sweep_started`` .. ``sweep_finished``,
  and a misspelled pattern family must be refused with HTTP 400 and a
  closest-match suggestion.
* ``fleet`` boots a fleet-mode server plus two real ``repro worker``
  subprocesses, one chaos-killed (``REPRO_CHAOS=kill:1@1``) the moment
  it starts its first cell.  The killed worker's cells must re-dispatch,
  the survivor must finish a sweep bit-identical to the serial one, the
  re-dispatch/duplicate counters must show in ``/v1/stats``, and the
  survivor (``--once``) must exit 0 on its own.
* ``loadsim`` runs a tiny two-tenant load simulation under DBRB and LRU:
  re-runs must be byte-identical (event-log digest and latency series),
  both techniques must see the same arrivals, and the latency
  percentiles must be non-degenerate.

Every scenario runs under a hard ``SIGALRM`` deadline, so a wedged
server or event loop fails loudly instead of hanging ``make check``.

Exit status: 0 on success, 1 on any failed check, 2 for an unknown
scenario name.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, Iterator, List, Sequence

import repro
from repro.harness.export import to_dict
from repro.harness.faults import KILL_EXIT_CODE
from repro.harness.parallel import parallel_single_thread_comparison
from repro.harness.runner import ExperimentConfig, WorkloadCache
from repro.loadsim.sim import LoadScenario, prepare_scenario
from repro.loadsim.tenants import TenantSpec
from repro.service.client import ServiceClient, ServiceError
from repro.service.scheduler import ExperimentScheduler
from repro.service.server import ExperimentServer

SERVE_SWEEPS = (
    (("perlbench",), ("sampler", "rrip"),
     ExperimentConfig(scale=16, instructions=30_000, seed=1)),
    (("zipf(a=0.8)", "zipf(a=1.2)"), ("sampler",),
     ExperimentConfig(scale=32, instructions=20_000, seed=1)),
)

FLEET_BENCHMARKS = ("perlbench",)
FLEET_TECHNIQUES = ("sampler", "rrip")
FLEET_CONFIG = ExperimentConfig(scale=16, instructions=30_000, seed=1)
LEASE_TTL = 3.0
HEARTBEAT_SECONDS = 0.5

LOADSIM_CONFIG = ExperimentConfig(scale=32, instructions=20_000, seed=1, num_cores=2)
LOADSIM_SCENARIO = LoadScenario(
    tenants=(
        TenantSpec(workload="zipf(a=1.2)", arrival="poisson(rate=2)"),
        TenantSpec(workload="bursty", arrival="bursty(rate=1,burst=6)"),
    ),
    duration=40_000.0,
    seed=7,
    epochs=8,
)

#: Hard wall-clock budget of the server scenarios, seconds; no job wait
#: outlives it.
SERVICE_DEADLINE = 300.0


class SmokeFailure(Exception):
    """A smoke check did not hold; the message says which."""


def _fail(message: str) -> None:
    raise SmokeFailure(message)


@contextlib.contextmanager
def _deadline(seconds: float, name: str) -> Iterator[None]:
    """Arm a ``SIGALRM`` deadline; disarm it and restore the previous
    handler on the way out."""
    if not hasattr(signal, "SIGALRM"):
        yield
        return

    def _on_alarm(signum, frame):
        raise TimeoutError(f"{name}-smoke exceeded its {seconds}s deadline")

    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


@contextlib.contextmanager
def _server(scheduler: ExperimentScheduler) -> Iterator[ServiceClient]:
    """Boot a server on an ephemeral port, check ``healthz``, and stop
    it on the way out."""
    handle = ExperimentServer(scheduler, port=0).start_in_thread()
    try:
        client = ServiceClient(f"http://127.0.0.1:{handle.port}")
        health = client.healthz()
        if health.get("status") != "ok":
            _fail(f"healthz: {health}")
        yield client
    finally:
        handle.stop()


def _serial(benchmarks: Sequence[str], techniques: Sequence[str],
            config: ExperimentConfig) -> Dict:
    """The sweep exactly as ``repro run`` executes it, serially."""
    return to_dict(parallel_single_thread_comparison(
        WorkloadCache(config), list(techniques), benchmarks, jobs=1
    ))


def _sweep_spec(benchmarks: Sequence[str], techniques: Sequence[str],
                config: ExperimentConfig) -> Dict:
    return dict(
        benchmarks=list(benchmarks), techniques=list(techniques), sweep=True,
        config={
            "scale": config.scale,
            "instructions": config.instructions,
            "seed": config.seed,
            "cores": config.num_cores,
        },
    )


def _wait_identical(client: ServiceClient, job_id: str, expected: Dict) -> None:
    """Wait for a job, require ``done`` and a result bit-identical to
    the serial reference."""
    final = client.wait(job_id, timeout=SERVICE_DEADLINE)
    if final["state"] != "done":
        _fail(f"job finished {final['state']}: {final.get('error', '')}")
    got = client.result(job_id)
    if got != expected:
        _fail(
            "service sweep is not bit-identical to the serial sweep:\n"
            f"service: {json.dumps(got, sort_keys=True)[:2000]}\n"
            f"serial : {json.dumps(expected, sort_keys=True)[:2000]}"
        )


def _check_sweep(client: ServiceClient, name: str, benchmarks: Sequence[str],
                 techniques: Sequence[str], config: ExperimentConfig) -> Dict:
    """Serial reference, service run, bit-identity, then an identical
    resubmission that dedup must serve whole.  Returns the first job."""
    expected = _serial(benchmarks, techniques, config)
    spec = _sweep_spec(benchmarks, techniques, config)
    job = client.submit(client=name, **spec)
    _wait_identical(client, job["id"], expected)

    repeat = client.submit(client=f"{name}-again", **spec)
    if repeat["state"] != "done":
        repeat = client.wait(repeat["id"], timeout=10.0)
    if repeat["state"] != "done":
        _fail(f"dedup resubmission finished {repeat['state']}")
    if repeat["dedup_cells"] != len(repeat["cells"]):
        _fail(
            "dedup resubmission executed cells: "
            f"{repeat['dedup_cells']}/{len(repeat['cells'])} deduped"
        )
    if client.result(repeat["id"]) != expected:
        _fail("dedup result differs from the original")
    return job


def _serve(root: Path) -> str:
    scheduler = ExperimentScheduler(
        job_store=root / "service",
        stream_cache=root / "streams",
        shared_memory=True,
        jobs=2,
    )
    with _server(scheduler) as client:
        jobs = [
            _check_sweep(client, f"smoke-{index}", benchmarks, techniques, config)
            for index, (benchmarks, techniques, config) in enumerate(SERVE_SWEEPS)
        ]
        dedup = client.stats()["dedup"]
        hits = dedup["checkpoint_hits"] + dedup["inflight_hits"]
        repeated = sum(len(job["cells"]) for job in jobs)
        if hits < repeated:
            _fail(f"stats do not show the dedup hits: {dedup}")

        kinds = [event.get("event") for event in client.stream_events(jobs[0]["id"])]
        if kinds[:1] != ["sweep_started"] or kinds[-1:] != ["sweep_finished"]:
            _fail(f"unexpected event stream: {kinds}")

        try:
            client.submit(
                client="smoke-bad", benchmarks=["zipg(a=1.2)"],
                techniques=["sampler"], sweep=True,
            )
        except ServiceError as error:
            if getattr(error, "status", None) != 400:
                _fail(f"bad spec gave status {error}")
            if "zipf" not in str(error):
                _fail(f"400 body lacks the closest-match suggestion: {error}")
        else:
            _fail("misspelled family was accepted")
    return (
        "benchmark and zipf sweeps bit-identical to serial (store + shm), "
        f"dedup total ({dedup}), bad spec 400s with a suggestion, drained "
        "cleanly"
    )


def _spawn_worker(url: str, name: str, root: Path, chaos: str = "") -> subprocess.Popen:
    env = dict(os.environ)
    src_dir = str(Path(repro.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        [src_dir] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    if chaos:
        env["REPRO_CHAOS"] = chaos
    else:
        env.pop("REPRO_CHAOS", None)
    return subprocess.Popen(
        [
            sys.executable, "-m", "repro", "worker",
            "--connect", url, "--name", name, "--once",
            "--stream-cache", str(root / f"worker-streams-{name}"),
        ],
        env=env,
    )


def _fleet(root: Path) -> str:
    expected = _serial(FLEET_BENCHMARKS, FLEET_TECHNIQUES, FLEET_CONFIG)
    scheduler = ExperimentScheduler(
        job_store=root / "service",
        stream_cache=root / "streams",
        fleet=True,
        lease_ttl=LEASE_TTL,
        heartbeat_seconds=HEARTBEAT_SECONDS,
        lease_cells=2,
    )
    with _server(scheduler) as client:
        workers: List[subprocess.Popen] = []
        try:
            url = f"http://{client.host}:{client.port}"
            health = client.healthz()
            if "fleet_workers_alive" not in health:
                _fail(f"healthz does not report the fleet: {health}")
            job = client.submit(
                client="fleet-smoke",
                **_sweep_spec(FLEET_BENCHMARKS, FLEET_TECHNIQUES, FLEET_CONFIG),
            )

            # The victim dies, kill -9 style, the moment it starts its
            # first cell.  Hold the survivor back until the victim has
            # actually leased work, so the kill is guaranteed to orphan
            # cells rather than race the survivor for them.
            victim = _spawn_worker(url, "victim", root, chaos="kill:1@1")
            workers.append(victim)
            deadline = time.monotonic() + 60.0
            while client.stats()["fleet"]["cells"]["leased"] < 1:
                if time.monotonic() >= deadline:
                    _fail("victim worker never leased a cell")
                time.sleep(0.1)
            victim_code = victim.wait(timeout=60.0)
            if victim_code != KILL_EXIT_CODE:
                _fail(
                    f"victim exited {victim_code}, expected the chaos "
                    f"kill code {KILL_EXIT_CODE}"
                )

            survivor = _spawn_worker(url, "survivor", root)
            workers.append(survivor)
            _wait_identical(client, job["id"], expected)

            fleet = client.stats().get("fleet")
            if not fleet:
                _fail("/v1/stats has no fleet section")
            if fleet["cells"]["redispatched"] < 1:
                _fail(
                    "the kill did not cause a re-dispatch: "
                    f"{json.dumps(fleet, sort_keys=True)}"
                )
            for counter in ("duplicate_completions", "late_completions"):
                if counter not in fleet["cells"]:
                    _fail(f"fleet stats missing {counter!r}: {fleet}")
            if fleet["workers"]["lost"] < 1 and fleet["leases"]["expired"] < 1:
                _fail(
                    "neither a lost worker nor an expired lease recorded: "
                    f"{json.dumps(fleet, sort_keys=True)}"
                )
            survivor_code = survivor.wait(timeout=60.0)
            if survivor_code != 0:
                _fail(f"survivor worker exited {survivor_code}")
        finally:
            for proc in workers:
                if proc.poll() is None:
                    proc.terminate()
                    try:
                        proc.wait(timeout=10.0)
                    except subprocess.TimeoutExpired:
                        proc.kill()
    return (
        f"worker killed mid-lease, {fleet['cells']['redispatched']} cell(s) "
        "re-dispatched, result bit-identical to serial "
        f"(duplicates={fleet['cells']['duplicate_completions']}, "
        f"late={fleet['cells']['late_completions']}), survivor drained and "
        "exited cleanly"
    )


def _loadsim(root: Path) -> str:
    prepared = prepare_scenario(WorkloadCache(LOADSIM_CONFIG), LOADSIM_SCENARIO)
    results = {}
    for technique in ("sampler", "lru"):
        first = prepared.run(technique)
        second = prepared.run(technique)
        if first.event_log_digest() != second.event_log_digest():
            _fail(f"{technique}: event log not deterministic across runs")
        if first.latency_series != second.latency_series:
            _fail(f"{technique}: latency series not deterministic")
        results[technique] = first

    sampler, lru = results["sampler"], results["lru"]
    arrivals = [(t.arrived, t.workload) for t in sampler.tenants]
    if arrivals != [(t.arrived, t.workload) for t in lru.tenants]:
        _fail(
            "techniques saw different arrival streams: "
            f"sampler={arrivals} lru={[t.arrived for t in lru.tenants]}"
        )
    for technique, result in results.items():
        if sum(t.completed for t in result.tenants) == 0:
            _fail(f"{technique}: no requests completed")
        if result.llc_stats.accesses == 0:
            _fail(f"{technique}: the shared LLC saw no traffic")
        p50, p95, p99 = result.p50, result.p95, result.p99
        if not (0 < p50 <= p95 <= p99):
            _fail(
                f"{technique}: degenerate percentiles "
                f"p50={p50} p95={p95} p99={p99}"
            )
        if not result.recorder.samples:
            _fail(f"{technique}: no telemetry epochs recorded")
    return (
        "2-tenant scenario deterministic "
        f"(digest {sampler.event_log_digest()[:12]}), identical arrivals "
        f"across techniques, sampler p99 {sampler.p99:.0f}cy vs lru p99 "
        f"{lru.p99:.0f}cy, fairness {sampler.fairness:.3f}/{lru.fairness:.3f}"
    )


#: Scenario name -> (scenario, hard wall-clock deadline in seconds).
SCENARIOS = {
    "serve": (_serve, SERVICE_DEADLINE),
    "fleet": (_fleet, SERVICE_DEADLINE),
    "loadsim": (_loadsim, 120.0),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.smoke", description=__doc__.splitlines()[0]
    )
    parser.add_argument("scenario", choices=list(SCENARIOS))
    name = parser.parse_args(argv).scenario
    scenario, seconds = SCENARIOS[name]
    try:
        with _deadline(seconds, name), tempfile.TemporaryDirectory(
            prefix=f"repro-{name}-smoke-"
        ) as tmp:
            summary = scenario(Path(tmp))
    except SmokeFailure as failure:
        print(f"{name}-smoke: FAIL: {failure}", file=sys.stderr)
        return 1
    print(f"{name}-smoke: OK -- {summary}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
