"""Command-line entry point: ``python -m repro <command>``.

Commands:

* ``info`` -- package, machine, suite, and technique summary.
* ``run BENCHMARK [TECHNIQUE ...]`` -- quick single-benchmark comparison.
* ``suite [TECHNIQUE ...]`` -- the full 19-benchmark Figure 4/5 run.
* ``telemetry BENCHMARK [TECHNIQUE]`` -- per-epoch time series of one
  run, dumped as NDJSON/CSV (``--ndjson`` / ``--csv``) or rendered as a
  sparkline table.
* ``loadsim`` -- service-level latency under open-loop tenant load on
  the shared LLC: p50/p95/p99 request latency, per-tenant MPKI,
  throughput, and fairness for each technique, fully deterministic
  under a fixed seed (docs/loadsim.md).
* ``report --timeseries [BENCHMARK ...]`` -- sparkline phase report
  across benchmarks (docs/observability.md).
* ``profile BENCHMARK`` -- reuse-distance profile of a workload.
* ``cache`` -- inspect or prune the compiled workload store
  (``--footprint`` / ``--evict`` / ``--clear``).
* ``storage`` / ``power`` -- print Tables I and II.
* ``serve`` -- run the experiment job service (docs/service.md); with
  ``--fleet``, dispatch cells to remote ``repro worker`` processes under
  time-bounded leases instead of a local process pool.
* ``worker`` -- join a fleet-mode service: pull leased cell batches,
  execute them, post results; survives server restarts and its own
  crashes (the lease re-dispatches).
* ``submit`` -- submit a cell or sweep to a running service and
  optionally wait for / stream / export its result.
* ``jobs`` -- list, inspect, or cancel service jobs; show ``/v1/stats``.

All commands respect the ``REPRO_SCALE`` / ``REPRO_INSTRUCTIONS`` /
``REPRO_SEED`` / ``REPRO_CORES`` environment variables.  ``run`` and
``suite`` additionally honor ``REPRO_JOBS`` (or ``--jobs N``) to fan the
(benchmark, technique) cells over worker processes; results are
bit-identical to a serial run (see docs/performance.md).

Long sweeps are fault-tolerant (see docs/robustness.md):
``--checkpoint-dir DIR`` (or ``REPRO_CHECKPOINT_DIR``) persists each
completed cell, ``--resume`` restarts an interrupted sweep from its last
completed cell, and ``--allow-partial`` renders whatever completed plus
a failure report instead of aborting when cells fail unrecoverably.
Per-cell timeouts and retries come from ``REPRO_CELL_TIMEOUT`` /
``REPRO_CELL_RETRIES`` / ``REPRO_RETRY_BACKOFF``.

Sweep observability (docs/observability.md): ``--events-file FILE`` (or
``REPRO_EVENTS_FILE``) streams NDJSON progress events, ``--progress``
(or ``REPRO_PROGRESS``) renders them live on stderr, and ``--manifest
FILE`` (or ``REPRO_MANIFEST``; defaults next to the checkpoint store)
records the run's config/seed/git/env provenance with per-cell timings.

Sweep throughput (docs/performance.md): ``--stream-cache DIR`` (or
``REPRO_STREAM_CACHE``) persists compiled workloads in a
content-addressed store so repeated runs and worker processes skip
trace generation and L1/L2 filtering; ``--shm`` (or ``REPRO_SHM``)
additionally fans the compiled workloads out to workers zero-copy via
shared memory.  Both are pure performance levers -- results stay
bit-identical.
"""

from __future__ import annotations

import argparse
import sys

from repro import __version__
from repro.cache import CacheGeometry
from repro.harness import (
    ExperimentConfig,
    SINGLE_THREAD_TECHNIQUES,
    TECHNIQUES,
    WorkloadCache,
    format_table,
    parallel_single_thread_comparison,
)
from repro.power import predictor_power_table, storage_table
from repro.workloads import ALL_BENCHMARKS, MIXES, SINGLE_THREAD_SUBSET


def _cmd_info(args) -> int:
    config = ExperimentConfig.from_env()
    print(f"repro {__version__} -- Sampling Dead Block Prediction for "
          f"Last-Level Caches (MICRO-43, 2010)")
    print(f"configuration: {config.describe()}")
    print()
    from repro.workloads import PATTERN_FAMILIES

    print(f"benchmarks ({len(ALL_BENCHMARKS)}): {', '.join(ALL_BENCHMARKS)}")
    print(f"single-thread subset ({len(SINGLE_THREAD_SUBSET)}): "
          f"{', '.join(SINGLE_THREAD_SUBSET)}")
    print(f"pattern families ({len(PATTERN_FAMILIES)}): "
          f"{', '.join(sorted(PATTERN_FAMILIES))} "
          "-- parameterized specs like 'zipf(a=1.2,seed=7)' work "
          "anywhere a benchmark name does (docs/workloads.md)")
    print(f"multicore mixes: {', '.join(MIXES)} "
          "(or ad-hoc: 'mcf+hmmer+zipf(a=1.4)+seq')")
    print()
    print("techniques (Table V):")
    for technique in TECHNIQUES.values():
        print(f"  {technique.key:16s} {technique.description}")
    return 0


def _comparison(config, technique_keys, benchmarks, jobs=None,
                checkpoint_dir=None, resume=False, allow_partial=False,
                events_file=None, progress=None, manifest=None,
                command="run", stream_cache=None, shm=None):
    cache = WorkloadCache(config)
    comparison = parallel_single_thread_comparison(
        cache, technique_keys, benchmarks, jobs=jobs,
        checkpoint=checkpoint_dir, resume=resume,
        allow_partial=allow_partial or None,
        events_file=events_file, progress=progress,
        manifest_path=manifest, command=command,
        stream_cache=stream_cache, shared_memory=shm,
    )
    if comparison.is_partial:
        print(comparison.failure_report())
        print()
        done = [b for b in comparison.benchmarks if b in comparison.baseline
                and set(technique_keys) <= set(comparison.results[b])]
        comparison = _restrict(comparison, done)
        if not comparison.benchmarks:
            print("no benchmark completed every technique; nothing to render")
            return 1
    labels = [TECHNIQUES[key].label for key in technique_keys]
    print(format_table(
        ["benchmark"] + labels,
        comparison.mpki_rows(),
        title="LLC misses normalized to LRU",
    ))
    speed_keys = [k for k in technique_keys if TECHNIQUES[k].timing_meaningful]
    if speed_keys:
        print()
        print(format_table(
            ["benchmark"] + [TECHNIQUES[k].label for k in speed_keys],
            comparison.speedup_rows(technique_keys=speed_keys),
            title="Speedup over LRU",
        ))
    return 0


def _restrict(comparison, benchmarks):
    """A comparison narrowed to fully-completed benchmarks (partial
    sweeps render the cells they have rather than crashing)."""
    from repro.harness import SingleThreadComparison

    return SingleThreadComparison(
        benchmarks=tuple(benchmarks),
        technique_keys=comparison.technique_keys,
        baseline={b: comparison.baseline[b] for b in benchmarks},
        results={b: comparison.results[b] for b in benchmarks},
        failures=comparison.failures,
    )


def _parse_techniques(names) -> list:
    from repro.harness.techniques import validate_techniques

    keys = list(names) or list(SINGLE_THREAD_TECHNIQUES)
    bad = validate_techniques(keys)
    if bad:
        raise SystemExit("; ".join(bad))
    return keys


def _check_workload(name: str) -> str:
    """Validate a workload name / pattern spec, exiting with the
    registry and a closest-match suggestion when it does not resolve."""
    from repro.workloads import validate_workloads

    bad = validate_workloads([name])
    if bad:
        raise SystemExit("; ".join(bad))
    return name


def _cmd_run(args) -> int:
    _check_workload(args.benchmark)
    return _comparison(
        ExperimentConfig.from_env(),
        _parse_techniques(args.techniques),
        (args.benchmark,),
        jobs=args.jobs,
        checkpoint_dir=args.checkpoint_dir,
        resume=args.resume,
        allow_partial=args.allow_partial,
        events_file=args.events_file,
        progress=args.progress or None,
        manifest=args.manifest,
        command="run",
        stream_cache=args.stream_cache,
        shm=args.shm or None,
    )


def _cmd_suite(args) -> int:
    config = ExperimentConfig.from_env()
    print(f"running the {len(SINGLE_THREAD_SUBSET)}-benchmark subset on "
          f"{config.describe()}; expect a few minutes...\n")
    return _comparison(config, _parse_techniques(args.techniques),
                       SINGLE_THREAD_SUBSET, jobs=args.jobs,
                       checkpoint_dir=args.checkpoint_dir,
                       resume=args.resume,
                       allow_partial=args.allow_partial,
                       events_file=args.events_file,
                       progress=args.progress or None,
                       manifest=args.manifest,
                       command="suite",
                       stream_cache=args.stream_cache,
                       shm=args.shm or None)


def _timeseries(config, benchmark, technique_key, epochs, accuracy=True):
    from repro.harness import timeseries_experiment

    _check_workload(benchmark)
    _parse_techniques([technique_key])
    cache = WorkloadCache(config)
    return timeseries_experiment(
        cache, benchmark, technique_key, epochs=epochs, accuracy=accuracy
    )


def _cmd_telemetry(args) -> int:
    from repro.telemetry import render_report, write_csv, write_ndjson

    result = _timeseries(
        ExperimentConfig.from_env(), args.benchmark, args.technique,
        args.epochs, accuracy=not args.no_accuracy,
    )
    recorder = result.recorder
    if args.ndjson:
        write_ndjson(recorder, args.ndjson)
        print(f"wrote {len(recorder.samples)} epochs to {args.ndjson} (NDJSON)")
    if args.csv:
        write_csv(recorder, args.csv)
        print(f"wrote {len(recorder.samples)} epochs to {args.csv} (CSV)")
    if not args.ndjson and not args.csv:
        print(render_report(recorder))
    return 0


def _cmd_loadsim(args) -> int:
    """``loadsim``: service-level latency under open-loop tenant load."""
    from repro.harness import loadsim_experiment
    from repro.loadsim import (
        LoadScenario,
        resolve_tenant_specs,
        write_csv,
        write_ndjson,
    )
    from repro.harness.techniques import validate_techniques

    try:
        tenants = resolve_tenant_specs(args.tenants, args.arrival)
    except ValueError as exc:
        raise SystemExit(f"loadsim: {exc}")
    for spec in tenants:
        _check_workload(spec.workload)
    keys = list(args.technique) or ["sampler", "lru"]
    bad = validate_techniques(keys)
    if bad:
        raise SystemExit("; ".join(bad))
    if "optimal" in keys:
        raise SystemExit(
            "loadsim: the optimal policy needs the full future access "
            "stream; a live load simulation cannot provide one"
        )
    config = ExperimentConfig.from_env()
    try:
        scenario = LoadScenario(
            tenants=tenants,
            duration=args.duration,
            seed=args.seed,
            ops=args.ops,
            epochs=args.epochs,
        )
    except ValueError as exc:
        raise SystemExit(f"loadsim: {exc}")
    print(f"load simulation on {config.describe()}")
    print(f"scenario: {scenario.describe()}\n")
    comparison = loadsim_experiment(WorkloadCache(config), scenario, keys)
    rows = comparison.rows()
    print(format_table(
        rows[0], rows[1:],
        title="Request latency under load (cycles)",
    ))
    print()
    tenant_rows = comparison.tenant_rows()
    print(format_table(
        tenant_rows[0], tenant_rows[1:], title="Per-tenant behaviour",
    ))
    for key in keys:
        digest = comparison.results[key].event_log_digest()
        print(f"{key}: event log digest {digest}")

    def _outputs(base: str):
        """One output path per technique (suffix the key when several)."""
        if len(keys) == 1:
            return [(keys[0], base)]
        stem, dot, ext = base.rpartition(".")
        if not dot:
            return [(key, f"{base}.{key}") for key in keys]
        return [(key, f"{stem}.{key}.{ext}") for key in keys]

    if args.ndjson:
        for key, path in _outputs(args.ndjson):
            write_ndjson(comparison.results[key], path)
            print(f"wrote {key} run to {path} (NDJSON)")
    if args.csv:
        for key, path in _outputs(args.csv):
            write_csv(comparison.results[key], path)
            print(f"wrote {key} tenant table to {path} (CSV)")
    return 0


def _cmd_pattern_sweep(args) -> int:
    """``report --pattern-sweep``: DBRB on/off along a workload axis."""
    from repro.harness import pattern_axis, pattern_sweep_experiment, zipf_skew_axis

    if args.benchmarks:
        specs = [_check_workload(name) for name in args.benchmarks]
    elif args.param or args.family != "zipf":
        values = []
        for raw in (args.values or "0.6,0.9,1.2,1.5").split(","):
            raw = raw.strip()
            try:
                values.append(int(raw) if "." not in raw else float(raw))
            except ValueError:
                raise SystemExit(f"--values: not a number: {raw!r}")
        specs = pattern_axis(args.family, args.param or "a", values)
        for spec in specs:
            _check_workload(spec)
    else:
        raw_values = args.values
        if raw_values:
            values = [float(v) for v in raw_values.split(",")]
            specs = zipf_skew_axis(values)
        else:
            specs = zipf_skew_axis()
    config = ExperimentConfig.from_env()
    print(f"pattern sweep on {config.describe()}")
    result = pattern_sweep_experiment(WorkloadCache(config), specs)
    rows = result.rows()
    print(format_table(
        rows[0], rows[1:],
        title="DBRB (sampler) vs LRU along the workload axis",
    ))
    return 0


def _cmd_report(args) -> int:
    from repro.telemetry import render_report

    if args.pattern_sweep:
        return _cmd_pattern_sweep(args)
    if not args.timeseries:
        raise SystemExit("report: pass --timeseries or --pattern-sweep")
    config = ExperimentConfig.from_env()
    benchmarks = args.benchmarks or list(SINGLE_THREAD_SUBSET[:3])
    first = True
    for benchmark in benchmarks:
        result = _timeseries(config, benchmark, args.technique, args.epochs)
        if not first:
            print()
        first = False
        print(render_report(result.recorder))
    return 0


def _cmd_profile(args) -> int:
    from repro.analysis import profile_trace
    from repro.workloads import build_trace

    _check_workload(args.benchmark)
    config = ExperimentConfig.from_env()
    machine = config.machine()
    trace = build_trace(
        args.benchmark, config.instructions, machine.llc.size_bytes,
        seed=config.seed,
    )
    profile = profile_trace(
        trace, llc_reach=machine.llc.num_blocks, block_bits=6
    )
    print(profile.summary())
    print()
    llc_blocks = machine.llc.num_blocks
    print(f"est. fully-assoc. LRU hit fraction @ LLC capacity "
          f"({llc_blocks:,} blocks): {profile.hit_fraction(llc_blocks):.1%}")
    return 0


def _cmd_trace(args) -> int:
    """``trace import FILE`` / ``trace list``: the external trace library."""
    from repro.workloads import TraceLibrary

    library = TraceLibrary(args.lib)
    if args.trace_command == "import":
        try:
            entry = library.import_file(args.file, name=args.name)
        except (OSError, ValueError) as error:
            raise SystemExit(f"trace import: {error}")
        name = args.name
        if name is None:
            # import_file keyed the entry by the trace's embedded name.
            name = next(
                n for n, e in library.entries().items()
                if e["digest"] == entry["digest"] and e["source"] == entry["source"]
            )
        print(f"imported {args.file} into {library.root}")
        print(f"  name:         {name}")
        print(f"  digest:       {entry['digest']}")
        print(f"  records:      {entry['records']}")
        print(f"  instructions: {entry['instructions']}")
        print(f"  replay spec:  trace({name})   "
              f"(loops: trace({name},loop=true))")
        return 0
    try:
        entries = library.entries()
    except ValueError as error:
        raise SystemExit(f"trace list: {error}")
    if not entries:
        print(f"trace library {library.root} is empty "
              "(populate it with `repro trace import FILE`)")
        return 0
    print(f"trace library {library.root} ({len(entries)} traces):")
    for name in sorted(entries):
        entry = entries[name]
        print(f"  {name:24s} {str(entry['digest'])[:16]}  "
              f"{entry['records']:>9} records  "
              f"{entry['instructions']:>10} instr  <- {entry['source']}")
        print(f"    replay spec: trace({name})")
    return 0


def _human_bytes(count: int) -> str:
    """``16.3 MiB``-style rendering of a byte count."""
    value = float(count)
    for unit in ("B", "KiB", "MiB", "GiB", "TiB"):
        if value < 1024.0 or unit == "TiB":
            if unit == "B":
                return f"{int(value)} B"
            return f"{value:.1f} {unit}"
        value /= 1024.0
    return f"{int(count)} B"  # pragma: no cover - unreachable


def _cmd_cache(args) -> int:
    from repro.sim.streamstore import StreamStore, resolve_stream_cache_dir

    root = resolve_stream_cache_dir(args.dir)
    if root is None:
        raise SystemExit(
            "cache: no store configured -- pass --dir DIR or set "
            "REPRO_STREAM_CACHE"
        )
    try:
        store = StreamStore(root)
        if args.footprint:
            entries = store.entries()
            total = store.footprint()
            print(
                f"{len(entries)} blob{'' if len(entries) == 1 else 's'}, "
                f"{_human_bytes(total)} ({total} bytes) at {store.root}"
            )
            return 0
    except OSError as exc:
        # An unreadable store directory (permissions, dangling mount,
        # path that is actually a file) is an operator problem worth a
        # clear one-line diagnosis, not a traceback.
        raise SystemExit(
            f"cache: cannot read store at {root}: "
            f"{type(exc).__name__}: {exc}"
        ) from None
    try:
        if args.clear:
            removed = store.clear()
            print(f"cleared {removed} entr{'y' if removed == 1 else 'ies'} "
                  f"from {store.root}")
            return 0
        if args.evict:
            removed = store.evict(args.evict)
            print(f"evicted {removed} entr{'y' if removed == 1 else 'ies'} "
                  f"matching {args.evict!r} from {store.root}")
            return 0
        entries = store.entries()
    except OSError as exc:
        raise SystemExit(
            f"cache: cannot read store at {root}: "
            f"{type(exc).__name__}: {exc}"
        ) from None
    if not entries:
        print(f"store at {store.root} is empty")
        return 0
    rows = [
        [e.name, e.instructions, e.records, e.llc, e.nbytes / 1024.0,
         e.digest[:12]]
        for e in entries
    ]
    print(format_table(
        ["workload", "instructions", "records", "LLC refs", "KiB", "key"],
        rows, precision=1,
        title=f"Compiled workload store at {store.root}",
    ))
    print(f"\n{len(entries)} entr{'y' if len(entries) == 1 else 'ies'}, "
          f"{store.footprint() / (1024.0 * 1024.0):.2f} MiB total")
    return 0


def _cmd_serve(args) -> int:
    from repro.service import serve

    return serve(
        host=args.host,
        port=args.port,
        job_store=args.job_store,
        checkpoint=args.checkpoint_dir,
        stream_cache=args.stream_cache,
        shared_memory=args.shm or None,
        jobs=args.jobs,
        queue_depth=args.queue_depth,
        fleet=args.fleet,
        lease_ttl=args.lease_ttl,
        heartbeat_seconds=args.heartbeat_sec,
        lease_cells=args.lease_cells,
    )


def _cmd_worker(args) -> int:
    import signal as _signal

    from repro.service.worker import FleetWorker

    worker = FleetWorker(
        args.connect,
        name=args.name or None,
        stream_cache=args.stream_cache,
        max_cells=args.max_cells,
        once=args.once,
        poll_seconds=args.poll,
    )
    for signum in (_signal.SIGTERM, _signal.SIGINT):
        _signal.signal(signum, lambda *_: worker.stop())
    code = worker.run()
    print(
        f"worker {worker.name} exiting: "
        f"{worker.stats['cells_completed']} cells completed, "
        f"{worker.stats['cells_failed']} failed, "
        f"{worker.stats['leases_processed']} leases",
        flush=True,
    )
    return code


def _service_client(args):
    from repro.service import ServiceClient

    return ServiceClient(args.url)


def _cmd_submit(args) -> int:
    import json as _json

    from repro.service import ServiceError

    client = _service_client(args)
    config = {}
    for name, value in (
        ("scale", args.scale), ("instructions", args.instructions),
        ("seed", args.seed), ("cores", args.cores),
    ):
        if value is not None:
            config[name] = value
    try:
        job = client.submit(
            benchmarks=[args.benchmark] if args.benchmark else None,
            techniques=args.techniques or None,
            sweep=args.sweep or not args.benchmark,
            config=config or None,
            client=args.client,
            priority=args.priority,
        )
    except ServiceError as exc:
        raise SystemExit(f"submit: {exc}")
    print(f"submitted {job['id']} ({job['kind']}, {len(job['cells'])} cells, "
          f"{job['dedup_cells']} dedup hits) state={job['state']}")
    if args.stream:
        for event in client.stream_events(job["id"]):
            print(_json.dumps(event, sort_keys=True))
    if args.wait or args.stream or args.json:
        final = client.wait(job["id"], timeout=args.timeout)
        print(f"job {final['id']} finished: {final['state']}"
              + (f" ({final['error']})" if final.get("error") else ""))
        if final["state"] != "done":
            return 1
        if args.json:
            result = client.result(job["id"])
            with open(args.json, "w", encoding="utf-8") as handle:
                _json.dump(result, handle, indent=2, sort_keys=True)
            print(f"wrote result to {args.json}")
    return 0


def _cmd_jobs(args) -> int:
    import json as _json

    from repro.service import ServiceError

    client = _service_client(args)
    try:
        if args.stats:
            print(_json.dumps(client.stats(), indent=2, sort_keys=True))
            return 0
        if args.cancel:
            job = client.cancel(args.cancel)
            print(f"job {job['id']}: {job['state']}")
            return 0
        if args.job_id:
            print(_json.dumps(client.get(args.job_id), indent=2, sort_keys=True))
            return 0
        jobs = client.list_jobs()
    except ServiceError as exc:
        raise SystemExit(f"jobs: {exc}")
    if not jobs:
        print("no jobs")
        return 0
    rows = [
        [job["id"], job["kind"], job["client"], job["state"],
         f"{job['progress']['done']}/{job['progress']['total']}",
         job["dedup_cells"]]
        for job in jobs
    ]
    print(format_table(
        ["job", "kind", "client", "state", "done", "dedup"], rows,
        title=f"jobs at {args.url}",
    ))
    return 0


def _cmd_storage(args) -> int:
    geometry = CacheGeometry(2 * 1024 * 1024, 16, 64)
    rows = [
        [b.predictor, b.structure_bits / 8192, b.metadata_bits / 8192,
         b.total_kbytes, 100 * b.fraction_of_cache(geometry)]
        for b in storage_table(geometry)
    ]
    print(format_table(
        ["predictor", "structures KB", "metadata KB", "total KB", "% of LLC"],
        rows, precision=2, title="Table I: predictor storage (2MB LLC)",
    ))
    return 0


def _cmd_power(args) -> int:
    rows = [
        [r.predictor, r.total_leakage, r.total_dynamic,
         r.llc_leakage_percent, r.llc_dynamic_percent]
        for r in predictor_power_table()
    ]
    print(format_table(
        ["predictor", "leakage W", "dynamic W", "leak % LLC", "dyn % LLC"],
        rows, precision=3, title="Table II: predictor power (CACTI-lite)",
    ))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    subparsers.add_parser("info", help="package and suite summary")
    run_parser = subparsers.add_parser("run", help="compare techniques on one benchmark")
    run_parser.add_argument("benchmark")
    run_parser.add_argument("techniques", nargs="*")
    suite_parser = subparsers.add_parser("suite", help="the full Figure 4/5 run")
    suite_parser.add_argument("techniques", nargs="*")
    for sweep_parser in (run_parser, suite_parser):
        sweep_parser.add_argument(
            "--jobs", type=int, default=None,
            help="worker processes (default: REPRO_JOBS or 1)",
        )
        sweep_parser.add_argument(
            "--checkpoint-dir", default=None, metavar="DIR",
            help="persist each completed cell here "
                 "(default: REPRO_CHECKPOINT_DIR or off)",
        )
        sweep_parser.add_argument(
            "--resume", action="store_true",
            help="reload completed cells from the checkpoint dir "
                 "instead of re-running them",
        )
        sweep_parser.add_argument(
            "--allow-partial", action="store_true",
            help="on unrecoverable cell failures, render completed "
                 "cells plus a failure report instead of aborting",
        )
        sweep_parser.add_argument(
            "--events-file", default=None, metavar="FILE",
            help="append NDJSON progress events here "
                 "(default: REPRO_EVENTS_FILE or off)",
        )
        sweep_parser.add_argument(
            "--progress", action="store_true",
            help="render live progress lines on stderr "
                 "(default: REPRO_PROGRESS or off)",
        )
        sweep_parser.add_argument(
            "--manifest", default=None, metavar="FILE",
            help="write the run manifest here (default: REPRO_MANIFEST, "
                 "else next to the checkpoint store)",
        )
        sweep_parser.add_argument(
            "--stream-cache", default=None, metavar="DIR",
            help="compiled workload store directory "
                 "(default: REPRO_STREAM_CACHE or off)",
        )
        sweep_parser.add_argument(
            "--shm", action="store_true",
            help="fan compiled workloads out to workers via shared "
                 "memory (default: REPRO_SHM or off)",
        )
    loadsim_parser = subparsers.add_parser(
        "loadsim",
        help="service-level latency under open-loop tenant load "
             "(docs/loadsim.md)",
    )
    loadsim_parser.add_argument(
        "--tenants", default="4", metavar="N|SPEC,...",
        help="tenant count (rotates zipf/bursty/hotspot/seq) or a "
             "comma-separated workload spec list; commas inside parens "
             "are safe (default: 4)",
    )
    loadsim_parser.add_argument(
        "--arrival", default=None, metavar="SPEC[,...]",
        help="arrival process: poisson(rate=R), bursty(rate=,burst=,"
             "on=,off=), uniform(rate=R); rates in requests/kilocycle; "
             "one spec for all tenants or one per tenant "
             "(default: poisson(rate=0.05))",
    )
    loadsim_parser.add_argument(
        "--duration", type=float, default=2_000_000.0, metavar="CYCLES",
        help="arrival window in simulated cycles; in-flight requests "
             "drain afterwards (default: 2000000)",
    )
    loadsim_parser.add_argument(
        "--technique", action="append", default=[], metavar="KEY",
        help="technique to simulate; repeatable "
             "(default: sampler and lru)",
    )
    loadsim_parser.add_argument(
        "--seed", type=int, default=1,
        help="scenario seed for all arrival draws (default: 1)",
    )
    loadsim_parser.add_argument(
        "--ops", type=int, default=32,
        help="memory references per request (default: 32)",
    )
    loadsim_parser.add_argument(
        "--epochs", type=int, default=16,
        help="telemetry epochs across the arrival window (default: 16)",
    )
    loadsim_parser.add_argument(
        "--ndjson", default=None, metavar="FILE",
        help="dump each technique's run as NDJSON (summary + tenants + "
             "epoch series; multi-technique runs suffix the key)",
    )
    loadsim_parser.add_argument(
        "--csv", default=None, metavar="FILE",
        help="dump each technique's per-tenant table as CSV",
    )
    telemetry_parser = subparsers.add_parser(
        "telemetry",
        help="per-epoch time series of one (benchmark, technique) run",
    )
    telemetry_parser.add_argument("benchmark")
    telemetry_parser.add_argument("technique", nargs="?", default="sampler")
    telemetry_parser.add_argument(
        "--epochs", type=int, default=32,
        help="target epochs across the LLC stream (default: 32)",
    )
    telemetry_parser.add_argument(
        "--ndjson", default=None, metavar="FILE",
        help="dump the series as NDJSON (context header + one row/epoch)",
    )
    telemetry_parser.add_argument(
        "--csv", default=None, metavar="FILE",
        help="dump the series as CSV",
    )
    telemetry_parser.add_argument(
        "--no-accuracy", action="store_true",
        help="skip the accuracy observer (faster; drops the coverage / "
             "false-positive columns)",
    )
    report_parser = subparsers.add_parser(
        "report", help="rendered telemetry reports (sparkline tables)"
    )
    report_parser.add_argument("benchmarks", nargs="*")
    report_parser.add_argument(
        "--timeseries", action="store_true",
        help="per-benchmark phase plot: miss rate, coverage, false "
             "positives, bypass, sampler/table gauges over epochs",
    )
    report_parser.add_argument(
        "--pattern-sweep", action="store_true",
        help="miss rate / coverage / false positives with DBRB on vs off "
             "along a pattern-parameter axis (default: Zipf skew "
             "a=0.6,0.9,1.2,1.5); positional args override the axis with "
             "explicit workload specs",
    )
    report_parser.add_argument(
        "--family", default="zipf",
        help="pattern family to sweep (default: zipf)",
    )
    report_parser.add_argument(
        "--param", default=None,
        help="family parameter to sweep (default: the Zipf skew 'a')",
    )
    report_parser.add_argument(
        "--values", default=None, metavar="V1,V2,...",
        help="comma-separated axis values (default: 0.6,0.9,1.2,1.5)",
    )
    report_parser.add_argument(
        "--technique", default="sampler",
        help="technique to replay (default: sampler)",
    )
    report_parser.add_argument(
        "--epochs", type=int, default=32,
        help="target epochs across the LLC stream (default: 32)",
    )
    profile_parser = subparsers.add_parser(
        "profile", help="reuse-distance profile of one benchmark"
    )
    profile_parser.add_argument("benchmark")
    cache_parser = subparsers.add_parser(
        "cache", help="inspect or prune the compiled workload store"
    )
    cache_parser.add_argument(
        "--dir", default=None, metavar="DIR",
        help="store directory (default: REPRO_STREAM_CACHE)",
    )
    cache_parser.add_argument(
        "--footprint", action="store_true",
        help="print blob count and total size (human-readable + bytes)",
    )
    cache_parser.add_argument(
        "--evict", default=None, metavar="SELECTOR",
        help="delete entries whose workload name or key-digest prefix "
             "matches SELECTOR",
    )
    cache_parser.add_argument(
        "--clear", action="store_true",
        help="delete every entry (and stray temp files)",
    )
    serve_parser = subparsers.add_parser(
        "serve", help="run the experiment job service (docs/service.md)"
    )
    serve_parser.add_argument("--host", default="127.0.0.1")
    serve_parser.add_argument("--port", type=int, default=8035)
    serve_parser.add_argument(
        "--job-store", default=".repro-service", metavar="DIR",
        help="job records + checkpoints root (default: .repro-service)",
    )
    serve_parser.add_argument(
        "--checkpoint-dir", default=None, metavar="DIR",
        help="result checkpoint store (default: <job-store>/checkpoints; "
             "point it at a sweep's store to share results with the CLI)",
    )
    serve_parser.add_argument(
        "--stream-cache", default=None, metavar="DIR",
        help="compiled workload store (default: REPRO_STREAM_CACHE or off)",
    )
    serve_parser.add_argument(
        "--shm", action="store_true",
        help="shared-memory workload fan-out to batch workers "
             "(default: REPRO_SHM or off)",
    )
    serve_parser.add_argument(
        "--jobs", type=int, default=None,
        help="worker processes per batch (default: REPRO_JOBS or 1)",
    )
    serve_parser.add_argument(
        "--queue-depth", type=int, default=256,
        help="max queued cells before submissions get 429 (default: 256)",
    )
    serve_parser.add_argument(
        "--fleet", action="store_true",
        help="dispatch cells to remote `repro worker` processes under "
             "time-bounded leases instead of a local process pool",
    )
    serve_parser.add_argument(
        "--lease-ttl", type=float, default=None, metavar="SECONDS",
        help="lease time-to-live before re-dispatch "
             "(default: REPRO_LEASE_TTL or 60)",
    )
    serve_parser.add_argument(
        "--heartbeat-sec", type=float, default=None, metavar="SECONDS",
        help="worker heartbeat interval "
             "(default: REPRO_HEARTBEAT_SEC or 5)",
    )
    serve_parser.add_argument(
        "--lease-cells", type=int, default=None,
        help="max cells per lease (default: 4)",
    )
    worker_parser = subparsers.add_parser(
        "worker", help="join a fleet-mode service as a worker"
    )
    worker_parser.add_argument(
        "--connect", "--url", dest="connect", required=True,
        metavar="URL", help="fleet-mode service base URL",
    )
    worker_parser.add_argument(
        "--name", default=None, help="worker name (default: host-pid)"
    )
    worker_parser.add_argument(
        "--stream-cache", default=None, metavar="DIR",
        help="local compiled workload store "
             "(default: REPRO_STREAM_CACHE or in-memory only)",
    )
    worker_parser.add_argument(
        "--max-cells", type=int, default=None,
        help="cap cells per lease (default: server's lease size)",
    )
    worker_parser.add_argument(
        "--once", action="store_true",
        help="exit when the fleet has no queued or leased cells left",
    )
    worker_parser.add_argument(
        "--poll", type=float, default=None, metavar="SECONDS",
        help="idle re-poll interval (default: server's hint)",
    )
    submit_parser = subparsers.add_parser(
        "submit", help="submit a cell or sweep to a running service"
    )
    submit_parser.add_argument("benchmark", nargs="?", default=None)
    submit_parser.add_argument("techniques", nargs="*")
    submit_parser.add_argument(
        "--url", default="http://127.0.0.1:8035", help="service base URL"
    )
    submit_parser.add_argument(
        "--sweep", action="store_true",
        help="expand into the full grid (baseline + every technique); "
             "with no benchmark, the single-thread subset",
    )
    submit_parser.add_argument("--client", default="cli", help="client id for fair-share")
    submit_parser.add_argument("--priority", type=int, default=0,
                               help="lower runs sooner (default: 0)")
    submit_parser.add_argument("--scale", type=int, default=None)
    submit_parser.add_argument("--instructions", type=int, default=None)
    submit_parser.add_argument("--seed", type=int, default=None)
    submit_parser.add_argument("--cores", type=int, default=None)
    submit_parser.add_argument("--wait", action="store_true",
                               help="block until the job finishes")
    submit_parser.add_argument("--stream", action="store_true",
                               help="stream NDJSON progress events to stdout")
    submit_parser.add_argument("--timeout", type=float, default=None,
                               help="give up waiting after this many seconds")
    submit_parser.add_argument("--json", default=None, metavar="FILE",
                               help="write the result JSON here (implies --wait)")
    jobs_parser = subparsers.add_parser(
        "jobs", help="list, inspect, or cancel service jobs"
    )
    jobs_parser.add_argument("job_id", nargs="?", default=None)
    jobs_parser.add_argument(
        "--url", default="http://127.0.0.1:8035", help="service base URL"
    )
    jobs_parser.add_argument("--cancel", default=None, metavar="JOB_ID")
    jobs_parser.add_argument("--stats", action="store_true",
                             help="print GET /v1/stats")
    trace_parser = subparsers.add_parser(
        "trace", help="manage the content-addressed external trace library"
    )
    trace_sub = trace_parser.add_subparsers(dest="trace_command", required=True)
    trace_import = trace_sub.add_parser(
        "import", help="bring an external trace file under the library"
    )
    trace_import.add_argument("file", help="trace file (text or .gz)")
    trace_import.add_argument(
        "--name", default=None,
        help="library name (default: the trace's embedded name)",
    )
    trace_import.add_argument(
        "--lib", default=None, metavar="DIR",
        help="library root (default: REPRO_TRACE_LIB or .repro-traces)",
    )
    trace_list = trace_sub.add_parser(
        "list", help="list imported traces and their replay specs"
    )
    trace_list.add_argument(
        "--lib", default=None, metavar="DIR",
        help="library root (default: REPRO_TRACE_LIB or .repro-traces)",
    )
    subparsers.add_parser("storage", help="print Table I")
    subparsers.add_parser("power", help="print Table II")

    args = parser.parse_args(argv)
    handlers = {
        "info": _cmd_info,
        "run": _cmd_run,
        "suite": _cmd_suite,
        "telemetry": _cmd_telemetry,
        "loadsim": _cmd_loadsim,
        "report": _cmd_report,
        "profile": _cmd_profile,
        "cache": _cmd_cache,
        "serve": _cmd_serve,
        "worker": _cmd_worker,
        "submit": _cmd_submit,
        "jobs": _cmd_jobs,
        "trace": _cmd_trace,
        "storage": _cmd_storage,
        "power": _cmd_power,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
