"""The reproduction's benchmark: Figure-4 sweeps cold and warm, and loadsim.

    python3 perfbench/run.py --workload fig4-cold --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all            # every workload, seed 1

Each repetition runs in a fresh process (``rep.py``): set-up, then the
timed body.  Repetitions continue while another one is expected to end
inside ``--seconds`` (at least three), and every end-to-end metric is
the median over them; body times are scaled to the reference host speed.
With ``--trace 1`` half the window runs untraced, then one traced
repetition yields the per-layer metrics, the stage table, and the
tracing overhead against the untraced median.

Every operation's checked output (a Figure-4 cell's LLC statistics and
cycles, a loadsim run's event log and percentiles) is compared with the
digests pinned in ``expected.json`` for that seed, or, for a seed with
no pins, with the first repetition.  A mismatch counts in ``failed``.
The last line printed is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  See README.md for the metric definitions.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from bodies import WORKLOADS  # noqa: E402  (imports nothing from src/ until run)

EXPECTED = HERE / "expected.json"
SCRATCH = ROOT / ".perfbench-tmp"

MIN_REPS = 3
REP_TIMEOUT_S = 120


def load_units() -> Dict[str, str]:
    """Each metric's unit, as ``BENCHMARK.json`` declares it."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


# ----------------------------------------------------------------------
# checked outputs
# ----------------------------------------------------------------------
def count_failures(reference: Dict[str, str], runs: List[Dict[str, str]]) -> Tuple[int, int]:
    """``(attempted, failed)`` over every run's outputs against a reference.

    Each reference operation is attempted once per run; it fails when the
    run's output is missing or differs (an error string never matches a
    digest).
    """
    attempted = failed = 0
    for outputs in runs:
        for op, digest in reference.items():
            attempted += 1
            if outputs.get(op) != digest:
                failed += 1
    return attempted, failed


def load_expected(workload: str, seed: int) -> Optional[Dict[str, str]]:
    if not EXPECTED.exists():
        return None
    table = json.loads(EXPECTED.read_text(encoding="utf-8"))
    return table.get(WORKLOADS[workload][2], {}).get(str(seed))


def write_expected(workload: str, seed: int, outputs: Dict[str, str]) -> None:
    table = json.loads(EXPECTED.read_text(encoding="utf-8")) if EXPECTED.exists() else {}
    table.setdefault(WORKLOADS[workload][2], {})[str(seed)] = dict(sorted(outputs.items()))
    EXPECTED.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")


# ----------------------------------------------------------------------
# repetitions
# ----------------------------------------------------------------------
class RepFailed(RuntimeError):
    pass


def run_rep(workload: str, seed: int, trace: bool) -> Dict:
    """One repetition in a fresh interpreter; returns its JSON report."""
    SCRATCH.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(dir=SCRATCH)
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "rep.py"), workload, str(seed),
             "1" if trace else "0", workdir],
            cwd=ROOT, capture_output=True, text=True, timeout=REP_TIMEOUT_S,
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if proc.returncode != 0:
        raise RepFailed(
            f"{workload} repetition exited {proc.returncode}:\n{proc.stderr[-4000:]}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_reps(workload: str, seed: int, seconds: float, min_reps: int) -> List[Dict]:
    """At least ``min_reps`` repetitions; then more while another one is
    expected to end inside the ``seconds`` window."""
    reps: List[Dict] = []
    start = time.perf_counter()
    while True:
        rep_start = time.perf_counter()
        reps.append(run_rep(workload, seed, trace=False))
        now = time.perf_counter()
        if len(reps) >= min_reps and now + (now - rep_start) - start > seconds:
            return reps


def end_to_end(reps: List[Dict]) -> Dict[str, float]:
    """The run's end-to-end metrics: medians over its repetitions.

    The body's times are each repetition's, scaled to the reference host
    speed (``rep.SpeedProbe``; README.md, *Noise*).
    """
    median = statistics.median
    metrics = {
        "setup_s": median(r["setup_s"] for r in reps),
        "wall_s": median(r["wall_s"] for r in reps),
        "cpu_s": median(r["cpu_s"] for r in reps),
        "peak_rss_mb": median(r["peak_rss_mb"] for r in reps),
    }
    # A repetition whose every operation failed replayed no access.
    per_access = [r["wall_s"] / r["llc_accesses"] * 1e6 for r in reps if r["llc_accesses"]]
    if per_access:
        metrics["host_us_per_llc_access"] = median(per_access)
    return metrics


def measure(workload: str, seed: int, seconds: float, trace: bool,
            pin: bool = False) -> Dict:
    """Run one workload; returns the result object printed as the last line."""
    if trace:
        reps = run_reps(workload, seed, seconds / 2, min_reps=2)
        traced = run_rep(workload, seed, trace=True)
    else:
        reps = run_reps(workload, seed, seconds, MIN_REPS)
        traced = None
    units = load_units()
    untraced = end_to_end(reps)
    # Re-pinning checks only that the repetitions agree with each other.
    expected = None if pin else load_expected(workload, seed)
    reference = expected if expected is not None else reps[0]["outputs"]
    runs = [r["outputs"] for r in reps] + ([traced["outputs"]] if traced else [])
    attempted, failed = count_failures(reference, runs)
    if pin and failed == 0:
        write_expected(workload, seed, reps[0]["outputs"])

    print(f"== {workload}  seed {seed}  {len(reps)} untraced repetitions"
          f"{' + 1 traced' if traced else ''}"
          f"  (reference: {'pinned' if expected is not None else 'first repetition'})")
    for name, value in untraced.items():
        print(f"  {name:<26} {value:>14.6f} {units[name]}  (median)")
    print(f"  {'host slowdown':<26} {statistics.median(r['slowdown'] for r in reps):>14.6f}"
          f" x  (median; body times above are divided by it)")
    print(f"  {'ops':<26} {attempted:>14d} count")
    print(f"  {'ops_failed':<26} {failed:>14d} count")
    for op, digest in sorted(reference.items()):
        bad = [r.get(op) for r in runs if r.get(op) != digest]
        if bad:
            print(f"  MISMATCH {op}: expected {digest}, got {bad[0]}")

    if traced is None:
        metrics = untraced
    else:
        metrics = dict(traced["layers"])
        metrics["trace.overhead_s"] = (
            traced["wall_s"] - statistics.median(r["wall_s"] for r in reps)
        )
        print(traced["stage_table"])
        for name, value in metrics.items():
            print(f"  {name:<44} {value:>16.6f} {units[name]}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=list(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pin", action="store_true",
                        help="write this seed's outputs to expected.json when "
                             "every repetition agrees")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no simulator sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    workloads = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        results = {
            name: measure(name, args.seed, args.seconds, bool(args.trace), args.pin)
            for name in workloads
        }
    except (RepFailed, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)

    if len(results) == 1:
        (result,) = results.values()
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{name}.{metric}": value
                for name, r in results.items()
                for metric, value in r["metrics"].items()
            },
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
