# Convenience targets for the reproduction.

PYTHON ?= python

# Let every target run from a fresh clone, installed or not.
export PYTHONPATH := src:$(PYTHONPATH)

.PHONY: install test test-faults test-service test-fleet test-workloads test-loadsim lint check bench bench-smoke serve-smoke fleet-smoke loadsim-smoke figures figures-fast results clean clean-cache help

# The compiled workload store (see docs/performance.md).  `make clean`
# leaves it alone -- warm starts are the point; `make clean-cache`
# removes it explicitly.
REPRO_STREAM_CACHE ?= .repro-cache

help:
	@echo "install      editable install (falls back to setup.py develop)"
	@echo "test         run the unit/property test suite and perfbench's self-tests"
	@echo "test-faults  fault-injection / supervision tests only (hard per-test deadlines)"
	@echo "test-service experiment-service tests only (hard per-test deadlines)"
	@echo "test-fleet   worker-fleet tests only: leases, heartbeats, re-dispatch, chaos (hard per-test deadlines)"
	@echo "test-workloads pattern-generator and trace-replay tests only (hard per-test deadlines)"
	@echo "test-loadsim load-simulator tests only: arrivals, determinism, golden percentiles, output pins (hard per-test deadlines)"
	@echo "lint         ruff check (skips with a notice when ruff is not installed)"
	@echo "check        lint + test suite + bench-smoke + serve-smoke + fleet-smoke + loadsim-smoke (the default pre-commit gate)"
	@echo "bench        kernel/store/pattern/loadsim throughput gates, full budget -> BENCH_THROUGHPUT.json"
	@echo "bench-smoke  the same gates at a tiny budget (seconds) -> BENCH_THROUGHPUT.json"
	@echo "serve-smoke  boot the job service, run a benchmark and a Zipf sweep through the client SDK; bit-identical to serial, full dedup, 400 for bad specs"
	@echo "fleet-smoke  chaos gate: fleet server + 2 workers, one chaos-killed mid-lease; re-dispatch must yield a bit-identical sweep"
	@echo "loadsim-smoke tiny 2-tenant load simulation, DBRB vs LRU; asserts byte-identical determinism and non-degenerate latency percentiles"
	@echo "figures      regenerate every paper table and figure"
	@echo "figures-fast quick figure pass (scale 1/32, short traces)"
	@echo "results      show the rendered experiment tables"
	@echo "clean        remove caches and generated results (keeps the workload store)"
	@echo "clean-cache  remove the compiled workload store ($(REPRO_STREAM_CACHE))"

install:
	$(PYTHON) -m pip install -e . || $(PYTHON) setup.py develop

# No path argument: pytest's testpaths (pyproject.toml) cover tests/
# and perfbench's self-tests.
test:
	$(PYTHON) -m pytest

# The fault-injection tests kill, stall, and time out sweep workers on
# purpose; each runs under a hard SIGALRM deadline (see tests/conftest.py)
# so a hang regression fails fast instead of wedging the suite.
test-faults:
	$(PYTHON) -m pytest tests/ -m faults

# The service tests boot a real asyncio job server (ephemeral ports,
# spawn pools); they carry the same hard SIGALRM deadlines so a hung
# server fails fast instead of wedging tier-1.
test-service:
	$(PYTHON) -m pytest tests/ -m service

# The fleet tests exercise lease-based dispatch, heartbeat expiry,
# journal recovery, and chaos injection against real worker code; same
# hard per-test deadlines as the other liveness-sensitive suites.
test-fleet:
	$(PYTHON) -m pytest tests/ -m fleet

# Pattern-generator and trace-replay tests: spec grammar, hypothesis
# determinism, library round-trips, content-addressed key regressions.
test-workloads:
	$(PYTHON) -m pytest tests/ -m workloads

# Load-simulator tests: arrival processes and scenario validation, the
# byte-identical determinism property, and the golden percentile and
# output pins.
test-loadsim:
	$(PYTHON) -m pytest tests/ -m loadsim

# Lint config lives in pyproject.toml ([tool.ruff]).  Ruff is optional --
# environments without it (e.g. the hermetic CI container) skip the gate
# with a notice rather than failing the whole check.
lint:
	@if $(PYTHON) -m ruff --version >/dev/null 2>&1; then \
		$(PYTHON) -m ruff check src tests benchmarks examples; \
	elif command -v ruff >/dev/null 2>&1; then \
		ruff check src tests benchmarks examples; \
	else \
		echo "lint: ruff not installed, skipping (pip install ruff to enable)"; \
	fi

# `test` already runs the faults-marked tests under the same deadlines,
# so `check` does not run test-faults a second time.
check: lint test bench-smoke serve-smoke fleet-smoke loadsim-smoke

bench:
	$(PYTHON) benchmarks/bench_throughput.py

bench-smoke:
	$(PYTHON) benchmarks/bench_throughput.py --smoke

# The smoke scenarios live in src/repro/smoke.py; each runs under a hard
# SIGALRM deadline so a wedged server or event loop fails loudly.
#
# Boots a real job server on an ephemeral port (parallel workers +
# stream store + shared-memory streams), runs a benchmark sweep and a
# two-point Zipf-skew sweep through the client SDK, and requires
# bit-identity with the serial harness path, full dedup on
# resubmission, and a 400 with a closest-match suggestion for a
# misspelled pattern family.
serve-smoke:
	$(PYTHON) -m repro.smoke serve

# Boots a fleet-mode server plus two real `repro worker` subprocesses,
# chaos-kills one mid-lease (REPRO_CHAOS=kill:1@1), and requires the
# re-dispatched sweep to come out bit-identical to the serial run with
# the re-dispatch/dedup counters visible in /v1/stats.
fleet-smoke:
	$(PYTHON) -m repro.smoke fleet

# Tiny 2-tenant load-simulation scenario, DBRB vs LRU: re-runs must be
# byte-identical (event-log digest + latency series), both techniques
# must see the same arrivals, and the latency percentiles must be
# non-degenerate.
loadsim-smoke:
	$(PYTHON) -m repro.smoke loadsim

figures:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

figures-fast:
	REPRO_SCALE=32 REPRO_INSTRUCTIONS=80000 $(PYTHON) -m pytest benchmarks/ --benchmark-only

results:
	@for f in benchmarks/results/*.txt; do echo; cat $$f; done

# The committed per-PR bench reports are read-only history and must
# survive a clean; every other BENCH_*.json at the repo root (e.g.
# BENCH_THROUGHPUT) is a dropping from a local bench run.  The compiled workload store is
# deliberately NOT cleaned here -- that is what clean-cache is for.
clean:
	rm -rf .pytest_cache .hypothesis .benchmarks benchmarks/results src/repro.egg-info
	find . -maxdepth 1 -name 'BENCH_*.json' ! -name 'BENCH_PR*.json' -delete
	find . -name __pycache__ -type d -exec rm -rf {} +

clean-cache:
	rm -rf $(REPRO_STREAM_CACHE)
