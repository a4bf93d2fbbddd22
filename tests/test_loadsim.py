"""Load-simulator tests: arrivals, determinism, golden and output pins.

The subsystem's contract (docs/loadsim.md): a run is a pure function of
``(tenants, arrival specs, seed, technique)``.  The hypothesis property
pins that byte-for-byte -- identical inputs give identical event-log
digests and latency series, distinct seeds give distinct logs -- and a
golden test with metronome (``uniform``) arrivals pins the nearest-rank
latency percentiles of a fixed scenario to exact values.
"""

from __future__ import annotations

import hashlib
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.harness.experiments import loadsim_experiment
from repro.harness.runner import ExperimentConfig, WorkloadCache
from repro.loadsim import (
    ArrivalSpecError,
    LoadScenario,
    TenantSpec,
    parse_arrival_spec,
    prepare_scenario,
    resolve_tenant_specs,
    split_specs,
    write_csv,
    write_ndjson,
)
from repro.smoke import LOADSIM_SCENARIO
from repro.utils.rng import XorShift64
from repro.workloads.patterns import WorkloadSpecError

pytestmark = pytest.mark.loadsim

#: One tiny machine + workload set shared by every test in the module
#: (trace generation dominates the cost; the simulations are cheap).
CONFIG = ExperimentConfig(scale=32, instructions=8_000, seed=1, num_cores=2)
_CACHE = None


def workload_cache() -> WorkloadCache:
    global _CACHE
    if _CACHE is None:
        _CACHE = WorkloadCache(CONFIG)
    return _CACHE


def small_scenario(seed: int = 5, arrival: str = "poisson(rate=1)",
                   duration: float = 30_000.0) -> LoadScenario:
    return LoadScenario(
        tenants=(
            TenantSpec(workload="zipf(a=1.2)", arrival=arrival),
            TenantSpec(workload="hotspot", arrival=arrival),
        ),
        duration=duration,
        seed=seed,
        epochs=4,
    )


# ----------------------------------------------------------------------
# arrival processes and spec parsing
# ----------------------------------------------------------------------
class TestArrivals:
    def test_canonical_specs(self):
        assert parse_arrival_spec("poisson").spec == "poisson(rate=2)"
        assert parse_arrival_spec("poisson(rate=0.5)").spec == "poisson(rate=0.5)"
        assert parse_arrival_spec(" uniform( rate=4 ) ").spec == "uniform(rate=4)"
        assert (
            parse_arrival_spec("bursty(burst=4,rate=1)").spec
            == "bursty(rate=1,burst=4,on=2000,off=8000)"
        )

    def test_unknown_family_and_params_raise(self):
        with pytest.raises(ArrivalSpecError, match="unknown arrival family"):
            parse_arrival_spec("pareto(rate=1)")
        with pytest.raises(ArrivalSpecError, match="unknown parameter"):
            parse_arrival_spec("poisson(burst=2)")
        with pytest.raises(ArrivalSpecError, match="must be a number"):
            parse_arrival_spec("poisson(rate=fast)")
        with pytest.raises(ArrivalSpecError, match="malformed"):
            parse_arrival_spec("poisson(rate=1")
        with pytest.raises(ArrivalSpecError, match="rate must be positive"):
            parse_arrival_spec("poisson(rate=0)")
        with pytest.raises(ArrivalSpecError, match="burst multiplier"):
            parse_arrival_spec("bursty(burst=0.5)")

    @pytest.mark.parametrize("spec,key", [
        ("uniform(rate=inf)", "rate"),
        ("poisson(rate=inf)", "rate"),
        ("poisson(rate=nan)", "rate"),
        ("bursty(rate=1,burst=inf)", "burst"),
        ("bursty(rate=1,off=nan)", "off"),
    ])
    def test_non_finite_params_raise(self, spec, key):
        with pytest.raises(ArrivalSpecError, match=f"{key} must be finite"):
            parse_arrival_spec(spec)

    def test_uniform_is_a_metronome(self):
        process = parse_arrival_spec("uniform(rate=4)")
        rng = XorShift64(1)
        assert [process.next_gap(rng) for _ in range(3)] == [250.0] * 3

    def test_random_processes_are_seed_deterministic(self):
        for spec in ("poisson(rate=2)", "bursty(rate=1,burst=8)"):
            first = parse_arrival_spec(spec)
            second = parse_arrival_spec(spec)
            gaps_a = [first.next_gap(XorShift64(9)) for _ in range(1)]
            # fresh processes + equal rng streams -> equal gap streams
            rng_a, rng_b = XorShift64(9), XorShift64(9)
            first, second = parse_arrival_spec(spec), parse_arrival_spec(spec)
            gaps_a = [first.next_gap(rng_a) for _ in range(50)]
            gaps_b = [second.next_gap(rng_b) for _ in range(50)]
            assert gaps_a == gaps_b
            assert all(gap > 0 for gap in gaps_a)

    def test_split_specs_respects_parens(self):
        assert split_specs("zipf(a=1.2,seed=7),mcf, hotspot ") == [
            "zipf(a=1.2,seed=7)", "mcf", "hotspot",
        ]
        assert split_specs("") == []
        assert split_specs("poisson(rate=1)") == ["poisson(rate=1)"]
        assert split_specs("mcf,,zipf") == ["mcf", "zipf"]

    @pytest.mark.parametrize("text", ["zipf(a=1.2,mcf", "mcf),zipf(a=1.2"])
    def test_split_specs_rejects_unbalanced_parens(self, text):
        with pytest.raises(WorkloadSpecError, match="unbalanced"):
            split_specs(text)
        with pytest.raises(ValueError):
            resolve_tenant_specs(text)

    def test_resolve_tenant_specs(self):
        tenants = resolve_tenant_specs("3")
        assert [t.workload for t in tenants] == ["zipf(a=1.2)", "bursty", "hotspot"]
        assert len({t.arrival for t in tenants}) == 1
        tenants = resolve_tenant_specs(
            "mcf,zipf(a=0.9)", "poisson(rate=1),uniform(rate=2)"
        )
        assert [(t.workload, t.arrival) for t in tenants] == [
            ("mcf", "poisson(rate=1)"), ("zipf(a=0.9)", "uniform(rate=2)"),
        ]
        with pytest.raises(ValueError, match="arrival specs for"):
            resolve_tenant_specs("3", "poisson,uniform")
        with pytest.raises(ValueError, match="count must be >= 1"):
            resolve_tenant_specs("0")


# ----------------------------------------------------------------------
# the determinism contract
# ----------------------------------------------------------------------
class TestDeterminism:
    @settings(max_examples=8, deadline=None)
    @given(
        seed=st.integers(min_value=1, max_value=2**16),
        rate=st.sampled_from(["0.5", "1", "2"]),
        technique=st.sampled_from(["sampler", "lru"]),
    )
    def test_identical_inputs_identical_run(self, seed, rate, technique):
        scenario = small_scenario(seed=seed, arrival=f"poisson(rate={rate})")
        prepared = prepare_scenario(workload_cache(), scenario)
        first = prepared.run(technique)
        second = prepared.run(technique)
        assert first.events == second.events
        assert first.event_log_digest() == second.event_log_digest()
        assert first.latency_series == second.latency_series
        assert first.to_dict() == second.to_dict()

    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(min_value=1, max_value=2**16))
    def test_distinct_seeds_distinct_logs(self, seed):
        prepared_a = prepare_scenario(workload_cache(), small_scenario(seed=seed))
        prepared_b = prepare_scenario(
            workload_cache(), small_scenario(seed=seed + 1)
        )
        run_a = prepared_a.run("lru")
        run_b = prepared_b.run("lru")
        assert run_a.event_log_digest() != run_b.event_log_digest()

    def test_arrivals_are_technique_independent(self):
        prepared = prepare_scenario(workload_cache(), small_scenario())
        sampler = prepared.run("sampler")
        lru = prepared.run("lru")
        arr = [e for e in sampler.events if e[0] == "arr"]
        assert arr == [e for e in lru.events if e[0] == "arr"]
        assert [t.arrived for t in sampler.tenants] == [
            t.arrived for t in lru.tenants
        ]
        assert sampler.llc_stats.accesses == lru.llc_stats.accesses

    def test_run_leaves_the_shared_workload_stream_intact(self):
        """Tenants replay private streams: a run writes each access's
        ``seq``, which must not leak into the workload's cached LLC
        stream -- every other replay shares it, and optimal requires
        ``seq`` to be the stream position."""
        cache = workload_cache()
        scenario = small_scenario()
        prepared = prepare_scenario(cache, scenario)
        shared = cache.filtered(scenario.tenants[0].workload).llc_stream(
            prepared.geometry
        )
        assert prepared.tenants[0].stream is not shared
        result = prepared.run("lru")
        assert result.tenants[0].llc_accesses > 0
        assert [a.seq for a in shared.accesses] == list(range(len(shared)))

    def test_optimal_is_rejected(self):
        prepared = prepare_scenario(workload_cache(), small_scenario())
        with pytest.raises(ValueError, match="future access stream"):
            prepared.run("optimal")


# ----------------------------------------------------------------------
# the golden scenario: metronome arrivals, pinned percentiles
# ----------------------------------------------------------------------
def golden_result(technique: str = "lru"):
    scenario = LoadScenario(
        tenants=(TenantSpec(workload="seq", arrival="uniform(rate=0.2)"),),
        duration=60_000.0,
        seed=3,
        ops=16,
        epochs=4,
    )
    return prepare_scenario(workload_cache(), scenario).run(technique)


class TestGoldenScenario:
    """``uniform`` draws nothing from the RNG and ``seq`` misses every
    LLC access on its first pass, so every latency in this scenario is
    exact integer arithmetic: 12 arrivals, 5000-cycle gaps, 16 misses
    x 200 cycles = 3200 cycles service, no queueing.  Any change to the
    latency accounting, the percentile definition, or the event
    ordering moves these numbers."""

    def test_pinned_percentiles(self):
        result = golden_result()
        assert sum(t.arrived for t in result.tenants) == 11
        assert result.latency_series == [3200.0] * 11
        assert result.p50 == 3200.0
        assert result.p95 == 3200.0
        assert result.p99 == 3200.0
        assert result.mean_latency == 3200.0
        assert result.fairness == 1.0
        assert result.llc_stats.miss_rate == 1.0

    def test_pinned_tenant_counters(self):
        result = golden_result()
        tenant = result.tenants[0]
        assert tenant.llc_accesses == 11 * 16
        assert tenant.llc_misses == 11 * 16
        # seq retires 5 instructions per LLC access (gap 4 + the access)
        assert tenant.instructions == 11 * 16 * 5
        assert tenant.mpki == 200.0
        assert tenant.throughput == pytest.approx(11 / 60.0)

    def test_golden_digest_stable_across_techniques(self):
        # seq's first pass misses everywhere under any policy, so even
        # the completion events agree here.
        assert (
            golden_result("lru").event_log_digest()
            == golden_result("sampler").event_log_digest()
        )


@pytest.mark.parametrize("technique", ["lru", "sampler"])
def test_tenant_counters_add_up_to_the_llc_stats(technique):
    """The run counts LLC accesses and misses per request; summed over
    tenants they must equal the shared LLC's own counters."""
    four_tenants = LoadScenario(
        tenants=tuple(
            TenantSpec(workload=workload, arrival="poisson(rate=1)")
            for workload in ("zipf(a=1.2)", "bursty", "hotspot", "seq")
        ),
        duration=30_000.0,
        seed=5,
        epochs=4,
    )
    busy = prepare_scenario(workload_cache(), four_tenants).run(technique)
    assert busy.llc_stats.hits > 0 and busy.llc_stats.misses > 0
    for result in (golden_result(technique), busy):
        stats = result.llc_stats
        assert sum(t.llc_accesses for t in result.tenants) == stats.accesses
        assert sum(t.llc_misses for t in result.tenants) == stats.misses


# ----------------------------------------------------------------------
# output pins: event order, tie order and epoch positions, bit for bit
# ----------------------------------------------------------------------
#: The scenarios whose full output is pinned.  ``four-poisson`` is the
#: scenario of ``test_tenant_counters_add_up_to_the_llc_stats``.
#: ``four-uniform`` runs metronomes: tenants 0 and 1 arrive together
#: every 2500 cycles, and the epoch boundaries (every 7500 cycles) land
#: on arrivals of tenants 0, 1 and 3 (and of tenant 2 at 15000), so
#: cross-tenant ties and epoch-on-arrival ties decide the order.
#: ``smoke`` is the bursty scenario of ``make loadsim-smoke``.
PIN_SCENARIOS = {
    "four-poisson": LoadScenario(
        tenants=tuple(
            TenantSpec(workload=workload, arrival="poisson(rate=1)")
            for workload in ("zipf(a=1.2)", "bursty", "hotspot", "seq")
        ),
        duration=30_000.0,
        seed=5,
        epochs=4,
    ),
    "four-uniform": LoadScenario(
        tenants=(
            TenantSpec(workload="zipf(a=1.2)", arrival="uniform(rate=0.4)"),
            TenantSpec(workload="bursty", arrival="uniform(rate=0.4)"),
            TenantSpec(workload="hotspot", arrival="uniform(rate=0.2)"),
            TenantSpec(workload="seq", arrival="uniform(rate=0.8)"),
        ),
        duration=30_000.0,
        seed=5,
        epochs=4,
    ),
    "smoke": LOADSIM_SCENARIO,
}

#: (scenario, technique) -> sha256 prefixes of the run's outputs.
OUTPUT_PINS = {
    ("four-poisson", "sampler"): {
        "events": "feb8855b27a80dcf",
        "latency_series": "ae74a7b8ab48d44e",
        "samples": "6fd93682c7593ebd",
        "result": "54b23d0b95f35a2d",
        "tenants": "962ca9613ab324f4",
    },
    ("four-poisson", "lru"): {
        "events": "feb8855b27a80dcf",
        "latency_series": "ae74a7b8ab48d44e",
        "samples": "a48f1338a0b238d4",
        "result": "f4ff7c64cd699f73",
        "tenants": "962ca9613ab324f4",
    },
    ("four-uniform", "sampler"): {
        "events": "4d89319fed5f7503",
        "latency_series": "bd1eab87a270665d",
        "samples": "533f0781daf05d79",
        "result": "5699569867ca8c14",
        "tenants": "585df896fd0ef660",
    },
    ("four-uniform", "lru"): {
        "events": "4d89319fed5f7503",
        "latency_series": "bd1eab87a270665d",
        "samples": "08f1d7d85198aceb",
        "result": "8818b2184ec0679f",
        "tenants": "585df896fd0ef660",
    },
    ("smoke", "sampler"): {
        "events": "b1eb1db83a08aad5",
        "latency_series": "1d3859351116f601",
        "samples": "f14c3a40496e85bd",
        "result": "7b3624582284795c",
        "tenants": "113eceb96f24d6d3",
    },
    ("smoke", "lru"): {
        "events": "1d7a81596ce49548",
        "latency_series": "9a715294ffa3aab7",
        "samples": "36c99ee70340149e",
        "result": "5ebda4a9c99b0915",
        "tenants": "bfdf77a1eb4c8441",
    },
}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def output_digests(result) -> dict:
    return {
        "events": result.event_log_digest()[:16],
        "latency_series": _sha(repr(result.latency_series)),
        "samples": _sha(json.dumps(
            [sample.to_dict() for sample in result.recorder.samples],
            sort_keys=True,
        )),
        "result": _sha(json.dumps(result.to_dict(), sort_keys=True)),
        "tenants": _sha(json.dumps(
            [report.to_dict() for report in result.tenants], sort_keys=True
        )),
    }


@pytest.mark.parametrize("name", sorted(PIN_SCENARIOS))
def test_outputs_match_their_pins(name):
    prepared = prepare_scenario(workload_cache(), PIN_SCENARIOS[name])
    for technique in ("sampler", "lru"):
        assert output_digests(prepared.run(technique)) == (
            OUTPUT_PINS[name, technique]
        ), (name, technique)


# ----------------------------------------------------------------------
# harness + exporters + telemetry integration
# ----------------------------------------------------------------------
class TestIntegration:
    def test_loadsim_experiment_matches_direct_run(self):
        scenario = small_scenario(seed=11)
        comparison = loadsim_experiment(
            workload_cache(), scenario, ("sampler", "lru")
        )
        direct = prepare_scenario(workload_cache(), scenario).run("sampler")
        assert comparison.results["sampler"].to_dict() == direct.to_dict()
        rows = comparison.rows()
        assert rows[0][0] == "technique"
        assert [row[0] for row in rows[1:]] == ["sampler", "lru"]
        tenant_rows = comparison.tenant_rows()
        assert len(tenant_rows) == 1 + len(scenario.tenants)

    def test_interval_series_convention(self):
        result = prepare_scenario(workload_cache(), small_scenario()).run("lru")
        recorder = result.recorder
        assert recorder.context["technique"] == "lru"
        assert recorder.context["tenants"] == 2
        assert len(recorder.samples) == 4
        assert sum(s.accesses for s in recorder.samples) == (
            result.llc_stats.accesses
        )
        assert recorder.samples[-1].end == result.llc_stats.accesses
        # positions are cumulative LLC access counts, monotonically
        # non-decreasing across epoch boundaries
        ends = [s.end for s in recorder.samples]
        assert ends == sorted(ends)

    def test_ndjson_roundtrip(self):
        result = prepare_scenario(workload_cache(), small_scenario()).run("lru")
        buffer = io.StringIO()
        write_ndjson(result, buffer)
        rows = [json.loads(line) for line in buffer.getvalue().splitlines()]
        assert rows[0]["kind"] == "loadsim"
        assert rows[0]["event_log_digest"] == result.event_log_digest()
        kinds = [row["kind"] for row in rows]
        assert kinds.count("tenant") == 2
        assert kinds.count("epoch") == len(result.recorder.samples)

    def test_csv_has_one_row_per_tenant(self):
        result = prepare_scenario(workload_cache(), small_scenario()).run("lru")
        buffer = io.StringIO()
        write_csv(result, buffer)
        lines = buffer.getvalue().strip().splitlines()
        assert lines[0].startswith("workload,arrival,arrived")
        assert len(lines) == 1 + 2

    def test_scenario_validation(self):
        with pytest.raises(ValueError, match="at least one tenant"):
            LoadScenario(tenants=())
        with pytest.raises(ValueError, match="duration must be positive"):
            LoadScenario(
                tenants=(TenantSpec("seq", "poisson"),), duration=0.0
            )
        with pytest.raises(ValueError, match="epochs must be >= 1"):
            LoadScenario(
                tenants=(TenantSpec("seq", "poisson"),), epochs=0
            )
        for duration in (float("inf"), float("nan")):
            with pytest.raises(ValueError, match="positive and finite"):
                LoadScenario(
                    tenants=(TenantSpec("seq", "poisson"),), duration=duration
                )
        with pytest.raises(ValueError, match="ops per request must be positive"):
            LoadScenario(tenants=(TenantSpec("seq", "poisson"),), ops=0)
        with pytest.raises(ValueError, match="3 tenants: the shared LLC"):
            LoadScenario(tenants=(TenantSpec("seq", "poisson"),) * 3)

    def test_cli_rejects_a_tenant_count_the_llc_cannot_hold(self):
        from repro.__main__ import main

        with pytest.raises(SystemExit, match="loadsim: 3 tenants"):
            main(["loadsim", "--tenants", "3"])
