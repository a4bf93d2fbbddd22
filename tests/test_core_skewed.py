"""Tests for the skewed counter tables."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.skewed import SkewedCounterTable


class TestConstruction:
    def test_paper_configuration(self):
        tables = SkewedCounterTable()
        assert tables.num_tables == 3
        assert len(tables.tables[0]) == 4096
        assert tables.threshold == 8
        assert tables.counter_max == 3

    def test_paper_storage_is_3kb(self):
        # Table I: "3 x 1KB tables" = 3KB of predictor tables.
        tables = SkewedCounterTable()
        assert tables.storage_bits == 3 * 4096 * 2
        assert tables.storage_bits // 8 == 3 * 1024

    def test_rejects_zero_tables(self):
        with pytest.raises(ValueError):
            SkewedCounterTable(num_tables=0)

    def test_rejects_threshold_above_max_confidence(self):
        with pytest.raises(ValueError):
            SkewedCounterTable(num_tables=3, threshold=10)

    def test_rejects_non_power_of_two_entries(self):
        with pytest.raises(ValueError):
            SkewedCounterTable(entries_per_table=1000)


class TestPrediction:
    def test_untrained_signature_is_live(self):
        tables = SkewedCounterTable()
        assert not tables.predict(0x1234)
        assert tables.confidence(0x1234) == 0

    def test_three_dead_trainings_saturate_to_dead(self):
        tables = SkewedCounterTable()
        signature = 0x2BCD
        for _ in range(3):
            tables.train(signature, dead=True)
        # Three increments on three 2-bit counters = confidence 9 >= 8.
        assert tables.confidence(signature) == 9
        assert tables.predict(signature)

    def test_two_trainings_not_enough(self):
        # Confidence 6 < 8: the paper's threshold requires near-saturation.
        tables = SkewedCounterTable()
        signature = 0x2BCD
        tables.train(signature, dead=True)
        tables.train(signature, dead=True)
        assert tables.confidence(signature) == 6
        assert not tables.predict(signature)

    def test_live_training_reverses_dead(self):
        tables = SkewedCounterTable()
        signature = 0x7FFF
        for _ in range(5):
            tables.train(signature, dead=True)
        tables.train(signature, dead=False)
        assert not tables.predict(signature)  # confidence 6 < 8

    def test_counters_saturate_both_ends(self):
        tables = SkewedCounterTable()
        signature = 0x0042
        for _ in range(100):
            tables.train(signature, dead=True)
        assert tables.confidence(signature) == 9
        for _ in range(100):
            tables.train(signature, dead=False)
        assert tables.confidence(signature) == 0

    def test_single_table_configuration(self):
        tables = SkewedCounterTable(num_tables=1, entries_per_table=16384, threshold=2)
        signature = 0x1111
        tables.train(signature, dead=True)
        assert not tables.predict(signature)
        tables.train(signature, dead=True)
        assert tables.predict(signature)

    def test_nine_confidence_levels(self):
        """Paper Section III-E: three tables give confidence 0..9."""
        tables = SkewedCounterTable()
        signature = 0x0A0A
        seen = set()
        for _ in range(10):
            seen.add(tables.confidence(signature))
            tables.train(signature, dead=True)
        assert seen == {0, 3, 6, 9}  # one aligned signature steps by 3


class TestInterferenceResistance:
    def test_skew_localizes_aliasing(self):
        """Train one signature dead; a signature that collides with it in
        table 0 must not be dragged to a dead prediction."""
        from repro.utils.hashing import skewed_hash

        tables = SkewedCounterTable()
        victim = 0x1234
        alias = next(
            candidate
            for candidate in range(1, 1 << 15)
            if candidate != victim
            and skewed_hash(candidate, 0, 12) == skewed_hash(victim, 0, 12)
            and skewed_hash(candidate, 1, 12) != skewed_hash(victim, 1, 12)
        )
        for _ in range(10):
            tables.train(victim, dead=True)
        assert tables.predict(victim)
        assert not tables.predict(alias)
        assert tables.confidence(alias) <= 3  # at most the one shared bank


@settings(max_examples=50, deadline=None)
@given(
    signature=st.integers(min_value=0, max_value=2**15 - 1),
    operations=st.lists(st.booleans(), max_size=60),
)
def test_confidence_always_in_range(signature, operations):
    """Property: confidence stays within [0, 9] under any training string."""
    tables = SkewedCounterTable()
    for dead in operations:
        tables.train(signature, dead=dead)
        assert 0 <= tables.confidence(signature) <= 9


@settings(max_examples=30, deadline=None)
@given(
    trainings=st.lists(
        st.tuples(st.integers(0, 1 << 16), st.booleans()), max_size=200
    )
)
def test_telemetry_gauges_match_a_counter_walk(trainings):
    """The gauges equal a plain walk over every counter."""
    tables = SkewedCounterTable(entries_per_table=64)
    for signature, dead in trainings:
        tables.train(signature, dead)
    counters = [value for table in tables.tables for value in table]
    assert tables.telemetry_snapshot() == {
        "table_saturation": counters.count(tables.counter_max) / len(counters),
        "table_mean_counter": sum(counters) / len(counters),
    }
