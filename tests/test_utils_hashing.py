"""Unit tests for repro.utils.hashing."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.utils.hashing import (
    fold_xor,
    fold_xor_many,
    hash_combine,
    mix64,
    skewed_hash,
)


class TestMix64:
    def test_deterministic(self):
        assert mix64(12345) == mix64(12345)

    def test_fits_64_bits(self):
        assert 0 <= mix64(2**64 - 1) < 2**64

    def test_bijective_on_sample(self):
        # mix64 is a bijection; spot-check no collisions on a dense sample.
        outputs = {mix64(value) for value in range(10_000)}
        assert len(outputs) == 10_000

    def test_changes_input(self):
        # Not the identity on interesting values.
        assert mix64(1) != 1
        assert mix64(0xDEAD) != 0xDEAD


class TestFoldXor:
    def test_narrow_value_unchanged(self):
        assert fold_xor(0b101, 15) == 0b101

    def test_two_chunk_fold(self):
        value = (0b1100 << 4) | 0b1010
        assert fold_xor(value, 4) == 0b0110

    def test_zero(self):
        assert fold_xor(0, 15) == 0

    def test_rejects_nonpositive_width(self):
        with pytest.raises(ValueError):
            fold_xor(5, 0)

    @given(st.integers(min_value=0, max_value=2**64 - 1), st.integers(1, 32))
    def test_output_in_range(self, value, width):
        assert 0 <= fold_xor(value, width) < (1 << width)

    @given(
        st.lists(st.integers(min_value=0, max_value=2**70), max_size=40),
        st.integers(1, 40),
    )
    def test_many_matches_one_at_a_time(self, values, width):
        assert fold_xor_many(values, width) == [
            fold_xor(value, width) for value in values
        ]

    def test_many_rejects_nonpositive_width(self):
        with pytest.raises(ValueError):
            fold_xor_many([5], 0)


class TestHashCombine:
    def test_order_matters(self):
        assert hash_combine(1, 2) != hash_combine(2, 1)

    def test_deterministic(self):
        assert hash_combine(77, 88) == hash_combine(77, 88)


class TestSkewedHash:
    def test_output_in_range(self):
        for signature in range(0, 2**15, 97):
            for table in range(3):
                index = skewed_hash(signature, table, index_bits=12)
                assert 0 <= index < 4096

    def test_tables_decorrelated(self):
        """Two signatures colliding in table 0 should mostly not collide in
        tables 1 and 2 -- that is the whole point of the skewed organization
        (paper Section III-E)."""
        from collections import defaultdict

        buckets = defaultdict(list)
        signatures = range(0, 2**15, 7)
        for signature in signatures:
            buckets[skewed_hash(signature, 0, 12)].append(signature)
        colliding_pairs = []
        for group in buckets.values():
            if len(group) >= 2:
                colliding_pairs.append((group[0], group[1]))
        assert colliding_pairs, "sample too small to produce collisions"
        still_colliding = sum(
            1
            for a, b in colliding_pairs
            if skewed_hash(a, 1, 12) == skewed_hash(b, 1, 12)
            and skewed_hash(a, 2, 12) == skewed_hash(b, 2, 12)
        )
        # A triple collision should be roughly 1/4096^2; zero expected here.
        assert still_colliding == 0

    def test_distinct_tables_give_distinct_streams(self):
        same = sum(
            1
            for signature in range(2048)
            if skewed_hash(signature, 0, 12) == skewed_hash(signature, 1, 12)
        )
        # Random agreement would be ~2048/4096 = 0.5 expected hits.
        assert same < 20

    def test_rejects_negative_table(self):
        with pytest.raises(ValueError):
            skewed_hash(1, -1, 12)

    def test_spread_is_reasonably_uniform(self):
        counts = [0] * 4096
        for signature in range(2**15):
            counts[skewed_hash(signature, 0, 12)] += 1
        # 32768 signatures over 4096 buckets = 8 per bucket on average.  A
        # truly random spread leaves ~1.4 buckets empty (e^-8 each), so allow
        # a handful but no systematic holes.
        assert max(counts) < 40
        assert sum(1 for count in counts if count == 0) <= 8
