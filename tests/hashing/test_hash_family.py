"""Unit tests for the seeded hash family."""

from __future__ import annotations

import pytest

from repro.exceptions import ConfigurationError
from repro.hashing.hash_family import (
    HashFamily,
    candidate_union,
    collision_probability,
    expected_distinct,
    stable_hash,
)


class TestStableHash:
    def test_deterministic_across_calls(self):
        assert stable_hash("apple", 1) == stable_hash("apple", 1)

    def test_different_seeds_differ(self):
        values = {stable_hash("apple", seed) for seed in range(50)}
        assert len(values) == 50

    def test_different_keys_differ(self):
        values = {stable_hash(f"key-{i}", 0) for i in range(1000)}
        assert len(values) == 1000

    def test_integer_and_string_keys_supported(self):
        assert isinstance(stable_hash(42, 0), int)
        assert isinstance(stable_hash("42", 0), int)

    def test_int_and_equal_string_hash_differently(self):
        assert stable_hash(42, 0) != stable_hash("42", 0)

    def test_bool_distinct_from_int(self):
        assert stable_hash(True, 0) != stable_hash(1, 0)

    def test_bytes_keys_supported(self):
        assert stable_hash(b"abc", 3) == stable_hash(b"abc", 3)

    def test_output_is_64_bit(self):
        for i in range(100):
            assert 0 <= stable_hash(i, 7) < 2**64


class TestHashFamily:
    def test_rejects_non_positive_functions(self):
        with pytest.raises(ConfigurationError):
            HashFamily(num_functions=0, num_buckets=10)

    def test_rejects_non_positive_buckets(self):
        with pytest.raises(ConfigurationError):
            HashFamily(num_functions=2, num_buckets=0)

    def test_candidates_length_and_range(self):
        family = HashFamily(num_functions=5, num_buckets=7, seed=3)
        candidates = family.candidates("key")
        assert len(candidates) == 5
        assert all(0 <= c < 7 for c in candidates)

    def test_candidates_prefix_property(self):
        family = HashFamily(num_functions=5, num_buckets=100, seed=3)
        assert family.candidates("key", 2) == family.candidates("key", 5)[:2]

    def test_candidates_deterministic(self):
        one = HashFamily(num_functions=3, num_buckets=50, seed=9)
        two = HashFamily(num_functions=3, num_buckets=50, seed=9)
        assert one.candidates("abc") == two.candidates("abc")

    def test_different_seeds_give_different_candidates(self):
        one = HashFamily(num_functions=2, num_buckets=1000, seed=1)
        two = HashFamily(num_functions=2, num_buckets=1000, seed=2)
        differing = sum(
            one.candidates(f"k{i}") != two.candidates(f"k{i}") for i in range(100)
        )
        assert differing > 90

    def test_hash_index_out_of_range(self):
        family = HashFamily(num_functions=2, num_buckets=10)
        with pytest.raises(ConfigurationError):
            family.hash("x", 2)

    def test_candidates_d_out_of_range(self):
        family = HashFamily(num_functions=2, num_buckets=10)
        with pytest.raises(ConfigurationError):
            family.candidates("x", 3)
        with pytest.raises(ConfigurationError):
            family.candidates("x", 0)

    def test_distinct_candidates_removes_duplicates(self):
        family = HashFamily(num_functions=8, num_buckets=2, seed=0)
        distinct = family.distinct_candidates("x")
        assert len(distinct) == len(set(distinct))
        assert set(distinct) <= {0, 1}

    def test_with_buckets_preserves_seed(self):
        family = HashFamily(num_functions=2, num_buckets=10, seed=5)
        resized = family.with_buckets(20)
        assert resized.seed == 5
        assert resized.num_buckets == 20
        assert resized.num_functions == 2

    def test_with_functions_preserves_buckets(self):
        family = HashFamily(num_functions=2, num_buckets=10, seed=5)
        grown = family.with_functions(6)
        assert grown.num_functions == 6
        assert grown.num_buckets == 10
        # the shared prefix of candidates is identical
        assert grown.candidates("k", 2) == family.candidates("k", 2)

    @pytest.mark.parametrize("cache_size", [0, 5])
    def test_with_buckets_and_with_functions_keep_cache_size(self, cache_size):
        family = HashFamily(num_functions=2, num_buckets=10, seed=5, cache_size=cache_size)
        for derived in (family.with_buckets(20), family.with_functions(6)):
            assert derived._cache_size == cache_size
            for i in range(20):
                derived.candidates(f"k{i}", 2)
            derived.candidates_batch([f"b{i}" for i in range(20)], 2)
            assert len(derived._candidate_cache) <= cache_size
            assert len(derived._int_cache) <= cache_size

    def test_spread_is_roughly_uniform(self):
        family = HashFamily(num_functions=1, num_buckets=10, seed=11)
        counts = family.spread((f"key-{i}" for i in range(20_000)), d=1)
        assert sum(counts) == 20_000
        assert min(counts) > 1500
        assert max(counts) < 2500

    def test_single_bucket_everything_collides(self):
        family = HashFamily(num_functions=3, num_buckets=1)
        assert family.candidates("anything") == (0, 0, 0)


class TestExpectedDistinct:
    def test_zero_choices(self):
        assert expected_distinct(10, 0) == 0.0

    def test_one_choice(self):
        assert expected_distinct(10, 1) == pytest.approx(1.0)

    def test_monotone_in_d(self):
        values = [expected_distinct(50, d) for d in range(0, 200, 5)]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_upper_bounded_by_n(self):
        assert expected_distinct(10, 10_000) <= 10.0

    def test_matches_empirical_hash_behaviour(self):
        n, d = 20, 8
        family = HashFamily(num_functions=d, num_buckets=n, seed=17)
        sizes = [len(set(family.candidates(f"key-{i}"))) for i in range(3000)]
        empirical = sum(sizes) / len(sizes)
        assert empirical == pytest.approx(expected_distinct(n, d), rel=0.05)

    def test_invalid_inputs(self):
        with pytest.raises(ConfigurationError):
            expected_distinct(0, 2)
        with pytest.raises(ConfigurationError):
            expected_distinct(10, -1)


class TestCollisionHelpers:
    def test_collision_probability_single_choice(self):
        assert collision_probability(10, 1) == 0.0

    def test_collision_probability_pair(self):
        assert collision_probability(10, 2) == pytest.approx(0.1)

    def test_collision_probability_invalid_n(self):
        with pytest.raises(ConfigurationError):
            collision_probability(0, 2)

    def test_candidate_union(self):
        family = HashFamily(num_functions=4, num_buckets=100, seed=0)
        union = candidate_union([(family, "a", 4), (family, "b", 4)])
        assert union == set(family.candidates("a")) | set(family.candidates("b"))
