"""The vectorized hashing layer must be bit-exact with the scalar path."""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ConfigurationError
from repro.hashing.hash_family import HashFamily, _key_to_int, stable_hash
from repro.hashing import vectorized
from repro.hashing.vectorized import fold_keys, splitmix64_array

#: Encoded lengths around the fold's edges: the one-word short form (<= 8),
#: the chunk boundaries, and the packed/scalar split at 64 bytes.
_EDGE_LENGTHS = [0, 1, 7, 8, 9, 15, 16, 17, 63, 64, 65, 80]

_text_keys = st.one_of(
    st.text(max_size=80),
    st.text(alphabet="ab\x00", max_size=80),  # trailing NULs vs padding
    st.text(alphabet="é€😀x", max_size=30),  # 2-4 byte UTF-8
    st.builds(lambda n, c: c * n, st.sampled_from(_EDGE_LENGTHS), st.sampled_from("x\x00")),
    st.builds(lambda s: s + "\x00", st.text(max_size=70)),
)
_keys = st.one_of(
    _text_keys,
    st.binary(max_size=80),
    st.builds(lambda n: b"\x00" * n, st.sampled_from(_EDGE_LENGTHS)),
    st.integers(min_value=-(2**70), max_value=2**70),
    st.booleans(),
    st.floats(allow_nan=False),
    st.tuples(st.integers(), st.text(max_size=5)),
)


class TestSplitmixArray:
    def test_matches_scalar_mixer(self):
        # stable_hash(key, 0) == splitmix64(key ^ splitmix64(0)) for integer
        # keys below 2**64, so chaining the array mixer twice must reproduce
        # the scalar path bit for bit (including wrap-around cases).
        values = [0, 1, 2**63, 2**64 - 1, 0xDEADBEEF, 0x9E3779B97F4A7C15]
        seed_mix = int(splitmix64_array(np.array([0], dtype=np.uint64))[0])
        remixed = splitmix64_array(
            np.array([v ^ seed_mix for v in values], dtype=np.uint64)
        )
        assert [stable_hash(v, 0) for v in values] == remixed.tolist()


class TestCandidatesBatch:
    def test_matches_scalar_candidates(self):
        family = HashFamily(num_functions=8, num_buckets=37, seed=11)
        keys = ["apple", "banana", b"raw-bytes", 42, -17, 2**70 + 5, "apple", ""]
        batch = family.candidates_batch(keys, 8)
        assert batch.shape == (len(keys), 8)
        for row, key in zip(batch.tolist(), keys):
            assert tuple(row) == family.candidates(key, 8)

    def test_partial_d_is_a_prefix(self):
        family = HashFamily(num_functions=6, num_buckets=10, seed=3)
        keys = [f"k{i}" for i in range(50)]
        full = family.candidates_batch(keys, 6)
        two = family.candidates_batch(keys, 2)
        assert np.array_equal(full[:, :2], two)

    def test_rejects_bad_d(self):
        family = HashFamily(num_functions=2, num_buckets=10, seed=0)
        with pytest.raises(ConfigurationError):
            family.candidates_batch(["x"], 3)
        with pytest.raises(ConfigurationError):
            family.candidates_batch(["x"], 0)

    def test_empty_batch(self):
        family = HashFamily(num_functions=2, num_buckets=10, seed=0)
        assert family.candidates_batch([], 2).shape == (0, 2)


class TestInterningCache:
    def test_repeat_lookups_hit_the_cache(self):
        family = HashFamily(num_functions=4, num_buckets=20, seed=9)
        first = family.candidates("hot-key", 4)
        assert family.candidates("hot-key", 4) is first  # cached tuple
        assert family.candidates("hot-key", 2) == first[:2]

    def test_cache_eviction_keeps_answers_correct(self):
        family = HashFamily(num_functions=2, num_buckets=16, seed=1, cache_size=8)
        reference = HashFamily(num_functions=2, num_buckets=16, seed=1, cache_size=0)
        keys = [f"key-{i % 20}" for i in range(200)]
        for key in keys:
            assert family.candidates(key, 2) == reference.candidates(key, 2)
            # Reset-when-full bound is respected after every insertion
            assert len(family._candidate_cache) <= 8
            assert len(family._int_cache) <= 8
        # The batch paths fold every key afresh: batches larger than the
        # cache and repeats within one batch answer like the uncached
        # reference, and leave the memos as the scalar lookups left them.
        int_cache = dict(family._int_cache)
        for size in (3, 7, 13, 40):
            for start in range(0, len(keys), size):
                batch = keys[start : start + size]
                assert np.array_equal(
                    family.candidates_batch(batch, 2),
                    reference.candidates_batch(batch, 2),
                )
        assert family._int_cache == int_cache
        assert len(reference._int_cache) == len(reference._candidate_cache) == 0

    def test_bool_keys_do_not_alias_int_keys(self):
        family = HashFamily(num_functions=2, num_buckets=1000, seed=5)
        # Prime the caches with the bools first, then the ints.
        bool_candidates = (family.candidates(True, 2), family.candidates(False, 2))
        int_candidates = (family.candidates(1, 2), family.candidates(0, 2))
        assert bool_candidates != int_candidates
        batch = family.candidates_batch([True, 1, False, 0], 2)
        assert tuple(batch[0].tolist()) == bool_candidates[0]
        assert tuple(batch[1].tolist()) == int_candidates[0]

    def test_cross_type_equal_keys_do_not_alias_through_the_cache(self):
        # -1 == -1.0 as dict keys, but the folds differ; a cached int entry
        # must never answer for the float (and vice versa), and cache state
        # must not change any answer.
        warm = HashFamily(num_functions=2, num_buckets=11, seed=42)
        cold = HashFamily(num_functions=2, num_buckets=11, seed=42)
        warm.candidates(-1, 2)  # prime the cache with the int
        assert warm.candidates(-1.0, 2) == cold.candidates(-1.0, 2)
        assert warm.candidates_batch([-1.0], 2).tolist()[0] == list(
            cold.candidates(-1.0, 2)
        )


class TestFoldKeys:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(_keys, max_size=40))
    def test_matches_scalar_fold(self, keys):
        folded = fold_keys(keys)
        assert folded.dtype == np.uint64
        assert folded.tolist() == [_key_to_int(key) for key in keys]

    def test_every_length_up_to_80_bytes(self):
        keys = []
        for length in range(81):
            keys += ["k" * length, "\x00" * length, b"\xff" * length, "é" * (length // 2)]
        assert fold_keys(keys).tolist() == [_key_to_int(key) for key in keys]

    def test_empty_batch(self):
        assert fold_keys([]).shape == (0,)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.one_of(_text_keys, st.integers(-5, 300)), min_size=65, max_size=300))
    def test_batch_columns_match_scalar_past_the_cache_bound(self, keys):
        # More than cache_size distinct keys through one family: the scalar
        # lookups overflow its memos, interleaved with batches that fold
        # every key afresh.
        family = HashFamily(num_functions=3, num_buckets=29, seed=17, cache_size=64)
        keys = keys + [f"distinct-{i}" for i in range(70)]
        for start in range(0, len(keys), 50):
            batch = keys[start : start + 50]
            columns = family.candidates_batch_columns(batch, 3)
            assert list(zip(*columns)) == [family.candidates(key, 3) for key in batch]
            assert len(family._int_cache) <= 64
            assert len(family._candidate_cache) <= 64


class _Text(str):
    """A ``str`` subclass: folds like ``str`` but must take the per-key path."""


#: ASCII keys around the fold's edges: NULs anywhere (numpy's ``U`` dtype
#: drops trailing ones), empty keys, and the 63/64/65-character split.
_ascii_keys = st.one_of(
    st.text(alphabet=st.characters(max_codepoint=127), max_size=70),
    st.text(alphabet="a\x00", max_size=70),
    st.builds(lambda n, c: c * n, st.sampled_from([0, 1, 8, 9, 63, 64, 65]), st.sampled_from("k\x00")),
    st.builds(lambda s: s + "\x00\x00", st.text(alphabet="xyz", max_size=62)),
)
#: One key that makes a batch leave the ASCII path.
_odd_keys = st.one_of(
    st.text(alphabet="é€😀", min_size=1, max_size=5),
    st.binary(max_size=10),
    st.integers(-5, 2**70),
    st.builds(_Text, st.text(alphabet="ab", max_size=10)),
)


_fold_ascii = vectorized._fold_ascii


def _ascii_path_declines(keys):
    assert _fold_ascii(keys) is None, f"ASCII path taken for {keys!r}"
    return None


class TestAsciiFold:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(_ascii_keys, min_size=1, max_size=40))
    def test_ascii_path_matches_scalar_fold(self, keys):
        expected = [_key_to_int(key) for key in keys]
        ascii_fold = _fold_ascii(keys)
        if max(map(len, keys)) <= 64:
            assert ascii_fold is not None and ascii_fold.dtype == np.uint64
            assert ascii_fold.tolist() == expected
        else:
            assert ascii_fold is None  # a key past 64 characters
        assert fold_keys(keys).tolist() == expected

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(_ascii_keys, max_size=30),
        _odd_keys,
        st.integers(min_value=0, max_value=30),
    )
    def test_one_odd_key_falls_back(self, keys, odd, position):
        keys = keys[:position] + [odd] + keys[position:]
        expected = [_key_to_int(key) for key in keys]
        family = HashFamily(num_functions=3, num_buckets=31, seed=5)
        with mock.patch.object(vectorized, "_fold_ascii", _ascii_path_declines):
            assert fold_keys(keys).tolist() == expected
            columns = family.candidates_batch_columns(keys, 3)
        assert list(zip(*columns)) == [family.candidates(key, 3) for key in keys]

    def test_nul_and_empty_batches(self):
        assert fold_keys([]).shape == (0,)
        for keys in (
            [""],
            ["", "", ""],
            ["a\x00", "a", "\x00", ""],
            ["\x00a\x00", "\x00" * 64, "b" * 63 + "\x00"],
        ):
            folded = _fold_ascii(keys)
            assert folded is not None
            assert folded.tolist() == [_key_to_int(key) for key in keys]

    def test_ascii_batch_answers_like_scalar_candidates(self):
        family = HashFamily(num_functions=4, num_buckets=23, seed=13, cache_size=16)
        keys = [f"key-{i % 50}" for i in range(120)] + ["", "\x00", "z" * 64]
        columns = family.candidates_batch_columns(keys, 4)
        assert list(zip(*columns)) == [family.candidates(key, 4) for key in keys]


class TestIntFold:
    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.one_of(
                st.integers(-(2**63), 2**63 - 1),
                st.sampled_from([-(2**63) - 1, 2**63, 2**64 - 1, 2**64, -(2**70)]),
            ),
            min_size=1,
            max_size=40,
        )
    )
    def test_int_batches_match_scalar_fold(self, keys):
        # In int64 the keys are converted in one step; one key outside it
        # sends the whole batch through the scalar fold.
        assert fold_keys(keys).tolist() == [_key_to_int(key) for key in keys]

    def test_bools_do_not_take_the_int_path(self):
        for keys in ([True, False], [True, 1, False, 0], [1, 0]):
            assert fold_keys(keys).tolist() == [_key_to_int(key) for key in keys]


class TestChunkedKeyFold:
    def test_distinct_for_prefix_pairs(self):
        assert _key_to_int(b"a") != _key_to_int(b"a\x00")
        assert _key_to_int("abcdefgh") != _key_to_int("abcdefghi")
        assert _key_to_int("") != _key_to_int("\x00")

    def test_short_strings_stay_distinct_from_raw_integers(self):
        # Without the offset basis, '' and 0 (and '\x01' and 1) would fold
        # to the same 64-bit word and collide under every hash function.
        assert _key_to_int("") != _key_to_int(0)
        assert _key_to_int(b"") != _key_to_int(0)
        assert _key_to_int("\x01") != _key_to_int(1)

    def test_long_keys_are_deterministic_and_spread(self):
        keys = [f"prefix-{i}-" + "x" * 100 for i in range(500)]
        values = {_key_to_int(key) for key in keys}
        assert len(values) == 500  # no collisions among close long keys
        # str keys fold through their utf-8 bytes
        assert _key_to_int("abcdefghij") == _key_to_int(b"abcdefghij")

    def test_int_and_str_keys_stay_distinct(self):
        assert stable_hash(42, 0) != stable_hash("42", 0)
        assert stable_hash(True, 0) != stable_hash(1, 0)
