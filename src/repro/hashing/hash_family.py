"""A family of independent, seeded hash functions over arbitrary keys.

Python's built-in :func:`hash` is randomised per process (for strings) and is
not seedable, so it cannot provide the *d* independent functions
``F_1 ... F_d`` required by the Greedy-d process.  Instead we serialise the
key deterministically and run it through a 64-bit mixing function
(SplitMix64-style finalizer) keyed by a per-function seed.  This gives:

* determinism across processes and runs (important for reproducible
  experiments and for multiple sources agreeing on the candidate workers of a
  key, exactly as hash-based routing does in a real DSPE);
* near-uniform output, which is the "ideal hash function" assumption used in
  the paper's analysis (Appendix A).
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.exceptions import ConfigurationError
from repro.hashing.vectorized import bucketed_hash_columns, bucketed_hashes, fold_keys
from repro.types import Key, WorkerId

_MASK64 = (1 << 64) - 1

#: Upper bound on the number of keys each :class:`HashFamily` interns.  The
#: caches are reset when full, so a family never holds more than this many
#: candidate tuples / folded integers regardless of stream cardinality, and
#: a miss stays O(1) however wide the key space.
DEFAULT_CACHE_SIZE = 1 << 16

#: Key types the interning caches may hold.  Dict lookups use ``==``, which
#: crosses types (``-1 == -1.0 == True`` all collide as dict keys) while
#: ``_key_to_int`` deliberately folds those differently — so only exact
#: types that never compare equal to another hashable type are cached;
#: everything else (bool, float, tuples, custom objects) is folded afresh
#: on every call.  Note ``type(True) is bool``, so bools are excluded here
#: automatically.
_CACHEABLE_TYPES = frozenset({str, bytes, int})

# SplitMix64 constants (Steele et al., "Fast splittable pseudorandom number
# generators").  They provide excellent avalanche behaviour for 64-bit words.
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def _splitmix64(x: int) -> int:
    """Finalise a 64-bit word with the SplitMix64 mixing function."""
    x = (x + _GAMMA) & _MASK64
    x = ((x ^ (x >> 30)) * _MIX1) & _MASK64
    x = ((x ^ (x >> 27)) * _MIX2) & _MASK64
    return x ^ (x >> 31)


_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3


def _key_to_int(key: Key) -> int:
    """Serialise an arbitrary hashable key into a 64-bit integer.

    Strings and bytes are folded eight bytes at a time (``int.from_bytes``
    runs the chunk conversion in C) with an FNV-1a style multiply between
    chunks, so similar keys ("word1", "word2") still land far apart after
    mixing.  The length is xored into the accumulator so prefixes of each
    other ("a", "a\\x00") stay distinct.  Integers are used directly.  Any
    other hashable type falls back to ``hash()``; this is process-dependent
    for custom ``__hash__`` implementations, so experiments use string or
    integer keys.
    """
    if isinstance(key, bool):  # bool is an int subclass; keep it distinct
        return int(key) + 0x5BF03635
    if isinstance(key, int):
        return key & _MASK64
    if isinstance(key, str):
        data = key.encode("utf-8")
    elif isinstance(key, bytes):
        data = key
    else:
        return hash(key) & _MASK64
    length = len(data)
    if length <= 8:
        # XOR the offset basis so short strings stay distinct from the raw
        # integers they would otherwise equal ('' vs 0, '\x01' vs 1, ...).
        return int.from_bytes(data, "little") ^ (((length * _GAMMA) ^ _FNV_OFFSET) & _MASK64)
    acc = (_FNV_OFFSET ^ (length * _GAMMA)) & _MASK64
    for start in range(0, length, 8):
        acc = ((acc ^ int.from_bytes(data[start : start + 8], "little"))
               * _FNV_PRIME) & _MASK64
    return acc


def stable_hash(key: Key, seed: int = 0) -> int:
    """Return a deterministic 64-bit hash of ``key`` under ``seed``.

    This is the primitive used everywhere the paper assumes an ideal hash
    function.  Different seeds give (empirically) independent functions.
    """
    return _splitmix64(_key_to_int(key) ^ _splitmix64(seed & _MASK64))


#: A hash family keeps candidate tables for at most this many dictionaries
#: (reset when full).  Streams use one dictionary, so this is pure headroom.
_MAX_ID_TABLES = 4


class _IdTable:
    """Candidate buckets per key id, for one (family, dictionary) pair.

    ``rows[kid, j]`` is the ``j``-th candidate bucket of the key behind id
    ``kid`` — computed from the dictionary's *folded key*, never from the id
    itself, so gathers from this table are bit-identical to hashing the
    original keys.  The table grows lazily (capacity-doubled) as the
    dictionary interns new keys and is rebuilt wider when a larger ``d`` is
    requested (candidate tuples are prefix-stable, so a wide table serves
    every smaller ``d`` by column slicing).
    """

    __slots__ = ("width", "filled", "rows")

    def __init__(self, width: int) -> None:
        self.width = width
        self.filled = 0
        self.rows = np.empty((0, width), dtype=np.int64)


class HashFamily:
    """An indexed family of ``d`` independent hash functions onto ``[0, n)``.

    Parameters
    ----------
    num_functions:
        Size of the family (the maximum ``d`` any caller will request).
    num_buckets:
        Size of the codomain, i.e. the number of workers ``n``.
    seed:
        Base seed; families created with the same seed are identical, which
        is how multiple sources agree on a key's candidate workers without
        a routing table.

    Examples
    --------
    >>> family = HashFamily(num_functions=2, num_buckets=10, seed=42)
    >>> candidates = family.candidates("apple")
    >>> len(candidates)
    2
    >>> all(0 <= c < 10 for c in candidates)
    True
    >>> family.candidates("apple") == candidates   # deterministic
    True
    """

    def __init__(
        self,
        num_functions: int,
        num_buckets: int,
        seed: int = 0,
        cache_size: int = DEFAULT_CACHE_SIZE,
    ) -> None:
        if num_functions < 1:
            raise ConfigurationError(
                f"need at least one hash function, got {num_functions}"
            )
        if num_buckets < 1:
            raise ConfigurationError(
                f"need at least one bucket, got {num_buckets}"
            )
        if cache_size < 0:
            raise ConfigurationError(
                f"cache_size must be >= 0, got {cache_size}"
            )
        self._num_functions = num_functions
        self._num_buckets = num_buckets
        self._seed = seed
        self._cache_size = cache_size
        # Pre-mix one sub-seed per function so that function i is keyed by a
        # well-separated 64-bit constant rather than by the small integer i.
        self._sub_seeds = tuple(
            _splitmix64((seed & _MASK64) + i * _GAMMA) for i in range(num_functions)
        )
        # stable_hash(key, s) == splitmix64(key_int ^ splitmix64(s)); the
        # inner mix only depends on the sub-seed, so do it once here.
        self._mixed_seeds = tuple(_splitmix64(s) for s in self._sub_seeds)
        self._mixed_seeds_np = np.array(self._mixed_seeds, dtype=np.uint64)
        # Interning caches (reset when full at cache_size entries; they only
        # memoise values derivable from the key, so any hit pattern gives the
        # same answers, and clear() keeps a miss O(1)): string keys
        # are folded to 64 bits once, and a key's candidate tuple is derived
        # once rather than per message.  Candidate tuples are prefix-stable
        # in d, so one cached tuple serves every smaller d via slicing.
        self._int_cache: dict[Key, int] = {}
        self._candidate_cache: dict[Key, tuple[WorkerId, ...]] = {}
        # Per-dictionary candidate tables for the columnar id fast path,
        # keyed by KeyDictionary.token (bounded; see _id_table).
        self._id_tables: dict[int, _IdTable] = {}

    @property
    def num_functions(self) -> int:
        return self._num_functions

    @property
    def num_buckets(self) -> int:
        return self._num_buckets

    @property
    def seed(self) -> int:
        return self._seed

    def hash(self, key: Key, index: int) -> WorkerId:
        """Apply the ``index``-th function of the family to ``key``."""
        if not 0 <= index < self._num_functions:
            raise ConfigurationError(
                f"hash function index {index} outside [0, {self._num_functions})"
            )
        return stable_hash(key, self._sub_seeds[index]) % self._num_buckets

    def candidates(self, key: Key, d: int | None = None) -> tuple[WorkerId, ...]:
        """Return the first ``d`` candidate buckets for ``key``.

        ``d`` defaults to the full family size.  Duplicates are *not*
        removed: the paper's analysis explicitly accounts for hash collisions
        among the d choices (the ``b_h`` term), so the raw multiset is what
        callers need.

        Results are interned: the first lookup of a key folds and mixes it,
        repeat lookups (the overwhelmingly common case on skewed streams)
        return the cached tuple.
        """
        if d is None:
            d = self._num_functions
        if not 1 <= d <= self._num_functions:
            raise ConfigurationError(
                f"requested d={d} outside [1, {self._num_functions}]"
            )
        if type(key) not in _CACHEABLE_TYPES:
            key_int = _key_to_int(key)
            buckets = self._num_buckets
            return tuple(
                _splitmix64(key_int ^ mixed) % buckets
                for mixed in self._mixed_seeds[:d]
            )
        cache = self._candidate_cache
        cached = cache.get(key)
        if cached is not None:
            length = len(cached)
            if length == d:
                return cached
            if length > d:
                return cached[:d]
        key_int = self._intern_key(key)
        buckets = self._num_buckets
        result = tuple(
            _splitmix64(key_int ^ mixed) % buckets for mixed in self._mixed_seeds[:d]
        )
        if self._cache_size:
            if len(cache) >= self._cache_size:
                cache.clear()
            cache[key] = result
        return result

    def candidates_batch(self, keys: Sequence[Key], d: int | None = None) -> np.ndarray:
        """Candidate buckets for a whole batch of keys at once.

        Returns an ``int64`` array of shape ``(len(keys), d)`` whose row
        ``i`` equals ``candidates(keys[i], d)``.  Key serialisation
        (:func:`~repro.hashing.vectorized.fold_keys`), the SplitMix64 mixing
        and the bucket reduction run vectorized over the whole batch; the
        interning caches serve only the scalar :meth:`candidates`.
        """
        d = self._check_d(d)
        return bucketed_hashes(
            fold_keys(keys), self._mixed_seeds_np[:d], self._num_buckets
        )

    def candidates_batch_columns(
        self, keys: Sequence[Key], d: int | None = None
    ) -> list[list[int]]:
        """Column-major :meth:`candidates_batch` for allocation-free walking.

        Returns ``d`` flat ``int`` lists such that ``result[j][i]`` is the
        ``j``-th candidate of ``keys[i]``.  The routing hot loops iterate a
        batch as ``zip(firsts, seconds)`` over these columns, avoiding the
        per-message row list that ``candidates_batch(...).tolist()`` would
        allocate.
        """
        d = self._check_d(d)
        return bucketed_hash_columns(
            fold_keys(keys), self._mixed_seeds_np[:d], self._num_buckets
        )

    def _check_d(self, d: int | None) -> int:
        if d is None:
            return self._num_functions
        if not 1 <= d <= self._num_functions:
            raise ConfigurationError(
                f"requested d={d} outside [1, {self._num_functions}]"
            )
        return d

    def _id_table(self, dictionary, d: int) -> np.ndarray:
        """The (grown-to-date) candidate table for ``dictionary``, ≥ ``d`` wide."""
        tables = self._id_tables
        table = tables.get(dictionary.token)
        if table is None or table.width < d:
            if table is None and len(tables) >= _MAX_ID_TABLES:
                tables.clear()
            table = _IdTable(d)
            tables[dictionary.token] = table
        size = len(dictionary)
        if table.filled < size:
            if size > table.rows.shape[0]:
                capacity = max(size, table.rows.shape[0] * 2, 1024)
                grown = np.empty((capacity, table.width), dtype=np.int64)
                grown[: table.filled] = table.rows[: table.filled]
                table.rows = grown
            table.rows[table.filled : size] = bucketed_hashes(
                dictionary.folded[table.filled : size],
                self._mixed_seeds_np[: table.width],
                self._num_buckets,
            )
            table.filled = size
        return table.rows

    def id_candidate_rows(self, ids: np.ndarray, dictionary, d: int | None = None) -> np.ndarray:
        """Row-major candidate buckets for an id array (columnar fast path).

        ``dictionary`` is the :class:`~repro.workloads.columnar.KeyDictionary`
        that issued ``ids``.  Equals ``candidates_batch(decoded_keys, d)``
        bit for bit, but runs as a single table gather: candidates per id
        are precomputed once into a per-dictionary table (see
        :class:`_IdTable`) and never recomputed while the family lives.
        Rescaling recreates the family, which drops the tables — that is the
        invalidation path.
        """
        d = self._check_d(d)
        return self._id_table(dictionary, d)[ids, :d]

    def id_candidate_columns(self, ids: np.ndarray, dictionary, d: int | None = None) -> list[list[int]]:
        """Column-major :meth:`id_candidate_rows` (allocation-free walking)."""
        d = self._check_d(d)
        rows = self._id_table(dictionary, d)
        return [rows[ids, j].tolist() for j in range(d)]

    def candidates_for_id(self, kid: int, dictionary, d: int | None = None) -> tuple[WorkerId, ...]:
        """Scalar :meth:`candidates` addressed by key id."""
        d = self._check_d(d)
        return tuple(self._id_table(dictionary, d)[kid, :d].tolist())

    def _intern_key(self, key: Key) -> int:
        """``_key_to_int`` with bounded memoisation (reset when full)."""
        if type(key) not in _CACHEABLE_TYPES:
            return _key_to_int(key)  # cross-type ==; see _CACHEABLE_TYPES
        cache = self._int_cache
        value = cache.get(key)
        if value is None:
            value = _key_to_int(key)
            if self._cache_size:
                if len(cache) >= self._cache_size:
                    cache.clear()
                cache[key] = value
        return value

    def distinct_candidates(self, key: Key, d: int | None = None) -> tuple[WorkerId, ...]:
        """Like :meth:`candidates` but with duplicates removed, order kept."""
        seen: dict[WorkerId, None] = {}
        for candidate in self.candidates(key, d):
            seen.setdefault(candidate, None)
        return tuple(seen)

    def with_buckets(self, num_buckets: int) -> "HashFamily":
        """Return a new family with the same seed but a different codomain."""
        return HashFamily(
            self._num_functions, num_buckets, self._seed, self._cache_size
        )

    def with_functions(self, num_functions: int) -> "HashFamily":
        """Return a new family with the same seed but a different size."""
        return HashFamily(
            num_functions, self._num_buckets, self._seed, self._cache_size
        )

    def spread(self, keys: Iterable[Key], d: int = 1) -> list[int]:
        """Histogram of bucket hits for ``keys`` under the first ``d`` functions.

        Convenience used by tests and benchmarks to check uniformity.
        """
        counts = [0] * self._num_buckets
        for key in keys:
            for bucket in self.candidates(key, d):
                counts[bucket] += 1
        return counts

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"HashFamily(num_functions={self._num_functions}, "
            f"num_buckets={self._num_buckets}, seed={self._seed})"
        )


def collision_probability(n: int, d: int) -> float:
    """Probability that two specific choices out of ``d`` collide in ``[n]``.

    Small helper used by the analysis tests; under ideal hashing each pair of
    choices collides with probability ``1/n``.
    """
    if n < 1:
        raise ConfigurationError(f"n must be positive, got {n}")
    if d < 2:
        return 0.0
    return 1.0 / n


def expected_distinct(n: int, d: int) -> float:
    """Expected number of distinct buckets hit by ``d`` uniform throws into ``n``.

    This is the quantity ``b`` of Appendix A: ``n - n((n-1)/n)^d``.
    Kept here (as well as in :mod:`repro.analysis.choices`) because it is a
    property of the hashing substrate and is tested against the empirical
    behaviour of :class:`HashFamily`.
    """
    if n < 1:
        raise ConfigurationError(f"n must be positive, got {n}")
    if d < 0:
        raise ConfigurationError(f"d must be non-negative, got {d}")
    return n - n * ((n - 1) / n) ** d


def candidate_union(families: Sequence[tuple[HashFamily, Key, int]]) -> set[WorkerId]:
    """Union of candidate sets for several (family, key, d) triples.

    Mirrors the ``U_{i<=h} W_i`` construction from the paper's analysis and is
    used by the empirical validation of the ``b_h`` bound.
    """
    union: set[WorkerId] = set()
    for family, key, d in families:
        union.update(family.candidates(key, d))
    return union
