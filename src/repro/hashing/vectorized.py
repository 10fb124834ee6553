"""Vectorized SplitMix64 hashing over numpy ``uint64`` arrays.

The scalar path in :mod:`repro.hashing.hash_family` mixes one 64-bit word at
a time in pure Python.  That is fine for a single lookup but dominates the
routing hot path when a partitioner needs ``d`` candidates for every message
of a stream.  This module applies the *same* SplitMix64 finalizer to whole
arrays at once, so hashing a batch of ``m`` keys under ``d`` functions is a
handful of numpy kernels over an ``(m, d)`` array instead of ``m * d``
Python-level mixes.

Bit-exactness matters: batched and scalar routing must produce identical
candidate workers (multiple sources agree on a key's candidates purely
through hashing).  ``splitmix64_array`` therefore mirrors
``hash_family._splitmix64`` operation for operation; unsigned 64-bit
overflow wraps in numpy exactly as the ``& _MASK64`` masking does in Python.
The equivalence is pinned by ``tests/hashing/test_vectorized.py``.

:func:`fold_keys` does the same for key serialisation: it folds a batch of
string / bytes keys to the 64-bit words of ``hash_family._key_to_int``
with a few numpy passes over their packed bytes; an all-ASCII batch of
short ``str`` keys is packed without a per-key encode, and a batch of
``int`` keys is converted in one step.
"""

from __future__ import annotations

import numpy as np

#: SplitMix64 constants — must match :mod:`repro.hashing.hash_family`.
_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_S30 = np.uint64(30)
_S27 = np.uint64(27)
_S31 = np.uint64(31)

#: FNV-1a constants of ``hash_family._key_to_int``.
_FNV_OFFSET = np.uint64(0xCBF29CE484222325)
_FNV_PRIME = np.uint64(0x100000001B3)
_ONE = np.uint64(1)

#: Longest encoded key :func:`fold_keys` packs, in bytes.  Longer keys fold
#: through the scalar path, so the packed buffer is at most ``64 * batch``
#: bytes whatever the longest key of the batch.
_PACKED_BYTES = 64


def splitmix64_array(x: np.ndarray) -> np.ndarray:
    """Apply the SplitMix64 finalizer elementwise to a ``uint64`` array.

    Returns a new array; the input is not modified.  Overflow wraps modulo
    2^64, which is the defined behaviour of the mixing function.
    """
    x = x + _GAMMA
    x = (x ^ (x >> _S30)) * _MIX1
    x = (x ^ (x >> _S27)) * _MIX2
    return x ^ (x >> _S31)


def bucketed_hash_columns(
    key_ints: np.ndarray, mixed_seeds: np.ndarray, num_buckets: int
) -> list[list[int]]:
    """Column-major :func:`bucketed_hashes`: one flat Python list per function.

    ``bucketed_hashes(...).tolist()`` materialises one small list per *row*
    (message), which the routing selection loops immediately unpack and
    discard — for a 2-choice tail pass that is a throwaway allocation per
    message.  Returning the ``d`` columns as flat ``int`` lists instead lets
    consumers walk the batch with ``zip(firsts, seconds)``, whose result
    tuple CPython recycles, so the per-message allocation disappears.  The
    values are identical to the matrix form: ``column[j][i] ==
    bucketed_hashes(...)[i, j]``.
    """
    matrix = bucketed_hashes(key_ints, mixed_seeds, num_buckets)
    return [matrix[:, j].tolist() for j in range(matrix.shape[1])]


def bucketed_hashes(
    key_ints: np.ndarray, mixed_seeds: np.ndarray, num_buckets: int
) -> np.ndarray:
    """Hash every key under every seed and reduce onto ``[0, num_buckets)``.

    Parameters
    ----------
    key_ints:
        ``uint64`` array of serialised keys (one entry per message), i.e. the
        output of ``hash_family._key_to_int`` for each key.
    mixed_seeds:
        ``uint64`` array of *pre-mixed* per-function seeds, i.e.
        ``splitmix64(sub_seed)`` for each function of the family.
    num_buckets:
        Codomain size ``n``.

    Returns
    -------
    ``int64`` array of shape ``(len(key_ints), len(mixed_seeds))`` whose
    ``[i, j]`` entry equals ``stable_hash(key_i, sub_seed_j) % num_buckets``.
    """
    mixed = splitmix64_array(key_ints[:, None] ^ mixed_seeds[None, :])
    return (mixed % np.uint64(num_buckets)).astype(np.int64)


def fold_keys(keys) -> np.ndarray:
    """``hash_family._key_to_int`` over a batch of keys, as ``uint64``.

    A batch of exact ``int`` keys that fit ``int64`` is their
    two's-complement words (``key & _MASK64``), and an ASCII batch (see
    :func:`_fold_ascii`) is packed in one numpy step.  Otherwise ``str``
    and ``bytes`` keys of at most :data:`_PACKED_BYTES` encoded bytes are
    encoded one by one into a zero-padded ``S{8k}`` buffer, and every
    other key goes through the scalar fold.  Either way the packed keys
    are viewed as ``k`` little-endian ``uint64`` words each and folded by
    :func:`_fold_words`.  The result is bit-identical to
    ``[_key_to_int(key) for key in keys]``.
    """
    kinds = set(map(type, keys))
    if kinds == {int}:
        try:
            return np.array(keys, dtype=np.int64).view(np.uint64)
        except OverflowError:
            pass  # a key outside int64 takes the scalar fold below
    elif kinds == {str}:
        folded = _fold_ascii(keys)
        if folded is not None:
            return folded
    from repro.hashing import hash_family  # imports this module

    key_to_int = hash_family._key_to_int
    out = np.empty(len(keys), dtype=np.uint64)
    positions: list[int] = []
    packed: list[bytes] = []
    for position, key in enumerate(keys):
        kind = type(key)
        data = key.encode("utf-8") if kind is str else key if kind is bytes else None
        if data is None or len(data) > _PACKED_BYTES:
            out[position] = key_to_int(key)
        else:
            positions.append(position)
            packed.append(data)
    if not packed:
        return out
    lengths = np.fromiter(map(len, packed), dtype=np.uint64, count=len(packed))
    width = max(1, -(-int(lengths.max()) // 8))
    words = np.array(packed, dtype=f"S{8 * width}").view("<u8").reshape(-1, width)
    out[positions] = _fold_words(words, lengths)
    return out


def _fold_ascii(keys) -> np.ndarray | None:
    """:func:`fold_keys` of a non-empty batch of exact ``str`` keys.

    Returns ``None`` unless the joined batch is ASCII and no key is longer
    than :data:`_PACKED_BYTES` characters.  An ASCII character is one UTF-8
    byte, so ``np.array(keys, dtype="U{8k}")`` viewed as ``uint32`` code
    points and narrowed to ``uint8`` is the zero-padded encoding of every
    key in ``k`` words, built without a per-key ``encode``.  Lengths come
    from ``len``: numpy's ``U`` dtype drops trailing NULs, but its buffer
    keeps them.
    """
    if not "".join(keys).isascii():
        return None
    lengths = np.fromiter(map(len, keys), dtype=np.uint64, count=len(keys))
    longest = int(lengths.max())
    if longest > _PACKED_BYTES:
        return None
    width = max(1, -(-longest // 8))
    codes = np.array(keys, dtype=f"U{8 * width}").view(np.uint32)
    words = codes.astype(np.uint8).view("<u8").reshape(-1, width)
    return _fold_words(words, lengths)


def _fold_words(words: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Fold zero-padded little-endian key words as ``_key_to_int`` does.

    ``words`` is ``(m, k)`` ``uint64``, row ``i`` holding the encoded bytes
    of key ``i``; ``lengths`` its byte counts.  Short keys: word ^ base.
    Long keys: FNV-1a from base over every 8-byte chunk; the first chunk's
    XOR is shared with the short form.  Each step is masked by the key's
    length (a zero padding word must not take a multiply).
    """
    acc = words[:, 0] ^ ((lengths * _GAMMA) ^ _FNV_OFFSET)
    for j in range(1, words.shape[1]):
        acc = (acc * np.where(lengths > 8 * j, _FNV_PRIME, _ONE)) ^ words[:, j]
    acc *= np.where(lengths > 8, _FNV_PRIME, _ONE)
    return acc
