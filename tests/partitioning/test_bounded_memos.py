"""Bounded routing memos are reset when full and never change a route.

Every cache on the routing path only stores values derivable from its key
(folded key words, candidate tuples, ring owners), so emptying it when it
fills must leave every routing decision as it was.  Each test shrinks one
scheme's memo limits, routes a stream that overflows them, and compares
with the same scheme at its default limits, which this stream never fills.
"""

from __future__ import annotations

from functools import partial

import pytest

from repro.hashing.hash_family import HashFamily
from repro.partitioning import head_tail
from repro.partitioning.registry import create_partitioner
from repro.workloads.columnar import ColumnarBatch, KeyDictionary
from repro.workloads.zipf_stream import ZipfWorkload

#: Shrunk hash-family cache size and head candidate / ring owner limits.
CACHE_SIZE = 32
HEAD_LIMIT = 4

#: Batch sizes cycled over the stream: single messages and short
#: fragments take the scalar helpers, longer batches the vectorized paths.
BATCH_SIZES = (1, 7, 24, 25, 500, 997)


def _stream() -> list[str]:
    # ~900 distinct keys and a dozen D-C head keys at n=20.
    return [f"k{key}" for key in ZipfWorkload(1.4, 2_000, 20_000, seed=3)]


def _batches(keys):
    start = 0
    step = 0
    while start < len(keys):
        size = BATCH_SIZES[step % len(BATCH_SIZES)]
        yield start, keys[start : start + size]
        start += size
        step += 1


def _bounded(scheme: str, monkeypatch):
    with monkeypatch.context() as patch:
        patch.setattr(head_tail, "HashFamily", partial(HashFamily, cache_size=CACHE_SIZE))
        partitioner = create_partitioner(scheme, num_workers=20, seed=1)
    partitioner._HEAD_CANDIDATE_CACHE_LIMIT = HEAD_LIMIT
    partitioner._ID_OWNER_CACHE_LIMIT = CACHE_SIZE
    return partitioner


def _memo_sizes(partitioner) -> dict[str, int]:
    hashes = getattr(partitioner, "_hashes", None)
    sizes = {
        "_head_cand_cache": len(getattr(partitioner, "_head_cand_cache", ())),
        "_head_cand_cache_ids": len(getattr(partitioner, "_head_cand_cache_ids", ())),
        "_id_owner_cache": len(getattr(partitioner, "_id_owner_cache", ())),
    }
    if hashes is not None:
        sizes["_int_cache"] = len(hashes._int_cache)
        sizes["_candidate_cache"] = len(hashes._candidate_cache)
    return sizes


LIMITS = {
    "_head_cand_cache": HEAD_LIMIT,
    "_head_cand_cache_ids": HEAD_LIMIT,
    "_id_owner_cache": CACHE_SIZE,
    "_int_cache": CACHE_SIZE,
    "_candidate_cache": CACHE_SIZE,
}


@pytest.mark.parametrize(
    ("scheme", "columnar", "overflowed"),
    [
        ("W-C", False, ["_int_cache", "_candidate_cache"]),
        ("W-C", True, []),
        ("D-C", False, ["_int_cache", "_candidate_cache", "_head_cand_cache"]),
        ("D-C", True, ["_head_cand_cache_ids"]),
        ("CH", True, ["_id_owner_cache"]),
    ],
)
def test_overflowing_memos_keep_routing_identical(scheme, columnar, overflowed, monkeypatch):
    keys = _stream()
    bounded = _bounded(scheme, monkeypatch)
    reference = create_partitioner(scheme, num_workers=20, seed=1)
    dictionaries = (KeyDictionary(), KeyDictionary())
    for start, batch in _batches(keys):
        if columnar:
            routed = [
                partitioner.route_batch_columnar(
                    ColumnarBatch(dictionary.intern_keys(batch), dictionary, start)
                )
                for partitioner, dictionary in zip((bounded, reference), dictionaries)
            ]
        else:
            routed = [bounded.route_batch(batch), reference.route_batch(batch)]
        assert routed[0] == routed[1]
        for name, size in _memo_sizes(bounded).items():
            assert size <= LIMITS[name], name
    assert bounded.local_loads == reference.local_loads
    # The stream really overflowed the shrunk limits: the reference, whose
    # limits it never reaches, holds more entries than they allow.
    unbounded = _memo_sizes(reference)
    for name in overflowed:
        assert unbounded[name] > LIMITS[name], name
