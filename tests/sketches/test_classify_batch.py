"""The fused bulk classification contract of every sketch.

``add_and_classify_batch`` / ``add_and_classify_runs`` are the hot path of
batched head/tail routing; their flags must be byte-identical to the
reference per-message ``add`` + ``estimate`` loop for every sketch, every
threshold and every warmup, or batched routing silently diverges from
scalar.  ``head_signature`` and ``head_counts`` are the cheap accessors the
D-Choices solver throttle polls; their semantics are pinned to
``heavy_hitters`` — including each sketch's own cutoff correction.
"""

from __future__ import annotations

import random

import pytest

from repro.sketches.base import runs_to_flags
from repro.sketches.count_min import CountMinSketch
from repro.sketches.lossy_counting import LossyCounting
from repro.sketches.misra_gries import MisraGries
from repro.sketches.space_saving import SpaceSaving
from repro.workloads.zipf_stream import ZipfWorkload

SKETCHES = {
    "space-saving": lambda: SpaceSaving(capacity=40),
    "misra-gries": lambda: MisraGries(capacity=40),
    "lossy-counting": lambda: LossyCounting(epsilon=0.02),
    "count-min": lambda: CountMinSketch(width=128, depth=3, top_k=32, seed=7),
}


def _streams():
    zipf = list(ZipfWorkload(1.3, 300, 4_000, seed=11))
    rng = random.Random(5)
    uniform = [f"u{rng.randrange(500)}" for _ in range(4_000)]
    bursty = [key for key in zipf[:500] for _ in range(3)]
    return {"zipf": zipf, "uniform": uniform, "bursty": bursty}


def _reference_flags(sketch, keys, threshold, warmup):
    flags = []
    for key in keys:
        sketch.add(key)
        total = sketch.total
        flags.append(total >= warmup and sketch.estimate(key) >= threshold * total)
    return flags


class TestAddAndClassifyBatch:
    @pytest.mark.parametrize("name", SKETCHES)
    @pytest.mark.parametrize("stream", ["zipf", "uniform", "bursty"])
    @pytest.mark.parametrize("warmup", [0, 100])
    def test_flags_match_reference_loop(self, name, stream, warmup):
        keys = _streams()[stream]
        threshold = 0.05
        reference = SKETCHES[name]()
        expected = _reference_flags(reference, keys, threshold, warmup)

        fused = SKETCHES[name]()
        tails: list = []
        actual: list[bool] = []
        for start in range(0, len(keys), 997):  # chunking must not matter
            actual.extend(
                fused.add_and_classify_batch(
                    keys[start : start + 997], threshold, warmup, False, tails
                )
            )

        assert actual == expected
        assert fused.total == reference.total == len(keys)
        assert tails == [key for key, hot in zip(keys, expected) if not hot]

    @pytest.mark.parametrize("name", SKETCHES)
    def test_runs_encode_the_same_classification(self, name):
        keys = _streams()["zipf"]
        threshold = 0.05
        flat = SKETCHES[name]()
        expected = flat.add_and_classify_batch(keys, threshold, 50)

        run_form = SKETCHES[name]()
        tails: list = []
        runs = run_form.add_and_classify_runs(keys, threshold, 50, tails)

        assert runs_to_flags(runs) == expected
        assert sum(runs) + len(tails) == len(keys)
        assert len(runs) == len(tails) + 1
        assert run_form.total == flat.total

    @pytest.mark.parametrize("name", SKETCHES)
    def test_stop_at_head_parks_the_sketch(self, name):
        keys = _streams()["zipf"]
        threshold = 0.05
        reference = SKETCHES[name]()
        expected = _reference_flags(reference, keys, threshold, 0)
        first_head = expected.index(True)

        stopping = SKETCHES[name]()
        flags = stopping.add_and_classify_batch(keys, threshold, 0, True)

        # The pass halts right after the first head message, and the sketch
        # has seen exactly the keys up to and including it — nothing more.
        assert flags == expected[: first_head + 1]
        assert flags[-1]
        assert stopping.total == first_head + 1

    def test_stop_at_head_without_head_feeds_everything(self):
        sketch = SpaceSaving(capacity=8)
        # All-distinct keys past a warmup: no estimate ever reaches 90% of
        # the total, so the stop-at-head pass must feed the whole chunk.
        keys = [f"k{i}" for i in range(100)]
        flags = sketch.add_and_classify_batch(keys, 0.9, 10, True)
        assert flags == [False] * 100
        assert sketch.total == 100

    def test_empty_chunk(self):
        sketch = SpaceSaving(capacity=4)
        assert sketch.add_and_classify_batch([], 0.1) == []
        assert sketch.add_and_classify_runs([], 0.1) == [0]
        assert runs_to_flags([0]) == []


def _eviction_heavy_streams():
    rng = random.Random(23)
    wide = [f"w{rng.randrange(5_000)}" for _ in range(3_000)]  # nearly all misses
    zipf = [f"z{key}" for key in ZipfWorkload(0.8, 2_000, 3_000, seed=29)]
    # A hot key over a churning tail: relinks, in-place bumps and
    # evictions interleave, and the minimum class empties often.
    churn = [key for i in range(1_500) for key in ("hot", f"c{i}")]
    return {"wide": wide, "zipf-wide": zipf, "churn": churn}


class TestSpaceSavingBulkState:
    """The bulk feeds leave the summary exactly where the scalar loop does.

    Equal flags are not enough: the count classes, their key order (the
    eviction order) and the errors decide every later message, so the
    exported state — which lists all three — must match too.
    """

    @pytest.mark.parametrize("capacity", [1, 2, 3, 40])
    @pytest.mark.parametrize("warmup", [0, 100])
    @pytest.mark.parametrize("stream", ["wide", "zipf-wide", "churn"])
    def test_chunked_runs_match_scalar_state(self, capacity, warmup, stream):
        keys = _eviction_heavy_streams()[stream]
        threshold = 0.05
        expected = _reference_flags(SpaceSaving(capacity=capacity), keys, threshold, warmup)
        reference = SpaceSaving(capacity=capacity)
        fused = SpaceSaving(capacity=capacity)
        flags: list[bool] = []
        for start in range(0, len(keys), 257):
            chunk = keys[start : start + 257]
            flags.extend(runs_to_flags(fused.add_and_classify_runs(chunk, threshold, warmup)))
            for key in chunk:
                reference.add(key)
            # Every chunk boundary is a state checkpoint, not only the end.
            assert fused.export_state() == reference.export_state()
        assert flags == expected

    @pytest.mark.parametrize("capacity", [1, 2, 3, 40])
    @pytest.mark.parametrize("warmup", [0, 100])
    @pytest.mark.parametrize("stream", ["wide", "zipf-wide", "churn"])
    def test_stop_at_head_scan_matches_scalar_state(self, capacity, warmup, stream):
        keys = _eviction_heavy_streams()[stream]
        threshold = 0.05
        expected = _reference_flags(SpaceSaving(capacity=capacity), keys, threshold, warmup)
        reference = SpaceSaving(capacity=capacity)
        scanning = SpaceSaving(capacity=capacity)
        flags: list[bool] = []
        tails: list = []
        position = 0
        scans = 0
        while position < len(keys):
            # Resume after each head message, as D-Choices does between
            # solver checkpoints; the sketch is parked at that message.
            scan = scanning.add_and_classify_batch(
                keys[position : position + 300], threshold, warmup, True, tails
            )
            for key in keys[position : position + len(scan)]:
                reference.add(key)
            flags.extend(scan)
            position += len(scan)
            scans += 1
            if scans % 50 == 0 or not scan[-1]:  # sample the many 1-key scans
                assert scanning.export_state() == reference.export_state()
        assert scanning.export_state() == reference.export_state()
        assert flags == expected
        assert tails == [key for key, hot in zip(keys, expected) if not hot]


class TestHeadSignature:
    @pytest.mark.parametrize("name", SKETCHES)
    @pytest.mark.parametrize("stream", ["zipf", "uniform", "bursty"])
    @pytest.mark.parametrize("threshold", [0.01, 0.05, 0.3])
    def test_signature_pins_heavy_hitters_len_and_max(self, name, stream, threshold):
        sketch = SKETCHES[name]()
        for key in _streams()[stream]:
            sketch.add(key)
        head = sketch.heavy_hitters(threshold)
        expected = (len(head), max(head.values())) if head else (0, 0)
        assert sketch.head_signature(threshold) == expected

    @pytest.mark.parametrize("name", SKETCHES)
    def test_signature_of_empty_sketch(self, name):
        assert SKETCHES[name]().head_signature(0.1) == (0, 0)

    def test_signature_checked_at_every_prefix(self):
        # The D-Choices throttle may read the signature at any stream
        # offset; walk one and compare against heavy_hitters each time.
        sketch = SpaceSaving(capacity=16)
        for index, key in enumerate(ZipfWorkload(1.5, 100, 800, seed=3)):
            sketch.add(key)
            if index % 37 == 0:
                head = sketch.heavy_hitters(0.08)
                expected = (len(head), max(head.values())) if head else (0, 0)
                assert sketch.head_signature(0.08) == expected


class TestHeadCounts:
    @pytest.mark.parametrize("name", SKETCHES)
    @pytest.mark.parametrize("threshold", [0.01, 0.05, 0.3])
    def test_counts_are_heavy_hitters_values(self, name, threshold):
        sketch = SKETCHES[name]()
        for key in _streams()["zipf"]:
            sketch.add(key)
        expected = sorted(sketch.heavy_hitters(threshold).values())
        assert sorted(sketch.head_counts(threshold)) == expected

    def test_counts_of_empty_sketch(self):
        assert SpaceSaving(capacity=4).head_counts(0.5) == []
