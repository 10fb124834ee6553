"""The in-process routing workloads, ``route-hot`` and ``route-wide``.

One embedded partitioner routes a generated stream in a closed loop: the
next batch is routed only after the previous call returned.  The stream is
routed in *epochs*, each through a fresh partitioner, so every epoch does
the same work and its output can be checked against the reference path.

Timings are CPU-bound, so they are taken in reference seconds (see
``refkernel.py``): the timed phase is cut into short sections, each
sandwiched between reference-kernel slices.
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass

import numpy as np

from common import (
    key_replication,
    median,
    mismatches,
    peak_rss_mb,
    percentile,
    tail_imbalance,
)
from refkernel import ReferenceClock
from tracing import Patches, Tracer, durations, install_routing, self_times

NUM_WORKERS = 50
BATCH = 2048
#: The partitioners' hash seed is part of the deployment, like the hash
#: functions a Storm grouping ships with; ``--seed`` draws the stream.  With
#: the seed in the hashes, D-C's imbalance on route-hot jumps between modes
#: (0.0017 or 2e-6) from seed to seed.
HASH_SEED = 0
_DRAW_CHUNK = 200_000


@dataclass(frozen=True)
class RouteSpec:
    """One routing workload.

    ``columnar`` streams are pre-interned :class:`ColumnarBatch` es routed
    with ``route_batch_columnar``; the others are string-key lists routed
    with the key-space ``route_batch``.  ``chunk`` is the number of batches
    per timed section (about 20 ms or more of work).
    """

    name: str
    scheme: str
    exponent: float
    num_keys: int
    messages: int
    columnar: bool
    chunk: int
    setup_reps: int


# Stream lengths are whole batches and not multiples of NUM_WORKERS, so the
# imbalance of a perfectly spread stream is still above 0.
ROUTE_HOT = RouteSpec("route-hot", "D-C", 1.4, 10_000, 489 * BATCH, True, 8, 9)
ROUTE_WIDE = RouteSpec("route-wide", "W-C", 0.8, 1_000_000, 147 * BATCH, False, 1, 5)
SPECS = {spec.name: spec for spec in (ROUTE_HOT, ROUTE_WIDE)}


@dataclass
class Stream:
    ids: np.ndarray
    dictionary: object
    batches: list


def new_partitioner(spec: RouteSpec):
    from repro.partitioning.registry import create_partitioner

    return create_partitioner(spec.scheme, num_workers=NUM_WORKERS, seed=HASH_SEED)


def _call(fn, *args):
    return fn(*args)


def _draw(workload) -> np.ndarray:
    return np.concatenate([np.asarray(chunk) for chunk in workload.iter_batches(_DRAW_CHUNK)])


def _split(keys: list) -> list[list]:
    return [keys[start : start + BATCH] for start in range(0, len(keys), BATCH)]


def _split_ids(ids: np.ndarray, dictionary) -> list:
    from repro.workloads import ColumnarBatch

    return [
        ColumnarBatch(ids[start : start + BATCH], dictionary, start)
        for start in range(0, ids.size, BATCH)
    ]


def build(spec: RouteSpec, seed: int, step=_call) -> Stream:
    """The program's set-up: Zipf draw, interning, partitioner construction.

    Each stage runs through ``step(fn, *args)``, so set-up timing can
    normalise stage by stage rather than across the whole build.
    """
    from repro.workloads import KeyDictionary, ZipfWorkload

    workload = ZipfWorkload(spec.exponent, spec.num_keys, spec.messages, seed=seed)
    dictionary = KeyDictionary()
    if spec.columnar:
        # One stage per draw chunk (the unit the workload interns), so no
        # stage is long next to the contention phases.
        chunks = workload.iter_batches_columnar(_DRAW_CHUNK, dictionary)
        parts = []
        while (chunk := step(next, chunks, None)) is not None:
            parts.append(chunk.ids)
        ids = np.concatenate(parts)
        batches = step(_split_ids, ids, dictionary)
    else:
        draws = step(_draw, workload)
        ids = step(dictionary.intern_mapped_array, draws, "key-{}".format)
        keys = step(dictionary.decode, ids)
        batches = step(_split, keys)
    # Constructed as part of set-up; each epoch routes through a fresh one.
    step(new_partitioner, spec)
    return Stream(ids, dictionary, batches)


def entry_name(spec: RouteSpec) -> str:
    return "route_batch_columnar" if spec.columnar else "route_batch"


def reference_routing(spec: RouteSpec, stream: Stream) -> list[int]:
    """The same stream through the other representation of the same scheme.

    ``route-hot`` is checked against ``route_batch`` on the decoded keys,
    ``route-wide`` against ``route_batch_columnar`` on the interned ids:
    the repo's contract is that both give the same workers.
    """
    partitioner = new_partitioner(spec)
    out: list[int] = []
    if spec.columnar:
        for batch in stream.batches:
            out.extend(partitioner.route_batch(batch.keys()))
    else:
        for batch in _split_ids(stream.ids, stream.dictionary):
            out.extend(partitioner.route_batch_columnar(batch))
    return out


def _route_group(route, group) -> list[list[int]]:
    return [route(batch) for batch in group]


def run_epoch(spec: RouteSpec, stream: Stream, clock: ReferenceClock):
    """Route the whole stream once through a fresh partitioner.

    Returns ``(partitioner, workers, wall_s, ref_s)``.
    """
    partitioner = new_partitioner(spec)
    route = getattr(partitioner, entry_name(spec))
    batches = stream.batches
    workers: list[int] = []
    wall = ref = 0.0
    for start in range(0, len(batches), spec.chunk):
        routed, section_wall, section_ref = clock.measure(
            _route_group, route, batches[start : start + spec.chunk]
        )
        for out in routed:
            workers.extend(out)
        wall += section_wall
        ref += section_ref
    return partitioner, workers, wall, ref


def _measure_setup(spec: RouteSpec, seed: int, clock: ReferenceClock):
    """Build the stream ``setup_reps`` times; returns the first build, refs and walls."""
    refs = []
    walls = []
    stream = None
    for _ in range(spec.setup_reps):
        ref_before, wall_before = clock.ref_s, clock.wall_s
        built = build(spec, seed, lambda fn, *args: clock.measure(fn, *args)[0])
        refs.append(clock.ref_s - ref_before)
        walls.append(clock.wall_s - wall_before)
        if stream is None:
            stream = built
        del built
    return stream, refs, walls


def _check(spec, stream, partitioner, workers) -> tuple[int, float, float]:
    """Compare one epoch with the reference path; returns failed, imbalance, replication."""
    expected = reference_routing(spec, stream)
    failed = mismatches(workers, expected)
    loads = np.bincount(np.asarray(expected, dtype=np.int64), minlength=NUM_WORKERS)
    if partitioner.local_loads != loads.tolist():
        failed = max(failed, 1)
    imbalance = tail_imbalance(workers, NUM_WORKERS)
    replication = key_replication(stream.ids, workers, NUM_WORKERS)
    return failed, imbalance, replication


def run(spec: RouteSpec, seed: int, seconds: float) -> dict:
    """Untraced run: the end-to-end metrics."""
    clock = ReferenceClock()
    stream, setup_refs, setup_walls = _measure_setup(spec, seed, clock)
    clock.break_chain()
    epochs = []
    deadline = time.perf_counter() + seconds
    while True:
        started = time.perf_counter()
        # Every epoch starts from the same heap: a previous epoch's caches
        # left alive made later epochs ~5% slower than the first.
        partitioner = workers = None
        gc.collect()
        partitioner, workers, wall, ref = run_epoch(spec, stream, clock)
        epochs.append((wall, ref))
        if time.perf_counter() + (time.perf_counter() - started) > deadline:
            break
    failed, imbalance, replication = _check(spec, stream, partitioner, workers)
    routed = spec.messages * len(epochs)
    wall_s = sum(wall for wall, _ in epochs)
    return {
        "metrics": {
            "msgs_per_s": routed / sum(ref for _, ref in epochs),
            "setup_s": median(setup_refs),
            "imbalance": imbalance,
            "key_replication": replication,
            "peak_rss_mb": peak_rss_mb(),
        },
        "attempted": routed,
        "failed": failed,
        "checked": spec.messages,
        "info": {
            "epochs": len(epochs),
            "wall_msgs_per_s": routed / wall_s,
            "epoch_msgs_per_s": [round(spec.messages / ref) for _, ref in epochs],
            "setup_wall_s": median(setup_walls),
            "ref_kernel_median_s": median(clock.slices),
        },
    }


def run_traced(spec: RouteSpec, seed: int, seconds: float) -> dict:
    """Traced run: the per-layer metrics.

    Epochs alternate between traced and untraced, so the tracing overhead
    is measured against untraced epochs of the same contention phase.
    """
    clock = ReferenceClock()
    tracer = Tracer()
    patches = Patches()
    partitioner_cls = type(new_partitioner(spec))

    install_routing(tracer, patches, partitioner_cls, entry_name(spec))
    try:
        stream = build(spec, seed)
    finally:
        patches.undo()
    intern_s = self_times(tracer.spans).get("workloads.intern", 0.0)
    build_folds = tracer.counters["key_folds"]
    tracer.reset()

    traced_wall = traced_ref = untraced_wall = untraced_ref = 0.0
    traced_epochs = untraced_epochs = 0
    last = None
    deadline = time.perf_counter() + seconds
    while True:
        started = time.perf_counter()
        epoch = None
        gc.collect()
        if traced_epochs <= untraced_epochs:
            install_routing(tracer, patches, partitioner_cls, entry_name(spec))
            try:
                last = run_epoch(spec, stream, clock)
            finally:
                patches.undo()
            traced_epochs += 1
            traced_wall += last[2]
            traced_ref += last[3]
        else:
            epoch = run_epoch(spec, stream, clock)
            untraced_epochs += 1
            untraced_wall += epoch[2]
            untraced_ref += epoch[3]
        remaining = deadline - time.perf_counter()
        if untraced_epochs and remaining < time.perf_counter() - started:
            break

    partitioner, workers, _, _ = last
    failed, _, _ = _check(spec, stream, partitioner, workers)
    spans = tracer.spans
    counters = tracer.counters
    routed = counters["routed"]
    own = self_times(spans)
    route_spans = durations(spans, "partitioning.route")
    layers = ("partitioning.route", "hashing", "sketches.classify", "sketches.probe",
              "partitioning.solver")
    per_msg = 1e6 / routed
    untraced_msgs = spec.messages * untraced_epochs
    choices = getattr(partitioner, "current_num_choices", None)
    metrics = {
        "workloads.intern_us_per_msg": intern_s * 1e6 / spec.messages,
        "workloads.distinct_keys": len(stream.dictionary),
        "hashing.candidates_us_per_msg": own.get("hashing", 0.0) * per_msg,
        "hashing.key_folds_per_msg": build_folds / spec.messages + counters["key_folds"] / routed,
        "sketches.classify_us_per_msg": own.get("sketches.classify", 0.0) * per_msg,
        "sketches.probe_us_per_msg": own.get("sketches.probe", 0.0) * per_msg,
        "sketches.head_frac": counters["head"] / max(1, counters["classified"]),
        "partitioning.route_us_per_msg": sum(route_spans) * per_msg,
        "partitioning.self_us_per_msg": own.get("partitioning.route", 0.0) * per_msg,
        "partitioning.solver_calls": counters["solver_calls"] / traced_epochs,
        "partitioning.solver_us_per_msg": own.get("partitioning.solver", 0.0) * per_msg,
        "partitioning.batch_us_p50": percentile(route_spans, 50) * 1e6,
        "partitioning.batch_us_p99": percentile(route_spans, 99) * 1e6,
        "partitioning.batches": len(route_spans),
        "partitioning.choices_d": choices() if choices is not None else NUM_WORKERS,
        "bench.ref_kernel_s": median(clock.slices),
        "bench.wall_msgs_per_s": untraced_msgs / untraced_wall,
        "bench.trace_overhead": (traced_ref / (spec.messages * traced_epochs))
        / (untraced_ref / untraced_msgs),
        "bench.ledger_coverage": sum(own.get(layer, 0.0) for layer in layers) / traced_wall,
        "bench.failed_frac": failed / spec.messages,
    }
    return {
        "metrics": metrics,
        "attempted": spec.messages * (traced_epochs + untraced_epochs),
        "failed": failed,
        "checked": spec.messages,
        "info": {"traced_epochs": traced_epochs, "untraced_epochs": untraced_epochs},
    }
