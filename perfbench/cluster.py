"""The multi-process workload, ``cluster-io``: the real runtime via ``run_cluster``.

One source process routes with D-Choices into 8 worker processes over
shared-memory rings; each worker blocks 20 us per message, a modelled
I/O-bound operator (50k msg/s per worker).  The source blocks when a ring
is full, so the loop is closed.  Throughput is bound by the hottest
worker's service time, so it measures how balance turns into throughput,
plus the runtime's overhead against that bound; as the workers sleep most
of the time, host contention barely enters and throughput is taken in wall
time.

A run repeats ``run_cluster`` with the same config until ``--seconds`` is
spent and reports medians over the repetitions.
"""

from __future__ import annotations

import functools
import json
import os
import shutil
import tempfile
import time
from pathlib import Path

import numpy as np

from common import (
    children_cpu_s,
    key_replication,
    median,
    peak_rss_mb,
    percentile,
)
from refkernel import ReferenceClock, ReferenceKernel
from tracing import Patches, Tracer, durations, install_routing, install_runtime, self_times

SCHEME = "D-C"
NUM_WORKERS = 8
NUM_KEYS = 10_000
SKEW = 1.4
SERVICE_NS = 20_000
#: Batches as large as the routing workloads'.  At 512 a frame carries ~64
#: messages, so a worker sleeps ~1.3 ms per frame and timer wake-up jitter
#: moved the per-repetition rate by 7.6% (IQR); at 2048 it moved 2.1%.
MODE = "columnar:2048"
#: Not a multiple of NUM_WORKERS, so the imbalance can never read exactly 0.
MESSAGES = 300_001
#: Fixed hash seed; ``--seed`` draws the stream (see routing.HASH_SEED).
HASH_SEED = 0


def make_config(seed: int):
    from repro.runtime import ClusterConfig
    from repro.workloads import ZipfWorkload

    return ClusterConfig(
        scheme=SCHEME,
        num_workers=NUM_WORKERS,
        num_messages=MESSAGES,
        num_keys=NUM_KEYS,
        skew=SKEW,
        seed=HASH_SEED,
        workload_factory=functools.partial(ZipfWorkload, SKEW, NUM_KEYS, MESSAGES, seed=seed),
        service_ns=SERVICE_NS,
        mode=MODE,
    )


def reference_routing(config) -> tuple[np.ndarray, np.ndarray]:
    """Route the run's stream in process: ``(ids, workers)`` of every message."""
    from repro.partitioning.registry import create_partitioner

    partitioner = create_partitioner(
        config.scheme, num_workers=config.num_workers, seed=config.seed
    )
    ids = []
    workers = []
    for batch in config.build_workload().iter_batches_columnar(config.mode.batch_size):
        ids.append(batch.ids)
        workers.extend(partitioner.route_batch_columnar(batch))
    return np.concatenate(ids), np.asarray(workers, dtype=np.int64)


def _failures(result, expected_loads) -> int:
    """Messages lost, routed off the reference, or not delivered where routed."""
    routed_off = sum(abs(a - b) for a, b in zip(result.source_loads, expected_loads))
    undelivered = sum(abs(a - b) for a, b in zip(result.worker_processed, result.source_loads))
    return result.messages_lost + routed_off + undelivered


def _check(config, results) -> tuple[int, float]:
    """Validate every repetition; returns ``(failed, key_replication)``.

    The first repetition goes through ``validate_against_simulation``
    (routing match and per-worker conservation against the simulator);
    every repetition is compared with the in-process reference routing.
    """
    from repro.runtime import validate_against_simulation

    ids, workers = reference_routing(config)
    expected = np.bincount(workers, minlength=config.num_workers).tolist()
    failed = sum(_failures(result, expected) for result in results)
    if not validate_against_simulation(config, results[0])["ok"]:
        failed = max(failed, 1)
    return failed, key_replication(ids, workers, config.num_workers)


def _timed_cluster(config):
    from repro.runtime import run_cluster

    cpu_before = children_cpu_s()
    started = time.perf_counter()
    result = run_cluster(config)
    ended = time.perf_counter()
    return result, started, ended, children_cpu_s() - cpu_before


def _kernel_median(slices: int = 50) -> float:
    kernel = ReferenceKernel()
    return median([kernel() for _ in range(slices)])


def run(seed: int, seconds: float) -> dict:
    """Untraced run: the end-to-end metrics.

    ``msgs_per_s`` is in wall time.  ``setup_s`` (fork, shared memory,
    barrier, teardown) is CPU-bound, so it is rescaled by reference-kernel
    slices around each ``run_cluster`` call: raw, its median moved from
    0.036 s to 0.022 s between two sets of ten runs an hour apart.
    """
    from repro.runtime import run_cluster

    config = make_config(seed)
    clock = ReferenceClock()
    results = []
    setups = []
    setup_walls = []
    deadline = time.perf_counter() + seconds
    while True:
        result, wall, ref = clock.measure(run_cluster, config)
        results.append(result)
        setup_walls.append(wall - result.elapsed_s)
        setups.append(setup_walls[-1] * ref / wall)
        if time.perf_counter() + wall > deadline:
            break
    failed, replication = _check(config, results)
    rates = [result.messages_total / result.elapsed_s for result in results]
    return {
        "metrics": {
            "msgs_per_s": median(rates),
            "setup_s": median(setups),
            "imbalance": results[0].imbalance,
            "key_replication": replication,
            "peak_rss_mb": peak_rss_mb(children=True),
        },
        "attempted": MESSAGES * len(results),
        "failed": failed,
        "checked": MESSAGES * len(results),
        "info": {
            "reps": len(results),
            "rates": [round(rate) for rate in rates],
            "setup_wall_s": median(setup_walls),
            "ref_kernel_median_s": median(clock.slices),
        },
    }


def _load_spans(out_dir: Path, run_id: int) -> dict[str, dict]:
    loaded = {}
    for path in out_dir.glob(f"*-{run_id}.json"):
        payload = json.loads(path.read_text())
        loaded[payload["role"]] = payload
    return loaded


def _traced_metrics(result, files: dict, started: float, ended: float, released: float) -> dict:
    source = files["source"]
    spans = source["spans"]
    counters = source["counters"]
    routed = counters["routed"]
    own = self_times(spans)
    window = source["marks"]["window_end"] - source["marks"]["window_start"]
    generate = sum(durations(spans, "runtime.generate"))
    route_spans = durations(spans, "partitioning.route")
    route = sum(route_spans)
    push = sum(durations(spans, "runtime.push"))
    pops = {
        int(role[len("worker"):]): sum(durations(payload["spans"], "runtime.pop"))
        for role, payload in files.items()
        if role.startswith("worker")
    }
    hottest = int(np.argmax(result.worker_processed))
    applies = sum(
        sum(durations(payload["spans"], "runtime.delta_apply"))
        for role, payload in files.items()
        if role.startswith("worker")
    )
    per_msg = 1e6 / routed
    return {
        "workloads.intern_us_per_msg": own.get("workloads.intern", 0.0) * per_msg,
        "workloads.distinct_keys": result.dict_entries,
        "hashing.candidates_us_per_msg": own.get("hashing", 0.0) * per_msg,
        "hashing.key_folds_per_msg": counters.get("key_folds", 0) / routed,
        "sketches.classify_us_per_msg": own.get("sketches.classify", 0.0) * per_msg,
        "sketches.probe_us_per_msg": own.get("sketches.probe", 0.0) * per_msg,
        "sketches.head_frac": counters.get("head", 0) / max(1, counters.get("classified", 0)),
        "partitioning.route_us_per_msg": route * per_msg,
        "partitioning.self_us_per_msg": own.get("partitioning.route", 0.0) * per_msg,
        "partitioning.solver_calls": counters.get("solver_calls", 0),
        "partitioning.solver_us_per_msg": own.get("partitioning.solver", 0.0) * per_msg,
        "partitioning.batch_us_p50": percentile(route_spans, 50) * 1e6,
        "partitioning.batch_us_p99": percentile(route_spans, 99) * 1e6,
        "partitioning.batches": len(route_spans),
        "partitioning.choices_d": counters.get("choices_d", 0),
        "runtime.source.generate_s": generate,
        "runtime.source.route_s": route,
        "runtime.source.push_s": push,
        "runtime.source.other_s": window - generate - route - push,
        "runtime.source.fence_polls_per_batch": counters.get("fence_polls", 0)
        / max(1, counters.get("batches", 0)),
        "runtime.source.delta_sends": counters.get("delta_sends", 0),
        "runtime.source.delta_keys": counters.get("delta_keys", 0),
        "runtime.ring.frames": counters.get("frames", 0),
        "runtime.ring.msgs_per_frame": counters.get("frame_ids", 0)
        / max(1, counters.get("frames", 0)),
        "runtime.worker.pop_wait_s": pops.get(hottest, 0.0),
        "runtime.worker.pop_wait_max_s": max(pops.values(), default=0.0),
        "runtime.worker.delta_apply_s": applies,
        "runtime.startup_s": released - started,
        "runtime.teardown_s": ended - (released + result.elapsed_s),
        "bench.ledger_coverage": (generate + route + push) / window,
    }


def run_traced(seed: int, seconds: float) -> dict:
    """Traced run: per-layer metrics from spans the source and workers write.

    Repetitions alternate between traced and untraced; the untraced ones
    give the overhead baseline, the pipeline efficiency and the CPU cost.
    """
    from repro.partitioning.d_choices import DChoices

    config = make_config(seed)
    checkout = Path(__file__).resolve().parent.parent
    out_dir = Path(tempfile.mkdtemp(prefix=".perfbench-trace-", dir=checkout))
    tracer = Tracer(out_dir)
    os.register_at_fork(after_in_child=tracer.after_fork)
    patches = Patches()
    traced_rows = []
    plain = []
    results = []
    try:
        deadline = time.perf_counter() + seconds
        while True:
            if len(traced_rows) <= len(plain):
                tracer.run_id += 1
                tracer.reset()
                install_routing(tracer, patches, DChoices, "route_batch_columnar")
                install_runtime(tracer, patches)
                try:
                    result, started, ended, _ = _timed_cluster(config)
                finally:
                    patches.undo()
                files = _load_spans(out_dir, tracer.run_id)
                row = _traced_metrics(result, files, started, ended, tracer.marks["released"])
                traced_rows.append((result, row))
            else:
                result, started, ended, cpu = _timed_cluster(config)
                plain.append((result, cpu))
            results.append(result)
            if plain and ended + (ended - started) > deadline:
                break
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    failed, _ = _check(config, results)

    metrics = {
        name: median([row[name] for _, row in traced_rows]) for name in traced_rows[0][1]
    }
    service_s = SERVICE_NS / 1e9
    rates = [result.messages_total / result.elapsed_s for result, _ in plain]
    metrics.update({
        "runtime.pipeline_efficiency": median(
            rate * max(result.worker_processed) * service_s / result.messages_total
            for rate, (result, _) in zip(rates, plain)
        ),
        "runtime.cpu_us_per_msg": median(
            cpu / result.messages_total * 1e6 for result, cpu in plain
        ),
        "bench.ref_kernel_s": _kernel_median(),
        "bench.wall_msgs_per_s": median(rates),
        "bench.trace_overhead": median(result.elapsed_s for result, _ in traced_rows)
        / median(result.elapsed_s for result, _ in plain),
        "bench.failed_frac": failed / (MESSAGES * len(results)),
    })
    return {
        "metrics": metrics,
        "attempted": MESSAGES * len(results),
        "failed": failed,
        "checked": MESSAGES * len(results),
        "info": {"traced_reps": len(traced_rows), "untraced_reps": len(plain)},
    }
