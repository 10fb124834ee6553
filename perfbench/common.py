"""Helpers shared by the workloads: statistics, memory and the replication metric."""

from __future__ import annotations

import math
import resource
import statistics

import numpy as np


def median(values) -> float:
    return float(statistics.median(values))


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100]) of a non-empty sample."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100 * len(ordered)))
    return float(ordered[rank - 1])


def peak_rss_mb(children: bool = False) -> float:
    """Peak resident set of this process, or of its largest waited-for child."""
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def key_replication(ids: np.ndarray, workers: np.ndarray, num_workers: int) -> float:
    """Distinct (key, worker) pairs over distinct keys: the operator-state cost."""
    ids = np.asarray(ids, dtype=np.int64)
    pairs = np.unique(ids * num_workers + np.asarray(workers, dtype=np.int64))
    return pairs.size / np.unique(ids).size


#: Messages between two samples of I(t) in :func:`tail_imbalance`.
TAIL_STEP = 32


def tail_imbalance(workers, num_workers: int, step: int = TAIL_STEP) -> float:
    """The paper's I(t), averaged over the last tenth of the stream.

    I(t) is sampled every ``step`` messages, ending with the final load
    vector.  A scheme that balances perfectly ends 0, 1 or 2 messages above
    the smallest imbalance integer loads allow, so the final value alone
    jumps by whole quanta from stream to stream (route-wide: 9.6% IQR over
    ten seeds); the tail average does not (1.4%).
    """
    from repro.runtime.state import loads_imbalance

    workers = np.asarray(workers, dtype=np.int64)
    samples = workers.size // 10 // step
    start = workers.size - samples * step
    index = np.repeat(np.arange(samples), step)
    counts = np.bincount(index * num_workers + workers[start:], minlength=samples * num_workers)
    cumulative = counts.reshape(samples, num_workers).cumsum(axis=0)
    cumulative += np.bincount(workers[:start], minlength=num_workers)
    return float(np.mean([loads_imbalance(loads.tolist()) for loads in cumulative]))


def mismatches(got, expected) -> int:
    """Messages whose worker differs between two equally long routings."""
    got = np.asarray(got, dtype=np.int64)
    expected = np.asarray(expected, dtype=np.int64)
    if got.size != expected.size:
        return max(got.size, expected.size)
    return int(np.count_nonzero(got != expected))
