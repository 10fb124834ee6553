import pytest

import routing
from common import TAIL_STEP
from refkernel import ReferenceClock

SMALL_HOT = routing.RouteSpec("small-hot", "D-C", 1.4, 1_000, 20 * routing.BATCH, True, 4, 1)


def test_route_hot_metrics_match_the_simulator():
    from repro.simulation.runner import run_simulation
    from repro.workloads import ZipfWorkload

    seed = 7
    stream = routing.build(SMALL_HOT, seed)
    clock = ReferenceClock(kernel=lambda: 1.0, nominal_s=1.0)
    partitioner, workers, _, _ = routing.run_epoch(SMALL_HOT, stream, clock)
    failed, imbalance, replication = routing._check(SMALL_HOT, stream, partitioner, workers)

    simulated = run_simulation(
        ZipfWorkload(SMALL_HOT.exponent, SMALL_HOT.num_keys, SMALL_HOT.messages, seed=seed),
        scheme=SMALL_HOT.scheme,
        num_workers=routing.NUM_WORKERS,
        num_sources=1,
        seed=routing.HASH_SEED,
        mode=f"columnar:{routing.BATCH}",
        track_interval=TAIL_STEP,
    )
    series = simulated.time_series
    start = SMALL_HOT.messages - SMALL_HOT.messages // 10 // TAIL_STEP * TAIL_STEP
    tail = [value for time, value in zip(series.times, series.values) if time > start]
    assert len(tail) == SMALL_HOT.messages // 10 // TAIL_STEP
    assert failed == 0
    assert partitioner.local_loads == list(simulated.worker_loads)
    assert imbalance == pytest.approx(sum(tail) / len(tail), rel=1e-12)
    assert tail[-1] == pytest.approx(simulated.final_imbalance, rel=1e-12)
    assert replication == pytest.approx(simulated.replication_factor, rel=1e-12)
    assert imbalance > 0


def test_a_wrong_routing_is_counted_as_failed():
    seed = 3
    stream = routing.build(SMALL_HOT, seed)
    clock = ReferenceClock(kernel=lambda: 1.0, nominal_s=1.0)
    partitioner, workers, _, _ = routing.run_epoch(SMALL_HOT, stream, clock)
    workers[5] = (workers[5] + 1) % routing.NUM_WORKERS
    workers[9] = (workers[9] + 1) % routing.NUM_WORKERS
    failed, _, _ = routing._check(SMALL_HOT, stream, partitioner, workers)
    assert failed == 2
