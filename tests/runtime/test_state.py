"""Unit tests of the shared cluster-state block (in-process; shm only for detach)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import ClusterRuntimeError
from repro.runtime.state import (
    ClusterSnapshot,
    SharedClusterState,
    loads_imbalance,
    state_words,
)
from repro.simulation.metrics import LoadTracker


def make_state(num_workers: int = 4, head_capacity: int = 8) -> SharedClusterState:
    buffer = np.zeros(state_words(num_workers, head_capacity), dtype=np.int64)
    return SharedClusterState(buffer, num_workers, head_capacity, create=True)


class TestFlags:
    def test_fresh_state_is_clear(self):
        state = make_state()
        assert not state.aborted()
        assert not state.started()
        assert not state.source_done()
        assert not state.all_ready()

    def test_flag_transitions(self):
        state = make_state()
        state.abort()
        state.release_start()
        state.mark_source_done()
        assert state.aborted() and state.started() and state.source_done()

    def test_all_ready_requires_every_worker(self):
        state = make_state(num_workers=3)
        state.mark_ready(0)
        state.mark_ready(2)
        assert not state.all_ready()
        state.mark_ready(1)
        assert state.all_ready()


class TestWorkerSlots:
    def test_processed_counts_accumulate(self):
        state = make_state(num_workers=2)
        state.add_processed(0, 10)
        state.add_processed(0, 5)
        state.add_processed(1, 7)
        assert state.worker_processed() == [15, 7]

    def test_heartbeat_age(self):
        state = make_state(num_workers=2)
        assert state.heartbeat_age_s(0) == float("inf")
        state.heartbeat(0)
        assert state.heartbeat_age_s(0) < 1.0
        assert state.heartbeat_age_s(1) == float("inf")

    def test_out_of_range_worker_raises(self):
        state = make_state(num_workers=2)
        with pytest.raises(ClusterRuntimeError):
            state.heartbeat(2)
        with pytest.raises(ClusterRuntimeError):
            state.add_processed(-1, 1)


class TestFencing:
    def test_fence_handshake_transitions(self):
        state = make_state(num_workers=2)
        assert not state.worker_fenced(1)
        state.fence_worker(1)
        assert state.worker_fenced(1)
        assert not state.fence_acknowledged(1)
        state.acknowledge_fence(1)
        assert state.worker_fenced(1)  # acked is still out of service
        assert state.fence_acknowledged(1)
        state.clear_fence(1)
        assert not state.worker_fenced(1)
        assert not state.fence_acknowledged(1)

    def test_fences_are_per_worker(self):
        state = make_state(num_workers=3)
        state.fence_worker(1)
        assert [state.worker_fenced(w) for w in range(3)] == [False, True, False]

    def test_reset_worker_clears_ready_and_heartbeat_keeps_ledger(self):
        state = make_state(num_workers=2)
        state.mark_ready(0)
        state.heartbeat(0)
        state.add_processed(0, 42)
        state.reset_worker(0)
        assert not state.worker_ready(0)
        assert state.heartbeat_age_s(0) == float("inf")
        # The processed count is the slot's cumulative delivered ledger —
        # it must survive the respawn.
        assert state.worker_processed() == [42, 0]

    def test_fence_and_head_sections_do_not_alias(self):
        # Regression for the layout shift to five per-worker sections: a
        # fence write must never land in the head-summary region.
        state = make_state(num_workers=2, head_capacity=2)
        state.publish_routing([1, 1], 2, 3, head={10: 100, 12: 50})
        state.fence_worker(0)
        state.fence_worker(1)
        assert state.head_summary() == {10: 100, 12: 50}
        assert state.source_loads() == [1, 1]


class TestRoutingPublication:
    def test_loads_and_counters_roundtrip(self):
        state = make_state(num_workers=3)
        state.publish_routing([4, 5, 6], messages_routed=15, dict_high_water=9)
        assert state.source_loads() == [4, 5, 6]
        assert state.messages_routed() == 15
        assert state.dict_high_water() == 9

    def test_head_summary_keeps_largest_entries(self):
        state = make_state(num_workers=2, head_capacity=2)
        head = {10: 100, 11: 5, 12: 50}
        state.publish_routing([1, 1], 2, 13, head=head)
        assert state.head_summary() == {10: 100, 12: 50}

    def test_snapshot_collects_everything(self):
        state = make_state(num_workers=2)
        state.publish_routing([3, 1], 4, 2, head={0: 3})
        state.add_processed(0, 3)
        state.add_processed(1, 1)
        snapshot = state.snapshot(elapsed_s=0.5)
        assert snapshot.elapsed_s == 0.5
        assert snapshot.messages_routed == 4
        assert snapshot.source_loads == [3, 1]
        assert snapshot.worker_processed == [3, 1]
        assert snapshot.head == {0: 3}

    def test_attach_sees_creators_writes(self):
        buffer = np.zeros(state_words(2, 4), dtype=np.int64)
        creator = SharedClusterState(buffer, 2, 4, create=True)
        creator.publish_routing([7, 9], 16, 3)
        attached = SharedClusterState(buffer)
        assert attached.num_workers == 2
        assert attached.source_loads() == [7, 9]

    def test_attach_to_uninitialised_buffer_raises(self):
        with pytest.raises(ClusterRuntimeError):
            SharedClusterState(np.zeros(64, dtype=np.int64))


class TestImbalance:
    def test_matches_simulator_load_tracker(self):
        loads = [120, 80, 95, 105]
        tracker = LoadTracker(num_workers=4)
        for worker, load in enumerate(loads):
            for _ in range(load):
                tracker.record(worker)
        assert loads_imbalance(loads) == pytest.approx(tracker.imbalance())

    def test_zero_loads_give_zero_imbalance(self):
        assert loads_imbalance([0, 0, 0]) == 0.0
        assert loads_imbalance([]) == 0.0

    def test_snapshot_imbalance_property(self):
        snapshot = ClusterSnapshot(
            elapsed_s=1.0,
            messages_routed=4,
            worker_processed=[3, 1],
        )
        assert snapshot.imbalance == pytest.approx(3 / 4 - 1 / 2)


class TestDetach:
    def test_detached_handles_let_the_mapping_close(self):
        # run_cluster's teardown: a handle kept alive (here by a local, in
        # a strict-mode raise by the traceback) must not pin the mapping.
        from multiprocessing import shared_memory

        from repro.runtime.ring import SpscRing, ring_words

        state_shm = shared_memory.SharedMemory(create=True, size=state_words(2, 4) * 8)
        ring_shm = shared_memory.SharedMemory(create=True, size=ring_words(64) * 8)
        try:
            state = SharedClusterState(state_shm.buf, 2, 4, create=True)
            ring = SpscRing(ring_shm.buf, 64, create=True)
            with pytest.raises(BufferError):
                state_shm.close()  # the live view pins the mapping
            state.detach()
            ring.detach()
            state_shm.close()
            ring_shm.close()
            with pytest.raises(TypeError):
                state.aborted()  # a detached handle fails loudly
        finally:
            for shm in (state_shm, ring_shm):
                shm.close()
                shm.unlink()
