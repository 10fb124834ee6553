"""Shared coordination state of one cluster run.

One ``int64`` shared-memory block, written by the source (routing stats,
head summary), by every worker (processed counts, heartbeats, ready flags)
and by the coordinator (go/abort flags); the monitor thread snapshots it
without locks.  Every field is a single aligned int64 word, so each write
is atomic on the platforms this runtime supports; readers only ever consume
slightly-stale values, never torn ones.

Layout::

    word 0                       abort flag (coordinator -> everyone)
    word 1                       go flag (coordinator releases the start)
    word 2                       source_done flag
    word 3                       messages routed by the source
    word 4                       current head size (entries in the summary)
    word 5                       num_workers n
    word 6                       head summary capacity
    word 7                       dictionary high water (ids interned)
    words [8, 8+n)               source's local load vector
    words [8+n, 8+2n)            per-worker processed counts
    words [8+2n, 8+3n)           per-worker heartbeat (monotonic ns)
    words [8+3n, 8+4n)           per-worker ready flags
    words [8+4n, 8+5n)           per-worker fence flags (supervisor -> source)
    words [8+5n, 8+5n+2*cap)     head summary (key id, estimated count) pairs

A *fenced* worker is one the supervisor has taken out of service (crashed,
hung, or being respawned): the source must stop pushing into its ring —
a blocked push polls the fence and unwinds — and redirect its share to the
survivors until the fence clears.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.exceptions import ClusterRuntimeError

_ABORT = 0
_GO = 1
_SOURCE_DONE = 2
_MESSAGES_ROUTED = 3
_HEAD_SIZE = 4
_NUM_WORKERS = 5
_HEAD_CAPACITY = 6
_DICT_HIGH_WATER = 7
_FIXED_WORDS = 8

#: Default number of (id, count) slots reserved for the head summary.
DEFAULT_HEAD_CAPACITY = 64


#: Per-worker sections of the state block, in layout order.
_SECTION_LOADS = 0
_SECTION_PROCESSED = 1
_SECTION_HEARTBEAT = 2
_SECTION_READY = 3
_SECTION_FENCE = 4
_WORKER_SECTIONS = 5


def state_words(num_workers: int, head_capacity: int = DEFAULT_HEAD_CAPACITY) -> int:
    """Total int64 words the state block needs."""
    return _FIXED_WORDS + _WORKER_SECTIONS * num_workers + 2 * head_capacity


@dataclass(slots=True)
class ClusterSnapshot:
    """One lock-free reading of the shared state (monitor thread output)."""

    elapsed_s: float
    messages_routed: int
    source_loads: list[int] = field(default_factory=list)
    worker_processed: list[int] = field(default_factory=list)
    head: dict[int, int] = field(default_factory=dict)

    @property
    def imbalance(self) -> float:
        """``max_w L_w - avg_w L_w`` over normalised processed counts.

        Same definition as the simulator's
        :meth:`~repro.simulation.metrics.LoadTracker.imbalance`, computed
        over what the workers actually received.
        """
        return loads_imbalance(self.worker_processed)


def loads_imbalance(loads) -> float:
    """The paper's I(t) for an absolute per-worker load vector."""
    total = sum(loads)
    if total == 0 or not len(loads):
        return 0.0
    normalized = [load / total for load in loads]
    return max(0.0, max(normalized) - sum(normalized) / len(normalized))


class SharedClusterState:
    """Typed accessors over the shared state block (see module layout)."""

    __slots__ = ("_words", "_num_workers", "_head_capacity")

    def __init__(
        self,
        buffer,
        num_workers: int | None = None,
        head_capacity: int = DEFAULT_HEAD_CAPACITY,
        *,
        create: bool = False,
    ) -> None:
        if isinstance(buffer, np.ndarray):
            if buffer.dtype != np.int64:
                raise ClusterRuntimeError("state buffer array must be int64")
            words = buffer
        else:
            words = np.frombuffer(buffer, dtype=np.int64)
        if create:
            if num_workers is None:
                raise ClusterRuntimeError("creating state requires num_workers")
            needed = state_words(num_workers, head_capacity)
            if words.size < needed:
                raise ClusterRuntimeError(
                    f"state buffer holds {words.size} words, needs {needed}"
                )
            words[:needed] = 0
            words[_NUM_WORKERS] = num_workers
            words[_HEAD_CAPACITY] = head_capacity
        self._words = words
        self._num_workers = int(words[_NUM_WORKERS])
        self._head_capacity = int(words[_HEAD_CAPACITY])
        if self._num_workers < 1:
            raise ClusterRuntimeError("attaching to an uninitialised state block")

    # ------------------------------------------------------------------ #
    # flags
    # ------------------------------------------------------------------ #
    @property
    def num_workers(self) -> int:
        return self._num_workers

    def detach(self) -> None:
        """Drop this handle's view of the block; any later access fails.

        A ``SharedMemory`` mapping cannot close while a numpy view over it
        is alive, and a handle can outlive its run (pinned by an in-flight
        exception's traceback), so the owner detaches before closing.
        """
        self._words = None

    def abort(self) -> None:
        self._words[_ABORT] = 1

    def aborted(self) -> bool:
        return bool(self._words[_ABORT])

    def release_start(self) -> None:
        self._words[_GO] = 1

    def started(self) -> bool:
        return bool(self._words[_GO])

    def mark_source_done(self) -> None:
        self._words[_SOURCE_DONE] = 1

    def source_done(self) -> bool:
        return bool(self._words[_SOURCE_DONE])

    # ------------------------------------------------------------------ #
    # worker slots
    # ------------------------------------------------------------------ #
    def _slot(self, section: int, worker_id: int) -> int:
        if not 0 <= worker_id < self._num_workers:
            raise ClusterRuntimeError(
                f"worker id {worker_id} outside [0, {self._num_workers})"
            )
        return _FIXED_WORDS + section * self._num_workers + worker_id

    def mark_ready(self, worker_id: int) -> None:
        self._words[self._slot(_SECTION_READY, worker_id)] = 1

    def worker_ready(self, worker_id: int) -> bool:
        return bool(self._words[self._slot(_SECTION_READY, worker_id)])

    def all_ready(self) -> bool:
        base = _FIXED_WORDS + _SECTION_READY * self._num_workers
        return bool(self._words[base : base + self._num_workers].all())

    def heartbeat(self, worker_id: int) -> None:
        self._words[self._slot(_SECTION_HEARTBEAT, worker_id)] = time.monotonic_ns()

    def heartbeat_age_s(self, worker_id: int) -> float:
        """Seconds since the worker's last heartbeat (inf before the first)."""
        stamp = int(self._words[self._slot(_SECTION_HEARTBEAT, worker_id)])
        if stamp == 0:
            return float("inf")
        return (time.monotonic_ns() - stamp) / 1e9

    def add_processed(self, worker_id: int, count: int) -> None:
        self._words[self._slot(_SECTION_PROCESSED, worker_id)] += count

    def worker_processed(self) -> list[int]:
        base = _FIXED_WORDS + _SECTION_PROCESSED * self._num_workers
        return [int(v) for v in self._words[base : base + self._num_workers]]

    # ------------------------------------------------------------------ #
    # supervisor fencing (worker recovery)
    # ------------------------------------------------------------------ #
    def fence_worker(self, worker_id: int) -> None:
        """Take a worker out of service: the source must stop pushing to it.

        Set by the supervisor the moment a failure is detected, *before*
        the dead incarnation is reaped — a source blocked pushing into the
        dead ring polls the fence and unwinds instead of waiting out its
        full push timeout.  The fence word is a tiny handshake: ``1`` =
        fenced by the supervisor, ``2`` = the source acknowledged (it will
        not touch the ring again until the fence clears) — only then may
        the supervisor drain and re-initialise the ring without racing a
        straggling push.
        """
        self._words[self._slot(_SECTION_FENCE, worker_id)] = 1

    def acknowledge_fence(self, worker_id: int) -> None:
        """Source side: promise no further ring operations on this slot."""
        self._words[self._slot(_SECTION_FENCE, worker_id)] = 2

    def clear_fence(self, worker_id: int) -> None:
        self._words[self._slot(_SECTION_FENCE, worker_id)] = 0

    def worker_fenced(self, worker_id: int) -> bool:
        return bool(self._words[self._slot(_SECTION_FENCE, worker_id)])

    def fence_acknowledged(self, worker_id: int) -> bool:
        return int(self._words[self._slot(_SECTION_FENCE, worker_id)]) == 2

    def reset_worker(self, worker_id: int) -> None:
        """Prepare a slot for a respawned incarnation.

        Clears the ready flag (the replacement re-raises it as its startup
        barrier) and the heartbeat stamp (so the monitor's startup grace,
        not the stale-age check, governs the replacement's first beats).
        The processed count is deliberately *kept*: it is the cumulative
        delivered-message ledger of the slot across incarnations.
        """
        self._words[self._slot(_SECTION_READY, worker_id)] = 0
        self._words[self._slot(_SECTION_HEARTBEAT, worker_id)] = 0

    # ------------------------------------------------------------------ #
    # source-side publication
    # ------------------------------------------------------------------ #
    def publish_routing(
        self,
        loads,
        messages_routed: int,
        dict_high_water: int,
        head: dict[int, int] | None = None,
    ) -> None:
        """Publish the source's load vector, counters and head summary.

        ``head`` maps key *ids* to estimated counts (the SpaceSaving view in
        columnar mode); at most ``head_capacity`` entries are published,
        largest first.
        """
        words = self._words
        n = self._num_workers
        words[_FIXED_WORDS : _FIXED_WORDS + n] = loads
        words[_MESSAGES_ROUTED] = messages_routed
        words[_DICT_HIGH_WATER] = dict_high_water
        if head is None:
            return
        top = sorted(head.items(), key=lambda item: -item[1])[: self._head_capacity]
        base = _FIXED_WORDS + _WORKER_SECTIONS * n
        for index, (kid, count) in enumerate(top):
            words[base + 2 * index] = kid
            words[base + 2 * index + 1] = count
        # Publish the size last so readers never see half-written pairs
        # counted as valid.
        words[_HEAD_SIZE] = len(top)

    def source_loads(self) -> list[int]:
        return [
            int(v)
            for v in self._words[_FIXED_WORDS : _FIXED_WORDS + self._num_workers]
        ]

    def messages_routed(self) -> int:
        return int(self._words[_MESSAGES_ROUTED])

    def dict_high_water(self) -> int:
        return int(self._words[_DICT_HIGH_WATER])

    def head_summary(self) -> dict[int, int]:
        """The published head (key id -> estimated count), largest first."""
        size = int(self._words[_HEAD_SIZE])
        base = _FIXED_WORDS + _WORKER_SECTIONS * self._num_workers
        pairs = self._words[base : base + 2 * size]
        return {
            int(pairs[2 * index]): int(pairs[2 * index + 1])
            for index in range(size)
        }

    def snapshot(self, elapsed_s: float) -> ClusterSnapshot:
        """One monitor reading of the whole block (lock-free)."""
        return ClusterSnapshot(
            elapsed_s=elapsed_s,
            messages_routed=self.messages_routed(),
            source_loads=self.source_loads(),
            worker_processed=self.worker_processed(),
            head=self.head_summary(),
        )
