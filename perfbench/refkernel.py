"""Reference kernel and the clock that normalises CPU-bound timings with it.

On a small shared VM, host contention slows *all* CPU work by up to ~1.6x
in phases lasting seconds.  A fixed unit of reference work, timed in short
slices interleaved with the measured work, reads that slowdown directly:
``reference seconds = wall seconds * (NOMINAL_S / measured kernel time)``.

The kernel mirrors the two kinds of work the routing layers do, so that
contention slows it the way it slows them:

* a routing-shaped loop: a numpy gather converted to Python lists, a
  ``zip`` walk with dict counting and a two-choice load comparison, and an
  ``np.unique`` (what the sketch feed and the placement loops do);
* a FIFO-dict scan: ``next(iter(d))`` over a dict whose first 40k entries
  were deleted, which walks the dead slots exactly as a FIFO cache's
  ``cache.pop(next(iter(cache)))`` eviction does once it is full.

The kernel is part of the benchmark, not of the program, so a change to
``src/`` never changes it.  ``NOMINAL_S`` was measured once (the sum of
each part's 10th percentile over 2000 slices on a 2-vCPU x86-64 VM) and is
never re-fitted: a re-fit would silently rescale every normalised number.

Measured against route-wide's per-batch time on 1 s segments of a 70 s
run, normalising cut the spread from 14.9% to 7.5% (standard deviation of
the log ratio); the scan part alone did no better than both parts.
"""

from __future__ import annotations

import time

import numpy as np

#: Nominal duration of one kernel slice, in seconds.  Fixed; see module doc.
NOMINAL_S = 0.00105

_IDS = 2048
_KEYS = 5000
_WORKERS = 50
_FIFO_KEYS = 87_000
_FIFO_DEAD = 40_000
_SCANS = 20


class ReferenceKernel:
    """A fixed slice of reference work: a ``loop`` part and a ``scan`` part."""

    def __init__(self) -> None:
        rng = np.random.default_rng(20160516)
        self._ids = (rng.zipf(1.4, _IDS) % _KEYS).astype(np.int64)
        self._candidates = rng.integers(0, _WORKERS, (_KEYS, 2))
        fifo = {f"ref-{i}": i for i in range(_FIFO_KEYS)}
        for _ in range(_FIFO_DEAD):
            fifo.pop(next(iter(fifo)))
        self._fifo = fifo

    def loop(self) -> int:
        """The routing-shaped part; returns a checksum."""
        ids = self._ids
        firsts = self._candidates[ids, 0].tolist()
        seconds = self._candidates[ids, 1].tolist()
        loads = [0] * _WORKERS
        counts: dict[int, int] = {}
        for key, first, second in zip(ids.tolist(), firsts, seconds):
            count = counts.get(key)
            counts[key] = 1 if count is None else count + 1
            worker = first if loads[first] <= loads[second] else second
            loads[worker] += 1
        return len(counts) + len(np.unique(ids))

    def scan(self) -> int:
        """The FIFO-dict eviction scan; returns a checksum."""
        fifo = self._fifo
        return sum(len(next(iter(fifo))) for _ in range(_SCANS))

    def __call__(self) -> float:
        """Time one slice, in wall seconds."""
        start = time.perf_counter()
        self.loop()
        self.scan()
        return time.perf_counter() - start


class ReferenceClock:
    """Accumulates wall time and reference time over measured sections.

    Every :meth:`measure` call is sandwiched between kernel slices; the
    section's wall time is rescaled by ``nominal_s`` over the mean of the
    slice just before and the slice just after it.  Consecutive sections
    share the slice between them.  Sections should be short next to the
    contention phases (tens of milliseconds against seconds).

    ``kernel`` is any callable returning one slice's duration and ``timer``
    the wall clock; both are injectable so the arithmetic can be tested on
    a synthetic slowdown.
    """

    def __init__(self, kernel=None, nominal_s: float = NOMINAL_S, timer=time.perf_counter):
        self._nominal_s = nominal_s
        self._kernel = kernel if kernel is not None else ReferenceKernel()
        self._timer = timer
        self._last_slice: float | None = None
        self.wall_s = 0.0
        self.ref_s = 0.0
        self.slices: list[float] = []

    def _slice(self) -> float:
        duration = self._kernel()
        self.slices.append(duration)
        return duration

    def measure(self, fn, *args):
        """Run ``fn(*args)``; returns ``(result, wall_s, ref_s)`` of this section."""
        if self._last_slice is None:
            self._last_slice = self._slice()
        start = self._timer()
        result = fn(*args)
        wall = self._timer() - start
        after = self._slice()
        ref = wall * self._nominal_s / ((self._last_slice + after) / 2)
        self._last_slice = after
        self.wall_s += wall
        self.ref_s += ref
        return result, wall, ref

    def break_chain(self) -> None:
        """Forget the last slice (the next section gets a fresh one before it)."""
        self._last_slice = None
