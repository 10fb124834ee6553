"""In-memory spans around calls into the program's layers.

The program is measured from outside: :func:`install_routing` and
:func:`install_runtime` replace public methods of the layers with wrappers
that record a span per call, and :class:`Patches` restores them afterwards.
Nothing under ``src/`` knows about tracing.

A span is ``(name, start, end, parent, run_id)`` with ``parent`` the index
of the enclosing span (``-1`` at top level).  Spans stay in the memory of
the process that recorded them.  In the cluster workload the wrappers are
installed before ``run_cluster`` forks, so the source and the workers
inherit them; each child writes its spans to ``out_dir`` when its stream
ends (the source when its batch iterator is exhausted, a worker when it
pops the EOF frame).
"""

from __future__ import annotations

import json
import os
import time
from collections import Counter
from pathlib import Path

NAME, START, END, PARENT, RUN = range(5)


class Tracer:
    """Span and counter store of one process."""

    def __init__(self, out_dir: Path | None = None) -> None:
        self.out_dir = out_dir
        self.run_id = 0
        self.role = "main"
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self.marks: dict[str, float] = {}
        self.last_partitioner = None
        self._stack: list[int] = []

    def reset(self) -> None:
        self.spans = []
        self.counters = Counter()
        self.marks = {}
        self._stack = []

    def after_fork(self) -> None:
        """A forked child starts with an empty store of its own."""
        self.reset()
        self.role = "child"

    def inside(self, name: str) -> bool:
        """Whether the innermost open span is called ``name``."""
        return bool(self._stack) and self._stack[-1][1] == name

    def begin(self, name: str) -> None:
        # The slot is reserved now so children can name it as their parent;
        # the closed span is stored as a tuple, which the cyclic collector
        # stops tracking, so long traces do not slow garbage collection.
        stack = self._stack
        spans = self.spans
        stack.append((len(spans), name, time.perf_counter(), stack[-1][0] if stack else -1))
        spans.append(None)

    def end(self) -> None:
        index, name, start, parent = self._stack.pop()
        self.spans[index] = (name, start, time.perf_counter(), parent, self.run_id)

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end()

        traced.__wrapped__ = fn
        return traced

    def dump(self) -> Path:
        """Write this process's spans, counters and marks; returns the file."""
        path = self.out_dir / f"{self.role}-{os.getpid()}-{self.run_id}.json"
        payload = {
            "role": self.role,
            "run_id": self.run_id,
            "spans": self.spans,
            "counters": dict(self.counters),
            "marks": self.marks,
        }
        path.write_text(json.dumps(payload))
        return path


def self_times(spans) -> dict[str, float]:
    """Total self time per span name: duration minus direct children's durations."""
    durations = [span[END] - span[START] for span in spans]
    child_time = [0.0] * len(spans)
    for span, duration in zip(spans, durations):
        if span[PARENT] >= 0:
            child_time[span[PARENT]] += duration
    totals: dict[str, float] = {}
    for span, duration, children in zip(spans, durations, child_time):
        totals[span[NAME]] = totals.get(span[NAME], 0.0) + duration - children
    return totals


def durations(spans, name: str) -> list[float]:
    """Durations of every span called ``name``."""
    return [span[END] - span[START] for span in spans if span[NAME] == name]


class Patches:
    """Attribute replacements that are undone in reverse order."""

    def __init__(self) -> None:
        self._undo: list[tuple[object, str, bool, object]] = []

    def replace(self, owner, attr: str, make) -> None:
        """Set ``owner.attr = make(current)``; the current value is restored later."""
        current = getattr(owner, attr)
        own = attr in vars(owner)
        original = vars(owner)[attr] if own else None
        self._undo.append((owner, attr, own, original))
        setattr(owner, attr, make(current))

    def undo(self) -> None:
        while self._undo:
            owner, attr, own, original = self._undo.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)


def install_routing(tracer: Tracer, patches: Patches, partitioner_cls, entry: str) -> None:
    """Wrap the routing layers: entry point, hashing, sketch, solver, interning.

    ``entry`` names the partitioner method the workload calls
    (``route_batch_columnar`` or ``route_batch``); it becomes the
    ``partitioning.route`` span whose self time is the placement loops.
    """
    from repro.hashing import hash_family
    from repro.partitioning import d_choices
    from repro.sketches.space_saving import SpaceSaving
    from repro.workloads import columnar

    def route(fn):
        def traced(self, batch, *args, **kwargs):
            tracer.last_partitioner = self
            tracer.begin("partitioning.route")
            try:
                return fn(self, batch, *args, **kwargs)
            finally:
                tracer.end()
                tracer.counters["routed"] += len(batch)

        return traced

    patches.replace(partitioner_cls, entry, route)
    for attr in (
        "candidates",
        "id_candidate_columns",
        "id_candidate_rows",
        "candidates_batch_columns",
        "candidates_batch",
        "candidates_for_id",
    ):
        patches.replace(hash_family.HashFamily, attr, lambda fn: tracer.wrap("hashing", fn))

    def classify(fn, runs: bool):
        def traced(self, keys, *args, **kwargs):
            outer = not tracer.inside("sketches.classify")
            tracer.begin("sketches.classify")
            try:
                result = fn(self, keys, *args, **kwargs)
            finally:
                tracer.end()
            if outer:
                heads = sum(result)
                # runs: head-run lengths around each tail; flags: one per key
                tracer.counters["classified"] += heads + len(result) - 1 if runs else len(result)
                tracer.counters["head"] += heads
            return result

        return traced

    patches.replace(SpaceSaving, "add_and_classify_runs", lambda fn: classify(fn, True))
    patches.replace(SpaceSaving, "add_and_classify_batch", lambda fn: classify(fn, False))
    for attr in ("head_signature", "head_counts"):
        patches.replace(SpaceSaving, attr, lambda fn: tracer.wrap("sketches.probe", fn))

    def solver(fn):
        wrapped = tracer.wrap("partitioning.solver", fn)

        def traced(*args, **kwargs):
            tracer.counters["solver_calls"] += 1
            return wrapped(*args, **kwargs)

        return traced

    patches.replace(d_choices, "find_optimal_choices", solver)
    patches.replace(
        columnar.KeyDictionary,
        "intern_mapped_array",
        lambda fn: tracer.wrap("workloads.intern", fn),
    )

    def fold(fn):
        def counted(key):
            tracer.counters["key_folds"] += 1
            return fn(key)

        return counted

    patches.replace(hash_family, "_key_to_int", fold)
    patches.replace(columnar, "_key_to_int", fold)


def install_runtime(tracer: Tracer, patches: Patches) -> None:
    """Wrap the runtime roles: source generate/push, worker pop/apply, counters."""
    from multiprocessing import connection

    from repro.runtime import worker as worker_module
    from repro.runtime.ring import SpscRing
    from repro.runtime.state import SharedClusterState
    from repro.workloads.zipf_stream import ZipfWorkload

    def generate(fn):
        def traced(self, *args, **kwargs):
            tracer.role = "source"
            tracer.marks["window_start"] = time.perf_counter()
            batches = fn(self, *args, **kwargs)
            while True:
                tracer.begin("runtime.generate")
                try:
                    batch = next(batches)
                except StopIteration:
                    tracer.end()
                    tracer.marks["window_end"] = time.perf_counter()
                    partitioner = tracer.last_partitioner
                    if partitioner is not None and hasattr(partitioner, "current_num_choices"):
                        tracer.counters["choices_d"] = partitioner.current_num_choices()
                    tracer.dump()
                    return
                tracer.end()
                tracer.counters["batches"] += 1
                yield batch

        return traced

    def push(fn):
        wrapped = tracer.wrap("runtime.push", fn)

        def traced(self, ids, *args, **kwargs):
            result = wrapped(self, ids, *args, **kwargs)
            if len(ids):  # the EOF close pushes an empty frame
                tracer.counters["frames"] += 1
                tracer.counters["frame_ids"] += len(ids)
            return result

        return traced

    def pop(fn):
        wrapped = tracer.wrap("runtime.pop", fn)

        def traced(self, *args, **kwargs):
            frame = wrapped(self, *args, **kwargs)
            if frame.is_eof:
                tracer.dump()
            return frame

        return traced

    def mark_ready(fn):
        def traced(self, worker_id):
            tracer.role = f"worker{worker_id}"
            return fn(self, worker_id)

        return traced

    def fenced(fn):
        def counted(self, worker_id):
            tracer.counters["fence_polls"] += 1
            return fn(self, worker_id)

        return counted

    def release_start(fn):
        def traced(self):
            tracer.marks["released"] = time.perf_counter()
            return fn(self)

        return traced

    def send(fn):
        def counted(self, obj):
            if type(obj) is tuple and obj and obj[0] == "delta":
                tracer.counters["delta_sends"] += 1
                tracer.counters["delta_keys"] += len(obj[2])
            return fn(self, obj)

        return counted

    patches.replace(ZipfWorkload, "iter_batches_columnar", generate)
    patches.replace(SpscRing, "push", push)
    patches.replace(SpscRing, "pop", pop)
    patches.replace(
        worker_module.DictionaryReplica,
        "apply",
        lambda fn: tracer.wrap("runtime.delta_apply", fn),
    )
    patches.replace(SharedClusterState, "mark_ready", mark_ready)
    patches.replace(SharedClusterState, "worker_fenced", fenced)
    patches.replace(SharedClusterState, "release_start", release_start)
    patches.replace(connection.Connection, "send", send)
