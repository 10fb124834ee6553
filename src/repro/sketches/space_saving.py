"""The SpaceSaving heavy-hitter algorithm (Metwally, Agrawal, El Abbadi 2005).

SpaceSaving keeps at most ``capacity`` monitored keys.  On arrival of a key:

* if it is monitored, increment its counter;
* otherwise, if there is room, start monitoring it with count 1;
* otherwise evict the key with the *minimum* counter ``min``, replace it with
  the new key, and set the new counter to ``min + 1`` with error ``min``.

Guarantees (with ``capacity = ceil(1/eps)``):

* every key with true count ``> eps * total`` is monitored (no false
  negatives above the threshold);
* for every monitored key, ``true_count <= estimate <= true_count + error``
  and ``error <= total / capacity``.

The implementation uses the "stream summary" structure from the original
paper: counters are grouped into buckets of equal count, kept in a doubly
linked list ordered by count.  This gives O(1) worst-case update, which
matters because the partitioners call ``add`` once per message.
"""

from __future__ import annotations

import math
from typing import Iterator, Optional

from repro.exceptions import ConfigurationError, SketchError
from repro.sketches.base import FrequencyEstimate, FrequencyEstimator, runs_to_flags
from repro.types import Key

#: Sentinel distinct from every stream key (including ``None``) for run
#: detection in :meth:`SpaceSaving.add_all`.
_NO_KEY = object()


class _Bucket:
    """A group of counters that share the same count value.

    Buckets form a doubly linked list ordered by ``count`` ascending.
    ``keys`` preserves insertion order (a dict used as an ordered set) so
    eviction picks the oldest minimal counter, matching the reference
    implementation's tie-breaking.
    """

    __slots__ = ("count", "keys", "prev", "next")

    def __init__(self, count: int) -> None:
        self.count = count
        self.keys: dict[Key, None] = {}
        self.prev: Optional["_Bucket"] = None
        self.next: Optional["_Bucket"] = None


class SpaceSaving(FrequencyEstimator):
    """Stream-summary implementation of SpaceSaving.

    Parameters
    ----------
    capacity:
        Maximum number of monitored keys.  To detect every key with relative
        frequency at least ``phi`` it suffices to set ``capacity >= 1/phi``;
        :meth:`for_threshold` computes that for you.

    Examples
    --------
    >>> sketch = SpaceSaving(capacity=2)
    >>> for key in ["a", "a", "b", "a", "c"]:
    ...     sketch.add(key)
    >>> sketch.estimate("a") >= 3   # never underestimates
    True
    >>> sorted(sketch.heavy_hitters(0.5))
    ['a']
    """

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ConfigurationError(f"capacity must be >= 1, got {capacity}")
        self._capacity = capacity
        self._total = 0
        # key -> (bucket, error)
        self._where: dict[Key, _Bucket] = {}
        self._errors: dict[Key, int] = {}
        self._head: Optional[_Bucket] = None  # bucket with the minimum count

    # ------------------------------------------------------------------ #
    # construction helpers
    # ------------------------------------------------------------------ #
    @classmethod
    def for_threshold(cls, threshold: float, slack: float = 1.0) -> "SpaceSaving":
        """Create a sketch able to track keys of relative frequency >= threshold.

        ``slack`` > 1 over-provisions the sketch (more counters than strictly
        necessary), which reduces the estimation error of the reported heavy
        hitters; the paper's setting of theta = 1/(5n) with default slack
        yields a sketch of 5n counters — still O(n) memory per source.

        The capacity is ``ceil(slack / threshold)``: rounding *up* is what
        keeps the no-false-negative guarantee (``capacity >= 1/phi``) intact
        for every threshold.  Rounding to nearest would under-provision —
        e.g. ``for_threshold(0.4)`` would get 2 counters where the guarantee
        needs ``ceil(1 / 0.4) = 3``.
        """
        if threshold <= 0.0 or threshold > 1.0:
            raise ConfigurationError(
                f"threshold must be in (0, 1], got {threshold}"
            )
        if slack <= 0.0:
            raise ConfigurationError(f"slack must be positive, got {slack}")
        capacity = max(1, math.ceil(slack / threshold))
        return cls(capacity)

    # ------------------------------------------------------------------ #
    # FrequencyEstimator interface
    # ------------------------------------------------------------------ #
    @property
    def total(self) -> int:
        return self._total

    @property
    def capacity(self) -> int:
        return self._capacity

    def __len__(self) -> int:
        return len(self._where)

    def add(self, key: Key, count: int = 1) -> None:
        if count == 1:  # the streaming hot case: take the fused fast path
            self.add_and_estimate(key)
            return
        if count < 1:
            raise SketchError(f"count must be >= 1, got {count}")
        self._total += count
        if key in self._where:
            self._increment(key, count)
            return
        if len(self._where) < self._capacity:
            self._insert_new(key, count, error=0)
            return
        self._replace_minimum(key, count)

    def add_and_estimate(self, key: Key) -> int:
        """Account for one occurrence of ``key`` and return its new estimate.

        Semantically identical to ``add(key); estimate(key)`` but fused: the
        routing hot path calls both on every message, and the combined form
        saves a monitored-key lookup plus the bucket relink going through
        three helper calls.  The unit-increment case is fully inlined.
        """
        self._total += 1
        where = self._where
        bucket = where.get(key)
        if bucket is not None:
            new_count = bucket.count + 1
            nxt = bucket.next
            if len(bucket.keys) == 1 and (nxt is None or nxt.count > new_count):
                # The key is alone in its count class and moving it up does
                # not collide with the successor class: bump the bucket in
                # place.  This is the steady state of every hot key (unique
                # high count), so the hottest messages cost one dict hit and
                # an integer increment — no allocation, no relinking.
                bucket.count = new_count
                return new_count
            # Inlined unit _increment: move the key one count class up.
            del bucket.keys[key]
            if nxt is not None and nxt.count == new_count:
                target = nxt
            else:
                target = _Bucket(new_count)
                target.prev = bucket
                target.next = nxt
                if nxt is not None:
                    nxt.prev = target
                bucket.next = target
            target.keys[key] = None
            where[key] = target
            if not bucket.keys:
                prev = bucket.prev
                nxt = bucket.next
                if prev is not None:
                    prev.next = nxt
                else:
                    self._head = nxt
                if nxt is not None:
                    nxt.prev = prev
                bucket.prev = bucket.next = None
            return new_count
        if len(where) < self._capacity:
            self._insert_new(key, 1, error=0)
            return 1
        self._replace_minimum(key, 1)
        return where[key].count

    def add_and_classify_batch(
        self,
        keys,
        threshold: float,
        warmup: int = 0,
        stop_at_head: bool = False,
        tail_out: list | None = None,
    ) -> list[bool]:
        """Fused bulk update + head classification (see the base contract).

        Both forms derive their flags from the run pass of
        :meth:`_feed_runs` — the one inlined copy of the update machinery —
        and expand them at C speed.  With ``stop_at_head`` the pass halts
        right after the first head message, so the runs are one zero per
        tail message and a closing ``1``.
        """
        return runs_to_flags(
            self._feed_runs(keys, threshold, warmup, tail_out, stop_at_head)
        )

    def add_and_classify_runs(
        self,
        keys,
        threshold: float,
        warmup: int = 0,
        tail_out: list | None = None,
    ) -> list[int]:
        """Fused bulk update + run-length head classification.

        THE routing hot loop: every message of every head/tail scheme's
        batch path goes through :meth:`_feed_runs` exactly once.  Flags
        derived from the returned runs are identical to the reference
        ``add`` + ``estimate`` loop's, and the sketch ends in the same
        state.
        """
        return self._feed_runs(keys, threshold, warmup, tail_out, False)

    def _feed_runs(self, keys, threshold, warmup, tail_out, stop_at_head) -> list[int]:
        """The bulk sketch feed behind both classify forms.

        The whole unit update of :meth:`add_and_estimate` is inlined: the
        steady state (key alone in its count class) is a dict hit and an
        integer bump, a count-class relink touches no helper, and neither
        does the eviction of a full sketch — on a wide key space almost
        every message is one.  Only insertion into a sketch that is not yet
        full takes a method call.  A head message costs one integer bump of
        the open run instead of a list append, which on the skewed streams
        the head/tail split exists for is most messages.
        """
        runs: list[int] = []
        rappend = runs.append
        where = self._where
        where_get = where.get
        errors = self._errors
        capacity = self._capacity
        total = self._total
        sink = tail_out if tail_out is not None else []
        tail_append = sink.append
        run = 0
        for key in keys:
            total += 1
            bucket = where_get(key)
            if bucket is not None:
                new_count = bucket.count + 1
                nxt = bucket.next
                if len(bucket.keys) == 1 and (nxt is None or nxt.count > new_count):
                    bucket.count = new_count
                else:
                    # Unit relink: move the key one count class up, dropping
                    # its old class if that leaves it empty.
                    del bucket.keys[key]
                    if nxt is not None and nxt.count == new_count:
                        target = nxt
                    else:
                        target = _Bucket(new_count)
                        target.prev = bucket
                        target.next = nxt
                        if nxt is not None:
                            nxt.prev = target
                        bucket.next = target
                    target.keys[key] = None
                    where[key] = target
                    if not bucket.keys:
                        prev = bucket.prev
                        nxt = bucket.next
                        if prev is not None:
                            prev.next = nxt
                        else:
                            self._head = nxt
                        if nxt is not None:
                            nxt.prev = prev
                        bucket.prev = bucket.next = None
            elif len(where) < capacity:
                self._insert_new(key, 1, error=0)
                new_count = 1
            else:
                # Eviction: the oldest key of the minimum class makes way,
                # and the newcomer enters class min+1 with error min.
                floor = self._head
                floor_keys = floor.keys
                victim = next(iter(floor_keys))
                del floor_keys[victim]
                del where[victim]
                del errors[victim]
                error = floor.count
                new_count = error + 1
                nxt = floor.next
                if nxt is not None and nxt.count == new_count:
                    target = nxt
                else:
                    target = _Bucket(new_count)
                    target.prev = floor
                    target.next = nxt
                    if nxt is not None:
                        nxt.prev = target
                    floor.next = target
                target.keys[key] = None
                where[key] = target
                errors[key] = error
                if not floor_keys:
                    self._head = target
                    target.prev = None
                    floor.next = None
            if total >= warmup and new_count >= threshold * total:
                run += 1
                if stop_at_head:
                    break
            else:
                rappend(run)
                run = 0
                tail_append(key)
        rappend(run)
        self._total = total
        return runs

    def add_all(self, keys) -> None:
        """Bulk update: collapse runs of equal keys into one counter move.

        A run of ``r`` consecutive occurrences of the same key is accounted
        with a single ``add(key, r)`` — one total update and one
        stream-summary relink instead of ``r``.  SpaceSaving's update is
        weight-linear (``add(k, r)`` and ``r`` times ``add(k, 1)`` yield the
        same summary when nothing intervenes), so the result is identical to
        element-wise feeding; skewed streams, where the hot key arrives in
        bursts, see most of the benefit.
        """
        pending: Key = _NO_KEY
        run = 0
        for key in keys:
            if key == pending:
                run += 1
            else:
                if run:
                    self.add(pending, run)
                pending = key
                run = 1
        if run:
            self.add(pending, run)

    def reset(self) -> None:
        """Forget every counter in place (capacity is kept)."""
        self._total = 0
        self._where.clear()
        self._errors.clear()
        self._head = None

    def grow(self, new_capacity: int) -> None:
        """Raise the capacity in place, preserving every monitored counter.

        Capacity only gates the *insertion* of new keys, so growing is free:
        existing counters, errors and the bucket list stay untouched, and the
        sketch simply stops evicting until the larger budget fills up.  Used
        by the head/tail partitioners when a rescale re-derives a smaller
        theta whose head no longer fits the original sizing.  Shrinking is
        rejected — it would have to pick eviction victims and would weaken
        the error bound of the surviving counters.
        """
        if new_capacity < self._capacity:
            raise SketchError(
                f"cannot shrink capacity {self._capacity} to {new_capacity}"
            )
        self._capacity = new_capacity

    def estimate(self, key: Key) -> int:
        bucket = self._where.get(key)
        return bucket.count if bucket is not None else 0

    def error(self, key: Key) -> int:
        """Overestimation bound for ``key`` (0 if the key is not monitored)."""
        return self._errors.get(key, 0)

    def guaranteed(self, key: Key) -> int:
        """Guaranteed (lower bound) count for ``key``."""
        bucket = self._where.get(key)
        if bucket is None:
            return 0
        return bucket.count - self._errors[key]

    def entries(self) -> Iterator[FrequencyEstimate]:
        bucket = self._head
        while bucket is not None:
            for key in bucket.keys:
                yield FrequencyEstimate(key, bucket.count, self._errors[key])
            bucket = bucket.next

    def min_count(self) -> int:
        """Smallest monitored count (0 when the sketch is empty)."""
        return self._head.count if self._head is not None else 0

    def head_signature(self, threshold: float) -> tuple[int, int]:
        """``(len(heavy_hitters(threshold)), hottest count)`` without the dict.

        The stream summary groups keys into count classes, so the pair falls
        out of one walk over the bucket list — O(number of distinct counts)
        instead of materialising a :class:`FrequencyEstimate` per monitored
        key the way ``heavy_hitters`` does.  D-Choices polls this on every
        throttled solver check, which made the full ``current_head()`` scan
        the single hottest spot of its routing profile.
        """
        total = self._total
        if total == 0:
            return (0, 0)
        cutoff = threshold * total
        cardinality = 0
        hottest = 0
        bucket = self._head
        while bucket is not None:
            if bucket.count >= cutoff:
                # Buckets are ordered by count ascending: once one qualifies
                # they all do, and the last one seen holds the maximum.
                cardinality += len(bucket.keys)
                hottest = bucket.count
            bucket = bucket.next
        return (cardinality, hottest)

    def head_counts(self, threshold: float) -> list[int]:
        """The head's estimated counts from one bucket walk (see the base
        contract): each qualifying count class contributes its count once
        per monitored key, no per-key objects or dict involved."""
        total = self._total
        if total == 0:
            return []
        cutoff = threshold * total
        counts: list[int] = []
        bucket = self._head
        while bucket is not None:
            count = bucket.count
            if count >= cutoff:
                counts.extend([count] * len(bucket.keys))
            bucket = bucket.next
        return counts

    # ------------------------------------------------------------------ #
    # internal stream-summary maintenance
    # ------------------------------------------------------------------ #
    def _insert_new(self, key: Key, count: int, error: int) -> None:
        bucket = self._find_or_create_bucket(count, hint=self._head)
        bucket.keys[key] = None
        self._where[key] = bucket
        self._errors[key] = error

    def _increment(self, key: Key, count: int) -> None:
        bucket = self._where[key]
        del bucket.keys[key]
        target = self._find_or_create_bucket(bucket.count + count, hint=bucket)
        target.keys[key] = None
        self._where[key] = target
        self._maybe_drop(bucket)

    def _replace_minimum(self, key: Key, count: int) -> None:
        assert self._head is not None  # capacity >= 1 and sketch is full
        min_bucket = self._head
        # evict the oldest key in the minimum bucket
        victim = next(iter(min_bucket.keys))
        del min_bucket.keys[victim]
        del self._where[victim]
        del self._errors[victim]
        new_count = min_bucket.count + count
        error = min_bucket.count
        target = self._find_or_create_bucket(new_count, hint=min_bucket)
        target.keys[key] = None
        self._where[key] = target
        self._errors[key] = error
        self._maybe_drop(min_bucket)

    def _find_or_create_bucket(self, count: int, hint: Optional[_Bucket]) -> _Bucket:
        """Locate the bucket with ``count``, creating it after ``hint`` if needed.

        ``hint`` is a bucket whose count is <= ``count`` (the bucket the key
        is moving out of, or the head).  For unit increments the target is
        either ``hint`` itself, its successor, or a new bucket right after
        ``hint`` — all O(1).  For larger ``count`` jumps (merge operations)
        we walk forward, which is linear in the number of buckets but only
        used off the hot path.
        """
        if self._head is None:
            bucket = _Bucket(count)
            self._head = bucket
            return bucket

        current = hint if hint is not None else self._head
        if current.count > count:
            current = self._head
        # Walk forward until the next bucket would overshoot.
        while current.next is not None and current.next.count <= count:
            current = current.next
        if current.count == count:
            return current
        if current.count < count:
            return self._insert_after(current, count)
        # current.count > count can only happen when current is the head and
        # the head already exceeds count: insert a new bucket before it.
        return self._insert_before(current, count)

    def _insert_after(self, bucket: _Bucket, count: int) -> _Bucket:
        new = _Bucket(count)
        new.prev = bucket
        new.next = bucket.next
        if bucket.next is not None:
            bucket.next.prev = new
        bucket.next = new
        return new

    def _insert_before(self, bucket: _Bucket, count: int) -> _Bucket:
        new = _Bucket(count)
        new.next = bucket
        new.prev = bucket.prev
        if bucket.prev is not None:
            bucket.prev.next = new
        else:
            self._head = new
        bucket.prev = new
        return new

    def _maybe_drop(self, bucket: _Bucket) -> None:
        if bucket.keys:
            return
        if bucket.prev is not None:
            bucket.prev.next = bucket.next
        else:
            self._head = bucket.next
        if bucket.next is not None:
            bucket.next.prev = bucket.prev
        bucket.prev = bucket.next = None

    # ------------------------------------------------------------------ #
    # transplantable state (adaptive scheme switching)
    # ------------------------------------------------------------------ #
    def export_state(self) -> dict:
        """Snapshot of the summary, sufficient to rebuild it byte-identically.

        Entries are listed in summary order — count classes ascending, keys
        within a class in insertion order — which is exactly the order
        :meth:`from_state` must replay them in: the stream summary's future
        behaviour (bucket relinks, eviction of the *oldest* minimal counter)
        depends on that order, not just on the (key, count, error) multiset.
        """
        return {
            "capacity": self._capacity,
            "total": self._total,
            "entries": [
                (entry.key, entry.count, entry.error) for entry in self.entries()
            ],
        }

    @classmethod
    def from_state(cls, state: dict, capacity: int | None = None) -> "SpaceSaving":
        """Rebuild a sketch from :meth:`export_state` output.

        With the exported capacity the result is byte-identical to the
        original — same buckets, same within-bucket order, same total — so a
        partitioner adopting another's sketch continues exactly where the
        donor left off instead of cold-starting through the warmup again.
        ``capacity`` overrides the sizing (an adopting scheme may need more
        counters for its own theta); a smaller capacity keeps the largest
        counters, like :meth:`merge` does.
        """
        target = int(capacity if capacity is not None else state["capacity"])
        if target < 1:
            raise ConfigurationError(f"capacity must be >= 1, got {target}")
        sketch = cls(target)
        entries = state["entries"]
        # Entries are stored ascending by count: the suffix holds the largest.
        for key, count, error in entries[-target:] if len(entries) > target else entries:
            sketch._insert_new(key, count, error)
        sketch._total = int(state["total"])
        return sketch

    # ------------------------------------------------------------------ #
    # merging (used by the distributed generalisation)
    # ------------------------------------------------------------------ #
    def merge(self, other: "SpaceSaving") -> "SpaceSaving":
        """Return a new sketch summarising the union of both streams.

        Follows the mergeable-summaries construction (Berinde et al. 2010;
        Agarwal et al. 2012): sum estimates and errors key-wise, treating a
        key absent from one sketch as having that sketch's minimum count as
        estimate and error, then keep the ``capacity`` largest counters.
        The result never underestimates any key of the combined stream and
        its error bound is the sum of the two sketches' error bounds.
        """
        if not isinstance(other, SpaceSaving):
            raise SketchError("can only merge SpaceSaving with SpaceSaving")
        capacity = max(self._capacity, other._capacity)
        min_self = self.min_count() if len(self) >= self._capacity else 0
        min_other = other.min_count() if len(other) >= other._capacity else 0

        combined: dict[Key, tuple[int, int]] = {}
        for entry in self.entries():
            combined[entry.key] = (entry.count, entry.error)
        for entry in other.entries():
            if entry.key in combined:
                count, error = combined[entry.key]
                combined[entry.key] = (count + entry.count, error + entry.error)
            else:
                combined[entry.key] = (
                    entry.count + min_self,
                    entry.error + min_self,
                )
        # Keys present only in self get the other sketch's minimum added.
        for entry in self.entries():
            if other.estimate(entry.key) == 0:
                count, error = combined[entry.key]
                combined[entry.key] = (count + min_other, error + min_other)

        merged = SpaceSaving(capacity)
        merged._total = self._total + other._total
        kept = sorted(combined.items(), key=lambda item: item[1][0], reverse=True)
        for key, (count, error) in kept[:capacity]:
            merged._insert_new(key, count, error)
        return merged

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SpaceSaving(capacity={self._capacity}, monitored={len(self)}, "
            f"total={self._total})"
        )
