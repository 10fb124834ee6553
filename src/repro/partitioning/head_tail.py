"""Shared machinery for head/tail-split partitioners (Algorithm 1).

D-Choices, W-Choices and Round-Robin all follow the same skeleton:

1. feed every incoming key to a local SpaceSaving instance
   (``UPDATESPACESAVING``);
2. decide whether the key currently belongs to the head
   (estimated relative frequency >= theta);
3. head keys are placed with a scheme-specific wide strategy, tail keys with
   the standard two choices of PKG.

:class:`HeadTailPartitioner` implements steps 1-2 and the tail path, leaving
the head path to subclasses via :meth:`_select_head`.
"""

from __future__ import annotations

import math
from itertools import chain
from typing import Sequence

import numpy as np

from repro.analysis.bounds import theta_range
from repro.exceptions import ConfigurationError
from repro.hashing.hash_family import HashFamily
from repro.partitioning.base import Partitioner
from repro.sketches.base import FrequencyEstimator, runs_to_flags
from repro.sketches.space_saving import SpaceSaving
from repro.types import Key, RoutingDecision, WorkerId

#: How many counters the per-source SpaceSaving keeps relative to ``1/theta``.
#: 1.0 is the minimum that guarantees no false negatives; a little slack
#: sharpens the estimates at negligible memory cost (the sketch stays O(n)).
DEFAULT_SKETCH_SLACK = 2.0


class HeadTailPartitioner(Partitioner):
    """Base class for schemes that treat heavy hitters specially.

    Parameters
    ----------
    num_workers:
        Number of downstream workers ``n``.
    theta:
        Head threshold; defaults to the paper's ``1/(5n)``.
    seed:
        Hashing seed shared by all sources.
    sketch:
        Frequency estimator to use; defaults to a SpaceSaving sketch sized
        for ``theta``.  Ablation experiments inject MisraGries or
        LossyCounting here.
    warmup_messages:
        Number of initial messages routed purely with the tail (PKG) path
        before the sketch estimates are trusted.  Avoids declaring the very
        first keys heavy hitters on tiny samples.
    """

    def __init__(
        self,
        num_workers: int,
        theta: float | None = None,
        seed: int = 0,
        sketch: FrequencyEstimator | None = None,
        warmup_messages: int = 100,
    ) -> None:
        super().__init__(num_workers, seed)
        # A defaulted theta tracks the worker count (1/(5n)), so a rescale
        # re-derives it; an explicit theta is the caller's to keep.
        self._theta_defaulted = theta is None
        if theta is None:
            theta = theta_range(num_workers).default
        if not 0.0 < theta <= 1.0:
            raise ConfigurationError(f"theta must be in (0, 1], got {theta}")
        if warmup_messages < 0:
            raise ConfigurationError(
                f"warmup_messages must be >= 0, got {warmup_messages}"
            )
        self._theta = theta
        self._warmup_messages = warmup_messages
        # Remember the provisioning slack so a rescale can re-check the
        # sizing guarantee: our own sketches are built with
        # DEFAULT_SKETCH_SLACK; for injected estimators only the bare
        # no-false-negative requirement (capacity >= 1/theta) is assumed.
        self._sketch_slack = DEFAULT_SKETCH_SLACK if sketch is None else 1.0
        if sketch is None:
            sketch = SpaceSaving.for_threshold(theta, slack=DEFAULT_SKETCH_SLACK)
        self._sketch = sketch
        # Hash functions: the tail uses the first two; head schemes may use
        # up to n of them, so allocate the full family once (never fewer than
        # two functions — the tail path always asks for two candidates, even
        # on a single-worker deployment).
        self._hashes = HashFamily(
            num_functions=max(2, num_workers), num_buckets=num_workers, seed=seed
        )
        # Per-head-key candidate tuples for the currently effective d.  Head
        # keys repeat by definition, so the head path resolves each (key, d)
        # pair once instead of re-deriving (and re-slicing) the tuple per
        # message.  Invalidated whenever d changes (lazily, via the d tag)
        # and whenever the hash family is rebuilt (rescale).
        self._head_cand_cache: dict[Key, tuple[WorkerId, ...]] = {}
        self._head_cand_cache_d = 0
        # Columnar state.  In id mode the *sketch* holds key ids, so public
        # key-based probes (is_head, current_head) translate through the
        # bound dictionary; the head candidate cache gets an id-keyed twin
        # because a key id is an int that could numerically collide with an
        # integer workload key — the two namespaces must never share a dict.
        self._id_dict = None
        self._head_cand_cache_ids: dict[int, tuple[WorkerId, ...]] = {}
        self._head_cand_cache_ids_d = 0

    # ------------------------------------------------------------------ #
    # public knobs / introspection
    # ------------------------------------------------------------------ #
    @property
    def theta(self) -> float:
        return self._theta

    @property
    def sketch(self) -> FrequencyEstimator:
        return self._sketch

    def current_head(self) -> dict[Key, int]:
        """The sketch's current estimate of the head (key -> estimated count).

        In columnar (id) mode the sketch tracks key ids; the result is
        decoded back to keys so callers always see the key namespace.
        """
        head = self._sketch.heavy_hitters(self._theta)
        if self._id_dict is not None:
            key_of = self._id_dict.key_of
            return {key_of(kid): count for kid, count in head.items()}
        return head

    def is_head(self, key: Key) -> bool:
        """Whether ``key`` currently qualifies as a heavy hitter.

        Membership uses the sketch estimate directly (estimate >= theta *
        total), so the check is O(1) — no need to materialise the whole head
        on every message.  In columnar mode the key is translated to its id
        first; probing the sketch with the raw key would be wrong even when
        the key is an int that happens to equal some id.
        """
        if self._sketch.total < self._warmup_messages:
            return False
        if self._id_dict is not None:
            kid = self._id_dict.lookup(key)
            if kid is None:
                return False
            return self._sketch.estimate(kid) >= self._theta * self._sketch.total
        return self._sketch.estimate(key) >= self._theta * self._sketch.total

    # ------------------------------------------------------------------ #
    # Partitioner implementation
    # ------------------------------------------------------------------ #
    def _select(self, key: Key) -> RoutingDecision:
        self._sketch.add(key)
        if self.is_head(key):
            return self._select_head(key)
        return self._select_tail(key)

    #: Whether the head path reads ``messages_routed`` while a batch is in
    #: flight (D-Choices' solver throttle does).  When False, the legacy
    #: interleaved batch loop skips the per-message counter store and
    #: bulk-updates at the end.
    _head_reads_message_count = False

    #: Whether the head path only reads state that the classified batch
    #: pipeline keeps exact mid-chunk (the load vector and scheme-internal
    #: cursors).  Schemes that opt in get the two-pass fast path: the whole
    #: chunk is classified in one bulk sketch pass, then routed with run
    #: loops.  Schemes whose head selection reads the *sketch* or the
    #: message counter mid-stream (D-Choices' solver throttle) must keep
    #: this False — pre-feeding the sketch past a solver checkpoint would
    #: change what the check observes — and either take the interleaved
    #: loop or split chunks at the checkpoints themselves, as D-Choices
    #: does in its own ``route_batch``.
    _head_path_chunk_safe = False

    #: Maximum number of (head key -> candidate tuple) entries interned by
    #: the head candidate cache; reset when full.  Head keys are few by
    #: definition (at most the sketch capacity at any instant), so the
    #: bound only matters on long runs with drifting heads.
    _HEAD_CANDIDATE_CACHE_LIMIT = 1 << 14

    def _select_worker(self, key: Key) -> WorkerId:
        # Fast path: same steps as _select (sketch update, head test, tail
        # two-choice) without building a RoutingDecision for the tail.
        sketch = self._sketch
        sketch.add(key)
        total = sketch.total
        if total >= self._warmup_messages and (
            sketch.estimate(key) >= self._theta * total
        ):
            return self._select_head_worker(key)
        first, second = self._hashes.candidates(key, 2)
        loads = self._state.loads
        return first if loads[first] <= loads[second] else second

    def route_batch(
        self, keys: Sequence[Key], head_flags: list[bool] | None = None
    ) -> list[WorkerId]:
        """Batched Algorithm 1: classify the chunk in bulk, then route runs.

        Schemes whose head path is chunk-safe (see
        ``_head_path_chunk_safe``) take the two-pass pipeline: one bulk
        sketch pass classifies every message (``add_and_classify_batch``),
        then the selection pass hashes only the tail keys — vectorized — and
        places head keys with a scheme-specific run strategy (a running
        argmin over the load vector for full-freedom schemes, cached
        candidate tuples for bounded-d schemes).  Everything the selection
        pass reads evolves exactly as it would one message at a time, so the
        worker sequence is byte-identical to sequential :meth:`route` calls.

        Schemes that read the sketch or the message counter from the head
        path fall back to the interleaved per-message loop, which feeds the
        sketch in stream order.
        """
        return self._route_batch_impl(keys, head_flags, False)

    def route_batch_columnar(self, batch, head_flags=None):
        """Columnar Algorithm 1: the whole pipeline runs on key ids.

        The sketch is key-agnostic (SpaceSaving decisions depend only on
        identity, and id <-> key is a bijection), so classification over ids
        produces the same head/tail flags; hashing goes through the per-id
        candidate tables, which hash the dictionary's folded keys — the
        worker sequence is byte-identical to ``route_batch(batch.keys())``.
        A partitioner is bound to one dictionary per sketch lifetime; call
        :meth:`reset` before switching streams.
        """
        self._bind_dictionary(batch.dictionary)
        return self._route_batch_impl(batch.ids.tolist(), head_flags, True)

    def _bind_dictionary(self, dictionary) -> None:
        if self._id_dict is dictionary:
            return
        if self._id_dict is not None:
            # Ids are dictionary-relative: a new dictionary invalidates the
            # id-keyed candidate cache.  (The sketch still holds old-stream
            # ids — mixing dictionaries without reset() is unsupported.)
            self._head_cand_cache_ids.clear()
            self._head_cand_cache_ids_d = 0
        self._id_dict = dictionary

    def _route_batch_impl(
        self, keys: Sequence[Key], head_flags: list[bool] | None, id_mode: bool
    ) -> list[WorkerId]:
        """Shared batch driver; ``keys`` are ids when ``id_mode`` is set."""
        if self._head_path_chunk_safe:
            tail_keys: list[Key] = []
            runs = self._classify_runs(keys, tail_keys)
            out: list[WorkerId] = []
            self._route_runs(keys, runs, tail_keys, out, id_mode)
            self._state.messages_routed += len(out)
            if head_flags is not None:
                head_flags.extend(runs_to_flags(runs))
            return out
        return self._route_batch_interleaved(keys, head_flags, id_mode)

    def _route_batch_interleaved(
        self,
        keys: Sequence[Key],
        head_flags: list[bool] | None = None,
        id_mode: bool = False,
    ) -> list[WorkerId]:
        """Per-message batch loop: vectorized tail hashing, live bookkeeping.

        The conservative path for subclasses that have not declared their
        head path chunk-safe: every candidate pair is derived in one
        vectorized pass up front, but the sketch update, head test and head
        selection run message by message in stream order, so a head path
        may read any state (sketch, message counter) and still observe
        exactly what the scalar path would.  ``messages_routed`` is written
        per message only for schemes that read it mid-batch (see
        ``_head_reads_message_count``).
        """
        if id_mode:
            pairs = self._hashes.id_candidate_rows(
                np.asarray(keys, dtype=np.int64), self._id_dict, 2
            ).tolist()
        else:
            pairs = self._hashes.candidates_batch(keys, 2).tolist()
        state = self._state
        loads = state.loads
        sketch = self._sketch
        theta = self._theta
        warmup = self._warmup_messages
        select_head = self._select_head_worker_id if id_mode else self._select_head_worker
        live_count = self._head_reads_message_count
        flag = head_flags.append if head_flags is not None else None
        out: list[WorkerId] = []
        append = out.append
        add_and_estimate = getattr(sketch, "add_and_estimate", None)
        if add_and_estimate is not None:
            total = sketch.total
            for key, pair in zip(keys, pairs):
                total += 1
                estimate = add_and_estimate(key)
                if total >= warmup and estimate >= theta * total:
                    worker = select_head(key)
                    is_head = True
                else:
                    first, second = pair
                    worker = first if loads[first] <= loads[second] else second
                    is_head = False
                loads[worker] += 1
                if live_count:
                    state.messages_routed += 1
                append(worker)
                if flag is not None:
                    flag(is_head)
        else:
            # Injected estimators without the fused op: same steps, one call
            # more per message, and the total re-read from the sketch (no
            # assumption that add() advances it by exactly one).
            add = sketch.add
            estimate_key = sketch.estimate
            for key, pair in zip(keys, pairs):
                add(key)
                total = sketch.total
                if total >= warmup and estimate_key(key) >= theta * total:
                    worker = select_head(key)
                    is_head = True
                else:
                    first, second = pair
                    worker = first if loads[first] <= loads[second] else second
                    is_head = False
                loads[worker] += 1
                if live_count:
                    state.messages_routed += 1
                append(worker)
                if flag is not None:
                    flag(is_head)
        if not live_count:
            state.messages_routed += len(out)
        return out

    # ------------------------------------------------------------------ #
    # classified batch pipeline
    # ------------------------------------------------------------------ #
    def _classify_batch(
        self,
        keys: Sequence[Key],
        stop_at_head: bool = False,
        tail_out: list[Key] | None = None,
    ) -> list[bool]:
        """Feed ``keys`` to the sketch and return one head flag per key.

        One bulk sketch call replaces the per-message ``add`` + ``estimate``
        round trips (see ``FrequencyEstimator.add_and_classify_batch``).
        With ``stop_at_head`` the pass — and crucially the sketch feed —
        stops right after the first head-classified key, leaving the sketch
        parked at that message; D-Choices relies on this to read head
        signatures at solver checkpoints with exactly the scalar-path view.
        ``tail_out`` collects the tail run during the same pass.  Duck-typed
        estimators without the bulk op get the reference loop.
        """
        bulk = getattr(self._sketch, "add_and_classify_batch", None)
        if bulk is not None:
            return bulk(
                keys, self._theta, self._warmup_messages, stop_at_head, tail_out
            )
        sketch = self._sketch
        theta = self._theta
        warmup = self._warmup_messages
        add = sketch.add
        estimate = sketch.estimate
        flags: list[bool] = []
        append = flags.append
        tail_append = tail_out.append if tail_out is not None else None
        for key in keys:
            add(key)
            total = sketch.total
            is_head = total >= warmup and estimate(key) >= theta * total
            append(is_head)
            if not is_head and tail_append is not None:
                tail_append(key)
            if stop_at_head and is_head:
                break
        return flags

    def _classify_runs(
        self, keys: Sequence[Key], tail_out: list[Key]
    ) -> list[int]:
        """Run-length classification of a chunk (see ``add_and_classify_runs``).

        Returns the head-run lengths around each tail message and fills
        ``tail_out`` with the tail keys, all in one sketch pass.  Duck-typed
        estimators without the bulk ops are classified with the reference
        loop and converted.
        """
        bulk = getattr(self._sketch, "add_and_classify_runs", None)
        if bulk is not None:
            return bulk(keys, self._theta, self._warmup_messages, tail_out)
        flags = self._classify_batch(keys, tail_out=tail_out)
        runs = [0]
        for is_head in flags:
            if is_head:
                runs[-1] += 1
            else:
                runs.append(0)
        return runs

    def _route_runs(
        self,
        keys: Sequence[Key],
        runs: Sequence[int],
        tail_keys: Sequence[Key],
        out: list[WorkerId],
        id_mode: bool = False,
    ) -> None:
        """Route a run-length-classified chunk, appending to ``out``.

        The chunk arrives pre-split into alternating head runs and tail
        messages (``runs[i]`` heads, then ``tail_keys[i]``, ...; the last
        entry of ``runs`` is the trailing head run).  Tail placements walk
        the vectorized candidate columns; head runs count down with no
        per-message flag or key touch in "all" mode — full-freedom
        placement needs nothing but the load vector — while "d" and "call"
        modes track the stream position to recover the head keys from
        ``keys``.  ``messages_routed`` is the caller's to update.
        """
        loads = self._state.loads
        append = out.append
        if len(keys) <= 24:
            # Short fragment (single-message chunks, D-Choices checkpoint
            # remnants): the fixed setup of the vectorized path — numpy
            # round trip, argmin-queue seeding — costs more than routing
            # the handful of messages against the scalar helpers.
            self._route_runs_scalar(keys, runs, out, id_mode)
            return
        if tail_keys:
            if id_mode:
                firsts, seconds = self._hashes.id_candidate_columns(
                    np.asarray(tail_keys, dtype=np.int64), self._id_dict, 2
                )
            else:
                firsts, seconds = self._hashes.candidates_batch_columns(tail_keys, 2)
        else:
            firsts = seconds = ()
        # One sentinel pair past the real tails pairs the trailing head run
        # with the same loop body; len(runs) == len(tail_keys) + 1, so zip
        # consumes exactly the sentinel for the final entry.
        paired = zip(runs, chain(firsts, (None,)), chain(seconds, (None,)))
        mode, num_choices = self._head_selection()
        if mode == "all":
            level, queue = self._min_load_level()
            position = 0
            fill = len(queue)
            for run, first, second in paired:
                while run:
                    run -= 1
                    while True:
                        if position == fill:
                            level, queue = self._min_load_level()
                            position = 0
                            fill = len(queue)
                        worker = queue[position]
                        position += 1
                        if loads[worker] == level:
                            break
                    loads[worker] = level + 1
                    append(worker)
                if first is None:
                    break
                worker = first if loads[first] <= loads[second] else second
                loads[worker] += 1
                append(worker)
        elif mode == "d":
            # The cache-tag handshake runs once up front so the hot path may
            # read the cache directly; misses go through
            # _cached_head_candidates, the single home of the dedupe /
            # reset-when-full logic (its re-check of the tag is then a no-op).
            num_choices = max(2, min(num_choices, self.num_workers))
            if id_mode:
                cache = self._head_cand_cache_ids
                if num_choices != self._head_cand_cache_ids_d:
                    cache.clear()
                    self._head_cand_cache_ids_d = num_choices
                cached_candidates = self._cached_head_candidates_id
            else:
                cache = self._head_cand_cache
                if num_choices != self._head_cand_cache_d:
                    cache.clear()
                    self._head_cand_cache_d = num_choices
                cached_candidates = self._cached_head_candidates
            cache_get = cache.get
            stream_at = 0
            for run, first, second in paired:
                while run:
                    run -= 1
                    key = keys[stream_at]
                    stream_at += 1
                    candidates = cache_get(key)
                    if candidates is None:
                        candidates = cached_candidates(key, num_choices)
                    scan = iter(candidates)
                    worker = next(scan)
                    best_load = loads[worker]
                    for candidate in scan:
                        load = loads[candidate]
                        if load < best_load:
                            worker = candidate
                            best_load = load
                    loads[worker] += 1
                    append(worker)
                if first is None:
                    break
                stream_at += 1
                worker = first if loads[first] <= loads[second] else second
                loads[worker] += 1
                append(worker)
        else:
            select_head = (
                self._select_head_worker_id if id_mode else self._select_head_worker
            )
            stream_at = 0
            for run, first, second in paired:
                while run:
                    run -= 1
                    worker = select_head(keys[stream_at])
                    stream_at += 1
                    loads[worker] += 1
                    append(worker)
                if first is None:
                    break
                stream_at += 1
                worker = first if loads[first] <= loads[second] else second
                loads[worker] += 1
                append(worker)

    def _route_runs_scalar(
        self,
        keys: Sequence[Key],
        runs: Sequence[int],
        out: list[WorkerId],
        id_mode: bool = False,
    ) -> None:
        """Scalar fallback of :meth:`_route_runs` for short fragments."""
        loads = self._state.loads
        append = out.append
        if id_mode:
            family = self._hashes
            id_dict = self._id_dict
            tail_candidates = lambda key: family.candidates_for_id(key, id_dict, 2)
            head_cached = self._cached_head_candidates_id
            select_head = self._select_head_worker_id
        else:
            family_candidates = self._hashes.candidates
            tail_candidates = lambda key: family_candidates(key, 2)
            head_cached = self._cached_head_candidates
            select_head = self._select_head_worker
        mode, num_choices = self._head_selection()
        run_iter = iter(runs)
        run = next(run_iter)
        for key in keys:
            if run:
                run -= 1
                if mode == "all":
                    worker = loads.index(min(loads))
                elif mode == "d":
                    worker = self._least_loaded(head_cached(key, num_choices))
                else:
                    worker = select_head(key)
            else:
                run = next(run_iter)
                first, second = tail_candidates(key)
                worker = first if loads[first] <= loads[second] else second
            loads[worker] += 1
            append(worker)

    def _head_selection(self) -> tuple[str, int]:
        """How the classified pipeline should place head keys right now.

        ``("all", 0)`` — least-loaded of all workers (W-Choices and the
        D-Choices degradation), served by the running-argmin queue;
        ``("d", d)`` — least-loaded of ``d`` hash-derived candidates, served
        by the head candidate cache; ``("call", 0)`` — per-message
        :meth:`_select_head_worker`, for head paths with scheme-internal
        state (Round-Robin's cursor).  Re-consulted at every classified run
        so schemes whose mode is dynamic (D-Choices after a solver refresh)
        switch at exactly the boundaries where their state can change.
        """
        return ("call", 0)

    def _cached_head_candidates(self, key: Key, num_choices: int) -> tuple[WorkerId, ...]:
        """The head candidate set of ``key``, interned per (key, d).

        Same clamping as :meth:`_head_candidates`, but the cached tuple is
        *deduplicated* (first occurrence kept, order preserved): a repeated
        candidate can never win a least-loaded scan — the first occurrence
        already set ``best_load`` at most that low and the comparison is
        strict — so dropping it changes nothing while shortening every
        subsequent scan (d hash draws over n workers repeat themselves with
        noticeable probability once d is a fair fraction of n).  The cache
        is tagged with the effective d and flushed lazily whenever it
        changes (a D-Choices solver refresh), and eagerly when the hash
        family is rebuilt (rescale) — stale tuples would otherwise leak
        pre-rescale workers.
        """
        num_choices = max(2, min(num_choices, self.num_workers))
        cache = self._head_cand_cache
        if num_choices != self._head_cand_cache_d:
            cache.clear()
            self._head_cand_cache_d = num_choices
        candidates = cache.get(key)
        if candidates is None:
            candidates = tuple(
                dict.fromkeys(self._hashes.candidates(key, num_choices))
            )
            if len(cache) >= self._HEAD_CANDIDATE_CACHE_LIMIT:
                cache.clear()
            cache[key] = candidates
        return candidates

    def _cached_head_candidates_id(
        self, kid: int, num_choices: int
    ) -> tuple[WorkerId, ...]:
        """Id-keyed twin of :meth:`_cached_head_candidates` (columnar path).

        Kept strictly separate from the key-keyed cache: an id is a plain
        int that may numerically equal an integer workload key, and the two
        must never alias.  Candidates come from the per-id table, so they
        equal the key-path tuples bit for bit.
        """
        num_choices = max(2, min(num_choices, self.num_workers))
        cache = self._head_cand_cache_ids
        if num_choices != self._head_cand_cache_ids_d:
            cache.clear()
            self._head_cand_cache_ids_d = num_choices
        candidates = cache.get(kid)
        if candidates is None:
            candidates = tuple(
                dict.fromkeys(
                    self._hashes.candidates_for_id(kid, self._id_dict, num_choices)
                )
            )
            if len(cache) >= self._HEAD_CANDIDATE_CACHE_LIMIT:
                cache.clear()
            cache[kid] = candidates
        return candidates

    def _route_tail_span(
        self,
        tail_keys: Sequence[Key],
        out: list[WorkerId],
        id_mode: bool = False,
    ) -> None:
        """Route a run of tail-classified keys (two-choice), appending to
        ``out``.

        D-Choices' checkpoint scans classify a (usually tiny) all-tail
        prefix before the head message that fires the solver check; short
        spans take scalar candidate lookups — the numpy round trip costs
        more than it saves below a couple dozen messages — and longer ones
        the vectorized columns.  ``messages_routed`` is the caller's to
        update.
        """
        loads = self._state.loads
        append = out.append
        if len(tail_keys) <= 24:
            if id_mode:
                family = self._hashes
                id_dict = self._id_dict
                for key in tail_keys:
                    first, second = family.candidates_for_id(key, id_dict, 2)
                    worker = first if loads[first] <= loads[second] else second
                    loads[worker] += 1
                    append(worker)
            else:
                candidates_of = self._hashes.candidates
                for key in tail_keys:
                    first, second = candidates_of(key, 2)
                    worker = first if loads[first] <= loads[second] else second
                    loads[worker] += 1
                    append(worker)
            return
        if id_mode:
            firsts, seconds = self._hashes.id_candidate_columns(
                np.asarray(tail_keys, dtype=np.int64), self._id_dict, 2
            )
        else:
            firsts, seconds = self._hashes.candidates_batch_columns(tail_keys, 2)
        for first, second in zip(firsts, seconds):
            worker = first if loads[first] <= loads[second] else second
            loads[worker] += 1
            append(worker)

    def _select_tail(self, key: Key) -> RoutingDecision:
        """Tail path: the standard two choices of PKG."""
        candidates = self._hashes.candidates(key, 2)
        worker = self._least_loaded(candidates)
        return RoutingDecision(
            key=key, worker=worker, candidates=candidates, is_head=False
        )

    def _select_head(self, key: Key) -> RoutingDecision:
        """Head path; must be provided by the concrete scheme."""
        raise NotImplementedError

    def _select_head_worker(self, key: Key) -> WorkerId:
        """Allocation-free head path; schemes override for the hot loop.

        The default delegates to :meth:`_select_head`, so subclasses that
        only implement the decision variant stay correct (just slower).
        """
        return self._select_head(key).worker

    def _select_head_worker_id(self, kid: int) -> WorkerId:
        """Head placement addressed by key id ("call"-mode columnar path).

        The default decodes and delegates — correct for any scheme.
        Subclasses whose head selection ignores the key (Round-Robin) or is
        id-addressable (D-Choices' solved selector) override to skip the
        decode.
        """
        return self._select_head_worker(self._id_dict.key_of(kid))

    def reset(self) -> None:
        super().reset()
        # Every built-in sketch resets in place; injected estimators without
        # a reset() keep their counts (documented best-effort behaviour).
        reset = getattr(self._sketch, "reset", None)
        if callable(reset):
            reset()
        # Candidate tuples would still be valid (hashing is untouched), but
        # a reset is a fresh start: drop them so the cache cannot outlive
        # whatever population the new stream brings.
        self._head_cand_cache.clear()
        self._head_cand_cache_d = 0
        self._head_cand_cache_ids.clear()
        self._head_cand_cache_ids_d = 0
        self._id_dict = None

    def _rescale_structures(self, old_num_workers: int, new_num_workers: int) -> None:
        """Incremental rescale: new hash family, *preserved* head table.

        The hash functions are modulo the worker count, so tail candidate
        pairs are redrawn; the SpaceSaving sketch, however, is sender-local
        frequency knowledge that survives a topology change unchanged —
        throwing it away would force every scheme back through the warmup
        before heavy hitters are treated specially again.  A defaulted
        theta is re-derived for the new worker count.  Shrinks only raise
        theta, so the original capacity keeps upper-bounding the head; a
        *join*, however, lowers theta (1/(5n) falls as n grows), and once
        ``1/theta_new`` exceeds the sketch's capacity the no-false-negative
        guarantee breaks — a true heavy hitter could be evicted and silently
        routed down the tail path.  The sketch is therefore grown in place
        (monitored counters preserved) whenever the re-derived theta needs
        more counters than it was provisioned with.
        """
        if self._theta_defaulted:
            self._theta = theta_range(new_num_workers).default
            self._ensure_sketch_capacity()
        self._hashes = HashFamily(
            num_functions=max(2, new_num_workers),
            num_buckets=new_num_workers,
            seed=self.seed,
        )
        # The hash family above was just rebuilt for the new bucket count:
        # every cached head candidate tuple now points at pre-rescale
        # workers and must go, whatever d it was derived for.  (The rebuild
        # also drops the old family's per-id candidate tables — that is the
        # columnar invalidation path.)  The dictionary binding survives: the
        # sketch still holds this stream's ids.
        self._head_cand_cache.clear()
        self._head_cand_cache_d = 0
        self._head_cand_cache_ids.clear()
        self._head_cand_cache_ids_d = 0

    def _ensure_sketch_capacity(self) -> None:
        """Grow the sketch when the current theta needs more counters.

        Best-effort for injected estimators: only sketches exposing both
        ``capacity`` and ``grow`` (SpaceSaving does) are resized; growth
        preserves every monitored count, so the head table survives.
        """
        capacity = getattr(self._sketch, "capacity", None)
        grow = getattr(self._sketch, "grow", None)
        if capacity is None or not callable(grow):
            return
        required = max(1, math.ceil(self._sketch_slack / self._theta))
        if capacity < required:
            grow(required)

    def _export_structures(self, state: dict) -> None:
        state["theta"] = self._theta
        state["warmup_messages"] = self._warmup_messages
        export = getattr(self._sketch, "export_state", None)
        if callable(export):
            state["sketch"] = export()
        # The candidate caches are pure derivations, but re-deriving them is
        # the only cost a switch pays per hot key — carry them along, tagged
        # with the hashing identity they were derived under.
        state["head_cand_cache"] = (dict(self._head_cand_cache), self._head_cand_cache_d)
        state["head_cand_cache_ids"] = (
            dict(self._head_cand_cache_ids),
            self._head_cand_cache_ids_d,
        )
        state["id_dictionary"] = self._id_dict

    def _adopt_structures(self, state) -> None:
        sketch_state = state.get("sketch")
        if sketch_state is not None:
            # Re-seed the head table from the donor instead of cold-starting:
            # the monitored counters, their summary order and the stream
            # total all carry over, so warmup is already behind us and the
            # head is hot from the first adopted message.  The capacity is
            # at least what *this* scheme's theta requires — an adopter with
            # a smaller theta gets the extra counters its guarantee needs.
            required = max(1, math.ceil(self._sketch_slack / self._theta))
            capacity = max(required, int(sketch_state["capacity"]))
            self._sketch = SpaceSaving.from_state(sketch_state, capacity=capacity)
        dictionary = state.get("id_dictionary")
        if dictionary is not None:
            self._id_dict = dictionary
        if state.get("seed") == self._seed and state.get("num_workers") == self._num_workers:
            # Same hash family: the donor's candidate tuples are ours too.
            cache, cache_d = state.get("head_cand_cache", ({}, 0))
            self._head_cand_cache = dict(cache)
            self._head_cand_cache_d = cache_d
            cache_ids, cache_ids_d = state.get("head_cand_cache_ids", ({}, 0))
            self._head_cand_cache_ids = dict(cache_ids)
            self._head_cand_cache_ids_d = cache_ids_d
        else:
            self._head_cand_cache.clear()
            self._head_cand_cache_d = 0
            self._head_cand_cache_ids.clear()
            self._head_cand_cache_ids_d = 0

    def key_candidates(self, key: Key) -> tuple[WorkerId, ...]:
        """Pure candidate set: head keys via the scheme's head placement,
        tail keys via the two PKG choices (no sketch mutation)."""
        if self.is_head(key):
            return self._head_key_candidates(key)
        return self._hashes.candidates(key, 2)

    def _head_key_candidates(self, key: Key) -> tuple[WorkerId, ...]:
        """Pure head candidate set; default is full placement freedom
        (W-Choices, Round-Robin), schemes with bounded heads override."""
        return tuple(range(self.num_workers))

    # helper for subclasses that need the candidate tuple of d hashes
    def _head_candidates(self, key: Key, num_choices: int) -> tuple[WorkerId, ...]:
        num_choices = max(2, min(num_choices, self.num_workers))
        return self._hashes.candidates(key, num_choices)
