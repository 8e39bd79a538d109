"""Locality-sharded discrete-event scheduler (``SimParams.shards > 1``).

The paper's scaling argument is that leaf subgroups interact mostly
internally and only rarely across branch boundaries.  This engine applies
the same observation to the simulator: events are routed by a locality
key (process address, message destination) onto per-shard heaps, and the
run loop advances one shard at a time in long uninterrupted bursts,
switching only at branch-boundary interactions.

Correctness is by construction, not by windowing:

* Every event still receives a globally unique ``(time, seq)`` key from
  one shared counter — the *canonical cross-shard merge order*.
* The run loop always executes the shard whose head is the global
  minimum, and keeps executing it while that head precedes a
  **conservative lower bound**: the least head among all other shards
  (capped by ``until``).  A cross-shard insert during the burst lowers
  the bound immediately, so no shard ever runs past an event another
  shard scheduled into its past.
* Consequently the executed order is *exactly* the canonical order — a
  shards=2 run produces byte-identical delivery digests to shards=1.
  The win is mechanical: each burst works a heap that holds one shard's
  events only (cheaper sifts, better locality), and the merge scan runs
  once per burst instead of once per event.

The effective lookahead between shards is the minimum cross-shard
latency: with leaf-local traffic at millisecond spacing and cross-leaf
messages only every few heartbeats, bursts span hundreds of events.
When every event is cross-shard the engine degrades gracefully to a
K-way merge of the same order (correct, just not faster) — see
docs/simulator.md for when ``shards > 1`` is worth switching on.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Dict, List, Optional
from zlib import crc32

from repro.sim.scheduler import (
    Scheduler,
    SimulationError,
    _Event,
    _NO_ARG,
)

_INF = float("inf")


def cross_shard_lookahead(latency, params=None) -> float:
    """The conservative window between partitioned schedulers.

    Any event one partition schedules onto another is a message, and a
    message takes at least the latency model's floor to arrive — so a
    partition that has executed up to ``T`` can safely run to ``T +
    floor`` before looking at anyone else's outbox.  This is the same
    lookahead argument the sharded run loop makes per burst, promoted to
    a fixed window for the process-parallel engine
    (:mod:`repro.sim.parallel`).

    ``params.lookahead`` (:class:`~repro.sim.params.SimParams`) overrides
    the derived floor — e.g. to widen windows for a latency model whose
    floor is pessimistically small.  Raises :class:`SimulationError` when
    no positive window exists (a zero-floor model has no conservative
    lookahead; run single-process instead).
    """
    declared = getattr(params, "lookahead", None)
    window = declared if declared is not None else latency.floor()
    if not window or window <= 0.0:
        raise SimulationError(
            "no conservative lookahead: the latency model's floor is zero "
            "and SimParams.lookahead is unset"
        )
    return window


def default_shard_key(key: Any) -> int:
    """Stable locality hash: CRC32 of ``str(key)`` — identical across
    processes and hash seeds, so sharded runs replay from the seed alone."""
    return crc32(str(key).encode("utf-8"))


class ShardedScheduler(Scheduler):
    """K per-shard event heaps merged in exact canonical (time, seq) order.

    Drop-in for :class:`~repro.sim.scheduler.Scheduler` (the whole
    TimerService/MessageFabric surface, plus the keyed entry points the
    network and process timers use for locality routing).  Construct via
    :meth:`repro.sim.params.SimParams.make_scheduler`.
    """

    def __init__(self, params) -> None:
        super().__init__()
        if params.shards < 2:
            raise SimulationError("ShardedScheduler requires shards >= 2")
        self._nshards = params.shards
        self._heaps: List[List[tuple]] = [[] for _ in range(params.shards)]
        self._shard_key = params.shard_key or default_shard_key
        self._shard_cache: Dict[Any, int] = {}
        self._current = 0  # shard currently executing (0 when idle)
        # Lower bound on what any *other* shard may still execute; only
        # meaningful while running.  Stored as a heap entry so one tuple
        # compare checks it.
        self._bound: tuple = (_INF, 0, None)
        self._switches = 0  # cross-shard sync points (diagnostics)

    # -- introspection -------------------------------------------------------

    @property
    def heap_size(self) -> int:
        """Total entries across all shard heaps (incl. lazily cancelled)."""
        total = 0
        for heap in self._heaps:
            total += len(heap)
        return total

    @property
    def shards(self) -> int:
        return self._nshards

    @property
    def shard_switches(self) -> int:
        """How many shard bursts the run loop has started — the lower
        this is relative to events processed, the more locality paid off."""
        return self._switches

    def shard_heap_sizes(self) -> List[int]:
        """Raw per-shard heap lengths (incl. lazily cancelled entries) —
        the skew probe: one hot shard means the locality key is not
        spreading load."""
        return [len(heap) for heap in self._heaps]

    @property
    def alloc_stats(self) -> Dict[str, int]:
        """Fleet-wide free-list telemetry: the base counters (pools are
        shared across shards, so fresh/pooled counts already aggregate)
        plus the sharded run loop's own numbers, so ``perf_report``'s
        ``alloc_stats`` probe reports the whole fleet instead of a
        single-queue view."""
        stats = Scheduler.alloc_stats.fget(self)
        stats["shards"] = self._nshards
        stats["shard_switches"] = self._switches
        sizes = self.shard_heap_sizes()
        stats["shard_heap_total"] = sum(sizes)
        stats["shard_heap_max"] = max(sizes) if sizes else 0
        return stats

    def _shard_of(self, key: Any) -> int:
        cache = self._shard_cache
        shard = cache.get(key)
        if shard is None:
            shard = cache[key] = self._shard_key(key) % self._nshards
        return shard

    # -- scheduling ----------------------------------------------------------

    def _schedule(
        self, time: float, fn: Callable, arg: Any, once: bool, shard: int
    ) -> _Event:
        if time < self._now:
            raise SimulationError(
                f"cannot schedule event at {time:.6f} < now {self._now:.6f}"
            )
        if once:
            pool = self._event_pool
            if pool:
                event = pool.pop()
                event.time = time
                event.fn = fn
                event.arg = arg
                event.cancelled = False
                event.in_heap = True
            else:
                self._fresh_events += 1
                event = _Event(self, time, fn, arg, True)
        else:
            event = _Event(self, time, fn, arg, False)
        self._push(shard, time, None, event)
        return event

    def _push(self, shard: int, time: float, fn: Any, arg: Any) -> None:
        entry = (time, self._seq, fn, arg)
        self._seq += 1
        heapq.heappush(self._heaps[shard], entry)
        if self._running and shard != self._current and entry < self._bound:
            self._bound = entry

    def post(self, time: float, fn: Callable[[Any], None], arg: Any) -> None:
        """Handle-free post (see :meth:`Scheduler.post`) routed to the
        home shard of ``arg.dst`` — the network posts envelopes, so each
        delivery runs on its destination's shard.  Posts are never
        bucketed here: each takes its own entry."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule event at {time:.6f} < now {self._now:.6f}"
            )
        dst = getattr(arg, "dst", None)
        shard = self._current if dst is None else self._shard_of(dst)
        self._push(shard, time, fn, arg)

    def at(self, time: float, fn: Callable[[], None]) -> _Event:
        return self._schedule(time, fn, _NO_ARG, False, self._current)

    def at_call(self, time: float, fn: Callable[[Any], None], arg: Any) -> _Event:
        return self._schedule(time, fn, arg, False, self._current)

    def at_call_once(self, time: float, fn: Callable[[Any], None], arg: Any) -> _Event:
        return self._schedule(time, fn, arg, True, self._current)

    def after_call_keyed(
        self, delay: float, fn: Callable[[Any], None], arg: Any, key: Any
    ) -> _Event:
        """``after_call`` routed to ``key``'s home shard — process timers
        use their owner's address so leaf-local ticks stay leaf-local."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay!r}")
        return self._schedule(
            self._now + delay, fn, arg, False, self._shard_of(key)
        )

    def after_call_keyed_once(
        self, delay: float, fn: Callable[[Any], None], arg: Any, key: Any
    ) -> _Event:
        """Recyclable keyed one-shot (see :meth:`Scheduler.at_call_once`
        for the handle contract)."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay!r}")
        return self._schedule(
            self._now + delay, fn, arg, True, self._shard_of(key)
        )

    def rearm(self, handle: _Event, delay: float) -> _Event:
        """Re-push a fired event into the executing shard (a timer fires
        on its home shard, so re-arming keeps it there)."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay!r}")
        if handle.in_heap:
            raise SimulationError("cannot rearm an event that is still queued")
        if handle.once:
            raise SimulationError("cannot rearm a recycled one-shot event")
        time = self._now + delay
        handle.time = time
        handle.cancelled = False
        handle.in_heap = True
        self._push(self._current, time, None, handle)
        return handle

    # -- cancellation bookkeeping --------------------------------------------

    def _compact(self) -> None:
        # Amortised: compaction runs only when cancelled events dominate
        # the heaps, not per event.  Each shard heap is filtered in place.
        for heap in self._heaps:
            self._drop_cancelled(heap)
        self._cancelled_in_heap = 0

    # -- running -------------------------------------------------------------

    def _min_shard(self) -> int:
        """The shard whose head is the global minimum, or -1 if idle."""
        current = -1
        best = None
        for i, heap in enumerate(self._heaps):
            if heap:
                entry = heap[0]
                if best is None or entry < best:
                    best = entry
                    current = i
        return current

    def step(self) -> bool:
        """Fire the globally next event (canonical order), regardless of
        shard."""
        while True:
            current = self._min_shard()
            if current < 0:
                return False
            time, _, fn, arg = heapq.heappop(self._heaps[current])
            self._current = current
            if self._fire(time, fn, arg):
                return True

    def run(
        self,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
    ) -> None:
        if self._running:
            raise SimulationError("scheduler re-entered from within an event")
        self._running = True
        heaps = self._heaps
        nshards = self._nshards
        pop = heapq.heappop
        fire = self._fire
        limit = (_INF, 0, None) if until is None else (until, _INF, None)
        fired = 0
        try:
            while True:
                # The globally minimal head picks the next burst's shard —
                # this IS the canonical merge order.
                current = self._min_shard()
                if current < 0 or not heaps[current][0] < limit:
                    break
                # Conservative lower bound: the burst may not run past
                # any other shard's head (or `until`).  Inserts into
                # other shards during the burst lower it on the fly.
                bound = limit
                for i in range(nshards):
                    if i != current:
                        heap = heaps[i]
                        if heap and heap[0] < bound:
                            bound = heap[0]
                self._bound = bound
                self._current = current
                self._switches += 1
                heap = heaps[current]
                while heap:
                    entry = heap[0]
                    if not entry < self._bound:
                        break
                    if max_events is not None and fired >= max_events:
                        return
                    pop(heap)
                    fired += fire(entry[0], entry[2], entry[3])
            if until is not None and until > self._now:
                self._now = until
        finally:
            self._running = False
