"""Discrete-event scheduler: the heart of the simulated cluster.

Every other subsystem (network, processes, timers, failure injection) is
driven by a single :class:`Scheduler`.  Events are callbacks scheduled at a
simulated time; the scheduler pops them in nondecreasing time order and, for
equal times, in scheduling (FIFO) order, so runs are fully deterministic for
a given seed and workload.

The scheduler deliberately knows nothing about networks or processes; it is
a minimal priority-queue event loop that the rest of the library composes.

Performance notes (see docs/simulator.md, "Event-loop internals &
performance"):

* Heap entries are plain ``(time, seq, fn, arg)`` tuples.  ``(time,
  seq)`` is unique per entry, so every heap sift comparison resolves
  inside the C tuple-compare loop without ever calling back into Python.
* :meth:`Scheduler.post` is the datagram path: it pushes one plain entry
  and returns no handle, so nothing but the tuple is built per event
  and the run loop calls ``fn(arg)`` straight from the entry.
* Cancellable events (``at`` / ``at_call`` / ``at_call_once`` /
  ``rearm``) keep an :class:`_Event` handle in a *marked* entry
  ``(time, seq, None, event)``; the handle carries the callback and the
  cancelled flag.
* Posts that tie on ``(time, fn)`` share a *bucket*: the first post is a
  plain entry, the second opens one bucket entry ``(time, seq, None,
  (fn, args))`` directly after it, and later ones append to ``args``.
  A bucket is sealed the moment any other schedule consumes a seq on its
  timestamp, or when it fires, so the global (time, seq) order — and
  every frozen delivery digest — is exactly that of one entry per post.
  A draining bucket is counted in ``events_processed`` as a whole when
  it starts, and its callbacks run back to back from one pop.
  Under jittered latency ties are rare and almost every post stays a
  plain entry; under fixed latency a whole fan-out drains from one pop.
* The handle-free one-shot events behind :meth:`after_call_once` are
  drawn from a free list and recycled on fire.  Events whose handles
  escape (``at`` / ``at_call``) are never recycled: a retained handle
  may legally be cancelled or re-armed later, which would hijack a
  recycled event.
* :meth:`Scheduler.rearm` re-pushes a *fired* event object at a new time,
  so periodic timers reuse one event + handle for their whole life.
* Cancellation stays lazy (O(1)), but the scheduler counts cancelled
  events still sitting in the heap and compacts the heap in place when
  they exceed :data:`COMPACT_MIN` *and* outnumber the live entries — long
  churn runs no longer accumulate dead heartbeat timers.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Any, Callable, Dict, List, Optional


class SimulationError(RuntimeError):
    """Raised when the simulation is driven incorrectly (e.g. scheduling in
    the past or running a finished scheduler)."""


_NO_ARG = object()  # sentinel: "call fn with no argument"

_INF = float("inf")

# Compact the heap when more than COMPACT_MIN cancelled events are queued
# and they make up over half of the heap.
COMPACT_MIN = 64


class _Event:
    """One cancellable scheduled callback.  Doubles as its own
    cancellation handle — the object returned by ``at`` / ``at_call``
    *is* the queued event, held in a marked heap entry.

    Cancellation is lazy: the event stays in the heap but is skipped when
    it reaches the front, which keeps cancellation O(1).  The scheduler
    tracks how many cancelled events are queued and compacts the heap
    when they dominate it.

    ``once`` marks recyclable ``after_call_once`` one-shots: they return
    to the scheduler's free list when they fire, so their handle must
    not be touched afterwards.
    """

    __slots__ = ("time", "fn", "arg", "cancelled", "in_heap", "once", "_sched")

    def __init__(
        self,
        sched: "Scheduler",
        time: float,
        fn: Callable,
        arg: Any,
        once: bool,
    ) -> None:
        self._sched = sched
        self.time = time
        self.fn = fn
        self.arg = arg
        self.cancelled = False
        self.in_heap = True
        self.once = once

    def cancel(self) -> None:
        """Prevent the event from firing.  Idempotent; safe after firing
        for non-``once`` events (a ``once`` handle is dead once fired)."""
        if self.cancelled:
            return
        self.cancelled = True
        if self.in_heap:
            self._sched._note_cancelled()


# Historical name: PR-1 returned a separate handle object; the event now
# *is* the handle, and the old name stays importable for callers/tests.
EventHandle = _Event


class Scheduler:
    """A deterministic discrete-event scheduler.

    Usage::

        sched = Scheduler()
        sched.after(1.0, lambda: print("one second"))
        sched.run()

    Time is a float in arbitrary units; the library convention is seconds.
    """

    def __init__(self) -> None:
        # Heap of (time, seq, fn, arg) entries; (time, seq) is unique so
        # fn and arg are never compared.  fn is None in a marked entry,
        # whose arg is an _Event handle or a (fn, args) tie bucket.
        self._heap: List[tuple] = []
        self._now = 0.0
        self._seq = 0
        self._events_processed = 0
        self._running = False
        # pending = scheduled - processed - cancelled, where scheduled is
        # every seq handed out plus every post that joined a bucket
        # without one: no counter bump per fired event or plain post.
        self._joined = 0
        self._cancelled = 0
        self._cancelled_in_heap = 0  # lazily cancelled, awaiting pop/compact
        # The last post's (time, fn) and its bucket, if one is open.  A
        # later post matching both joins the tie; any other seq-consuming
        # schedule on that timestamp, or the bucket firing, seals it.
        self._tie_time = -1.0
        self._tie_fn: Optional[Callable] = None
        self._tie_args: Optional[list] = None
        # One-shot free list + fresh-construction counters (the
        # allocation probe in tools/perf_report.py reads alloc_stats).
        self._event_pool: List[_Event] = []
        self._fresh_events = 0
        self._fresh_lists = 0

    @property
    def now(self) -> float:
        """Current simulated time."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Total number of events that have fired.  Every post held in a
        tie bucket counts as one event; a bucket's posts are counted
        together as it starts draining, so between run() calls the count
        is exactly that of one entry per post."""
        return self._events_processed

    @property
    def pending(self) -> int:
        """Number of queued live events, excluding lazily cancelled ones.

        O(1): derived from counters rather than scanned from the heap.
        Each post held in an unfired bucket counts individually.
        """
        return self._seq + self._joined - self._events_processed - self._cancelled

    @property
    def heap_size(self) -> int:
        """Raw heap length, including lazily cancelled events.  A tie
        bucket occupies a single entry however many posts it holds."""
        return len(self._heap)

    @property
    def alloc_stats(self) -> Dict[str, int]:
        """Allocation telemetry beyond the per-entry heap tuple.

        ``fresh_events`` counts one-shot events built because the free
        list was empty; ``fresh_arg_lists`` counts tie buckets opened (one
        list each).  A steady-state window in which ``fresh_events``
        stays flat recycles every one-shot — the probe in
        ``tools/perf_report.py`` measures exactly that delta.
        """
        return {
            "fresh_events": self._fresh_events,
            "fresh_arg_lists": self._fresh_lists,
            "pooled_events": len(self._event_pool),
        }

    # -- scheduling ----------------------------------------------------------

    def post(self, time: float, fn: Callable[[Any], None], arg: Any) -> None:
        """Schedule ``fn(arg)`` at ``time`` with no handle: the cheapest
        event there is, and the one every simulated datagram uses.

        Posts cannot be cancelled.  A post tying with the previous one on
        ``(time, fn)`` joins that tie's bucket instead of taking a heap
        entry of its own (see the module notes); firing order and ``now``
        are exactly those of one entry per post, and so are the counters
        between run() calls.
        """
        if fn is self._tie_fn and time == self._tie_time:
            args = self._tie_args
            if args is not None:
                # An open bucket has not fired, so its time is not past.
                args.append(arg)
                self._joined += 1
                return
            if time < self._now:
                raise SimulationError(
                    f"cannot schedule event at {time:.6f} < now {self._now:.6f}"
                )
            self._fresh_lists += 1
            self._tie_args = args = [arg]
            heappush(self._heap, (time, self._seq, None, (fn, args)))
            self._seq += 1
            return
        if time < self._now:
            raise SimulationError(
                f"cannot schedule event at {time:.6f} < now {self._now:.6f}"
            )
        heappush(self._heap, (time, self._seq, fn, arg))
        self._seq += 1
        self._tie_time = time
        self._tie_fn = fn
        self._tie_args = None

    def _push_event(self, event: _Event) -> None:
        """Queue a handle in a marked entry, sealing any tie on its
        timestamp (the entry takes a seq the tie's posts must precede)."""
        time = event.time
        if time == self._tie_time:
            self._tie_fn = None
        heappush(self._heap, (time, self._seq, None, event))
        self._seq += 1

    def at(self, time: float, fn: Callable[[], None]) -> _Event:
        """Schedule ``fn`` to run at absolute simulated time ``time``."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule event at {time:.6f} < now {self._now:.6f}"
            )
        event = _Event(self, time, fn, _NO_ARG, False)
        self._push_event(event)
        return event

    def after(self, delay: float, fn: Callable[[], None]) -> _Event:
        """Schedule ``fn`` to run ``delay`` time units from now."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay!r}")
        return self.at(self._now + delay, fn)

    def at_call(self, time: float, fn: Callable[[Any], None], arg: Any) -> _Event:
        """Schedule ``fn(arg)`` at ``time`` and return a cancellable handle.

        Storing the argument on the event (instead of closing over it)
        saves one closure allocation per event.  Callers that never
        cancel should use :meth:`post`.
        """
        if time < self._now:
            raise SimulationError(
                f"cannot schedule event at {time:.6f} < now {self._now:.6f}"
            )
        event = _Event(self, time, fn, arg, False)
        self._push_event(event)
        return event

    def after_call(self, delay: float, fn: Callable[[Any], None], arg: Any) -> _Event:
        """Schedule ``fn(arg)`` to run ``delay`` from now."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay!r}")
        return self.at_call(self._now + delay, fn, arg)

    def at_call_once(self, time: float, fn: Callable[[Any], None], arg: Any) -> _Event:
        """Like :meth:`at_call`, but the event is drawn from the free
        list and recycled when it fires (or when a cancellation is
        compacted away).

        Contract: the returned handle may be cancelled *before* the due
        time, but must never be touched after the event fires or after
        ``cancel()`` — the object is recycled and may already carry a
        different callback.  ``rearm`` rejects these events.  One-shot
        process timers (:class:`repro.proc.process.Timer`) follow this
        discipline, which makes timer churn allocation-free.
        """
        if time < self._now:
            raise SimulationError(
                f"cannot schedule event at {time:.6f} < now {self._now:.6f}"
            )
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
        self._push_event(event)
        return event

    def after_call_once(
        self, delay: float, fn: Callable[[Any], None], arg: Any
    ) -> _Event:
        """Recyclable one-shot: ``fn(arg)`` after ``delay`` (see
        :meth:`at_call_once` for the handle contract)."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay!r}")
        return self.at_call_once(self._now + delay, fn, arg)

    def rearm(self, handle: _Event, delay: float) -> _Event:
        """Re-push a *fired* event at ``now + delay``, reusing its event
        object and handle (no allocation).  Periodic timers use this so a
        million ticks cost one event object, not a million.

        The event must not currently be queued; its cancelled flag is
        cleared (re-arming an event is scheduling it anew).  Recyclable
        (``once``) events are rejected: after firing they may already be
        serving another caller.
        """
        if delay < 0:
            raise SimulationError(f"negative delay {delay!r}")
        if handle.in_heap:
            raise SimulationError("cannot rearm an event that is still queued")
        if handle.once:
            raise SimulationError("cannot rearm a recycled one-shot event")
        handle.time = self._now + delay
        handle.cancelled = False
        handle.in_heap = True
        self._push_event(handle)
        return handle

    # -- cancellation bookkeeping --------------------------------------------

    def _note_cancelled(self) -> None:
        self._cancelled += 1
        self._cancelled_in_heap += 1
        if (
            self._cancelled_in_heap > COMPACT_MIN
            and self._cancelled_in_heap * 2 > self.heap_size
        ):
            self._compact()

    def _drop_cancelled(self, heap: List[tuple]) -> None:
        """Filter lazily cancelled handles out of ``heap`` in place (the
        run loop keeps its reference to the list) and re-heapify."""
        live: List[tuple] = []
        append = live.append
        pool = self._event_pool
        for entry in heap:
            event = entry[3]
            if entry[2] is None and event.__class__ is _Event and event.cancelled:
                event.in_heap = False
                if event.once:
                    event.fn = None
                    event.arg = None
                    pool.append(event)
            else:
                append(entry)
        heap[:] = live
        heapify(heap)

    def _compact(self) -> None:
        """Drop lazily cancelled events and re-heapify the survivors."""
        self._drop_cancelled(self._heap)
        self._cancelled_in_heap = 0

    # -- running -------------------------------------------------------------

    def _fire_marked(self, time: float, arg: Any) -> int:
        """Fire one marked entry's payload — a handle or a tie bucket —
        and return how many events it counted as (0 for a cancelled
        handle, which neither counts nor advances ``now``)."""
        if arg.__class__ is tuple:
            fn, args = arg
            if args is self._tie_args:
                self._tie_fn = None  # seal: the bucket is draining
            self._now = time
            # The whole bucket is counted as it starts draining, so its
            # callbacks run without a counter bump each.
            n = len(args)
            self._events_processed += n
            for a in args:
                fn(a)
            return n
        event = arg
        event.in_heap = False
        if event.cancelled:
            self._cancelled_in_heap -= 1
            if event.once:
                event.fn = None
                event.arg = None
                self._event_pool.append(event)
            return 0
        self._now = time
        self._events_processed += 1
        a = event.arg
        if a is _NO_ARG:
            event.fn()
        else:
            event.fn(a)
        if event.once:
            event.fn = None
            event.arg = None
            self._event_pool.append(event)
        return 1

    def _fire(self, time: float, fn: Optional[Callable], arg: Any) -> int:
        """Fire one popped entry (the run loop inlines the plain case)."""
        if fn is None:
            return self._fire_marked(time, arg)
        self._now = time
        self._events_processed += 1
        fn(arg)
        return 1

    def step(self) -> bool:
        """Fire the next event (an entire bucket counts as one step).
        Returns False when the queue is empty."""
        heap = self._heap
        while heap:
            time, _, fn, arg = heappop(heap)
            if self._fire(time, fn, arg):
                return True
        return False

    def run(
        self,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
    ) -> None:
        """Run events until the queue drains, ``until`` is reached, or
        ``max_events`` have fired in this call.

        ``until`` is inclusive: an event scheduled exactly at ``until`` fires.
        After a bounded run, ``now`` advances to ``until`` if that is later
        than the last event fired, so repeated ``run(until=...)`` calls
        advance time monotonically even through quiet periods.
        ``max_events`` may overshoot by the tail of one bucket (a bucket
        fires atomically).
        """
        if self._running:
            raise SimulationError("scheduler re-entered from within an event")
        self._running = True
        # Compaction filters the heap in place, so this reference stays
        # valid across callbacks.
        heap = self._heap
        pop = heappop
        fire_marked = self._fire_marked
        limit = _INF if until is None else until
        try:
            if max_events is None:
                # The hot loop: plain entries dispatch inline.  The entry
                # past ``until`` is popped and pushed straight back — one
                # extra push per run() call instead of a peek per event.
                while heap:
                    entry = pop(heap)
                    time, _, fn, arg = entry
                    if time > limit:
                        heappush(heap, entry)
                        break
                    if fn is None:
                        fire_marked(time, arg)
                        continue
                    self._now = time
                    self._events_processed += 1
                    fn(arg)
            else:
                fired = 0
                while heap:
                    if fired >= max_events:
                        return
                    entry = pop(heap)
                    time, _, fn, arg = entry
                    if time > limit:
                        heappush(heap, entry)
                        break
                    if fn is None:
                        fired += fire_marked(time, arg)
                        continue
                    self._now = time
                    self._events_processed += 1
                    fn(arg)
                    fired += 1
            if until is not None and until > self._now:
                self._now = until
        finally:
            self._running = False

    def run_for(self, duration: float, max_events: Optional[int] = None) -> None:
        """Run for ``duration`` simulated time units from now."""
        self.run(until=self._now + duration, max_events=max_events)
