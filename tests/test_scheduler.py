"""Unit tests for the discrete-event scheduler."""

import pytest
from hypothesis import given, strategies as st

from repro.sim import Scheduler, SimulationError


def test_starts_at_time_zero():
    assert Scheduler().now == 0.0


def test_events_fire_in_time_order():
    sched = Scheduler()
    fired = []
    sched.at(2.0, lambda: fired.append("b"))
    sched.at(1.0, lambda: fired.append("a"))
    sched.at(3.0, lambda: fired.append("c"))
    sched.run()
    assert fired == ["a", "b", "c"]


def test_equal_times_fire_fifo():
    sched = Scheduler()
    fired = []
    for name in "abcde":
        sched.at(1.0, lambda n=name: fired.append(n))
    sched.run()
    assert fired == list("abcde")


def test_now_advances_to_event_time():
    sched = Scheduler()
    seen = []
    sched.at(5.0, lambda: seen.append(sched.now))
    sched.run()
    assert seen == [5.0]
    assert sched.now == 5.0


def test_after_is_relative_to_now():
    sched = Scheduler()
    seen = []
    sched.at(1.0, lambda: sched.after(2.0, lambda: seen.append(sched.now)))
    sched.run()
    assert seen == [3.0]


def test_cannot_schedule_in_the_past():
    sched = Scheduler()
    sched.at(5.0, lambda: None)
    sched.run()
    with pytest.raises(SimulationError):
        sched.at(4.0, lambda: None)


def test_negative_delay_rejected():
    with pytest.raises(SimulationError):
        Scheduler().after(-0.1, lambda: None)


def test_cancelled_event_does_not_fire():
    sched = Scheduler()
    fired = []
    handle = sched.at(1.0, lambda: fired.append("x"))
    handle.cancel()
    sched.run()
    assert fired == []
    assert handle.cancelled


def test_cancel_after_firing_is_harmless():
    sched = Scheduler()
    handle = sched.at(1.0, lambda: None)
    sched.run()
    handle.cancel()  # must not raise


def test_run_until_is_inclusive():
    sched = Scheduler()
    fired = []
    sched.at(1.0, lambda: fired.append(1))
    sched.at(2.0, lambda: fired.append(2))
    sched.at(3.0, lambda: fired.append(3))
    sched.run(until=2.0)
    assert fired == [1, 2]
    assert sched.now == 2.0


def test_run_until_advances_clock_through_quiet_period():
    sched = Scheduler()
    sched.run(until=10.0)
    assert sched.now == 10.0


def test_run_for_runs_relative_window():
    sched = Scheduler()
    fired = []
    sched.at(1.0, lambda: fired.append(1))
    sched.at(5.0, lambda: fired.append(5))
    sched.run_for(2.0)
    assert fired == [1]
    assert sched.now == 2.0
    sched.run_for(3.0)
    assert fired == [1, 5]


def test_max_events_bound():
    sched = Scheduler()
    fired = []
    for i in range(10):
        sched.at(float(i), lambda i=i: fired.append(i))
    sched.run(max_events=4)
    assert fired == [0, 1, 2, 3]
    sched.run()
    assert fired == list(range(10))


def test_events_scheduled_during_run_fire_in_same_run():
    sched = Scheduler()
    fired = []

    def chain(n):
        fired.append(n)
        if n < 5:
            sched.after(1.0, lambda: chain(n + 1))

    sched.at(0.0, lambda: chain(0))
    sched.run()
    assert fired == [0, 1, 2, 3, 4, 5]


def test_step_fires_one_event():
    sched = Scheduler()
    fired = []
    sched.at(1.0, lambda: fired.append(1))
    sched.at(2.0, lambda: fired.append(2))
    assert sched.step()
    assert fired == [1]
    assert sched.step()
    assert not sched.step()


def test_events_processed_counter():
    sched = Scheduler()
    for i in range(7):
        sched.at(float(i), lambda: None)
    sched.run()
    assert sched.events_processed == 7


def test_pending_excludes_cancelled():
    sched = Scheduler()
    sched.at(1.0, lambda: None)
    handle = sched.at(2.0, lambda: None)
    handle.cancel()
    assert sched.pending == 1


def test_pending_is_a_counter_not_a_scan():
    sched = Scheduler()
    handles = [sched.at(float(i), lambda: None) for i in range(10)]
    assert sched.pending == 10
    for h in handles[:4]:
        h.cancel()
    assert sched.pending == 6
    sched.run(max_events=3)
    assert sched.pending == 3
    sched.run()
    assert sched.pending == 0


def test_cancel_after_fire_does_not_corrupt_pending():
    sched = Scheduler()
    handle = sched.at(1.0, lambda: None)
    sched.at(2.0, lambda: None)
    sched.run(until=1.0)
    assert sched.pending == 1
    handle.cancel()  # already fired: must not decrement live count
    handle.cancel()  # idempotent
    assert sched.pending == 1
    sched.run()
    assert sched.pending == 0


def test_double_cancel_counts_once():
    sched = Scheduler()
    handle = sched.at(1.0, lambda: None)
    sched.at(2.0, lambda: None)
    handle.cancel()
    handle.cancel()
    assert sched.pending == 1
    sched.run()
    assert sched.events_processed == 1


def test_run_max_events_resumption_preserves_order_and_clock():
    sched = Scheduler()
    fired = []
    for i in range(9):
        sched.at(float(i), lambda i=i: fired.append(i))
    sched.run(max_events=4)
    assert fired == [0, 1, 2, 3]
    assert sched.now == 3.0
    sched.run(max_events=2)
    assert fired == [0, 1, 2, 3, 4, 5]
    sched.run(until=100.0)
    assert fired == list(range(9))
    assert sched.now == 100.0


def test_run_for_through_quiet_periods_accumulates_time():
    sched = Scheduler()
    fired = []
    sched.at(7.5, lambda: fired.append(sched.now))
    for _ in range(5):
        sched.run_for(2.0)
    assert sched.now == 10.0
    assert fired == [7.5]


def test_at_call_passes_argument_without_closure():
    sched = Scheduler()
    seen = []
    sched.at_call(1.0, seen.append, "x")
    sched.after_call(2.0, seen.append, "y")
    handle = sched.at_call(3.0, seen.append, "z")
    handle.cancel()
    sched.run()
    assert seen == ["x", "y"]


def test_at_call_interleaves_fifo_with_at():
    sched = Scheduler()
    fired = []
    sched.at(1.0, lambda: fired.append("a"))
    sched.at_call(1.0, fired.append, "b")
    sched.at(1.0, lambda: fired.append("c"))
    sched.run()
    assert fired == ["a", "b", "c"]


def test_rearm_reuses_event_object():
    sched = Scheduler()
    fired = []
    handle = sched.at_call(1.0, fired.append, "tick")
    sched.run()
    assert fired == ["tick"]
    assert sched.rearm(handle, 2.0) is handle
    assert handle.time == 3.0
    assert not handle.cancelled
    sched.run()
    assert fired == ["tick", "tick"]
    assert sched.now == 3.0


def test_rearm_rejects_queued_event():
    sched = Scheduler()
    handle = sched.at(1.0, lambda: None)
    with pytest.raises(SimulationError):
        sched.rearm(handle, 1.0)
    sched.run()
    with pytest.raises(SimulationError):
        sched.rearm(handle, -0.5)


def test_rearm_after_cancel_reschedules():
    sched = Scheduler()
    fired = []
    handle = sched.at_call(1.0, fired.append, 1)
    sched.run()
    handle.cancel()  # cancel after fire
    sched.rearm(handle, 1.0)  # re-arming clears the cancelled flag
    assert not handle.cancelled
    sched.run()
    assert fired == [1, 1]


def test_heap_compaction_under_mass_cancellation():
    sched = Scheduler()
    fired = []
    keep = sched.at(10.0, lambda: fired.append("keep"))
    handles = [sched.at(5.0 + i * 1e-6, lambda: fired.append("bad")) for i in range(500)]
    assert sched.heap_size == 501
    for h in handles:
        h.cancel()
    # Lazily cancelled events must have been compacted away, not left to
    # linger until the clock reaches them.
    assert sched.heap_size < 500
    assert sched.pending == 1
    sched.run()
    assert fired == ["keep"]
    assert sched.events_processed == 1
    assert keep.time == 10.0


def test_compaction_preserves_order_and_survivors():
    sched = Scheduler()
    fired = []
    survivors = []
    doomed = []
    for i in range(300):
        t = 1.0 + (i % 7) * 0.1
        h = sched.at(t, lambda i=i: fired.append(i))
        (doomed if i % 3 else survivors).append((t, i, h))
    for _t, _i, h in doomed:
        h.cancel()
    sched.run()
    expected = [i for t, i, _h in sorted(survivors, key=lambda s: (s[0], s[1]))]
    assert fired == expected


def test_compaction_during_run_via_cancelling_event():
    sched = Scheduler()
    fired = []
    handles = [sched.at(5.0 + i * 1e-6, lambda: fired.append("bad")) for i in range(300)]

    def cancel_all():
        for h in handles:
            h.cancel()

    sched.at(1.0, cancel_all)
    sched.at(6.0, lambda: fired.append("end"))
    sched.run()
    assert fired == ["end"]


def test_cancelled_periodic_stream_does_not_leak_heap():
    sched = Scheduler()
    # Simulates heartbeat-timer churn: schedule+cancel in a rolling window.
    live = []
    count = [0]

    def tick():
        count[0] += 1
        if count[0] < 2000:
            live.append(sched.after(1.0, tick))
            handle = sched.after(5.0, lambda: None)
            handle.cancel()

    sched.after(1.0, tick)
    sched.run()
    assert count[0] == 2000
    # The heap must stay bounded, not accumulate 2000 cancelled events.
    assert sched.heap_size <= 200


def test_reentrant_run_rejected():
    sched = Scheduler()
    errors = []

    def reenter():
        try:
            sched.run()
        except SimulationError as exc:
            errors.append(exc)

    sched.at(1.0, reenter)
    sched.run()
    assert len(errors) == 1


@given(st.lists(st.floats(min_value=0, max_value=1e6), min_size=1, max_size=200))
def test_property_fire_order_is_sorted(times):
    sched = Scheduler()
    fired = []
    for t in times:
        sched.at(t, lambda t=t: fired.append(t))
    sched.run()
    assert fired == sorted(times)
    assert sched.events_processed == len(times)


@given(
    st.lists(
        st.tuples(st.floats(min_value=0, max_value=100), st.booleans()),
        min_size=1,
        max_size=100,
    )
)
def test_property_cancellation_removes_exactly_cancelled(events):
    sched = Scheduler()
    fired = []
    expected = []
    for index, (t, keep) in enumerate(events):
        handle = sched.at(t, lambda i=index: fired.append(i))
        if keep:
            expected.append((t, index))
        else:
            handle.cancel()
    sched.run()
    assert fired == [i for _, i in sorted(expected, key=lambda p: (p[0], p[1]))]


# -- handle-free posts and tie buckets ----------------------------------------


def test_post_fires_in_fifo_order_with_handles():
    sched = Scheduler()
    fired = []
    sched.post(1.0, fired.append, "a")
    sched.at_call(1.0, fired.append, "b")
    sched.post(0.5, fired.append, "c")
    sched.post(1.0, fired.append, "d")
    sched.run()
    assert fired == ["c", "a", "b", "d"]
    assert sched.events_processed == 4
    assert sched.pending == 0


def test_post_in_the_past_rejected():
    sched = Scheduler()
    sched.post(1.0, lambda _arg: None, None)
    sched.run()
    with pytest.raises(SimulationError):
        sched.post(0.5, lambda _arg: None, None)


def test_tie_interrupted_by_at_call_at_same_time():
    """A same-time at_call seals the open bucket: later posts on the tie
    open a new plain entry and bucket after it, never join the old one."""
    sched = Scheduler()
    fired = []
    other = []
    add = fired.append  # ties match on the callable's identity
    sched.post(1.0, add, "a")
    sched.post(1.0, add, "b")  # opens the bucket
    sched.post(1.0, add, "c")  # joins it
    sched.at_call(1.0, add, "x")  # seals it
    sched.post(1.0, add, "d")  # a fresh plain entry
    sched.post(1.0, add, "e")  # a fresh bucket
    sched.post(1.0, other.append, "f")  # another fn: its own entry
    assert sched.pending == 7
    # a, bucket(b, c), x, d, bucket(e), f
    assert sched.heap_size == 6
    assert sched.alloc_stats["fresh_arg_lists"] == 2
    sched.run()
    assert fired == ["a", "b", "c", "x", "d", "e"]
    assert other == ["f"]
    assert sched.events_processed == 7


def test_same_time_post_from_inside_draining_bucket():
    """A post made while a bucket drains lands after everything already
    queued at that time (here the at_call scheduled just before it), not
    in the bucket being drained."""
    sched = Scheduler()
    fired = []
    seen = []

    def fn(arg):
        fired.append(arg)
        seen.append((sched.events_processed, sched.pending))
        if arg == "b":
            sched.at_call(sched.now, fired.append, "x")
            sched.post(sched.now, fn, "b2")

    for arg in ("a", "b", "c"):
        sched.post(1.0, fn, arg)
    sched.run()
    assert fired == ["a", "b", "c", "x", "b2"]
    # The bucket (b, c) is counted as a whole when it starts draining.
    assert seen == [(1, 2), (3, 0), (3, 2), (5, 0)]
    assert sched.events_processed == 5


def test_bounded_run_stops_before_later_posts():
    sched = Scheduler()
    fired = []
    for t in (1.0, 1.0, 2.0, 2.0, 3.0):
        sched.post(t, fired.append, t)
    sched.run(until=2.0)
    assert fired == [1.0, 1.0, 2.0, 2.0]
    assert sched.now == 2.0
    assert sched.pending == 1
    sched.run(max_events=1)
    assert fired[-1] == 3.0
    assert sched.pending == 0


# Reference model for the property test below: every event is a record
# in a plain list, the next one found by a linear scan for the least
# (time, seq).  No heap, no buckets, no pooling.


class _RefHandle:
    def __init__(self, queue, time, fn, arg):
        self.queue = queue
        self.time = time
        self.seq = queue.next_seq()
        self.fn = fn
        self.arg = arg

    def cancel(self):
        if self in self.queue.items:
            self.queue.items.remove(self)


class _RefQueue:
    def __init__(self):
        self.now = 0.0
        self.seq = 0
        self.items = []
        self.events_processed = 0

    @property
    def pending(self):
        return len(self.items)

    def next_seq(self):
        self.seq += 1
        return self.seq

    def _push(self, time, fn, arg):
        handle = _RefHandle(self, time, fn, arg)
        self.items.append(handle)
        return handle

    def post(self, time, fn, arg):
        self._push(time, fn, arg)

    def at(self, time, fn):
        return self._push(time, lambda _arg: fn(), None)

    def at_call(self, time, fn, arg):
        return self._push(time, fn, arg)

    at_call_once = at_call

    def rearm(self, handle, delay):
        handle.time = self.now + delay
        handle.seq = self.next_seq()
        self.items.append(handle)
        return handle

    def run(self, until=None):
        while self.items:
            head = min(self.items, key=lambda h: (h.time, h.seq))
            if until is not None and head.time > until:
                break
            self.items.remove(head)
            self.now = head.time
            self.events_processed += 1
            head.fn(head.arg)
        if until is not None and until > self.now:
            self.now = until


_EVENT_LIMIT = 60
_OP = st.tuples(
    st.sampled_from(("post", "post", "at", "at_call", "once", "cancel", "rearm")),
    st.sampled_from((1.0, 2.0)),  # top-level base time: forces collisions
    st.integers(0, 1),  # which of two callbacks (ties match on identity)
    st.sampled_from((0.0, 0.5)),  # offset from the base (or from now)
    st.integers(0, 50),  # cancel target
)


def _drive(sched, program):
    """Run ``program`` on ``sched``; return everything observable."""
    top, follow_ups = program
    log = []
    handles = {}
    live = []  # cancellable, unfired events, in creation order
    once = set()
    rearmed = set()
    created = [0]

    def fire(idx):
        log.append((idx, sched.now))
        if idx in live:
            live.remove(idx)
        for op in follow_ups[idx % len(follow_ups)]:
            apply(op, sched.now, idx)

    def fire_other(idx):
        fire(idx)

    fns = (fire, fire_other)

    def apply(op, base, current):
        kind, _slot, which, offset, pick = op
        if kind == "cancel":
            if live:
                idx = live.pop(pick % len(live))
                handles[idx].cancel()
            return
        if kind == "rearm":
            handle = handles.get(current)
            if handle is not None and current not in once | rearmed:
                rearmed.add(current)
                sched.rearm(handle, offset)
                live.append(current)
            return
        if created[0] >= _EVENT_LIMIT:
            return
        idx = created[0]
        created[0] += 1
        time = base + offset
        fn = fns[which]
        if kind == "post":
            sched.post(time, fn, idx)
            return
        if kind == "at":
            handles[idx] = sched.at(time, lambda fn=fn, idx=idx: fn(idx))
        elif kind == "at_call":
            handles[idx] = sched.at_call(time, fn, idx)
        else:
            handles[idx] = sched.at_call_once(time, fn, idx)
            once.add(idx)
        live.append(idx)

    for op in top:
        apply(op, op[1], None)
    counters = []
    for until in (0.5, 1.0, 1.5, 2.0, 2.5, 3.0, None):
        sched.run(until=until)
        counters.append((sched.now, sched.events_processed, sched.pending))
    return log, counters


@given(
    st.tuples(
        st.lists(_OP, min_size=1, max_size=30),
        st.lists(st.lists(_OP, max_size=3), min_size=1, max_size=6),
    )
)
def test_property_posts_and_handles_match_reference_queue(program):
    """Random interleavings of post, at, at_call, at_call_once, cancel and
    rearm on colliding timestamps — issued up front and from inside
    callbacks, bucket drains included — fire in the reference order at
    the same ``now``, and every bounded run ends with the same
    events_processed, pending and now."""
    assert _drive(Scheduler(), program) == _drive(_RefQueue(), program)
