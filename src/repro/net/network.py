"""The datagram network connecting all processes.

The network models an unreliable LAN over whichever engine hosts the
run: under :class:`~repro.runtime.sim_backend.SimRuntime` latency is
simulated time, under :class:`~repro.runtime.asyncio_backend.
AsyncioRuntime` it is a real wall-clock delay on the asyncio fabric.

Semantics:

* Unreliable, unordered datagram service (reliability and FIFO are built on
  top by :mod:`repro.transport`); optional drop and duplicate injection.
* Per-destination latency drawn from a :class:`~repro.net.latency.
  LatencyModel`.
* Partitions via :class:`~repro.net.partition.PartitionManager`.
* Two multicast modes, the subject of experiment E9:

  - *point-to-point* (default): a multicast to k destinations costs k wire
    packets, as in ISIS's portable implementation;
  - *hardware multicast* ("an effective hardware multicast facility, such
    as Ethernet", paper §2): one wire packet regardless of k.

  Logical message counts (one per destination) are identical in both modes;
  only wire-packet counts differ.  Both go through the one datagram path
  behind :meth:`Network.send`, so a multicast to k destinations is
  exactly k unicasts apart from the wire-packet count.
* Each datagram in flight is one handle-free ``post`` on the sim
  scheduler: one plain heap entry from send to delivery.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, Optional, Sequence

from repro.net.latency import FixedLatency, LatencyModel
from repro.net.message import (
    _META_CACHE,
    Address,
    Envelope,
    HEADER_BYTES,
    payload_meta,
)
from repro.net.packer import Packer
from repro.net.partition import PartitionManager
from repro.net.stats import NetworkStats
from repro.runtime.api import MessageFabric, SimRandom, TimerService

DeliverFn = Callable[[Envelope], None]


class Network:
    """Datagram network over an engine's message fabric.

    The network is engine-agnostic: it reads the clock and defers
    deliveries through a :class:`~repro.runtime.api.MessageFabric`
    (by default the engine's own :class:`~repro.runtime.api.
    TimerService`, which under the sim backend is the Scheduler itself,
    posting each delivery as one plain heap entry).  The asyncio backend
    binds its in-flight-counting fabric here instead.
    """

    def __init__(
        self,
        timers: TimerService,
        rng: SimRandom,
        latency: Optional[LatencyModel] = None,
        drop_probability: float = 0.0,
        duplicate_probability: float = 0.0,
        hardware_multicast: bool = False,
        fabric: Optional[MessageFabric] = None,
        pack_window: float = 0.0,
    ) -> None:
        if not 0 <= drop_probability < 1:
            raise ValueError("drop_probability must be in [0, 1)")
        if not 0 <= duplicate_probability < 1:
            raise ValueError("duplicate_probability must be in [0, 1)")
        if pack_window < 0:
            raise ValueError("pack_window must be nonnegative")
        self._fabric = fabric if fabric is not None else timers
        self._rng = rng
        self._latency = latency if latency is not None else FixedLatency(0.001)
        # Exact-FixedLatency fast path: the constant is read directly in
        # the send loop, skipping a sample() call per datagram.  Exact
        # type match, so subclasses overriding sample() are untouched.
        self._fixed_delay = (
            self._latency.delay if type(self._latency) is FixedLatency else None
        )
        self.drop_probability = drop_probability
        self.duplicate_probability = duplicate_probability
        self.hardware_multicast = hardware_multicast
        self._endpoints: Dict[Address, DeliverFn] = {}
        self.partitions = PartitionManager()
        self.stats = NetworkStats()
        # Wire-level packing (docs/comms.md): with a positive window,
        # unicast datagrams are held briefly and coalesced per
        # destination into one wire packet with a shared header.  Window
        # 0 (the default) keeps the classic one-datagram-one-packet path
        # below, byte-identical to the frozen baselines.
        self.pack_window = pack_window
        self._packer: Optional[Packer] = (
            Packer(pack_window, self._fabric, self._flush_packed)
            if pack_window > 0
            else None
        )
        self._tap_entries: list = []
        self._taps: list = []
        self._send_taps: list = []
        self._deliver_taps: list = []
        self._drop_taps: list = []
        # Causal tracing sink (repro.trace.api.TraceSink) or None when
        # tracing is off.  Installed by repro.trace.api.attach(); every
        # hook below is guarded by one attribute load + None check, which
        # is the entire disabled-path cost.
        self.trace = None
        # Deliveries go out through the fabric's handle-free ``post``
        # when it has one (the sim scheduler: one plain heap entry per
        # datagram, tie buckets on equal timestamps); the asyncio and
        # socket fabrics fall back to ``at_call``.  The delivery callback
        # is bound ONCE here: the scheduler matches ties by identity
        # (``fn is fn``), and a fresh ``self._deliver`` bound-method
        # object per send would never tie.
        self._post = getattr(self._fabric, "post", self._fabric.at_call)
        self._deliver_fn = self._deliver
        # Envelope free list: a delivered (or dropped-in-transmit)
        # envelope is recycled for the next datagram, so the steady-state
        # send path allocates no envelope objects.  Anything that may
        # legally retain an envelope past the scheduling point (the
        # packer holds them until flush) simply never recycles it.
        self._env_pool: list = []
        self._fresh_envelopes = 0

    @property
    def alloc_stats(self) -> Dict[str, int]:
        """Envelope free-list telemetry, mirroring the scheduler's
        ``alloc_stats``: ``fresh_envelopes`` only grows when the pool is
        empty, so a flat steady-state delta means zero allocation."""
        return {
            "fresh_envelopes": self._fresh_envelopes,
            "pooled_envelopes": len(self._env_pool),
        }

    @property
    def packer(self) -> Optional[Packer]:
        """The packing queue when ``pack_window > 0``, else ``None``."""
        return self._packer

    # -- observation -----------------------------------------------------------

    def add_tap(
        self, fn: Callable[[str, "Envelope"], None], events=None
    ) -> None:
        """Register ``fn(event, envelope)`` called on every ``"send"``,
        ``"deliver"`` and ``"drop"`` — a wire-level observation point for
        debugging and tracing.  ``events`` narrows the subscription to an
        iterable of kinds (e.g. ``("deliver",)``), sparing the hot paths
        a call per unwanted event.  Taps must not mutate the envelope,
        and must not retain it: the ``"send"`` and ``"deliver"`` events
        for a datagram share one envelope object (built once per
        datagram), so ``deliver_time`` is filled in after the send tap
        fires — and the envelope is *recycled* onto a free list the
        moment its delivery (or drop) completes, after which it will
        carry a different datagram.  Copy out whatever fields you need."""
        self._tap_entries.append(
            (fn, None if events is None else frozenset(events))
        )
        self._rebuild_taps()

    def remove_tap(self, fn) -> None:
        self._tap_entries = [e for e in self._tap_entries if e[0] is not fn]
        self._rebuild_taps()

    def _rebuild_taps(self) -> None:
        # Per-kind dispatch lists, consulted directly by the hot paths
        # (one truthiness check each when no taps are attached).
        entries = self._tap_entries
        self._taps = [fn for fn, _ in entries]
        self._send_taps = [
            fn for fn, ev in entries if ev is None or "send" in ev
        ]
        self._deliver_taps = [
            fn for fn, ev in entries if ev is None or "deliver" in ev
        ]
        self._drop_taps = [
            fn for fn, ev in entries if ev is None or "drop" in ev
        ]

    def _tap(self, event: str, envelope: "Envelope") -> None:
        for fn in self._taps:
            fn(event, envelope)

    # -- endpoint management -------------------------------------------------

    def register(self, address: Address, deliver: DeliverFn) -> None:
        """Attach an endpoint.  Re-registering an address replaces it."""
        self._endpoints[address] = deliver

    def unregister(self, address: Address) -> None:
        """Detach an endpoint; in-flight datagrams to it are dropped."""
        self._endpoints.pop(address, None)

    def is_registered(self, address: Address) -> bool:
        return address in self._endpoints

    @property
    def endpoints(self) -> Iterable[Address]:
        return self._endpoints.keys()

    # -- sending -------------------------------------------------------------

    def send(self, src: Address, dst: Address, payload: Any) -> bool:
        """Send one datagram; counts one logical message + one wire packet.
        Returns True if the datagram reached the latency stage, i.e. was
        actually put in flight rather than partitioned or lost."""
        return self._transmit(src, (dst,), payload, False)

    def multicast(self, src: Address, dsts: Iterable[Address], payload: Any) -> None:
        """Send the same payload to several destinations.

        Counts one logical message per destination.  Wire packets: one per
        destination point-to-point, or one total under hardware multicast —
        counted only if at least one transmit reached the latency stage
        (a multicast with every destination partitioned away never makes
        it onto the wire).
        """
        dst_list = list(dsts)
        if dst_list:
            self._transmit(src, dst_list, payload, self.hardware_multicast)

    def _transmit(
        self, src: Address, dsts: Sequence[Address], payload: Any, shared: bool
    ) -> bool:
        """The one datagram path behind :meth:`send` and :meth:`multicast`.

        Accounting runs once for all ``k`` destinations (``NetworkStats.
        record_send`` inlined — keep the two in lockstep).  Then, per
        destination and in this order: envelope, send taps, trace,
        partition, loss, latency draw, post, duplicate.  ``shared``
        (hardware multicast) puts a single wire packet on the wire for the
        whole call, counted only if some copy reached the latency stage,
        and bypasses the packer.  Returns whether any copy reached the
        latency stage.
        """
        try:
            category, size = _META_CACHE[payload.__class__]
            if category is None:
                category = payload.category
            if size is None:
                size = int(payload.size_bytes)
        except KeyError:
            category, size = payload_meta(payload)  # cold: registers class
        total = size + HEADER_BYTES
        k = len(dsts)
        stats = self.stats
        stats.messages += k
        stats.bytes += k * total
        # Counter bumps use try/except rather than dict.get: after the
        # first datagram of a (category, sender) the key always exists,
        # so the exception path never runs in steady state and the
        # bound-method call per counter is saved.
        by_category = stats.by_category
        try:
            by_category[category] += k
        except KeyError:
            by_category[category] = k
        bytes_by_category = stats.bytes_by_category
        try:
            bytes_by_category[category] += k * total
        except KeyError:
            bytes_by_category[category] = k * total
        sent_by = stats.sent_by
        try:
            sent_by[src] += k
        except KeyError:
            sent_by[src] = k
        if shared:
            packer = None
        else:
            packer = self._packer
            if packer is None:
                stats.wire_packets += k
        now = self._fabric.now
        pool = self._env_pool
        taps = self._send_taps
        trace = self.trace
        partitions = self.partitions
        rng = self._rng
        fixed_delay = self._fixed_delay
        post = self._post
        deliver = self._deliver_fn
        reached = False
        for dst in dsts:
            if pool:
                envelope = pool.pop()
                envelope.src = src
                envelope.dst = dst
                envelope.payload = payload
                envelope.send_time = now
                envelope.deliver_time = 0.0
                envelope.size_bytes = size
            else:
                self._fresh_envelopes += 1
                envelope = Envelope(src, dst, payload, now, 0.0, size)
            if taps:
                for fn in taps:
                    fn("send", envelope)
            if trace is not None:
                trace.on_send(envelope, category)
            # The probability pre-checks are stream-neutral:
            # SimRandom.chance draws nothing when p <= 0, so skipping the
            # call leaves the RNG stream byte-identical on lossless runs.
            if (partitions.active and not partitions.reachable(src, dst)) or (
                self.drop_probability and rng.chance(self.drop_probability)
            ):
                self._drop(envelope)
                self._recycle(envelope)
                continue
            reached = True
            if packer is not None:
                # Packing on: hold the datagram for the pack window; wire
                # accounting and the (single, shared) latency draw happen
                # at flush.  Partition/loss above stay per logical
                # message, so delivery semantics are untouched.  The
                # packer retains the envelope until flush, so nothing is
                # recycled here.
                packer.enqueue(envelope)
                if self.duplicate_probability and rng.chance(
                    self.duplicate_probability
                ):
                    self._fresh_envelopes += 1
                    duplicate = Envelope(src, dst, payload, now, 0.0, size)
                    duplicate.trace = envelope.trace
                    packer.enqueue(duplicate)
                continue
            if fixed_delay is None:
                deliver_time = now + self._latency.sample(rng, src, dst, total)
            else:
                deliver_time = now + fixed_delay
            envelope.deliver_time = deliver_time
            post(deliver_time, deliver, envelope)
            if self.duplicate_probability and rng.chance(
                self.duplicate_probability
            ):
                # The duplicate gets its own latency draw and envelope
                # (the two copies are independently in flight).
                delay = self._latency.sample(rng, src, dst, total)
                self._fresh_envelopes += 1
                duplicate = Envelope(src, dst, payload, now, now + delay, size)
                # Both copies stem from the same logical send span.
                duplicate.trace = envelope.trace
                post(duplicate.deliver_time, deliver, duplicate)
        if shared and reached:
            stats.wire_packets += 1
        return reached

    def _flush_packed(
        self, src: Address, dst: Address, envelopes: list
    ) -> None:
        """Put one coalesced wire packet in flight: a shared header, one
        latency draw over the combined frame, one scheduled delivery
        event that fans back out into per-datagram deliveries."""
        stats = self.stats
        stats.record_wire(1)
        count = len(envelopes)
        total = HEADER_BYTES
        for envelope in envelopes:
            total += envelope.size_bytes
        if count > 1:
            stats.record_packed(count, (count - 1) * HEADER_BYTES)
        delay = self._latency.sample(self._rng, src, dst, total)
        deliver_time = self._fabric.now + delay
        for envelope in envelopes:
            envelope.deliver_time = deliver_time
        if count == 1:
            self._post(deliver_time, self._deliver_fn, envelopes[0])
        else:
            self._post(deliver_time, self._deliver_packed, envelopes)

    def _deliver_packed(self, envelopes: list) -> None:
        # Unpack: each coalesced datagram keeps its own envelope (and its
        # own trace span), so upper layers and the tracer see exactly the
        # per-logical-message events they would without packing.
        deliver = self._deliver
        for envelope in envelopes:
            deliver(envelope)

    def _drop(self, envelope: Envelope) -> None:
        self.stats.record_drop()
        taps = self._drop_taps
        if taps:
            for fn in taps:
                fn("drop", envelope)
        trace = self.trace
        if trace is not None:
            trace.on_drop(envelope)

    def _recycle(self, envelope: Envelope) -> None:
        """Return a dead envelope to the free list.  Clears the payload
        and trace references so the pool never pins application objects
        or spans (the tracer retains spans, never envelopes)."""
        envelope.payload = None
        envelope.trace = None
        self._env_pool.append(envelope)

    def deliver_inbound(self, envelope: Envelope) -> None:
        """Deliver a datagram that arrived from a remote fabric (the
        socket backend's receive path).  Runs the normal local delivery
        pipeline — stats, taps, trace, endpoint dispatch, drop on unknown
        destination — on an envelope decoded from the wire, which then
        joins this network's free list like any locally built one."""
        self._deliver(envelope)

    def _deliver(self, envelope: Envelope) -> None:
        """Hand one datagram to its endpoint: stats, deliver taps, trace
        span, dispatch — then recycle the envelope.  The per-datagram
        delivery callback on every engine."""
        dst = envelope.dst
        try:
            deliver = self._endpoints[dst]
        except KeyError:
            # Destination crashed or never existed; the datagram vanishes,
            # exactly as on a real LAN.
            self._drop(envelope)
        else:
            # record_delivery, inlined (try/except: the key exists after
            # the destination's first delivery).
            received_by = self.stats.received_by
            try:
                received_by[dst] += 1
            except KeyError:
                received_by[dst] = 1
            taps = self._deliver_taps
            if taps:
                for fn in taps:
                    fn("deliver", envelope)
            trace = self.trace
            if trace is None:
                deliver(envelope)
            else:
                token = trace.on_deliver_begin(envelope)
                try:
                    deliver(envelope)
                finally:
                    trace.on_deliver_end(token)
        envelope.payload = None
        envelope.trace = None
        self._env_pool.append(envelope)
