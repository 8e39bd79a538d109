"""The engine contract: what the protocol stack is allowed to assume.

Everything above this package — processes, the network, transport,
membership, broadcast, the hierarchy, the toolkit — programs against the
small surface defined here and nothing else.  The paper's design is an
*architecture* claim, not a simulator claim: ISIS ran on real
workstations.  Accordingly the group-communication stack is a library,
and an *engine* (a :class:`Runtime` backend) is just one host for it:

:class:`~repro.runtime.sim_backend.SimRuntime`
    The deterministic discrete-event engine (a thin adapter over
    :class:`repro.sim.scheduler.Scheduler`).  Frozen determinism digests
    and the BENCH_core.json perf numbers are defined on this backend.

:class:`~repro.runtime.asyncio_backend.AsyncioRuntime`
    Wall-clock timers on an asyncio event loop with an in-memory asyncio
    message fabric — the identical membership/broadcast/hierarchy code
    serves a live hierarchical service in real time.

The contract has three parts:

* :class:`TimerService` — the clock and timer API (``now``, ``at`` /
  ``after`` / ``at_call`` / ``after_call`` returning cancellable
  :class:`TimerHandle` objects, and the ``rearm`` fast path periodic
  timers rely on).  ``Environment.scheduler`` is a ``TimerService``;
  under the sim backend it *is* the ``Scheduler`` instance, so the hot
  paths tuned in PR 1 pay nothing for the indirection.
* :class:`MessageFabric` — the hook the :class:`~repro.net.network.
  Network` binds to for deferred datagram delivery.  A fabric only needs
  ``now`` and ``at_call``; backends may layer bookkeeping (the asyncio
  fabric counts in-flight datagrams so services can drain cleanly).
* :class:`Runtime` — the bundle an :class:`~repro.proc.env.Environment`
  is built from: ``timers`` + ``fabric`` + a deterministic seeded
  ``rng`` (fork children with ``rng.fork(label)``; one seed governs the
  entire run) + run control (``spawn``, ``run``, ``run_for``,
  ``run_until``).

Rule RL009 (tools/lint) enforces the boundary: no module outside
``repro/sim/`` and ``repro/runtime/`` may import ``repro.sim``.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Callable, Optional, Protocol, runtime_checkable

from repro.sim.rand import SimRandom


@runtime_checkable
class TimerHandle(Protocol):
    """A cancellable scheduled callback.

    ``cancel`` is idempotent and safe after firing.  ``time`` is the
    engine time the callback is (or was) due.
    """

    def cancel(self) -> None:  # pragma: no cover - protocol signature
        ...

    @property
    def cancelled(self) -> bool:  # pragma: no cover - protocol signature
        ...

    @property
    def time(self) -> float:  # pragma: no cover - protocol signature
        ...


@runtime_checkable
class TimerService(Protocol):
    """Clock + timers: the engine surface processes and protocols use.

    Time is a float in seconds.  Under the sim backend it is simulated
    time starting at 0; under the asyncio backend it is elapsed wall
    time since the runtime was created (scaled by ``time_scale``).  The
    ``*_call`` variants carry one argument alongside the callback so hot
    callers avoid allocating a closure per event; ``rearm`` re-schedules
    a *fired* handle so periodic timers reuse one handle for their whole
    life (see docs/simulator.md, "Event-loop internals").
    """

    @property
    def now(self) -> float:  # pragma: no cover - protocol signature
        ...

    def at(self, time: float, fn: Callable[[], None]) -> TimerHandle:  # pragma: no cover
        ...

    def after(self, delay: float, fn: Callable[[], None]) -> TimerHandle:  # pragma: no cover
        ...

    def at_call(
        self, time: float, fn: Callable[[Any], None], arg: Any
    ) -> TimerHandle:  # pragma: no cover - protocol signature
        ...

    def after_call(
        self, delay: float, fn: Callable[[Any], None], arg: Any
    ) -> TimerHandle:  # pragma: no cover - protocol signature
        ...

    def rearm(self, handle: TimerHandle, delay: float) -> TimerHandle:  # pragma: no cover
        ...


@runtime_checkable
class MessageFabric(Protocol):
    """What the network binds to for deferred datagram delivery.

    The network computes a delivery deadline (send time + modelled
    latency) and hands the envelope to the fabric; the fabric invokes
    ``fn(arg)`` at that deadline.  The sim fabric *is* the scheduler;
    the asyncio fabric adds in-flight accounting on top of the loop.
    A fabric may also offer ``post(time, fn, arg)`` — the same call
    without a handle, which the sim scheduler makes one plain heap
    entry; the network uses it when present and ``at_call`` otherwise.
    """

    @property
    def now(self) -> float:  # pragma: no cover - protocol signature
        ...

    def at_call(
        self, time: float, fn: Callable[[Any], None], arg: Any
    ) -> TimerHandle:  # pragma: no cover - protocol signature
        ...


class Runtime(ABC):
    """One execution engine hosting a protocol stack.

    Concrete backends provide three attributes —

    ``timers``
        a :class:`TimerService` (exposed as ``Environment.scheduler``),
    ``fabric``
        a :class:`MessageFabric` the network binds to,
    ``rng``
        the run's root :class:`~repro.sim.rand.SimRandom`; subsystems
        and workloads fork labelled children (``rng.fork("network")``,
        ``rng.fork("workload/trading")``) so a single seed governs an
        entire run regardless of engine —

    plus the run-control methods below.
    """

    timers: TimerService
    fabric: MessageFabric
    rng: SimRandom

    @property
    def now(self) -> float:
        """Current engine time (seconds)."""
        return self.timers.now

    # -- convenience timer API ------------------------------------------------

    def call_at(self, time: float, fn: Callable[[], None]) -> TimerHandle:
        """Schedule ``fn`` at absolute engine time ``time``."""
        return self.timers.at(time, fn)

    def call_after(self, delay: float, fn: Callable[[], None]) -> TimerHandle:
        """Schedule ``fn`` to run ``delay`` seconds from now."""
        return self.timers.after(delay, fn)

    def periodic(self, interval: float, fn: Callable[[], None]) -> "PeriodicHandle":
        """Run ``fn`` every ``interval`` seconds until cancelled.

        Implemented over :meth:`TimerService.rearm`, so a periodic task
        owns one timer handle for its whole life on every backend.
        """
        return PeriodicHandle(self.timers, interval, fn)

    def spawn(self, fn: Callable[[], None]) -> TimerHandle:
        """Run ``fn`` as soon as the engine next dispatches events."""
        return self.timers.after(0.0, fn)

    # -- run control ----------------------------------------------------------

    @abstractmethod
    def run(
        self,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
    ) -> None:
        """Dispatch events until quiescent, or until engine time ``until``.

        ``max_events`` is a sim-only debugging bound; backends without a
        countable event stream reject it.
        """

    def run_for(self, duration: float, max_events: Optional[int] = None) -> None:
        """Run for ``duration`` seconds of engine time from now."""
        self.run(until=self.now + duration, max_events=max_events)

    def run_until(self, time: float) -> None:
        """Run until engine time ``time`` (alias of ``run(until=...)``)."""
        self.run(until=time)

    def close(self) -> None:
        """Release engine resources; the runtime is unusable afterwards."""


class PeriodicHandle:
    """A periodic task built on the engine's ``rearm`` fast path.

    Backend-agnostic: ticks re-arm one underlying timer handle instead
    of allocating a fresh one, matching the behaviour (and cost) of the
    per-process :class:`~repro.proc.process.Timer`.
    """

    __slots__ = ("_timers", "_interval", "_fn", "_cancelled", "_handle")

    def __init__(
        self, timers: TimerService, interval: float, fn: Callable[[], None]
    ) -> None:
        if interval <= 0:
            raise ValueError("interval must be positive")
        self._timers = timers
        self._interval = interval
        self._fn = fn
        self._cancelled = False
        self._handle = timers.after_call(interval, PeriodicHandle._tick, self)

    def _tick(self) -> None:
        if self._cancelled:
            return
        # Re-arm before running the callback so same-instant events the
        # callback schedules order after the next tick (sim semantics).
        self._timers.rearm(self._handle, self._interval)
        self._fn()

    def cancel(self) -> None:
        self._cancelled = True
        self._handle.cancel()

    @property
    def cancelled(self) -> bool:
        return self._cancelled

    @property
    def time(self) -> float:
        return self._handle.time
