"""Per-layer self time, measured from outside the library.

:class:`LayerTracer` wraps the entry points of each ``repro.*`` package
(the methods other layers call, and the handlers the network and the
timers call back) with a timing shim.  The shims keep one stack of open
calls: a call's *self time* is its duration minus the time of the
wrapped calls nested inside it, shims and all, and is charged to the
layer of the package the method lives in.  The shims' own bookkeeping
(counting, span records) is charged to no layer but to ``trace``.  Time
spent outside every shim during the measured window is the event core's,
charged to ``sim``.

The shims are installed on the classes *before* a cluster is built:
several layers bind a bound method once at construction (the network's
batch-delivery callback, every ``process.on`` handler, every timer), and
a later patch would miss those.  :meth:`LayerTracer.uninstall` restores
the original functions.

Spans are kept in memory, up to a cap, and written out once at the end.
Each span names its function, start, duration, parent span and, when an
argument carries one, the request or broadcast id.
"""

from __future__ import annotations

import importlib
import json
import time
from typing import Any, Callable, Dict, List, Tuple

# Layer -> (module, class, extra private method names).  Public methods are always wrapped; private ones only
# when they are callbacks other layers reach (handlers, timers).
HANDLER_PREFIXES = ("_on_", "_serve_")

ENTRY_POINTS: Dict[str, List[Tuple[str, str, Tuple[str, ...]]]] = {
    "net": [
        ("repro.net.network", "Network",
         ("_deliver_batch", "_deliver", "_flush_packed", "_deliver_packed")),
    ],
    "proc": [
        ("repro.proc.process", "Process", ()),
        ("repro.proc.process", "Timer", ("_fire",)),
        ("repro.proc.rpc", "Rpc", ()),
    ],
    "transport": [
        ("repro.transport.reliable", "ReliableTransport",
         ("_send_segment", "_retransmit_sweep", "_delayed_ack")),
    ],
    "clocks": [
        ("repro.clocks.vector", "VectorClock", ()),
        ("repro.clocks.lamport", "LamportClock", ()),
        ("repro.clocks.causal_buffer", "CausalBuffer", ()),
    ],
    "broadcast": [
        ("repro.broadcast.fbcast", "FifoEngine", ()),
        ("repro.broadcast.cbcast", "CausalEngine", ()),
        ("repro.broadcast.abcast", "TotalEngine", ()),
        ("repro.broadcast.stability", "StabilityTracker", ()),
    ],
    "failure": [
        ("repro.failure.detector", "HeartbeatDetector", ("_tick",)),
    ],
    "membership": [
        ("repro.membership.group", "GroupMember",
         ("_deliver", "_gossip_tick", "_install", "_broadcast_flush",
          "_check_flush_complete", "_maybe_start_view_change",
          "_send_data")),
        ("repro.membership.group", "GroupRuntime", ("_gossip_all",)),
    ],
    "core": [
        ("repro.core.hierarchy", "LargeGroupMember", ("_load_tick",)),
        ("repro.core.leader", "LeaderReplica", ("_check_thresholds",)),
        ("repro.core.router", "ServiceRouter", ()),
        ("repro.core.treecast", "TreecastParticipant", ()),
        ("repro.core.treecast", "TreecastRoot", ("_timeout", "_complete")),
    ],
    "toolkit": [
        ("repro.toolkit.coordinator_cohort", "_CCDispatch", ()),
        ("repro.toolkit.coordinator_cohort", "CoordinatorCohortServer",
         ("_execute",)),
        ("repro.toolkit.coordinator_cohort", "CoordinatorCohortClient",
         ("_send", "_maybe_retry")),
        ("repro.toolkit.hierarchical_service", "HierarchicalClient",
         ("_retry_fresh",)),
        ("repro.toolkit.hierarchical_service", "HierarchicalServer", ()),
    ],
    # The benchmark's own delivery digest: charged to no library layer.
    "bench": [
        ("repro.metrics.digest", "DeliveryDigest", ("_on_event",)),
    ],
}

LAYERS = ("sim",) + tuple(ENTRY_POINTS)

# Argument attributes that identify one request or broadcast.
_ID_ATTRS = ("request_id", "broadcast_id")


def _wanted(name: str, extra: Tuple[str, ...]) -> bool:
    if name.startswith("__"):
        return False
    if not name.startswith("_"):
        return True
    return name in extra or name.startswith(HANDLER_PREFIXES)


class LayerTracer:
    """Timing shims on every layer's entry points, with self-time sums."""

    def __init__(self, span_cap: int = 100_000) -> None:
        self.span_cap = span_cap
        self.names: List[str] = []          # function index -> qualname
        self.layer_of: List[int] = []       # function index -> layer index
        self.calls: List[int] = []          # function index -> call count
        self.self_time = [0.0] * len(LAYERS)
        self.shim_time = [0.0]              # the shims' own bookkeeping
        self.spans: List[Tuple[int, float, float, int, Any]] = []
        self._stack: List[float] = []       # open calls' nested time
        self._span_stack: List[int] = []    # open calls' span index (-1)
        self._patched: List[Tuple[Any, str, Any]] = []
        self._index: Dict[str, int] = {}
        self._probes: Dict[str, Callable] = {}
        self.recording = False

    # -- installation ------------------------------------------------------

    def probe(self, qualname: str, fn: Callable) -> None:
        """Call ``fn(*args, **kwargs)`` before every call of ``qualname`` (as
        ``"Class.method"``); probes count things a call reveals, such as
        a multicast queued behind a flush.  Set before :meth:`install`."""
        self._probes[qualname] = fn

    def install(self) -> None:
        for layer, entries in ENTRY_POINTS.items():
            layer_index = LAYERS.index(layer)
            for module_name, class_name, extra in entries:
                module = importlib.import_module(module_name)
                cls = getattr(module, class_name)
                for name, value in list(vars(cls).items()):
                    if not _wanted(name, extra) or not _plain_function(value):
                        continue
                    qualname = f"{class_name}.{name}"
                    self._patch(
                        cls, name, self._shim(value, qualname, layer_index)
                    )

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patched):
            setattr(owner, name, original)
        self._patched.clear()

    def _patch(self, owner: Any, name: str, value: Any) -> None:
        self._patched.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def _shim(self, fn: Callable, qualname: str, layer: int) -> Callable:
        index = len(self.names)
        self.names.append(qualname)
        self.layer_of.append(layer)
        self.calls.append(0)
        self._index[qualname] = index
        clock = time.perf_counter
        stack = self._stack
        span_stack = self._span_stack
        self_time = self.self_time
        shim_time = self.shim_time
        calls = self.calls
        spans = self.spans
        probe = self._probes.get(qualname)
        tracer = self

        def shim(*args, **kwargs):
            enter = clock()
            if probe is not None:
                probe(*args, **kwargs)
            calls[index] += 1
            span = -1
            if tracer.recording and len(spans) < tracer.span_cap:
                span = len(spans)
                spans.append(None)
            span_stack.append(span)
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - start
                nested = stack.pop()
                span_stack.pop()
                self_time[layer] += duration - nested
                if span >= 0:
                    parent = span_stack[-1] if span_stack else -1
                    spans[span] = (
                        index, start, duration, parent, _ident(args)
                    )
                # The whole shim counts as nested time of its caller; the
                # shim's own bookkeeping goes to no layer.
                spent = clock() - enter
                shim_time[0] += spent - duration
                if stack:
                    stack[-1] += spent

        shim.__wrapped__ = fn
        return shim

    # -- readout -----------------------------------------------------------

    def snapshot(self) -> Tuple[List[float], List[int]]:
        return self.self_time + self.shim_time, list(self.calls)

    def self_fracs(self, before, after, window_s: float) -> Dict[str, float]:
        """Each layer's self time between two snapshots as a share of the
        window, and the shims' own share as ``trace``; the event core
        (``sim``) gets the window time outside every shim."""
        spent = [now - then for now, then in zip(after[0], before[0])]
        out = {"trace": spent[-1] / window_s}
        for i, layer in enumerate(LAYERS):
            if layer != "sim":
                out[layer] = spent[i] / window_s
        out["sim"] = 1.0 - sum(out.values())
        return out

    def calls_between(self, before, after, qualname: str) -> int:
        index = self._index.get(qualname)
        if index is None:
            return 0
        return after[1][index] - before[1][index]

    def write_spans(self, path: str) -> None:
        recorded = [s for s in self.spans if s is not None]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "functions": [
                        [name, LAYERS[layer]]
                        for name, layer in zip(self.names, self.layer_of)
                    ],
                    "fields": ["function", "start_s", "duration_s",
                               "parent", "id"],
                    "spans": recorded,
                },
                fh,
            )


def _plain_function(value: Any) -> bool:
    return callable(value) and not isinstance(
        value, (staticmethod, classmethod, property, type)
    )


def _ident(args: tuple) -> Any:
    for arg in args[1:3]:
        for attr in _ID_ATTRS:
            value = getattr(arg, attr, None)
            if value is not None and isinstance(value, (str, int)):
                return value
    return None
