"""The benchmark's workloads: build, load, run, check, measure.

Every workload builds its cluster through the library's public builders
(``build_leader_group``, ``build_large_group``,
``attach_hierarchical_service``, ``HierarchicalClient``/``ServiceRouter``,
``attach_treecast``/``TreecastRoot``) on the default serial simulator,
then drives it with an open-loop Poisson schedule generated from the
workload seed alone.  The timed window runs in steps of simulated time,
cut into chunks of about a tenth of a wall-second; each chunk's wall and
CPU time is normalised by a fixed probe loop timed around it, and
throughput and CPU cost come from the sum of the normalised chunks, so a
slower stretch of the shared host moves the result little.  Set-up time
is normalised the same way.

A workload run returns a :class:`Outcome`: the end-to-end metrics, the
per-layer metrics when traced, the correctness errors (empty when every
check passed) and a determinism fingerprint (delivery digest, event and
message counts) that repeats exactly for one seed.
"""

from __future__ import annotations

import gc
import heapq
import random
import resource
import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core import (
    LargeGroupParams,
    ServiceRouter,
    TreecastRoot,
    attach_treecast,
    build_large_group,
    build_leader_group,
)
from repro.failure.detector import HeartbeatDetector
from repro.membership import GroupNode
from repro.membership.events import CAUSAL, FIFO, TOTAL
from repro.metrics.digest import DeliveryDigest
from repro.metrics.sanitizer import (
    VirtualSynchronySanitizer,
    VirtualSynchronyViolation,
)
from repro.net import LanLatency
from repro.proc import Environment
from repro.toolkit import HierarchicalClient, attach_hierarchical_service

from layers import LAYERS, LayerTracer

HEARTBEAT_S = 0.2
SUSPECT_AFTER_S = 1.0
GOSSIP_S = 0.5
CC_CATEGORIES = ("cc-request", "cc-reply", "cc-result")
NET_CATEGORIES = (
    "heartbeat", "cc-request", "cc-result", "cc-reply", "group-data",
    "group-setorder", "group-stability", "transport-ack", "treecast-commit",
    "rpc-request",
)
ORDERINGS = (FIFO, CAUSAL, TOTAL)
SETUPS = 3  # set-up is repeated and its median reported
STEP_S = 0.005  # simulated seconds per step of a timed stretch
CHUNK_S = 0.1  # wall seconds between probes in a timed stretch


def echo(payload: Any, client: str) -> Any:
    return payload


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile of ``values`` (0 < q <= 100)."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def open_loop(scheduler, rng: random.Random, start: float, end: float,
              rate: float, draw: Callable[[int], Any],
              fire: Callable[[int, float, Any], None]) -> int:
    """Open-loop Poisson arrivals on [start, end): arrival ``k`` is due at
    its time with ``draw(k)`` (drawn from ``rng`` right after the time),
    and ``fire(k, due, drawn)`` runs then.  The plan is fixed up front
    from the seed; the generator keeps one pending event, re-arming after
    each arrival.  Returns the number of arrivals."""
    plan = []
    t = start
    while True:
        t += rng.expovariate(rate)
        if t >= end:
            break
        plan.append((t, draw(len(plan))))

    def arrive(k: int) -> None:
        fire(k, *plan[k])
        if k + 1 < len(plan):
            scheduler.at(plan[k + 1][0], lambda: arrive(k + 1))

    if plan:
        scheduler.at(plan[0][0], lambda: arrive(0))
    return len(plan)


# The host probe: fixed interpreter work shaped like the simulator's (a
# heap of timed callbacks, dict counters, small tuples), timed between
# the chunks of every timed stretch (Stopwatch).  It takes about
# PROBE_REFERENCE_S on the 2-vCPU x86-64 host the benchmark was built on
# (CPython 3.11); costs are reported at that reference speed.
PROBE_REFERENCE_S = 0.01
PROBE_ROUNDS = 7000


def host_probe() -> Tuple[float, float]:
    """(wall, CPU) seconds the fixed probe work takes right now."""
    w0, c0 = time.perf_counter(), time.process_time()
    heap: List[Tuple[float, int, Callable]] = []
    counts: Dict[int, int] = {}

    def tick(k: int) -> None:
        counts[k % 251] = counts.get(k % 251, 0) + 1

    for k in range(PROBE_ROUNDS):
        heapq.heappush(heap, ((k * 7919) % 1013 / 1013.0, k, tick))
        if len(heap) > 64:
            _, arg, fn = heapq.heappop(heap)
            fn(arg)
    while heap:
        _, arg, fn = heapq.heappop(heap)
        fn(arg)
    return time.perf_counter() - w0, time.process_time() - c0


class Stopwatch:
    """Wall and CPU time of a stretch of work at the probe's reference speed.

    The work calls :meth:`tick` often; once CHUNK_S wall seconds have
    passed, that closes a chunk and times the host probe.  Each chunk's
    time is divided by the probe time around it (the mean of the probes
    before and after), which takes out what the host's other tenants do
    to both, and scaled by PROBE_REFERENCE_S; every chunk counts."""

    def __init__(self) -> None:
        self.wall: List[float] = []
        self.cpu: List[float] = []
        self.probes = [host_probe()]
        self._w0, self._c0 = time.perf_counter(), time.process_time()

    def tick(self, last: bool = False) -> None:
        now = time.perf_counter()
        if last or now - self._w0 >= CHUNK_S:
            self.wall.append(now - self._w0)
            self.cpu.append(time.process_time() - self._c0)
            self.probes.append(host_probe())
            self._w0, self._c0 = time.perf_counter(), time.process_time()

    @property
    def wall_total(self) -> float:
        return sum(self.wall)

    def normalised(self, clock: int) -> float:
        """Seconds at reference speed; ``clock`` 0 reads wall time, 1 CPU."""
        times = self.wall if clock == 0 else self.cpu
        return sum(
            spent / ((self.probes[i][clock] + self.probes[i + 1][clock]) / 2)
            for i, spent in enumerate(times)
        ) * PROBE_REFERENCE_S


def run_timed(env: Environment, seconds: float, watch: Stopwatch) -> int:
    """``env.run_for(seconds)`` in steps of STEP_S, ticking ``watch``
    after each, so that a burst of work gets as many probes as a quiet
    stretch; returns the most events pending after any step."""
    start = env.now
    steps = max(1, round(seconds / STEP_S))
    peak = env.scheduler.pending
    for i in range(1, steps + 1):
        env.run(until=start + seconds if i == steps else start + STEP_S * i)
        peak = max(peak, env.scheduler.pending)
        watch.tick()
    return peak


# -- the cluster -------------------------------------------------------------


class Service:
    """A settled hierarchical service: leaders, workers, suspicion log."""

    def __init__(self, seed: int, workers: int, params: LargeGroupParams,
                 join_stagger: float, settle: float, watch: Stopwatch) -> None:
        self.params = params
        self.env = env = Environment(seed=seed, latency=LanLatency())
        self.suspicions: List[Tuple[float, str, bool]] = []
        self.leaders = build_leader_group(
            env, "svc", params, detector_factory=self.detector,
            gossip_interval=GOSSIP_S,
        )
        self.contacts = tuple(r.node.address for r in self.leaders)
        self.members = []
        self.servers = []
        # Every (leaf group member, coordinator-cohort server) a worker
        # was placed with, in order: both are replaced on a leaf change,
        # and the library's counters live on them.
        self.placements: List[Tuple[Any, Any]] = []
        self.member_listeners: List[Callable[[List], None]] = []
        self.add_workers(workers, "svc-w", join_stagger)
        run_timed(env, settle, watch)
        # Joins and any split they cause finish within the settle time
        # for the shapes used here; keep going (in simulated time, so
        # still deterministic) if a slow flush left one unplaced.
        for _ in range(20):
            if all(m.is_member for m in self.members):
                break
            run_timed(env, 1.0, watch)
        if not all(m.is_member for m in self.members):
            raise RuntimeError("service did not settle: workers unplaced")

    def detector(self, node) -> HeartbeatDetector:
        detector = HeartbeatDetector(
            node, interval=HEARTBEAT_S, suspect_after=SUSPECT_AFTER_S
        )
        env = node.env

        def suspected(address: str) -> None:
            alive = env.has_process(address) and env.process(address).alive
            self.suspicions.append((env.now, address, alive))

        detector.add_listener(suspected)
        return detector

    def add_workers(self, count: int, prefix: str, join_stagger: float) -> List:
        new = build_large_group(
            self.env, "svc", count, self.params, self.contacts,
            prefix=prefix, join_stagger=join_stagger,
            detector_factory=self.detector, gossip_interval=GOSSIP_S,
        )
        servers = attach_hierarchical_service(new, echo)
        for member, server in zip(new, servers):
            # Registered after the server's own listener, which makes the
            # new leaf's coordinator-cohort server first.
            member.add_leaf_change_listener(
                lambda leaf, server=server:
                    self.placements.append((leaf, server._current))
            )
        self.servers += servers
        self.members += new
        for listener in self.member_listeners:
            listener(new)
        return new

    def counters(self) -> Dict[str, int]:
        """Counters the library keeps, summed over every leaf incarnation
        and the leader group."""
        return {
            "view_changes": sum(leaf.view_changes for leaf, _ in self.placements)
            + sum(r.member.view_changes for r in self.leaders),
            "takeovers": sum(server.takeovers for _, server in self.placements),
        }

    @property
    def manager(self):
        return next(r for r in self.leaders if r.is_manager)

    def leaf_sizes(self) -> Dict[str, int]:
        sizes = {}
        for member in self.members:
            if member.is_member:
                sizes[member.leaf_member.group] = member.leaf_size
        return sizes


# -- load ----------------------------------------------------------------------


@dataclass
class Op:
    """One operation of the schedule and what became of it."""

    due: float
    done: Optional[float] = None
    failed: bool = False
    group: str = ""
    client: int = -1


class Requests:
    """Open-loop request load from client processes to the service."""

    def __init__(self, service: Service, clients: int, seed: int,
                 timeout: float) -> None:
        env = service.env
        self.service = service
        self.clients = []
        self.routers = []
        for i in range(clients):
            node = GroupNode(env, f"client-{i}", gossip_interval=None)
            router = ServiceRouter(
                node, "svc", rpc=node.runtime.rpc,
                leader_contacts=service.contacts,
            )
            self.routers.append(router)
            self.clients.append(
                HierarchicalClient(node, router, timeout=timeout)
            )
        self.rng = random.Random(seed)
        self.ops: List[Op] = []
        self.bad_replies = 0
        self.double_replies = 0

    def warm(self, watch: Stopwatch) -> None:
        """Resolve every client's leaf before timing (untimed)."""
        answered = []
        for client in self.clients:
            client.request("warm-up", answered.append)
        run_timed(self.service.env, 1.0, watch)
        if len(answered) != len(self.clients):
            raise RuntimeError("warm-up requests went unanswered")

    def schedule(self, start: float, end: float, rate: float) -> None:
        """Poisson arrivals on [start, end); each picks a client."""
        rng = self.rng
        self.planned = open_loop(
            self.service.env.scheduler, rng, start, end, rate,
            lambda k: rng.randrange(len(self.clients)),
            lambda k, due, client_index: self.issue(due, client_index),
        )

    def issue(self, due: float, client_index: int) -> None:
        client = self.clients[client_index]
        op = Op(due=due, client=client_index)
        op.group = client._cc.group if client._cc is not None else ""
        index = len(self.ops)
        self.ops.append(op)
        payload = ("req", index)
        env = self.service.env

        def reply(result: Any) -> None:
            if op.done is not None:
                self.double_replies += 1
                return
            op.done = env.now
            if result != payload:
                self.bad_replies += 1

        def failed() -> None:
            op.failed = True

        client.request(payload, reply, failed)

    def errors(self) -> List[str]:
        out = []
        if self.bad_replies:
            out.append(f"{self.bad_replies} replies differ from their request")
        if self.double_replies:
            out.append(f"{self.double_replies} requests answered twice")
        if len(self.ops) != self.planned:
            out.append(f"{len(self.ops)} of {self.planned} requests issued")
        return out


# -- outcome -----------------------------------------------------------------


@dataclass
class Outcome:
    metrics: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    errors: List[str] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    fingerprint: Dict[str, Any] = field(default_factory=dict)


@dataclass
class Window:
    """What the timed window measured."""

    watch: Stopwatch
    sim_s: float
    stats: Any
    events: int
    allocs: int
    peak_pending: int
    counts: Dict[str, int]  # library counters' growth over the window
    layer_before: Any = None
    layer_after: Any = None


def fresh_allocs(env: Environment) -> int:
    sched = env.scheduler.alloc_stats
    return (sched["fresh_events"] + sched["fresh_arg_lists"]
            + env.network.alloc_stats["fresh_envelopes"])


# -- the workloads -------------------------------------------------------------


class Workload:
    """Shared shape: set up, warm, schedule, timed chunks, drain, check."""

    name = ""
    drain_s = 2.0
    sim_per_wall = 1.0  # simulated seconds measured per --seconds

    # What a build sets; all dropped before the next build, so that only
    # one cluster is ever alive.
    built = ("cluster", "load", "digest", "participants", "roots", "crashes")

    def __init__(self, seed: int, seconds: float, scale: float = 1.0,
                 digest: bool = False) -> None:
        self.seed = seed
        self.window_s = seconds * self.sim_per_wall
        self.scale = scale
        self.with_digest = digest
        self.tracer: Optional[LayerTracer] = None
        self.drop()

    def drop(self) -> None:
        for name in self.built:
            setattr(self, name, None)

    def attach_digest(self, env: Environment) -> None:
        """The delivery digest costs a tap call per delivery, so only
        fingerprinting runs (and both passes of a traced run) pay it."""
        if self.with_digest:
            self.digest = DeliveryDigest(env.network)

    # Subclasses provide these.
    def build(self, watch: Stopwatch) -> Any:
        raise NotImplementedError

    def arm(self, start: float) -> None:
        raise NotImplementedError

    def ops_due(self) -> List[Op]:
        raise NotImplementedError

    def check(self) -> List[str]:
        raise NotImplementedError

    # -- running ---------------------------------------------------------------

    def setup(self, repeats: int) -> List[float]:
        """Build the cluster ``repeats`` times; returns each build's wall
        seconds at reference speed."""
        times = []
        for _ in range(repeats):
            self.drop()
            gc.collect()
            watch = Stopwatch()
            self.cluster = self.build(watch)
            watch.tick(last=True)
            times.append(watch.normalised(0))
        return times

    def measure(self) -> Window:
        env = self.env
        start = env.now
        self.start = start
        self.arm(start)
        self.stats_before = env.stats_snapshot()
        counts_before = self.counters()
        events0 = env.scheduler.events_processed
        allocs0 = fresh_allocs(env)
        layer_before = self.tracer.snapshot() if self.tracer else None
        if self.tracer:
            self.tracer.recording = True
            self.reset_probes()
        gc.collect()
        watch = Stopwatch()
        peak = run_timed(env, self.window_s, watch)
        watch.tick(last=True)
        layer_after = None
        if self.tracer:
            self.tracer.recording = False
            layer_after = self.tracer.snapshot()
        stats = env.stats_since(self.stats_before)
        events = env.scheduler.events_processed - events0
        allocs = fresh_allocs(env) - allocs0
        counts = {
            key: now - counts_before[key] for key, now in self.counters().items()
        }
        return Window(watch, self.window_s, stats, events, allocs, peak,
                      counts, layer_before, layer_after)

    def run(self, trace: bool) -> Outcome:
        outcome = Outcome()
        if trace:
            self.with_digest = True
            # Untraced pass first: its window time is the base of
            # trace.overhead_frac, and its fingerprint must equal the
            # traced pass's (the shims only observe).
            self.setup(1)
            plain = self.measure()
            self.env.run_for(self.drain_s)
            plain_fp = self.fingerprint()
            self.drop()
            self.tracer = LayerTracer()
            self.install_probes(self.tracer)
            self.tracer.install()
            try:
                self.setup(1)
                window = self.measure()
                self.env.run_for(self.drain_s)
            finally:
                self.tracer.uninstall()
            setup_times = []
        else:
            setup_times = self.setup(SETUPS)
            window = self.measure()
            self.env.run_for(self.drain_s)
        outcome.errors = self.check()
        ops = self.ops_due()
        outcome.attempted = len(ops)
        outcome.failed = sum(1 for op in ops if op.done is None or op.failed)
        if outcome.attempted == 0:
            outcome.errors.append("no operation was attempted")
        outcome.fingerprint = self.fingerprint()
        done = [op for op in ops if op.done is not None and not op.failed]
        if not trace:
            outcome.metrics = self.end_to_end(window, done, setup_times)
        else:
            if plain_fp != outcome.fingerprint:
                outcome.errors.append(
                    "traced run diverged from the untraced run: "
                    f"{plain_fp} != {outcome.fingerprint}"
                )
            outcome.metrics = self.per_layer(window, done, ops, plain)
        return outcome

    def run_sanitized(self) -> List[str]:
        """A check pass outside the timed runs: the strict virtual-synchrony
        sanitizer on every leaf, re-attached whenever a worker changes
        leaf (split, merge, rejoin).  The leader group is left out: its
        manager multicasts from inside a delivery callback, and the
        sanitizer, which observes a delivery when the wrapped call
        returns, sees the nested delivery first (README, known findings)."""
        self.setup(1)
        service = self.cluster
        sanitizer = VirtualSynchronySanitizer(strict=True)

        def watch(members: List) -> None:
            for member in members:
                member.add_leaf_change_listener(sanitizer.attach)

        watch(service.members)
        service.member_listeners.append(watch)
        try:
            self.measure()
            self.env.run_for(self.drain_s)
            errors = self.check()
            summary = sanitizer.check()
        except VirtualSynchronyViolation as exc:
            return [f"sanitizer: {exc}"]
        if not summary["deliveries_checked"]:
            errors.append("sanitizer observed no delivery")
        return errors

    @property
    def env(self) -> Environment:
        return self.cluster.env

    def fingerprint(self) -> Dict[str, Any]:
        env = self.env
        out = {
            "events": env.scheduler.events_processed,
            "messages": env.network.stats.messages,
        }
        if self.digest is not None:
            out["digest"] = self.digest.hexdigest()
            out["deliveries"] = self.digest.count
        return out

    # -- metrics ---------------------------------------------------------------

    def end_to_end(self, w: Window, done: List[Op], setup_times: List[float]):
        ops = len(done)
        if ops == 0:
            return {}
        lat = [(op.done - op.due) * 1e3 for op in done]
        return {
            "ops_per_s": (ops / w.watch.normalised(0), "1/s"),
            "cpu_us_per_op": (w.watch.normalised(1) / ops * 1e6, "us"),
            "lat_p50_ms": (percentile(lat, 50), "ms"),
            "lat_p99_ms": (percentile(lat, 99), "ms"),
            "lat_p999_ms": (percentile(lat, 99.9), "ms"),
            "msgs_per_op": (w.stats.messages / ops, "count"),
            "bytes_per_op": (w.stats.bytes / ops, "B"),
            "setup_s": (statistics.median(setup_times), "s"),
            "peak_rss_mb": (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "MB",
            ),
        }

    def per_layer(self, w: Window, done: List[Op], ops: List[Op],
                  plain: Window) -> Dict[str, Tuple[float, str]]:
        tracer = self.tracer
        n = max(1, len(done))
        before = w.layer_before
        fracs = tracer.self_fracs(before, w.layer_after, w.watch.wall_total)
        out: Dict[str, Tuple[float, str]] = {}
        for layer in LAYERS:
            if layer != "bench":
                out[f"{layer}.self_frac"] = (fracs[layer], "frac")
        out["trace.shim_frac"] = (fracs["trace"], "frac")
        counts = w.counts
        stats = w.stats
        out["sim.events_per_op"] = (w.events / n, "count")
        out["sim.allocs_per_kev"] = (w.allocs / max(1, w.events) * 1e3, "count")
        out["sim.peak_pending"] = (float(w.peak_pending), "count")
        out["net.wire_packets_per_op"] = (stats.wire_packets / n, "count")
        out["net.dropped"] = (float(stats.dropped), "count")
        for category in NET_CATEGORIES:
            out[f"net.msgs_per_op.{category}"] = (
                stats.by_category.get(category, 0) / n, "count"
            )
        def calls(qualname: str) -> int:
            return tracer.calls_between(before, w.layer_after, qualname)

        out["proc.dispatches_per_op"] = (calls("Process._on_envelope") / n, "count")
        segments = calls("ReliableTransport._send_segment")
        out["transport.segments_per_op"] = (segments / n, "count")
        out["transport.acks_per_segment"] = (
            stats.by_category.get("transport-ack", 0) / max(1, segments), "count"
        )
        out["transport.retransmits"] = (float(self.probes["retransmits"]), "count")
        members = len(self.cluster.members) + len(self.cluster.leaders)
        out["failure.pings_per_member_s"] = (
            stats.by_category.get("heartbeat", 0) / 2 / members / w.sim_s,
            "1/s",
        )
        window_suspicions = [
            s for s in self.cluster.suspicions if s[0] >= self.start
        ]
        out["failure.suspicions"] = (float(len(window_suspicions)), "count")
        out["failure.false_suspicions"] = (
            float(sum(1 for s in window_suspicions if s[2])), "count"
        )
        out["failure.detect_s_max"] = (self.detect_max(), "sim_s")
        flushes = self.probes["flush_s"]
        out["membership.view_changes"] = (float(counts["view_changes"]), "count")
        out["membership.flush_s_p50"] = (
            statistics.median(flushes) if flushes else 0.0, "sim_s"
        )
        out["membership.flush_s_max"] = (max(flushes, default=0.0), "sim_s")
        out["membership.queued_sends"] = (
            float(self.probes["queued_sends"]), "count"
        )
        # A lookup the router cannot answer from its cache asks a leader
        # (more than once if redirected).
        lookups = calls("ServiceRouter.assignment")
        out["core.router_lookups"] = (float(lookups), "count")
        out["core.router_hit_ratio"] = (
            max(0.0, 1.0 - counts["leader_asks"] / lookups) if lookups else 0.0,
            "frac",
        )
        manager = self.cluster.manager
        log = [e for e in manager.reorg_log if e["t"] >= self.start]
        out["core.reorgs"] = (float(sum(
            1 for e in log if e["event"] in ("split-directed", "merge-directed")
        )), "count")
        out["core.disruption_s_max"] = (max(
            (e["window"] for e in log if e["event"] == "routing-converged"),
            default=0.0,
        ), "sim_s")
        out.update(self.treecast_metrics(stats))
        cc = sum(stats.by_category.get(c, 0) for c in CC_CATEGORIES)
        requests = self.request_ops()
        answered = max(1, sum(1 for op in requests if op.done is not None))
        out["toolkit.cc_msgs_per_req"] = (cc / answered if requests else 0.0, "count")
        out["toolkit.retries_per_req"] = (
            self.probes["retries"] / answered if requests else 0.0, "count"
        )
        out["toolkit.takeovers"] = (float(counts["takeovers"]), "count")
        out["toolkit.fail_frac"] = (
            sum(1 for op in ops if op.done is None or op.failed) / max(1, len(ops)),
            "frac",
        )
        out["core.unavail_s"] = (self.unavailable_max(), "sim_s")
        out.update(self.broadcast_metrics(stats))
        out["load.offered_per_s"] = (len(ops) / w.sim_s, "1/s")
        out["load.lat_samples"] = (float(len(done)), "count")
        out["trace.overhead_frac"] = (
            w.watch.wall_total / plain.watch.wall_total - 1.0, "frac"
        )
        return out

    def counters(self) -> Dict[str, int]:
        """The library's own counters, read before and after the window."""
        counts = self.cluster.counters()
        routers = self.load.routers if self.load is not None else []
        counts["leader_asks"] = sum(router.lookups for router in routers)
        return counts

    # Probes: counts the library does not keep, read off calls as they
    # happen (traced runs only).

    def reset_probes(self) -> None:
        self.probes.update({
            "retransmits": 0, "flush_s": [], "queued_sends": 0, "retries": 0,
        })

    def install_probes(self, tracer: LayerTracer) -> None:
        probes = self.probes = {}
        self.reset_probes()
        sent = set()

        def send_segment(transport, dst, segment, *_) -> None:
            # A segment's identity within one channel incarnation; the
            # transport lives as long as its process.
            key = (id(transport), dst, segment.incarnation, segment.epoch,
                   segment.seq)
            if key in sent:
                probes["retransmits"] += 1
            else:
                sent.add(key)

        def flush_check(member, *_) -> None:
            # A flush ends when its initiator holds every response.
            flush = member._flush
            if flush is not None and flush.complete:
                probes["flush_s"].append(
                    member.runtime.process.env.now - flush.started_at
                )

        def multicast(member, *_, **__) -> None:
            if member.is_member and member._blocked:
                probes["queued_sends"] += 1

        def maybe_retry(client, request_id, *_) -> None:
            if request_id in client._callbacks:
                probes["retries"] += 1

        tracer.probe("ReliableTransport._send_segment", send_segment)
        tracer.probe("GroupMember._check_flush_complete", flush_check)
        tracer.probe("GroupMember.multicast", multicast)
        tracer.probe("CoordinatorCohortClient._maybe_retry", maybe_retry)

    # Hooks with workload-specific answers.

    def request_ops(self) -> List[Op]:
        return []

    def detect_max(self) -> float:
        return 0.0

    def unavailable_max(self) -> float:
        return 0.0

    def treecast_metrics(self, stats) -> Dict[str, Tuple[float, str]]:
        return {
            "core.treecast_stages": (0.0, "count"),
            "core.commits_per_treecast": (0.0, "count"),
        }

    def broadcast_metrics(self, stats) -> Dict[str, Tuple[float, str]]:
        out = {f"broadcast.lat_p99_ms.{o.lower()}": (0.0, "sim_ms")
               for o in ORDERINGS}
        out["broadcast.setorder_per_total"] = (0.0, "count")
        return out


class ReqSteady(Workload):
    """Coordinator-cohort requests to a settled n=256 service."""

    name = "req_steady"
    workers = 256
    clients = 32
    rate = 2000.0
    drain_s = 1.0
    sim_per_wall = 0.9

    def build(self, watch: Stopwatch) -> Service:
        workers = max(16, int(self.workers * self.scale))
        service = Service(
            self.seed, workers, LargeGroupParams(resiliency=3, fanout=8),
            join_stagger=0.01, settle=2.0 + 0.01 * workers, watch=watch,
        )
        self.load = Requests(service, self.clients, self.seed, timeout=1.0)
        self.load.warm(watch)
        self.attach_digest(service.env)
        return service

    def arm(self, start: float) -> None:
        self.views_before = self.view_changes()
        self.load.schedule(start, start + self.window_s, self.rate * self.scale)

    def view_changes(self) -> int:
        return sum(
            m.leaf_member.view_changes for m in self.cluster.members
            if m.leaf_member is not None
        )

    def ops_due(self) -> List[Op]:
        return self.load.ops

    request_ops = ops_due

    def check(self) -> List[str]:
        errors = self.load.errors()
        unanswered = [op for op in self.load.ops if op.done is None or op.failed]
        if unanswered:
            errors.append(f"{len(unanswered)} requests unanswered or failed")
        # E1: a request to an n-member leaf costs exactly 2n CC messages.
        if self.view_changes() != self.views_before:
            errors.append("views changed during the steady window")
        sizes = self.cluster.leaf_sizes()
        predicted = sum(2 * sizes.get(op.group, 0) for op in self.load.ops)
        since = self.env.stats_since(self.stats_before)
        measured = sum(since.by_category.get(c, 0) for c in CC_CATEGORIES)
        if measured != predicted:
            errors.append(f"E1: {measured} CC messages, predicted {predicted}")
        return errors


class ChurnReorg(Workload):
    """Requests while leaf coordinators crash and recover and a batch
    of fresh workers joins mid-window."""

    name = "churn_reorg"
    workers = 128
    clients = 32
    rate = 1100.0
    crash_every_s = 1.0
    recover_after_s = 2.0
    batch = 32
    drain_s = 6.0
    client_timeout_s = 2.0
    sim_per_wall = 2.0

    def build(self, watch: Stopwatch) -> Service:
        workers = max(16, int(self.workers * self.scale))
        service = Service(
            self.seed, workers, LargeGroupParams(resiliency=3, fanout=8),
            join_stagger=0.01, settle=2.0 + 0.01 * workers, watch=watch,
        )
        self.load = Requests(service, self.clients, self.seed,
                             self.client_timeout_s)
        self.load.warm(watch)
        self.attach_digest(service.env)
        self.crashes: List[Tuple[float, str, str, Tuple[int, ...]]] = []
        return service

    def arm(self, start: float) -> None:
        env = self.env
        service = self.cluster
        rng = random.Random(self.seed * 7919 + 1)
        end = start + self.window_s
        self.load.schedule(start, end, self.rate * self.scale)
        by_address = {m.me: m for m in service.members}

        def crash(pick: float) -> None:
            leaves = sorted(service.leaf_sizes())
            if not leaves:
                return
            group = leaves[int(pick * len(leaves))]
            member = next(
                m for m in service.members
                if m.is_member and m.leaf_member.group == group
            )
            victim = member.leaf_member.acting_coordinator()
            if not env.process(victim).alive:
                return  # picked while still down from an earlier crash
            bound = tuple(
                i for i, c in enumerate(self.load.clients)
                if c._cc is not None and c._cc.group == group
            )
            self.crashes.append((env.now, victim, group, bound))
            env.crash(victim)
            env.scheduler.at(env.now + self.recover_after_s,
                             lambda: recover(victim))

        def recover(address: str) -> None:
            env.process(address).recover()
            by_address[address].join()

        t = start + self.crash_every_s / 2
        while t < end - self.recover_after_s:
            pick = rng.random()
            env.scheduler.at(t, lambda p=pick: crash(p))
            t += self.crash_every_s
        batch = max(4, int(self.batch * self.scale))

        def join_batch() -> None:
            for member in service.add_workers(batch, "svc-x", 0.05):
                by_address[member.me] = member

        env.scheduler.at(start + self.window_s / 2, join_batch)

    def ops_due(self) -> List[Op]:
        return self.load.ops

    request_ops = ops_due

    def check(self) -> List[str]:
        errors = self.load.errors()
        silent = [op for op in self.load.ops if op.done is None and not op.failed]
        if silent:
            errors.append(f"{len(silent)} requests neither answered nor failed")
        if not self.crashes:
            errors.append("no crash happened in the churn window")
        live = [m for m in self.cluster.members if m.node.alive]
        unplaced = [m.me for m in live if not m.is_member]
        if unplaced:
            errors.append(f"live workers never re-placed: {unplaced[:5]}")
        return errors

    def detect_max(self) -> float:
        worst = 0.0
        for at, victim, _group, _bound in self.crashes:
            seen = [t for t, who, alive in self.cluster.suspicions
                    if who == victim and t >= at]
            if seen:
                worst = max(worst, min(seen) - at)
        return worst

    def unavailable_max(self) -> float:
        """Longest gap from a crash to the first reply to a client that
        was bound to the crashed leaf."""
        worst = 0.0
        for at, _victim, _group, bound in self.crashes:
            replies = [
                op.done for op in self.load.ops
                if op.client in bound and op.done is not None and op.done >= at
            ]
            if replies:
                worst = max(worst, min(replies) - at)
        return worst


class BcastOrdered(Workload):
    """Leaf multicasts in FIFO/CAUSAL/TOTAL rotation plus periodic atomic
    whole-group treecasts; no client requests."""

    name = "bcast_ordered"
    workers = 64
    rate = 2600.0
    drain_s = 0.1
    sim_per_wall = 0.4
    treecasts = 2

    def build(self, watch: Stopwatch) -> Service:
        workers = self.workers  # depth 3 needs every worker
        service = Service(
            self.seed, workers, LargeGroupParams(resiliency=3, fanout=4),
            join_stagger=0.01, settle=2.0 + 0.01 * workers, watch=watch,
        )
        self.participants = attach_treecast(service.members, resiliency=3)
        self.roots = [TreecastRoot(r) for r in service.leaders]
        self.attach_digest(service.env)
        return service

    def arm(self, start: float) -> None:
        env = self.env
        service = self.cluster
        rng = random.Random(self.seed)
        end = start + self.window_s
        self.depth = service.manager.state.depth()
        self.mcasts: List[Op] = []
        self.mcast_meta: List[Tuple[str, str, Tuple[str, ...]]] = []
        self.deliveries: Dict[Tuple[int, str], int] = {}
        self.total_order: Dict[Tuple[str, str], List[int]] = {}
        self.casts: List[Op] = []
        self.cast_ids: List[Optional[str]] = []
        self.cast_placed: List[Tuple[str, ...]] = []
        self.cast_got: Dict[str, Dict[str, int]] = {}
        placed = sorted((m for m in service.members if m.is_member),
                        key=lambda m: m.me)

        for member in service.members:
            member.add_delivery_listener(
                lambda event, me=member.me: self.on_delivery(me, event)
            )
        for participant in self.participants:
            participant.add_listener(
                lambda payload, bid, me=participant.member.me:
                    self.on_treecast(me, bid)
            )

        def fire(k: int, due: float, pick: float) -> None:
            member = placed[int(pick * len(placed))]
            ordering = ORDERINGS[k % 3]
            self.mcasts.append(Op(due=due))
            view = member.leaf_member.view
            self.mcast_meta.append((ordering, view.group, tuple(view.members)))
            member.leaf_multicast(("m", k), ordering)

        self.planned = open_loop(
            env.scheduler, rng, start, end, self.rate * self.scale,
            lambda k: rng.random(), fire,
        )

        period = self.window_s / self.treecasts

        def treecast(j: int) -> None:
            root = next(r for r in self.roots if r.replica.is_manager)
            self.casts.append(Op(due=env.now))
            self.cast_placed.append(
                tuple(sorted(m.me for m in service.members if m.is_member))
            )
            self.cast_ids.append(root.broadcast(("t", j), atomic=True))

        for j in range(self.treecasts):
            env.scheduler.at(start + period * (j + 0.5),
                             lambda j=j: treecast(j))

    def on_delivery(self, me: str, event) -> None:
        payload = event.payload
        if not (isinstance(payload, tuple) and payload[0] == "m"):
            return
        k = payload[1]
        key = (k, me)
        self.deliveries[key] = self.deliveries.get(key, 0) + 1
        op = self.mcasts[k]
        op.done = max(op.done or 0.0, self.env.now)
        if event.ordering == TOTAL:
            self.total_order.setdefault((event.group, me), []).append(k)

    def on_treecast(self, me: str, bid: str) -> None:
        got = self.cast_got.setdefault(bid, {})
        got[me] = got.get(me, 0) + 1
        index = self.cast_ids.index(bid)
        op = self.casts[index]
        op.done = max(op.done or 0.0, self.env.now)

    def ops_due(self) -> List[Op]:
        return self.mcasts + self.casts

    def check(self) -> List[str]:
        errors = []
        if self.depth < 3:
            errors.append(f"treecast tree has depth {self.depth} < 3")
        if len(self.mcasts) != self.planned:
            errors.append(f"{len(self.mcasts)} of {self.planned} multicasts sent")
        bad = 0
        for k, (_ordering, _group, members) in enumerate(self.mcast_meta):
            wrong = sum(1 for me in members if self.deliveries.get((k, me)) != 1)
            if wrong:
                self.mcasts[k].failed = True
                bad += wrong
        if bad:
            errors.append(f"{bad} multicast deliveries missing or repeated")
        by_leaf: Dict[str, List[List[int]]] = {}
        for (group, _me), order in self.total_order.items():
            by_leaf.setdefault(group, []).append(order)
        for group, orders in by_leaf.items():
            if any(order != orders[0] for order in orders):
                errors.append(f"TOTAL order differs within {group}")
        committed = {
            info["id"] for r in self.roots for info in r.completed
            if info.get("committed")
        }
        for index, bid in enumerate(self.cast_ids):
            op = self.casts[index]
            if bid is None or bid not in committed:
                op.failed = True
                errors.append(f"treecast {index} was not committed")
                continue
            got = self.cast_got.get(bid, {})
            placed = self.cast_placed[index]
            wrong = [me for me in placed if got.get(me, 0) != 1]
            if wrong or set(got) - set(placed):
                op.failed = True
                errors.append(
                    f"treecast {bid}: {len(wrong)} placed members did not "
                    f"deliver it exactly once"
                )
        return errors

    def treecast_metrics(self, stats) -> Dict[str, Tuple[float, str]]:
        infos = [info for r in self.roots for info in r.completed]
        stages = max((info["stages"] for info in infos), default=0)
        return {
            "core.treecast_stages": (float(stages), "count"),
            "core.commits_per_treecast": (
                stats.by_category.get("treecast-commit", 0)
                / max(1, len(self.casts)), "count"
            ),
        }

    def broadcast_metrics(self, stats) -> Dict[str, Tuple[float, str]]:
        out = {}
        for ordering in ORDERINGS:
            lat = [
                (op.done - op.due) * 1e3
                for op, meta in zip(self.mcasts, self.mcast_meta)
                if meta[0] == ordering and op.done is not None
            ]
            out[f"broadcast.lat_p99_ms.{ordering.lower()}"] = (
                percentile(lat, 99), "sim_ms"
            )
        totals = sum(1 for meta in self.mcast_meta if meta[0] == TOTAL)
        out["broadcast.setorder_per_total"] = (
            stats.by_category.get("group-setorder", 0) / max(1, totals),
            "count",
        )
        return out


WORKLOADS: Dict[str, Callable[..., Workload]] = {
    "req_steady": ReqSteady,
    "bcast_ordered": BcastOrdered,
    "churn_reorg": ChurnReorg,
}
