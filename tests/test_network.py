"""Unit tests for the simulated datagram network."""

from dataclasses import dataclass, replace

import pytest

from repro.net import FixedLatency, LanLatency, Network, UniformLatency
from repro.sim import Scheduler, SimRandom


@dataclass
class Ping:
    category = "ping"
    size_bytes = 32
    n: int = 0


def make_net(**kwargs):
    sched = Scheduler()
    net = Network(sched, SimRandom(1), **kwargs)
    return sched, net


def collector(inbox):
    return lambda env: inbox.append((env.payload, env.src, env.deliver_time))


def test_send_delivers_after_latency():
    sched, net = make_net(latency=FixedLatency(0.5))
    inbox = []
    net.register("a", collector([]))
    net.register("b", collector(inbox))
    net.send("a", "b", Ping(1))
    sched.run()
    assert len(inbox) == 1
    payload, src, at = inbox[0]
    assert payload.n == 1 and src == "a" and at == 0.5


def test_send_to_unregistered_is_dropped():
    sched, net = make_net()
    net.register("a", collector([]))
    net.send("a", "ghost", Ping())
    sched.run()
    assert net.stats.dropped == 1
    assert net.stats.messages == 1


def test_unregister_drops_in_flight():
    sched, net = make_net(latency=FixedLatency(1.0))
    inbox = []
    net.register("a", collector([]))
    net.register("b", collector(inbox))
    net.send("a", "b", Ping())
    net.unregister("b")
    sched.run()
    assert inbox == []
    assert net.stats.dropped == 1


def test_multicast_counts_one_message_per_destination():
    sched, net = make_net()
    boxes = {name: [] for name in "bcd"}
    net.register("a", collector([]))
    for name, box in boxes.items():
        net.register(name, collector(box))
    net.multicast("a", ["b", "c", "d"], Ping())
    sched.run()
    assert net.stats.messages == 3
    assert net.stats.wire_packets == 3
    assert all(len(box) == 1 for box in boxes.values())


def test_hardware_multicast_single_wire_packet():
    sched, net = make_net(hardware_multicast=True)
    boxes = {name: [] for name in "bcd"}
    net.register("a", collector([]))
    for name, box in boxes.items():
        net.register(name, collector(box))
    net.multicast("a", ["b", "c", "d"], Ping())
    sched.run()
    assert net.stats.messages == 3
    assert net.stats.wire_packets == 1
    assert all(len(box) == 1 for box in boxes.values())


def test_empty_multicast_is_free():
    sched, net = make_net()
    net.multicast("a", [], Ping())
    sched.run()
    assert net.stats.messages == 0
    assert net.stats.wire_packets == 0


def test_drop_probability_loses_messages():
    sched, net = make_net(drop_probability=0.5)
    inbox = []
    net.register("a", collector([]))
    net.register("b", collector(inbox))
    for _ in range(500):
        net.send("a", "b", Ping())
    sched.run()
    assert 150 < len(inbox) < 350
    assert net.stats.dropped == 500 - len(inbox)


def test_duplicate_probability_duplicates():
    sched, net = make_net(duplicate_probability=0.5)
    inbox = []
    net.register("a", collector([]))
    net.register("b", collector(inbox))
    for _ in range(200):
        net.send("a", "b", Ping())
    sched.run()
    assert 250 < len(inbox) < 350


def test_partition_blocks_cross_island_traffic():
    sched, net = make_net()
    box_b, box_c = [], []
    net.register("a", collector([]))
    net.register("b", collector(box_b))
    net.register("c", collector(box_c))
    net.partitions.partition({"a", "b"}, {"c"})
    net.send("a", "b", Ping())
    net.send("a", "c", Ping())
    sched.run()
    assert len(box_b) == 1
    assert box_c == []
    net.partitions.heal()
    net.send("a", "c", Ping())
    sched.run()
    assert len(box_c) == 1


def test_stats_by_category_and_endpoint():
    sched, net = make_net()
    net.register("a", collector([]))
    net.register("b", collector([]))
    net.send("a", "b", Ping())
    net.send("a", "b", Ping())
    sched.run()
    assert net.stats.by_category["ping"] == 2
    assert net.stats.sent_by["a"] == 2
    assert net.stats.received_by["b"] == 2


def test_stats_since_snapshot():
    sched, net = make_net()
    net.register("a", collector([]))
    net.register("b", collector([]))
    net.send("a", "b", Ping())
    sched.run()
    before = net.stats.snapshot()
    net.send("a", "b", Ping())
    net.send("a", "b", Ping())
    sched.run()
    delta = net.stats.since(before)
    assert delta.messages == 2
    assert delta.by_category == {"ping": 2}


def test_bytes_counted_with_header():
    sched, net = make_net()
    net.register("a", collector([]))
    net.register("b", collector([]))
    net.send("a", "b", Ping())
    sched.run()
    assert net.stats.bytes == 32 + 64


def test_invalid_probabilities_rejected():
    sched = Scheduler()
    with pytest.raises(ValueError):
        Network(sched, SimRandom(0), drop_probability=1.0)
    with pytest.raises(ValueError):
        Network(sched, SimRandom(0), duplicate_probability=-0.1)


def test_latency_models_sample_in_bounds():
    rng = SimRandom(3)
    assert FixedLatency(0.01).sample(rng, "a", "b", 100) == 0.01
    for _ in range(50):
        assert 0.001 <= UniformLatency(0.001, 0.002).sample(rng, "a", "b", 0) <= 0.002
    lan = LanLatency(base=0.001, per_byte=1e-6, jitter=0.1)
    nominal = 0.001 + 1e-6 * 200
    for _ in range(50):
        sample = lan.sample(rng, "a", "b", 200)
        assert nominal * 0.9 <= sample <= nominal * 1.1


def test_latency_model_validation():
    with pytest.raises(ValueError):
        FixedLatency(-1.0)
    with pytest.raises(ValueError):
        UniformLatency(0.5, 0.1)
    with pytest.raises(ValueError):
        LanLatency(jitter=1.5)


def test_taps_observe_send_deliver_drop():
    sched, net = make_net(latency=FixedLatency(0.001))
    events = []
    net.add_tap(lambda kind, env: events.append((kind, env.src, env.dst)))
    net.register("a", collector([]))
    net.register("b", collector([]))
    net.send("a", "b", Ping())
    net.send("a", "ghost", Ping())  # delivery-time drop
    sched.run()
    kinds = [k for k, *_ in events]
    assert kinds.count("send") == 2
    assert kinds.count("deliver") == 1
    assert kinds.count("drop") == 1
    assert ("deliver", "a", "b") in events


def test_taps_observe_partition_drops():
    sched, net = make_net()
    events = []
    net.add_tap(lambda kind, env: events.append(kind))
    net.register("a", collector([]))
    net.register("b", collector([]))
    net.partitions.partition({"a"}, {"b"})
    net.send("a", "b", Ping())
    sched.run()
    assert events == ["send", "drop"]


def test_tap_removal():
    sched, net = make_net()
    events = []
    tap = lambda kind, env: events.append(kind)  # noqa: E731
    net.add_tap(tap)
    net.register("a", collector([]))
    net.register("b", collector([]))
    net.send("a", "b", Ping())
    net.remove_tap(tap)
    net.send("a", "b", Ping())
    sched.run()
    # only the first send (and its delivery may occur after removal)
    assert events.count("send") == 1


# -- one send path: a multicast is k unicasts ----------------------------------


def _mcast_run(use_multicast, hardware=False, pack=False, drop=0.0, dup=0.0,
               partition=False):
    from repro.metrics.digest import DeliveryDigest

    sched = Scheduler()
    net = Network(
        sched,
        SimRandom(3),
        latency=LanLatency(),
        drop_probability=drop,
        duplicate_probability=dup,
        hardware_multicast=hardware,
        pack_window=0.0004 if pack else 0.0,
    )
    digest = DeliveryDigest(net)
    taps = []
    net.add_tap(
        lambda kind, env: taps.append(
            (kind, env.src, env.dst, env.payload.n, env.send_time,
             env.deliver_time)
        )
    )
    for name in "abcde":
        net.register(name, collector([]))
    if partition:
        net.partitions.partition({"a", "b", "c"}, {"d", "e"})
    dsts = ["b", "c", "d", "e", "ghost"]
    for i in range(40):
        if use_multicast:
            net.multicast("a", dsts, Ping(i))
        else:
            for dst in dsts:
                net.send("a", dst, Ping(i))
        sched.run_for(0.0003)
    sched.run()
    return net.stats.snapshot(), digest.hexdigest(), taps


@pytest.mark.parametrize(
    "case",
    [
        {},
        {"drop": 0.3},
        {"dup": 0.3},
        {"partition": True},
        {"pack": True},
        {"pack": True, "drop": 0.2, "dup": 0.2},
        {"drop": 0.2, "dup": 0.2, "partition": True},
    ],
    ids=["plain", "drop", "dup", "partition", "packer", "packer-lossy",
         "lossy-partition"],
)
def test_multicast_matches_k_unicasts(case):
    """A multicast to k destinations is exactly k unicasts: the same
    stats, the same deliveries at the same times (digest) and the same
    tap stream, RNG draws included."""
    multi = _mcast_run(True, **case)
    uni = _mcast_run(False, **case)
    assert multi == uni
    stats, _digest, taps = multi
    assert stats.messages == 200
    assert any(kind == "deliver" for kind, *_ in taps)


@pytest.mark.parametrize("case", [{}, {"drop": 0.3, "dup": 0.3},
                                  {"partition": True}])
def test_hardware_multicast_is_the_same_path_with_one_wire_packet(case):
    """Hardware multicast differs from k point-to-point unicasts only in
    wire packets: one per call that put any copy in flight."""
    multi_stats, multi_digest, multi_taps = _mcast_run(
        True, hardware=True, **case
    )
    uni_stats, uni_digest, uni_taps = _mcast_run(False, **case)
    assert multi_digest == uni_digest
    assert multi_taps == uni_taps
    assert multi_stats.wire_packets == 40
    assert uni_stats.wire_packets == 200
    assert replace(multi_stats, wire_packets=0) == replace(
        uni_stats, wire_packets=0
    )


def test_lan_latency_jitter_matches_random_uniform():
    """The precomputed jitter draw gives exactly the float that
    ``nominal * uniform(1 - jitter, 1 + jitter)`` gives."""
    for jitter in (0.2, 0.35):
        lat = LanLatency(jitter=jitter)
        mine, reference = SimRandom(5), SimRandom(5)
        for size in (0, 32, 1500):
            nominal = lat.base + lat.per_byte * size
            for _ in range(200):
                expected = nominal * reference.uniform(1.0 - jitter, 1.0 + jitter)
                assert lat.sample(mine, "a", "b", size) == expected
