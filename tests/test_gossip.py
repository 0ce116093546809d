import numpy as np
import pytest

from bfel import gossip
from bfel.gossip import GossipNetwork


class TestGossipBroadcast:
    def test_single_node_zero_hops(self):
        net = GossipNetwork(node_count=1, fanout=1, seed=0)
        hops, times = gossip.gossip_broadcast(net, origin=0)
        assert hops == 0
        assert times[0] == 0.0

    def test_two_nodes_one_hop(self):
        net = GossipNetwork(node_count=2, fanout=1, seed=0)
        hops, times = gossip.gossip_broadcast(net, origin=0)
        assert hops == 1
        assert times[1] > 0

    def test_full_coverage_always(self):
        for seed in range(20):
            net = GossipNetwork(node_count=64, fanout=2, seed=seed)
            _, times = gossip.gossip_broadcast(net, origin=0)
            assert np.all(np.isfinite(times))

    def test_128_nodes_median_hops(self):
        hops = []
        for seed in range(100):
            net = GossipNetwork(node_count=128, fanout=2, seed=seed)
            h, times = gossip.gossip_broadcast(net, origin=0)
            hops.append(h)
            assert np.all(np.isfinite(times))
        assert np.median(hops) <= 14

    def test_deterministic(self):
        net = GossipNetwork(node_count=32, fanout=2, seed=5)
        a = gossip.gossip_broadcast(net, origin=3)
        b = gossip.gossip_broadcast(net, origin=3)
        assert a[0] == b[0]
        assert np.array_equal(a[1], b[1])

    def test_origin_out_of_range(self):
        net = GossipNetwork(node_count=4, fanout=1, seed=0)
        with pytest.raises(ValueError):
            gossip.gossip_broadcast(net, origin=4)


class TestLatencies:
    def test_single_request_sum_of_components(self):
        report = gossip.measure_latencies(1, seed=0)
        init, trd, vtr, tct = report.phases_ms[0]
        assert report.end_to_end_ms.tolist() == [init + trd + vtr + tct]

    def test_median_grows_with_concurrency(self):
        lo = gossip.measure_latencies(5, seed=0)
        hi = gossip.measure_latencies(100, seed=0)
        assert hi.median_end_to_end() >= lo.median_end_to_end()

    def test_gossip_beats_sequential_broadcast(self):
        net = GossipNetwork(node_count=50, fanout=2, seed=0)
        with_gossip = gossip.measure_latencies(50, net=net, use_gossip=True, seed=0)
        without = gossip.measure_latencies(50, net=net, use_gossip=False, seed=0)
        assert with_gossip.total_elapsed_ms <= without.total_elapsed_ms

    def test_deterministic(self):
        a = gossip.measure_latencies(10, seed=4)
        b = gossip.measure_latencies(10, seed=4)
        assert a.phases_ms.tobytes() == b.phases_ms.tobytes()
        assert a.end_to_end_ms.tobytes() == b.end_to_end_ms.tobytes()
        assert a.broadcast_ms == b.broadcast_ms
        assert a.total_elapsed_ms == b.total_elapsed_ms

    def test_invalid_concurrency(self):
        with pytest.raises(ValueError):
            gossip.measure_latencies(0)
