import numpy as np
import pytest

import reference
from bfel import gossip
from bfel.gossip import GossipNetwork

SEEDS = range(20)


@pytest.mark.parametrize("fanout", [1, 2, 3])
@pytest.mark.parametrize("node_count", [2, 3, 64, 128])
@pytest.mark.parametrize("last_origin", [False, True])
def test_gossip_matches_the_per_sender_loop(node_count, fanout, last_origin):
    origin = node_count - 1 if last_origin else 0
    for seed in SEEDS:
        net = GossipNetwork(node_count=node_count, fanout=fanout, seed=seed)
        hops, times = gossip.gossip_broadcast(net, origin)
        want_hops, want_times = reference.gossip_broadcast(net, origin)
        assert hops == want_hops, seed
        assert times.tobytes() == want_times.tobytes(), seed


@pytest.mark.parametrize(
    "node_count, origin", [(1, 0), (2, 0), (2, 1), (50, 0), (50, 17), (128, 127)]
)
def test_sequential_broadcast_is_byte_identical_to_the_loop(node_count, origin):
    for seed in SEEDS:
        net = GossipNetwork(node_count=node_count, fanout=2, seed=seed)
        hops, times = gossip.sequential_broadcast(net, origin)
        want_hops, want_times = reference.sequential_broadcast(net, origin)
        assert hops == want_hops
        assert times.tobytes() == want_times.tobytes()


@pytest.mark.parametrize("concurrency", [1, 7, 100])
@pytest.mark.parametrize("seed", [0, 4])
@pytest.mark.parametrize("broadcast", [None, "gossip", "sequential"])
def test_latency_arrays_are_bit_identical_to_the_request_loop(
    concurrency, seed, broadcast
):
    net = None if broadcast is None else GossipNetwork(50, 2, seed=seed)
    use_gossip = broadcast == "gossip"
    report = gossip.measure_latencies(concurrency, net, use_gossip, seed)
    requests, broadcast_ms, total_ms = reference.measure_latencies(
        concurrency, net, use_gossip, seed
    )
    want = np.array(requests)
    assert report.phases_ms.tobytes() == want[:, :4].tobytes()
    assert report.end_to_end_ms.tobytes() == want[:, 4].tobytes()
    assert (report.broadcast_ms, report.total_elapsed_ms) == (broadcast_ms, total_ms)
    if broadcast is not None:
        assert broadcast_ms > 0
