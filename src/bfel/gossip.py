"""Gossip propagation model and simulated-clock latency bookkeeping.

Push gossip: every informed node forwards to `fanout` uniformly random
peers per hop. Latency measurements decompose each transaction request
into retrieve (TRD), validate (VTR), and confirm (TCT) phases on a
simulated clock; the manager node serves validation requests one at a
time, so concurrency shows up as queueing delay.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


# Simulated timings, not measurements: one gossip hop takes HOP_LATENCY_MS
# plus up to HOP_JITTER_MS, and a request's retrieve (TRD), validate (VTR)
# and confirm (TCT) phases take their BASE_*_MS within +-10%.
HOP_LATENCY_MS = 5.0
HOP_JITTER_MS = 1.0
BASE_TRD_MS = 30.0
BASE_VTR_MS = 35.0
BASE_TCT_MS = 70.0


class GossipCoverageError(RuntimeError):
    """Gossip failed to reach all nodes within the hop cap."""


@dataclass(frozen=True)
class GossipNetwork:
    node_count: int
    fanout: int
    seed: int = 0

    def __post_init__(self):
        if self.node_count < 1:
            raise ValueError("node_count must be >= 1")
        if self.fanout < 1:
            raise ValueError("fanout must be >= 1")


def _hop_delays(rng: np.random.Generator, shape) -> np.ndarray:
    return HOP_LATENCY_MS + HOP_JITTER_MS * rng.random(shape)


def gossip_broadcast(
    net: GossipNetwork, origin: int
) -> tuple[int, np.ndarray]:
    """Simulate push gossip from `origin`.

    Each hop, every informed node (in ascending order) pushes to `fanout`
    uniformly random other nodes, and an uninformed node takes the earliest
    of its arrivals. A hop makes two draws: the peers, one row per sender,
    then one delay per peer.

    Returns (hops until full coverage, per-node receive times in ms).
    Raises GossipCoverageError if the hop cap is exceeded (never hangs).
    """
    n = net.node_count
    if not 0 <= origin < n:
        raise ValueError("origin out of range")
    rng = np.random.default_rng([net.seed, origin])
    times = np.full(n, np.inf)
    times[origin] = 0.0
    if n == 1:
        return 0, times
    informed = np.zeros(n, dtype=bool)
    informed[origin] = True
    hop_cap = max(64, 10 * math.ceil(math.log2(n)) + 10)
    for hop in range(1, hop_cap + 1):
        senders = np.flatnonzero(informed)
        # uniform over the other nodes: draw from n - 1, skip past the sender
        peers = rng.integers(0, n - 1, size=(senders.size, net.fanout))
        peers += peers >= senders[:, None]
        arrivals = times[senders, None] + _hop_delays(rng, peers.shape)
        fresh = ~informed[peers]
        reached = peers[fresh]
        np.minimum.at(times, reached, arrivals[fresh])
        informed[reached] = True
        if informed.all():
            return hop, times
    raise GossipCoverageError(
        f"{np.count_nonzero(informed)}/{n} nodes reached after {hop_cap} hops"
    )


def sequential_broadcast(net: GossipNetwork, origin: int) -> tuple[int, np.ndarray]:
    """Baseline without gossip: the origin contacts every node one by one."""
    if not 0 <= origin < net.node_count:
        raise ValueError("origin out of range")
    rng = np.random.default_rng([net.seed, origin])
    times = np.zeros(net.node_count)
    others = np.arange(net.node_count) != origin
    times[others] = np.cumsum(_hop_delays(rng, net.node_count - 1))
    return max(0, net.node_count - 1), times


@dataclass(frozen=True)
class LatencyReport:
    phases_ms: np.ndarray  # (concurrency, 4): each request's init, TRD, VTR, TCT
    end_to_end_ms: np.ndarray  # (concurrency,)
    broadcast_ms: float  # propagation of the confirmations to all nodes
    total_elapsed_ms: float

    def median_end_to_end(self) -> float:
        return float(np.median(self.end_to_end_ms))


def measure_latencies(
    concurrency: int,
    net: GossipNetwork | None = None,
    use_gossip: bool = True,
    seed: int = 0,
) -> LatencyReport:
    """Simulate `concurrency` simultaneous transaction requests.

    end_to_end = request init + TRD + manager response + TCT, where the
    manager validates one request at a time, so a request's response waits
    for the VTR of every request before it (queueing).
    """
    if concurrency < 1:
        raise ValueError("concurrency must be >= 1")
    rng = np.random.default_rng([seed, concurrency])
    # each request's init, TRD, VTR and TCT times, drawn in that order
    base_ms = np.array([1.0, BASE_TRD_MS, BASE_VTR_MS, BASE_TCT_MS])
    phases = base_ms * (0.9 + 0.2 * rng.random((concurrency, 4)))
    init, trd, vtr, tct = phases.T
    end_to_end = init + trd + np.cumsum(vtr) + tct
    broadcast_ms = 0.0
    if net is not None:
        broadcast = gossip_broadcast if use_gossip else sequential_broadcast
        broadcast_ms = float(broadcast(net, origin=0)[1].max())
    return LatencyReport(
        phases, end_to_end, broadcast_ms, float(end_to_end.max()) + broadcast_ms
    )
