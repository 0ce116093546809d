"""Plain reference implementations that the tests compare against.

No program path calls these: `fedcurv.local_train` takes the one-model
steps below for a whole cohort at once, reading its batches from one
shuffled copy of each client's data per epoch, and `bfel.gossip` runs each
hop and the sequential baseline as array operations.
"""

import math

import numpy as np

from bfel import models
from bfel.gossip import (
    HOP_JITTER_MS,
    HOP_LATENCY_MS,
    GossipCoverageError,
    GossipNetwork,
)
from bfel.models import ModelSpec, ParameterVector, require_same_layout


def shuffled_batches(n: int, batch_size: int, rng: np.random.Generator):
    """Yield index arrays covering [0, n) in seeded-shuffled order."""
    order = rng.permutation(n)
    for start in range(0, n, batch_size):
        yield order[start : start + batch_size]


def sgd_step(
    params: ParameterVector, grad: ParameterVector, lr: float
) -> ParameterVector:
    """One plain SGD step: params - lr * grad."""
    if lr <= 0:
        raise ValueError("lr must be positive")
    require_same_layout(params, grad)
    return params.with_values(params.values - lr * grad.values)


def regularized_loss(
    spec: ModelSpec,
    theta: ParameterVector,
    theta_global: ParameterVector,
    fisher: ParameterVector,
    x: np.ndarray,
    labels: np.ndarray,
    lam: float,
) -> float:
    """Cross-entropy plus (lam/2) * sum_i F[i] * (theta - theta_global)[i]^2."""
    require_same_layout(theta, theta_global)
    loss, _ = models.loss_and_grad(spec, theta, x, labels)
    if lam == 0.0:
        return loss
    diff = theta.values - theta_global.values
    return loss + 0.5 * lam * float(np.dot(fisher.values, diff * diff))


def regularized_gradient(
    spec: ModelSpec,
    theta: ParameterVector,
    theta_global: ParameterVector,
    fisher: ParameterVector,
    x: np.ndarray,
    labels: np.ndarray,
    lam: float,
) -> ParameterVector:
    """Gradient of regularized_loss: dL + lam * F * (theta - theta_global)."""
    require_same_layout(theta, theta_global)
    _, grad = models.loss_and_grad(spec, theta, x, labels)
    if lam == 0.0:
        return grad
    penalty = lam * fisher.values * (theta.values - theta_global.values)
    return grad.with_values(grad.values + penalty)


def gossip_broadcast(net: GossipNetwork, origin: int) -> tuple[int, np.ndarray]:
    """Push gossip that loops over the senders in Python.

    It takes the per-hop draws `bfel.gossip.gossip_broadcast` takes (peers
    for every sender, then a delay for every peer) and then, one sender and
    one peer at a time, keeps each uninformed peer's earliest arrival.
    """
    n = net.node_count
    rng = np.random.default_rng([net.seed, origin])
    times = np.full(n, np.inf)
    times[origin] = 0.0
    if n == 1:
        return 0, times
    informed = {origin}
    hop_cap = max(64, 10 * math.ceil(math.log2(n)) + 10)
    for hop in range(1, hop_cap + 1):
        senders = sorted(informed)
        peers = rng.integers(0, n - 1, size=(len(senders), net.fanout))
        jitter = rng.random(peers.shape)
        newly = {}
        for row, node in enumerate(senders):
            for col in range(net.fanout):
                peer = int(peers[row, col])
                if peer >= node:
                    peer += 1
                delay = HOP_LATENCY_MS + HOP_JITTER_MS * float(jitter[row, col])
                t = times[node] + delay
                if peer not in informed and (peer not in newly or t < newly[peer]):
                    newly[peer] = t
        for peer, t in newly.items():
            times[peer] = t
            informed.add(peer)
        if len(informed) == n:
            return hop, times
    raise GossipCoverageError(f"{len(informed)}/{n} nodes reached after {hop_cap} hops")


def sequential_broadcast(net: GossipNetwork, origin: int) -> tuple[int, np.ndarray]:
    """The origin contacts every other node in index order, one draw each."""
    rng = np.random.default_rng([net.seed, origin])
    times = np.zeros(net.node_count)
    clock = 0.0
    for node in range(net.node_count):
        if node == origin:
            continue
        clock += HOP_LATENCY_MS + HOP_JITTER_MS * float(rng.random())
        times[node] = clock
    return max(0, net.node_count - 1), times
