"""Plain reference implementations that the tests compare against.

No program path calls these:
- every gradient the program takes is one `models.stacked_loss_and_grad`
  call for a whole cohort; `loss_and_grad` below is its one-model case
  over a whole sample set, in one call with no 512-sample chunks;
- `fedcurv.local_train` takes the one-model steps below for a whole
  cohort at once, reading its batches from one shuffled copy of each
  client's data per epoch;
- `bfel.gossip` runs each hop, the sequential baseline and the latency
  model as array operations;
- `bfel.models` orders each conv stage's outputs pool-window-major,
  builds no output that a pool window misses, and gathers its columns and
  scatters their gradients through one index per shape; the CNN below
  keeps the row-major conv layout and builds every per-sample gradient
  whole;
- the server steps and the divergence metric add the rows of a round's
  (K, P) stacks; the per-client loops below add one client's vectors at
  a time, sorted by client id, each times its weight, from zeros;
- `bfel.ledger` hashes array buffers in place;
- the program reads IDX files and never writes them: `save_idx` makes
  them for the tests.
"""

import hashlib
import math
import struct
from typing import NamedTuple

import numpy as np

from bfel import models
from bfel.data import IDX_IMAGE_MAGIC, IDX_LABEL_MAGIC
from bfel.gossip import (
    BASE_TCT_MS,
    BASE_TRD_MS,
    BASE_VTR_MS,
    HOP_JITTER_MS,
    HOP_LATENCY_MS,
    GossipCoverageError,
    GossipNetwork,
)
from bfel.models import LayoutMismatchError, ModelSpec, ParameterVector


def slot(params: ParameterVector, layer: str, role: str) -> np.ndarray:
    """One (layer, role) slot of params, as a view of its values."""
    return params.layout.stacked(params.values[None], layer, role)[0]


def require_same_layout(*vectors) -> None:
    if len({v.layout for v in vectors}) > 1:
        raise LayoutMismatchError("parameter vectors have different layouts")


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


def loss_and_grad(
    spec: ModelSpec, params: ParameterVector, x: np.ndarray, labels: np.ndarray
) -> tuple[float, ParameterVector]:
    """Mean cross-entropy over all of x and its gradient, in one K=1
    `stacked_loss_and_grad` call, with no chunking; a non-finite loss or
    gradient raises."""
    losses, grads = models.stacked_loss_and_grad(
        spec, params.values[None], x[None], labels[None]
    )
    if not math.isfinite(losses[0]) or not np.all(np.isfinite(grads)):
        raise models.NumericalError("loss/gradient not finite")
    return float(losses[0]), params.with_values(grads[0])


def fisher_diagonal(spec: ModelSpec, theta: ParameterVector, ds) -> ParameterVector:
    """F_k as `fedcurv.client_round` takes it: the mean over ds of the
    squared per-sample log-likelihood gradients at theta."""
    sums = models.sum_squared_loglik_grads(spec, theta, ds.samples, ds.labels)
    return theta.with_values(sums / len(ds))


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
    loss, _ = loss_and_grad(spec, theta, x, labels)
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
    _, grad = loss_and_grad(spec, theta, x, labels)
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


def measure_latencies(concurrency: int, net, use_gossip: bool, seed: int):
    """The latency model one request at a time: four scalar draws each.

    Returns each request's (init, trd, vtr, tct, end_to_end) in ms, the
    broadcast time (0 without a network) and the total elapsed time.
    """
    rng = np.random.default_rng([seed, concurrency])

    def jitter(base):
        return base * (0.9 + 0.2 * float(rng.random()))

    requests = []
    manager_busy_ms = 0.0
    for _ in range(concurrency):
        init = jitter(1.0)
        trd = jitter(BASE_TRD_MS)
        vtr = jitter(BASE_VTR_MS)
        tct = jitter(BASE_TCT_MS)
        # queue wait accrues while earlier validations run
        manager_response = manager_busy_ms + vtr
        manager_busy_ms += vtr
        requests.append((init, trd, vtr, tct, init + trd + manager_response + tct))
    broadcast_ms = 0.0
    if net is not None:
        broadcast = gossip_broadcast if use_gossip else sequential_broadcast
        broadcast_ms = float(broadcast(net, origin=0)[1].max())
    return requests, broadcast_ms, max(r[4] for r in requests) + broadcast_ms


def im2col(x: np.ndarray, k: int) -> np.ndarray:
    """The k x k patches of x as (n, C*k*k, Ho*Wo) columns, one per conv
    output position in row-major order."""
    n, c, h, w = x.shape
    ho, wo = h - k + 1, w - k + 1
    cols = np.empty((n, c, k, k, ho, wo))
    for i in range(k):
        for j in range(k):
            cols[:, :, i, j] = x[:, :, i : i + ho, j : j + wo]
    return cols.reshape(n, c * k * k, ho * wo)


def col2im(dcols: np.ndarray, x_shape, k: int) -> np.ndarray:
    """Column gradients summed onto their pixels by k*k shifted adds."""
    n, c, h, w = x_shape
    ho, wo = h - k + 1, w - k + 1
    dc = dcols.reshape(n, c, k, k, ho, wo)
    dx = np.zeros(x_shape)
    for i in range(k):
        for j in range(k):
            dx[:, :, i : i + ho, j : j + wo] += dc[:, :, i, j]
    return dx


def pool_views(x: np.ndarray) -> list:
    """The four stride-2 views of an (n, C, H, W) map's 2x2 pooling grid,
    in window order (0,0), (0,1), (1,0), (1,1)."""
    ho, wo = x.shape[2] // 2, x.shape[3] // 2
    return [x[:, :, i : 2 * ho : 2, j : 2 * wo : 2] for i in (0, 1) for j in (0, 1)]


def window_major(x: np.ndarray) -> np.ndarray:
    """An (n, C, H, W) map as (n, C, 4, L): each pool view, flattened.

    An odd last row or column, which no window covers, is dropped.
    """
    return np.stack([v.reshape(v.shape[:2] + (-1,)) for v in pool_views(x)], axis=2)


def maxpool2(x: np.ndarray):
    """2x2 max-pool of an (n, C, H, W) map, and each window's position of
    its first maximum."""
    v = pool_views(x)
    out = np.maximum(np.maximum(v[0], v[1]), np.maximum(v[2], v[3]))
    idx = np.select([v[0] == out, v[1] == out, v[2] == out], [0, 1, 2], 3)
    return out, idx.astype(np.int8)


def maxpool2_backward(dout: np.ndarray, idx: np.ndarray, x_shape) -> np.ndarray:
    """dout routed to each window's first maximum in a zero-filled dx."""
    dx = np.zeros(x_shape)
    for pos, view in enumerate(pool_views(dx)):
        np.multiply(dout, idx == pos, out=view)
    return dx


def cnn_per_sample(spec: ModelSpec, thetas, x, labels):
    """Logits (K, N, classes) of K CNNs, each on its N samples, and every
    sample's gradient of -log p(label), (K, N, P), in row-major conv layout.

    Each conv stage is an im2col matmul, a ReLU and a 2x2 max-pool of the
    whole (Ho, Wo) map; every per-sample gradient is built whole.
    """
    layout = models.build_layout(spec)
    kk, n = labels.shape
    k = models.KERNEL
    a = x.reshape((kk * n,) + spec._chw())
    layers = []  # (name, input, mask of the output, conv pooling state)
    for name in ("conv0", "conv1"):
        wgt = layout.stacked(thetas, name, "weight")
        cols = im2col(a, k).reshape(kk, n, wgt[0, 0].size, -1)
        z = wgt.reshape(kk, 1, wgt.shape[1], -1) @ cols
        z = z + layout.stacked(thetas, name, "bias")[:, None, :, None]
        z = np.maximum(z, 0.0).reshape(
            (kk * n, wgt.shape[1], a.shape[2] - k + 1, a.shape[3] - k + 1)
        )
        pooled, idx = maxpool2(z)
        layers.append((name, cols, pooled > 0, (idx, z.shape, a.shape)))
        a = pooled
    a = a.reshape(kk, n, -1)
    for name in ("fc0", "fc1"):
        z = a @ layout.stacked(thetas, name, "weight")
        z = z + layout.stacked(thetas, name, "bias")[:, None, :]
        layers.append((name, a, z > 0 if name == "fc0" else None, None))
        a = np.maximum(z, 0.0) if name == "fc0" else z
    logits = a
    shifted = logits - logits.max(axis=-1, keepdims=True)
    da = np.exp(shifted) / np.exp(shifted).sum(axis=-1, keepdims=True)
    da[np.arange(kk)[:, None], np.arange(n), labels] -= 1.0
    grads = np.zeros((kk, n, layout.size))
    for name, inputs, mask, pool in reversed(layers):
        wgt = layout.stacked(thetas, name, "weight")
        if mask is not None:
            da = da.reshape(mask.shape) * mask
        if pool is None:
            gw = inputs[..., :, None] * da[..., None, :]
            gb = da
            da = da @ wgt.transpose(0, 2, 1)
        else:
            idx, z_shape, in_shape = pool
            dz = maxpool2_backward(da, idx, z_shape).reshape(kk, n, z_shape[1], -1)
            gw = dz @ inputs.transpose(0, 1, 3, 2)
            gb = dz.sum(axis=-1)
            wmat = wgt.reshape(kk, 1, z_shape[1], -1).transpose(0, 1, 3, 2)
            da = col2im((wmat @ dz).reshape(kk * n, -1, dz.shape[-1]), in_shape, k)
        start, stop, _ = layout.slots[name, "weight"]
        grads[:, :, start:stop] = gw.reshape(kk, n, -1)
        start, stop, _ = layout.slots[name, "bias"]
        grads[:, :, start:stop] = gb
    return logits, grads


def cnn_stacked_loss_and_grad(spec: ModelSpec, thetas, x, labels):
    """Mean cross-entropy (K,) and its gradient (K, P) from cnn_per_sample."""
    logits, grads = cnn_per_sample(spec, thetas, x, labels)
    kk, n = labels.shape
    shifted = logits - logits.max(axis=-1, keepdims=True)
    logp = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    losses = -logp[np.arange(kk)[:, None], np.arange(n), labels].mean(axis=1)
    return losses, grads.mean(axis=1)


def save_idx(dataset, images_path, labels_path) -> None:
    """Write a dataset of 2-D samples in [0, 1] out as an IDX pair, each
    value rounded to the nearest of 256 levels, for `data.load_idx` to read."""
    samples = dataset.samples
    if samples.ndim != 3:
        raise ValueError("IDX export requires (N, rows, cols) samples")
    n, rows, cols = samples.shape
    pixels = np.clip(np.rint(samples * 255.0), 0, 255).astype(np.uint8)
    with open(images_path, "wb") as f:
        f.write(struct.pack(">IIII", IDX_IMAGE_MAGIC, n, rows, cols))
        f.write(pixels.tobytes())
    with open(labels_path, "wb") as f:
        f.write(struct.pack(">II", IDX_LABEL_MAGIC, n))
        f.write(dataset.labels.astype(np.uint8).tobytes())


def digest(tag: bytes, header: bytes, *arrays) -> bytes:
    """SHA-256 of tag, header and each array's length-prefixed <f8 bytes."""
    h = hashlib.sha256(tag + header)
    for arr in arrays:
        raw = np.ascontiguousarray(arr, dtype="<f8").tobytes()
        h.update(struct.pack("<I", len(raw)) + raw)
    return h.digest()



class Update(NamedTuple):
    """One client's upload on its own: its model and, under FedCurv, its
    Fisher diagonal."""

    client_id: int
    sample_count: int
    theta: np.ndarray
    fisher: np.ndarray | None = None


def client_sum(updates, field, weights=None) -> np.ndarray:
    """Sum of weight * `field` ("theta" or "fisher") over updates, in
    client-id order, from zeros; weights line up with updates, each a
    scalar or a per-coordinate array, 1.0 each by default."""
    if weights is None:
        weights = [1.0] * len(updates)
    pairs = sorted(zip(weights, updates), key=lambda wu: wu[1].client_id)
    total = np.zeros(len(updates[0].theta))
    for w, u in pairs:
        total += w * getattr(u, field)
    return total


def fedcurv_merge(theta, updates, eta_global, epsilon) -> np.ndarray:
    """FedCurv's server step over per-client updates: theta + eta_global *
    (merged - theta), merged = (sum F_k theta_k + epsilon sum theta_k) /
    (sum F_k + K epsilon)."""
    precision = client_sum(updates, "fisher") + len(updates) * epsilon
    merged = client_sum(updates, "theta", [u.fisher for u in updates])
    merged += epsilon * client_sum(updates, "theta")
    merged /= precision
    return theta + eta_global * (merged - theta)


def fedavg_average(updates) -> np.ndarray:
    """FedAvg's server step over per-client updates: the client models
    weighted by n_k / N."""
    total_n = sum(u.sample_count for u in updates)
    return client_sum(updates, "theta", [u.sample_count / total_n for u in updates])


def divergence(updates) -> float:
    """Mean L2 distance of the client models from their mean, taken client
    by client in client-id order."""
    mean = client_sum(updates, "theta") / len(updates)
    squares = []
    for u in sorted(updates, key=lambda u: u.client_id):
        diff = u.theta - mean
        diff *= diff
        squares.append(np.add.reduce(diff))
    return float(np.sqrt(squares).mean())
