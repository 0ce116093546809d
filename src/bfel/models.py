"""Owned tensor math and model definitions (MLP and small CNN).

Everything here is pure numpy in float64: exact analytic forward/backward
passes for the two fixed architectures (convolutions as im2col matmuls),
cross-entropy loss, and the flat parameter layout. A model's parameters
are one float64 (P,) array, and K models' one (K, P) stack; every call
reads their layout from its `ModelSpec`.
"""

from __future__ import annotations

import functools
import math
import threading
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np


class ShapeMismatchError(ValueError):
    """Input or parameter shape does not match the model spec."""


class LayoutMismatchError(ValueError):
    """Parameters, or a stack of them, do not have the shape of their
    spec's layout."""


class NumericalError(ArithmeticError):
    """A public operation produced a non-finite value.

    `positions` lists the offending rows of a stacked client axis, when the
    operation had one.
    """

    def __init__(self, message: str, positions=()):
        super().__init__(message)
        self.positions = tuple(positions)


KERNEL = 3  # the side of every CNN convolution's square kernel
CONV_CHANNELS = (8, 16)  # the output channels of the CNN's two conv stages
CNN_HIDDEN = (64,)  # the hidden widths of every run's CNN dense stack


@dataclass(frozen=True)
class ModelSpec:
    """What a run sets of a model: kind, input shape, classes and hidden
    widths.

    Both kinds end in one dense stack, flat -> hidden... -> classes, with a
    ReLU after every layer but the last: an MLP's flat is its input size, a
    CNN's the output size of two conv(KERNEL x KERNEL, valid, stride 1) +
    ReLU + 2x2 max-pool stages of CONV_CHANNELS channels. Every layer has a
    bias.
    """

    kind: str
    input_shape: tuple[int, ...]
    classes: int
    hidden: tuple[int, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "input_shape", tuple(self.input_shape))
        object.__setattr__(self, "hidden", tuple(self.hidden))
        if self.kind not in ("mlp", "cnn"):
            raise ValueError(f"unknown model kind {self.kind!r}")
        if self.classes < 1:
            raise ValueError("classes must be >= 1")
        if any(width < 1 for width in self.hidden):
            raise ValueError(f"hidden widths must be >= 1, got {self.hidden}")
        build_layout(self)  # raises ShapeMismatchError for a too-small input

    def _chw(self) -> tuple[int, int, int]:
        if len(self.input_shape) == 2:
            return (1,) + self.input_shape
        if len(self.input_shape) == 3:
            return self.input_shape
        raise ShapeMismatchError(
            f"cnn input_shape must be (H, W) or (C, H, W), got {self.input_shape}"
        )


@dataclass(frozen=True)
class ParamLayout:
    """The flat parameter order: (layer, role) -> (start, stop, shape) in
    flat order, and the total size P; compared by value, hashed by size."""

    slots: dict[tuple[str, str], tuple[int, int, tuple[int, ...]]] = field(hash=False)
    size: int

    def stacked(self, values: np.ndarray, layer: str, role: str) -> np.ndarray:
        """One slot of (K, size) stacked values, as a (K, *shape) view."""
        start, stop, shape = self.slots[layer, role]
        return values[:, start:stop].reshape((values.shape[0],) + shape)


@functools.cache
def build_layout(spec: ModelSpec) -> ParamLayout:
    """Derive the canonical flat parameter layout for an architecture: a
    CNN's two conv layers, then the dense stack's layers fc0, fc1, ...,
    each layer's weight followed by its bias.

    Cached per spec: both are frozen, so every caller shares one layout.
    """
    slots = {}
    size = 0

    def add(layer, shape, width):
        # the layer's weight of `shape`, then its `width` biases
        nonlocal size
        for role, part in (("weight", shape), ("bias", (width,))):
            slots[layer, role] = (size, size + math.prod(part), tuple(part))
            size += math.prod(part)

    if spec.kind == "mlp":
        flat = math.prod(spec.input_shape)
    else:
        c, h, w = spec._chw()
        for i, out_c in enumerate(CONV_CHANNELS):
            add(f"conv{i}", (out_c, c, KERNEL, KERNEL), out_c)
            c, h, w = out_c, (h - KERNEL + 1) // 2, (w - KERNEL + 1) // 2
        if h < 1 or w < 1:
            raise ShapeMismatchError("input too small for two conv+pool stages")
        flat = c * h * w
    dims = [flat, *spec.hidden, spec.classes]
    for i in range(len(dims) - 1):
        add(f"fc{i}", (dims[i], dims[i + 1]), dims[i + 1])
    return ParamLayout(slots, size)


def init_params(spec: ModelSpec, seed: int) -> np.ndarray:
    """Glorot-uniform weights, zero biases, from a seeded generator."""
    layout = build_layout(spec)
    rng = np.random.default_rng(seed)
    values = np.empty(layout.size)
    for (_, role), (start, stop, shape) in layout.slots.items():
        view = values[start:stop]
        if role == "bias":
            view[:] = 0.0
            continue
        if len(shape) == 2:
            fan_in, fan_out = shape
        else:  # conv weight (OC, C, k, k)
            oc, c, k, _ = shape
            fan_in = c * k * k
            fan_out = oc * k * k
        a = math.sqrt(6.0 / (fan_in + fan_out))
        view[:] = rng.uniform(-a, a, stop - start)
    return values


# ---------------------------------------------------------------------------
# forward / backward primitives


class _Columns(threading.local):
    """Each thread's im2col work buffers, one per conv stage, kept across
    calls and grown only when a call needs more, as a freed column array's
    pages would fault in again on every call. A call reads its columns back
    in its backward pass, so no other thread may write them."""

    def __init__(self):
        self.buffers = [np.empty(0) for _ in CONV_CHANNELS]


_COLUMNS = _Columns()


@functools.cache
def _scatter_index(c: int, h: int, w: int, k: int) -> np.ndarray:
    """For each of one sample's (C*k*k, 4*L) columns, the flat (C, H, W)
    pixel it holds: `_im2col` gathers through it and `_col2im` scatters
    back; built once per shape.

    The columns are pool-window-major: the row of input channel c and
    kernel offset (i, j) holds four blocks, one per 2x2 pool window member
    in `_maxpool2`'s order, each over the L = (Ho//2)*(Wo//2) windows in
    row-major order. An odd last conv output row or column, which no window
    covers, has no column."""
    pixels = np.arange(c * h * w).reshape(c, h, w)
    sc, sh, sw = pixels.strides
    shape = (c, k, k, 2, 2, (h - k + 1) // 2, (w - k + 1) // 2)
    strides = (sc, sh, sw, sh, sw, 2 * sh, 2 * sw)
    patches = np.lib.stride_tricks.as_strided(pixels, shape, strides)
    return patches.ravel()


def _im2col(x: np.ndarray, k: int, stage: int) -> np.ndarray:
    """The k x k patches of x as (n, C*k*k, 4*L) columns in `stage`'s
    buffer, in `_scatter_index`'s order: one gather through that index, as
    a strided copy of the same patches runs one inner loop per row of
    pool windows, Wo//2 values long.

    The result is a view of this thread's buffer, overwritten by its next
    call for the same stage, so it must not outlive the call that made it.
    """
    n, c, h, w = x.shape
    index = _scatter_index(c, h, w, k)
    size = n * index.size
    if _COLUMNS.buffers[stage].size < size:
        _COLUMNS.buffers[stage] = np.empty(size)
    cols = _COLUMNS.buffers[stage][:size].reshape(n, index.size)
    # an in-range index: "clip" clips nothing and writes straight into out
    np.take(x.reshape(n, -1), index, axis=1, out=cols, mode="clip")
    return cols.reshape(n, c * k * k, -1)


def _col2im(dcols: np.ndarray, x_shape, k: int) -> np.ndarray:
    """Sum (n, C*k*k, 4*L) column gradients back onto their (n, C, H, W)
    pixels; a pixel that no pool window reads gets +0.0.

    One bincount per sample: each pixel adds its contributions in (i, j)
    window order, starting from +0.0, as a loop of k*k shifted adds would.
    """
    n, c, h, w = x_shape
    index = _scatter_index(c, h, w, k)
    dx = np.empty((n, c * h * w))
    for s, weights in enumerate(dcols.reshape(n, -1)):
        dx[s] = np.bincount(index, weights=weights, minlength=c * h * w)
    return dx.reshape(x_shape)


def _maxpool2(z: np.ndarray, index: bool = True):
    """2x2 max-pool of window-major (..., 4, L) conv outputs to (..., L):
    z[..., 2*i + j, :] is member (i, j) of each window. idx holds the
    member of the first maximum, and is None when `index` is false."""
    v = [z[..., p, :] for p in range(4)]
    out = np.maximum(np.maximum(v[0], v[1]), np.maximum(v[2], v[3]))
    if not index:
        return out, None
    # the first p with v[p] == out, as miss0 * (1 + miss1 * (1 + miss2))
    # where miss_p = (v[p] != out): no boolean-mask writes
    idx = (v[2] != out).astype(np.int8)
    idx += 1
    idx *= v[1] != out
    idx += 1
    idx *= v[0] != out
    return out, idx


def _maxpool2_backward(dout: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Route (..., L) dout to each window's first maximum, as (..., 4, L):
    one product with the index's four member masks."""
    return dout[..., None, :] * (idx[..., None, :] == np.arange(4)[:, None])


def _check_inputs(spec: ModelSpec, thetas, x, labels) -> None:
    """The one check of a model call's inputs, in stacked form.

    thetas is (K, P) in the spec's layout, x (K, N, *input_shape) and labels
    (K, N), with N >= 1; a one-model call passes theta[None], x[None] and
    labels[None], so a theta of any shape but (P,) fails here. Samples are
    not checked for finiteness: a `Dataset` checked them when it was built.
    """
    size = build_layout(spec).size
    if labels.ndim != 2 or labels.shape != x.shape[:2]:
        raise ShapeMismatchError(
            f"labels shape {labels.shape[1:]} does not give one label per "
            f"sample of inputs shape {x.shape[1:]}"
        )
    if thetas.shape != (labels.shape[0], size):
        raise LayoutMismatchError(
            f"thetas shape {thetas.shape} is not {(labels.shape[0], size)}"
        )
    if labels.shape[1] < 1:
        raise ShapeMismatchError("a model call needs at least one sample")
    if x.shape[2:] != spec.input_shape:
        raise ShapeMismatchError(
            f"input: sample shape {x.shape[2:]} does not "
            f"match spec input_shape {spec.input_shape}"
        )
    if labels.min() < 0 or labels.max() >= spec.classes:
        raise ShapeMismatchError(f"label out of range for {spec.classes} classes")


def _forward_cached(spec: ModelSpec, thetas, x, keep=True):
    """Run the forward pass of K models, keeping what backprop needs.

    thetas is (K, P) in the spec's layout; x is (K, N, *input_shape),
    client k's N samples seen by model k. A CNN runs its conv stages, then
    both kinds run the len(spec.hidden) + 1 layers of the dense stack.
    Every weight op is one matmul batched over the client axis; im2col and
    the pools run on the K*N samples.
    A conv's outputs are pool-window-major, (K, N, OC, 4, L) for L pool
    windows, and its pooled map is NCHW again.
    Each cache entry holds a layer's input (dense activations (K, N, fan_in),
    or im2col columns (K, N, C*k*k, 4*L) for a conv, a view of that stage's
    column buffer), the ReLU mask of its output (None on the logits) and,
    for a conv, the pooling indices and the (K*N, C, H, W) input shape.
    With keep false, the same logits come with no caches, and no mask or
    pooling index is computed.
    """
    layout = build_layout(spec)
    caches = []
    kk, n = x.shape[:2]
    if spec.kind == "mlp":
        a = x.reshape(kk, n, -1)
    else:
        a = x.reshape((kk * n,) + spec._chw())
        k = KERNEL
        for i, oc in enumerate(CONV_CHANNELS):
            name = f"conv{i}"
            wgt = layout.stacked(thetas, name, "weight")
            cols = _im2col(a, k, i)
            cols = cols.reshape((kk, n) + cols.shape[1:])
            z = wgt.reshape(kk, 1, oc, -1) @ cols
            # bias and ReLU on the pooled map, a quarter of the elements:
            # max(z) + b is max(z + b) bit for bit, as rounding is monotone
            pooled, pool_idx = _maxpool2(z.reshape(kk, n, oc, 4, -1), keep)
            pooled += layout.stacked(thetas, name, "bias")[:, None, :, None]
            if keep:
                caches.append(("conv", name, cols, pooled > 0, pool_idx, a.shape))
            pooled_shape = (kk * n, oc, (a.shape[2] - k + 1) // 2, -1)
            a = np.maximum(pooled, 0.0, out=pooled).reshape(pooled_shape)
        a = a.reshape(kk, n, -1)
    dense = len(spec.hidden) + 1
    for i in range(dense):
        name = f"fc{i}"
        z = a @ layout.stacked(thetas, name, "weight")
        z += layout.stacked(thetas, name, "bias")[:, None, :]
        last = i == dense - 1
        if keep:
            caches.append(("fc", name, a, None if last else z > 0))
        a = z if last else np.maximum(z, 0.0, out=z)
    return a, caches


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    shifted -= np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    return shifted


def _grad_sums(spec: ModelSpec, thetas, caches, dlogits, p):
    """The one backward pass: the sum over the samples of each per-sample
    gradient to the power p, (K, P); p = 1 gives the summed gradient, p = 2
    the Fisher sum.

    From the last cached layer to the first, each layer undoes its ReLU mask
    (a conv also its pool), adds its weight and bias sums, then computes da
    for the layer below; the model input's gradient is never computed. Every
    da below the logits is an array made here, which the masks overwrite;
    dlogits is only read. Dense per-sample gradients are never stacked
    whole: each is the outer product a[n] x delta[n], so the sum contracts
    to (a^p)^T @ (delta^p). A conv layer's is delta[n] @ cols[n]^T, an
    (OC, C*k*k) matrix per sample.
    """
    def power(a):
        return a if p == 1 else a**p

    layout = build_layout(spec)
    out = np.zeros(thetas.shape)
    da = dlogits
    for i in range(len(caches) - 1, -1, -1):
        kind, name, a, relu_mask, *conv = caches[i]
        wgt = layout.stacked(thetas, name, "weight")  # for the input gradient
        ow = layout.stacked(out, name, "weight")
        if kind == "fc":
            if relu_mask is not None:
                # da is w.r.t. this layer's post-ReLU output; undo the ReLU.
                # The logits have no mask, so da is the product made below
                da *= relu_mask
            delta = power(da)  # once, for the weights and the bias
            # straight into the output rows: no (K, fan_in, fan_out) temporary
            np.matmul(power(a).transpose(0, 2, 1), delta, out=ow)
            bias = delta.sum(axis=1)
            del delta  # not held while the layers below are summed
            if i:
                da = da @ wgt.transpose(0, 2, 1)
        else:
            pool_idx, in_shape = conv
            dpooled = da.reshape(relu_mask.shape)
            dpooled *= relu_mask
            dz = _maxpool2_backward(dpooled, pool_idx)
            dflat = dz.reshape(a.shape[:2] + (wgt.shape[1], -1))
            ow += power(dflat @ a.transpose(0, 1, 3, 2)).sum(axis=1).reshape(ow.shape)
            bias = power(dflat.sum(axis=3)).sum(axis=1)
            if i:
                wmat = wgt.reshape(wgt.shape[0], 1, wgt.shape[1], -1)
                dcols = (wmat.transpose(0, 1, 3, 2) @ dflat).reshape(
                    (-1,) + a.shape[2:]
                )
                da = _col2im(dcols, in_shape, KERNEL)
                del dcols  # not held while the next layer is summed
        layout.stacked(out, name, "bias")[...] += bias
    return out


def _output_grads(spec: ModelSpec, thetas, x, labels):
    """The one prologue of both gradient calls: check the inputs and run the
    cached forward pass.

    Returns each sample's log-likelihood (K, N), the caches, and the
    unscaled per-sample output gradients (K, N, classes), softmax minus
    one-hot.
    """
    _check_inputs(spec, thetas, x, labels)
    logits, caches = _forward_cached(spec, thetas, x)
    kk, n = labels.shape
    pick = np.arange(kk)[:, None], np.arange(n), labels  # each labelled logit
    logp = _log_softmax(logits)
    loglik = logp[pick]
    dlogits = np.exp(logp, out=logp)
    dlogits[pick] -= 1.0
    return loglik, caches, dlogits


def stacked_loss_and_grad(
    spec: ModelSpec, thetas: np.ndarray, inputs, labels
) -> tuple[np.ndarray, np.ndarray]:
    """Mean cross-entropy and its exact gradient for K models at once.

    thetas (K, P) holds one parameter vector per row, in the spec's layout;
    inputs (K, N, ...) and labels (K, N) hold each model's batch. Returns
    losses (K,) and gradients (K, P). Non-finite results are returned, not
    raised, so that the caller can name the rows they came from.
    """
    loglik, caches, dlogits = _output_grads(spec, thetas, inputs, labels)
    dlogits /= labels.shape[1]
    return -loglik.mean(axis=1), _grad_sums(spec, thetas, caches, dlogits, 1)


def forward(
    spec: ModelSpec, theta: np.ndarray, x: np.ndarray, labels: np.ndarray
) -> np.ndarray:
    """Logits (N, classes) for samples x (N, ...) labelled by labels (N,)."""
    thetas, x = theta[None], x[None]
    _check_inputs(spec, thetas, x, labels[None])
    logits, _ = _forward_cached(spec, thetas, x, keep=False)
    if not np.isfinite(logits).all():
        raise NumericalError("logits not finite")
    return logits[0]


def per_sample_loglik_grad(
    spec: ModelSpec, theta: np.ndarray, x: np.ndarray, labels: np.ndarray
) -> np.ndarray:
    """Gradient of log p(y|x; theta) for a single sample.

    No training path calls this; it is the one-sample reference that
    `sum_squared_loglik_grads` is tested against.
    """
    if labels.shape[:1] != (1,):
        raise ShapeMismatchError("per-sample gradient requires one sample")
    losses, grads = stacked_loss_and_grad(spec, theta[None], x[None], labels[None])
    if not math.isfinite(losses[0]) or not np.all(np.isfinite(grads)):
        raise NumericalError("loss/gradient not finite")
    return -grads[0]


def sum_squared_loglik_grads(
    spec: ModelSpec, theta: np.ndarray, x: np.ndarray, labels: np.ndarray
) -> np.ndarray:
    """Sum over the samples x of squared per-sample log-likelihood gradients,
    added up chunk by chunk from zeros."""
    thetas = theta[None]
    out = np.zeros(thetas.shape[1])
    for xc, lc in _chunks(x, labels):
        _, caches, dlogits = _output_grads(spec, thetas, xc[None], lc[None])
        out += _grad_sums(spec, thetas, caches, dlogits, 2)[0]
    if not np.all(np.isfinite(out)):
        raise NumericalError("squared log-likelihood gradients not finite")
    return out


def _chunks(x: np.ndarray, labels: np.ndarray):
    """(x, labels) as row views of at most 512 samples each, so that a
    full-dataset pass keeps the column buffers bounded. An empty set gives
    one empty chunk, whose model call's input check rejects it."""
    for start in range(0, max(len(labels), 1), 512):
        yield x[start : start + 512], labels[start : start + 512]


def lr_schedule(initial_lr: float, epoch: int) -> float:
    """Step decay: divide by 3 after every 5 epochs."""
    if epoch < 0:
        raise ValueError("epoch must be >= 0")
    # exact, then rounded once: 3**k converts to no float from k = 647 on
    return float(Fraction(initial_lr) / 3 ** (epoch // 5))


def accuracy(
    spec: ModelSpec, theta: np.ndarray, x: np.ndarray, labels: np.ndarray
) -> float:
    """Fraction of argmax predictions matching labels (ties -> lowest class)."""
    correct = 0
    for xc, lc in _chunks(x, labels):
        preds = forward(spec, theta, xc, lc).argmax(axis=1)
        correct += int((preds == lc).sum())
    return correct / len(labels)
