"""Owned tensor math and model definitions (MLP and small CNN).

Everything here is pure numpy in float64: exact analytic forward/backward
passes for the two fixed architectures (convolutions as im2col matmuls),
cross-entropy loss, and the flat parameter-vector representation shared by
the federated algorithms.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np


class ShapeMismatchError(ValueError):
    """Input or parameter shape does not match the model spec."""


class LayoutMismatchError(ValueError):
    """Two parameter vectors do not share the same layout."""


class NumericalError(ArithmeticError):
    """A public operation produced a non-finite value.

    `positions` lists the offending rows of a stacked client axis, when the
    operation had one.
    """

    def __init__(self, message: str, positions=()):
        super().__init__(message)
        self.positions = tuple(positions)


@dataclass(frozen=True)
class ModelSpec:
    """Architecture description for the two supported model families.

    kind="mlp": dense layers input -> hidden... -> classes, ReLU between.
    kind="cnn": two conv(kernel x kernel, valid, stride 1) + 2x2 max-pool
    stages, then two fully connected layers.
    """

    kind: str
    input_shape: tuple[int, ...]
    classes: int
    hidden: tuple[int, ...] = ()
    conv_channels: tuple[int, int] = (8, 16)
    kernel: int = 3
    fc_hidden: int = 64
    bias: bool = True

    def __post_init__(self):
        object.__setattr__(self, "input_shape", tuple(self.input_shape))
        object.__setattr__(self, "hidden", tuple(self.hidden))
        object.__setattr__(self, "conv_channels", tuple(self.conv_channels))
        if self.kind not in ("mlp", "cnn"):
            raise ValueError(f"unknown model kind {self.kind!r}")
        if self.classes < 1:
            raise ValueError("classes must be >= 1")
        if self.kind == "cnn" and len(self.conv_channels) != 2:
            raise ValueError("cnn requires exactly two conv stages")
        build_layout(self)  # raises ShapeMismatchError for a too-small input

    def _chw(self) -> tuple[int, int, int]:
        if len(self.input_shape) == 2:
            return (1,) + self.input_shape
        if len(self.input_shape) == 3:
            return self.input_shape
        raise ShapeMismatchError(
            f"cnn input_shape must be (H, W) or (C, H, W), got {self.input_shape}"
        )

    @property
    def input_size(self) -> int:
        return math.prod(self.input_shape)


@dataclass(frozen=True)
class Segment:
    layer: str
    role: str  # "weight" | "bias"
    shape: tuple[int, ...]
    offset: int

    @property
    def size(self) -> int:
        return math.prod(self.shape)


@dataclass(frozen=True)
class ParamLayout:
    segments: tuple[Segment, ...]

    @property
    def size(self) -> int:
        last = self.segments[-1]
        return last.offset + last.size

    @functools.cached_property
    def slots(self) -> dict[tuple[str, str], tuple[int, int, tuple[int, ...]]]:
        """(layer, role) -> (start, stop, shape), built once per layout."""
        return {
            (s.layer, s.role): (s.offset, s.offset + s.size, s.shape)
            for s in self.segments
        }

    def stacked(self, values: np.ndarray, layer: str, role: str) -> np.ndarray:
        """One segment of (K, size) stacked values, as a (K, *shape) view."""
        start, stop, shape = self.slots[layer, role]
        return values[:, start:stop].reshape((values.shape[0],) + shape)


@functools.cache
def build_layout(spec: ModelSpec) -> ParamLayout:
    """Derive the canonical flat parameter layout for an architecture.

    Cached per spec: both are frozen, so every caller shares one layout.
    """
    segs: list[Segment] = []
    offset = 0

    def add(layer, role, shape):
        nonlocal offset
        segs.append(Segment(layer, role, tuple(shape), offset))
        offset += math.prod(shape)

    if spec.kind == "mlp":
        dims = [spec.input_size, *spec.hidden, spec.classes]
        for i in range(len(dims) - 1):
            add(f"fc{i}", "weight", (dims[i], dims[i + 1]))
            if spec.bias:
                add(f"fc{i}", "bias", (dims[i + 1],))
    else:
        c, h, w = spec._chw()
        k = spec.kernel
        in_c = c
        for i, out_c in enumerate(spec.conv_channels):
            add(f"conv{i}", "weight", (out_c, in_c, k, k))
            if spec.bias:
                add(f"conv{i}", "bias", (out_c,))
            h = (h - k + 1) // 2
            w = (w - k + 1) // 2
            in_c = out_c
        if h < 1 or w < 1:
            raise ShapeMismatchError("input too small for two conv+pool stages")
        flat = in_c * h * w
        add("fc0", "weight", (flat, spec.fc_hidden))
        if spec.bias:
            add("fc0", "bias", (spec.fc_hidden,))
        add("fc1", "weight", (spec.fc_hidden, spec.classes))
        if spec.bias:
            add("fc1", "bias", (spec.classes,))
    return ParamLayout(tuple(segs))


@dataclass(frozen=True)
class ParameterVector:
    """Flat float64 view of all trainable parameters, plus its layout."""

    values: np.ndarray
    layout: ParamLayout

    def __post_init__(self):
        vals = np.ascontiguousarray(np.asarray(self.values, dtype=np.float64))
        if vals.ndim != 1 or vals.shape[0] != self.layout.size:
            raise LayoutMismatchError(
                f"expected {self.layout.size} values, got shape {vals.shape}"
            )
        object.__setattr__(self, "values", vals)

    def segment(self, layer: str, role: str) -> np.ndarray:
        try:
            return self.layout.stacked(self.values[None], layer, role)[0]
        except KeyError:
            raise KeyError(f"no segment ({layer}, {role})") from None

    def with_values(self, values: np.ndarray) -> "ParameterVector":
        return ParameterVector(values, self.layout)


def require_same_layout(*vectors) -> None:
    layouts = {v.layout for v in vectors}
    if len(layouts) > 1:
        raise LayoutMismatchError("parameter vectors have different layouts")


def init_params(spec: ModelSpec, seed: int) -> ParameterVector:
    """Glorot-uniform weights, zero biases, from a seeded generator."""
    layout = build_layout(spec)
    rng = np.random.default_rng(seed)
    values = np.empty(layout.size)
    for seg in layout.segments:
        view = values[seg.offset : seg.offset + seg.size]
        if seg.role == "bias":
            view[:] = 0.0
        elif len(seg.shape) == 2:
            fan_in, fan_out = seg.shape
            a = math.sqrt(6.0 / (fan_in + fan_out))
            view[:] = rng.uniform(-a, a, seg.size)
        else:  # conv weight (OC, C, k, k)
            oc, c, k, _ = seg.shape
            fan_in = c * k * k
            fan_out = oc * k * k
            a = math.sqrt(6.0 / (fan_in + fan_out))
            view[:] = rng.uniform(-a, a, seg.size)
    return ParameterVector(values, layout)


# ---------------------------------------------------------------------------
# forward / backward primitives


# One im2col work buffer per conv stage, kept across calls and grown only
# when a call needs more: a column array freed after each call would go
# back to the OS, and every call would fault its pages in again.
_COLUMNS = [np.empty(0), np.empty(0)]


def _im2col(x: np.ndarray, k: int, stage: int) -> np.ndarray:
    """The k x k patches of x as (n, C*k*k, L) columns in `stage`'s buffer.

    The result is a view of the buffer, overwritten by the next call for
    the same stage, so it must not outlive the model call that made it.
    """
    n, c, h, w = x.shape
    ho, wo = h - k + 1, w - k + 1
    size = n * c * k * k * ho * wo
    if _COLUMNS[stage].size < size:
        _COLUMNS[stage] = np.empty(size)
    cols = _COLUMNS[stage][:size].reshape(n, c, k, k, ho, wo)
    for i in range(k):
        for j in range(k):
            cols[:, :, i, j] = x[:, :, i : i + ho, j : j + wo]
    return cols.reshape(n, c * k * k, ho * wo)


def _col2im(dcols: np.ndarray, x_shape, k: int) -> np.ndarray:
    n, c, h, w = x_shape
    ho, wo = h - k + 1, w - k + 1
    dc = dcols.reshape(n, c, k, k, ho, wo)
    dx = np.zeros(x_shape)
    for i in range(k):
        for j in range(k):
            dx[:, :, i : i + ho, j : j + wo] += dc[:, :, i, j]
    return dx


def _pool_views(x: np.ndarray):
    """The four stride-2 views of a 2x2 pooling grid, in window order."""
    ho, wo = x.shape[2] // 2, x.shape[3] // 2
    return [
        x[:, :, i : 2 * ho : 2, j : 2 * wo : 2] for i in (0, 1) for j in (0, 1)
    ]


def _maxpool2(x: np.ndarray):
    """2x2 max-pool; idx holds the window position of the first maximum."""
    v = _pool_views(x)
    out = np.maximum(np.maximum(v[0], v[1]), np.maximum(v[2], v[3]))
    # the first p with v[p] == out, as miss0 * (1 + miss1 * (1 + miss2))
    # where miss_p = (v[p] != out): no boolean-mask writes
    idx = (v[2] != out).astype(np.int8)
    idx += 1
    idx *= v[1] != out
    idx += 1
    idx *= v[0] != out
    return out, idx


def _maxpool2_backward(dout: np.ndarray, idx: np.ndarray, x_shape):
    dx = np.zeros(x_shape)
    for pos, view in enumerate(_pool_views(dx)):
        np.multiply(dout, idx == pos, out=view)
    return dx


def _check_inputs(spec: ModelSpec, layout: ParamLayout, thetas, x, labels) -> None:
    """The one check of a model call's inputs, in stacked form.

    thetas is (K, P) in the spec's layout, x (K, N, *input_shape) and labels
    (K, N), with N >= 1; a one-model call passes values[None], x[None] and
    labels[None]. Samples are not checked for finiteness: a `Dataset`
    checked them when it was built.
    """
    if layout != build_layout(spec):
        raise LayoutMismatchError("parameter layout does not match model spec")
    if labels.ndim != 2 or labels.shape != x.shape[:2]:
        raise ShapeMismatchError(
            f"labels shape {labels.shape[1:]} does not give one label per "
            f"sample of inputs shape {x.shape[1:]}"
        )
    if thetas.shape != (labels.shape[0], layout.size):
        raise LayoutMismatchError(
            f"thetas shape {thetas.shape} is not {(labels.shape[0], layout.size)}"
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


def _forward_cached(spec: ModelSpec, layout: ParamLayout, thetas, x):
    """Run the forward pass of K models, keeping what backprop needs.

    thetas is (K, P) in `layout`; x is (K, N, *input_shape), client k's N
    samples seen by model k. Every weight op is one matmul batched over
    the client axis; im2col and the pools run on the K*N samples.
    Each cache entry holds a layer's input (dense activations (K, N, fan_in),
    or im2col columns (K, N, C*k*k, L) for a conv, a view of that stage's
    column buffer), the ReLU mask of its output (None on the logits) and,
    for a conv, the pooling indices and the (K*N, ...) shapes backprop needs.
    """
    caches = []
    kk, n = x.shape[:2]
    if spec.kind == "mlp":
        a = x.reshape(kk, n, -1)
        dense = len(spec.hidden) + 1
    else:
        a = x.reshape((kk * n,) + spec._chw())
        dense = 2
        k = spec.kernel
        for i in range(2):
            name = f"conv{i}"
            wgt = layout.stacked(thetas, name, "weight")
            oc = wgt.shape[1]
            cols = _im2col(a, k, i)
            cols = cols.reshape((kk, n) + cols.shape[1:])
            z = wgt.reshape(kk, 1, oc, -1) @ cols
            if spec.bias:
                z += layout.stacked(thetas, name, "bias")[:, None, :, None]
            conv_shape = (kk * n, oc, a.shape[2] - k + 1, a.shape[3] - k + 1)
            # ReLU after the pool: the same values and gradients, as ReLU
            # is monotone, on a quarter of the elements
            pooled, pool_idx = _maxpool2(z.reshape(conv_shape))
            relu_mask = pooled > 0
            caches.append(
                ("conv", name, cols, relu_mask, pool_idx, conv_shape, a.shape)
            )
            a = np.maximum(pooled, 0.0, out=pooled)
        a = a.reshape(kk, n, -1)
    for i in range(dense):
        name = f"fc{i}"
        z = a @ layout.stacked(thetas, name, "weight")
        if spec.bias:
            z += layout.stacked(thetas, name, "bias")[:, None, :]
        if i < dense - 1:
            caches.append(("fc", name, a, z > 0))
            a = np.maximum(z, 0.0, out=z)
        else:
            caches.append(("fc", name, a, None))
            a = z
    return a, caches


def _layer_deltas(spec: ModelSpec, layout: ParamLayout, thetas, caches, dlogits):
    """Backpropagate per-sample output gradients through the cached layers.

    Yields (kind, layer, inputs, delta) from the last layer to the first,
    where each sample's weight gradient is inputs[k, n]^T delta[k, n] for
    "fc" (inputs (K, N, fan_in), delta (K, N, fan_out)) and
    delta[k, n] @ inputs[k, n]^T for "conv" (inputs the im2col columns
    (K, N, C*k*k, L), delta (K, N, OC, L)). The gradient with respect to
    the model input is never computed. Every delta below the logits is an
    array made here, which the ReLU masks overwrite; dlogits is only read.
    """
    da = dlogits
    for i in range(len(caches) - 1, -1, -1):
        cache = caches[i]
        name = cache[1]
        wgt = layout.stacked(thetas, name, "weight")  # for the input gradient
        if cache[0] == "fc":
            _, _, a_in, relu_mask = cache
            if relu_mask is not None:
                # da is w.r.t. this layer's post-ReLU output; undo the ReLU.
                # The logits have no mask, so da is the product made below
                da *= relu_mask
            yield "fc", name, a_in, da
            if i:
                da = da @ wgt.transpose(0, 2, 1)
        else:
            _, _, cols, relu_mask, pool_idx, conv_shape, in_shape = cache
            dpooled = da.reshape(relu_mask.shape)
            dpooled *= relu_mask
            dz = _maxpool2_backward(dpooled, pool_idx, conv_shape)
            dflat = dz.reshape(cols.shape[:2] + (conv_shape[1], -1))
            yield "conv", name, cols, dflat
            if i:
                wmat = wgt.reshape(wgt.shape[0], 1, conv_shape[1], -1)
                dcols = (wmat.transpose(0, 1, 3, 2) @ dflat).reshape(
                    (-1,) + cols.shape[2:]
                )
                da = _col2im(dcols, in_shape, spec.kernel)
                del dcols  # not held while the caller uses the next layer


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    shifted -= np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    return shifted


def _pick(labels: np.ndarray) -> tuple:
    """Index of each (client, sample)'s labelled logit in (K, N, classes)."""
    kk, n = labels.shape
    return np.arange(kk)[:, None], np.arange(n), labels


def _grad_sums(spec: ModelSpec, layout: ParamLayout, thetas, caches, dlogits, p):
    """Sum over the samples of each per-sample gradient to the power p, (K, P).

    p = 1 gives the summed gradient, p = 2 the Fisher sum. Dense per-sample
    gradients are never stacked whole: each is the outer product a[n] x
    delta[n], so the sum contracts to (a^p)^T @ (delta^p). A conv layer's is
    delta[n] @ cols[n]^T, an (OC, C*k*k) matrix per sample.
    """
    def power(a):
        return a if p == 1 else a**p

    out = np.zeros(thetas.shape)
    for kind, name, a, delta in _layer_deltas(spec, layout, thetas, caches, dlogits):
        ow = layout.stacked(out, name, "weight")
        if kind == "fc":
            delta = power(delta)  # once, for the weights and the bias
            # straight into the output rows: no (K, fan_in, fan_out) temporary
            np.matmul(power(a).transpose(0, 2, 1), delta, out=ow)
            bias = delta.sum(axis=1)
        else:
            ow += power(delta @ a.transpose(0, 1, 3, 2)).sum(axis=1).reshape(ow.shape)
            bias = power(delta.sum(axis=3)).sum(axis=1)
        if spec.bias:
            layout.stacked(out, name, "bias")[...] += bias
    return out


def stacked_loss_and_grad(
    spec: ModelSpec, layout: ParamLayout, thetas: np.ndarray, inputs, labels
) -> tuple[np.ndarray, np.ndarray]:
    """Mean cross-entropy and its exact gradient for K models at once.

    thetas (K, P) holds one parameter vector per row; inputs (K, N, ...)
    and labels (K, N) hold each model's batch. Returns losses (K,) and
    gradients (K, P). Non-finite results are returned, not raised, so that
    the caller can name the rows they came from.
    """
    _check_inputs(spec, layout, thetas, inputs, labels)
    logits, caches = _forward_cached(spec, layout, thetas, inputs)
    n = labels.shape[1]
    pick = _pick(labels)
    logp = _log_softmax(logits)
    losses = -logp[pick].mean(axis=1)
    dlogits = np.exp(logp, out=logp)
    dlogits[pick] -= 1.0
    dlogits /= n
    return losses, _grad_sums(spec, layout, thetas, caches, dlogits, 1)


def forward(
    spec: ModelSpec, params: ParameterVector, x: np.ndarray, labels: np.ndarray
) -> np.ndarray:
    """Logits (N, classes) for samples x (N, ...) labelled by labels (N,)."""
    thetas, x = params.values[None], x[None]
    _check_inputs(spec, params.layout, thetas, x, labels[None])
    logits, _ = _forward_cached(spec, params.layout, thetas, x)
    if not np.isfinite(logits).all():
        raise NumericalError("logits not finite")
    return logits[0]


def loss_and_grad(
    spec: ModelSpec, params: ParameterVector, x: np.ndarray, labels: np.ndarray
) -> tuple[float, ParameterVector]:
    """Mean cross-entropy over the samples x and its exact gradient."""
    losses, grads = stacked_loss_and_grad(
        spec, params.layout, params.values[None], x[None], labels[None]
    )
    loss = float(losses[0])
    if not math.isfinite(loss) or not np.all(np.isfinite(grads)):
        raise NumericalError("loss/gradient not finite")
    return loss, params.with_values(grads[0])


def per_sample_loglik_grad(
    spec: ModelSpec, params: ParameterVector, x: np.ndarray, labels: np.ndarray
) -> ParameterVector:
    """Gradient of log p(y|x; params) for a single sample.

    No training path calls this; it is the one-sample reference that
    `sum_squared_loglik_grads` is tested against.
    """
    if labels.shape[:1] != (1,):
        raise ShapeMismatchError("per-sample gradient requires one sample")
    _, grad = loss_and_grad(spec, params, x, labels)
    return grad.with_values(-grad.values)


def sum_squared_loglik_grads(
    spec: ModelSpec, params: ParameterVector, x: np.ndarray, labels: np.ndarray
) -> np.ndarray:
    """Sum over the samples x of squared per-sample log-likelihood gradients."""
    layout, thetas = params.layout, params.values[None]
    x, labels = x[None], labels[None]
    _check_inputs(spec, layout, thetas, x, labels)
    logits, caches = _forward_cached(spec, layout, thetas, x)
    logp = _log_softmax(logits)
    dlogits = np.exp(logp, out=logp)
    dlogits[_pick(labels)] -= 1.0  # per-sample, unscaled
    out = _grad_sums(spec, layout, thetas, caches, dlogits, 2)
    if not np.all(np.isfinite(out)):
        raise NumericalError("squared log-likelihood gradients not finite")
    return out[0]


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
    return initial_lr / 3 ** (epoch // 5)


def accuracy(
    spec: ModelSpec, params: ParameterVector, x: np.ndarray, labels: np.ndarray
) -> float:
    """Fraction of argmax predictions matching labels (ties -> lowest class)."""
    correct = 0
    for xc, lc in _chunks(x, labels):
        preds = forward(spec, params, xc, lc).argmax(axis=1)
        correct += int((preds == lc).sum())
    return correct / len(labels)
