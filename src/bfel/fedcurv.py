"""Curvature-regularized federated learning and the shared round driver.

Client side: diagonal Fisher estimation at the broadcast global model,
then local SGD on a loss anchored to that model by a Fisher-weighted
quadratic penalty. Server side: a move towards the client models' merge,
each coordinate weighted by each client's Fisher plus epsilon. `run_round`
drives one round of any algorithm given its client and server steps; the
FedCurv steps are the defaults. A client step receives all of a round's
sampled clients, and their local SGD runs in lockstep: one stacked step
for every client at once; it returns the clients' models as one (K, P)
stack and, for FedCurv, their Fisher diagonals as another. A server step
maps theta and the round's `ClientUpdates` to the next theta, adding the
stacks' rows in client-id order.
"""

from __future__ import annotations

import contextlib
import math
import sys
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import models
from .data import Dataset
from .models import LayoutMismatchError, ModelSpec, NumericalError, lr_schedule


class AggregationError(ValueError):
    pass


class RoundNumericalError(NumericalError):
    """A non-finite value inside a round: where it arose and whose it was.

    `round` counts from 0 like `ClientUpdates.round`; the message counts
    from 1, as metrics.csv does. `phase` is one of "Fisher", "local SGD",
    "global step" or "evaluation"; `client_ids` is empty for the server's
    phases.
    """

    def __init__(self, round_no: int, phase: str, client_ids, detail: str):
        self.round = round_no
        self.phase = phase
        self.client_ids = tuple(client_ids)
        who = f", client(s) {list(self.client_ids)}" if self.client_ids else ""
        super().__init__(f"round {round_no + 1}, {phase}{who}: {detail}")


@contextlib.contextmanager
def _phase(phase: str, round_no: int, client_ids=()):
    """Re-raise a NumericalError from inside as a RoundNumericalError, with
    numpy's floating-point warnings silenced.

    An error that names positions on a stacked client axis is charged to
    those clients only; any other is charged to all of client_ids.
    """
    try:
        # every phase checks its results for finiteness, so numpy's
        # overflow and invalid-value warnings would only repeat the error
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            yield
    except NumericalError as e:
        ids = [client_ids[i] for i in e.positions] if e.positions else client_ids
        raise RoundNumericalError(round_no, phase, ids, str(e)) from e


@dataclass(frozen=True)
class HyperParams:
    lam: float = 0.1
    local_epochs: int = 1
    eta_local: float = 0.01
    eta_global: float = 1.0
    epsilon: float = 1e-8
    batch_size: int = 20
    client_fraction: float = 1.0
    lr_decay: bool = False

    # setting -> (its lower bound, whether the bound itself is excluded);
    # every one must also be finite (NaN fails)
    BOUNDS = {"lam": (0, False), "eta_local": (0, False), "eta_global": (0, False),
              "epsilon": (0, True), "local_epochs": (1, False),
              "batch_size": (1, False)}

    def __post_init__(self):
        for name, (low, strict) in self.BOUNDS.items():
            value = getattr(self, name)
            if not ((value > low if strict else value >= low) and value < math.inf):
                op = ">" if strict else ">="
                raise ValueError(f"{name} must be finite and {op} {low}, got {value!r}")
        if not 0 < self.client_fraction <= 1:
            raise ValueError("client_fraction must be in (0, 1]")


@dataclass(frozen=True)
class ClientUpdates:
    """A round's uploads: row k of each (K, P) stack is client_ids[k]'s,
    ids ascending. thetas holds the client models (theta_k) and fishers
    their Fisher diagonals (F_k); FedAvg uploads no fishers. Bad ids or
    counts raise AggregationError, a stack of another shape
    LayoutMismatchError."""

    round: int
    client_ids: tuple[int, ...]
    sample_counts: tuple[int, ...]
    thetas: np.ndarray
    fishers: np.ndarray | None = None

    def __post_init__(self):
        ids = self.client_ids
        if not ids or any(a >= b for a, b in zip(ids, ids[1:])):
            raise AggregationError(f"need ascending client ids, got {list(ids)}")
        if min(self.sample_counts) < 1:
            raise AggregationError("sample_count must be >= 1")
        shape = (len(ids), self.thetas.shape[-1])
        for stack in (self.thetas, self.fishers):
            if stack is not None and stack.shape != shape:
                raise LayoutMismatchError(f"a {stack.shape} stack, not {shape}")


def _epoch_lr(hp: HyperParams, round_no: int, epoch: int) -> float:
    """Local SGD's rate in epoch `epoch` of round round_no."""
    if hp.lr_decay:
        return lr_schedule(hp.eta_local, round_no * hp.local_epochs + epoch)
    return hp.eta_local


def local_train(
    spec: ModelSpec,
    theta_global: np.ndarray,
    fishers: np.ndarray | None,
    datasets: list[Dataset],
    hp: HyperParams,
    seeds: list[int],
    round_no: int = 0,
) -> np.ndarray:
    """E epochs of mini-batch SGD on the anchored loss, one model per client:
    row k of the returned (K, P) stack, anchored by row k of fishers.

    Client k starts from theta_global and, each epoch, takes consecutive
    batches of one shuffle of its data, `rng.permutation(n)` from its own
    generator seeded by seeds[k], exactly as it would alone. The clients
    run in lockstep: at each step, those whose batches have the same size
    take one stacked step together, so ragged datasets and last partial
    batches form separate groups. A stacked call holds at most as many
    samples as the largest dataset. Each epoch copies every client's data
    once, in shuffled order, into one (K, largest n, ...) buffer; a step
    over a run of consecutive clients passes a view of it, and any other
    group a gather of its rows. The buffer is one more copy of the clients'
    data for the length of the call.
    With hp.lr_decay, round round_no starts the schedule at epoch
    round_no * hp.local_epochs. With fishers None or hp.lam == 0 this is
    plain SGD. A non-finite loss or gradient, or a non-finite returned
    model (a last step that overflows), raises NumericalError naming the
    clients' positions in `datasets`. An empty dataset takes no step, so
    its client gets theta_global back.
    """
    # no model call checks theta_global when every epoch's rate is 0
    size = models.build_layout(spec).size
    if np.shape(theta_global) != (size,):
        raise LayoutMismatchError(
            f"theta shape {np.shape(theta_global)} is not ({size},)"
        )
    thetas = np.tile(theta_global, (len(datasets), 1))
    lam_f = None
    if fishers is not None and hp.lam != 0.0:
        if fishers.shape != thetas.shape:
            raise LayoutMismatchError(f"expected a {thetas.shape} Fisher stack")
        lam_f = hp.lam * fishers
    sizes = [len(ds) for ds in datasets]
    max_samples = max(sizes)
    xs = np.empty((len(datasets), max_samples) + datasets[0].samples.shape[1:])
    ys = np.empty((len(datasets), max_samples), dtype=np.int64)

    def step(ks, cols, lr):
        # a run of consecutive clients is a view that the update writes
        # through; any other group is gathered and written back
        rows = slice(ks[0], ks[-1] + 1) if ks[-1] - ks[0] + 1 == len(ks) else ks
        theta = thetas[rows]
        losses, grads = models.stacked_loss_and_grad(
            spec, theta, xs[rows, cols], ys[rows, cols]
        )
        bad = ~(np.isfinite(losses) & np.isfinite(grads).all(axis=1))
        if bad.any():
            raise NumericalError(
                "loss/gradient not finite",
                positions=[ks[i] for i in np.flatnonzero(bad)],
            )
        if lam_f is not None:
            penalty = theta - theta_global
            penalty *= lam_f[rows]
            grads += penalty
        grads *= lr
        theta -= grads
        if not isinstance(rows, slice):
            thetas[rows] = theta

    rngs = [np.random.default_rng(seed) for seed in seeds]
    for epoch in range(hp.local_epochs):
        lr = _epoch_lr(hp, round_no, epoch)
        if lr == 0.0:
            continue
        for k, (ds, n, rng) in enumerate(zip(datasets, sizes, rngs)):
            order = rng.permutation(n)
            # a permutation is in range, so "clip" clips nothing; unlike
            # "raise", it writes straight into out
            np.take(ds.samples, order, axis=0, out=xs[k, :n], mode="clip")
            np.take(ds.labels, order, out=ys[k, :n], mode="clip")
        for start in range(0, max_samples, hp.batch_size):
            groups: dict[int, list[int]] = {}  # batch size -> clients
            for k, n in enumerate(sizes):
                if start < n:
                    groups.setdefault(min(hp.batch_size, n - start), []).append(k)
            for size, ks in groups.items():
                per_call = max_samples // size
                for lo in range(0, len(ks), per_call):
                    step(ks[lo : lo + per_call], slice(start, start + size), lr)
    finite = np.isfinite(thetas).all(axis=1)
    if not finite.all():
        raise NumericalError("local model not finite", positions=np.flatnonzero(~finite))
    return thetas


def row_sum(stack: np.ndarray, weights=None) -> np.ndarray:
    """Sum of the rows of a (K, P) stack, row k times weights[k] (a scalar
    or a P-array; 1 by default), added in row order from +0.0."""
    total = np.zeros(stack.shape[1])
    for k, row in enumerate(stack):
        total += row if weights is None else weights[k] * row
    return total


def client_round(
    spec: ModelSpec,
    theta_global: np.ndarray,
    datasets: list[Dataset],
    hp: HyperParams,
    client_ids: list[int],
    round_no: int,
    seeds: list[int],
) -> tuple[np.ndarray, np.ndarray]:
    """FedCurv client step for a round's sampled clients: their (K, P)
    stacks of local models and of Fisher diagonals.

    Each client's Fisher at the anchor, then anchored SGD for all of them
    in lockstep. The Fisher pass stays per client, so that no full-dataset
    pass is stacked. A stderr warning names the round when lr * lam *
    max F_k reaches 2, lr being the round's first and largest rate.
    """
    fishers = np.empty((len(datasets), theta_global.size))
    for k, (cid, ds) in enumerate(zip(client_ids, datasets)):
        with _phase("Fisher", round_no, [cid]):
            sums = models.sum_squared_loglik_grads(
                spec, theta_global, ds.samples, ds.labels
            )
            np.divide(sums, len(ds), out=fishers[k])
    # a penalty coordinate shrinks by 1 - lr * lam * F per step, so from 2
    # on, the steps overshoot the anchor by more each time
    stiffness = _epoch_lr(hp, round_no, 0) * hp.lam * float(fishers.max())
    if stiffness >= 2:
        print(
            f"warning: round {round_no + 1}: eta_local * lambda * max Fisher = "
            f"{stiffness:.3g} >= 2, so local SGD on the anchor penalty diverges",
            file=sys.stderr,
        )
    with _phase("local SGD", round_no, client_ids):
        thetas = local_train(
            spec, theta_global, fishers, datasets, hp, seeds, round_no
        )
    return thetas, fishers


def server_step(
    theta: np.ndarray, updates: ClientUpdates, hp: HyperParams
) -> np.ndarray:
    """FedCurv server step: theta + eta_global * (merged - theta), where
    merged = (sum_k F_k theta_k + epsilon sum_k theta_k) / (sum_k F_k + K
    epsilon) minimises sum_k (theta - theta_k)^T diag(F_k + epsilon)
    (theta - theta_k): per coordinate a convex combination of the client
    models, their plain mean where every F_k is zero."""
    precision = row_sum(updates.fishers) + len(updates.thetas) * hp.epsilon
    merged = row_sum(updates.thetas, updates.fishers)
    merged += hp.epsilon * row_sum(updates.thetas)
    merged /= precision
    return theta + hp.eta_global * (merged - theta)


def sample_clients(
    client_count: int, fraction: float, rng: np.random.Generator
) -> list[int]:
    """ceil(fraction * N) distinct client ids, ascending; the product is
    exact on the fraction's decimal (0.07 * 100 is 7, in floats 8)."""
    m = max(1, math.ceil(Fraction(str(fraction)) * client_count))
    return sorted(int(i) for i in rng.choice(client_count, size=m, replace=False))


def divergence(thetas: np.ndarray) -> float:
    """Mean L2 distance of the client models, the rows of thetas, from
    their mean.

    Each distance is the square root of np.add.reduce of the squared
    difference, as np.linalg.norm takes it for one row of a stack.
    """
    mean = row_sum(thetas) / len(thetas)
    squares = []
    for row in thetas:
        diff = row - mean
        diff *= diff
        squares.append(np.add.reduce(diff))
    return float(np.sqrt(squares).mean())


def run_round(
    spec: ModelSpec,
    theta: np.ndarray,
    round_no: int,
    clients: list[Dataset],
    hp: HyperParams,
    rng: np.random.Generator,
    test_set: Dataset | None = None,
    client_step=client_round,
    server_step=server_step,
) -> tuple[np.ndarray, ClientUpdates, dict]:
    """Round round_no (from 0) from global model theta: sample, run the
    client step, run the server step; returns the new global model.

    client_step and server_step have the signatures of `client_round` and
    `server_step`, so every algorithm shares the sampling, seeds, metrics
    and the check that the new global model is finite.
    The client step receives every sampled client at once, in ascending id
    order, with per-client training seeds drawn in that order, and returns
    a (thetas, fishers) pair of (K, P) stacks in that order; fishers may be
    None. Stacks of another shape raise LayoutMismatchError before the
    server step. A non-finite value anywhere in the round raises
    RoundNumericalError.
    """
    if not clients:
        raise AggregationError("run_round requires at least one client")
    sampled = sample_clients(len(clients), hp.client_fraction, rng)
    seeds = [int(rng.integers(2**63)) for _ in sampled]
    datasets = [clients[cid] for cid in sampled]
    thetas, fishers = client_step(
        spec, theta, datasets, hp, client_ids=sampled, round_no=round_no,
        seeds=seeds,
    )
    updates = ClientUpdates(
        round_no, tuple(sampled), tuple(len(ds) for ds in datasets), thetas, fishers
    )
    if thetas.shape[1] != theta.size:
        raise LayoutMismatchError(
            f"expected client models of {theta.size} values, got "
            f"{thetas.shape[1]}"
        )
    with _phase("global step", round_no):
        new_theta = server_step(theta, updates, hp)
        if not np.all(np.isfinite(new_theta)):
            raise NumericalError("global model not finite")
    metrics = {"divergence": divergence(thetas)}
    if test_set is not None:
        x, labels = test_set.samples, test_set.labels
        with _phase("evaluation", round_no):
            metrics["client_accuracy"] = [
                models.accuracy(spec, row, x, labels) for row in thetas
            ]
            metrics["global_accuracy"] = models.accuracy(spec, new_theta, x, labels)
    return new_theta, updates, metrics
