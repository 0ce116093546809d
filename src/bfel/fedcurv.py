"""Curvature-regularized federated learning and the shared round driver.

Client side: diagonal Fisher estimation at the broadcast global model,
then local SGD on a loss anchored to that model by a Fisher-weighted
quadratic penalty. Server side: a move towards the client models' merge,
each coordinate weighted by each client's Fisher plus epsilon. `run_round`
drives one round of any algorithm given its client and server steps; the
FedCurv steps are the defaults. A client step receives all of a round's
sampled clients, and their local SGD runs in lockstep: one stacked step
for every client at once. A server step maps theta and the round's
updates to the next theta over `client_sum`.
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
from .models import (
    ModelSpec,
    NumericalError,
    ParameterVector,
    lr_schedule,
    require_same_layout,
)


class AggregationError(ValueError):
    pass


class RoundNumericalError(NumericalError):
    """A non-finite value inside a round: where it arose and whose it was.

    `round` counts from 0 like `ClientUpdate.round`; the message counts
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
class ClientUpdate:
    """One client's round output; FedAvg updates carry no fisher.

    fisher (F_k) is in theta_local's layout; `client_sum` checks that when
    it adds them up.
    """

    client_id: int
    round: int
    theta_local: ParameterVector
    sample_count: int
    fisher: ParameterVector | None = None

    def __post_init__(self):
        if self.sample_count < 1:
            raise ValueError("sample_count must be >= 1")


def local_train(
    spec: ModelSpec,
    theta_global: ParameterVector,
    fishers: list[ParameterVector] | None,
    datasets: list[Dataset],
    hp: HyperParams,
    seeds: list[int],
    round_no: int = 0,
) -> list[ParameterVector]:
    """E epochs of mini-batch SGD on the anchored loss, one model per client.

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
    layout, anchor = theta_global.layout, theta_global.values
    thetas = np.tile(anchor, (len(datasets), 1))
    lam_f = None
    if fishers is not None and hp.lam != 0.0:
        require_same_layout(theta_global, *fishers)
        lam_f = hp.lam * np.stack([f.values for f in fishers])
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
            spec, layout, theta, xs[rows, cols], ys[rows, cols]
        )
        bad = ~(np.isfinite(losses) & np.isfinite(grads).all(axis=1))
        if bad.any():
            raise NumericalError(
                "loss/gradient not finite",
                positions=[ks[i] for i in np.flatnonzero(bad)],
            )
        if lam_f is not None:
            penalty = theta - anchor
            penalty *= lam_f[rows]
            grads += penalty
        grads *= lr
        theta -= grads
        if not isinstance(rows, slice):
            thetas[rows] = theta

    rngs = [np.random.default_rng(seed) for seed in seeds]
    for epoch in range(hp.local_epochs):
        lr = hp.eta_local
        if hp.lr_decay:
            lr = lr_schedule(hp.eta_local, round_no * hp.local_epochs + epoch)
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
    return [theta_global.with_values(row) for row in thetas]


def client_sum(
    theta: ParameterVector, updates: list[ClientUpdate], field: str, weights=None
) -> np.ndarray:
    """Sum of weight * `field` ("fisher" or "theta_local") over updates of
    one round in theta's layout, in client-id order, from zero; `weights`
    lines up with `updates`, each a scalar or a per-coordinate array, and
    defaults to 1.0 each."""
    if not updates:
        raise AggregationError("no client updates to aggregate")
    if len({u.round for u in updates}) > 1:
        raise AggregationError("client updates span multiple rounds")
    if weights is None:
        weights = [1.0] * len(updates)
    pairs = sorted(zip(weights, updates), key=lambda wu: wu[1].client_id)
    vectors = [getattr(u, field) for _, u in pairs]
    require_same_layout(theta, *vectors)
    total = np.zeros(theta.layout.size)
    for (w, _), v in zip(pairs, vectors):
        total += w * v.values
    return total


def client_round(
    spec: ModelSpec,
    theta_global: ParameterVector,
    datasets: list[Dataset],
    hp: HyperParams,
    client_ids: list[int],
    round_no: int,
    seeds: list[int],
) -> list[ClientUpdate]:
    """FedCurv client step for a round's sampled clients.

    Each client's Fisher at the anchor, then anchored SGD for all of them
    in lockstep. The Fisher pass stays per client, so that no full-dataset
    pass is stacked. A stderr warning names the round when
    eta_local * lam * max F_k reaches 2.
    """
    fishers = []
    for cid, ds in zip(client_ids, datasets):
        with _phase("Fisher", round_no, [cid]):
            sums = models.sum_squared_loglik_grads(
                spec, theta_global, ds.samples, ds.labels
            )
            fishers.append(theta_global.with_values(sums / len(ds)))
    # a penalty coordinate shrinks by 1 - eta_local * lam * F per step, so
    # from 2 on, the steps overshoot the anchor by more each time
    stiffness = hp.eta_local * hp.lam * max(float(f.values.max()) for f in fishers)
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
    return [
        ClientUpdate(
            client_id=cid,
            round=round_no,
            fisher=fisher,
            theta_local=theta_local,
            sample_count=len(ds),
        )
        for cid, ds, fisher, theta_local in zip(client_ids, datasets, fishers, thetas)
    ]


def server_step(
    theta: ParameterVector, updates: list[ClientUpdate], hp: HyperParams
) -> ParameterVector:
    """FedCurv server step: theta + eta_global * (merged - theta), where
    merged = (sum_k F_k theta_k + epsilon sum_k theta_k) / (sum_k F_k + K
    epsilon) minimises sum_k (theta - theta_k)^T diag(F_k + epsilon)
    (theta - theta_k): per coordinate a convex combination of the client
    models, their plain mean where every F_k is zero."""
    precision = client_sum(theta, updates, "fisher") + len(updates) * hp.epsilon
    fishers = [u.fisher.values for u in updates]  # layouts checked just above
    merged = client_sum(theta, updates, "theta_local", fishers)
    merged += hp.epsilon * client_sum(theta, updates, "theta_local")
    merged /= precision
    return theta.with_values(theta.values + hp.eta_global * (merged - theta.values))


def sample_clients(
    client_count: int, fraction: float, rng: np.random.Generator
) -> list[int]:
    """ceil(fraction * N) distinct client ids, ascending; the product is
    exact on the fraction's decimal (0.07 * 100 is 7, in floats 8)."""
    m = max(1, math.ceil(Fraction(str(fraction)) * client_count))
    return sorted(int(i) for i in rng.choice(client_count, size=m, replace=False))


def divergence(theta: ParameterVector, updates: list[ClientUpdate]) -> float:
    """Mean L2 distance of the client models from their mean.

    Each distance is the square root of np.add.reduce of the squared
    difference, as np.linalg.norm takes it for one row of a stack.
    """
    mean = client_sum(theta, updates, "theta_local") / len(updates)
    squares = []
    for u in updates:
        diff = u.theta_local.values - mean
        diff *= diff
        squares.append(np.add.reduce(diff))
    return float(np.sqrt(squares).mean())


def run_round(
    spec: ModelSpec,
    theta: ParameterVector,
    round_no: int,
    clients: list[Dataset],
    hp: HyperParams,
    rng: np.random.Generator,
    test_set: Dataset | None = None,
    client_step=client_round,
    server_step=server_step,
) -> tuple[ParameterVector, list[ClientUpdate], dict]:
    """Round round_no (from 0) from global model theta: sample, run the
    client step, run the server step; returns the new global model.

    client_step and server_step have the signatures of `client_round` and
    `server_step`, so every algorithm shares the sampling, seeds, metrics
    and the check that the new global model is finite.
    The client step receives every sampled client at once, in ascending id
    order, with per-client training seeds drawn in that order. A non-finite
    value anywhere in the round raises RoundNumericalError.
    """
    if not clients:
        raise AggregationError("run_round requires at least one client")
    sampled = sample_clients(len(clients), hp.client_fraction, rng)
    seeds = [int(rng.integers(2**63)) for _ in sampled]
    updates = client_step(
        spec,
        theta,
        [clients[cid] for cid in sampled],
        hp,
        client_ids=sampled,
        round_no=round_no,
        seeds=seeds,
    )
    with _phase("global step", round_no):
        new_theta = server_step(theta, updates, hp)
        if not np.all(np.isfinite(new_theta.values)):
            raise NumericalError("global model not finite")
    metrics = {"divergence": divergence(theta, updates)}
    if test_set is not None:
        x, labels = test_set.samples, test_set.labels
        with _phase("evaluation", round_no):
            metrics["client_accuracy"] = [
                models.accuracy(spec, u.theta_local, x, labels) for u in updates
            ]
            metrics["global_accuracy"] = models.accuracy(spec, new_theta, x, labels)
    return new_theta, updates, metrics
