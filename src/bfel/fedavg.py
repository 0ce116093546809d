"""First-order baseline: plain local SGD and sample-count-weighted averaging.

These are FedAvg's client and server steps for `fedcurv.run_round`.
"""

from __future__ import annotations

import numpy as np

from .data import Dataset
from .fedcurv import ClientUpdates, HyperParams, _phase, local_train, row_sum
from .models import ModelSpec


def client_round(
    spec: ModelSpec,
    theta_global: np.ndarray,
    datasets: list[Dataset],
    hp: HyperParams,
    client_ids: list[int],
    round_no: int,
    seeds: list[int],
) -> tuple[np.ndarray, None]:
    """FedAvg client step: E epochs of SGD from theta_global with no Fisher,
    so no anchor penalty, for all of a round's sampled clients in lockstep;
    their (K, P) stack of local models, and no Fisher stack."""
    with _phase("local SGD", round_no, client_ids):
        thetas = local_train(spec, theta_global, None, datasets, hp, seeds, round_no)
    return thetas, None


def server_step(
    theta: np.ndarray, updates: ClientUpdates, hp: HyperParams
) -> np.ndarray:
    """FedAvg server step: the clients' models weighted by their sample
    counts, n_k / N, become the global model."""
    total_n = sum(updates.sample_counts)
    weights = [n / total_n for n in updates.sample_counts]
    return row_sum(updates.thetas, weights)
