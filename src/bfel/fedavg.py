"""First-order baseline: plain local SGD and sample-count-weighted averaging.

These are FedAvg's client and server steps for `fedcurv.run_round`.
"""

from __future__ import annotations

from .data import Dataset
from .fedcurv import ClientUpdate, HyperParams, _phase, client_sum, local_train
from .models import ModelSpec, ParameterVector


def client_round(
    spec: ModelSpec,
    theta_global: ParameterVector,
    datasets: list[Dataset],
    hp: HyperParams,
    client_ids: list[int],
    round_no: int,
    seeds: list[int],
) -> list[ClientUpdate]:
    """FedAvg client step: E epochs of SGD from theta_global with no Fisher,
    so no anchor penalty, for all of a round's sampled clients in lockstep."""
    with _phase("local SGD", round_no, client_ids):
        thetas = local_train(spec, theta_global, None, datasets, hp, seeds, round_no)
    return [
        ClientUpdate(
            client_id=cid,
            round=round_no,
            theta_local=theta_local,
            sample_count=len(ds),
        )
        for cid, ds, theta_local in zip(client_ids, datasets, thetas)
    ]


def server_step(
    theta: ParameterVector, updates: list[ClientUpdate], hp: HyperParams
) -> ParameterVector:
    """FedAvg server step: the clients' models weighted by their sample
    counts, n_k / N, become the global model."""
    total_n = sum(u.sample_count for u in updates)
    weights = [u.sample_count / total_n for u in updates]
    return theta.with_values(client_sum(theta, updates, "theta_local", weights))
