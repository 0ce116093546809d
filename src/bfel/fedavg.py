"""First-order baseline: plain local SGD and sample-count-weighted averaging.

These are FedAvg's client and server steps for `fedcurv.run_round`.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .data import Dataset
from .fedcurv import (AggregationError, ClientUpdate, GlobalModelState,
                      HyperParams, _phase, local_train)
from .models import ModelSpec, ParameterVector, require_same_layout


def client_round(
    spec: ModelSpec,
    theta_global: ParameterVector,
    datasets: list[Dataset],
    hp: HyperParams,
    client_ids: list[int],
    round_no: int,
    seeds: list[int],
) -> list[ClientUpdate]:
    """FedAvg client step: E epochs of unregularized SGD from theta_global,
    for all of a round's sampled clients in lockstep."""
    with _phase("local SGD", round_no, client_ids):
        thetas = local_train(
            spec, theta_global, None, datasets, replace(hp, lam=0.0), seeds,
            round_no,
        )
    return [
        ClientUpdate(
            client_id=cid,
            round=round_no,
            theta_local=theta_local,
            sample_count=len(ds),
        )
        for cid, ds, theta_local in zip(client_ids, datasets, thetas)
    ]


def average_models(updates: list[ClientUpdate]) -> ParameterVector:
    """Sample-count-weighted mean of the client models, summed in id order."""
    if not updates:
        raise AggregationError("no client updates to average")
    ordered = sorted(updates, key=lambda u: u.client_id)
    require_same_layout(*[u.theta_local for u in ordered])
    total_n = sum(u.sample_count for u in ordered)
    acc = np.zeros_like(ordered[0].theta_local.values)
    for u in ordered:
        acc += (u.sample_count / total_n) * u.theta_local.values
    return ordered[0].theta_local.with_values(acc)


def server_step(
    state: GlobalModelState, updates: list[ClientUpdate], hp: HyperParams
) -> GlobalModelState:
    """FedAvg server step: the weighted mean model becomes the global model."""
    return replace(state, theta_global=average_models(updates), round=state.round + 1)
